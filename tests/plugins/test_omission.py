"""Tests for the omission/duplication error plugin."""

import random

import pytest

from repro.core.infoset import ConfigNode, ConfigSet, ConfigTree
from repro.core.suite import CampaignSuite
from repro.errors import SpecError, TemplateError
from repro.plugins.omission import OmissionDuplicationPlugin, conflicting_value
from repro.registry import get_system


def _view_set() -> ConfigSet:
    root = ConfigNode("file", name="app.conf")
    root.append(ConfigNode("directive", "retries", "3", attrs={"separator": " = "}))
    section = root.append(ConfigNode("section", "server"))
    section.append(ConfigNode("directive", "port", "8080", attrs={"separator": " = "}))
    section.append(ConfigNode("directive", "logging", "on", attrs={"separator": " = "}))
    section.append(ConfigNode("directive", "banner", None))
    return ConfigSet([ConfigTree("app.conf", root, dialect="ini")])


class TestConflictingValue:
    def test_numbers_stay_numbers(self):
        rng = random.Random(0)
        assert conflicting_value("3", rng) == "6"
        assert conflicting_value("0", rng) == "1"
        assert conflicting_value("-1", rng) == "-2"

    def test_toggles_flip(self):
        rng = random.Random(0)
        assert conflicting_value("on", rng) == "off"
        assert conflicting_value("no", rng) == "yes"
        assert conflicting_value("TRUE", rng) == "FALSE"

    def test_mixed_tokens_change_their_digits(self):
        rng = random.Random(0)
        assert conflicting_value("192.0.2.1", rng) == "203.1.3.2"

    def test_never_returns_the_original(self):
        rng = random.Random(0)
        for value in ("on", "3", "localhost", "192.0.2.1:80", "a b c", "x"):
            assert conflicting_value(value, rng) != value


class TestGeneration:
    def test_all_three_classes_by_default(self):
        scenarios = OmissionDuplicationPlugin().generate(_view_set(), random.Random(0))
        categories = {scenario.category for scenario in scenarios}
        assert categories == {"omission-directive", "omission-section", "duplicate-conflict"}

    def test_omit_directive_scenarios_cover_every_directive(self):
        plugin = OmissionDuplicationPlugin(include=["omit-directive"])
        scenarios = plugin.generate(_view_set(), random.Random(0))
        assert {s.metadata["directive"] for s in scenarios} == {"retries", "port", "logging", "banner"}

    def test_required_directives_narrow_omissions(self):
        plugin = OmissionDuplicationPlugin(
            include=["omit-directive"], required_directives=["Port"]
        )
        scenarios = plugin.generate(_view_set(), random.Random(0))
        assert [s.metadata["directive"] for s in scenarios] == ["port"]

    def test_duplicate_conflict_skips_valueless_directives(self):
        plugin = OmissionDuplicationPlugin(include=["duplicate-conflict"])
        scenarios = plugin.generate(_view_set(), random.Random(0))
        assert {s.metadata["directive"] for s in scenarios} == {"retries", "port", "logging"}

    def test_duplicate_lands_right_behind_the_original(self):
        config_set = _view_set()
        plugin = OmissionDuplicationPlugin(include=["duplicate-conflict"])
        scenario = next(
            s for s in plugin.generate(config_set, random.Random(0))
            if s.metadata["directive"] == "port"
        )
        mutated = scenario.apply(config_set)
        section = mutated.get("app.conf").root.children[1]
        names = [child.name for child in section.children]
        assert names == ["port", "port", "logging", "banner"]
        assert section.children[0].value == "8080"
        assert section.children[1].value == scenario.metadata["conflicting"]
        assert section.children[1].value != "8080"

    def test_max_scenarios_per_class_caps_each_class(self):
        plugin = OmissionDuplicationPlugin(max_scenarios_per_class=1)
        scenarios = plugin.generate(_view_set(), random.Random(0))
        assert len(scenarios) == 3  # one per class

    def test_generation_is_deterministic(self):
        first = OmissionDuplicationPlugin().generate(_view_set(), random.Random(42))
        second = OmissionDuplicationPlugin().generate(_view_set(), random.Random(42))
        assert [s.scenario_id for s in first] == [s.scenario_id for s in second]
        assert [s.description for s in first] == [s.description for s in second]

    def test_unknown_class_is_rejected(self):
        with pytest.raises(TemplateError):
            OmissionDuplicationPlugin(include=["omit-everything"])


class TestSpecParity:
    def test_manifest_params_and_from_params_are_inverses(self):
        plugin = OmissionDuplicationPlugin(
            include=["omit-directive", "duplicate-conflict"],
            required_directives=["HostKey", "listen"],
            max_scenarios_per_class=7,
        )
        params = plugin.manifest_params()
        rebuilt = OmissionDuplicationPlugin.from_params(
            {key: value for key, value in params.items() if value is not None}
        )
        assert rebuilt.manifest_params() == params

    def test_from_params_rejects_unknown_keys(self):
        with pytest.raises(SpecError):
            OmissionDuplicationPlugin.from_params({"includes": ["omit-directive"]})

    def test_from_params_rejects_unknown_classes_with_pointed_message(self):
        with pytest.raises(SpecError, match="include"):
            OmissionDuplicationPlugin.from_params({"include": ["omit-everything"]})

    def test_param_names_cover_spec_surface(self):
        assert OmissionDuplicationPlugin.param_names == (
            "include",
            "required_directives",
            "max_scenarios_per_class",
        )


def _campaign(system: str, plugin):
    """Profile of a one-system, one-plugin campaign suite."""
    return CampaignSuite({system: get_system(system)}, [plugin], seed=11).run().overall(system)


class TestAgainstSystems:
    """The duplicate policies the plugin was built to separate."""

    def _profile(self, system: str, **kwargs):
        plugin = OmissionDuplicationPlugin(include=["duplicate-conflict"], **kwargs)
        return _campaign(system, plugin)

    def test_nginx_detects_conflicting_duplicates_at_startup(self):
        profile = self._profile("nginx")
        duplicated = [r for r in profile if "directive is duplicate" in " ".join(r.messages)]
        assert duplicated, "nginx should refuse at least one conflicting duplicate"

    def test_sshd_silently_keeps_the_first_value(self):
        profile = self._profile("sshd")
        # sshd never reports duplicates at startup
        assert not any(
            "duplicate" in " ".join(r.messages).lower()
            for r in profile
        )

    def test_omitting_required_hostkey_is_detected_by_sshd(self):
        plugin = OmissionDuplicationPlugin(
            include=["omit-directive"], required_directives=["HostKey"]
        )
        profile = _campaign("sshd", plugin)
        assert len(profile) == 2  # the default config carries two HostKey lines
        # omitting one key is survivable; the simulation stays up either way
        assert profile.injected_count() == 2
