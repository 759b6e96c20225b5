"""Unit tests for the injection engine, using a small in-memory SUT."""

import random
from functools import partial

import pytest

from repro.core.engine import InjectionEngine
from repro.core.infoset import ConfigSet
from repro.core.profile import InjectionOutcome
from repro.core.templates import DeleteTemplate, FaultScenario, SetValueTemplate
from repro.core.views.structure_view import StructureView
from repro.errors import SerializationError, SUTError, TransformError
from repro.parsers.base import get_dialect, serialize_tree
from repro.plugins import SpellingMistakesPlugin, StructuralErrorsPlugin
from repro.plugins.base import ErrorGeneratorPlugin
from repro.registry import available_systems, get_system
from repro.sut.base import FunctionalTest, StartResult, SystemUnderTest, TestResult


class ToySUT(SystemUnderTest):
    """Strict key=value service: knows three settings, `mode` must be a/b."""

    name = "toy"
    DEFAULT = "mode = a\nlimit = 10\nlabel = hello\n"

    def __init__(self):
        self.settings = None
        self.start_calls = 0
        self.stop_calls = 0

    def default_configuration(self):
        return {"toy.conf": self.DEFAULT}

    def dialect_for(self, filename):
        return "lineconf"

    def start(self, files):
        self.start_calls += 1
        tree = get_dialect("lineconf").parse(files["toy.conf"], "toy.conf")
        settings = {}
        for node in tree.root.children_of_kind("directive"):
            if node.name not in ("mode", "limit", "label"):
                return StartResult.failed(f"unknown setting {node.name!r}")
            settings[node.name] = node.value
        if settings.get("mode") not in ("a", "b"):
            return StartResult.failed("mode must be 'a' or 'b'")
        self.settings = settings
        return StartResult.ok()

    def stop(self):
        self.stop_calls += 1
        self.settings = None

    def functional_tests(self):
        sut = self

        class LimitPositive(FunctionalTest):
            name = "limit-positive"

            def run(self, _sut):
                try:
                    ok = int(sut.settings.get("limit", "0")) > 0
                except (TypeError, ValueError):
                    ok = False
                return TestResult(self.name, ok, "limit must be a positive integer")

        return [LimitPositive()]


class TemplatePlugin(ErrorGeneratorPlugin):
    """Plugin wrapper around an arbitrary template (for engine tests)."""

    name = "template-plugin"

    def __init__(self, template):
        self.template = template
        self._view = StructureView()

    @property
    def view(self):
        return self._view

    def generate(self, view_set, rng):
        return self.template.generate(view_set, rng)


@pytest.fixture
def sut():
    return ToySUT()


class TestEngineBasics:
    def test_parse_initial_configuration(self, sut):
        engine = InjectionEngine(sut, TemplatePlugin(DeleteTemplate("//directive")))
        config_set = engine.parse_initial_configuration()
        assert isinstance(config_set, ConfigSet)
        assert config_set.get("toy.conf").dialect == "lineconf"

    def test_generate_scenarios_is_seed_deterministic(self, sut):
        plugin = TemplatePlugin(DeleteTemplate("//directive"))
        first = InjectionEngine(sut, plugin, seed=5).generate_scenarios()[2]
        second = InjectionEngine(sut, plugin, seed=5).generate_scenarios()[2]
        assert [s.scenario_id for s in first] == [s.scenario_id for s in second]

    def test_baseline_check_passes_for_healthy_sut(self, sut):
        engine = InjectionEngine(sut, TemplatePlugin(DeleteTemplate("//directive")))
        assert engine.baseline_check() == []

    def test_baseline_check_reports_broken_default(self):
        broken = ToySUT()
        broken.DEFAULT = "mode = z\n"
        engine = InjectionEngine(broken, TemplatePlugin(DeleteTemplate("//directive")))
        problems = engine.baseline_check()
        assert problems and "refused to start" in problems[0]


class TestOutcomeClassification:
    def test_unknown_setting_detected_at_startup(self, sut):
        plugin = TemplatePlugin(
            SetValueTemplate("//directive[@name='label']", lambda n, r: [("rename", "labe1")], field_name="name")
        )
        profile = InjectionEngine(sut, plugin, seed=0).run()
        assert len(profile) == 1
        assert profile.records[0].outcome is InjectionOutcome.DETECTED_AT_STARTUP
        assert "unknown setting" in profile.records[0].messages[0]

    def test_invalid_value_detected_at_startup(self, sut):
        plugin = TemplatePlugin(
            SetValueTemplate("//directive[@name='mode']", lambda n, r: [("flip", "zz")])
        )
        profile = InjectionEngine(sut, plugin, seed=0).run()
        assert profile.records[0].outcome is InjectionOutcome.DETECTED_AT_STARTUP

    def test_functional_test_detection(self, sut):
        plugin = TemplatePlugin(
            SetValueTemplate("//directive[@name='limit']", lambda n, r: [("zero", "0")])
        )
        profile = InjectionEngine(sut, plugin, seed=0).run()
        record = profile.records[0]
        assert record.outcome is InjectionOutcome.DETECTED_BY_TESTS
        assert record.failed_tests == ["limit-positive"]

    def test_silently_accepted_error_is_ignored(self, sut):
        plugin = TemplatePlugin(
            SetValueTemplate("//directive[@name='label']", lambda n, r: [("typo", "helo")])
        )
        profile = InjectionEngine(sut, plugin, seed=0).run()
        assert profile.records[0].outcome is InjectionOutcome.IGNORED

    def test_sut_stopped_after_every_scenario(self, sut):
        plugin = TemplatePlugin(DeleteTemplate("//directive"))
        profile = InjectionEngine(sut, plugin, seed=0).run()
        assert len(profile) == 3
        assert sut.stop_calls >= sut.start_calls
        assert not sut.is_running()

    def test_records_carry_duration_and_metadata(self, sut):
        plugin = TemplatePlugin(DeleteTemplate("//directive[@name='limit']"))
        record = InjectionEngine(sut, plugin, seed=0).run().records[0]
        assert record.duration_seconds >= 0
        assert record.metadata["node"] == "directive:limit"

    def test_observer_called_per_record(self, sut):
        seen = []
        plugin = TemplatePlugin(DeleteTemplate("//directive"))
        InjectionEngine(sut, plugin, seed=0, observer=seen.append).run()
        assert len(seen) == 3

    def test_explicit_scenarios_override_generation(self, sut):
        plugin = TemplatePlugin(DeleteTemplate("//directive"))
        engine = InjectionEngine(sut, plugin, seed=0)
        _, view_set, scenarios = engine.generate_scenarios()
        profile = engine.run(scenarios=scenarios[:1])
        assert len(profile) == 1

    def test_sut_error_recorded_as_harness_error(self):
        class ExplodingSUT(ToySUT):
            def start(self, files):
                raise SUTError("environment is broken")

        plugin = TemplatePlugin(DeleteTemplate("//directive"))
        engine = InjectionEngine(ExplodingSUT(), plugin, seed=0)
        config_set, view_set, scenarios = engine.generate_scenarios()
        record = engine.run_scenario(scenarios[0], config_set, view_set)
        assert record.outcome is InjectionOutcome.HARNESS_ERROR

    def test_unserialisable_mutation_marked_impossible(self, sut):
        bad_scenario = FaultScenario(
            scenario_id="bad",
            description="make the tree unserialisable",
            category="broken",
            operations=(),
        )

        class BadPlugin(TemplatePlugin):
            def generate(self, view_set, rng):
                # mutate the view into a shape lineconf cannot express
                from repro.core.templates import InsertOperation, NodeAddress
                from repro.core.infoset import ConfigNode

                return [
                    FaultScenario(
                        scenario_id="nested-section",
                        description="insert a section into a flat file",
                        category="broken",
                        operations=(
                            InsertOperation(
                                NodeAddress("toy.conf", ()), ConfigNode("section", "oops")
                            ),
                        ),
                    )
                ]

        profile = InjectionEngine(sut, BadPlugin(DeleteTemplate("//directive")), seed=0).run()
        assert profile.records[0].outcome is InjectionOutcome.INJECTION_IMPOSSIBLE


#: Scenarios checked per (system, plugin) case, spread evenly over the list.
ORACLE_SCENARIOS = 40

UNEXPRESSIBLE = (SerializationError, TransformError)


def _reference_files(engine, scenario):
    """The obviously-correct materialisation: fresh parse, cloning apply, full untransform."""
    config_set = engine.parse_initial_configuration()
    view_set = engine.plugin.view.transform(config_set)
    system_set = engine.plugin.view.untransform(scenario.apply(view_set), config_set)
    return {tree.name: serialize_tree(tree) for tree in system_set}


class TestMaterializeOracle:
    """``materialize`` (in-place apply/undo, partial untransform) vs a fresh parse."""

    @pytest.mark.parametrize(
        "make_plugin",
        [partial(SpellingMistakesPlugin, mutations_per_token=1), StructuralErrorsPlugin],
        ids=["spelling", "structural"],
    )
    @pytest.mark.parametrize("system", available_systems())
    def test_matches_fresh_parse_reference(self, system, make_plugin, clone_counts):
        engine = InjectionEngine(get_system(system), make_plugin(), seed=2008)
        config_set, view_set, scenarios = engine.generate_scenarios()
        if not scenarios:
            pytest.skip(f"{system} generates no scenarios for this plugin")
        baseline = engine.baseline_files(config_set, view_set)
        assert baseline is not None
        pristine = engine.plugin.view.transform(engine.parse_initial_configuration())
        step = max(1, len(scenarios) // ORACLE_SCENARIOS)
        for scenario in scenarios[::step][:ORACLE_SCENARIOS]:
            set_clones = clone_counts["set"]
            try:
                files = engine.materialize(scenario, config_set, view_set, baseline_files=baseline)
            except UNEXPRESSIBLE:
                files = None
            assert clone_counts["set"] == set_clones, f"{scenario.scenario_id} cloned the set"
            assert view_set.structurally_equal(pristine), scenario.scenario_id
            if files is None:
                with pytest.raises(UNEXPRESSIBLE):
                    _reference_files(engine, scenario)
            else:
                assert files == _reference_files(engine, scenario), scenario.scenario_id
