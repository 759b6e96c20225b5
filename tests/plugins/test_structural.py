"""Unit tests for the structural errors and structural variations plugins."""

import random

import pytest

from repro.core.infoset import ConfigNode, ConfigSet
from repro.core.templates.base import AddressIndex, NodeAddress
from repro.errors import TemplateError
from repro.parsers.base import get_dialect, serialize_tree
from repro.plugins.structural import (
    PermuteChildrenOperation,
    StructuralErrorsPlugin,
    StructuralVariationsPlugin,
    VARIATION_CLASSES,
)


@pytest.fixture
def ini_set() -> ConfigSet:
    text = (
        "[client]\n"
        "port = 3306\n"
        "[mysqld]\n"
        "port = 3306\n"
        "datadir = /var/lib/mysql\n"
        "key_buffer_size = 16M\n"
    )
    return ConfigSet([get_dialect("ini").parse(text, "my.cnf")])


@pytest.fixture
def rng() -> random.Random:
    return random.Random(7)


class TestPermuteChildrenOperation:
    def test_reorders_children(self, ini_set):
        op = PermuteChildrenOperation(NodeAddress("my.cnf", (1,)), (2, 1, 0))
        op.apply(ini_set)
        mysqld = ini_set.get("my.cnf").root.children[1]
        assert [c.name for c in mysqld.children] == ["key_buffer_size", "datadir", "port"]

    def test_partial_permutation_keeps_tail(self, ini_set):
        op = PermuteChildrenOperation(NodeAddress("my.cnf", (1,)), (1, 0))
        op.apply(ini_set)
        mysqld = ini_set.get("my.cnf").root.children[1]
        assert [c.name for c in mysqld.children] == ["datadir", "port", "key_buffer_size"]

    def test_invalid_permutation_rejected(self, ini_set):
        with pytest.raises(TemplateError):
            PermuteChildrenOperation(NodeAddress("my.cnf", (1,)), (0, 0, 1)).apply(ini_set)

    def test_too_long_permutation_rejected(self, ini_set):
        with pytest.raises(TemplateError):
            PermuteChildrenOperation(NodeAddress("my.cnf", (1,)), (0, 1, 2, 3, 4)).apply(ini_set)

    def test_describe(self):
        assert "permute" in PermuteChildrenOperation(NodeAddress("x", ()), (0,)).describe()


class TestStructuralErrorsPlugin:
    def test_all_classes_generated(self, ini_set, rng):
        plugin = StructuralErrorsPlugin(
            foreign_directives=[ConfigNode("directive", "Listen", "80")]
        )
        scenarios = plugin.generate(plugin.view.transform(ini_set), rng)
        categories = {s.category for s in scenarios}
        assert {
            "structure-omit-directive",
            "structure-omit-section",
            "structure-duplicate",
            "structure-misplace",
            "structure-foreign",
        } <= categories

    def test_include_filter(self, ini_set, rng):
        plugin = StructuralErrorsPlugin(include=["omit-directive"])
        scenarios = plugin.generate(plugin.view.transform(ini_set), rng)
        assert {s.category for s in scenarios} == {"structure-omit-directive"}
        assert len(scenarios) == 4

    def test_unknown_class_rejected(self):
        with pytest.raises(TemplateError):
            StructuralErrorsPlugin(include=["explode-config"])

    def test_max_scenarios_per_class(self, ini_set, rng):
        plugin = StructuralErrorsPlugin(include=["omit-directive"], max_scenarios_per_class=2)
        assert len(plugin.generate(plugin.view.transform(ini_set), rng)) == 2

    def test_scenario_ids_unique(self, ini_set, rng):
        plugin = StructuralErrorsPlugin()
        scenarios = plugin.generate(plugin.view.transform(ini_set), rng)
        ids = [s.scenario_id for s in scenarios]
        assert len(ids) == len(set(ids))

    @pytest.mark.parametrize("max_scenarios_per_class", [None, 2])
    def test_one_address_index_per_generate(self, ini_set, monkeypatch, max_scenarios_per_class):
        """The five templates share one index: one walk of the set per call,
        with or without the random subset around each template."""
        built = []
        original = AddressIndex.__init__

        def counted(self, config_set):
            built.append(config_set)
            original(self, config_set)

        plugin = StructuralErrorsPlugin(
            foreign_directives=[ConfigNode("directive", "Listen", "80")],
            max_scenarios_per_class=max_scenarios_per_class,
        )
        view_set = plugin.view.transform(ini_set)
        monkeypatch.setattr(AddressIndex, "__init__", counted)
        for seed in (1, 2):
            built.clear()
            scenarios = plugin.generate(view_set, random.Random(seed))
            assert len({s.category for s in scenarios}) == 5
            assert built == [view_set]

    def test_duplicate_scenario_serialises(self, ini_set, rng):
        plugin = StructuralErrorsPlugin(include=["duplicate-directive"])
        view_set = plugin.view.transform(ini_set)
        scenario = plugin.generate(view_set, rng)[0]
        mutated = plugin.view.untransform(scenario.apply(view_set), ini_set)
        text = serialize_tree(mutated.get("my.cnf"))
        assert text.count(scenario.metadata["node"].split(":")[1]) >= 2


class TestStructuralVariationsPlugin:
    def test_all_variation_classes_produce_scenarios(self, ini_set, rng):
        plugin = StructuralVariationsPlugin(variants_per_class=2)
        scenarios = plugin.generate(plugin.view.transform(ini_set), rng)
        produced = {s.metadata["variation"] for s in scenarios}
        assert produced == set(VARIATION_CLASSES)

    def test_variants_per_class_respected(self, ini_set, rng):
        plugin = StructuralVariationsPlugin(classes=["directive-order"], variants_per_class=4)
        scenarios = plugin.generate(plugin.view.transform(ini_set), rng)
        assert len(scenarios) == 4

    def test_unknown_class_rejected(self):
        with pytest.raises(TemplateError):
            StructuralVariationsPlugin(classes=["invert-gravity"])

    def test_section_order_variant_keeps_all_directives(self, ini_set, rng):
        plugin = StructuralVariationsPlugin(classes=["section-order"], variants_per_class=3)
        view_set = plugin.view.transform(ini_set)
        for scenario in plugin.generate(view_set, rng):
            mutated = scenario.apply(view_set)
            names = sorted(
                n.name for n in mutated.get("my.cnf").walk() if n.kind == "directive"
            )
            assert names == sorted(
                n.name for n in ini_set.get("my.cnf").walk() if n.kind == "directive"
            )

    def test_section_order_needs_two_sections(self, rng):
        flat = ConfigSet([get_dialect("pgconf").parse("a = 1\nb = 2\n", "postgresql.conf")])
        plugin = StructuralVariationsPlugin(classes=["section-order"], variants_per_class=3)
        assert plugin.generate(plugin.view.transform(flat), rng) == []

    def test_mixed_case_variant_changes_case_only(self, ini_set, rng):
        plugin = StructuralVariationsPlugin(classes=["mixed-case-names"], variants_per_class=1)
        view_set = plugin.view.transform(ini_set)
        scenario = plugin.generate(view_set, rng)[0]
        mutated = scenario.apply(view_set)
        originals = [n.name for n in ini_set.get("my.cnf").walk() if n.kind == "directive"]
        mutated_names = [n.name for n in mutated.get("my.cnf").walk() if n.kind == "directive"]
        assert [n.lower() for n in mutated_names] == [n.lower() for n in originals]
        assert mutated_names != originals

    def test_separator_variant_uses_equals_styles_for_ini(self, ini_set, rng):
        plugin = StructuralVariationsPlugin(classes=["separator-whitespace"], variants_per_class=1)
        view_set = plugin.view.transform(ini_set)
        scenario = plugin.generate(view_set, rng)[0]
        mutated = scenario.apply(view_set)
        for node in mutated.get("my.cnf").walk():
            if node.kind == "directive" and node.value is not None:
                assert "=" in node.get("separator")

    def test_separator_variant_uses_whitespace_for_apache(self, rng):
        apache = ConfigSet([get_dialect("apache").parse("Listen 80\nTimeout 120\n", "httpd.conf")])
        plugin = StructuralVariationsPlugin(classes=["separator-whitespace"], variants_per_class=1)
        view_set = plugin.view.transform(apache)
        scenario = plugin.generate(view_set, rng)[0]
        mutated = scenario.apply(view_set)
        for node in mutated.get("httpd.conf").walk():
            if node.kind == "directive":
                assert "=" not in node.get("separator")

    def test_truncation_prefixes_are_unambiguous_within_file(self, ini_set, rng):
        plugin = StructuralVariationsPlugin(classes=["truncated-names"], variants_per_class=1, min_truncation=4)
        view_set = plugin.view.transform(ini_set)
        scenario = plugin.generate(view_set, rng)[0]
        mutated = scenario.apply(view_set)
        original_names = [n.name for n in ini_set.get("my.cnf").walk() if n.kind == "directive"]
        for node in mutated.get("my.cnf").walk():
            if node.kind != "directive":
                continue
            full_matches = [o for o in original_names if o.lower().startswith(node.name.lower())]
            assert len(set(full_matches)) <= 1 or node.name in original_names

    def test_variation_scenarios_serialise(self, ini_set, rng):
        plugin = StructuralVariationsPlugin(variants_per_class=1)
        view_set = plugin.view.transform(ini_set)
        for scenario in plugin.generate(view_set, rng):
            mutated = plugin.view.untransform(scenario.apply(view_set), ini_set)
            assert serialize_tree(mutated.get("my.cnf"))
