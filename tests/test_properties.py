"""Property-based tests (hypothesis) for core data structures and invariants.

The properties pin down the contracts the rest of the system relies on:

* parsers round-trip arbitrary well-formed configuration content,
* the typo submodels only ever produce *single-keystroke* deviations,
* fault scenarios never mutate the pristine configuration they are applied to,
* node addressing is stable across clones,
* detection-rate binning is total and consistent with bin boundaries.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.core.infoset import ConfigNode, ConfigSet, ConfigTree
from repro.core.profile import DETECTION_BINS, detection_bin
from repro.core.templates import DeleteTemplate, resolve_address
from repro.core.templates.base import AddressIndex
from repro.core.views.token_view import TokenView
from repro.keyboard import Typist
from repro.parsers.base import get_dialect
from repro.plugins.spelling import (
    CaseAlterationModel,
    InsertionModel,
    OmissionModel,
    SubstitutionModel,
    TranspositionModel,
)

# ----------------------------------------------------------------- strategies
identifier = st.text(
    alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz_"), min_size=1, max_size=12
)
simple_value = st.text(
    alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789./-_"),
    min_size=1,
    max_size=12,
)
word = st.text(
    alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-."),
    min_size=1,
    max_size=16,
)


@st.composite
def ini_documents(draw) -> str:
    """Generate small but well-formed my.cnf-style documents."""
    lines: list[str] = []
    for _ in range(draw(st.integers(0, 2))):
        lines.append("# " + draw(simple_value))
    for _section in range(draw(st.integers(1, 3))):
        lines.append(f"[{draw(identifier)}]")
        for _directive in range(draw(st.integers(0, 4))):
            name = draw(identifier)
            if draw(st.booleans()):
                lines.append(f"{name} = {draw(simple_value)}")
            else:
                lines.append(name)
    return "\n".join(lines) + "\n"


@st.composite
def config_trees(draw) -> ConfigTree:
    """Generate small section/directive trees."""
    root = ConfigNode("file", name="gen.conf")
    for _ in range(draw(st.integers(1, 3))):
        section = root.append(ConfigNode("section", draw(identifier)))
        for _ in range(draw(st.integers(0, 4))):
            section.append(ConfigNode("directive", draw(identifier), draw(simple_value)))
    return ConfigTree("gen.conf", root, dialect="ini")


# -------------------------------------------------------------------- parsers
class TestParserProperties:
    @given(ini_documents())
    @settings(max_examples=60, deadline=None)
    def test_ini_roundtrip(self, text):
        dialect = get_dialect("ini")
        assert dialect.serialize(dialect.parse(text, "gen.cnf")) == text

    @given(st.lists(st.tuples(identifier, simple_value), min_size=0, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_pgconf_roundtrip(self, pairs):
        text = "".join(f"{name} = {value}\n" for name, value in pairs)
        dialect = get_dialect("pgconf")
        assert dialect.serialize(dialect.parse(text, "g.conf")) == text

    @given(st.lists(st.tuples(identifier, simple_value), min_size=0, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_lineconf_roundtrip(self, pairs):
        text = "".join(f"{name} = {value}\n" for name, value in pairs)
        dialect = get_dialect("lineconf")
        assert dialect.serialize(dialect.parse(text, "g.conf")) == text

    @given(ini_documents())
    @settings(max_examples=30, deadline=None)
    def test_ini_parse_is_deterministic(self, text):
        dialect = get_dialect("ini")
        assert dialect.parse(text, "a").root.structurally_equal(dialect.parse(text, "a").root)


# ---------------------------------------------------------------- typo models
class TestTypoModelProperties:
    @given(word)
    @settings(max_examples=100, deadline=None)
    def test_omission_removes_exactly_one_character(self, text):
        for variant in OmissionModel().mutations(text):
            assert len(variant) == len(text) - 1

    @given(word)
    @settings(max_examples=100, deadline=None)
    def test_insertion_adds_exactly_one_character(self, text):
        for variant in InsertionModel().mutations(text):
            assert len(variant) == len(text) + 1

    @given(word)
    @settings(max_examples=100, deadline=None)
    def test_substitution_preserves_length_and_changes_one_position(self, text):
        for variant in SubstitutionModel().mutations(text):
            assert len(variant) == len(text)
            differences = sum(1 for a, b in zip(variant, text) if a != b)
            assert differences == 1

    @given(word)
    @settings(max_examples=100, deadline=None)
    def test_transposition_is_a_permutation(self, text):
        for variant in TranspositionModel().mutations(text):
            assert sorted(variant) == sorted(text)
            assert variant != text

    @given(word)
    @settings(max_examples=100, deadline=None)
    def test_case_alteration_preserves_spelling_case_insensitively(self, text):
        for variant in CaseAlterationModel().mutations(text):
            assert variant.lower() == text.lower()
            assert variant != text

    @given(word)
    @settings(max_examples=100, deadline=None)
    def test_no_model_returns_the_original(self, text):
        for model in (OmissionModel(), InsertionModel(), SubstitutionModel(), CaseAlterationModel(), TranspositionModel()):
            assert text not in model.mutations(text)

    @given(st.characters(min_codepoint=33, max_codepoint=126))
    @settings(max_examples=60, deadline=None)
    def test_substitution_candidates_are_typable(self, char):
        typist = Typist()
        for candidate in typist.substitution_candidates(char):
            assert typist.can_type(candidate)


# ------------------------------------------------------------------ scenarios
class TestScenarioProperties:
    @given(config_trees(), st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_scenarios_never_mutate_the_original(self, tree, seed):
        config_set = ConfigSet([tree])
        pristine = config_set.clone()
        scenarios = DeleteTemplate("//directive").generate(config_set, random.Random(seed))
        for scenario in scenarios:
            scenario.apply(config_set)
        assert config_set.structurally_equal(pristine)

    @given(config_trees())
    @settings(max_examples=50, deadline=None)
    def test_delete_scenarios_remove_exactly_one_node(self, tree):
        config_set = ConfigSet([tree])
        for scenario in DeleteTemplate("//directive").generate(config_set, random.Random(0)):
            mutated = scenario.apply(config_set)
            assert mutated.get("gen.conf").node_count() == tree.node_count() - 1

    @given(config_trees())
    @settings(max_examples=50, deadline=None)
    def test_addresses_survive_cloning(self, tree):
        config_set = ConfigSet([tree])
        clone = config_set.clone()
        addresses = AddressIndex(config_set)
        for node in tree.walk():
            address = addresses.address_of(node)
            resolved = resolve_address(clone, address)
            assert resolved.kind == node.kind and resolved.name == node.name

    @given(config_trees())
    @settings(max_examples=50, deadline=None)
    def test_token_view_roundtrip_is_identity_without_mutation(self, tree):
        config_set = ConfigSet([tree])
        view = TokenView()
        back = view.untransform(view.transform(config_set), config_set)
        assert back.structurally_equal(config_set)


# -------------------------------------------------------------------- binning
class TestBinningProperties:
    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_every_rate_maps_to_exactly_one_bin(self, rate):
        label = detection_bin(rate)
        matching = [
            (low, high)
            for name, low, high in DETECTION_BINS
            if name == label
        ]
        assert len(matching) == 1
        low, high = matching[0]
        assert low <= rate <= high or (rate < high)
