"""Unit tests for the spelling-mistakes plugin and its typo submodels."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.infoset import ConfigNode, ConfigSet
from repro.core.views.token_view import TOKEN_DIRECTIVE_NAME, TOKEN_DIRECTIVE_VALUE
from repro.errors import PluginError
from repro.keyboard import Typist, get_layout
from repro.keyboard.layout import Key, NO_MODIFIERS, SHIFT_ONLY, build_rows
from repro.parsers.base import get_dialect, serialize_tree
from repro.plugins.spelling import (
    CaseAlterationModel,
    InsertionModel,
    OmissionModel,
    SpellingMistakesPlugin,
    SubstitutionModel,
    TranspositionModel,
    TypoModel,
    TypoTemplate,
    default_models,
)


@pytest.fixture
def config_set() -> ConfigSet:
    text = "[mysqld]\nport = 3306\nkey_buffer_size = 16M\n"
    return ConfigSet([get_dialect("ini").parse(text, "my.cnf")])


class TestOmissionModel:
    model = OmissionModel()

    def test_every_mutation_is_one_char_shorter(self):
        for variant in self.model.mutations("port"):
            assert len(variant) == 3

    def test_all_positions_covered(self):
        assert set(self.model.mutations("abc")) == {"bc", "ac", "ab"}

    def test_single_character_words_not_emptied(self):
        assert self.model.mutations("a") == []

    def test_duplicate_results_removed(self):
        # dropping either 'o' of "foo" yields the same string
        assert self.model.mutations("foo").count("fo") == 1


class TestInsertionModel:
    model = InsertionModel()

    def test_mutations_are_one_char_longer(self):
        for variant in self.model.mutations("port"):
            assert len(variant) == 5

    def test_double_press_included(self):
        assert "pport" in self.model.mutations("port") or "poort" in self.model.mutations("port")

    def test_inserted_characters_are_keyboard_neighbours(self):
        typist = Typist()
        candidates = set(typist.insertion_candidates("a"))
        for variant in InsertionModel(typist).mutations("a"):
            inserted = variant[0] if variant[1] == "a" else variant[1]
            assert inserted in candidates

    def test_insertion_before_the_first_character(self):
        # regression: slips used to be generated only *after* keystrokes,
        # so "Xport"-style variants (spurious key before the word) were lost
        variants = self.model.mutations("port")
        assert any(variant.endswith("port") and len(variant) == 5 for variant in variants)

    def test_prefix_insertions_use_first_key_neighbourhood(self):
        typist = Typist()
        candidates = set(typist.insertion_candidates("p"))
        prefixed = [v for v in InsertionModel(typist).mutations("port") if v.endswith("port")]
        assert prefixed and all(variant[0] in candidates for variant in prefixed)

    def test_single_character_word_has_prefix_and_suffix_slips(self):
        variants = set(self.model.mutations("a"))
        assert any(v[1] == "a" for v in variants)  # prefix slip: "?a"
        assert any(v[0] == "a" for v in variants)  # suffix slip: "a?"

    def test_empty_word(self):
        assert self.model.mutations("") == []


class TestSubstitutionModel:
    model = SubstitutionModel()

    def test_mutations_preserve_length(self):
        for variant in self.model.mutations("port"):
            assert len(variant) == 4

    def test_substitutions_use_adjacent_keys(self):
        variants = self.model.mutations("g")
        assert set(variants) <= set(Typist().substitution_candidates("g"))

    def test_substitutions_preserve_shift_state(self):
        variants = self.model.mutations("G")
        assert variants and all(c.isupper() for c in variants if c.isalpha())

    def test_azerty_layout_changes_candidates(self):
        azerty = SubstitutionModel(Typist(get_layout("azerty")))
        assert set(azerty.mutations("q")) != set(self.model.mutations("q"))


class TestCaseAlterationModel:
    model = CaseAlterationModel()

    def test_adjacent_case_swap(self):
        assert "SErverName"[0:2].swapcase() + "rverName"[1:] or True
        variants = self.model.mutations("ServerName")
        assert "serverName" in variants or "sErverName" in variants

    def test_lowercase_word_has_no_alterations(self):
        assert self.model.mutations("port") == []

    def test_non_alpha_not_touched(self):
        assert all("_" in variant for variant in self.model.mutations("My_Opt") if variant)


class TestTranspositionModel:
    model = TranspositionModel()

    def test_swaps_adjacent_characters(self):
        assert set(self.model.mutations("abc")) == {"bac", "acb"}

    def test_identical_adjacent_chars_skipped(self):
        assert self.model.mutations("aa") == []

    def test_length_preserved(self):
        for variant in self.model.mutations("3306"):
            assert len(variant) == 4


class TestTypoTemplate:
    def test_template_generates_one_scenario_per_mutation(self, config_set):
        template = TypoTemplate("//directive[@name='port']", OmissionModel())
        # the template operates on the *system* tree values directly
        scenarios = template.generate(config_set, random.Random(0))
        assert {s.metadata["mutated"] for s in scenarios} == {"306", "336", "330"}
        assert all(s.category == "typo-omission" for s in scenarios)


class TestSpellingPlugin:
    def test_default_models_cover_all_five_classes(self):
        assert {m.name for m in default_models()} == {
            "omission", "insertion", "substitution", "case-alteration", "transposition",
        }

    def test_requires_at_least_one_model(self):
        with pytest.raises(PluginError):
            SpellingMistakesPlugin(models=[])

    def test_generate_targets_requested_token_types(self, config_set):
        plugin = SpellingMistakesPlugin(token_types=(TOKEN_DIRECTIVE_NAME,), mutations_per_token=2)
        view_set = plugin.view.transform(config_set)
        scenarios = plugin.generate(view_set, random.Random(0))
        assert scenarios
        assert all(s.metadata["token_type"] == TOKEN_DIRECTIVE_NAME for s in scenarios)

    def test_mutations_per_token_bounds_scenarios(self, config_set):
        plugin = SpellingMistakesPlugin(mutations_per_token=1)
        view_set = plugin.view.transform(config_set)
        scenarios = plugin.generate(view_set, random.Random(0))
        per_token: dict[tuple, int] = {}
        for scenario in scenarios:
            key = (scenario.metadata["directive"], scenario.metadata["field"], scenario.metadata["original"])
            per_token[key] = per_token.get(key, 0) + 1
        assert all(count == 1 for count in per_token.values())

    def test_directives_per_section_selects_the_same_directives_per_token_type(self):
        text = "[a]\np = 1\nq = 2\nr = 3\n[b]\ns = 4\nt = 5\n"
        config_set = ConfigSet([get_dialect("ini").parse(text, "my.cnf")])
        targets = {}
        for token_type in (TOKEN_DIRECTIVE_NAME, TOKEN_DIRECTIVE_VALUE):
            plugin = SpellingMistakesPlugin.from_params(
                {"token_types": [token_type], "directives_per_section": 2}
            )
            tokens = plugin.target_tokens(plugin.view.transform(config_set))
            targets[token_type] = [token.get("owner_name") for token in tokens]
        assert targets[TOKEN_DIRECTIVE_NAME] == targets[TOKEN_DIRECTIVE_VALUE]
        chosen = targets[TOKEN_DIRECTIVE_NAME]
        assert len(set(chosen) & {"p", "q", "r"}) == 2
        assert {"s", "t"} <= set(chosen)

    def test_directives_per_section_round_trips_and_defaults_to_all(self, config_set):
        plugin = SpellingMistakesPlugin.from_params({"directives_per_section": 1})
        assert plugin.manifest_params()["directives_per_section"] == 1
        rebuilt = SpellingMistakesPlugin.from_params(plugin.manifest_params())
        assert rebuilt.manifest_params() == plugin.manifest_params()
        view_set = plugin.view.transform(config_set)
        assert {t.get("owner_name") for t in plugin.target_tokens(view_set)} < {"port", "key_buffer_size"}
        every = SpellingMistakesPlugin().target_tokens(view_set)
        assert {t.get("owner_name") for t in every} == {"port", "key_buffer_size"}

    def test_generation_is_deterministic_per_seed(self, config_set):
        plugin = SpellingMistakesPlugin(mutations_per_token=2)
        view_set = plugin.view.transform(config_set)
        first = [s.metadata["mutated"] for s in plugin.generate(view_set, random.Random(5))]
        second = [s.metadata["mutated"] for s in plugin.generate(view_set, random.Random(5))]
        assert first == second

    def test_scenarios_apply_and_serialise(self, config_set):
        plugin = SpellingMistakesPlugin(mutations_per_token=1)
        view_set = plugin.view.transform(config_set)
        for scenario in plugin.generate(view_set, random.Random(0)):
            mutated_view = scenario.apply(view_set)
            back = plugin.view.untransform(mutated_view, config_set)
            text = serialize_tree(back.get("my.cnf"))
            assert scenario.metadata["mutated"] in text

    def test_mutated_value_differs_from_original(self, config_set):
        plugin = SpellingMistakesPlugin(mutations_per_token=3)
        view_set = plugin.view.transform(config_set)
        for scenario in plugin.generate(view_set, random.Random(0)):
            assert scenario.metadata["mutated"] != scenario.metadata["original"]

    def test_layout_name_parameter(self, config_set):
        plugin = SpellingMistakesPlugin(layout_name="dvorak", mutations_per_token=1)
        view_set = plugin.view.transform(config_set)
        assert plugin.generate(view_set, random.Random(0))

    def test_unknown_layout_raises(self):
        with pytest.raises(KeyError):
            SpellingMistakesPlugin(layout_name="colemak")


# ------------------------------------------------------------------ exactness
def _enumerated(model: TypoModel, word: str) -> list[str]:
    """Every typo of ``word`` built and deduplicated one by one.

    The reference the indexed :meth:`TypoModel.variants` must reproduce,
    order included: each model's typos are enumerated position by position
    and the first spelling of each distinct string is kept.
    """
    if isinstance(model, OmissionModel):
        if len(word) < 2:
            return []
        built = [word[:index] + word[index + 1:] for index in range(len(word))]
    elif isinstance(model, InsertionModel):
        if not word:
            return []
        built = [c + word for c in model.typist.insertion_candidates(word[0])]
        for index, char in enumerate(word):
            for candidate in model.typist.insertion_candidates(char):
                built.append(word[: index + 1] + candidate + word[index + 1:])
    elif isinstance(model, SubstitutionModel):
        built = [
            word[:index] + candidate + word[index + 1:]
            for index, char in enumerate(word)
            for candidate in model.typist.substitution_candidates(char)
        ]
    elif isinstance(model, CaseAlterationModel):

        def shifted(char):
            # Shift toggles a letter only to one character that toggles back
            swapped = char.swapcase()
            return swapped if len(swapped) == 1 and swapped.swapcase() == char else char

        built = []
        for index in range(len(word) - 1):
            first, second = word[index], word[index + 1]
            if first.isalpha() and second.isalpha() and first.isupper() != second.isupper():
                built.append(word[:index] + shifted(first) + shifted(second) + word[index + 2:])
        for index, char in enumerate(word):
            if char.isalpha() and char.isupper():
                built.append(word[:index] + shifted(char) + word[index + 1:])
    elif isinstance(model, TranspositionModel):
        built = [
            word[:index] + word[index + 1] + word[index] + word[index + 2:]
            for index in range(len(word) - 1)
            if word[index] != word[index + 1]
        ]
    else:
        raise AssertionError(f"no reference enumeration for {model!r}")
    return [variant for variant in dict.fromkeys(built) if variant != word]


LAYOUTS = ("qwerty-us", "azerty-fr", "dvorak")
MODELS_BY_LAYOUT = {name: default_models(Typist(get_layout(name))) for name in LAYOUTS}

#: Letters of both cases, digits, punctuation, whitespace and characters no
#: bundled layout types (accented letters, case mappings that are no-ops or
#: change length).
ALPHABET = "abcdeklmoszABCDEKLMOSZ0159.,;:-_/'\"!? \téÉçÇñßªİ€µΣς"
characters = st.sampled_from(ALPHABET)
words = st.one_of(
    st.text(characters, max_size=14),
    # runs of equal characters, where omission and insertion typos coincide
    st.lists(st.tuples(characters, st.integers(1, 4)), max_size=6).map(
        lambda runs: "".join(char * count for char, count in runs)
    ),
)


class TestIndexedVariants:
    """``variants`` indexes exactly the typos the enumeration builds."""

    @pytest.mark.parametrize("layout", LAYOUTS)
    @given(word=words)
    @settings(max_examples=150, deadline=None)
    def test_variants_equal_the_enumeration(self, layout, word):
        for model in MODELS_BY_LAYOUT[layout]:
            expected = _enumerated(model, word)
            variants = model.variants(word)
            assert list(variants) == expected, (model.name, word)
            assert len(variants) == len(expected), (model.name, word)
            assert [variants[j] for j in range(len(variants))] == expected, (model.name, word)
            assert model.mutations(word) == expected
            for outside in (len(expected), len(expected) + 3, -len(expected) - 1):
                with pytest.raises(IndexError):
                    variants[outside]

    def test_edge_words(self):
        for model in MODELS_BY_LAYOUT["qwerty-us"]:
            for word in ("", "a", "A", "aa", "aaa", "aA", "Aa", "€", "€€", "ß", "Aß", "Aª", "ªA"):
                assert list(model.variants(word)) == _enumerated(model, word), (model.name, word)

    @pytest.mark.parametrize(
        "word, typos",
        [
            ("Aß", ["aß"]),  # ß upper-cases to "SS": never toggled
            ("ßA", ["ßa"]),
            ("Aª", ["aª"]),  # ª has no other case
            ("ªA", ["ªa"]),
            ("İa", ["İA"]),  # İ lower-cases to "i" plus a combining dot
            ("aİ", ["Aİ"]),
            ("İ", []),
            ("Ab", ["aB", "ab"]),
        ],
    )
    def test_case_alteration_toggles_only_shift_letters(self, word, typos):
        assert CaseAlterationModel().mutations(word) == typos
        assert _enumerated(CaseAlterationModel(), word) == typos

    def test_variants_are_read_only_sequences(self):
        variants = SubstitutionModel().variants("port")
        assert variants[-1] == list(variants)[-1]
        with pytest.raises(TypeError):
            variants[0] = "x"  # type: ignore[index]

    def test_a_key_added_after_a_lookup_is_seen(self):
        layout = build_rows("tiny", [(0, 0.0, "ab", "AB")])
        typist = Typist(layout)
        insertion, substitution = InsertionModel(typist), SubstitutionModel(typist)
        assert substitution.mutations("a") == ["b"]
        assert insertion.mutations("a") == ["aa", "ba", "ab"]
        layout.add_key(Key("c", 1, 0.0, outputs={NO_MODIFIERS: "c", SHIFT_ONLY: "C"}))
        assert substitution.mutations("a") == ["b", "c"]
        assert insertion.mutations("a") == ["aa", "ba", "ca", "ab", "ac"]

    def test_keys_producing_one_character_twice(self):
        layout = build_rows("twins", [(0, 0.0, "ab", "AB")])
        layout.add_key(Key("b2", 1, 0.0, outputs={NO_MODIFIERS: "b", SHIFT_ONLY: "B"}))
        for model in default_models(Typist(layout)):
            for word in ("a", "ab", "aB", "Aab", "ba"):
                assert list(model.variants(word)) == _enumerated(model, word), (model.name, word)


def _token(word: str) -> ConfigNode:
    return ConfigNode("token", value=word)


class TestSamplingByIndex:
    """Sampling the lazy candidates draws what sampling their list draws."""

    @given(
        word=st.text(characters, max_size=24),
        seed=st.integers(0, 2**32 - 1),
        layout=st.sampled_from(LAYOUTS),
    )
    @settings(max_examples=200, deadline=None)
    def test_sample_matches_the_materialised_list(self, word, seed, layout):
        plugin = SpellingMistakesPlugin(models=MODELS_BY_LAYOUT[layout])
        lazy = plugin.mutations_for_token(_token(word))
        materialised = list(lazy)
        assert len(lazy) == len(materialised)
        assert materialised == [
            (model, variant) for model in plugin.models for variant in _enumerated(model, word)
        ]
        for k in (1, 2, 5, 6, 64):
            if k > len(materialised):
                continue
            assert random.Random(seed).sample(lazy, k) == random.Random(seed).sample(materialised, k)

    def test_populations_cross_the_set_size_switch(self):
        # random.sample copies a population of up to 21 items (277 for
        # k = 64) and indexes a bigger one: the words above reach both sides
        plugin = SpellingMistakesPlugin()
        sizes = [len(plugin.mutations_for_token(_token(ALPHABET[:n]))) for n in range(25)]
        assert sizes[0] == 0
        assert any(0 < size <= 21 for size in sizes)
        assert any(21 < size <= 277 for size in sizes) and max(sizes) > 277


class _Doubling(TypoModel):
    """A custom model that defines only ``mutations``."""

    name = "doubling"

    def mutations(self, word: str) -> list[str]:
        return [word[: i + 1] + word[i:] for i in range(len(word))]


def test_a_custom_model_samples_as_a_list(config_set):
    models = [_Doubling(), OmissionModel()]
    plugin = SpellingMistakesPlugin(models=models, mutations_per_token=2)
    view_set = plugin.view.transform(config_set)
    drawn = [
        (s.metadata["model"], s.metadata["mutated"])
        for s in plugin.generate(view_set, random.Random(11))
    ]
    rng = random.Random(11)
    expected = []
    for token in plugin.target_tokens(view_set):
        pairs = [(m.name, v) for m in models for v in m.mutations(token.value)]
        expected += rng.sample(pairs, 2) if len(pairs) > 2 else pairs
    assert drawn == expected
    assert isinstance(_Doubling().variants("ab"), tuple)
