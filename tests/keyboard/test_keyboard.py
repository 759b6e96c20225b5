"""Unit tests for the keyboard layouts and the typing-slip model."""

import pytest

from repro.keyboard import Typist, available_layouts, azerty_fr, dvorak, get_layout, qwerty_us
from repro.keyboard.layout import Key, NO_MODIFIERS, SHIFT_ONLY, build_rows


class TestLayoutModel:
    def test_key_character_and_produces(self):
        key = Key("a", 2, 0.75, outputs={NO_MODIFIERS: "a", SHIFT_ONLY: "A"})
        assert key.character() == "a"
        assert key.character(SHIFT_ONLY) == "A"
        assert key.produces("A") == SHIFT_ONLY
        assert key.produces("z") is None

    def test_distance(self):
        a = Key("a", 0, 0.0)
        b = Key("b", 0, 3.0)
        assert a.distance_to(b) == pytest.approx(3.0)

    def test_build_rows_validates_lengths(self):
        with pytest.raises(ValueError):
            build_rows("broken", [(0, 0.0, "ab", "A")])

    def test_locate_and_supported_characters(self):
        layout = qwerty_us()
        key, modifiers = layout.locate("A")
        assert key.key_id == "a" and modifiers == SHIFT_ONLY
        assert "7" in layout.supported_characters()
        assert layout.locate("é") is None

    def test_neighbours_exclude_self_and_are_sorted_by_distance(self):
        layout = qwerty_us()
        key = layout.key("g")
        neighbours = layout.neighbours(key)
        assert key not in neighbours
        distances = [key.distance_to(n) for n in neighbours]
        assert distances == sorted(distances)

    def test_neighbour_characters_keep_modifiers(self):
        layout = qwerty_us()
        lowercase = layout.neighbour_characters("g")
        uppercase = layout.neighbour_characters("G")
        assert all(c.islower() for c in lowercase if c.isalpha())
        assert all(c.isupper() for c in uppercase if c.isalpha())

    def test_neighbour_characters_for_unknown_char(self):
        assert qwerty_us().neighbour_characters("€") == []


def _recomputed(layout, character, reach, keep_modifiers):
    """``neighbour_characters`` derived straight from the key geometry."""
    key, modifiers = layout.locate(character)
    wanted = modifiers if keep_modifiers else NO_MODIFIERS
    produced = (neighbour.character(wanted) for neighbour in layout.neighbours(key, reach))
    kept = (output for output in produced if output is not None and output != character)
    return list(dict.fromkeys(kept))  # each character once


class TestNeighbourTable:
    """``neighbour_characters`` answers from a per-layout table; the answers
    must be the geometric ones, in the same order, whatever was asked before."""

    @pytest.mark.parametrize("name", ["qwerty-us", "azerty-fr", "dvorak"])
    def test_every_answer_matches_the_geometry(self, name):
        layout = get_layout(name)
        for character in sorted(layout.supported_characters()):
            for reach in (1.0, 1.5, 2.0):
                for keep_modifiers in (True, False):
                    expected = _recomputed(layout, character, reach, keep_modifiers)
                    for _asked_again in range(2):
                        assert layout.neighbour_characters(
                            character, max_distance=reach, keep_modifiers=keep_modifiers
                        ) == expected, (character, reach, keep_modifiers)

    def test_answers_are_fresh_lists(self):
        layout = qwerty_us()
        first = layout.neighbour_characters("g")
        expected = list(first)
        first.append("!")
        first.clear()
        assert layout.neighbour_characters("g") == expected

    def test_a_key_added_after_a_lookup_is_seen(self):
        layout = build_rows("tiny", [(0, 0.0, "ab", "AB")])
        assert layout.neighbour_characters("a") == ["b"]
        assert layout.neighbour_characters("A") == ["B"]
        layout.add_key(Key("c", 1, 0.0, outputs={NO_MODIFIERS: "c", SHIFT_ONLY: "C"}))
        # "b" and "c" are both one unit from "a": ties go by key id
        assert layout.neighbour_characters("a") == ["b", "c"]
        assert layout.neighbour_characters("A") == ["B", "C"]
        assert layout.neighbour_characters("c") == ["a", "b"]

    def test_a_character_two_neighbours_produce_is_listed_once(self):
        layout = build_rows("twins", [(0, 0.0, "ab", None)])
        layout.add_key(Key("b2", 1, 0.0, outputs={NO_MODIFIERS: "b"}))
        assert [key.key_id for key in layout.neighbours(layout.key("a"))] == ["b", "b2"]
        assert layout.neighbour_characters("a") == ["b"]
        assert Typist(layout).insertion_candidates("a") == ["a", "b"]

    def test_extra_keys_join_the_neighbours(self):
        """``build_rows(extra_keys=...)`` registers its keys through ``add_key``."""
        assert " " in qwerty_us().neighbour_characters("v")
        assert " " in qwerty_us().neighbour_characters("V")


def _insertion_recomputed(typist: Typist, character: str) -> list[str]:
    """``Typist.insertion_candidates`` rebuilt from the geometry on every call."""
    candidates = [character]
    for neighbour in _recomputed(typist.layout, character, typist.reach, True):
        if neighbour not in candidates:
            candidates.append(neighbour)
    return candidates


class TestInsertionTable:
    """``insertion_candidates`` answers from the layout's ``characters_near``
    table; the answers must be the recomputed ones, whatever was asked before."""

    @pytest.mark.parametrize("name", ["qwerty-us", "azerty-fr", "dvorak"])
    def test_every_answer_matches_a_recomputation(self, name):
        layout = get_layout(name)
        for reach in (1.0, 1.5, 2.0):
            typist = Typist(layout, reach=reach)
            for character in sorted(layout.supported_characters()):
                expected = _insertion_recomputed(typist, character)
                for _asked_again in range(2):
                    assert typist.insertion_candidates(character) == expected, (character, reach)

    def test_answers_are_fresh_lists(self):
        typist = Typist()
        first = typist.insertion_candidates("g")
        expected = list(first)
        first.append("!")
        first.clear()
        assert typist.insertion_candidates("g") == expected

    def test_a_key_added_after_a_lookup_is_seen(self):
        layout = build_rows("tiny", [(0, 0.0, "ab", "AB")])
        typist = Typist(layout)
        assert typist.insertion_candidates("a") == ["a", "b"]
        layout.add_key(Key("c", 1, 0.0, outputs={NO_MODIFIERS: "c", SHIFT_ONLY: "C"}))
        assert typist.insertion_candidates("a") == ["a", "b", "c"]
        assert typist.insertion_candidates("C") == ["C", "A", "B"]


class TestBundledLayouts:
    def test_available_layout_names(self):
        assert set(available_layouts()) == {"qwerty-us", "azerty-fr", "dvorak"}

    def test_get_layout_aliases_and_case(self):
        assert get_layout("QWERTY").name == "qwerty-us"
        assert get_layout("azerty").name == "azerty-fr"
        with pytest.raises(KeyError):
            get_layout("colemak")

    def test_qwerty_geometry(self):
        layout = qwerty_us()
        g_neighbours = {k.key_id for k in layout.neighbours(layout.key("g"))}
        assert {"f", "h", "t", "y", "b", "v"} <= g_neighbours

    def test_layouts_differ(self):
        q_neighbours = {k.key_id for k in qwerty_us().neighbours(qwerty_us().key("a"))}
        a_neighbours = {k.key_id for k in azerty_fr().neighbours(azerty_fr().key("a"))}
        assert q_neighbours != a_neighbours

    def test_dvorak_has_home_row_vowels(self):
        layout = dvorak()
        assert layout.locate("a") is not None and layout.locate("o") is not None

    def test_space_key_present_everywhere(self):
        for layout in (qwerty_us(), azerty_fr(), dvorak()):
            assert layout.locate(" ") is not None


class TestTypist:
    typist = Typist()

    def test_substitution_candidates_are_adjacent_keys(self):
        candidates = self.typist.substitution_candidates("g")
        assert "h" in candidates and "f" in candidates
        assert "g" not in candidates
        assert "p" not in candidates

    def test_substitution_candidates_for_digits(self):
        candidates = self.typist.substitution_candidates("5")
        assert "4" in candidates and "6" in candidates

    def test_insertion_candidates_include_double_press(self):
        candidates = self.typist.insertion_candidates("k")
        assert candidates[0] == "k"
        assert "j" in candidates or "l" in candidates

    def test_insertion_candidates_unknown_char(self):
        assert self.typist.insertion_candidates("€") == ["€"]

    def test_requires_shift(self):
        assert self.typist.requires_shift("A") is True
        assert self.typist.requires_shift("a") is False
        assert self.typist.requires_shift("€") is None

    def test_toggle_shift_letters_and_symbols(self):
        assert self.typist.toggle_shift("a") == "A"
        assert self.typist.toggle_shift("A") == "a"
        assert self.typist.toggle_shift("1") == "!"

    def test_toggle_shift_without_alternate(self):
        assert self.typist.toggle_shift("€") is None

    def test_can_type(self):
        assert self.typist.can_type("x") and not self.typist.can_type("€")

    def test_custom_reach_widens_candidates(self):
        wide = Typist(reach=2.5)
        assert len(wide.substitution_candidates("g")) > len(self.typist.substitution_candidates("g"))
