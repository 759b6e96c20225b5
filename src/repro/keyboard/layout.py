"""Physical keyboard geometry model.

A :class:`KeyboardLayout` is a set of :class:`Key` objects placed on a 2-D
grid (row, column) with per-row horizontal stagger, plus a mapping from
(key, modifier set) to the character produced.  The spelling-mistake plugin
uses the geometry to find keys *adjacent* to the key an operator intended to
press, modelling slips of the finger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

#: Modifier names understood by the layouts.
SHIFT = "shift"
ALTGR = "altgr"
NO_MODIFIERS: frozenset[str] = frozenset()
SHIFT_ONLY: frozenset[str] = frozenset({SHIFT})


@dataclass(frozen=True)
class Key:
    """One physical key.

    Attributes
    ----------
    key_id:
        Stable identifier, conventionally the unmodified character
        (``"a"``, ``"1"``, ``";"``) or a symbolic name (``"space"``).
    row, column:
        Grid position; column may be fractional to express row stagger.
    outputs:
        Mapping from a frozenset of modifier names to the produced character.
    """

    key_id: str
    row: int
    column: float
    outputs: dict[frozenset[str], str] = field(default_factory=dict, hash=False, compare=False)

    def character(self, modifiers: frozenset[str] = NO_MODIFIERS) -> str | None:
        """Character produced when pressing this key with ``modifiers``."""
        return self.outputs.get(frozenset(modifiers))

    def produces(self, character: str) -> frozenset[str] | None:
        """Modifier set needed to produce ``character``, or None."""
        for modifiers, output in self.outputs.items():
            if output == character:
                return modifiers
        return None

    def distance_to(self, other: "Key") -> float:
        """Euclidean distance on the key grid."""
        return math.hypot(self.row - other.row, self.column - other.column)


class KeyboardLayout:
    """A named collection of keys with geometry and character mappings."""

    def __init__(self, name: str, keys: Iterable[Key]):
        self.name = name
        self._keys: dict[str, Key] = {}
        self._char_index: dict[str, tuple[Key, frozenset[str]]] = {}
        #: ``neighbour_characters`` answers by (character, max_distance,
        #: keep_modifiers); geometry is constant until the next ``add_key``.
        self._neighbour_table: dict[tuple[str, float, bool], tuple[str, ...]] = {}
        #: ``characters_near`` answers by (character, max_distance), likewise.
        self._near_table: dict[tuple[str, float], tuple[str, ...]] = {}
        for key in keys:
            self.add_key(key)

    def add_key(self, key: Key) -> Key:
        """Register ``key`` and index every character it can produce."""
        self._keys[key.key_id] = key
        self._neighbour_table.clear()
        self._near_table.clear()
        for modifiers, character in key.outputs.items():
            # first registration wins so base characters stay canonical
            self._char_index.setdefault(character, (key, modifiers))
        return key

    # ------------------------------------------------------------------ access
    def keys(self) -> Iterator[Key]:
        """Iterate over all keys."""
        return iter(self._keys.values())

    def key(self, key_id: str) -> Key:
        """Return the key with identifier ``key_id`` (KeyError if missing)."""
        return self._keys[key_id]

    def __contains__(self, key_id: str) -> bool:
        return key_id in self._keys

    def __len__(self) -> int:
        return len(self._keys)

    def supported_characters(self) -> set[str]:
        """All characters this layout can type."""
        return set(self._char_index)

    # --------------------------------------------------------------- geometry
    def locate(self, character: str) -> tuple[Key, frozenset[str]] | None:
        """Return (key, modifiers) producing ``character``, or None."""
        return self._char_index.get(character)

    def neighbours(self, key: Key, max_distance: float = 1.5) -> list[Key]:
        """Keys whose centre lies within ``max_distance`` of ``key`` (excluding it).

        The default radius of 1.5 grid units captures the horizontally and
        vertically adjacent keys as well as the diagonally staggered ones,
        which is the "nearby keys" notion used by the paper.
        """
        result = [
            other
            for other in self._keys.values()
            if other.key_id != key.key_id and key.distance_to(other) <= max_distance
        ]
        result.sort(key=lambda other: (key.distance_to(other), other.key_id))
        return result

    def neighbour_characters(
        self,
        character: str,
        max_distance: float = 1.5,
        keep_modifiers: bool = True,
    ) -> list[str]:
        """Characters an operator might type instead of ``character``.

        Locates the key and modifiers producing ``character`` and returns the
        characters produced by neighbouring keys, nearest first, each once
        and never ``character`` itself.  When ``keep_modifiers`` is
        true (the paper's model) the same modifier combination is applied to
        the neighbouring keys; neighbours that produce nothing under those
        modifiers are skipped.  Answers come from a per-layout table filled
        on first use, so the key scan runs once per question; each call
        returns a fresh list.
        """
        table_key = (character, max_distance, keep_modifiers)
        answer = self._neighbour_table.get(table_key)
        if answer is None:
            located = self.locate(character)
            if located is None:
                return []
            key, modifiers = located
            wanted = modifiers if keep_modifiers else NO_MODIFIERS
            outputs: dict[str, None] = {}
            for neighbour in self.neighbours(key, max_distance):
                produced = neighbour.character(wanted)
                if produced is not None and produced != character:
                    outputs.setdefault(produced)
            answer = self._neighbour_table[table_key] = tuple(outputs)
        return list(answer)

    def characters_near(self, character: str, max_distance: float = 1.5) -> list[str]:
        """``character`` itself, then its :meth:`neighbour_characters`, each once.

        What a press aimed at ``character`` may type.  Answers come from a
        per-layout table like :meth:`neighbour_characters`'; each call
        returns a fresh list.
        """
        table_key = (character, max_distance)
        answer = self._near_table.get(table_key)
        if answer is None:
            neighbours = self.neighbour_characters(character, max_distance=max_distance)
            answer = self._near_table[table_key] = (character, *neighbours)
        return list(answer)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KeyboardLayout({self.name!r}, keys={len(self._keys)})"


def build_rows(
    name: str,
    rows: list[tuple[int, float, str, str | None]],
    extra_keys: Iterable[Key] = (),
) -> KeyboardLayout:
    """Build a layout from row specifications.

    Each row entry is ``(row_index, column_offset, unshifted, shifted)`` where
    ``unshifted`` and ``shifted`` are equal-length strings giving the
    characters produced by consecutive keys without and with Shift.  The
    ``shifted`` string may be ``None`` for rows without shifted output.
    """
    keys: list[Key] = []
    for row_index, offset, unshifted, shifted in rows:
        if shifted is not None and len(shifted) != len(unshifted):
            raise ValueError(f"row {row_index}: shifted and unshifted lengths differ")
        for position, base_char in enumerate(unshifted):
            outputs = {NO_MODIFIERS: base_char}
            if shifted is not None:
                outputs[SHIFT_ONLY] = shifted[position]
            keys.append(
                Key(
                    key_id=base_char,
                    row=row_index,
                    column=offset + position,
                    outputs=outputs,
                )
            )
    layout = KeyboardLayout(name, keys)
    for key in extra_keys:
        layout.add_key(key)
    return layout
