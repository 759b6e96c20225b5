"""Typing-slip model built on top of a keyboard layout.

The :class:`Typist` answers the questions the spelling plugin needs:

* which characters could an operator have hit instead of the intended one
  (substitution candidates, Section 4.1 of the paper),
* which spurious characters could slip in next to an intended keypress
  (insertion candidates),
* how does a miscoordinated Shift press alter the case of adjacent letters
  (case alterations, Section 2.1).
"""

from __future__ import annotations

from repro.keyboard.layout import KeyboardLayout, SHIFT
from repro.keyboard.layouts import qwerty_us


class Typist:
    """Models finger slips on a specific keyboard layout."""

    def __init__(self, layout: KeyboardLayout | None = None, reach: float = 1.5):
        #: Keyboard the operator is typing on.
        self.layout = layout or qwerty_us()
        #: Neighbour radius in grid units (1.5 covers adjacent + staggered keys).
        self.reach = reach

    # ----------------------------------------------------------- substitutions
    def substitution_candidates(self, character: str) -> list[str]:
        """Characters produced by pressing a key adjacent to the intended one.

        The same modifier combination as the intended character is kept, per
        the paper's model (an operator holding Shift who misses ``A`` will
        produce another *capital* letter).  Each candidate appears once, and
        ``character`` itself never does.
        """
        return self.layout.neighbour_characters(character, max_distance=self.reach)

    # -------------------------------------------------------------- insertions
    def insertion_candidates(self, character: str) -> list[str]:
        """Spurious characters that may be typed alongside ``character``.

        An accidental double press of a nearby key inserts one of its
        characters; the intended character itself is also a realistic
        insertion (key bounce / double tap), so it is included first.
        Answers come from the layout's :meth:`~KeyboardLayout.characters_near`
        table; each call returns a fresh list.
        """
        return self.layout.characters_near(character, max_distance=self.reach)

    # ---------------------------------------------------------------- shifting
    def requires_shift(self, character: str) -> bool | None:
        """True/False when the layout can type ``character``, None otherwise."""
        located = self.layout.locate(character)
        if located is None:
            return None
        _key, modifiers = located
        return SHIFT in modifiers

    def toggle_shift(self, character: str) -> str | None:
        """Character produced by the same key with Shift toggled.

        For letters this is simply the opposite case; for other keys it is the
        other legend on the key (``1`` <-> ``!``).  Returns None when the
        layout cannot type ``character`` or the key has no alternate output.
        """
        located = self.layout.locate(character)
        if located is None:
            return None
        key, modifiers = located
        toggled = frozenset(modifiers ^ {SHIFT})
        alternate = key.character(toggled)
        if alternate is None or alternate == character:
            return None
        return alternate

    def can_type(self, character: str) -> bool:
        """True when the layout has a key producing ``character``."""
        return self.layout.locate(character) is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Typist(layout={self.layout.name!r}, reach={self.reach})"
