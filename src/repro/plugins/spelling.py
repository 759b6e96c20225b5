"""Spelling-mistakes plugin: realistic one-letter typos.

Implements the five typo submodels of Sections 2.1 and 4.1, adapted from the
triphone classification of van Berkel & De Smedt:

* **omission** -- one character is missing,
* **insertion** -- a spurious character (produced by the intended key or one
  of its neighbours) slips in,
* **substitution** -- a character is replaced by the output of a nearby key
  pressed with the same modifiers,
* **case alteration** -- the case of adjacent letters is swapped because the
  Shift key was pressed or released at the wrong moment,
* **transposition** -- two adjacent letters are swapped.

Each submodel extends the abstract modify template; the plugin composes them
over the token view and can either enumerate all possible typos or select a
bounded random subset per target token (the paper's case studies pick a
handful of random typos per directive).  A sampled typo is drawn by index
from the models' :meth:`TypoModel.variants`, so only the drawn typos are
built.
"""

from __future__ import annotations

import hashlib
import operator
import random
from abc import ABC, abstractmethod
from bisect import bisect_right
from collections.abc import Sequence
from itertools import accumulate, repeat
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.core.infoset import ConfigNode, ConfigSet
from repro.core.templates.base import AddressIndex, FaultScenario, SetFieldOperation
from repro.core.templates.primitives import ModifyTemplate
from repro.core.views.token_view import (
    TOKEN_DIRECTIVE_NAME,
    TOKEN_DIRECTIVE_VALUE,
    TOKEN_SECTION_ARG,
    TOKEN_SECTION_NAME,
    TokenView,
)
from repro.errors import PluginError, SpecError
from repro.keyboard.typist import Typist
from repro.plugins.base import (
    ErrorGeneratorPlugin,
    positive_int_param,
    register_plugin,
    string_list_param,
)

__all__ = [
    "TypoModel",
    "TypoVariants",
    "OmissionModel",
    "InsertionModel",
    "SubstitutionModel",
    "CaseAlterationModel",
    "TranspositionModel",
    "TypoTemplate",
    "SpellingMistakesPlugin",
    "default_models",
]


# ------------------------------------------------------------------- sequences
class _Chained(Sequence):
    """A read-only sequence made of consecutive parts, located by bisection.

    ``sizes`` are the part lengths; ``[j]`` finds the part holding item
    ``j`` and asks :meth:`_item` for it, so no part is materialised.
    """

    __slots__ = ("_ends",)

    def __init__(self, sizes: Iterable[int]):
        self._ends = list(accumulate(sizes))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, index):
        index = operator.index(index)
        size = len(self)
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError(f"{type(self).__name__} index out of range")
        part = bisect_right(self._ends, index)
        return self._item(part, index - (self._ends[part - 1] if part else 0))

    @abstractmethod
    def _item(self, part: int, offset: int):
        """Item ``offset`` of part ``part``."""


#: One group of typos of a word: ``word[start:end]`` replaced by each of
#: the replacements in turn.
_Edit = tuple[int, int, tuple[str, ...]]


class TypoVariants(_Chained):
    """The distinct typos of one word under one model, built when asked for.

    Holds the model's edit groups, which are pairwise distinct by
    construction: ``len()`` sums their sizes and ``[j]`` builds the one
    string it names, both in O(len(word)).  Iteration builds the strings in
    order directly, so enumerating costs what building a list does.
    """

    __slots__ = ("word", "_edits")

    def __init__(self, word: str, edits: list[_Edit]):
        super().__init__(map(len, map(operator.itemgetter(2), edits)))
        self.word = word
        self._edits = edits

    def _item(self, part: int, offset: int) -> str:
        start, end, replacements = self._edits[part]
        return self.word[:start] + replacements[offset] + self.word[end:]

    def __iter__(self) -> Iterator[str]:
        word = self.word
        for start, end, replacements in self._edits:
            head, tail = word[:start], word[end:]
            for replacement in replacements:
                yield head + replacement + tail


class _TokenTypos(_Chained):
    """(model, typo) pairs of one token: each model's variants in turn."""

    __slots__ = ("_parts",)

    def __init__(self, parts: list[tuple[TypoModel, Sequence[str]]]):
        super().__init__(map(len, map(operator.itemgetter(1), parts)))
        self._parts = parts

    def _item(self, part: int, offset: int) -> tuple[TypoModel, str]:
        model, variants = self._parts[part]
        return model, variants[offset]

    def __iter__(self) -> Iterator[tuple[TypoModel, str]]:
        for model, variants in self._parts:
            yield from zip(repeat(model), variants)


# ----------------------------------------------------------------------- models
class TypoModel(ABC):
    """One category of single-keystroke error.

    A model answers two questions about a word.  :meth:`mutations` lists
    its distinct faulty spellings.  :meth:`variants` is the same typos as an
    immutable :class:`~collections.abc.Sequence`: ``len()`` is their number
    and ``[j]`` the j-th of them in :meth:`mutations` order.  The spelling
    plugin draws typos from :meth:`variants` by index.

    A custom model needs only :meth:`mutations`; the default
    :meth:`variants` wraps its list.  The built-in models index instead:
    ``len()`` and each ``[j]`` cost O(len(word)) and build no other typo,
    and :meth:`mutations` is ``list(variants(word))``.
    """

    #: Identifier used in scenario categories (``typo-<name>``).
    name: str = "typo"

    @abstractmethod
    def mutations(self, word: str) -> list[str]:
        """All distinct faulty spellings of ``word`` under this model."""

    def variants(self, word: str) -> Sequence[str]:
        """:meth:`mutations` as an immutable sequence (built in full here)."""
        return tuple(self.mutations(word))

    def category(self) -> str:
        """Scenario category for this model."""
        return f"typo-{self.name}"


class _EditModel(TypoModel):
    """A built-in model: its typos are per-position edits of the word.

    :meth:`_edits` derives the groups from the word's characters and their
    keyboard candidates in O(len(word)), without building a typo string.
    """

    def mutations(self, word: str) -> list[str]:
        return list(self.variants(word))

    def variants(self, word: str) -> TypoVariants:
        return TypoVariants(word, self._edits(word))

    @abstractmethod
    def _edits(self, word: str) -> list[_Edit]:
        """Edit groups yielding every distinct typo once, none equal to ``word``."""


#: The one replacement of an omission.
_DROP = ("",)


class OmissionModel(_EditModel):
    """Drop one character (hurried typing misses a keystroke)."""

    name = "omission"

    def _edits(self, word: str) -> list[_Edit]:
        if len(word) < 2:
            return []  # dropping the only character deletes the word, not a typo
        # dropping any character of a run of equal ones gives the same typo
        return [
            (index, index + 1, _DROP)
            for index, char in enumerate(word)
            if index == 0 or char != word[index - 1]
        ]


class InsertionModel(_EditModel):
    """Insert a spurious character next to an intended keystroke."""

    name = "insertion"

    def __init__(self, typist: Typist | None = None):
        self.typist = typist or Typist()

    def _edits(self, word: str) -> list[_Edit]:
        if not word:
            return []
        # A slip can land *before* the first keystroke too: the spurious
        # character comes from the first intended key or its neighbours
        # (Section 4.1's insertion model covers both sides of a keypress).
        # Gap g > 0 follows keystroke g - 1 and slips from its key.
        per_char = list(map(self.typist.insertion_candidates, word))
        previous = per_char[0]
        edits = [(0, 0, tuple(previous))]
        for gap, (char, candidates) in enumerate(zip(word, per_char), start=1):
            kept = candidates
            if char in previous:
                # ``char`` inserted on either side of a typed ``char`` spells
                # the same typo, already made one gap earlier
                kept = [candidate for candidate in candidates if candidate != char]
            if kept:
                edits.append((gap, gap, tuple(kept)))
            previous = candidates
        return edits


class SubstitutionModel(_EditModel):
    """Replace a character with the output of a neighbouring key."""

    name = "substitution"

    def __init__(self, typist: Typist | None = None):
        self.typist = typist or Typist()

    def _edits(self, word: str) -> list[_Edit]:
        # candidates are distinct and never the character itself, so typos
        # at one position differ, and so do typos at different positions
        return [
            (index, index + 1, tuple(candidates))
            for index, candidates in enumerate(map(self.typist.substitution_candidates, word))
            if candidates
        ]


def _shifted(char: str) -> str:
    """What a Shift slip makes of ``char``: its other case when that is one
    character whose other case is ``char`` again, else ``char`` itself.

    So ``ß`` (whose upper case is ``SS``), ``ª`` (no other case) and ``İ``
    (whose lower case is ``i`` plus a combining dot) stay as they are.
    """
    swapped = char.swapcase()
    return swapped if len(swapped) == 1 and swapped.swapcase() == char else char


class CaseAlterationModel(_EditModel):
    """Swap the case of adjacent letters (Shift-key miscoordination).

    A slip toggles only letters Shift can toggle (see :func:`_shifted`);
    other letters keep their place and case.
    """

    name = "case-alteration"

    def _edits(self, word: str) -> list[_Edit]:
        if not any(map(str.isupper, word)):
            return []  # both alterations need a capital
        # Each alteration, with the characters it leaves unchanged trimmed
        # off, is a (start, end, replacement) edit: equal typos meet as
        # equal edits, and a no-op edit is dropped.
        edits: list[tuple[int, int, str]] = []
        for index in range(len(word) - 1):
            first, second = word[index], word[index + 1]
            if not (first.isalpha() and second.isalpha()):
                continue
            if first.isupper() == second.isupper():
                continue
            new_first, new_second = _shifted(first), _shifted(second)
            if new_first == first:
                if new_second != second:
                    edits.append((index + 1, index + 2, new_second))
            elif new_second == second:
                edits.append((index, index + 1, new_first))
            else:
                edits.append((index, index + 2, new_first + new_second))
        # A lone capital at a word boundary can also lose or gain its Shift.
        for index, char in enumerate(word):
            if char.isalpha() and char.isupper():
                lowered = _shifted(char)
                if lowered != char:
                    edits.append((index, index + 1, lowered))
        return [(start, end, (replacement,)) for start, end, replacement in dict.fromkeys(edits)]


class TranspositionModel(_EditModel):
    """Swap two adjacent characters within a word."""

    name = "transposition"

    def _edits(self, word: str) -> list[_Edit]:
        # swaps of distinct neighbours never coincide; equal ones are no-ops
        return [
            (index, index + 2, (word[index + 1] + word[index],))
            for index in range(len(word) - 1)
            if word[index] != word[index + 1]
        ]


def default_models(typist: Typist | None = None) -> list[TypoModel]:
    """The five paper submodels, sharing one keyboard model."""
    typist = typist or Typist()
    return [
        OmissionModel(),
        InsertionModel(typist),
        SubstitutionModel(typist),
        CaseAlterationModel(),
        TranspositionModel(),
    ]


#: Model constructors by registry name, used by spec-driven construction.
_MODEL_BUILDERS: dict[str, Callable[[Typist], TypoModel]] = {
    OmissionModel.name: lambda typist: OmissionModel(),
    InsertionModel.name: lambda typist: InsertionModel(typist),
    SubstitutionModel.name: lambda typist: SubstitutionModel(typist),
    CaseAlterationModel.name: lambda typist: CaseAlterationModel(),
    TranspositionModel.name: lambda typist: TranspositionModel(),
}


# -------------------------------------------------------------------- selection
def _directive_of(token: ConfigNode) -> tuple[str, tuple[int, ...]]:
    """The (source tree, source path) of the directive a token belongs to."""
    return token.get("source_tree"), tuple(token.get("source_path", ()))


def _select_directives(
    tokens: Sequence[ConfigNode], per_section: int
) -> set[tuple[str, tuple[int, ...]]]:
    """Up to ``per_section`` directives per section, lowest location hash first."""
    by_section: dict[tuple[str, tuple[int, ...]], set[tuple[str, tuple[int, ...]]]] = {}
    for token in tokens:
        tree, path = _directive_of(token)
        by_section.setdefault((tree, path[:-1]), set()).add((tree, path))

    def rank(directive: tuple[str, tuple[int, ...]]) -> str:
        return hashlib.sha256(repr(directive).encode("utf-8")).hexdigest()

    selected: set[tuple[str, tuple[int, ...]]] = set()
    for directives in by_section.values():
        selected.update(sorted(directives, key=rank)[:per_section])
    return selected


# --------------------------------------------------------------------- template
class TypoTemplate(ModifyTemplate):
    """Adapter exposing a :class:`TypoModel` as an abstract-modify template."""

    field_name = "value"

    def __init__(self, target: str, model: TypoModel):
        super().__init__(target, category=model.category())
        self.model = model

    def mutations_for(self, node: ConfigNode, rng: random.Random) -> Iterable[tuple[str, str]]:
        word = self.current_value(node) or ""
        return [(self.model.name, variant) for variant in self.model.mutations(word)]


# ----------------------------------------------------------------------- plugin
@register_plugin
class SpellingMistakesPlugin(ErrorGeneratorPlugin):
    """Generate one-letter typos in configuration tokens.

    Parameters
    ----------
    token_types:
        Which token classes to target (directive names, directive values,
        section names...).  Restricting by token type is how the paper limits
        injection "to a specific part of the configuration" (Section 4.1).
    models:
        The typo submodels to use (default: all five).
    mutations_per_token:
        When set, at most this many randomly chosen typos are produced per
        target token; when None, every possible typo becomes a scenario.
        A token's candidates are the models' :meth:`~TypoModel.variants`
        chained lazily, and ``random.sample`` indexes them: with the
        built-in models a token costs O(len(word)) per model plus one
        typo string per draw, not the hundreds of typos a long value has.
        Unset, every typo is built once, in order.
    directives_per_section:
        When set, only this many directives per section (or file root) are
        targeted -- the paper's Table 1 selection.  The pick is the
        directives with the lowest sha256 of their source location, so it
        needs no RNG: campaigns over different token types of one
        configuration select the same directives.
    """

    name = "spelling"
    param_names = (
        "token_types",
        "models",
        "mutations_per_token",
        "layout",
        "directives_per_section",
    )

    def __init__(
        self,
        token_types: Sequence[str] = (TOKEN_DIRECTIVE_NAME, TOKEN_DIRECTIVE_VALUE),
        models: Sequence[TypoModel] | None = None,
        mutations_per_token: int | None = None,
        layout_name: str | None = None,
        directives_per_section: int | None = None,
    ):
        if layout_name is not None:
            from repro.keyboard.layouts import get_layout

            typist = Typist(get_layout(layout_name))
        else:
            typist = Typist()
        self.layout_name = layout_name
        self.token_types = tuple(token_types)
        self.models = list(models) if models is not None else default_models(typist)
        if not self.models:
            raise PluginError("SpellingMistakesPlugin requires at least one typo model")
        self.mutations_per_token = mutations_per_token
        self.directives_per_section = directives_per_section
        self._view = TokenView()

    @property
    def view(self) -> TokenView:
        return self._view

    def manifest_params(self) -> dict:
        return {
            "token_types": list(self.token_types),
            "models": [model.name for model in self.models],
            "mutations_per_token": self.mutations_per_token,
            "layout": self.layout_name,
            "directives_per_section": self.directives_per_section,
        }

    @classmethod
    def from_params(cls, params: Mapping[str, Any]) -> "SpellingMistakesPlugin":
        cls.check_param_names(params)
        known_tokens = (
            TOKEN_DIRECTIVE_NAME,
            TOKEN_DIRECTIVE_VALUE,
            TOKEN_SECTION_NAME,
            TOKEN_SECTION_ARG,
        )
        token_types = (TOKEN_DIRECTIVE_NAME, TOKEN_DIRECTIVE_VALUE)
        if params.get("token_types") is not None:
            token_types = tuple(
                string_list_param("token_types", params["token_types"], allowed=known_tokens)
            )
        from repro.keyboard.layouts import available_layouts, get_layout

        layout = params.get("layout")
        if layout is not None:
            if not isinstance(layout, str):
                raise SpecError(f"layout: expected a layout name, got {layout!r}")
            try:
                get_layout(layout)
            except KeyError:
                from repro.analysis.suggest import unknown_name_error

                raise unknown_name_error("layout", "layout", layout, available_layouts()) from None
        models = None
        if params.get("models") is not None:
            names = string_list_param("models", params["models"], allowed=tuple(_MODEL_BUILDERS))
            if not names:
                raise SpecError("models: must name at least one typo model")
            typist = Typist() if layout is None else Typist(get_layout(layout))
            models = [_MODEL_BUILDERS[name](typist) for name in names]
        return cls(
            token_types=token_types,
            models=models,
            mutations_per_token=positive_int_param(
                "mutations_per_token", params.get("mutations_per_token")
            ),
            layout_name=layout,
            directives_per_section=positive_int_param(
                "directives_per_section", params.get("directives_per_section")
            ),
        )

    # ------------------------------------------------------------------ faults
    def target_tokens(self, view_set: ConfigSet) -> list[ConfigNode]:
        """Token nodes eligible for typo injection."""
        tokens: list[ConfigNode] = []
        for tree in view_set:
            for node in tree.walk():
                if node.kind != "token":
                    continue
                if node.get("token_type") not in self.token_types:
                    continue
                if not (node.value or "").strip():
                    continue
                tokens.append(node)
        if self.directives_per_section is None:
            return tokens
        selected = _select_directives(tokens, self.directives_per_section)
        return [token for token in tokens if _directive_of(token) in selected]

    def mutations_for_token(self, token: ConfigNode) -> Sequence[tuple[TypoModel, str]]:
        """Every (model, faulty spelling) pair applicable to ``token``.

        A lazy sequence over the models' :meth:`~TypoModel.variants`.
        ``random.sample`` takes its ``len()`` and indexes it (a population
        of a few dozen or fewer it copies to a list first), so drawing k
        typos of a long token builds k strings.
        """
        word = token.value or ""
        return _TokenTypos([(model, model.variants(word)) for model in self.models])

    def generate(self, view_set: ConfigSet, rng: random.Random) -> list[FaultScenario]:
        scenarios: list[FaultScenario] = []
        ordinal = 0
        addresses = AddressIndex(view_set)
        for token in self.target_tokens(view_set):
            candidates = self.mutations_for_token(token)
            if not candidates:
                continue
            if self.mutations_per_token is not None and len(candidates) > self.mutations_per_token:
                candidates = rng.sample(candidates, self.mutations_per_token)
            address = addresses.address_of(token)
            original = token.value or ""
            for model, variant in candidates:
                scenarios.append(
                    FaultScenario(
                        scenario_id=f"typo-{ordinal}-{model.name}",
                        description=(
                            f"{model.name} typo in {token.get('token_type')} "
                            f"{original!r} -> {variant!r}"
                        ),
                        category=model.category(),
                        operations=(SetFieldOperation(address, "value", variant),),
                        metadata={
                            "token_type": token.get("token_type"),
                            "source_tree": token.get("source_tree"),
                            "source_path": tuple(token.get("source_path", ())),
                            "directive": token.get("owner_name"),
                            "field": token.get("field"),
                            "original": original,
                            "mutated": variant,
                            "model": model.name,
                        },
                    )
                )
                ordinal += 1
        return scenarios
