"""Did-you-mean suggestions via the paper's own typo models.

ConfErr argues most configuration mistakes are one psychomotor slip away
from the intended text (Section 3.1).  When a spec names an unknown
parameter, system or plugin, the candidate the user *meant* is usually
one such slip away -- so we ask the spelling plugin's typo models
(omission, insertion, substitution, case alteration, transposition)
whether the typed name is reachable from any known candidate in one
mutation.  :mod:`difflib` is the fallback for fatter-fingered mistakes.
"""

from __future__ import annotations

import difflib
from functools import lru_cache
from typing import Iterable, Sequence

from repro.errors import SpecError


@lru_cache(maxsize=1)
def _typo_models():
    from repro.plugins.spelling import default_models

    return tuple(default_models())


def _one_slip_away(typed: str, candidate: str) -> bool:
    for model in _typo_models():
        if typed in model.mutations(candidate):
            return True
    return False


def did_you_mean(typed: str, candidates: Iterable[str]) -> str | None:
    """The candidate the user most plausibly meant, or None.

    Preference order: exact case-insensitive match, then one-typo-model
    slip, then the closest :func:`difflib.get_close_matches` candidate.
    """
    names: Sequence[str] = [c for c in candidates if c]
    if not names:
        return None
    lowered = typed.lower()
    for candidate in names:
        if candidate.lower() == lowered and candidate != typed:
            return candidate
    for candidate in names:
        if _one_slip_away(typed, candidate):
            return candidate
    close = difflib.get_close_matches(typed, list(names), n=1, cutoff=0.6)
    return close[0] if close else None


def suggestion_suffix(typed: str, candidates: Iterable[str]) -> str:
    """``"; did you mean 'x'?"`` when a suggestion exists, else ``""``."""
    suggestion = did_you_mean(typed, candidates)
    return f"; did you mean {suggestion!r}?" if suggestion else ""


def unknown_name_error(
    where: str, kind: str, typed: str, available: Sequence[str], code: str = "spec/invalid-value"
) -> SpecError:
    """``<where>: unknown <kind> 'x'; available: a, b[; did you mean 'a'?]``."""
    return SpecError(
        f"{where}: unknown {kind} {typed!r}; available: {', '.join(available)}"
        f"{suggestion_suffix(typed, available)}",
        code,
    )
