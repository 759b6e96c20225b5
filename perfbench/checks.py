"""Output checks applied to every campaign the benchmark runs.

A campaign's outcome is summarised as a digest of its store (every record
minus ``duration_seconds``, quarantined scenarios exempt: the field rules of
``repro.core.store.diff_stores``) plus its record count per cell.  The
reference is the same summary of the slow path -- serial, incremental off --
at the same seed.  Any mismatch raises :class:`OutputMismatch`.
"""

from __future__ import annotations

from typing import Any, Mapping


class OutputMismatch(Exception):
    """A campaign's outputs differ from what they must be."""


def check_campaign(result: Mapping[str, Any], reference: Mapping[str, Any]) -> None:
    """Raise :class:`OutputMismatch` unless ``result`` reproduces ``reference``.

    ``result`` is one campaign's summary as ``campaign.py`` prints it,
    ``reference`` the slow-path summary of the same workload and seed.
    """
    problems: list[str] = []
    if result["digest"] != reference["digest"]:
        problems.append(
            f"outcome digest {result['digest'][:16]} != reference {reference['digest'][:16]}"
        )
    if result["records"] != reference["records"]:
        problems.append(f"{result['records']} records stored, reference has {reference['records']}")
    if result["verify_problems"]:
        problems.append("store verify is not clean: " + "; ".join(result["verify_problems"]))
    if not result["renders_match"]:
        problems.append("store renders differ from the live suite's renders")
    cells = result["cells"]
    for cell in sorted(set(reference["cells"]) - set(cells)):
        problems.append(f"{cell}: in the reference but not run")
    for cell, (executed, skipped) in sorted(cells.items()):
        expected = reference["cells"].get(cell, 0)
        if executed + skipped != expected:
            problems.append(
                f"{cell}: executed {executed} + skipped {skipped} != {expected} generated"
            )
        if skipped:
            problems.append(f"{cell}: {skipped} scenarios skipped on a fresh store")
    if problems:
        raise OutputMismatch("; ".join(problems))


def check_counts_repeat(per_run: list[Mapping[str, float]], names: list[str]) -> None:
    """Raise :class:`OutputMismatch` unless every count in ``names`` repeats exactly."""
    for name in names:
        values = {run[name] for run in per_run}
        if len(values) > 1:
            raise OutputMismatch(f"count {name} differs between runs of one input: {sorted(values)}")
