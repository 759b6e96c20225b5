"""Render the incremental-revalidation table of docs/PERFORMANCE.md.

Usage: ``python scripts/incremental_table.py [BENCH_incremental.json]``
(default: ``benchmarks/out/BENCH_incremental.json``, which
``python -m pytest benchmarks/test_incremental_validation.py`` writes).
Prints the Markdown table: the ``mysql-full-directives`` row from the
file's top level (best of three runs per mode), then one row per family
from its ``per_sut`` breakdown (one run per mode), fastest gain first.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DEFAULT_INPUT = REPO / "benchmarks" / "out" / "BENCH_incremental.json"

#: Row label of each ``per_sut`` family.
LABELS = {
    "mysql": "MySQL (default my.cnf)",
    "postgres": "Postgres",
    "apache": "Apache",
    "bind": "BIND",
    "djbdns": "djbdns",
    "nginx": "nginx",
    "sshd": "sshd",
}


def _row(label: str, full: float, incremental: float, speedup: float) -> str:
    return f"| {label:<26} | {full:>12.0f} | {incremental:>19.0f} | {speedup:>6.1f}x |"


def render(bench: dict) -> str:
    """The Markdown table for one ``BENCH_incremental.json`` payload."""
    lines = [
        "| System (spelling, jobs=1)  | Full (scn/s) | Incremental (scn/s) | Speedup |",
        "|----------------------------|-------------:|--------------------:|--------:|",
        _row(
            bench["system"],
            bench["full_scenarios_per_second"],
            bench["incremental_scenarios_per_second"],
            bench["speedup"],
        ),
    ]
    families = sorted(bench["per_sut"].items(), key=lambda item: -item[1]["speedup"])
    for family, entry in families:
        lines.append(
            _row(
                LABELS.get(family, family),
                entry["full_scenarios_per_second"],
                entry["incremental_scenarios_per_second"],
                entry["speedup"],
            )
        )
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    path = Path(argv[1]) if len(argv) > 1 else DEFAULT_INPUT
    print(render(json.loads(path.read_text())))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
