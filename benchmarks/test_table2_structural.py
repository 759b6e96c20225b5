"""Benchmark: Table 2 -- resilience to structural errors (Section 5.3).

Generates ten semantically-neutral variants per variation class and system
and checks which classes each system accepts, reproducing the paper's
support matrix cell by cell.
"""

import pytest

from benchmarks.conftest import BENCH_SEED, run_suite
from repro.bench import table2

#: The support matrix exactly as printed in the paper's Table 2.
PAPER_TABLE2 = {
    "MySQL": {
        "Order of sections": "Yes",
        "Order of directives": "Yes",
        "Spaces near separators": "Yes",
        "Mixed-case directive names": "No",
        "Truncatable directive names": "Yes",
    },
    "Postgres": {
        "Order of sections": "n/a",
        "Order of directives": "Yes",
        "Spaces near separators": "Yes",
        "Mixed-case directive names": "Yes",
        "Truncatable directive names": "No",
    },
    "Apache": {
        "Order of sections": "n/a",
        "Order of directives": "Yes",
        "Spaces near separators": "Yes",
        "Mixed-case directive names": "Yes",
        "Truncatable directive names": "No",
    },
}


def test_table2_resilience_to_structural_errors(run_once):
    cells = run_once(run_suite, table2.table2_spec(seed=BENCH_SEED, variants_per_class=10))
    support = table2.support_matrix(cells)

    print("\n\nTable 2 -- Resilience to structural errors\n" + table2.render(cells) + "\n")

    def satisfied_fraction(system: str) -> float:
        values = [v for v in support[system].values() if v != "n/a"]
        return sum(1 for v in values if v == "Yes") / len(values)

    assert support == PAPER_TABLE2
    assert satisfied_fraction("MySQL") == pytest.approx(0.80)
    assert satisfied_fraction("Postgres") == pytest.approx(0.75)
    assert satisfied_fraction("Apache") == pytest.approx(0.75)
