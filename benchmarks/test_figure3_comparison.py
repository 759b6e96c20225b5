"""Benchmark: Figure 3 -- comparing MySQL and Postgres resilience (Section 5.5).

Runs the comparison procedure (20 value-typo experiments per directive on a
full-directive configuration) and reports the share of directives in the
poor / fair / good / excellent detection bins for both systems.
"""

from benchmarks.conftest import BENCH_SEED, run_suite
from repro.bench import figure3
from repro.core.report import detection_distribution


def test_figure3_mysql_vs_postgres(run_once):
    cells = run_once(run_suite, figure3.figure3_spec(seed=BENCH_SEED, experiments_per_directive=20))
    rates = figure3.directive_rates(cells)
    distributions = {system: detection_distribution(r) for system, r in rates.items()}

    def share(system: str, bin_label: str) -> float:
        return distributions[system][bin_label]

    print("\n\nFigure 3 -- Resilience to typos in MySQL and Postgres\n" + figure3.render(cells) + "\n")

    # Paper's headline: Postgres is markedly more robust to value typos.
    strong_postgres = share("Postgres", "good") + share("Postgres", "excellent")
    strong_mysql = share("MySQL", "good") + share("MySQL", "excellent")
    assert strong_postgres > strong_mysql

    # MySQL leaves the largest share of directives poorly checked (paper:
    # less than 25% of typos detected for roughly 45% of its directives).
    assert share("MySQL", "poor") >= share("Postgres", "poor")
    assert share("MySQL", "poor") >= 0.30

    # Postgres' strict parsing puts a substantial share of directives in the
    # upper bins (paper: >75% detection for almost 45% of directives).
    assert strong_postgres >= 0.40

    # Both systems were measured over a full-directive configuration.
    assert len(rates["MySQL"]) >= 15
    assert len(rates["Postgres"]) >= 20
