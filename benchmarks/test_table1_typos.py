"""Benchmark: Table 1 -- resilience to typos (Section 5.2).

Regenerates the per-system split of injected typo errors into
detected-at-startup / detected-by-functional-tests / ignored, for MySQL,
Postgres and Apache, and prints the table in the paper's layout.
"""

from benchmarks.conftest import BENCH_SEED, run_suite
from repro.bench import table1
from repro.core.profile import InjectionOutcome
from repro.core.report import merged


def test_table1_resilience_to_typos(run_once):
    spec = table1.table1_spec(seed=BENCH_SEED, typos_per_directive=10, directives_per_section=10)
    cells = run_once(run_suite, spec)
    profiles = merged(cells)

    print("\n\nTable 1 -- Resilience to typos\n" + table1.render(cells) + "\n")

    # All three systems were exercised with a substantial faultload.
    assert set(profiles) == {"MySQL", "Postgres", "Apache"}
    for system, profile in profiles.items():
        assert profile.injected_count() >= 50, system
        assert not profile.records_with(InjectionOutcome.HARNESS_ERROR)

    # Shape of the paper's findings: startup checks dominate the functional
    # tests, Apache ignores a larger share of the typos than Postgres, and
    # misspelled directive names are the best-detected error class for the
    # database servers.
    for profile in profiles.values():
        counts = profile.outcome_counts()
        assert counts[InjectionOutcome.DETECTED_AT_STARTUP] >= counts[InjectionOutcome.DETECTED_BY_TESTS]

    ignored_share = {
        name: profile.ignored_count() / profile.injected_count()
        for name, profile in profiles.items()
    }
    assert ignored_share["Apache"] > ignored_share["Postgres"]
    assert profiles["Postgres"].detection_rate() > profiles["Apache"].detection_rate()
