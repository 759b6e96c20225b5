"""Benchmark: the delta-validation fast path vs full revalidation.

The incremental protocol (``SystemUnderTest.prepare`` once, then
``start_delta`` per scenario) exists to amortise the parse-and-validate cost
of the pristine configuration across a campaign.  This benchmark pins the
pay-off on the workload where full revalidation is most expensive -- the
Figure 3 ``mysql-full-directives`` system, whose ~250-directive ``my.cnf``
makes every full start re-parse and re-apply hundreds of directives while a
typo scenario only perturbs one.

Two things are asserted:

* **>= 5x scenarios/sec at jobs=1** for the incremental engine over the
  ``incremental=False`` engine on the same pre-generated scenario stream
  (min-of-3 runs per mode, so scheduler noise cannot manufacture or destroy
  the speedup).
* **Identical profiles** -- the speedup must not change a single outcome.

The measured numbers, the delta-path counter snapshot (fallback rate), and a
single-run per-SUT breakdown across all seven families are written to
``BENCH_incremental.json`` for the tracked perf trajectory.
"""

import time

import pytest

from benchmarks.conftest import BENCH_SEED, write_bench_json
from repro.core.engine import InjectionEngine
from repro.plugins import SpellingMistakesPlugin
from repro.registry import get_system
from repro.sut.incremental import INCREMENTAL_STATS

#: Minimum incremental-over-full throughput ratio on mysql-full-directives
#: (observed ~5.5-8x; the floor leaves headroom for loaded CI workers).
MIN_SPEEDUP = 5.0

#: All seven SUT families, for the per-SUT trajectory breakdown.
FAMILIES = ("mysql", "postgres", "apache", "bind", "djbdns", "nginx", "sshd")


def _prepared_run(system_name: str, incremental: bool):
    """A warmed-up campaign over pre-generated scenarios.

    Returns ``(profile, scenario count, rerun)`` where ``rerun()`` times one
    more run of the same scenarios.  Scenario generation and the one-off
    ``prepare`` are kept outside the clock: the quantity under test is the
    steady-state per-scenario cost, which is what dominates a long campaign.
    """
    engine = InjectionEngine(
        get_system(system_name),
        SpellingMistakesPlugin(mutations_per_token=2),
        seed=BENCH_SEED,
        incremental=incremental,
    )
    config_set, view_set, scenarios = engine.generate_scenarios()
    # warm-up run: parses, baseline prepare, caches
    profile = engine.run(scenarios, config_set=config_set, view_set=view_set)

    def rerun() -> float:
        started = time.perf_counter()
        repeat = engine.run(scenarios, config_set=config_set, view_set=view_set)
        elapsed = time.perf_counter() - started
        assert [r.outcome for r in repeat.records] == [r.outcome for r in profile.records]
        return elapsed

    return profile, len(scenarios), rerun


def _timed_run(system_name: str, incremental: bool, rounds: int = 3):
    """Best-of-``rounds`` campaign wall clock over pre-generated scenarios."""
    profile, count, rerun = _prepared_run(system_name, incremental)
    return profile, count, min(rerun() for _ in range(rounds))


def _semantics(profile):
    """Everything of a profile except per-record wall clock."""
    return [
        (r.scenario_id, r.category, r.description, r.outcome, r.messages, r.failed_tests, r.metadata)
        for r in profile.records
    ]


class TestIncrementalSpeedup:
    def test_mysql_full_directives_5x_at_jobs1(self):
        """Delta validation >= 5x full revalidation, with identical records."""
        INCREMENTAL_STATS.reset()
        fast_profile, scenarios, fast_seconds = _timed_run(
            "mysql-full-directives", incremental=True
        )
        stats = INCREMENTAL_STATS.snapshot()
        slow_profile, slow_scenarios, slow_seconds = _timed_run(
            "mysql-full-directives", incremental=False
        )

        assert scenarios == slow_scenarios >= 100
        assert _semantics(fast_profile) == _semantics(slow_profile), (
            "the fast path changed an outcome -- delta validation must be invisible"
        )
        assert stats["delta_starts"] > 0, "the fast path never engaged"

        fast_sps = scenarios / fast_seconds
        slow_sps = scenarios / slow_seconds
        speedup = fast_sps / slow_sps
        attempts = stats["attempts"] or 1
        fallback_rate = (stats["fallbacks"] + stats["guard_fallbacks"]) / attempts

        per_sut = {}
        for family in FAMILIES:
            INCREMENTAL_STATS.reset()
            _, count, inc_seconds = _timed_run(family, incremental=True, rounds=1)
            family_stats = INCREMENTAL_STATS.snapshot()
            _, _, full_seconds = _timed_run(family, incremental=False, rounds=1)
            per_sut[family] = {
                "scenarios": count,
                "incremental_scenarios_per_second": round(count / inc_seconds, 1),
                "full_scenarios_per_second": round(count / full_seconds, 1),
                "speedup": round(full_seconds / inc_seconds, 2),
                "delta_starts": family_stats["delta_starts"],
                "fallbacks": family_stats["fallbacks"] + family_stats["guard_fallbacks"],
            }

        write_bench_json(
            "incremental",
            {
                "seed": BENCH_SEED,
                "system": "mysql-full-directives",
                "jobs": 1,
                "scenarios": scenarios,
                "incremental_scenarios_per_second": round(fast_sps, 1),
                "full_scenarios_per_second": round(slow_sps, 1),
                "speedup": round(speedup, 2),
                "fallback_rate": round(fallback_rate, 4),
                "counters": stats,
                "per_sut": per_sut,
            },
        )

        assert speedup >= MIN_SPEEDUP, (
            f"incremental path only {speedup:.2f}x full revalidation "
            f"({fast_sps:.0f} vs {slow_sps:.0f} scenarios/sec) -- floor is {MIN_SPEEDUP}x"
        )

    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_family_profits_or_breaks_even(self, family):
        """No SUT family may get *slower* under the delta protocol.

        A family whose scenarios all fall back (e.g. djbdns structural
        edits) pays only the cheap scenario_changes probe, so even the
        worst case must stay within noise of the full path.
        """
        # rounds alternate between the two modes, so a phase of host load
        # slows both rather than only whichever mode ran during it
        _, _, incremental = _prepared_run(family, incremental=True)
        _, _, full = _prepared_run(family, incremental=False)
        inc_seconds = full_seconds = float("inf")
        for _ in range(9):
            inc_seconds = min(inc_seconds, incremental())
            full_seconds = min(full_seconds, full())
        # 1.35x tolerance: probe overhead plus timer noise on tiny configs
        assert inc_seconds <= full_seconds * 1.35, (
            f"{family}: incremental {inc_seconds:.4f}s vs full {full_seconds:.4f}s"
        )
