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
  (min-of-5 runs per mode, the modes alternating round by round, so
  scheduler noise cannot manufacture or destroy the speedup).
* **Identical profiles** -- the speedup must not change a single outcome.

Beside each wall-clock ratio, one more untimed rerun counts the work the
ratio rests on (full starts, tree walks, parses), so a pass cannot come
from host noise alone; on mysql-full-directives the full starts and start
parses of a fast rerun and of a full rerun are pinned at the benchmark
seed.

The measured numbers, the engine's delta-path counter snapshot (fallback
rate), and a per-SUT breakdown across all seven families are written to
``BENCH_incremental.json`` for the tracked perf trajectory.  Every counter
there covers one timed run: the warm-up run (baseline prepare) and the other
timed rounds are not counted.
"""

import functools
import random
import time
from collections import Counter

import pytest

from benchmarks.conftest import BENCH_SEED, write_bench_json
from repro.core.engine import IncrementalStats, InjectionEngine
from repro.core.profile import ResilienceProfile
from repro.parsers.base import ConfigDialect
from repro.plugins import SpellingMistakesPlugin
from repro.registry import get_system
from repro.sut.base import split_sut

#: Minimum incremental-over-full throughput ratio on mysql-full-directives
#: (observed ~5.5-8x; the floor leaves headroom for loaded CI workers).
MIN_SPEEDUP = 5.0

#: Timed reruns per mode; the modes alternate round by round.
SPEEDUP_ROUNDS = 5

#: All seven SUT families, for the per-SUT trajectory breakdown.
FAMILIES = ("mysql", "postgres", "apache", "bind", "djbdns", "nginx", "sshd")


def _prepared_run(system_name: str, incremental: bool):
    """A warmed-up engine over pre-generated scenarios.

    Returns ``(engine, profile, rerun)`` where ``rerun()`` times one more
    run of the same scenarios on the same engine, counted alone in a fresh
    ``engine.stats``.  Scenario generation
    and the one-off baselines (serialisation, ``prepare``) are kept outside
    the clock: the quantity under test is the steady-state per-scenario
    cost, which is what dominates a long campaign.
    """
    plugin = SpellingMistakesPlugin(mutations_per_token=2)
    engine = InjectionEngine(get_system(system_name), plugin, incremental=incremental)
    scenarios = plugin.generate(engine.view_set, random.Random(BENCH_SEED))
    # warm-up run: baselines, caches
    profile = ResilienceProfile(engine.sut.name, [engine.run_scenario(s) for s in scenarios])

    def rerun() -> float:
        engine.stats = IncrementalStats()
        started = time.perf_counter()
        repeat = [engine.run_scenario(s) for s in scenarios]
        elapsed = time.perf_counter() - started
        assert [r.outcome for r in repeat] == [r.outcome for r in profile.records]
        return elapsed

    return engine, profile, rerun


def _timed_run(system_name: str, incremental: bool, rounds: int = 3):
    """Best-of-``rounds`` campaign wall clock over pre-generated scenarios.

    Returns ``(scenario count, seconds, counters of the last rerun)``.
    """
    engine, profile, rerun = _prepared_run(system_name, incremental)
    seconds = min(rerun() for _ in range(rounds))
    return len(profile.records), seconds, engine.stats.snapshot()


def _count_work(monkeypatch, system_name: str) -> Counter:
    """Count the work runs do from here on; returns the live counter.

    ``starts`` counts full starts; ``delta_walks`` tree walks entered from
    ``start_delta``; ``start_parses`` dialect parses made inside a full
    start and ``other_parses`` the rest (the round-trip guard re-parses
    one serialised node per changed node it vets).
    """
    sut_class = type(split_sut(get_system(system_name))[0])
    counts: Counter = Counter()
    active: Counter = Counter()

    def entered(fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            active[key] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                active[key] -= 1

        return wrapper

    def counted(fn, key_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key_of()] += 1
            return fn(*args, **kwargs)

        return wrapper

    walk = sut_class._start_from_trees
    monkeypatch.setattr(
        sut_class, "start", counted(entered(sut_class.start, "start"), lambda: "starts")
    )
    monkeypatch.setattr(sut_class, "start_delta", entered(sut_class.start_delta, "delta"))
    monkeypatch.setattr(
        sut_class,
        "_start_from_trees",
        counted(walk, lambda: "delta_walks" if active["delta"] else "start_walks"),
    )
    monkeypatch.setattr(
        ConfigDialect,
        "parse",
        counted(ConfigDialect.parse, lambda: "start_parses" if active["start"] else "other_parses"),
    )
    return counts


def _semantics(profile):
    """Everything of a profile except per-record wall clock."""
    return [
        (r.scenario_id, r.category, r.description, r.outcome, r.messages, r.failed_tests, r.metadata)
        for r in profile.records
    ]


class TestIncrementalSpeedup:
    def test_mysql_full_directives_5x_at_jobs1(self):
        """Delta validation >= 5x full revalidation, with identical records."""
        fast_engine, fast_profile, fast_rerun = _prepared_run(
            "mysql-full-directives", incremental=True
        )
        _, slow_profile, slow_rerun = _prepared_run("mysql-full-directives", incremental=False)
        # rounds alternate between the two modes, so a burst of host load
        # slows both sides rather than only whichever ran during it
        fast_seconds = slow_seconds = float("inf")
        for _ in range(SPEEDUP_ROUNDS):
            fast_seconds = min(fast_seconds, fast_rerun())
            slow_seconds = min(slow_seconds, slow_rerun())
        stats = fast_engine.stats.snapshot()

        scenarios = len(fast_profile.records)
        assert scenarios == len(slow_profile.records) >= 100
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
            count, inc_seconds, family_stats = _timed_run(family, incremental=True, rounds=1)
            _, full_seconds, _ = _timed_run(family, incremental=False, rounds=1)
            per_sut[family] = {
                "scenarios": count,
                "incremental_scenarios_per_second": round(count / inc_seconds, 1),
                "full_scenarios_per_second": round(count / full_seconds, 1),
                "speedup": round(full_seconds / inc_seconds, 2),
                "delta_starts": family_stats["delta_starts"],
                "fallbacks": family_stats["fallbacks"] + family_stats["guard_fallbacks"],
                "errors": family_stats["errors"],
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

        # each count covers one run: every scenario is offered to the delta
        # path once and ends in exactly one of its outcomes
        outcomes = stats["delta_starts"] + stats["fallbacks"] + stats["guard_fallbacks"]
        assert outcomes + stats["errors"] == scenarios, stats
        for family, entry in per_sut.items():
            outcomes = entry["delta_starts"] + entry["fallbacks"] + entry["errors"]
            assert outcomes == entry["scenarios"], (family, entry)

        assert speedup >= MIN_SPEEDUP, (
            f"incremental path only {speedup:.2f}x full revalidation "
            f"({fast_sps:.0f} vs {slow_sps:.0f} scenarios/sec) -- floor is {MIN_SPEEDUP}x"
        )

    def test_mysql_full_directives_work_counts(self, monkeypatch):
        """The work the 5x rests on, counted on one rerun per mode.

        Spelling scenarios are field-only deltas: the fast rerun does a full
        start (and its parse) only for a scenario the delta path did not
        take, and never runs the full walk.  Pinned at BENCH_SEED.
        """
        engine, profile, fast_rerun = _prepared_run("mysql-full-directives", incremental=True)
        _, _, slow_rerun = _prepared_run("mysql-full-directives", incremental=False)
        keys = ("starts", "start_parses", "delta_walks")
        work = _count_work(monkeypatch, "mysql-full-directives")
        fast_rerun()
        fast_work = {key: work[key] for key in keys}
        untaken = len(profile.records) - engine.stats.delta_starts
        work.clear()
        slow_rerun()
        full_work = {key: work[key] for key in keys}

        assert fast_work["starts"] == untaken, (fast_work, untaken)
        assert fast_work == {"starts": 0, "start_parses": 0, "delta_walks": 0}
        assert full_work == {"starts": 100, "start_parses": 100, "delta_walks": 0}

    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_family_profits_or_breaks_even(self, family, monkeypatch):
        """No SUT family may get *slower* under the delta protocol.

        A family whose scenarios all fall back (e.g. djbdns structural
        edits) pays only the cheap scenario_changes probe, so even the
        worst case must stay within noise of the full path.
        """
        # rounds alternate between the two modes, so a phase of host load
        # slows both rather than only whichever mode ran during it
        engine, _, incremental = _prepared_run(family, incremental=True)
        _, _, full = _prepared_run(family, incremental=False)
        inc_seconds = full_seconds = float("inf")
        for _ in range(9):
            inc_seconds = min(inc_seconds, incremental())
            full_seconds = min(full_seconds, full())
        # 1.35x tolerance: probe overhead plus timer noise on tiny configs
        assert inc_seconds <= full_seconds * 1.35, (
            f"{family}: incremental {inc_seconds:.4f}s vs full {full_seconds:.4f}s"
        )

        # files are parsed only by full starts, one per fallback (the warmed
        # engine prepared its baseline before the count); the delta path
        # adds at most the guard's reparse of the changed node
        work = _count_work(monkeypatch, family)
        incremental()
        stats = engine.stats
        assert work["starts"] <= stats.fallback_total, work
        assert work["other_parses"] <= stats.attempts, work
