"""End-to-end campaign throughput: scenarios/second, parallel speedup, CoW.

Two properties of the campaign executor are pinned here:

1. **Parallel speedup** -- with paper-like per-experiment latency (server
   start/stop dominates, Section 5.2), fanning a spelling campaign out to 4
   workers is at least 2x faster than running it serially.  The bound is
   asserted on the *pinned cost model* (the per-worker `modeled_seconds`
   LatencySUT accumulates), not on wall clock: the modelled makespan is the
   busiest worker's share of the total modelled cost, which CI load cannot
   inflate, so the assertion is deterministic where the old wall-clock ratio
   flaked under load.
2. **No per-scenario full-set clones** -- the apply/undo fast path must keep
   the number of `ConfigSet.clone()` calls independent of the scenario
   count (counted by wrapping `ConfigSet.clone` for the test's duration).

`tests/core/test_engine.py::TestMaterializeOracle` checks that the fast
path's files are byte-identical to a fresh-parse, clone-per-scenario
reference.
"""

from functools import partial

import pytest

from repro.bench.timing import campaign_throughput
from repro.core.infoset import ConfigSet
from repro.plugins import SpellingMistakesPlugin, StructuralErrorsPlugin
from repro.sut.latency import LatencySUT
from repro.sut.postgres import SimulatedPostgres

from benchmarks.conftest import BENCH_SEED

#: Modest stand-in for the paper's 1.1-6 s per-experiment server cost.
#: Applied to start() only, so every scenario costs exactly this much in the
#: model whatever its outcome -- the pinned cost model the speedup bound
#: needs to be deterministic.
START_LATENCY = 0.005


def mixed_plugins():
    """A full typo + structural campaign."""
    return [
        SpellingMistakesPlugin(mutations_per_token=2),
        StructuralErrorsPlugin(),
    ]


def latency_postgres_factory():
    """Picklable factory: Postgres wrapped with paper-like start latency."""
    return partial(LatencySUT, SimulatedPostgres, start_latency=START_LATENCY)


class TestCampaignThroughput:
    def test_mixed_campaign_throughput_benchmark(self, run_once):
        """Record end-to-end scenarios/sec for the serial executor."""
        result = run_once(
            campaign_throughput, SimulatedPostgres, mixed_plugins(), seed=BENCH_SEED, jobs=1
        )
        assert result.scenarios >= 40
        assert result.scenarios_per_second > 0

    def test_parallel_speedup_at_jobs4(self):
        """jobs=4 threads >= 2x jobs=1 on the pinned latency cost model.

        One plugin, so the parallel run owns exactly one worker pool: each
        worker's LatencySUT accumulates its share of the modelled cost, the
        maximum over workers is the modelled makespan, and sum/max is the
        modelled speedup.  Work stealing keeps the shares balanced, so the
        bound holds deterministically; wall clock is only sanity-checked
        (parallel must not be slower than serial).
        """
        plugins = [SpellingMistakesPlugin(mutations_per_token=2)]
        instances: list[LatencySUT] = []

        def factory():
            sut = LatencySUT(SimulatedPostgres, start_latency=START_LATENCY)
            instances.append(sut)
            return sut

        serial = campaign_throughput(factory, plugins, seed=BENCH_SEED, jobs=1)
        serial_model = sum(sut.modeled_seconds for sut in instances)
        assert serial_model == pytest.approx(serial.scenarios * START_LATENCY)

        instances.clear()
        parallel = campaign_throughput(
            factory, plugins, seed=BENCH_SEED, jobs=4, executor="thread"
        )
        assert parallel.scenarios == serial.scenarios
        assert parallel.seconds < serial.seconds, (
            f"jobs=4 wall clock ({parallel.seconds:.3f}s) not below "
            f"serial ({serial.seconds:.3f}s)"
        )

        total_model = sum(sut.modeled_seconds for sut in instances)
        makespan_model = max(sut.modeled_seconds for sut in instances)
        assert total_model == pytest.approx(serial_model), "cost model must be pinned"
        speedup = total_model / makespan_model
        assert speedup >= 2.0, (
            f"jobs=4 modelled speedup only {speedup:.2f}x "
            f"(busiest worker {makespan_model:.3f}s of {total_model:.3f}s total)"
        )

    def test_apply_undo_path_performs_no_full_set_clones(self, monkeypatch):
        """Full-set deep clones must not scale with the scenario count."""
        set_clones = 0
        original_clone = ConfigSet.clone

        def counting_clone(config_set):
            nonlocal set_clones
            set_clones += 1
            return original_clone(config_set)

        monkeypatch.setattr(ConfigSet, "clone", counting_clone)
        result = campaign_throughput(SimulatedPostgres, mixed_plugins(), seed=BENCH_SEED, jobs=1)
        assert result.scenarios >= 40
        # a handful of per-campaign clones (view transform, baseline cache)
        # are fine; anything proportional to the scenario count is not
        assert 0 < set_clones < result.scenarios  # 0 would mean the wrapper saw nothing
        assert set_clones <= 3 * len(mixed_plugins())
