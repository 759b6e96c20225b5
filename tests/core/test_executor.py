"""Executor strategies: determinism, streaming, work stealing, factories.

The acceptance bar for the parallel executor is that profiles are
*byte-identical* whatever the strategy, worker count or block size: same
seed in, same summary out, for every simulated system the paper studies.
On top of that, the streaming protocol must (a) deliver every record
exactly once, (b) release records to observers while workers are still
running, and (c) build each worker's SUT/parse/view/baseline context once
per plugin run, however many blocks the worker pulls.
"""

import os
import signal
import threading
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.cli import _sigterm_to_interrupt
from repro.core.campaign import Campaign
from repro.core.engine import InjectionEngine
from repro.core.executor import (
    DEFAULT_MAX_BLOCK,
    ProcessPoolCampaignExecutor,
    SerialExecutor,
    ThreadPoolCampaignExecutor,
    WorkerSpec,
    available_executors,
    make_blocks,
    resolve_block_size,
    resolve_executor,
)
from repro.errors import CampaignError
from repro.plugins import OmissionDuplicationPlugin, SpellingMistakesPlugin, StructuralErrorsPlugin
from repro.registry import get_system
from repro.sut.base import StartResult
from repro.sut.chaos import ChaosFactory
from repro.sut.postgres import SimulatedPostgres

SEED = 2008

#: The paper's five systems plus the beyond-the-paper SUTs: determinism
#: across executor strategies must hold for every registered plain system.
ALL_SYSTEMS = ["apache", "bind", "djbdns", "mysql", "postgres", "nginx", "sshd"]


def _plugins_for(system: str):
    plugins = [SpellingMistakesPlugin(mutations_per_token=1)]
    if system in ("mysql", "postgres", "apache"):
        plugins.append(StructuralErrorsPlugin(include=["omit-directive"]))
    if system in ("nginx", "sshd", "mysql"):
        plugins.append(OmissionDuplicationPlugin(max_scenarios_per_class=6))
    return plugins


def _run(system: str, jobs: int, executor: str | None):
    factory = get_system(system)
    campaign = Campaign(
        factory,
        _plugins_for(system),
        seed=SEED,
        check_baseline=False,
        jobs=jobs,
        executor=executor,
    )
    overall = campaign.run().overall
    return overall.summary(), [record.scenario_id for record in overall]


class TestDeterminismAcrossStrategies:
    """Same seed => byte-identical summaries for every strategy and SUT."""

    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    def test_thread_and_process_match_serial(self, system):
        serial_summary, serial_ids = _run(system, jobs=1, executor=None)
        thread_summary, thread_ids = _run(system, jobs=4, executor="thread")
        process_summary, process_ids = _run(system, jobs=4, executor="process")
        assert serial_ids, f"no scenarios generated for {system}"
        assert thread_summary == serial_summary
        assert thread_ids == serial_ids
        assert process_summary == serial_summary
        assert process_ids == serial_ids

    def test_explicit_serial_strategy_matches_default_serial(self):
        default_summary, default_ids = _run("postgres", jobs=1, executor=None)
        strategy_summary, strategy_ids = _run("postgres", jobs=1, executor="serial")
        assert strategy_summary == default_summary
        assert strategy_ids == default_ids

    def test_worker_count_does_not_change_profiles(self):
        baseline = _run("mysql", jobs=2, executor="thread")
        for jobs in (3, 7):
            assert _run("mysql", jobs=jobs, executor="thread") == baseline

    def test_block_size_does_not_change_profiles(self):
        def run_with(block_size):
            campaign = Campaign(
                get_system("mysql"),
                _plugins_for("mysql"),
                seed=SEED,
                check_baseline=False,
                jobs=4,
                executor="thread",
                block_size=block_size,
            )
            overall = campaign.run().overall
            return overall.summary(), [record.scenario_id for record in overall]

        baseline = run_with(None)
        for block_size in (1, 3, 1000):
            assert run_with(block_size) == baseline


class TestStreaming:
    """The stream() protocol: exactly-once delivery, live observation."""

    def _spec(self):
        return WorkerSpec(
            sut_factory=get_system("postgres"),
            plugin=SpellingMistakesPlugin(mutations_per_token=1),
        )

    def _scenarios(self):
        engine = InjectionEngine(
            get_system("postgres"), SpellingMistakesPlugin(mutations_per_token=1), seed=SEED
        )
        _, _, scenarios = engine.generate_scenarios()
        assert len(scenarios) >= 8
        return scenarios

    @pytest.mark.parametrize("executor_class", [
        SerialExecutor, ThreadPoolCampaignExecutor, ProcessPoolCampaignExecutor
    ])
    def test_stream_yields_every_index_exactly_once(self, executor_class):
        scenarios = self._scenarios()
        strategy = executor_class(jobs=4, block_size=2)
        pairs = list(strategy.stream(self._spec(), scenarios))
        assert sorted(index for index, _ in pairs) == list(range(len(scenarios)))

    @pytest.mark.parametrize("executor_class", [
        SerialExecutor, ThreadPoolCampaignExecutor, ProcessPoolCampaignExecutor
    ])
    def test_sorted_stream_matches_serial_records(self, executor_class):
        scenarios = self._scenarios()
        pairs = sorted(
            executor_class(jobs=3, block_size=2).stream(self._spec(), scenarios),
            key=lambda pair: pair[0],
        )
        serial = list(SerialExecutor(jobs=1).stream(self._spec(), scenarios))
        assert [index for index, _ in serial] == list(range(len(scenarios)))
        assert [r.scenario_id for _, r in pairs] == [r.scenario_id for _, r in serial]
        assert [r.outcome for _, r in pairs] == [r.outcome for _, r in serial]

    def test_empty_scenario_list_streams_nothing(self):
        for executor_class in (SerialExecutor, ThreadPoolCampaignExecutor, ProcessPoolCampaignExecutor):
            assert list(executor_class(jobs=4).stream(self._spec(), [])) == []

    def test_single_worker_parallel_strategies_stream_serially(self):
        scenarios = self._scenarios()
        for executor_class in (ThreadPoolCampaignExecutor, ProcessPoolCampaignExecutor):
            pairs = list(executor_class(jobs=1).stream(self._spec(), scenarios))
            assert [index for index, _ in pairs] == list(range(len(scenarios)))

    def test_thread_stream_is_live_not_a_barrier(self):
        """The first records must be observable before the others even run.

        A gate SUT lets each worker's first scenario through and blocks
        every later one until the consumer has seen a record.  Under the old
        barrier executors nothing is delivered before everything finishes,
        so the gate would never open (the workers' 30 s wait trips); under
        streaming the first completed record opens it and the run finishes.
        """
        from repro.sut.postgres import SimulatedPostgres

        released = threading.Event()

        class GateSUT(SimulatedPostgres):
            budget = 2  # one free scenario per worker
            lock = threading.Lock()

            def start(self, files):
                with GateSUT.lock:
                    free = GateSUT.budget > 0
                    if free:
                        GateSUT.budget -= 1
                if not free and not released.is_set():
                    assert released.wait(timeout=30), (
                        "stream withheld all records until the end of the run"
                    )
                return super().start(files)

        scenarios = self._scenarios()
        strategy = ThreadPoolCampaignExecutor(jobs=2, block_size=1)
        spec = WorkerSpec(sut_factory=GateSUT, plugin=SpellingMistakesPlugin(mutations_per_token=1))
        seen = []
        for index, _record in strategy.stream(spec, scenarios):
            seen.append(index)
            released.set()
        assert sorted(seen) == list(range(len(scenarios)))

    def test_thread_worker_failure_propagates(self):
        class Exploding(Exception):
            pass

        def exploding_factory():
            raise Exploding("boom")

        spec = WorkerSpec(sut_factory=exploding_factory, plugin=SpellingMistakesPlugin())
        strategy = ThreadPoolCampaignExecutor(jobs=2, block_size=1)
        with pytest.raises(Exploding):
            list(strategy.stream(spec, self._scenarios()))

    def test_process_worker_init_failure_is_reported(self):
        spec = WorkerSpec(sut_factory=_exploding_factory, plugin=SpellingMistakesPlugin())
        strategy = ProcessPoolCampaignExecutor(jobs=2, block_size=1)
        with pytest.raises(CampaignError, match="injection context"):
            list(strategy.stream(spec, self._scenarios()))

    def test_abandoned_stream_stops_workers(self):
        scenarios = self._scenarios()
        strategy = ThreadPoolCampaignExecutor(jobs=2, block_size=1)
        stream = strategy.stream(self._spec(), scenarios)
        next(stream)
        stream.close()  # consumer killed mid-run: workers must wind down
        workers = [t for t in threading.enumerate() if t.name.startswith("conferr-worker")]
        assert not workers


def _exploding_factory():
    raise RuntimeError("factory exploded in the worker process")


class TestOnePathPerStrategy:
    """Serial is a stream like the others; process fault tolerance is a policy."""

    @pytest.mark.parametrize("executor", [None, "serial"])
    def test_serial_run_parses_configuration_once(self, executor, monkeypatch):
        parses = []
        original = InjectionEngine.parse_initial_configuration

        def counting(engine):
            parses.append(engine)
            return original(engine)

        monkeypatch.setattr(InjectionEngine, "parse_initial_configuration", counting)
        engine = InjectionEngine(
            get_system("postgres"),
            SpellingMistakesPlugin(mutations_per_token=1),
            seed=SEED,
            executor=executor,
        )
        profile = engine.run()
        assert len(profile) > 1
        assert parses == [engine]

    def test_engine_over_a_bare_instance_runs_serially(self):
        plugin = SpellingMistakesPlugin(mutations_per_token=1)
        bare = InjectionEngine(get_system("postgres")(), plugin, seed=SEED)
        assert bare.sut_factory is None
        built = InjectionEngine(get_system("postgres"), plugin, seed=SEED)
        assert bare.run().summary() == built.run().summary()

    def test_dead_worker_without_policy_breaks_the_process_stream(self):
        """No policy: no deadline, no respawn, no isolation -- the stream raises."""
        spec = WorkerSpec(
            sut_factory=ChaosFactory(get_system("postgres"), crash_fraction=1.0),
            plugin=SpellingMistakesPlugin(mutations_per_token=1),
        )
        _, _, scenarios = InjectionEngine(get_system("postgres"), spec.plugin).generate_scenarios()
        strategy = ProcessPoolCampaignExecutor(jobs=2, block_size=1)
        outcome: dict = {}

        def consume():
            try:
                outcome["pairs"] = list(strategy.stream(spec, scenarios))
            except BaseException as exc:  # noqa: BLE001 - asserted below
                outcome["error"] = exc

        consumer = threading.Thread(target=consume, daemon=True)
        consumer.start()
        consumer.join(timeout=60)
        assert not consumer.is_alive(), "process stream hung after a worker died"
        assert isinstance(outcome.get("error"), BrokenProcessPool), outcome


class _SigtermProbePostgres(SimulatedPostgres):
    """Postgres whose start refuses with the worker's SIGTERM disposition."""

    def start(self, files):
        return StartResult.failed(f"SIGTERM={signal.getsignal(signal.SIGTERM)!r}")


class TestProcessWorkerSignals:
    def test_workers_do_not_inherit_the_cli_sigterm_handler(self):
        """A forked worker must die on SIGTERM, not raise KeyboardInterrupt.

        ``cli.main`` folds SIGTERM into KeyboardInterrupt; a worker that
        inherited that handler prints a traceback when the fault layer
        terminates its pool, and can leave the CLI hanging at exit.
        """
        plugin = SpellingMistakesPlugin(mutations_per_token=1)
        spec = WorkerSpec(sut_factory=_SigtermProbePostgres, plugin=plugin, incremental=False)
        _, _, scenarios = InjectionEngine(get_system("postgres"), plugin, seed=SEED).generate_scenarios()
        previous = signal.signal(signal.SIGTERM, _sigterm_to_interrupt)
        try:
            strategy = ProcessPoolCampaignExecutor(jobs=2, block_size=1)
            pairs = list(strategy.stream(spec, scenarios[:4]))
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert len(pairs) == 4
        assert {tuple(record.messages) for _, record in pairs} == {(f"SIGTERM={signal.SIG_DFL!r}",)}


class TestBlockSizing:
    def test_explicit_block_size_wins(self):
        assert resolve_block_size(1000, 4, 5) == 5

    def test_invalid_block_size_rejected(self):
        with pytest.raises(CampaignError):
            resolve_block_size(10, 2, 0)
        with pytest.raises(CampaignError):
            ThreadPoolCampaignExecutor(jobs=2, block_size=-1)

    def test_auto_block_size_targets_several_pulls_per_worker(self):
        assert resolve_block_size(80, 4) == 5  # 4 pulls per worker
        assert resolve_block_size(3, 4) == 1  # never zero
        assert resolve_block_size(0, 4) == 1
        assert resolve_block_size(100_000, 2) == DEFAULT_MAX_BLOCK  # capped

    def test_make_blocks_cover_everything_in_order(self):
        indexed = list(enumerate("abcdefghij"))
        blocks = make_blocks(indexed, 3)
        assert [len(b) for b in blocks] == [3, 3, 3, 1]
        assert [i for block in blocks for i, _ in block] == list(range(10))


class TestPerPluginWorkerSetup:
    """Context (SUT + parse + view + baseline) is built once per worker,
    not once per block pull -- the paper's per-experiment cost is dominated
    by SUT lifecycle, so per-block setup would erase the streaming win."""

    def test_thread_workers_setup_once_despite_many_blocks(self):
        from repro.sut.postgres import SimulatedPostgres

        calls = []

        def counting_factory():
            calls.append(threading.get_ident())
            return SimulatedPostgres()

        engine = InjectionEngine(
            counting_factory,
            SpellingMistakesPlugin(mutations_per_token=2),
            seed=SEED,
            jobs=4,
            executor="thread",
            block_size=1,  # as many pulls as scenarios
        )
        profile = engine.run()
        assert len(profile) > 10  # many more blocks than workers
        # one instance for the engine itself + at most one per worker
        assert len(calls) <= 1 + 4

    def test_no_more_worker_setups_than_blocks(self):
        from repro.sut.postgres import SimulatedPostgres

        calls = []

        def counting_factory():
            calls.append(threading.get_ident())
            return SimulatedPostgres()

        engine = InjectionEngine(
            counting_factory,
            SpellingMistakesPlugin(mutations_per_token=2),
            seed=SEED,
            jobs=4,
            executor="thread",
            block_size=10_000,  # one block: surplus workers would set up for nothing
        )
        profile = engine.run()
        assert len(profile) > 1
        assert len(calls) <= 1 + 1  # the engine's own instance + one worker

    def test_process_workers_setup_once_despite_many_blocks(self, tmp_path, monkeypatch):
        counter = tmp_path / "factory-calls"
        counter.write_text("")
        monkeypatch.setenv(_COUNTER_ENV, str(counter))
        engine = InjectionEngine(
            _counting_postgres_factory,
            SpellingMistakesPlugin(mutations_per_token=2),
            seed=SEED,
            jobs=4,
            executor="process",
            block_size=1,
        )
        profile = engine.run()
        assert len(profile) > 10
        calls = [line for line in counter.read_text().splitlines() if line]
        assert len(calls) <= 1 + 4


_COUNTER_ENV = "CONFERR_TEST_FACTORY_COUNTER"


def _counting_postgres_factory():
    """Module-level (picklable) factory that tallies calls across processes."""
    from repro.sut.postgres import SimulatedPostgres

    with open(os.environ[_COUNTER_ENV], "a", encoding="utf-8") as handle:
        handle.write(f"{os.getpid()}\n")
    return SimulatedPostgres()


class TestResolution:
    def test_available_executors(self):
        assert available_executors() == ["process", "serial", "thread"]

    def test_default_is_serial(self):
        strategy = resolve_executor(None, 1)
        assert isinstance(strategy, SerialExecutor)
        assert strategy.jobs == 1

    def test_default_parallel_is_threads(self):
        strategy = resolve_executor(None, 4)
        assert isinstance(strategy, ThreadPoolCampaignExecutor)
        assert strategy.jobs == 4

    def test_explicit_strategies(self):
        assert isinstance(resolve_executor("serial", 1), SerialExecutor)
        assert isinstance(resolve_executor("process", 2), ProcessPoolCampaignExecutor)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(CampaignError):
            resolve_executor("gpu", 2)

    def test_zero_jobs_rejected(self):
        with pytest.raises(CampaignError):
            ThreadPoolCampaignExecutor(jobs=0)


class TestFactoryRequirement:
    def test_parallel_run_without_factory_raises(self):
        sut = get_system("postgres")()
        engine = InjectionEngine(sut, SpellingMistakesPlugin(mutations_per_token=1), jobs=4)
        with pytest.raises(CampaignError, match="factory"):
            engine.run()

    def test_engine_accepts_class_as_factory(self):
        factory = get_system("postgres")
        engine = InjectionEngine(factory, SpellingMistakesPlugin(mutations_per_token=1), jobs=2)
        assert engine.sut_factory is factory
        assert engine.sut.name == "Postgres"

    def test_observer_sees_records_in_scenario_order(self):
        factory = get_system("postgres")
        seen: list[str] = []
        engine = InjectionEngine(
            factory,
            SpellingMistakesPlugin(mutations_per_token=1),
            seed=SEED,
            observer=lambda record: seen.append(record.scenario_id),
            jobs=4,
            executor="thread",
        )
        profile = engine.run()
        assert seen == [record.scenario_id for record in profile]
