"""Campaign execution strategies: stream scenarios through a worker pool.

The paper's pitch is that automated injection makes resilience profiling
cheap (Section 5.2 reports seconds per experiment, dominated by starting and
stopping the servers).  Injection experiments are embarrassingly parallel --
each one starts from the pristine configuration and owns its SUT lifecycle --
but a campaign is more than a work-partitioning problem: it is a *durability*
problem too.  A long campaign must make progress visible (and persistable) as
it happens, not only once every worker has drained its share.

Every strategy therefore implements one streaming protocol:

``stream(spec, scenarios, local_context=None)``
    A generator yielding ``(scenario_index, record)`` pairs **as each
    experiment completes**, in whatever order workers finish them.  The
    engine merges the stream back into scenario order on the fly, so
    observers (progress lines, result-store appends) fire while the campaign
    is still running -- under every strategy, the serial one included.
    ``local_context`` builds the context of scenarios run in the calling
    thread: the engine passes one over its own SUT and already-parsed
    configuration, so a serial run parses the configuration once.

Work is handed out in small *blocks* pulled from one shared queue (work
stealing) rather than one static contiguous chunk per worker: a chunk full
of cheap ``DETECTED_AT_STARTUP`` scenarios no longer leaves its worker idle
while another grinds through expensive ``IGNORED`` ones.  Each worker builds
its injection context -- SUT instance, parsed configuration, plugin view and
baseline serialisations -- **once per plugin run** (a persistent pool
initializer for the process strategy), however many blocks it ends up
pulling.

Three strategies are provided:

``SerialExecutor``
    One worker in the calling thread: a stream like the others, whose
    records simply arrive in scenario order.
``ThreadPoolCampaignExecutor``
    Threads; best when experiment cost is dominated by waiting on the SUT
    (process startup, sockets) as with real servers.
``ProcessPoolCampaignExecutor``
    Processes; sidesteps the GIL for CPU-bound simulated SUTs, but requires
    the SUT factory, plugin and scenarios to be picklable.  One stream
    serves both the plain and the fault-tolerant run; the spec's
    :class:`~repro.core.faults.FaultPolicy` only switches on its deadline,
    respawn and isolation steps.
"""

from __future__ import annotations

import pickle
import queue
import signal
import threading
import time
import traceback
from abc import ABC, abstractmethod
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from repro.core.faults import FaultPolicy, GuardedWorker, crash_record, timeout_record
from repro.core.infoset import ConfigSet
from repro.core.profile import InjectionRecord
from repro.core.templates.base import FaultScenario
from repro.errors import CampaignError
from repro.plugins.base import ErrorGeneratorPlugin
from repro.sut.base import SystemUnderTest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from repro.core.engine import InjectionEngine

__all__ = [
    "WorkerSpec",
    "WorkerContext",
    "CampaignExecutor",
    "SerialExecutor",
    "ThreadPoolCampaignExecutor",
    "ProcessPoolCampaignExecutor",
    "available_executors",
    "resolve_executor",
    "resolve_block_size",
    "make_blocks",
    "DEFAULT_MAX_BLOCK",
]

#: Largest block the auto block-size heuristic will hand a worker in one pull.
DEFAULT_MAX_BLOCK = 16

#: Target pulls per worker: enough queue round-trips that a skewed tail can
#: still be rebalanced, few enough that queue overhead stays negligible.
_TARGET_PULLS_PER_WORKER = 4


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to rebuild an injection context.

    Workers never share mutable state: each one instantiates its own SUT from
    the factory, re-parses the pristine configuration and derives its own
    working view, then pulls blocks of scenarios from the shared queue.  No
    seed is carried: scenario generation (the only randomised stage) happens
    solely in the coordinator, before fan-out.

    ``policy`` opts the worker into the fault-tolerance layer
    (:mod:`repro.core.faults`); ``None`` -- the default -- keeps every
    execution path exactly as it was without it.
    """

    #: None when the engine was given a shared SUT instance: the serial
    #: stream then runs on the engine's own context, and anything that must
    #: build a context of its own fails with a pointed error.
    sut_factory: Callable[[], SystemUnderTest] | None
    plugin: ErrorGeneratorPlugin
    policy: FaultPolicy | None = None
    #: Whether workers may take the delta-validation fast path (the prepared
    #: baseline is keyed by file content, so suite cells sharing a system
    #: reuse it across plugin runs).
    incremental: bool = True


class WorkerContext:
    """Per-worker injection context, built once per (worker, plugin run).

    Bundles an engine (and so its SUT), the parsed pristine configuration,
    the plugin view and the baseline serialisation cache so that a worker
    pays the setup cost once however many blocks it pulls from the queue.
    ``config_set``/``view_set`` reuse a parse the caller already made.
    """

    def __init__(
        self,
        engine: InjectionEngine,
        config_set: ConfigSet | None = None,
        view_set: ConfigSet | None = None,
    ):
        self.engine = engine
        if config_set is None:
            config_set = engine.parse_initial_configuration()
        if view_set is None:
            view_set = engine.plugin.view.transform(config_set)
        self.config_set = config_set
        self.view_set = view_set
        self.baseline = engine.baseline_files(config_set, view_set)
        self.prepared = engine.prepare_incremental(config_set, view_set)

    @classmethod
    def from_spec(cls, spec: WorkerSpec) -> "WorkerContext":
        """A context over a fresh SUT from ``spec``'s factory."""
        from repro.core.engine import InjectionEngine

        if spec.sut_factory is None:
            raise CampaignError(
                "parallel execution and fault tolerance need a SUT factory: pass "
                "the SUT class or a zero-argument callable instead of a shared "
                "instance"
            )
        return cls(InjectionEngine(spec.sut_factory(), spec.plugin, incremental=spec.incremental))

    def run(self, scenario: FaultScenario) -> InjectionRecord:
        """Run one injection experiment against this context's SUT."""
        return self.engine.run_scenario(
            scenario,
            self.config_set,
            self.view_set,
            baseline_files=self.baseline,
            incremental=self.prepared,
        )


def resolve_block_size(total: int, jobs: int, block_size: int | None = None) -> int:
    """Scenarios handed to a worker per queue pull.

    An explicit ``block_size`` wins (must be positive).  The default aims for
    ~``_TARGET_PULLS_PER_WORKER`` pulls per worker, capped at
    :data:`DEFAULT_MAX_BLOCK`: small enough that one expensive region of the
    scenario sequence spreads across workers, large enough that queue traffic
    stays negligible next to an injection experiment.
    """
    if block_size is not None:
        if block_size < 1:
            raise CampaignError(f"block_size must be a positive integer, got {block_size}")
        return block_size
    if total <= 0:
        return 1
    return max(1, min(DEFAULT_MAX_BLOCK, total // (max(1, jobs) * _TARGET_PULLS_PER_WORKER)))


def make_blocks(indexed: Sequence, block_size: int) -> list[list]:
    """Cut a sequence into contiguous blocks of ``block_size``.

    The one block-cutting rule of the work-stealing pipeline: the thread
    strategy feeds it ``(index, scenario)`` pairs and the process strategy
    bare indices, so both always agree on block boundaries.
    """
    return [list(indexed[i:i + block_size]) for i in range(0, len(indexed), block_size)]


def _make_runner(
    spec: WorkerSpec, local_context: Callable[[], WorkerContext] | None = None
) -> "WorkerContext | GuardedWorker":
    """One worker's scenario runner, honouring the spec's fault policy.

    Without a policy this is a plain :class:`WorkerContext` -- the caller's
    ``local_context`` when given, else one built from ``spec``; with one, a
    :class:`~repro.core.faults.GuardedWorker` over contexts built from
    ``spec``, so hung or crashed contexts can be abandoned and rebuilt
    mid-run (the caller's own context cannot be thrown away).  Both expose
    the same ``run(scenario) -> record`` surface.
    """
    if spec.policy is not None:
        return GuardedWorker(lambda: WorkerContext.from_spec(spec), spec.policy)
    if local_context is not None:
        return local_context()
    return WorkerContext.from_spec(spec)


def _close_runner(runner: "WorkerContext | GuardedWorker | None") -> None:
    """Release a runner's helper thread, if it has one."""
    if isinstance(runner, GuardedWorker):
        runner.close()


def _serial_stream(
    spec: WorkerSpec,
    indexed: Sequence[tuple[int, FaultScenario]],
    local_context: Callable[[], WorkerContext] | None = None,
) -> Iterator[tuple[int, InjectionRecord]]:
    """Single-worker stream: one context, records in scenario order."""
    runner = _make_runner(spec, local_context)
    try:
        for index, scenario in indexed:
            yield index, runner.run(scenario)
    finally:
        _close_runner(runner)


class CampaignExecutor(ABC):
    """Strategy interface: stream scenario records as experiments complete."""

    #: Registry name of the strategy.
    name: str = "executor"

    def __init__(self, jobs: int = 1, block_size: int | None = None):
        if jobs < 1:
            raise CampaignError(f"executor needs at least one worker, got jobs={jobs}")
        if block_size is not None and block_size < 1:
            raise CampaignError(f"block_size must be a positive integer, got {block_size}")
        self.jobs = jobs
        self.block_size = block_size

    @abstractmethod
    def stream(
        self,
        spec: WorkerSpec,
        scenarios: Sequence[FaultScenario],
        local_context: Callable[[], WorkerContext] | None = None,
    ) -> Iterator[tuple[int, InjectionRecord]]:
        """Yield ``(scenario_index, record)`` as each experiment completes.

        Pairs arrive in completion order, not scenario order; every index in
        ``range(len(scenarios))`` is yielded exactly once.  A worker failure
        raises from the generator after in-flight work has settled.
        ``local_context`` builds the context for scenarios run in the
        calling thread (a single worker); pool workers always build theirs
        from ``spec``.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(jobs={self.jobs}, block_size={self.block_size})"


class SerialExecutor(CampaignExecutor):
    """Single worker in the calling thread."""

    name = "serial"

    def stream(self, spec, scenarios, local_context=None):
        return _serial_stream(spec, list(enumerate(scenarios)), local_context)


class _WorkerFailure:
    """Envelope carrying a worker-side exception to the consuming thread.

    The formatted worker traceback rides along so the real failure site
    survives transits that strip the exception's own traceback object --
    which is the rule, not the exception, once process boundaries and
    re-raising from stashes are involved.
    """

    __slots__ = ("exception", "traceback_text")

    def __init__(self, exception: BaseException, traceback_text: str | None = None):
        self.exception = exception
        self.traceback_text = traceback_text

    def reraise(self) -> None:
        """Raise the worker's exception, re-attaching a lost failure site.

        When the exception object still carries its traceback (same-process
        thread workers) it is raised untouched; when that traceback was lost
        in transit, the formatted worker-side text is chained on as the
        cause so diagnostics keep pointing at the real frame.
        """
        if self.exception.__traceback__ is None and self.traceback_text:
            raise self.exception from CampaignError(
                "worker-side traceback:\n" + self.traceback_text.rstrip()
            )
        raise self.exception


#: Queue sentinel: one per worker thread, announcing that it has drained.
_WORKER_DONE = object()


class ThreadPoolCampaignExecutor(CampaignExecutor):
    """Long-lived worker threads pulling scenario blocks from a shared queue.

    Each thread builds one :class:`WorkerContext` (private SUT, parse, view,
    baseline) and then loops: pull the next block, run its scenarios, push
    each ``(index, record)`` onto the result queue the moment it exists.
    The shared block queue is what makes the schedule work-stealing: a
    worker that lands on cheap scenarios simply pulls again.
    """

    name = "thread"

    def stream(self, spec, scenarios, local_context=None):
        indexed = list(enumerate(scenarios))
        if not indexed:
            return
        workers = min(self.jobs, len(indexed))
        if workers <= 1:
            yield from _serial_stream(spec, indexed, local_context)
            return

        block_size = resolve_block_size(len(indexed), workers, self.block_size)
        block_list = make_blocks(indexed, block_size)
        # a worker's unit of work is one block pull: never start more workers
        # than blocks, or the surplus pay the full per-worker context setup
        # only to find the queue already drained
        workers = min(workers, len(block_list))
        blocks: queue.SimpleQueue = queue.SimpleQueue()
        for block in block_list:
            blocks.put(block)
        results: queue.SimpleQueue = queue.SimpleQueue()
        stop = threading.Event()

        def work() -> None:
            runner: WorkerContext | GuardedWorker | None = None
            try:
                runner = _make_runner(spec)
                while not stop.is_set():
                    try:
                        block = blocks.get_nowait()
                    except queue.Empty:
                        break
                    for index, scenario in block:
                        if stop.is_set():
                            return
                        results.put((index, runner.run(scenario)))
            except BaseException as exc:  # noqa: BLE001 - must cross the thread
                results.put(_WorkerFailure(exc, traceback.format_exc()))
            finally:
                _close_runner(runner)
                results.put(_WORKER_DONE)

        threads = [
            threading.Thread(target=work, name=f"conferr-worker-{i}", daemon=True)
            for i in range(workers)
        ]
        failure: _WorkerFailure | None = None
        try:
            for thread in threads:
                thread.start()
            done = 0
            while done < len(threads):
                item = results.get()
                if item is _WORKER_DONE:
                    done += 1
                elif isinstance(item, _WorkerFailure):
                    if failure is None:
                        failure = item
                    stop.set()
                elif failure is None:
                    yield item
            if failure is not None:
                failure.reraise()
        finally:
            # Consumer gone (exhausted, failed, or abandoned mid-stream):
            # workers finish their current experiment and exit.
            stop.set()
            for thread in threads:
                thread.join()


# ----------------------------------------------------------- process workers
#: Per-process worker state, installed once by the pool initializer so that
#: every block task reuses the same SUT/parse/view/baseline context.  With a
#: fault policy on the spec the runner is a GuardedWorker, so ordinary hangs
#: are resolved *inside* the worker process and never reach the coordinator.
_PROCESS_CONTEXT: WorkerContext | GuardedWorker | None = None
_PROCESS_SCENARIOS: tuple[FaultScenario, ...] = ()
_PROCESS_INIT_ERROR: str | None = None


def _initialize_process_worker(spec: WorkerSpec, scenarios: tuple[FaultScenario, ...]) -> None:
    """Pool initializer: build this process's injection context exactly once."""
    global _PROCESS_CONTEXT, _PROCESS_SCENARIOS, _PROCESS_INIT_ERROR
    # A forked worker inherits the parent's handlers; the CLI folds SIGTERM
    # into KeyboardInterrupt, which would turn _terminate_pool's kill into a
    # traceback (and can wedge the pool's shutdown) instead of a quiet exit.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        _PROCESS_CONTEXT = _make_runner(spec)
        _PROCESS_SCENARIOS = tuple(scenarios)
        _PROCESS_INIT_ERROR = None
    except BaseException as exc:  # noqa: BLE001 - a raising initializer breaks
        # the whole pool with an opaque BrokenProcessPool; stash the cause and
        # report it from the first block task instead, with a real message
        _PROCESS_CONTEXT = None
        _PROCESS_INIT_ERROR = f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"


def _run_scenario_block(indices: Sequence[int]) -> list[tuple[int, InjectionRecord]]:
    """Block task: run the given scenario indices in this worker's context."""
    if _PROCESS_CONTEXT is None:
        raise CampaignError(
            "process worker failed to build its injection context: "
            + (_PROCESS_INIT_ERROR or "initializer did not run")
        )
    return [(index, _PROCESS_CONTEXT.run(_PROCESS_SCENARIOS[index])) for index in indices]


class ProcessPoolCampaignExecutor(CampaignExecutor):
    """OS processes pulling scenario blocks from the pool's shared call queue.

    The pool initializer ships ``(spec, scenarios)`` once per worker process
    and builds the injection context there; block tasks then carry only
    scenario *indices*, so per-block pickling cost is a few integers.  Block
    results stream back as their futures complete.
    """

    name = "process"

    def stream(self, spec, scenarios, local_context=None):
        """Stream block results; ``spec.policy`` decides what a dead worker costs.

        Without a policy every block is queued at once and a dead worker
        raises ``BrokenProcessPool`` from the stream.  With one, ordinary
        hangs never surface here: each worker process runs its scenarios
        under an in-process :class:`GuardedWorker`, which turns them into
        ``TIMEOUT`` records.  What is left for the coordinator:

        * **worker death** (``os._exit``, segfault, OOM-kill).  The stdlib
          pool declares itself wholly broken, so every unfinished block --
          guilty and innocent alike -- is lost.  Blocks are submitted
          through a bounded window to cap that blast radius, the pool is
          respawned for the remaining queue, and the lost scenarios go to a
          *suspect* list.
        * **a wedged worker** (hung beyond the reach of its own watchdog
          thread).  Detected by the coordinator-side hard deadline; the
          pool's processes are killed outright and in-flight blocks become
          suspects.

        Suspects are then re-run one at a time in **singleton pools**: an
        innocent scenario simply succeeds in isolation (its record identical
        to a fault-free run's), while a guilty one demonstrably kills its
        private pool and -- after ``max_retries`` isolated re-attempts with
        seeded backoff -- is quarantined with a ``HARNESS_ERROR`` record.
        Attribution is therefore exact: no innocent scenario is ever
        quarantined for a neighbour's crash.
        """
        scenario_list = list(scenarios)
        if not scenario_list:
            return
        workers = min(self.jobs, len(scenario_list))
        if workers <= 1:
            yield from _serial_stream(spec, list(enumerate(scenario_list)), local_context)
            return
        # Pre-flight the pickle round-trip so an unshippable campaign fails
        # with a pointed message; inside the pool a pickling error would be
        # indistinguishable from a genuine worker-side bug, which must keep
        # its own traceback.
        try:
            pickle.dumps((spec, scenario_list))
        except Exception as exc:
            raise CampaignError(
                "process executor could not ship the campaign to workers "
                "(SUT factory, plugin and scenarios must be picklable; "
                "closures such as token filters are not): " + str(exc)
            ) from exc

        policy = spec.policy
        total = len(scenario_list)
        block_size = resolve_block_size(total, workers, self.block_size)
        pending_blocks: deque[list[int]] = deque(make_blocks(range(total), block_size))
        suspects: deque[int] = deque()
        window = workers * 2 if policy is not None else len(pending_blocks)

        while pending_blocks:
            pool = self._spawn_pool(spec, scenario_list, min(workers, len(pending_blocks)))
            in_flight: dict = {}
            broken = False
            try:
                while (pending_blocks or in_flight) and not broken:
                    while pending_blocks and len(in_flight) < window:
                        try:
                            future = pool.submit(_run_scenario_block, pending_blocks[0])
                        except BrokenProcessPool:
                            # A worker died after the last wait returned: the
                            # unsubmitted block stays queued for the respawn.
                            if policy is None:
                                raise
                            broken = True
                            break
                        in_flight[future] = pending_blocks.popleft()
                    if broken:
                        break
                    deadline = None if policy is None else policy.block_deadline(
                        max(len(block) for block in in_flight.values())
                    )
                    done, _ = wait(set(in_flight), timeout=deadline, return_when=FIRST_COMPLETED)
                    if not done:
                        # No progress within the hard deadline: the workers
                        # are wedged beyond their own watchdogs.  Kill them.
                        _terminate_pool(pool)
                        for block in in_flight.values():
                            suspects.extend(block)
                        in_flight = {}
                        break
                    for future in done:
                        block = in_flight.pop(future)
                        try:
                            yield from future.result()
                        except BrokenProcessPool:
                            if policy is None:
                                raise
                            suspects.extend(block)
                            broken = True
                # Pool broke: the stdlib fails *every* unfinished future, but
                # ones that finished before the break still hold real results.
                for future, block in in_flight.items():
                    try:
                        yield from future.result()
                    except BrokenProcessPool:
                        suspects.extend(block)
            finally:
                # Abandoned mid-stream (consumer failure/kill): drop the
                # queued blocks.  Without a policy wait for the running ones;
                # with one a worker may be wedged, so never wait on it.
                pool.shutdown(wait=policy is None, cancel_futures=True)

        yield from self._isolate_suspects(spec, scenario_list, suspects, policy)

    def _spawn_pool(
        self, spec: WorkerSpec, scenario_list: list[FaultScenario], workers: int
    ) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=workers,
            initializer=_initialize_process_worker,
            initargs=(spec, tuple(scenario_list)),
        )

    def _isolate_suspects(
        self,
        spec: WorkerSpec,
        scenario_list: list[FaultScenario],
        suspects: deque,
        policy: FaultPolicy | None,
    ) -> Iterator[tuple[int, InjectionRecord]]:
        """Re-run each suspect alone in a singleton pool for exact blame.

        Only a policy makes suspects; without one this yields nothing.
        """
        attempts: dict[int, int] = {}
        while suspects:
            index = suspects.popleft()
            scenario = scenario_list[index]
            previous = attempts.get(index, 0)
            if previous:
                time.sleep(policy.backoff_delay(scenario.scenario_id, previous))
            pool = self._spawn_pool(spec, scenario_list, 1)
            try:
                future = pool.submit(_run_scenario_block, [index])
                try:
                    pairs = future.result(timeout=policy.block_deadline(1))
                except BrokenProcessPool:
                    attempts[index] = previous + 1
                    if attempts[index] > policy.max_retries:
                        yield index, crash_record(
                            scenario,
                            "worker process died; reproduced in isolation",
                            retries=policy.max_retries,
                        )
                    else:
                        suspects.append(index)
                except FuturesTimeoutError:
                    _terminate_pool(pool)
                    yield index, timeout_record(
                        scenario, policy.timeout_seconds, wedged=True
                    )
                else:
                    yield from pairs
            finally:
                pool.shutdown(wait=False, cancel_futures=True)


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Kill a pool whose workers are wedged beyond cooperative shutdown.

    Reaches into the executor's private process table -- there is no public
    API for "stop waiting for these workers" -- and terminates each one, so
    ``shutdown`` cannot block on a process that will never answer.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already-dead worker
            pass
    pool.shutdown(wait=False, cancel_futures=True)


_EXECUTORS: dict[str, type[CampaignExecutor]] = {
    cls.name: cls
    for cls in (SerialExecutor, ThreadPoolCampaignExecutor, ProcessPoolCampaignExecutor)
}


def available_executors() -> list[str]:
    """Names of the registered executor strategies, sorted."""
    return sorted(_EXECUTORS)


def resolve_executor(
    kind: str | None, jobs: int, block_size: int | None = None
) -> CampaignExecutor:
    """Pick a strategy for (kind, jobs, block_size).

    No explicit strategy means serial for ``jobs <= 1`` and threads
    otherwise.
    """
    if kind is None:
        kind = "serial" if jobs <= 1 else "thread"
    try:
        executor_class = _EXECUTORS[kind]
    except KeyError:
        raise CampaignError(
            f"unknown executor {kind!r}; available: {available_executors()}"
        ) from None
    return executor_class(jobs=jobs, block_size=block_size)
