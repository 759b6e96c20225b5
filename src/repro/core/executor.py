"""Campaign execution strategies: stream scenarios through a worker pool.

The paper's pitch is that automated injection makes resilience profiling
cheap (Section 5.2 reports seconds per experiment, dominated by starting and
stopping the servers).  Injection experiments are embarrassingly parallel --
each one starts from the pristine configuration and owns its SUT lifecycle --
but a campaign is more than a work-partitioning problem: it is a *durability*
problem too.  A long campaign must make progress visible (and persistable) as
it happens, not only once every worker has drained its share.

Every strategy therefore implements one streaming protocol:

``stream(spec, scenarios, engine=None)``
    A generator yielding ``(scenario_index, record)`` pairs **as each
    experiment completes**, in whatever order workers finish them.  The
    campaign suite merges the stream back into scenario order on the fly,
    so observers (progress lines, result-store appends) fire while the
    campaign is still running -- under every strategy, the serial one
    included.  ``engine`` is the coordinator's own
    :class:`~repro.core.engine.InjectionEngine`: scenarios run in the
    calling thread run on it (unless a fault policy asks for disposable
    engines), so a serial run parses the configuration once.

Work is handed out in small *blocks* pulled from one shared queue (work
stealing) rather than one static contiguous chunk per worker: a chunk full
of cheap ``DETECTED_AT_STARTUP`` scenarios no longer leaves its worker idle
while another grinds through expensive ``IGNORED`` ones.  Each worker builds
its injection engine -- SUT instance, parsed configuration, plugin view and
baseline serialisations -- **once per stream** (one (system, plugin) cell),
however many blocks it ends up pulling.

A strategy is also a context manager.  :class:`~repro.core.suite.CampaignSuite`
enters it once around every cell of a run, so the process strategy forks
its workers once per suite run rather than once per cell, and the ``with``
exit shuts them down however the run ends.

Three strategies are provided:

``SerialExecutor``
    One worker in the calling thread: a stream like the others, whose
    records simply arrive in scenario order.
``ThreadPoolCampaignExecutor``
    Threads; best when experiment cost is dominated by waiting on the SUT
    (process startup, sockets) as with real servers.
``ProcessPoolCampaignExecutor``
    Processes; sidesteps the GIL for CPU-bound simulated SUTs, but requires
    the SUT factory, plugin and scenarios to be picklable.  One pool serves
    every stream of a ``with`` block; each block task ships its own
    scenarios and the cell's pickled :class:`WorkerSpec`.  One stream
    serves both the plain and the fault-tolerant run; the spec's
    :class:`~repro.core.faults.FaultPolicy` only switches on its deadline,
    respawn and isolation steps.
"""

from __future__ import annotations

import itertools
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
from typing import Callable, Iterator, Sequence

from repro.core.engine import InjectionEngine
from repro.core.faults import FaultPolicy, GuardedWorker, crash_record, timeout_record
from repro.core.profile import InjectionRecord
from repro.core.templates.base import FaultScenario
from repro.errors import CampaignError
from repro.plugins.base import ErrorGeneratorPlugin
from repro.sut.base import SystemUnderTest

__all__ = [
    "WorkerSpec",
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
    """Everything a worker needs to build its own injection engine.

    Workers never share mutable state: each one instantiates its own SUT from
    the factory, re-parses the pristine configuration and derives its own
    working view, then pulls blocks of scenarios from the shared queue.  No
    seed is carried: scenario generation (the only randomised stage) happens
    solely in the coordinator, before fan-out.

    ``policy`` opts the worker into the fault-tolerance layer
    (:mod:`repro.core.faults`); ``None`` -- the default -- keeps every
    execution path exactly as it was without it.
    """

    #: None when the suite was given a shared SUT instance: the serial
    #: stream then runs on the coordinator's engine, and anything that must
    #: build an engine of its own fails with a pointed error.
    sut_factory: Callable[[], SystemUnderTest] | None
    plugin: ErrorGeneratorPlugin
    policy: FaultPolicy | None = None
    #: Whether workers may take the delta-validation fast path (each worker's
    #: SUT instance prepares its own baseline, once per cell).
    incremental: bool = True


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
    and process strategies both feed it ``(index, scenario)`` pairs, so
    they always agree on block boundaries.
    """
    return [list(indexed[i:i + block_size]) for i in range(0, len(indexed), block_size)]


def _make_runner(
    spec: WorkerSpec, engine: InjectionEngine | None = None
) -> InjectionEngine | GuardedWorker:
    """One worker's scenario runner, honouring the spec's fault policy.

    Without a policy this is a plain :class:`InjectionEngine` -- the
    caller's ``engine`` when given, else one built from ``spec``; with one,
    a :class:`~repro.core.faults.GuardedWorker` over engines built from
    ``spec``, so hung or crashed engines can be abandoned and rebuilt
    mid-run (the caller's own engine cannot be thrown away).  Both expose
    the same ``run_scenario(scenario) -> record`` surface.
    """
    if spec.policy is not None:
        return GuardedWorker(lambda: InjectionEngine.from_spec(spec), spec.policy)
    if engine is not None:
        return engine
    return InjectionEngine.from_spec(spec)


def _close_runner(runner: InjectionEngine | GuardedWorker | None) -> None:
    """Release a runner's helper thread, if it has one."""
    if isinstance(runner, GuardedWorker):
        runner.close()


def _serial_stream(
    spec: WorkerSpec,
    indexed: Sequence[tuple[int, FaultScenario]],
    engine: InjectionEngine | None = None,
) -> Iterator[tuple[int, InjectionRecord]]:
    """Single-worker stream: one runner, records in scenario order."""
    runner = _make_runner(spec, engine)
    try:
        for index, scenario in indexed:
            yield index, runner.run_scenario(scenario)
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
        engine: InjectionEngine | None = None,
    ) -> Iterator[tuple[int, InjectionRecord]]:
        """Yield ``(scenario_index, record)`` as each experiment completes.

        Pairs arrive in completion order, not scenario order; every index in
        ``range(len(scenarios))`` is yielded exactly once.  A worker failure
        raises from the generator after in-flight work has settled.
        ``engine`` runs the scenarios a single worker runs in the calling
        thread; pool workers always build theirs from ``spec``.
        """

    def __enter__(self) -> "CampaignExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Release what the strategy keeps between streams.

        A ``with`` block over the strategy lets every stream inside it share
        one set of workers and releases them on exit, however the block
        ends.  Serial and thread strategies keep nothing between streams.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(jobs={self.jobs}, block_size={self.block_size})"


class SerialExecutor(CampaignExecutor):
    """Single worker in the calling thread."""

    name = "serial"

    def stream(self, spec, scenarios, engine=None):
        return _serial_stream(spec, list(enumerate(scenarios)), engine)


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

    Each thread builds one :class:`InjectionEngine` (private SUT, parse,
    view, baseline) and then loops: pull the next block, run its scenarios, push
    each ``(index, record)`` onto the result queue the moment it exists.
    The shared block queue is what makes the schedule work-stealing: a
    worker that lands on cheap scenarios simply pulls again.
    """

    name = "thread"

    def stream(self, spec, scenarios, engine=None):
        indexed = list(enumerate(scenarios))
        if not indexed:
            return
        workers = min(self.jobs, len(indexed))
        if workers <= 1:
            yield from _serial_stream(spec, indexed, engine)
            return

        block_size = resolve_block_size(len(indexed), workers, self.block_size)
        block_list = make_blocks(indexed, block_size)
        # a worker's unit of work is one block pull: never start more workers
        # than blocks, or the surplus pay the full per-worker engine setup
        # only to find the queue already drained
        workers = min(workers, len(block_list))
        blocks: queue.SimpleQueue = queue.SimpleQueue()
        for block in block_list:
            blocks.put(block)
        results: queue.SimpleQueue = queue.SimpleQueue()
        stop = threading.Event()

        def work() -> None:
            runner: InjectionEngine | GuardedWorker | None = None
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
                        results.put((index, runner.run_scenario(scenario)))
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
#: Per-process worker state: the runner of the stream whose token this
#: worker last saw.  A block of a new stream replaces it, so a pool that
#: lives for a whole suite builds each cell's engine (SUT, parse, view,
#: baseline) once per worker that pulls one of the cell's blocks.  With a
#: fault policy on the spec the runner is a GuardedWorker, so ordinary hangs
#: are resolved *inside* the worker process and never reach the coordinator.
_PROCESS_TOKEN: int | None = None
_PROCESS_RUNNER: InjectionEngine | GuardedWorker | None = None


def _initialize_process_worker() -> None:
    """Pool initializer: restore the default SIGTERM disposition."""
    # A forked worker inherits the parent's handlers; the CLI folds SIGTERM
    # into KeyboardInterrupt, which would turn _terminate_pool's kill into a
    # traceback (and can wedge the pool's shutdown) instead of a quiet exit.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _process_runner(token: int, shipped_spec: bytes) -> InjectionEngine | GuardedWorker:
    """This worker's runner for stream ``token``, built on the first block."""
    global _PROCESS_TOKEN, _PROCESS_RUNNER
    if token != _PROCESS_TOKEN:
        _close_runner(_PROCESS_RUNNER)
        _PROCESS_TOKEN = _PROCESS_RUNNER = None
        try:
            _PROCESS_RUNNER = _make_runner(pickle.loads(shipped_spec))
        except BaseException as exc:  # noqa: BLE001 - reported with its cause
            raise CampaignError(
                "process worker failed to build its injection context: "
                f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
            ) from exc
        _PROCESS_TOKEN = token
    return _PROCESS_RUNNER


def _run_scenario_block(
    token: int, shipped_spec: bytes, shipped_block: bytes
) -> list[tuple[int, InjectionRecord]]:
    """Block task: run the block's ``(index, scenario)`` pairs on this worker's runner."""
    runner = _process_runner(token, shipped_spec)
    block = pickle.loads(shipped_block)
    return [(index, runner.run_scenario(scenario)) for index, scenario in block]


class ProcessPoolCampaignExecutor(CampaignExecutor):
    """OS processes pulling scenario blocks from the pool's shared call queue.

    The strategy owns one pool of ``jobs`` workers, forked at the first
    block.  Inside a ``with`` block -- :meth:`CampaignSuite.run
    <repro.core.suite.CampaignSuite.run>` wraps every cell in one -- that
    pool serves every stream and closes when the block exits; a stream
    started outside one closes its pool when it ends.  Each stream pickles
    its :class:`WorkerSpec` once and each block's ``(index, scenario)``
    pairs once; a block task carries both plus the stream's token, and a
    worker builds its runner when it first sees a token.  Block results
    stream back as their futures complete.
    """

    name = "process"

    def __init__(self, jobs: int = 1, block_size: int | None = None):
        super().__init__(jobs, block_size)
        self._pool: ProcessPoolExecutor | None = None
        #: True inside a ``with`` block: the pool outlives each stream.
        self._shared = False
        self._tokens = itertools.count()

    def __enter__(self) -> "ProcessPoolCampaignExecutor":
        self._shared = True
        return self

    def close(self) -> None:
        """Shut the pool down, waiting for its idle workers to exit."""
        self._shared = False
        self._drop_pool(kill=False)

    def _worker_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=_initialize_process_worker
            )
        return self._pool

    def _drop_pool(self, *, kill: bool) -> None:
        """Retire the pool; the next block forks a fresh one.

        ``kill`` terminates the workers first, for a pool whose workers may
        be wedged or dead; otherwise queued blocks are cancelled and running
        ones finish.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if kill:
            _terminate_pool(pool)
        else:
            pool.shutdown(wait=True, cancel_futures=True)

    def stream(self, spec, scenarios, engine=None):
        """Stream block results; ``spec.policy`` decides what a dead worker costs.

        Without a policy every block is queued at once and a dead worker
        raises ``BrokenProcessPool`` from the stream.  With one, ordinary
        hangs never surface here: each worker process runs its scenarios
        under an in-process :class:`GuardedWorker`, which turns them into
        ``TIMEOUT`` records.  What is left for the coordinator:

        * **worker death** (``os._exit``, segfault, OOM-kill).  The stdlib
          pool declares itself wholly broken, so every unfinished block --
          guilty and innocent alike -- is lost.  Blocks are submitted
          through a bounded window to cap that blast radius, the strategy's
          pool is replaced by a fresh one for the remaining queue (and for
          later streams), and the lost scenarios go to a *suspect* list.
        * **a wedged worker** (hung beyond the reach of its own watchdog
          thread).  Detected by the coordinator-side hard deadline; the
          pool's processes are killed outright, the pool is replaced, and
          in-flight blocks become suspects.

        Suspects are then re-run one at a time in **singleton pools**: an
        innocent scenario simply succeeds in isolation (its record identical
        to a fault-free run's), while a guilty one demonstrably kills its
        private pool and -- after ``max_retries`` isolated re-attempts with
        seeded backoff -- is quarantined with a ``HARNESS_ERROR`` record.
        Attribution is therefore exact: no innocent scenario is ever
        quarantined for a neighbour's crash.

        A stream that ends early (a raising worker, or a consumer that
        stops reading) retires the pool it leaves work in: without a policy
        it waits for the running blocks, with one it kills the workers.
        """
        indexed = list(enumerate(scenarios))
        if not indexed:
            return
        workers = min(self.jobs, len(indexed))
        if workers <= 1:
            yield from _serial_stream(spec, indexed, engine)
            return
        blocks = make_blocks(indexed, resolve_block_size(len(indexed), workers, self.block_size))
        # Pickling every payload up front is also the pre-flight: an
        # unshippable campaign fails here with a pointed message, where
        # inside the pool a pickling error would be indistinguishable from a
        # genuine worker-side bug, which must keep its own traceback.
        try:
            shipped_spec = pickle.dumps(spec)
            pending = deque((block, pickle.dumps(block)) for block in blocks)
        except Exception as exc:
            raise CampaignError(
                "process executor could not ship the campaign to workers "
                "(SUT factory, plugin and scenarios must be picklable; "
                "closures such as token filters are not): " + str(exc)
            ) from exc

        policy = spec.policy
        token = next(self._tokens)
        suspects: deque[int] = deque()
        window = workers * 2 if policy is not None else len(pending)
        completed = False
        try:
            while pending:
                pool = self._worker_pool()
                in_flight: dict = {}
                broken = False
                while (pending or in_flight) and not broken:
                    while pending and len(in_flight) < window:
                        block, shipped_block = pending[0]
                        try:
                            future = pool.submit(
                                _run_scenario_block, token, shipped_spec, shipped_block
                            )
                        except BrokenProcessPool:
                            # A worker died after the last wait returned: the
                            # unsubmitted block stays queued for the respawn.
                            if policy is None:
                                raise
                            broken = True
                            break
                        pending.popleft()
                        in_flight[future] = block
                    if broken:
                        break
                    deadline = None if policy is None else policy.block_deadline(
                        max(len(block) for block in in_flight.values())
                    )
                    done, _ = wait(set(in_flight), timeout=deadline, return_when=FIRST_COMPLETED)
                    if not done:
                        # No progress within the hard deadline: the workers
                        # are wedged beyond their own watchdogs.  Kill them.
                        self._drop_pool(kill=True)
                        for block in in_flight.values():
                            suspects.extend(index for index, _ in block)
                        break
                    for future in done:
                        block = in_flight.pop(future)
                        try:
                            yield from future.result()
                        except BrokenProcessPool:
                            if policy is None:
                                raise
                            suspects.extend(index for index, _ in block)
                            broken = True
                if broken:
                    # The stdlib fails *every* unfinished future of a broken
                    # pool, but ones that finished before the break still
                    # hold real results.
                    for future, block in in_flight.items():
                        try:
                            yield from future.result()
                        except BrokenProcessPool:
                            suspects.extend(index for index, _ in block)
                    self._drop_pool(kill=True)
            completed = True
        finally:
            if not completed:
                # Failed or abandoned mid-stream: this stream's blocks may
                # still be queued or running.  Without a policy wait for the
                # running ones; with one a worker may be wedged, so kill it.
                self._drop_pool(kill=policy is not None)
            if not self._shared:
                self.close()

        yield from self._isolate_suspects(token, shipped_spec, indexed, suspects, policy)

    @staticmethod
    def _isolate_suspects(
        token: int,
        shipped_spec: bytes,
        indexed: list[tuple[int, FaultScenario]],
        suspects: deque,
        policy: FaultPolicy | None,
    ) -> Iterator[tuple[int, InjectionRecord]]:
        """Re-run each suspect alone in a singleton pool for exact blame.

        Only a policy makes suspects; without one this yields nothing.
        """
        attempts: dict[int, int] = {}
        while suspects:
            index = suspects.popleft()
            scenario = indexed[index][1]
            previous = attempts.get(index, 0)
            if previous:
                time.sleep(policy.backoff_delay(scenario.scenario_id, previous))
            pool = ProcessPoolExecutor(max_workers=1, initializer=_initialize_process_worker)
            try:
                future = pool.submit(
                    _run_scenario_block, token, shipped_spec, pickle.dumps([indexed[index]])
                )
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
                    yield index, timeout_record(
                        scenario, policy.timeout_seconds, wedged=True
                    )
                else:
                    yield from pairs
            finally:
                # idle, dead or wedged alike: a singleton pool serves one attempt
                _terminate_pool(pool)


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Kill a pool whose workers may be wedged beyond cooperative shutdown.

    Reaches into the executor's private process table -- there is no public
    API for "stop waiting for these workers" -- terminates each one, so
    ``shutdown`` cannot block on a process that will never answer, and then
    reaps them, so no worker outlives its pool.  Safe on a pool already
    terminated.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    for process in processes:
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already-dead worker
            pass
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        process.join()


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
