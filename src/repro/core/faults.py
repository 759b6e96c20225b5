"""Fault tolerance for the injection harness itself.

The paper's method is to inject faults into a system and observe whether it
degrades or dies; this module applies the same standard to our own campaign
pipeline.  Without it, a single misbehaving experiment destroys a run: a SUT
call that hangs wedges its worker (and, serially, the whole campaign), and a
worker process that dies takes every in-flight scenario of its pool down
with an opaque ``BrokenProcessPool``.

Three pieces make a campaign degrade instead:

:class:`FaultPolicy`
    The knobs -- per-scenario ``timeout_seconds``, crash ``max_retries`` and
    the seeded exponential ``retry_backoff_seconds`` -- threaded from
    :class:`~repro.core.spec.ExecutionSpec` through suite and executors.
    ``None`` (the default everywhere) means the tolerance layer is off and
    every hot path is byte-for-byte the untolerant one.

:class:`GuardedWorker`
    A deadline-checked scenario runner.  Scenarios run on a disposable
    helper thread; if one exceeds the deadline the hung thread (and its
    possibly-corrupted injection engine) is abandoned and the scenario is
    recorded as :data:`~repro.core.profile.InjectionOutcome.TIMEOUT`.  A
    scenario that kills its worker (a ``BaseException`` escaping the SUT,
    e.g. :class:`WorkerCrashed`) is retried with backoff on a fresh engine
    and quarantined as a ``HARNESS_ERROR`` once retries are exhausted.

quarantine records
    :func:`timeout_record` / :func:`crash_record` synthesise harness-outcome
    records carrying ``metadata["quarantined"] = True``; the result store
    routes them to ``quarantine.jsonl`` next to the per-system record files
    instead of mixing them into the main stream, so a resumed run can
    re-attempt or skip them and `conferr store verify` still reports the
    store clean.

Process workers use the same :class:`GuardedWorker` *inside* each worker
process (hangs never reach the coordinator); genuine worker death is handled
at the pool level by :class:`~repro.core.executor.ProcessPoolCampaignExecutor`.
"""

from __future__ import annotations

import hashlib
import queue
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Callable

from repro.core.profile import InjectionOutcome, InjectionRecord
from repro.core.templates.base import FaultScenario

__all__ = [
    "FaultPolicy",
    "GuardedWorker",
    "WorkerCrashed",
    "timeout_record",
    "crash_record",
]

#: Extra wait allowed the first time a fresh runner handles a scenario: the
#: runner builds its injection engine (SUT + parse + view + baseline)
#: lazily, and that setup must not eat into the scenario's own deadline.
SETUP_GRACE_SECONDS = 10.0

#: Coordinator-side slack per scenario on top of the in-worker deadline: the
#: in-worker watchdog answers within ``timeout + epsilon``, so a block only
#: trips the coordinator's hard deadline when the worker process itself is
#: wedged (watchdog included) and must be killed from outside.
_HARD_DEADLINE_FACTOR = 2.0
_HARD_DEADLINE_SLACK = 15.0


class WorkerCrashed(BaseException):  # conferr: allow[harness/foreign-exception]
    """A simulated worker death (thread workers cannot really be killed).

    Derives from ``BaseException`` on purpose: the engine's per-scenario
    ``except Exception`` guards must *not* absorb it -- a crash is supposed
    to escape the experiment and take the worker down, exactly like
    ``os._exit`` does to a process-pool worker.  :class:`GuardedWorker`
    catches it at the worker boundary and applies the retry/quarantine
    policy.
    """


@dataclass(frozen=True)
class FaultPolicy:
    """Tolerance knobs for one campaign.

    ``timeout_seconds``
        Per-scenario deadline; ``None`` disables the watchdog (crash
        retries still apply).
    ``max_retries``
        Isolated re-attempts granted a scenario whose worker crashed
        before it is quarantined.
    ``retry_backoff_seconds``
        Base of the exponential backoff slept before each re-attempt.
    ``backoff_seed``
        Seed of the deterministic backoff jitter (campaigns stay
        reproducible down to their sleep schedule).
    ``setup_grace_seconds``
        Extra wait allowed a scenario that is first on a fresh runner (the
        runner builds its injection engine lazily); tests shrink this to
        keep watchdog deadlines short.
    """

    timeout_seconds: float | None = None
    max_retries: int = 2
    retry_backoff_seconds: float = 0.05
    backoff_seed: int = 0
    setup_grace_seconds: float = SETUP_GRACE_SECONDS

    @classmethod
    def from_execution(cls, execution) -> "FaultPolicy | None":
        """The policy an :class:`~repro.core.spec.ExecutionSpec` asks for.

        Returns ``None`` -- tolerance layer off, zero overhead -- unless at
        least one of the fault-tolerance knobs is set in the spec.
        """
        if (
            execution.timeout_seconds is None
            and execution.max_retries is None
            and execution.retry_backoff_seconds is None
        ):
            return None
        kwargs: dict = {"backoff_seed": execution.seed}
        if execution.timeout_seconds is not None:
            kwargs["timeout_seconds"] = float(execution.timeout_seconds)
        if execution.max_retries is not None:
            kwargs["max_retries"] = execution.max_retries
        if execution.retry_backoff_seconds is not None:
            kwargs["retry_backoff_seconds"] = float(execution.retry_backoff_seconds)
        return cls(**kwargs)

    def backoff_delay(self, key: str, attempt: int) -> float:
        """Seconds to sleep before re-attempt ``attempt`` (1-based) of ``key``.

        Exponential in the attempt number with a deterministic jitter factor
        in [0.5, 1.5) derived from ``(backoff_seed, key, attempt)`` -- seeded,
        so two runs of the same campaign sleep the same schedule, yet two
        scenarios retrying concurrently do not stampede in lockstep.
        """
        digest = hashlib.sha256(
            f"{self.backoff_seed}:{key}:{attempt}".encode("utf-8")
        ).digest()
        jitter = 0.5 + int.from_bytes(digest[:4], "big") / 2**32
        return self.retry_backoff_seconds * (2 ** (attempt - 1)) * jitter

    def scenario_budget(self, fresh_runner: bool) -> float | None:
        """In-worker wait budget for one scenario (None: wait forever)."""
        if self.timeout_seconds is None:
            return None
        return self.timeout_seconds + (self.setup_grace_seconds if fresh_runner else 0.0)

    def block_deadline(self, scenario_count: int) -> float | None:
        """Coordinator-side hard deadline for a block of scenarios.

        Generous by design: the in-worker watchdog resolves ordinary hangs,
        so this only fires for a worker process wedged beyond the reach of
        its own watchdog thread.
        """
        if self.timeout_seconds is None:
            return None
        per_scenario = self.timeout_seconds * _HARD_DEADLINE_FACTOR + self.setup_grace_seconds
        return scenario_count * per_scenario + _HARD_DEADLINE_SLACK


# ------------------------------------------------------------ harness records
def _quarantine_metadata(scenario: FaultScenario, fault: str) -> dict:
    return {**scenario.metadata, "harness_fault": fault, "quarantined": True}


def timeout_record(
    scenario: FaultScenario, timeout_seconds: float | None, *, wedged: bool = False
) -> InjectionRecord:
    """The ``TIMEOUT`` record of a scenario the watchdog had to cancel."""
    deadline = f"{timeout_seconds:g}s" if timeout_seconds is not None else "its"
    if wedged:
        message = (
            f"worker process wedged past the {deadline} deadline "
            "(in-worker watchdog unresponsive); killed and respawned"
        )
    else:
        message = (
            f"scenario exceeded the {deadline} deadline; "
            "hung worker context abandoned and rebuilt"
        )
    return InjectionRecord(
        scenario_id=scenario.scenario_id,
        category=scenario.category,
        description=scenario.description,
        outcome=InjectionOutcome.TIMEOUT,
        messages=[message],
        metadata=_quarantine_metadata(scenario, "timeout"),
        duration_seconds=float(timeout_seconds or 0.0),
    )


def crash_record(
    scenario: FaultScenario,
    reason: str,
    *,
    retries: int,
    traceback_text: str | None = None,
) -> InjectionRecord:
    """The quarantined ``HARNESS_ERROR`` record of a worker-killing scenario."""
    messages = [
        f"worker crashed while running this scenario ({reason}); "
        f"quarantined after {retries} isolated re-attempt(s)"
    ]
    if traceback_text:
        messages.append(traceback_text.rstrip())
    return InjectionRecord(
        scenario_id=scenario.scenario_id,
        category=scenario.category,
        description=scenario.description,
        outcome=InjectionOutcome.HARNESS_ERROR,
        messages=messages,
        metadata=_quarantine_metadata(scenario, "worker-crash"),
    )


# ------------------------------------------------------------- guarded worker
class _RunnerThread:
    """Disposable scenario runner: one daemon thread owning one engine.

    The owning :class:`GuardedWorker` talks to it through queues only, so a
    runner stuck inside a hung SUT call can simply be abandoned -- the
    daemon thread keeps (harmlessly) waiting, the next runner starts from a
    freshly built engine, and the stale result, if it ever arrives, lands
    in an outbox nobody reads.
    """

    def __init__(self, build_engine: Callable[[], object]):
        self.inbox: queue.SimpleQueue = queue.SimpleQueue()
        self.outbox: queue.SimpleQueue = queue.SimpleQueue()
        self.thread = threading.Thread(
            target=self._loop,
            args=(build_engine,),
            name="conferr-guarded-runner",
            daemon=True,
        )
        self.thread.start()

    def _loop(self, build_engine: Callable[[], object]) -> None:
        try:
            engine = build_engine()
        except BaseException as exc:  # noqa: BLE001 - reported to the guard
            task = self.inbox.get()
            if task is not None:
                self.outbox.put((task[0], "error", exc, traceback.format_exc()))
            return
        while True:
            task = self.inbox.get()
            if task is None:
                return
            token, scenario = task
            try:
                record = engine.run_scenario(scenario)
            except Exception as exc:  # harness bug: hand back for re-raise
                self.outbox.put((token, "error", exc, traceback.format_exc()))
            except BaseException as exc:  # noqa: BLE001 - simulated worker death
                self.outbox.put((token, "crash", exc, traceback.format_exc()))
                return
            else:
                self.outbox.put((token, "ok", record, None))


class GuardedWorker:
    """Deadline-checked, crash-isolating wrapper around an injection engine.

    Drop-in for :class:`~repro.core.engine.InjectionEngine` (same
    ``run_scenario`` signature) wherever a :class:`FaultPolicy` is active:
    the serial stream, each thread-pool worker, and the inside of every
    process-pool worker.  ``build_engine`` makes a fresh engine whenever the
    previous one had to be abandoned.

    ``run_scenario`` never lets a fault escape as an exception unless it is a genuine
    harness bug: hangs come back as ``TIMEOUT`` records, worker-killing
    scenarios as quarantined ``HARNESS_ERROR`` records once their isolated
    re-attempts (with seeded exponential backoff) are spent.
    """

    def __init__(self, build_engine: Callable[[], object], policy: FaultPolicy):
        self.build_engine = build_engine
        self.policy = policy
        self._runner: _RunnerThread | None = None
        self._fresh = True
        self._token = 0

    def _ensure_runner(self) -> _RunnerThread:
        if self._runner is None:
            self._runner = _RunnerThread(self.build_engine)
            self._fresh = True
        return self._runner

    def run_scenario(self, scenario: FaultScenario) -> InjectionRecord:
        """Run one scenario under the policy; always returns a record."""
        attempts = 0
        while True:
            runner = self._ensure_runner()
            self._token += 1
            runner.inbox.put((self._token, scenario))
            budget = self.policy.scenario_budget(self._fresh)
            try:
                token, status, payload, traceback_text = runner.outbox.get(timeout=budget)
            except queue.Empty:
                # Hung: abandon the runner (daemon thread + engine leak by
                # design -- killing a thread is not possible) and move on.
                self._runner = None
                return timeout_record(scenario, self.policy.timeout_seconds)
            assert token == self._token  # runners are never reused after abandon
            self._fresh = False
            if status == "ok":
                return payload
            if status == "error":
                # An exception escaped the engine's own guards: a harness
                # bug, not an injected fault.  The engine may be mid-
                # mutation, so drop it, and re-raise with the real site.
                self._runner = None
                raise payload
            # status == "crash": the scenario killed its worker
            self._runner = None
            attempts += 1
            if attempts > self.policy.max_retries:
                return crash_record(
                    scenario,
                    f"{type(payload).__name__}: {payload}",
                    retries=self.policy.max_retries,
                    traceback_text=traceback_text,
                )
            time.sleep(self.policy.backoff_delay(scenario.scenario_id, attempts))

    def close(self) -> None:
        """Let the current runner thread (if any) exit cleanly."""
        runner, self._runner = self._runner, None
        if runner is not None:
            runner.inbox.put(None)
