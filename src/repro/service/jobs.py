"""Job model and multi-tenant persistence for the campaign service.

A *job* is one submitted :class:`~repro.core.spec.ExperimentSpec` plus its
lifecycle state; the :class:`JobRegistry` owns every job of a service data
directory and persists each one as a small JSON document next to its
result store:

.. code-block:: text

    <data_dir>/tenants/<tenant>/jobs/<job_id>/
        job.json    # spec + state + progress snapshot
        store/      # the job's append-only ResultStore

State machine: ``QUEUED -> RUNNING -> DONE | FAILED | CANCELLED``, plus
``RUNNING -> QUEUED`` when the service is stopped (or killed) mid-job --
on the next startup the registry requeues every job found ``RUNNING`` on
disk, and the scheduler resumes it through the store's resume protocol, so
a ``kill -9`` costs at most the in-flight tail of records and never
duplicates a scenario.

``job.json`` is a *snapshot* (rewritten atomically, throttled during
record streams); the result store is always the authoritative record of
completed scenarios.  Tenants are isolated by directory: a tenant can only
ever list, poll, cancel or render its own jobs.
"""

from __future__ import annotations

import json
import re
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.core.durable import read_json_object, write_atomic
from repro.core.spec import ExperimentSpec
from repro.errors import ServiceConflictError, ServiceError

__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "DEFAULT_TENANT",
    "validate_tenant",
    "CellProgress",
    "Job",
    "JobRegistry",
]

#: Every state a job can be in, in lifecycle order.
JOB_STATES = ("QUEUED", "RUNNING", "DONE", "FAILED", "CANCELLED")
#: States a job never leaves.
TERMINAL_STATES = frozenset({"DONE", "FAILED", "CANCELLED"})

#: Tenant used when a request carries no ``X-Tenant`` header.
DEFAULT_TENANT = "default"
#: Tenant names double as directory names, so they are restricted to the
#: same alphabet store filenames use (no separators, no traversal).
_TENANT_RE = re.compile(r"[A-Za-z0-9._-]{1,64}")
_JOB_FILE = "job.json"
_STORE_DIR = "store"
#: Minimum seconds between two progress-driven ``job.json`` rewrites; the
#: store is the durable truth, the snapshot only serves restart listings.
_PROGRESS_SAVE_INTERVAL = 1.0


def validate_tenant(name: str) -> str:
    """Check a tenant name is usable as an isolated directory key."""
    # fullmatch, not match-with-$: "$" would accept a trailing newline;
    # "." and ".." pass the charset but are directory traversal, not names
    if not _TENANT_RE.fullmatch(name or "") or name in (".", ".."):
        raise ServiceError(
            f"invalid tenant {name!r}: tenant names are 1-64 characters "
            "from [A-Za-z0-9._-]"
        )
    return name


def cell_key(system: str, plugin: str) -> str:
    """Progress key of one (system, plugin) suite cell."""
    return f"{system}/{plugin}"


@dataclass
class CellProgress:
    """Live counters of one (system, plugin) cell of a running job.

    ``executed`` and ``quarantined`` tick per record as the suite streams;
    ``skipped`` (scenarios already on disk from a previous run) is only
    known once the cell's campaign finishes, so it stays None until then.
    """

    executed: int = 0
    quarantined: int = 0
    skipped: int | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "executed": self.executed,
            "quarantined": self.quarantined,
            "skipped": self.skipped,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CellProgress":
        return cls(
            executed=int(data.get("executed", 0)),
            quarantined=int(data.get("quarantined", 0)),
            skipped=data.get("skipped"),
        )


@dataclass
class Job:
    """One submitted experiment and its lifecycle state.

    Mutations go through :class:`JobRegistry` (which serializes them under
    its lock and persists the snapshot); treat instances as read-only
    elsewhere.  ``cancel_event`` is runtime-only: the scheduler's
    cancellation hook polls it between records.
    """

    id: str
    tenant: str
    spec: dict[str, Any]
    job_dir: Path
    state: str = "QUEUED"
    created_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    #: Records released (appended + reported) by the *current* service
    #: process for this job; resets on restart, unlike the store itself.
    records: int = 0
    cells: dict[str, CellProgress] = field(default_factory=dict)
    #: Filled when the suite completes: total scenarios executed/skipped
    #: (a resumed job reports the replayed remainder here).
    result: dict[str, int] | None = None
    #: How many service restarts requeued this job mid-run.
    restarts: int = 0
    cancel_event: threading.Event = field(default_factory=threading.Event, repr=False)

    @property
    def store_dir(self) -> Path:
        return self.job_dir / _STORE_DIR

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "tenant": self.tenant,
            "state": self.state,
            "spec": self.spec,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "restarts": self.restarts,
            "cancel_requested": self.cancel_event.is_set(),
            "progress": {
                "records": self.records,
                "cells": {key: cell.to_dict() for key, cell in sorted(self.cells.items())},
            },
            "result": self.result,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], job_dir: Path) -> "Job":
        """Rebuild a snapshot; ``ValueError``/``KeyError``/``TypeError`` when malformed."""
        progress = data.get("progress") or {}
        if not isinstance(progress, Mapping) or not isinstance(progress.get("cells") or {}, Mapping):
            raise ValueError("job snapshot progress is not an object of cells")
        cells = progress.get("cells") or {}
        return cls(
            id=str(data["id"]),
            tenant=str(data["tenant"]),
            spec=dict(data["spec"]),
            job_dir=job_dir,
            state=str(data.get("state", "QUEUED")),
            created_at=float(data.get("created_at", 0.0)),
            started_at=data.get("started_at"),
            finished_at=data.get("finished_at"),
            error=data.get("error"),
            records=int(progress.get("records", 0)),
            cells={
                str(key): CellProgress.from_dict(cell)
                for key, cell in cells.items()
                if isinstance(cell, Mapping)
            },
            result=data.get("result"),
            restarts=int(data.get("restarts", 0)),
        )


class JobRegistry:
    """Thread-safe, disk-backed registry of every job in a service data dir.

    All state transitions happen under one lock so the scheduler's claim
    (``QUEUED -> RUNNING``) can never race a client's cancel
    (``QUEUED -> CANCELLED``).  Loading a data directory requeues jobs
    found ``RUNNING`` -- they were interrupted by a crash or ``kill -9``
    and must resume.
    """

    def __init__(self, data_dir: str | Path):
        self.data_dir = Path(data_dir)
        self.lock = threading.RLock()
        self._jobs: dict[tuple[str, str], Job] = {}
        self._last_progress_save: dict[tuple[str, str], float] = {}
        self._load()

    # ------------------------------------------------------------------ layout
    @property
    def tenants_dir(self) -> Path:
        return self.data_dir / "tenants"

    def _tenant_jobs_dir(self, tenant: str) -> Path:
        return self.tenants_dir / tenant / "jobs"

    # ----------------------------------------------------------------- loading
    def _load(self) -> None:
        """Scan the data directory; requeue jobs interrupted mid-run."""
        self.data_dir.mkdir(parents=True, exist_ok=True)
        if not self.tenants_dir.is_dir():
            return
        for tenant_dir in sorted(self.tenants_dir.iterdir()):
            jobs_dir = tenant_dir / "jobs"
            if not jobs_dir.is_dir():
                continue
            for job_dir in sorted(jobs_dir.iterdir()):
                path = job_dir / _JOB_FILE
                if not path.is_file():
                    continue
                try:
                    job = Job.from_dict(read_json_object(path), job_dir)
                except (ValueError, KeyError, TypeError):
                    continue  # damaged snapshot: the store still holds the records
                if job.state == "RUNNING":
                    # the previous service process died mid-job; the store's
                    # resume protocol replays only what is missing
                    job.state = "QUEUED"
                    job.restarts += 1
                    job.error = None
                    self._save(job)
                self._jobs[(job.tenant, job.id)] = job

    def _save(self, job: Job) -> None:
        """Atomically rewrite one job snapshot."""
        job.job_dir.mkdir(parents=True, exist_ok=True)
        write_atomic(job.job_dir / _JOB_FILE, json.dumps(job.to_dict(), indent=2) + "\n")

    # -------------------------------------------------------------- life cycle
    def submit(self, tenant: str, spec: ExperimentSpec) -> Job:
        """Create, persist and enqueue a new job for a validated spec.

        The spec is stored *without* a store section -- the service owns
        store placement (``<job_dir>/store``), which is what makes tenant
        isolation and restart-resume unambiguous.
        """
        validate_tenant(tenant)
        job_id = uuid.uuid4().hex[:12]
        job_dir = self._tenant_jobs_dir(tenant) / job_id
        job = Job(
            id=job_id,
            tenant=tenant,
            spec=spec.to_dict(),
            job_dir=job_dir,
            created_at=time.time(),
        )
        # pre-populate the full cell matrix so pollers see the whole grid
        # (zeros) from the first GET, not cells popping up as they start
        for system in spec.systems:
            for plugin in spec.plugins:
                job.cells[cell_key(system.key, plugin.key)] = CellProgress()
        with self.lock:
            self._jobs[(tenant, job_id)] = job
            self._save(job)
        return job

    def get(self, tenant: str, job_id: str) -> Job | None:
        with self.lock:
            return self._jobs.get((tenant, job_id))

    def list(self, tenant: str) -> list[Job]:
        """One tenant's jobs, oldest first (tenants never see each other)."""
        with self.lock:
            jobs = [job for (owner, _), job in self._jobs.items() if owner == tenant]
        return sorted(jobs, key=lambda job: (job.created_at, job.id))

    def counts(self) -> dict[str, int]:
        """Jobs per state, across all tenants (the health endpoint)."""
        totals = {state: 0 for state in JOB_STATES}
        with self.lock:
            for job in self._jobs.values():
                totals[job.state] = totals.get(job.state, 0) + 1
        return totals

    def claim_next(self, jobs_per_tenant: int, max_running: int) -> Job | None:
        """Atomically claim the oldest runnable QUEUED job (-> RUNNING).

        A job is runnable when its tenant has fewer than ``jobs_per_tenant``
        jobs RUNNING and the service as a whole has fewer than
        ``max_running``.  FIFO within those caps.
        """
        with self.lock:
            running_by_tenant: dict[str, int] = {}
            total_running = 0
            for job in self._jobs.values():
                if job.state == "RUNNING":
                    running_by_tenant[job.tenant] = running_by_tenant.get(job.tenant, 0) + 1
                    total_running += 1
            if total_running >= max_running:
                return None
            queued = sorted(
                (job for job in self._jobs.values() if job.state == "QUEUED"),
                key=lambda job: (job.created_at, job.id),
            )
            for job in queued:
                if running_by_tenant.get(job.tenant, 0) < jobs_per_tenant:
                    job.state = "RUNNING"
                    job.started_at = time.time()
                    self._save(job)
                    return job
            return None

    def finish(self, job: Job, *, executed: int, skipped: int) -> None:
        with self.lock:
            job.state = "DONE"
            job.finished_at = time.time()
            job.result = {"executed": executed, "skipped": skipped}
            self._save(job)

    def fail(self, job: Job, error: str) -> None:
        with self.lock:
            job.state = "FAILED"
            job.finished_at = time.time()
            job.error = error
            self._save(job)

    def mark_cancelled(self, job: Job) -> None:
        with self.lock:
            job.state = "CANCELLED"
            job.finished_at = time.time()
            self._save(job)

    def requeue(self, job: Job) -> None:
        """Put an interrupted RUNNING job back in the queue (graceful stop)."""
        with self.lock:
            job.state = "QUEUED"
            job.started_at = None
            job.restarts += 1
            self._save(job)

    def request_cancel(self, job: Job) -> str:
        """Cancel a job: QUEUED dies immediately, RUNNING cooperatively.

        Returns the job's state after the request.  Cancelling a terminal
        job is an error (there is nothing left to stop).
        """
        with self.lock:
            if job.terminal:
                raise ServiceConflictError(
                    f"job {job.id} is already {job.state} and cannot be cancelled"
                )
            if job.state == "QUEUED":
                job.cancel_event.set()
                self.mark_cancelled(job)
            else:  # RUNNING: the scheduler's cancel_check raises CancelledRun
                job.cancel_event.set()
                self._save(job)
            return job.state

    # ---------------------------------------------------------------- progress
    def record_progress(self, job: Job, system: str, plugin: str, quarantined: bool) -> None:
        """Tick one job's live counters for a freshly released record.

        Snapshot writes are throttled (at most one per second per job):
        the record itself is already durable in the job's store, the
        snapshot only has to stay roughly current for restart listings.
        """
        key = (job.tenant, job.id)
        with self.lock:
            cell = job.cells.setdefault(cell_key(system, plugin), CellProgress())
            if quarantined:
                cell.quarantined += 1
            else:
                cell.executed += 1
            job.records += 1
            now = time.monotonic()
            if now - self._last_progress_save.get(key, 0.0) >= _PROGRESS_SAVE_INTERVAL:
                self._last_progress_save[key] = now
                self._save(job)

    def finish_cells(
        self,
        job: Job,
        executed: Mapping[str, Mapping[str, int]],
        skipped: Mapping[str, Mapping[str, int]],
    ) -> None:
        """Fold a completed suite's exact per-cell counts into the job.

        ``executed`` here replaces the live tick counts (they agree for a
        clean run; after a mid-run restart the live counts only cover this
        process's records, while the suite reports the whole resumed cell).
        """
        with self.lock:
            for system, per_plugin in executed.items():
                for plugin, count in per_plugin.items():
                    cell = job.cells.setdefault(cell_key(system, plugin), CellProgress())
                    cell.executed = count
            for system, per_plugin in skipped.items():
                for plugin, count in per_plugin.items():
                    cell = job.cells.setdefault(cell_key(system, plugin), CellProgress())
                    cell.skipped = count
            self._save(job)
