"""Unit tests for the job model and the persistent registry."""

import json

import pytest

from repro.core.spec import ExperimentSpec
from repro.errors import ServiceConflictError, ServiceError
from repro.service.jobs import (
    DEFAULT_TENANT,
    TERMINAL_STATES,
    JobRegistry,
    validate_tenant,
)

SPEC = ExperimentSpec.from_dict(
    {
        "systems": [{"name": "postgres"}],
        "plugins": [{"name": "semantic-constraints", "params": {"system": "postgres"}}],
        "execution": {"seed": 2008, "jobs": 1},
    }
)


class TestTenantValidation:
    def test_accepts_simple_names(self):
        for name in ("default", "alice", "team-a", "a.b_c-9"):
            assert validate_tenant(name) == name

    @pytest.mark.parametrize(
        "bad", ["", "a/b", "a b", "x" * 65, "../etc", "a\n", ".", ".."]
    )
    def test_rejects_path_hostile_names(self, bad):
        # the tenant becomes a directory component: anything that could
        # escape the tenants/ tree must be refused at the door
        with pytest.raises(ServiceError, match="tenant"):
            validate_tenant(bad)


class TestSubmitAndLayout:
    def test_submit_persists_spec_and_state(self, tmp_path):
        registry = JobRegistry(tmp_path)
        job = registry.submit("alice", SPEC)
        assert job.state == "QUEUED"
        assert job.tenant == "alice"
        on_disk = json.loads(
            (tmp_path / "tenants" / "alice" / "jobs" / job.id / "job.json").read_text()
        )
        assert on_disk["state"] == "QUEUED"
        assert on_disk["spec"]["systems"][0]["name"] == "postgres"

    def test_store_dir_is_inside_the_job_dir(self, tmp_path):
        registry = JobRegistry(tmp_path)
        job = registry.submit(DEFAULT_TENANT, SPEC)
        assert job.store_dir == job.job_dir / "store"
        assert str(job.store_dir).startswith(str(tmp_path / "tenants" / DEFAULT_TENANT))

    def test_cells_prepopulated_from_the_spec(self, tmp_path):
        job = JobRegistry(tmp_path).submit(DEFAULT_TENANT, SPEC)
        assert list(job.cells) == ["postgres/semantic-constraints"]
        cell = job.cells["postgres/semantic-constraints"]
        assert (cell.executed, cell.quarantined, cell.skipped) == (0, 0, None)

    def test_listing_is_tenant_scoped(self, tmp_path):
        registry = JobRegistry(tmp_path)
        a = registry.submit("alice", SPEC)
        registry.submit("bob", SPEC)
        assert [job.id for job in registry.list("alice")] == [a.id]
        assert registry.get("alice", a.id) is not None
        assert registry.get("bob", a.id) is None  # someone else's job: invisible


class TestClaiming:
    def test_fifo_within_a_tenant(self, tmp_path):
        registry = JobRegistry(tmp_path)
        first = registry.submit(DEFAULT_TENANT, SPEC)
        registry.submit(DEFAULT_TENANT, SPEC)
        claimed = registry.claim_next(jobs_per_tenant=1, max_running=10)
        assert claimed is not None and claimed.id == first.id
        assert claimed.state == "RUNNING"

    def test_per_tenant_cap_holds(self, tmp_path):
        registry = JobRegistry(tmp_path)
        registry.submit("alice", SPEC)
        registry.submit("alice", SPEC)
        bob = registry.submit("bob", SPEC)
        assert registry.claim_next(1, 10).tenant == "alice"
        # alice is at her cap; the next claim must skip her queued job
        assert registry.claim_next(1, 10).id == bob.id
        assert registry.claim_next(1, 10) is None

    def test_global_cap_holds(self, tmp_path):
        registry = JobRegistry(tmp_path)
        registry.submit("alice", SPEC)
        registry.submit("bob", SPEC)
        assert registry.claim_next(1, 1) is not None
        assert registry.claim_next(1, 1) is None  # one RUNNING fills the service


class TestLifecycle:
    def test_finish_is_terminal_and_persisted(self, tmp_path):
        registry = JobRegistry(tmp_path)
        job = registry.submit(DEFAULT_TENANT, SPEC)
        registry.claim_next(1, 1)
        registry.finish(job, executed=5, skipped=0)
        assert job.state == "DONE" and job.terminal
        reloaded = JobRegistry(tmp_path).get(DEFAULT_TENANT, job.id)
        assert reloaded.state == "DONE"
        assert reloaded.result == {"executed": 5, "skipped": 0}

    def test_fail_records_the_error(self, tmp_path):
        registry = JobRegistry(tmp_path)
        job = registry.submit(DEFAULT_TENANT, SPEC)
        registry.claim_next(1, 1)
        registry.fail(job, "RuntimeError: boom")
        assert job.state == "FAILED"
        assert JobRegistry(tmp_path).get(DEFAULT_TENANT, job.id).error == "RuntimeError: boom"

    def test_cancel_queued_job_is_immediate(self, tmp_path):
        registry = JobRegistry(tmp_path)
        job = registry.submit(DEFAULT_TENANT, SPEC)
        registry.request_cancel(job)
        assert job.state == "CANCELLED"

    def test_cancel_running_job_sets_the_event(self, tmp_path):
        registry = JobRegistry(tmp_path)
        job = registry.submit(DEFAULT_TENANT, SPEC)
        registry.claim_next(1, 1)
        registry.request_cancel(job)
        assert job.state == "RUNNING"  # the worker notices between records
        assert job.cancel_event.is_set()

    def test_cancel_terminal_job_is_refused(self, tmp_path):
        registry = JobRegistry(tmp_path)
        job = registry.submit(DEFAULT_TENANT, SPEC)
        registry.claim_next(1, 1)
        registry.finish(job, executed=1, skipped=0)
        with pytest.raises(ServiceConflictError, match="cannot be cancelled"):
            registry.request_cancel(job)

    def test_terminal_states_enumeration(self):
        assert TERMINAL_STATES == frozenset({"DONE", "FAILED", "CANCELLED"})


class TestRestartRecovery:
    def test_running_jobs_requeue_on_load_with_restart_count(self, tmp_path):
        registry = JobRegistry(tmp_path)
        job = registry.submit(DEFAULT_TENANT, SPEC)
        registry.claim_next(1, 1)
        assert job.state == "RUNNING"
        # a new registry over the same dir is the service process restarting
        # after a crash: RUNNING had no surviving worker, so it requeues
        recovered = JobRegistry(tmp_path).get(DEFAULT_TENANT, job.id)
        assert recovered.state == "QUEUED"
        assert recovered.restarts == 1

    def test_terminal_jobs_stay_terminal_on_load(self, tmp_path):
        registry = JobRegistry(tmp_path)
        job = registry.submit(DEFAULT_TENANT, SPEC)
        registry.claim_next(1, 1)
        registry.finish(job, executed=1, skipped=0)
        assert JobRegistry(tmp_path).get(DEFAULT_TENANT, job.id).state == "DONE"

    def test_counts_survive_reload(self, tmp_path):
        registry = JobRegistry(tmp_path)
        registry.submit("alice", SPEC)
        registry.submit("bob", SPEC)
        counts = JobRegistry(tmp_path).counts()
        assert counts["QUEUED"] == 2

    @pytest.mark.parametrize(
        "damage",
        [
            lambda snapshot: b"[]",
            lambda snapshot: b"\xff" + snapshot,
            lambda snapshot: snapshot.replace(b'"progress": {', b'"progress": 5, "x": {'),
            lambda snapshot: snapshot.replace(b'"cells": {', b'"cells": [1], "x": {'),
        ],
        ids=["array", "non-utf8", "progress-number", "cells-array"],
    )
    def test_damaged_snapshot_is_skipped_and_the_rest_load(self, tmp_path, damage):
        registry = JobRegistry(tmp_path)
        kept = registry.submit(DEFAULT_TENANT, SPEC)
        broken = registry.submit(DEFAULT_TENANT, SPEC)
        path = broken.job_dir / "job.json"
        damaged = damage(path.read_bytes())
        assert damaged != path.read_bytes()
        path.write_bytes(damaged)
        reloaded = JobRegistry(tmp_path)  # the service starting on this data dir
        assert [job.id for job in reloaded.list(DEFAULT_TENANT)] == [kept.id]
