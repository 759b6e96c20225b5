"""A kill between the write and the rename of every ``write_atomic`` file.

``write_atomic`` writes ``<name>.tmp``, fsyncs it and renames it over the
real file.  A process killed between those two steps leaves the temporary
file behind and the real one untouched.  Each test here makes ``os.replace``
raise at that point for one durable file -- the store manifest, the
``systems.json`` index, the ``quarantine.jsonl`` rewrite of
``clear_quarantine`` and a service job snapshot -- abandons the run as a
dead process would, and then checks:

* the previous file is intact (byte-identical) or absent, never truncated;
* ``store verify`` is clean;
* resuming runs each missing scenario exactly once, and the finished store
  holds the records of a run that never crashed.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.core.spec import ExperimentSpec
from repro.core.store import QUARANTINE_NAME, ResultStore, diff_stores
from repro.core.suite import CampaignSuite
from repro.errors import CancelledRun
from repro.plugins import SpellingMistakesPlugin
from repro.registry import get_system
from repro.service.app import CampaignService
from repro.service.jobs import TERMINAL_STATES, JobRegistry

SEED = 2008
SYSTEMS = ("postgres", "djbdns")


class _CrashBeforeRename:
    """``os.replace`` stand-in that fails once for one destination name.

    The ``skip + 1``-th rename onto a file called ``name`` raises instead of
    renaming; ``previous`` then holds that file's bytes at the moment of
    the crash (None when it did not exist yet).
    """

    def __init__(self, monkeypatch, name: str, skip: int = 0):
        self.name = name
        self.skip = skip
        self.target: Path | None = None
        self.previous: bytes | None = None
        self._replace = os.replace
        monkeypatch.setattr(os, "replace", self)

    def __call__(self, src, dst, *args, **kwargs):
        if self.target is None and Path(dst).name == self.name:
            if self.skip:
                self.skip -= 1
            else:
                self.target = Path(dst)
                self.previous = self.target.read_bytes() if self.target.exists() else None
                raise OSError(f"killed before renaming onto {self.name}")
        return self._replace(src, dst, *args, **kwargs)

    def assert_previous_file_kept(self) -> None:
        assert self.target is not None, f"no write_atomic call reached {self.name}"
        if self.previous is None:
            assert not self.target.exists()
        else:
            assert self.target.read_bytes() == self.previous
        assert self.target.with_name(self.name + ".tmp").exists()


def _suite(**kwargs) -> CampaignSuite:
    return CampaignSuite(
        {system: get_system(system) for system in SYSTEMS},
        [SpellingMistakesPlugin(mutations_per_token=1)],
        seed=SEED,
        **kwargs,
    )


def _records(store: ResultStore) -> list[tuple[str, str, str]]:
    return [
        (system, campaign, record.scenario_id)
        for system in store.systems()
        for campaign, record in store.iter_records(system)
    ]


@pytest.fixture(scope="module")
def reference(tmp_path_factory) -> ResultStore:
    """The store of the same suite run once, without a crash."""
    store = ResultStore(tmp_path_factory.mktemp("reference") / "store")
    _suite().run(store=store)
    store.close()
    return ResultStore(store.root)


def _crashed_run(root: Path, **kwargs) -> None:
    """Run the suite into ``root`` until the armed crash stops it."""
    store = ResultStore(root)
    try:
        with pytest.raises(OSError, match="killed before renaming"):
            _suite(**kwargs).run(store=store, resume=store.exists())
    finally:
        store.close()  # the dead process's lock and handles go with it


def _resume_exactly_once(root: Path, reference: ResultStore, **kwargs) -> list:
    """Resume the store; returns the (system, plugin, scenario) keys run."""
    before = set(_records(ResultStore(root))) if ResultStore(root).exists() else set()
    ran: list[tuple[str, str, str]] = []
    store = ResultStore(root)
    _suite(
        record_observer=lambda system, plugin, record: ran.append(
            (system, plugin, record.scenario_id)
        ),
        **kwargs,
    ).run(store=store, resume=True)
    store.close()
    assert len(ran) == len(set(ran)), "a scenario ran twice"
    assert not before & set(ran), "a stored scenario ran again"
    finished = ResultStore(root)
    assert len(_records(finished)) == len(set(_records(finished)))
    assert finished.verify().clean, finished.verify().summary()
    assert diff_stores(reference, finished) == []
    return ran


class TestStoreFiles:
    def test_manifest(self, tmp_path, monkeypatch, reference):
        crash = _CrashBeforeRename(monkeypatch, "manifest.json")
        _crashed_run(tmp_path / "store")
        crash.assert_previous_file_kept()
        monkeypatch.undo()
        ran = _resume_exactly_once(tmp_path / "store", reference)
        assert len(ran) == len(_records(reference))

    def test_systems_index(self, tmp_path, monkeypatch, reference):
        # the first system registers the index; the second one's rewrite dies
        crash = _CrashBeforeRename(monkeypatch, "systems.json", skip=1)
        _crashed_run(tmp_path / "store")
        crash.assert_previous_file_kept()
        monkeypatch.undo()
        crashed = ResultStore(tmp_path / "store")
        assert crashed.verify().clean, crashed.verify().summary()
        assert json.loads(crash.previous) == {SYSTEMS[0]: f"{SYSTEMS[0]}.jsonl"}
        ran = _resume_exactly_once(tmp_path / "store", reference)
        assert {system for system, _, _ in ran} == {SYSTEMS[1]}

    def test_quarantine_rewrite(self, tmp_path, monkeypatch, reference):
        # a store whose first three scenarios per system were quarantined
        store = ResultStore(tmp_path / "store")
        store.write_manifest(_suite().manifest())
        quarantined = set()
        for system in SYSTEMS:
            for index, (campaign, record) in enumerate(reference.iter_records(system)):
                if index < 3:
                    record.metadata["quarantined"] = True
                    quarantined.add((system, campaign, record.scenario_id))
                store.append(system, campaign, record)
        store.close()

        # clearing the first system's entries rewrites the other system's
        crash = _CrashBeforeRename(monkeypatch, QUARANTINE_NAME)
        _crashed_run(tmp_path / "store", retry_quarantined=True)
        crash.assert_previous_file_kept()
        monkeypatch.undo()
        crashed = ResultStore(tmp_path / "store")
        assert crashed.verify().clean, crashed.verify().summary()
        assert len(list(crashed.iter_quarantined())) == len(quarantined)

        ran = _resume_exactly_once(tmp_path / "store", reference, retry_quarantined=True)
        assert set(ran) == quarantined
        assert not list(ResultStore(tmp_path / "store").iter_quarantined())


class TestServiceJobSnapshot:
    SPEC = {
        "systems": [{"name": "postgres"}],
        "plugins": [{"name": "spelling", "params": {"mutations_per_token": 1}}],
        "execution": {"seed": SEED},
    }

    def test_progress_snapshot(self, tmp_path, monkeypatch):
        data = tmp_path / "data"
        registry = JobRegistry(data)
        spec = ExperimentSpec.from_dict(self.SPEC)
        job = registry.submit("alice", spec)
        assert registry.claim_next(1, 1) is job  # RUNNING on disk
        # the dead service's run got this far before the snapshot rewrite
        partial = []

        def stop_after_five() -> bool:
            return len(partial) >= 5

        store = ResultStore(job.store_dir)
        with pytest.raises(CancelledRun):
            CampaignSuite.from_spec(
                spec,
                record_observer=lambda *released: partial.append(released),
                cancel_check=stop_after_five,
            ).run(store=store)
        store.close()

        crash = _CrashBeforeRename(monkeypatch, "job.json")
        with pytest.raises(OSError, match="killed before renaming"):
            registry.record_progress(job, "postgres", "spelling", quarantined=False)
        crash.assert_previous_file_kept()
        assert json.loads(crash.previous)["state"] == "RUNNING"
        monkeypatch.undo()
        assert ResultStore(job.store_dir).verify().clean

        with CampaignService(data, poll_interval=0.01) as restarted:
            resumed = restarted.registry.get("alice", job.id)
            assert resumed.restarts == 1
            _wait_for(lambda: resumed.state in TERMINAL_STATES)
            assert resumed.state == "DONE", resumed.error
            assert resumed.result["skipped"] == len(partial)

        stored = _records(ResultStore(job.store_dir))
        assert len(stored) == len(set(stored))
        assert len(stored) == resumed.result["executed"] + resumed.result["skipped"]
        assert ResultStore(job.store_dir).verify().clean


def _wait_for(predicate, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.01)
