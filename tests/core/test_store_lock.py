"""The advisory writer lock: one writer per store directory, fail fast.

The lock is a ``store.lock`` file created with ``O_CREAT | O_EXCL``
naming its holder (pid + host).  A second concurrent writer must fail
fast with a message pointing at the lock file; readers are never blocked;
a lock left behind by a dead process (SIGKILL) is broken automatically by
the next writer, so crash-resume keeps working without manual cleanup.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.profile import InjectionOutcome, InjectionRecord
from repro.core.store import LOCK_NAME, ResultStore
from repro.errors import StoreError

SRC = Path(__file__).resolve().parents[2] / "src"


def record(scenario_id: str) -> InjectionRecord:
    return InjectionRecord(
        scenario_id=scenario_id,
        category="typo-omission",
        description=f"record {scenario_id}",
        outcome=InjectionOutcome.IGNORED,
        metadata={},
    )


class TestWriterLock:
    def test_first_append_takes_the_lock(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append("pg", "spelling", record("a"))
        holder = json.loads((tmp_path / LOCK_NAME).read_text())
        assert holder["pid"] == os.getpid()

    def test_second_writer_fails_fast_and_names_the_lock_file(self, tmp_path):
        first = ResultStore(tmp_path)
        first.append("pg", "spelling", record("a"))
        second = ResultStore(tmp_path)
        with pytest.raises(StoreError, match="locked by another writer"):
            second.append("pg", "spelling", record("b"))
        with pytest.raises(StoreError, match=LOCK_NAME.replace(".", r"\.")):
            second.append("pg", "spelling", record("b"))

    def test_write_manifest_also_takes_the_lock(self, tmp_path):
        first = ResultStore(tmp_path)
        first.write_manifest({"kind": "suite", "seed": 1})
        with pytest.raises(StoreError, match="locked by another writer"):
            ResultStore(tmp_path).write_manifest({"kind": "suite", "seed": 1})

    def test_close_releases_the_lock_for_the_next_writer(self, tmp_path):
        first = ResultStore(tmp_path)
        first.append("pg", "spelling", record("a"))
        first.close()
        assert not (tmp_path / LOCK_NAME).exists()
        second = ResultStore(tmp_path)
        second.append("pg", "spelling", record("b"))  # must not raise
        assert [r.scenario_id for _, r in second.iter_records("pg")] == ["a", "b"]

    def test_close_is_idempotent(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append("pg", "spelling", record("a"))
        store.close()
        store.close()
        store.close()  # any number of times, including on a released lock

    def test_close_without_writes_is_a_no_op(self, tmp_path):
        store = ResultStore(tmp_path)
        store.close()  # never acquired anything; nothing to release

    def test_readers_ignore_the_lock(self, tmp_path):
        writer = ResultStore(tmp_path)
        writer.append("pg", "spelling", record("a"))
        # a concurrent reader instance works while the writer holds the lock
        reader = ResultStore(tmp_path)
        assert [r.scenario_id for _, r in reader.iter_records("pg")] == ["a"]
        assert reader.systems() == ["pg"]

    def test_stale_lock_of_a_dead_process_is_broken(self, tmp_path):
        # a subprocess takes the lock and exits without releasing -- the
        # SIGKILL shape; its pid is then genuinely dead, not recycled-alive
        script = (
            "import sys; sys.path.insert(0, sys.argv[2])\n"
            "from repro.core.store import ResultStore\n"
            "from tests.core.test_store_lock import record\n"
            "store = ResultStore(sys.argv[1])\n"
            "store.append('pg', 'spelling', record('a'))\n"
            "# exit WITHOUT close(): the lock file stays behind\n"
        )
        env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{SRC.parent}")
        subprocess.run(
            [sys.executable, "-c", script, str(tmp_path), str(SRC)],
            check=True,
            env=env,
        )
        assert (tmp_path / LOCK_NAME).exists()
        resumed = ResultStore(tmp_path)
        resumed.append("pg", "spelling", record("b"))  # breaks the stale lock
        assert [r.scenario_id for _, r in resumed.iter_records("pg")] == ["a", "b"]
        assert json.loads((tmp_path / LOCK_NAME).read_text())["pid"] == os.getpid()

    def test_malformed_lock_file_is_treated_as_stale(self, tmp_path):
        (tmp_path).mkdir(exist_ok=True)
        (tmp_path / LOCK_NAME).write_text("{torn", encoding="utf-8")
        store = ResultStore(tmp_path)
        store.append("pg", "spelling", record("a"))  # must not raise

    def test_repair_respects_a_live_writer(self, tmp_path):
        writer = ResultStore(tmp_path)
        # repair refuses a store holding records without a systems mapping
        writer.write_manifest({"kind": "suite", "seed": 1, "systems": {"pg": "PG"}})
        writer.append("pg", "spelling", record("a"))
        with pytest.raises(StoreError, match="locked by another writer"):
            ResultStore(tmp_path).repair()
        writer.close()
        ResultStore(tmp_path).repair()  # free again after release
