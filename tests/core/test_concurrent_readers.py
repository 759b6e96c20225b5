"""The store's concurrent-reader contract, exercised against live writers.

The contract (documented on :class:`~repro.core.store.ResultStore`): one
writer per store directory -- enforced by the advisory lock -- plus any
number of readers at any time.  Appends are single buffered writes
flushed per record, so a reader loading the store mid-append sees only
complete records plus at most one torn trailing line, which every read
path already tolerates.  These tests hammer the store with fresh reader
instances while a suite streams records into it under the thread and the
process executor, and assert every snapshot is a clean prefix.
"""

import threading

import pytest

from repro.core.store import ResultStore
from repro.core.suite import CampaignSuite
from repro.plugins import ConstraintViolationPlugin, SpellingMistakesPlugin
from repro.sut.mysql import SimulatedMySQL
from repro.sut.postgres import SimulatedPostgres


def small_suite(**kwargs) -> CampaignSuite:
    defaults = dict(seed=11)
    defaults.update(kwargs)
    return CampaignSuite(
        {"mysql": SimulatedMySQL, "postgres": SimulatedPostgres},
        [
            SpellingMistakesPlugin(mutations_per_token=1),
            ConstraintViolationPlugin(),
        ],
        **defaults,
    )


def snapshot(root) -> list[tuple[str, str, str]]:
    """Load the store through a fresh reader instance, as a real client would."""
    reader = ResultStore(root)
    rows = []
    for system in reader.systems():
        for campaign, record in reader.iter_records(system):
            rows.append((system, campaign, record.scenario_id))
    return rows


class TestConcurrentReaders:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_reader_mid_run_sees_only_complete_records(self, tmp_path, executor):
        """Snapshots taken while the suite streams are always clean prefixes."""
        store_root = tmp_path / "store"
        snapshots: list[list[tuple[str, str, str]]] = []
        errors: list[BaseException] = []
        done = threading.Event()

        def read_forever() -> None:
            while not done.is_set():
                try:
                    snapshots.append(snapshot(store_root))
                except BaseException as exc:  # noqa: BLE001 - report, don't die silently
                    errors.append(exc)
                    return

        readers = [threading.Thread(target=read_forever) for _ in range(3)]
        for thread in readers:
            thread.start()
        try:
            result = small_suite(jobs=4, executor=executor).run(
                store=ResultStore(store_root)
            )
        finally:
            done.set()
            for thread in readers:
                thread.join(timeout=30)

        assert not errors, f"reader crashed mid-run: {errors[0]!r}"
        final = snapshot(store_root)
        assert len(final) == result.total_executed()
        # every mid-run snapshot is a subset of the final record set: only
        # complete records, never a half-written one parsed into existence
        final_set = set(final)
        assert len(final_set) == len(final)
        for rows in snapshots:
            assert set(rows) <= final_set
            # and within one system the snapshot is a prefix in append order
            per_system: dict[str, list[tuple[str, str, str]]] = {}
            for row in rows:
                per_system.setdefault(row[0], []).append(row)
            for system, seen in per_system.items():
                reference = [row for row in final if row[0] == system]
                assert seen == reference[: len(seen)]
        assert snapshots, "the reader threads never got a snapshot in"

    def test_reader_tolerates_a_torn_tail_while_writer_holds_the_lock(self, tmp_path):
        writer = ResultStore(tmp_path)
        result = small_suite().run(store=writer)
        # simulate the writer dying mid-append: a torn trailing line, with
        # the advisory lock still in place
        with open(writer.path_for("mysql"), "a", encoding="utf-8") as handle:
            handle.write('{"campaign": "spelling", "record": {"scen')
        rows = snapshot(tmp_path)
        assert len(rows) == result.total_executed()  # torn tail skipped

    def test_merged_profiles_are_readable_mid_lock(self, tmp_path):
        writer = ResultStore(tmp_path)
        small_suite().run(store=writer)
        # writer still holds the lock; a reader can do full profile merges
        profiles = ResultStore(tmp_path).merged_profiles()
        assert set(profiles) == {"MySQL", "Postgres"}
        assert all(len(profile) > 0 for profile in profiles.values())

    def test_manifest_rewrites_never_show_a_reader_a_partial_file(self, tmp_path):
        """``write_manifest`` replaces the file atomically: a reader racing the
        rewrite loads the old manifest or the new one, never an empty or
        half-written document."""
        root = tmp_path / "store"
        writer = ResultStore(root)
        manifest = {"seed": 11, "systems": {f"system-{i}": f"System {i}" for i in range(40)}}
        writer.write_manifest(manifest)
        errors: list[BaseException] = []
        reads = []
        done = threading.Event()

        def read_forever() -> None:
            while not done.is_set():
                try:
                    reads.append(ResultStore(root).systems())
                except BaseException as exc:  # noqa: BLE001 - asserted below
                    errors.append(exc)
                    return

        reader = threading.Thread(target=read_forever)
        reader.start()
        try:
            for _ in range(300):
                writer.write_manifest(manifest)
        finally:
            done.set()
            reader.join(timeout=30)
            writer.close()
        assert not errors, f"reader saw a partial manifest: {errors[0]!r}"
        assert reads and all(systems == list(manifest["systems"]) for systems in reads)
