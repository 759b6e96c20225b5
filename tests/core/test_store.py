"""Unit tests for the persistent result store."""

import json
import os

import pytest

from repro.core.profile import InjectionOutcome, InjectionRecord
from repro.core.report import merged, render_store_report, store_matrix_table, store_typo_table
from repro.core.store import MANIFEST_VERSION, ResultStore, _cut_torn_tail
from repro.errors import StoreError


def record(scenario_id: str, outcome=InjectionOutcome.IGNORED) -> InjectionRecord:
    return InjectionRecord(
        scenario_id=scenario_id,
        category="typo-omission",
        description=f"record {scenario_id}",
        outcome=outcome,
        metadata={"directive": "port"},
    )


MANIFEST = {
    "kind": "suite",
    "seed": 7,
    "systems": {"mysql": "MySQL"},
    "plugins": [{"name": "spelling", "params": {}}],
    "layout": None,
}


class TestManifest:
    def test_write_then_read_round_trips(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert not store.exists()
        store.write_manifest(MANIFEST)
        assert store.exists()
        manifest = store.read_manifest()
        assert manifest["seed"] == 7
        assert manifest["version"] == MANIFEST_VERSION

    def test_read_missing_manifest_raises(self, tmp_path):
        with pytest.raises(StoreError, match="no result store"):
            ResultStore(tmp_path / "absent").read_manifest()

    def test_corrupt_manifest_raises(self, tmp_path):
        store = ResultStore(tmp_path)
        store.manifest_path.write_text("{not json", encoding="utf-8")
        with pytest.raises(StoreError, match="corrupt manifest"):
            store.read_manifest()

    def test_wrong_version_raises(self, tmp_path):
        store = ResultStore(tmp_path)
        store.manifest_path.write_text(json.dumps({"version": 999}), encoding="utf-8")
        with pytest.raises(StoreError, match="version"):
            store.read_manifest()

    def test_check_compatible_accepts_same_run(self, tmp_path):
        store = ResultStore(tmp_path)
        store.write_manifest(MANIFEST)
        store.check_compatible(MANIFEST)  # must not raise

    def test_check_compatible_rejects_different_seed(self, tmp_path):
        store = ResultStore(tmp_path)
        store.write_manifest(MANIFEST)
        with pytest.raises(StoreError, match="seed"):
            store.check_compatible({**MANIFEST, "seed": 8})

    def test_check_compatible_rejects_different_plugins(self, tmp_path):
        store = ResultStore(tmp_path)
        store.write_manifest(MANIFEST)
        changed = {**MANIFEST, "plugins": [{"name": "structural", "params": {}}]}
        with pytest.raises(StoreError, match="plugins"):
            store.check_compatible(changed)


class TestRecords:
    def test_append_then_iter_round_trips(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append("mysql", "spelling", record("typo-0-omission"))
        store.append("mysql", "structural", record("structure-1"))
        entries = list(store.iter_records("mysql"))
        assert [(campaign, rec.scenario_id) for campaign, rec in entries] == [
            ("spelling", "typo-0-omission"),
            ("structural", "structure-1"),
        ]
        assert entries[0][1].metadata == {"directive": "port"}

    def test_iter_records_of_unknown_system_is_empty(self, tmp_path):
        assert list(ResultStore(tmp_path).iter_records("nope")) == []

    def test_completed_ids(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append("pg", "spelling", record("a"))
        store.append("pg", "spelling", record("b"))
        assert store.completed_ids("pg") == {("spelling", "a"), ("spelling", "b")}

    def test_torn_trailing_line_is_ignored(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append("pg", "spelling", record("a"))
        with open(store.path_for("pg"), "a", encoding="utf-8") as handle:
            handle.write('{"campaign": "spelling", "record": {"scen')  # crash mid-write
        assert [rec.scenario_id for _, rec in store.iter_records("pg")] == ["a"]

    def test_append_after_torn_line_truncates_the_tail(self, tmp_path):
        # a resume must not weld its first record onto a torn line (which
        # would lose the record and corrupt every later load)
        store = ResultStore(tmp_path)
        store.append("pg", "spelling", record("a"))
        store.close()  # release the writer lock, as the exiting run would
        with open(store.path_for("pg"), "a", encoding="utf-8") as handle:
            handle.write('{"campaign": "spelling", "record": {"scen')
        resumed = ResultStore(tmp_path)  # fresh instance, as a real resume is
        resumed.append("pg", "spelling", record("b"))
        resumed.append("pg", "spelling", record("c"))
        assert [rec.scenario_id for _, rec in resumed.iter_records("pg")] == ["a", "b", "c"]

    def test_append_to_file_that_is_all_torn_line(self, tmp_path):
        store = ResultStore(tmp_path)
        store.root.mkdir(parents=True, exist_ok=True)
        store.path_for("pg").write_text('{"campaign": "c", "rec', encoding="utf-8")
        fresh = ResultStore(tmp_path)
        fresh.append("pg", "spelling", record("a"))
        assert [rec.scenario_id for _, rec in fresh.iter_records("pg")] == ["a"]

    def test_corrupt_interior_line_raises(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append("pg", "spelling", record("a"))
        with open(store.path_for("pg"), "a", encoding="utf-8") as handle:
            handle.write("garbage\n")
        store.append("pg", "spelling", record("b"))
        with pytest.raises(StoreError, match="corrupt record"):
            list(store.iter_records("pg"))

    def test_system_keys_are_sanitised_into_filenames(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append("my/sql server", "c", record("a"))
        assert store.path_for("my/sql server").name == "my_sql_server.jsonl"
        assert store.path_for("my/sql server").is_file()


class TestAppendHandleCache:
    def test_append_reuses_one_handle_per_system(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append("pg", "c", record("a"))
        handle = store._handles["pg"]
        store.append("pg", "c", record("b"))
        assert store._handles["pg"] is handle  # no reopen per record
        store.append("mysql", "c", record("c"))
        assert set(store._handles) == {"pg", "mysql"}

    def test_close_releases_handles_and_append_reopens(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append("pg", "c", record("a"))
        store.close()
        assert store._handles == {}
        store.append("pg", "c", record("b"))  # reopens transparently
        store.close()
        assert [r.scenario_id for _, r in store.iter_records("pg")] == ["a", "b"]

    def test_close_without_appends_is_a_no_op(self, tmp_path):
        ResultStore(tmp_path).close()

    def test_context_manager_closes_on_exit(self, tmp_path):
        with ResultStore(tmp_path) as store:
            store.append("pg", "c", record("a"))
            assert store._handles
        assert store._handles == {}
        assert [r.scenario_id for _, r in store.iter_records("pg")] == ["a"]

    def test_records_are_readable_while_the_handle_is_open(self, tmp_path):
        # the durability contract: a reader (or a resumed run) must see every
        # flushed record even though the writer still holds its handle
        store = ResultStore(tmp_path)
        store.append("pg", "c", record("a"))
        store.append("pg", "c", record("b"))
        reader = ResultStore(tmp_path)
        assert [r.scenario_id for _, r in reader.iter_records("pg")] == ["a", "b"]


class TestSystemsIndex:
    def test_sanitised_key_round_trips_without_manifest(self, tmp_path):
        # regression: path.stem does not invert filename_for sanitisation, so
        # "mysql/full" used to come back as "mysql_full" -- a key whose
        # iter_records() reads nothing
        store = ResultStore(tmp_path)
        store.append("mysql/full", "spelling", record("a"))
        fresh = ResultStore(tmp_path)
        assert fresh.systems() == ["mysql/full"]
        assert [r.scenario_id for _, r in fresh.iter_records(fresh.systems()[0])] == ["a"]

    def test_load_profiles_recovers_sanitised_keys(self, tmp_path):
        store = ResultStore(tmp_path)
        store.write_manifest({**MANIFEST, "systems": {"my sql": "My SQL"}})
        store.append("my sql", "spelling", record("a"))
        assert store.path_for("my sql").name == "my_sql.jsonl"
        profiles = ResultStore(tmp_path).load_profiles()
        assert set(profiles) == {"My SQL"}
        assert len(profiles["My SQL"]["spelling"]) == 1

    def test_index_files_are_not_listed_as_systems(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append("pg", "c", record("a"))
        assert (tmp_path / "systems.json").is_file()
        assert ResultStore(tmp_path).systems() == ["pg"]

    def test_legacy_store_without_index_falls_back_to_stems(self, tmp_path):
        # stores written before systems.json existed must still load
        store = ResultStore(tmp_path)
        store.append("alpha", "c", record("a"))
        (tmp_path / "systems.json").unlink()
        assert ResultStore(tmp_path).systems() == ["alpha"]

    def test_corrupt_index_degrades_to_stems(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append("alpha", "c", record("a"))
        store.close()
        (tmp_path / "systems.json").write_text("{torn", encoding="utf-8")
        assert ResultStore(tmp_path).systems() == ["alpha"]
        # and the next append heals the index
        healer = ResultStore(tmp_path)
        healer.append("alpha", "c", record("b"))
        assert json.loads((tmp_path / "systems.json").read_text()) == {"alpha": "alpha.jsonl"}

    def test_manifest_order_still_wins(self, tmp_path):
        store = ResultStore(tmp_path)
        store.write_manifest({**MANIFEST, "systems": {"b": "B", "a": "A"}})
        store.append("b", "c", record("x"))
        assert store.systems() == ["b", "a"]


class TestIterRecordsStreaming:
    def test_iter_records_is_lazy(self, tmp_path):
        store = ResultStore(tmp_path)
        for i in range(5):
            store.append("pg", "c", record(f"s{i}"))
        iterator = store.iter_records("pg")
        first = next(iterator)
        assert first[1].scenario_id == "s0"
        iterator.close()  # closing mid-iteration must not raise

    def test_corrupt_line_followed_by_blank_line_still_raises(self, tmp_path):
        # a blank line after garbage proves the garbage is interior, exactly
        # like the pre-streaming implementation did
        store = ResultStore(tmp_path)
        store.append("pg", "c", record("a"))
        with open(store.path_for("pg"), "a", encoding="utf-8") as handle:
            handle.write("garbage\n\n")
        with pytest.raises(StoreError, match="corrupt record"):
            list(store.iter_records("pg"))

    def test_corrupt_final_line_with_newline_is_tolerated(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append("pg", "c", record("a"))
        with open(store.path_for("pg"), "a", encoding="utf-8") as handle:
            handle.write("garbage\n")  # torn write that still got its newline
        assert [r.scenario_id for _, r in store.iter_records("pg")] == ["a"]


class TestLoading:
    def test_load_profiles_groups_by_campaign(self, tmp_path):
        store = ResultStore(tmp_path)
        store.write_manifest(MANIFEST)
        store.append("mysql", "structural", record("c"))
        store.append("mysql", "spelling", record("a"))
        store.append("mysql", "spelling", record("b", InjectionOutcome.DETECTED_AT_STARTUP))
        profiles = store.load_profiles()
        assert set(profiles) == {"MySQL"}
        # the manifest's campaign first, then the unlisted one as it appears
        assert list(profiles["MySQL"]) == ["spelling", "structural"]
        assert [r.scenario_id for r in profiles["MySQL"]["spelling"]] == ["a", "b"]
        assert len(profiles["MySQL"]["structural"]) == 1
        assert profiles["MySQL"]["spelling"].system_name == "MySQL"

    def test_load_profiles_keep_manifest_order_and_empty_cells(self, tmp_path):
        store = ResultStore(tmp_path)
        store.write_manifest(
            {
                **MANIFEST,
                "systems": {"pg": "Postgres", "mysql": "MySQL"},
                "plugins": [{"name": "structural"}, {"name": "spelling"}],
            }
        )
        store.append("mysql", "spelling", record("a"))
        profiles = store.load_profiles()
        assert list(profiles) == ["Postgres", "MySQL"]
        assert {system: list(cells) for system, cells in profiles.items()} == {
            "Postgres": ["structural", "spelling"],
            "MySQL": ["structural", "spelling"],
        }
        assert [len(profiles["MySQL"][name]) for name in ("structural", "spelling")] == [0, 1]
        assert all(len(profile) == 0 for profile in profiles["Postgres"].values())
        assert profiles["Postgres"]["spelling"].system_name == "Postgres"

    def test_load_profiles_merge_keys_sharing_a_display_name(self, tmp_path):
        store = ResultStore(tmp_path)
        store.write_manifest({**MANIFEST, "systems": {"mysql": "MySQL", "mysql-old": "MySQL"}})
        store.append("mysql", "spelling", record("a"))
        store.append("mysql-old", "spelling", record("b"))
        store.append("mysql-old", "structural", record("c"))
        profiles = store.load_profiles()
        assert list(profiles) == ["MySQL"]
        assert [r.scenario_id for r in profiles["MySQL"]["spelling"]] == ["a", "b"]
        assert len(merged(profiles)["MySQL"]) == 3

    def test_load_profiles_need_a_manifest(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append("mysql", "spelling", record("a"))
        with pytest.raises(StoreError) as excinfo:
            ResultStore(tmp_path).load_profiles()
        assert excinfo.value.code == "store/missing"

    def test_systems_follow_manifest_order(self, tmp_path):
        store = ResultStore(tmp_path)
        store.write_manifest({**MANIFEST, "systems": {"b": "B", "a": "A"}})
        assert store.systems() == ["b", "a"]

    def test_systems_without_manifest_fall_back_to_files(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append("zeta", "c", record("a"))
        store.append("alpha", "c", record("b"))
        assert store.systems() == ["alpha", "zeta"]


def render(store: ResultStore) -> str:
    """Table 1, the matrix and the report, as a ``--from-store`` user sees them."""
    return "\n".join([store_typo_table(store), store_matrix_table(store), render_store_report(store)])


class TestRerender:
    """One instance renders many times; every render shows the file as it is now."""

    MANIFEST = {
        **MANIFEST,
        "systems": {"mysql": "MySQL", "pg": "Postgres"},
        "plugins": [{"name": "spelling", "params": {}}, {"name": "structural", "params": {}}],
    }

    @pytest.fixture
    def store(self, tmp_path):
        store = ResultStore(tmp_path)
        store.write_manifest(self.MANIFEST)
        store.append("mysql", "spelling", record("a"))
        store.append("mysql", "spelling", record("b", InjectionOutcome.DETECTED_AT_STARTUP))
        store.append("mysql", "structural", record("c"))
        store.append("pg", "spelling", record("d", InjectionOutcome.DETECTED_BY_TESTS))
        store.close()
        return store

    def rerender(self, store: ResultStore) -> str:
        """Render again on the same instance; it must equal a fresh reader's."""
        after = render(store)
        assert after == render(ResultStore(store.root))
        return after

    def test_append_is_seen(self, store):
        before = render(store)
        store.append("mysql", "spelling", record("e", InjectionOutcome.DETECTED_BY_TESTS))
        assert self.rerender(store) != before

    def test_repair_of_a_corrupt_interior_line_is_seen(self, store):
        before = render(store)
        path = store.path_for("mysql")
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[0] + b"garbage\n" + b"".join(lines[1:]))
        with pytest.raises(StoreError, match="corrupt record"):
            render(store)
        store.repair()
        assert self.rerender(store) == before

    def test_torn_tail_and_its_cut_are_seen(self, store):
        before = render(store)
        path = store.path_for("mysql")
        line = json.dumps({"campaign": "spelling", "record": record("t").to_dict()})
        with open(path, "ab") as handle:
            handle.write(line.encode("utf-8"))  # a whole record, but no newline: torn
        assert self.rerender(store) == before
        _cut_torn_tail(path, quarantine=False)
        assert self.rerender(store) == before
        with open(path, "ab") as handle:
            handle.write(line.encode("utf-8") + b"\n")
        assert self.rerender(store) != before

    def test_deleted_file_is_seen(self, store):
        before = render(store)
        store.path_for("pg").unlink()
        after = self.rerender(store)
        assert after != before
        assert {name: len(cell) for name, cell in store.load_profiles()["Postgres"].items()} == {
            "spelling": 0,
            "structural": 0,
        }

    def test_same_size_rewrite_with_the_old_mtime_is_seen(self, store):
        # a same-size rewrite that keeps the old mtime is still seen
        before = render(store)
        path = store.path_for("mysql")
        stat = path.stat()
        data = path.read_bytes()
        flipped = data.replace(b'"ignored"', b'"timeout"', 1)
        assert len(flipped) == len(data) and flipped != data
        with open(path, "r+b") as handle:
            handle.write(flipped)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_mtime_ns == stat.st_mtime_ns
        assert path.stat().st_size == stat.st_size
        after = self.rerender(store)
        assert after != before
        assert "timeouts:               1" in after

    def test_each_render_decodes_each_line_once(self, store, monkeypatch):
        decoded = []
        original = InjectionRecord.from_dict.__func__

        def counting(cls, data):
            decoded.append(data["scenario_id"])
            return original(cls, data)

        monkeypatch.setattr(InjectionRecord, "from_dict", classmethod(counting))
        for renderer in (store_typo_table, store_matrix_table, render_store_report):
            decoded.clear()
            renderer(store)
            assert sorted(decoded) == ["a", "b", "c", "d"], renderer.__name__

    def test_mutating_a_returned_profile_does_not_leak(self, store):
        first = store.load_profiles()
        first["MySQL"]["spelling"].add(record("x"))
        merged(store.load_profiles())["MySQL"].add(record("y"))
        again = store.load_profiles()
        assert [rec.scenario_id for rec in again["MySQL"]["spelling"]] == ["a", "b"]
        assert len(merged(store.load_profiles())["MySQL"]) == 3
        assert again["MySQL"]["spelling"] is not first["MySQL"]["spelling"]
