"""Damaged durable files get a coded ``StoreError``, never another exception.

Hypothesis flips, inserts and appends bytes in each durable file of a small
store -- its record file, ``quarantine.jsonl``, ``manifest.json``,
``systems.json`` and a stale ``store.lock``.  Every store entry point then
either succeeds or raises a :class:`~repro.errors.StoreError` whose code is
one of :data:`~repro.errors.STORE_ERROR_CODES`: ``verify``, ``repair``,
every ``--from-store`` render, ``store diff`` and a ``--resume`` run.  A
repair that succeeds leaves a store that verifies clean.
"""

from __future__ import annotations

import json
import pickle
import shutil
import socket
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import ARTIFACTS
from repro.core.profile import InjectionOutcome, InjectionRecord
from repro.core.report import render_store_report
from repro.core.spec import ExperimentSpec
from repro.core.store import LOCK_NAME, QUARANTINE_NAME, ResultStore, diff_stores
from repro.core.suite import CampaignSuite
from repro.errors import STORE_ERROR_CODES, StoreError

SPEC = ExperimentSpec.from_file(
    Path(__file__).resolve().parents[2] / "examples" / "specs" / "smoke.json"
)
DURABLE_FILES = ("postgres.jsonl", QUARANTINE_NAME, "manifest.json", "systems.json", LOCK_NAME)
#: Above the largest pid Linux hands out (2**22), so no process holds it.
DEAD_PID = 2**22 + 1


@pytest.fixture(scope="module")
def pristine(tmp_path_factory) -> Path:
    """The smoke spec's store, its last record quarantined, left locked by a dead writer."""
    root = tmp_path_factory.mktemp("pristine")
    with ResultStore(root) as store:
        CampaignSuite.from_spec(SPEC).run(store=store)
    path = root / "postgres.jsonl"
    *kept, last = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(kept))
    entry = json.loads(last)
    record = InjectionRecord.from_dict(entry["record"])
    record.outcome = InjectionOutcome.HARNESS_ERROR
    record.metadata["quarantined"] = True
    with ResultStore(root) as store:
        store.append("postgres", entry["campaign"], record)  # routed to quarantine
    lock = {"pid": DEAD_PID, "host": socket.gethostname()}
    (root / LOCK_NAME).write_text(json.dumps(lock) + "\n", encoding="utf-8")
    return root


@st.composite
def damages(draw) -> tuple[str, str, int, bytes]:
    """One damage: ``(file, operation, fraction of the file, bytes)``."""
    name = draw(st.sampled_from(DURABLE_FILES))
    operation = draw(st.sampled_from(("flip", "insert", "append")))
    where = draw(st.integers(0, 10_000))
    if operation == "flip":
        data = bytes([draw(st.integers(1, 255))])
    else:
        data = draw(st.binary(min_size=1, max_size=6))
    return name, operation, where, data


def _damage(root: Path, name: str, operation: str, where: int, data: bytes) -> None:
    path = root / name
    content = path.read_bytes()
    position = where % (len(content) + 1)
    if operation == "flip" and content:
        position %= len(content)
        content = content[:position] + bytes([content[position] ^ data[0]]) + content[position + 1 :]
    elif operation == "insert":
        content = content[:position] + data + content[position:]
    else:
        content += data
    path.write_bytes(content)


def _coded(action):
    """Run ``action``; a StoreError must carry a known code, anything else fails."""
    try:
        return action()
    except StoreError as exc:
        assert exc.code in STORE_ERROR_CODES, exc
        return exc


def _resume(root: Path):
    with ResultStore(root) as store:
        return CampaignSuite.from_spec(SPEC).run(store=store, resume=True)


def test_pristine_store_passes_every_entry_point(pristine, tmp_path):
    root = tmp_path / "store"
    shutil.copytree(pristine, root)
    assert ResultStore(root).verify().clean
    assert sum(1 for _ in ResultStore(root).iter_quarantined()) == 1
    assert diff_stores(ResultStore(root), ResultStore(pristine)) == []
    result = _resume(root)
    assert result.total_executed() == 0  # the kept record and the quarantined one are done


@settings(max_examples=60, deadline=None)
@given(damage=st.lists(damages(), min_size=1, max_size=3))
def test_damage_gets_a_coded_error_or_none(pristine, damage):
    with tempfile.TemporaryDirectory() as scratch:
        root, resumed = Path(scratch, "damaged"), Path(scratch, "resumed")
        shutil.copytree(pristine, root)
        for name, operation, where, data in damage:
            _damage(root, name, operation, where, data)
        shutil.copytree(root, resumed)

        _coded(lambda: ResultStore(root).verify())
        for artifact in ARTIFACTS.values():
            _coded(lambda: artifact.render(ResultStore(root).load_profiles()))
        _coded(lambda: render_store_report(ResultStore(root)))
        _coded(lambda: diff_stores(ResultStore(root), ResultStore(pristine)))
        _coded(lambda: _resume(resumed))

        repaired = _coded(lambda: ResultStore(root).repair())
        if not isinstance(repaired, StoreError):
            report = ResultStore(root).verify()
            assert report.clean, report.summary()


class TestCodes:
    def test_store_error_code_survives_pickling(self):
        error = pickle.loads(pickle.dumps(StoreError("locked", "store/locked")))
        assert (str(error), error.code) == ("locked", "store/locked")

    def test_store_errors_refuse_unregistered_codes(self):
        with pytest.raises(ValueError, match="unknown store error code"):
            StoreError("x", "store/made-up")

    def test_every_code_is_documented(self):
        robustness = (Path(__file__).resolve().parents[2] / "docs" / "ROBUSTNESS.md").read_text(
            encoding="utf-8"
        )
        for code in STORE_ERROR_CODES:
            assert f"`{code}`" in robustness, code


#: A complete record whose duration no float holds: ``float()`` overflows.
HUGE_DURATION = json.dumps(
    {"campaign": "spelling", "record": {"scenario_id": "x", "outcome": "ignored", "duration_seconds": 10**400}}
).encode("utf-8")


@pytest.mark.parametrize(
    "line",
    [
        b"[1,2]",
        b"null",
        b'"str"',
        b'{"record": 5}',
        b'{"record": []}',
        pytest.param(HUGE_DURATION, id="huge-duration"),
    ],
)
def test_non_object_record_line_is_corrupt_to_every_reader(pristine, tmp_path, line):
    root = tmp_path / "store"
    shutil.copytree(pristine, root)
    path = root / "postgres.jsonl"
    records = path.read_bytes()
    path.write_bytes(line + b"\n" + records)
    (check, *_) = ResultStore(root).verify().files
    assert check.corrupt_lines == [1]
    with pytest.raises(StoreError) as excinfo:
        list(ResultStore(root).iter_records("postgres"))
    assert excinfo.value.code == "store/corrupt-line"
    ResultStore(root).repair()
    assert path.read_bytes() == records
    assert ResultStore(root).verify().clean
    # as the last line it is torn: readers skip it and the next append cuts it
    path.write_bytes(records + line + b"\n")
    (check, *_) = ResultStore(root).verify().files
    assert (check.corrupt_lines, check.torn_tail) == ([], True)
    stored = list(ResultStore(root).iter_records("postgres"))
    assert len(stored) == records.count(b"\n")
    with ResultStore(root) as store:
        store.append("postgres", *stored[0])
    appended = path.read_bytes()
    assert appended.startswith(records) and appended.count(b"\n") == records.count(b"\n") + 1
    assert ResultStore(root).verify().clean


def test_manifest_without_systems_is_a_verify_problem_repair_refuses(pristine, tmp_path):
    root = tmp_path / "store"
    shutil.copytree(pristine, root)
    manifest = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
    del manifest["systems"]
    (root / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    report = ResultStore(root).verify()
    assert [problem.split(":")[0] for problem in report.problems] == ["store/manifest-shape"]
    def contents():  # the stale lock is broken on the way in; the data stays
        return {path.name: path.read_bytes() for path in root.iterdir() if path.name != LOCK_NAME}

    before = contents()
    with pytest.raises(StoreError) as excinfo:
        ResultStore(root).repair()
    assert excinfo.value.code == "store/manifest-shape"
    assert contents() == before


@pytest.mark.parametrize("body", [b"\xff", b"[1,2]", b'{"postgres": 5}'])
def test_damaged_systems_index_is_a_verify_problem_repair_mends(pristine, tmp_path, body):
    root = tmp_path / "store"
    shutil.copytree(pristine, root)
    index = (root / "systems.json").read_bytes()
    (root / "systems.json").write_bytes(body)
    report = ResultStore(root).verify()
    assert [problem.split(":")[0] for problem in report.problems] == ["store/index-shape"]
    assert not report.clean
    ResultStore(root).repair()
    assert (root / "systems.json").read_bytes() == index
    assert ResultStore(root).verify().clean
