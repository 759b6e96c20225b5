"""Persistent result store: durable, resumable campaign records.

A :class:`ResultStore` is a directory holding

* ``manifest.json`` -- one JSON document describing the run that produced
  the records: seed, systems, plugin configurations, keyboard layout and
  executor settings.  The manifest is what makes a store *resumable*: a
  later invocation can verify it is about to continue the same experiment
  (same seed and plugin configuration) before skipping work.
* ``<system>.jsonl`` -- one append-only JSON-Lines file per system.  Each
  line is ``{"campaign": <name>, "record": <InjectionRecord.to_dict()>}``;
  records are appended (and flushed) as they land.
* ``systems.json`` -- the system-key -> file-name index, written before the
  first record of each system.  ``filename_for`` sanitisation is lossy
  (``mysql/full`` becomes ``mysql_full.jsonl``), so without the index a
  store whose manifest is missing could not map its files back to keys.

Durability guarantee, precisely: the engine releases records to the store
in scenario order as the in-order front of the sequence completes, under
*every* executor strategy.  A killed run therefore leaves the contiguous
prefix of already-released records on disk and loses only the in-flight
tail -- the experiments still running plus any that finished out of order
ahead of a still-running earlier scenario (on the order of ``jobs x
block_size`` records, exactly one for a serial run).  Resuming replays
only the scenarios whose records are missing.

The append-only layout is deliberate: injection campaigns are long, every
record is immutable once classified, and a crashed or killed run must leave
a readable prefix behind.  One append-mode handle is cached per system (a
record write is a single buffered write + flush, not an open/close); call
:meth:`close` -- or use the store as a context manager -- to release the
handles deterministically.  ``close`` is idempotent.

One line rule, stated once in :func:`_classify` and read by every reader,
:meth:`~ResultStore.verify`, :meth:`~ResultStore.repair` and the append
path alike:

* a line is a *record* only if it ends in ``\n``, decodes as UTF-8 and
  parses to a JSON object whose ``record`` is an object
  :meth:`InjectionRecord.from_dict` accepts (a ``quarantine.jsonl`` line
  also needs a string ``system``);
* an unreadable or unterminated *last* line is *torn* -- the one write a
  crash can tear.  Readers skip it, and the next append cuts it off, so its
  scenario simply runs again on resume;
* any other unreadable line is *corrupt*: readers refuse the file, since
  silently dropping an interior record would fake completed work.

``manifest.json``, ``systems.json`` and ``store.lock`` are each read by one
JSON-object reader (:func:`~repro.core.durable.read_json_object`).  Every
failure raises :class:`~repro.errors.StoreError` with a ``code`` from
:data:`~repro.errors.STORE_ERROR_CODES`: ``store/missing``,
``store/exists``, ``store/locked``, ``store/incompatible``,
``store/corrupt-line``, ``store/manifest-shape`` or ``store/index-shape``.

Concurrency contract, precisely:

* **One writer per store directory.**  The first write (manifest or record
  append) takes an advisory ``store.lock`` file naming the writing process;
  a second writer on the same directory fails fast with a pointed
  :class:`StoreError` instead of silently interleaving appends.  The lock
  is released by :meth:`close` and broken automatically when its holder is
  a dead process on this host (a ``kill -9`` must not brick the store).
* **Any number of concurrent readers.**  Readers (``iter_records``,
  ``load_profiles`` and every ``--from-store`` renderer) take no lock and
  never block the writer.  Because a record append is a single buffered
  ``write()`` of one complete line followed by a flush, a reader streaming
  the file mid-append sees only complete records plus at most one torn
  trailing line -- which the line rule below skips.  Live progress
  endpoints poll exactly this way.
"""

from __future__ import annotations

import json
import os
import re
import socket
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

from repro.core.durable import parse_json_object, read_json_object, write_atomic
from repro.core.profile import InjectionRecord, ResilienceProfile
from repro.errors import StoreError

__all__ = [
    "ResultStore",
    "MANIFEST_VERSION",
    "QUARANTINE_NAME",
    "LOCK_NAME",
    "filename_for",
    "FileCheck",
    "StoreReport",
    "diff_stores",
]

#: Bump when the on-disk layout changes incompatibly.
MANIFEST_VERSION = 1

_MANIFEST_NAME = "manifest.json"
_SYSTEMS_INDEX_NAME = "systems.json"
#: Advisory writer-lock file: holds ``{"pid", "host", "argv"}`` of the one
#: process allowed to append to this store directory.
LOCK_NAME = "store.lock"
#: Manifest of scenarios the fault-tolerance layer gave up on, kept next to
#: -- never inside -- the per-system record files: the main stream stays a
#: clean record of real experiment outcomes, and a resumed run can decide to
#: re-attempt or keep skipping the quarantined ones.
QUARANTINE_NAME = "quarantine.jsonl"
#: Suffix :meth:`ResultStore.repair` moves unreadable lines under; chosen so
#: ``*.jsonl`` globs (and therefore :meth:`ResultStore.systems`) skip it.
_CORRUPT_SUFFIX = ".corrupt"
_UNSAFE = re.compile(r"[^A-Za-z0-9._-]")
#: The verdicts :func:`_classify` gives a line.
_RECORD, _BLANK, _CORRUPT, _TORN = "record", "blank", "corrupt", "torn"


def _classify(
    lines: Iterable[bytes], quarantine: bool
) -> Iterator[tuple[int, bytes, str, Any]]:
    """The store's one line rule: ``(number, raw, verdict, detail)`` per line.

    ``detail`` is ``(campaign, record)`` for a record -- ``(system,
    campaign, record)`` in the quarantine file -- and the parse failure for
    an unreadable line.  See the module docstring for the rule.  Whether an
    unreadable terminated line is the last one is known only when the next
    line arrives, so its verdict comes one line late.
    """
    pending: tuple[int, bytes, Exception] | None = None
    for number, raw in enumerate(lines, start=1):
        if pending is not None:
            yield pending[0], pending[1], _CORRUPT, pending[2]
            pending = None
        if not raw.endswith(b"\n"):  # only a file's last line can lack one
            yield number, raw, _TORN, None
        elif raw.isspace():
            yield number, raw, _BLANK, None
        else:
            try:
                entry = parse_json_object(raw)
                detail = (str(entry.get("campaign", "")), InjectionRecord.from_dict(entry["record"]))
                if quarantine:
                    if not isinstance(entry["system"], str):
                        raise TypeError("quarantine entry without a string system")
                    detail = (entry["system"], *detail)
            except (ValueError, KeyError, TypeError, OverflowError) as exc:
                pending = (number, raw, exc)
                continue
            yield number, raw, _RECORD, detail
    if pending is not None:
        yield pending[0], pending[1], _TORN, pending[2]


def _read_entries(path: Path, quarantine: bool) -> Iterator[tuple]:
    """Stream one file's records; a corrupt line raises, a torn tail is skipped."""
    if not path.is_file():
        return
    with open(path, "rb") as handle:
        for number, _raw, verdict, detail in _classify(handle, quarantine):
            if verdict == _RECORD:
                yield detail
            elif verdict == _CORRUPT:
                raise StoreError(
                    f"corrupt record at {path}:{number}: {detail}", "store/corrupt-line"
                ) from detail


def _cut_torn_tail(path: Path, quarantine: bool) -> None:
    """Truncate ``path`` before its last line when the line rule calls it torn.

    Only the last line is read, back from the end: a resume must not pay a
    scan of the whole file before its first append.
    """
    try:
        handle = open(path, "rb+")
    except FileNotFoundError:
        return
    with handle:
        size = handle.seek(0, os.SEEK_END)
        if size == 0:
            return
        start, position = 0, size - 1  # a final newline belongs to the last line
        while position > 0:
            chunk_start = max(0, position - 4096)
            handle.seek(chunk_start)
            index = handle.read(position - chunk_start).rfind(b"\n")
            if index >= 0:
                start = chunk_start + index + 1
                break
            position = chunk_start
        handle.seek(start)
        if any(verdict == _TORN for _n, _r, verdict, _d in _classify([handle.read()], quarantine)):
            handle.truncate(start)


def filename_for(system: str) -> str:
    """Map a system key to a safe JSONL file name.

    Public because spec validation must refuse two system labels whose
    sanitized filenames collide (their records would interleave in one file).
    """
    safe = _UNSAFE.sub("_", system)
    return f"{safe}.jsonl"


@dataclass
class FileCheck:
    """Verification result for one JSONL file in a store."""

    system: str
    path: str
    records: int = 0
    corrupt_lines: list[int] = field(default_factory=list)
    torn_tail: bool = False

    @property
    def clean(self) -> bool:
        return not self.corrupt_lines and not self.torn_tail


@dataclass
class StoreReport:
    """Outcome of :meth:`ResultStore.verify` or :meth:`ResultStore.repair`."""

    root: str
    files: list[FileCheck] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    #: True when produced by :meth:`ResultStore.repair` (files were rewritten).
    repaired: bool = False

    @property
    def clean(self) -> bool:
        return not self.problems and all(check.clean for check in self.files)

    def summary(self) -> str:
        """Human-readable multi-line report."""
        action = "repaired" if self.repaired else "verified"
        lines = [f"store {self.root}: {action}, {'clean' if self.clean else 'problems found'}"]
        for check in self.files:
            status = []
            if check.corrupt_lines:
                status.append(
                    f"{len(check.corrupt_lines)} corrupt line(s) at "
                    + ", ".join(str(n) for n in check.corrupt_lines[:5])
                    + ("..." if len(check.corrupt_lines) > 5 else "")
                )
            if check.torn_tail:
                status.append("torn trailing line")
            detail = "; ".join(status) if status else "clean"
            lines.append(f"  {check.path}: {check.records} record(s), {detail}")
        for problem in self.problems:
            lines.append(f"  problem: {problem}")
        return "\n".join(lines)


class ResultStore:
    """Append-only, per-system JSONL storage for injection records."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._manifest_cache: dict[str, Any] | None = None
        #: One cached append-mode handle per system; opening implies the
        #: file's torn tail (if any) has been repaired.
        self._handles: dict[str, Any] = {}
        #: Cached append handle for ``quarantine.jsonl`` (shared by systems).
        self._quarantine_handle: Any = None
        #: Cached system-key -> file-name index (``systems.json``).
        self._systems_index: dict[str, str] | None = None
        #: Whether this instance holds the advisory ``store.lock``.
        self._lock_owned = False

    def close(self) -> None:
        """Close cached append handles and release the writer lock.

        Idempotent: closing an already-closed (or never-written) store is a
        no-op, and appending after a close simply reopens the handles and
        re-acquires the lock.
        """
        handles, self._handles = self._handles, {}
        quarantine, self._quarantine_handle = self._quarantine_handle, None
        if quarantine is not None:
            handles["\x00quarantine"] = quarantine
        for handle in handles.values():
            try:
                handle.close()
            except OSError:  # pragma: no cover - close() on flushed appends
                pass
        self._release_writer_lock()

    # -------------------------------------------------------------- writer lock
    @property
    def lock_path(self) -> Path:
        return self.root / LOCK_NAME

    def _acquire_writer_lock(self) -> None:
        """Take the advisory one-writer-per-directory lock (idempotent).

        A live competing writer is a hard error: two appenders would
        interleave records in the same JSONL files.  A lock held by a dead
        process on this host (crash, ``kill -9``) is broken and re-taken; a
        lock from another host cannot be verified and is honoured.
        """
        if self._lock_owned:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(
            {"pid": os.getpid(), "host": socket.gethostname()}, sort_keys=True
        )
        for _attempt in range(16):  # bounded: stale-lock breaking can race
            try:
                fd = os.open(self.lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                holder = self._read_lock_holder()
                if holder is not None and not self._holder_is_dead(holder):
                    raise StoreError(
                        f"result store {self.root} is locked by another writer "
                        f"(pid {holder.get('pid')} on {holder.get('host')}, "
                        f"{self.lock_path}); a store accepts one concurrent "
                        "writer -- wait for it to finish, or remove the lock "
                        "file if that process is truly gone",
                        "store/locked",
                    )
                try:  # stale (dead holder) or unreadable: break it and retry
                    self.lock_path.unlink()
                except FileNotFoundError:
                    pass
                continue
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            self._lock_owned = True
            return
        raise StoreError(  # pragma: no cover - needs a pathological unlink race
            f"could not acquire {self.lock_path} after repeated attempts", "store/locked"
        )

    def _read_lock_holder(self) -> dict[str, Any] | None:
        """The lock file's ``{"pid", "host"}`` payload, or None when unreadable."""
        try:
            return read_json_object(self.lock_path)
        except (OSError, ValueError):
            return None

    @staticmethod
    def _holder_is_dead(holder: Mapping[str, Any]) -> bool:
        """Whether the lock's holder is verifiably gone (same host, dead pid)."""
        if holder.get("host") != socket.gethostname():
            return False  # another host: cannot verify, assume alive
        pid = holder.get("pid")
        if not isinstance(pid, int) or pid <= 0:
            return True  # malformed payload: nobody to honour
        if pid == os.getpid():
            return False  # another ResultStore instance in this very process
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except PermissionError:  # pragma: no cover - other user's live process
            return False
        return False

    def _release_writer_lock(self) -> None:
        if not self._lock_owned:
            return
        self._lock_owned = False
        try:
            self.lock_path.unlink()
        except OSError:  # pragma: no cover - lock dir removed underneath us
            pass

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ----------------------------------------------------------------- manifest
    @property
    def manifest_path(self) -> Path:
        return self.root / _MANIFEST_NAME

    def exists(self) -> bool:
        """Whether this store has been initialised (has a manifest)."""
        return self.manifest_path.is_file()

    def write_manifest(self, manifest: Mapping[str, Any]) -> None:
        """Initialise the store directory and persist the run manifest."""
        self._acquire_writer_lock()
        self.root.mkdir(parents=True, exist_ok=True)
        payload = {"version": MANIFEST_VERSION, **manifest}
        write_atomic(self.manifest_path, json.dumps(payload, indent=2) + "\n")
        self._manifest_cache = payload

    def read_manifest(self) -> dict[str, Any]:
        """Load the manifest; raises :class:`StoreError` when absent or corrupt.

        The parsed manifest is cached on the instance: the manifest is
        written once per run, while loading a store reads it many times.
        """
        if self._manifest_cache is not None:
            return self._manifest_cache
        try:
            manifest = read_json_object(self.manifest_path)
        except FileNotFoundError:
            raise StoreError(
                f"no result store at {self.root} (missing {_MANIFEST_NAME})", "store/missing"
            ) from None
        except ValueError as exc:
            raise StoreError(
                f"corrupt manifest in {self.root}: {exc}", "store/manifest-shape"
            ) from exc
        version = manifest.get("version")
        if version != MANIFEST_VERSION:
            raise StoreError(
                f"result store {self.root} has manifest version {version!r}; "
                f"this build reads version {MANIFEST_VERSION}",
                "store/incompatible",
            )
        self._manifest_cache = manifest
        return manifest

    def check_compatible(self, manifest: Mapping[str, Any]) -> None:
        """Verify a resume continues the experiment described by ``manifest``.

        When both the stored and the offered manifest embed a serialized
        :class:`~repro.core.spec.ExperimentSpec`, compatibility is a
        structured spec diff that reports the exact offending paths (worker
        settings and the store location are ignored -- profiles are
        executor-invariant).  Otherwise the legacy field-by-field comparison
        applies: any difference in seed, systems or plugin configuration
        means the stored scenario ids cannot be trusted to match, so the
        resume is refused with a pointed message.
        """
        stored = self.read_manifest()
        # the run kind guards the spec path too: stores of another kind may
        # embed an identical spec yet derive per-campaign seeds differently,
        # so resuming across kinds would double-populate records
        if stored.get("kind") != manifest.get("kind"):
            raise StoreError(
                f"store {self.root} was produced by a different run: "
                f"kind is {stored.get('kind')!r} on disk "
                f"but {manifest.get('kind')!r} now",
                "store/incompatible",
            )
        stored_spec, offered_spec = stored.get("spec"), manifest.get("spec")
        if isinstance(stored_spec, Mapping) and isinstance(offered_spec, Mapping):
            from repro.core.spec import diff_spec_dicts

            diffs = diff_spec_dicts(stored_spec, offered_spec)
            if diffs:
                raise StoreError(
                    f"store {self.root} was produced by a different experiment: "
                    + "; ".join(diffs[:5])
                    + ("; ..." if len(diffs) > 5 else ""),
                    "store/incompatible",
                )
            return
        # "kind" is already handled by the early guard above
        for field in ("seed", "systems", "plugins", "layout"):
            if stored.get(field) != manifest.get(field):
                raise StoreError(
                    f"store {self.root} was produced by a different run: "
                    f"{field} is {stored.get(field)!r} on disk "
                    f"but {manifest.get(field)!r} now",
                    "store/incompatible",
                )

    # ------------------------------------------------------------------ records
    def path_for(self, system: str) -> Path:
        return self.root / filename_for(system)

    def append(self, system: str, campaign: str, record: InjectionRecord) -> None:
        """Append one record; flushed immediately so interrupts lose at most one.

        The append-mode handle is opened once per system and cached (a
        campaign appends thousands of records; open/close per record costs
        more than the write).  First open also cuts off a torn last line --
        appending after it would weld this record onto the garbage and turn
        both into one corrupt interior line; its record was never counted as
        completed, so the scenario simply runs again -- and registers the
        system key in ``systems.json``.

        Records stamped ``metadata["quarantined"]`` by the fault-tolerance
        layer are routed to ``quarantine.jsonl`` instead of the system's
        record file: they describe harness faults, not experiment outcomes,
        and the main stream must stay byte-comparable to a fault-free run.
        """
        if record.metadata.get("quarantined"):
            self._append_quarantined(system, campaign, record)
            return
        handle = self._handles.get(system)
        if handle is None:
            self._acquire_writer_lock()
            self.root.mkdir(parents=True, exist_ok=True)
            path = self.path_for(system)
            _cut_torn_tail(path, quarantine=False)
            self._register_system(system)
            handle = open(path, "ab")
            self._handles[system] = handle
        line = json.dumps({"campaign": campaign, "record": record.to_dict()})
        handle.write(line.encode("utf-8") + b"\n")
        handle.flush()

    def iter_records(self, system: str) -> Iterator[tuple[str, InjectionRecord]]:
        """Yield ``(campaign, record)`` pairs for one system, in append order.

        The file is streamed line by line (a long campaign's JSONL can dwarf
        memory; loading a store must not slurp it whole).  A torn last line
        is skipped; a corrupt line raises :class:`StoreError`
        (``store/corrupt-line``), one line late (see :func:`_classify`).
        """
        yield from _read_entries(self.path_for(system), quarantine=False)

    def completed_ids(self, system: str) -> set[tuple[str, str]]:
        """``(campaign, scenario_id)`` pairs already on disk for one system."""
        return {(campaign, record.scenario_id) for campaign, record in self.iter_records(system)}

    # --------------------------------------------------------------- quarantine
    @property
    def quarantine_path(self) -> Path:
        return self.root / QUARANTINE_NAME

    def _append_quarantined(self, system: str, campaign: str, record: InjectionRecord) -> None:
        if self._quarantine_handle is None:
            self._acquire_writer_lock()
            self.root.mkdir(parents=True, exist_ok=True)
            _cut_torn_tail(self.quarantine_path, quarantine=True)
            self._quarantine_handle = open(self.quarantine_path, "ab")
        line = json.dumps({"system": system, "campaign": campaign, "record": record.to_dict()})
        self._quarantine_handle.write(line.encode("utf-8") + b"\n")
        self._quarantine_handle.flush()

    def iter_quarantined(
        self, system: str | None = None
    ) -> Iterator[tuple[str, str, InjectionRecord]]:
        """Yield ``(system, campaign, record)`` from the quarantine manifest.

        The same line rule as :meth:`iter_records`: a torn last line is
        skipped, a corrupt line raises.
        """
        for entry in _read_entries(self.quarantine_path, quarantine=True):
            if system is None or entry[0] == system:
                yield entry

    def quarantined_ids(self, system: str) -> set[tuple[str, str]]:
        """``(campaign, scenario_id)`` pairs quarantined for one system."""
        return {
            (campaign, record.scenario_id)
            for _, campaign, record in self.iter_quarantined(system)
        }

    def clear_quarantine(self, system: str | None = None) -> int:
        """Drop quarantine entries (all, or one system's) so a resume retries them.

        Returns the number of entries removed.  The manifest is compacted
        in place via an atomic replace; an empty result removes the file.
        """
        if self._quarantine_handle is not None:
            self._quarantine_handle.close()
            self._quarantine_handle = None
        path = self.quarantine_path
        if not path.is_file():
            return 0
        # compacting the manifest is a write: the resuming run that calls
        # this is about to append anyway, so take (and keep) the writer lock
        self._acquire_writer_lock()
        kept: list[str] = []
        dropped = 0
        for entry_system, campaign, record in self.iter_quarantined():
            if system is not None and entry_system != system:
                kept.append(
                    json.dumps(
                        {"system": entry_system, "campaign": campaign, "record": record.to_dict()}
                    )
                )
            else:
                dropped += 1
        if kept:
            write_atomic(path, "\n".join(kept) + "\n")
        else:
            path.unlink()
        return dropped

    # ------------------------------------------------------------- systems index
    def _read_systems_index(self) -> dict[str, str]:
        """``systems.json`` as it is on disk; {} when absent.

        Raises :class:`StoreError` ``store/index-shape`` when the file is
        not a JSON object mapping keys to file names.
        """
        path = self.root / _SYSTEMS_INDEX_NAME
        try:
            raw = read_json_object(path)
        except FileNotFoundError:
            return {}
        except (OSError, ValueError) as exc:
            raise StoreError(f"{path} is unreadable: {exc}", "store/index-shape") from exc
        if not all(isinstance(value, str) for value in raw.values()):
            raise StoreError(f"{path} maps a key to a non-string file name", "store/index-shape")
        return raw

    def _load_systems_index(self) -> dict[str, str]:
        """The ``systems.json`` key -> file-name index (cached; {} when absent).

        A damaged index degrades to {} rather than raising: the index is
        recovery metadata, :meth:`verify` reports it, and :meth:`repair` or
        the next append rewrites it whole.
        """
        if self._systems_index is None:
            try:
                self._systems_index = self._read_systems_index()
            except StoreError:
                self._systems_index = {}
        return self._systems_index

    def _register_system(self, system: str) -> None:
        """Record ``system``'s key -> file-name mapping before its first append.

        ``filename_for`` sanitisation is lossy (``mysql/full`` and
        ``mysql_full`` share a file name), so the original key must be
        stored where :meth:`systems` can recover it even without a manifest.
        """
        index = self._load_systems_index()
        filename = filename_for(system)
        if index.get(system) == filename:
            return
        index[system] = filename
        self._write_systems_index(index)

    # ------------------------------------------------------------------ loading
    def systems(self) -> list[str]:
        """System keys, in manifest order (falling back to the on-disk index).

        Without a manifest the keys come from ``systems.json`` -- the inverse
        of :func:`filename_for`'s lossy sanitisation -- plus, sorted after
        them, the bare stems of any ``*.jsonl`` files the index does not
        cover (stores written before the index existed).
        """
        if self.exists():
            recorded = self.read_manifest().get("systems")
            if isinstance(recorded, Mapping):
                return list(recorded)
        return self._indexed_systems()

    def _indexed_systems(self) -> list[str]:
        """System keys from ``systems.json`` plus unindexed ``*.jsonl`` stems."""
        index = self._load_systems_index()
        indexed_files = set(index.values())
        legacy = sorted(
            path.stem
            for path in self.root.glob("*.jsonl")
            if path.name not in indexed_files and path.name != QUARANTINE_NAME
        )
        return sorted(index) + legacy

    def system_display_name(self, system: str) -> str:
        """Human-readable name for a system key (from the manifest)."""
        if self.exists():
            recorded = self.read_manifest().get("systems")
            if isinstance(recorded, Mapping):
                name = recorded.get(system)
                if isinstance(name, str):
                    return name
        return system

    def load_profiles(self) -> dict[str, dict[str, ResilienceProfile]]:
        """The stored cell profiles: ``{system display name: {campaign: profile}}``.

        The shape every renderer takes, and the one a live run's
        :meth:`~repro.core.suite.SuiteResult.profiles_by_display` returns.
        Systems and campaigns come in manifest order; a manifest campaign
        with no records on disk (it injected nothing, or has not run yet) is
        an empty profile, exactly as in the live run, and campaigns the
        manifest does not list follow in the order their records appear.
        System keys sharing a display name share one profile per campaign.
        Record order within a campaign is append order, which for a
        completed run is scenario order.

        Raises :class:`StoreError` (``store/missing``) for a directory
        without a manifest.
        """
        recorded = self.read_manifest().get("plugins")
        campaigns = (
            [entry.get("name") for entry in recorded if isinstance(entry, Mapping)]
            if isinstance(recorded, list)
            else []
        )
        result: dict[str, dict[str, ResilienceProfile]] = {}
        for system in self.systems():
            display = self.system_display_name(system)
            cells = result.get(display)
            if cells is None:
                cells = result[display] = {name: ResilienceProfile(display) for name in campaigns}
            for campaign, record in self.iter_records(system):
                profile = cells.get(campaign)
                if profile is None:
                    profile = cells[campaign] = ResilienceProfile(display)
                profile.add(record)
        return result

    # ------------------------------------------------------------ verify/repair
    def _record_files(self, systems: list[str]) -> list[tuple[str, Path]]:
        """Every JSONL file worth checking: per-system files + quarantine."""
        files: list[tuple[str, Path]] = []
        seen: set[str] = set()
        for system in systems:
            path = self.path_for(system)
            if path.is_file() and path.name not in seen:
                seen.add(path.name)
                files.append((system, path))
        for path in sorted(self.root.glob("*.jsonl")):
            if path.name not in seen and path.name != QUARANTINE_NAME:
                seen.add(path.name)
                files.append((path.stem, path))
        if self.quarantine_path.is_file():
            files.append(("<quarantine>", self.quarantine_path))
        return files

    def _manifest_error(self) -> StoreError | None:
        """Why the manifest cannot load this store as written, or None.

        Beyond :meth:`read_manifest`'s own checks, a store holding record
        files needs the manifest's ``systems`` mapping of keys to display
        names: without it every reader falls back to the index's
        alphabetical order and the store's own keys as names.
        """
        if not self.exists():
            return StoreError(f"no manifest ({_MANIFEST_NAME} missing)", "store/missing")
        try:
            recorded = self.read_manifest().get("systems")
        except StoreError as exc:
            return exc
        holds_records = any(
            path.name != QUARANTINE_NAME for path in self.root.glob("*.jsonl")
        )
        if holds_records and not (
            isinstance(recorded, dict) and all(isinstance(v, str) for v in recorded.values())
        ):
            return StoreError(
                f"manifest in {self.root} has no systems mapping of keys to display names",
                "store/manifest-shape",
            )
        return None

    @staticmethod
    def _check_file(
        system: str, path: Path, split: tuple[list[bytes], list[bytes]] | None = None
    ) -> FileCheck:
        """Count one file's verdicts; ``split`` collects readable / unreadable lines."""
        check = FileCheck(system=system, path=path.name)
        with open(path, "rb") as handle:
            for number, raw, verdict, _detail in _classify(handle, path.name == QUARANTINE_NAME):
                if verdict == _RECORD:
                    check.records += 1
                elif verdict == _CORRUPT:
                    check.corrupt_lines.append(number)
                elif verdict == _TORN:
                    check.torn_tail = True
                if split is not None:
                    split[verdict in (_CORRUPT, _TORN)].append(raw)
        return check

    def verify(self) -> StoreReport:
        """Scan the whole store without modifying it.

        Classifies, per file, readable records, corrupt interior lines and a
        torn trailing line (the one write a crash can tear), and checks the
        manifest (:meth:`_manifest_error`) and the ``systems.json`` index.
        Each problem is prefixed with its ``store/...`` code.  A clean report
        means every ``--from-store`` reader will load the store without
        error.
        """
        report = StoreReport(root=str(self.root))
        manifest_error = self._manifest_error()
        if manifest_error is not None:
            report.problems.append(f"{manifest_error.code}: {manifest_error}")
        try:
            index = self._read_systems_index()
        except StoreError as exc:
            report.problems.append(f"{exc.code}: {exc}")
            index = {}
        for system, filename in sorted(index.items()):
            if not (self.root / filename).is_file() and not self._handles.get(system):
                report.problems.append(
                    f"store/missing: systems.json lists {system!r} -> {filename} "
                    "but the file is missing"
                )
        try:
            systems = self.systems()
        except StoreError:  # already reported; list the files the index knows
            systems = self._indexed_systems()
        for system, path in self._record_files(systems):
            report.files.append(self._check_file(system, path))
        return report

    def repair(self) -> StoreReport:
        """Quarantine unreadable lines so every reader loads what is left.

        Corrupt interior lines and torn tails are moved -- their original
        bytes, each ending in a newline -- to a ``<file>.jsonl.corrupt``
        sidecar next to the file (never silently deleted: an operator can
        inspect what was lost), the record file is rewritten atomically with
        only its readable lines, and the ``systems.json`` index is rebuilt
        from the manifest and the files that actually exist.  Returns the
        report of what was moved; a :meth:`verify` afterwards reports clean.

        A manifest cannot be rebuilt from the records, so a store whose
        manifest :meth:`verify` would flag is refused, untouched, with that
        problem's :class:`StoreError`.
        """
        self.close()
        # repair rewrites record files in place: it is a writer, and must
        # fail fast rather than pull files out from under a live appender
        self._acquire_writer_lock()
        try:
            manifest_error = self._manifest_error()
            if manifest_error is not None:
                raise manifest_error
            report = StoreReport(root=str(self.root), repaired=True)
            for system, path in self._record_files(self.systems()):
                good: list[bytes] = []
                bad: list[bytes] = []
                report.files.append(self._check_file(system, path, (good, bad)))
                if bad:
                    with open(path.with_name(path.name + _CORRUPT_SUFFIX), "ab") as sidecar:
                        sidecar.writelines(raw.rstrip(b"\n") + b"\n" for raw in bad)
                    write_atomic(path, b"".join(good).decode("utf-8"))
            self._rebuild_systems_index()
            return report
        finally:
            self._release_writer_lock()

    def _rebuild_systems_index(self) -> None:
        """Regenerate ``systems.json`` from the manifest and the files on disk."""
        index: dict[str, str] = {}
        for system in (*self.systems(), *sorted(self._load_systems_index())):
            filename = filename_for(system)
            if (self.root / filename).is_file():
                index.setdefault(system, filename)
        covered = set(index.values())
        for path in sorted(self.root.glob("*.jsonl")):
            if path.name not in covered and path.name != QUARANTINE_NAME:
                index.setdefault(path.stem, path.name)
        self._systems_index = index
        self._write_systems_index(index)

    def _write_systems_index(self, index: Mapping[str, str]) -> None:
        write_atomic(
            self.root / _SYSTEMS_INDEX_NAME, json.dumps(index, indent=2, sort_keys=True) + "\n"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore({str(self.root)!r})"


def diff_stores(
    left: "ResultStore",
    right: "ResultStore",
    *,
    ignore_quarantined: bool = True,
    ignore_fields: tuple[str, ...] = ("duration_seconds",),
) -> list[str]:
    """Content differences between two stores' record streams.

    The acceptance check behind chaos runs: every record a faulted run
    *did* produce must match the fault-free run's, field for field except
    wall-clock durations.  With ``ignore_quarantined`` (the default),
    scenarios quarantined in either store are exempt -- those are exactly
    the ones the fault layer gave up on.  Returns human-readable
    difference strings; an empty list means the stores agree.
    """
    diffs: list[str] = []
    systems = sorted(set(left.systems()) | set(right.systems()))
    for system in systems:
        exempt: set[tuple[str, str]] = set()
        if ignore_quarantined:
            exempt = left.quarantined_ids(system) | right.quarantined_ids(system)

        def load(store: "ResultStore") -> dict[tuple[str, str], dict]:
            loaded: dict[tuple[str, str], dict] = {}
            for campaign, record in store.iter_records(system):
                key = (campaign, record.scenario_id)
                if key in exempt:
                    continue
                entry = record.to_dict()
                for fieldname in ignore_fields:
                    entry.pop(fieldname, None)
                loaded[key] = entry
            return loaded

        left_records, right_records = load(left), load(right)
        for key in sorted(set(left_records) | set(right_records)):
            campaign, scenario_id = key
            where = f"{system}/{campaign}/{scenario_id}"
            if key not in left_records:
                diffs.append(f"{where}: only in {right.root}")
            elif key not in right_records:
                diffs.append(f"{where}: only in {left.root}")
            elif left_records[key] != right_records[key]:
                changed = sorted(
                    name
                    for name in set(left_records[key]) | set(right_records[key])
                    if left_records[key].get(name) != right_records[key].get(name)
                )
                diffs.append(f"{where}: fields differ: {', '.join(changed)}")
    return diffs
