"""Helpers turning parsed DNS configuration files into :class:`DnsRecord` sets.

Both simulated servers load their record data through the same
system-independent record view used by the semantic-error plugin
(:class:`~repro.core.views.dns_view.DnsRecordView`), which keeps the
"published records" interpretation consistent between injection and serving.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.infoset import ConfigSet
from repro.core.views.dns_view import DnsRecordView, VIEW_TREE_NAME
from repro.dns.records import DnsRecord, RecordSet
from repro.parsers.base import get_dialect

__all__ = ["RecordDataError", "config_set_to_records", "records_from_files"]


class RecordDataError(ValueError):  # conferr: allow[harness/foreign-exception]
    """Record data that parses syntactically but is not loadable.

    Real servers reject such zones at load time (e.g. ``named`` refuses a
    non-numeric TTL); the simulated servers convert this into a failed start.
    """


def _numeric(text: object, what: str, owner: str) -> int:
    try:
        return int(text)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise RecordDataError(f"{what} {text!r} of record {owner!r} is not a number") from None


def config_set_to_records(config_set: ConfigSet) -> RecordSet:
    """Convert parsed zone/data file trees into a :class:`RecordSet`.

    Raises :class:`RecordDataError` for data a real server would refuse to
    load (non-numeric TTLs or priorities) and for a record the view cannot
    build (a ``=`` line without an address has no reverse name).
    """
    try:
        view = DnsRecordView().transform(config_set)
    except ValueError as exc:
        raise RecordDataError(str(exc)) from None
    record_set = RecordSet()
    for node in view.get(VIEW_TREE_NAME).root.children_of_kind("dns-record"):
        priority = node.get("priority")
        ttl = node.get("ttl")
        owner = node.name or ""
        record_set.add(
            DnsRecord(
                name=owner,
                rtype=node.get("rtype", "A"),
                value=node.value or "",
                priority=_numeric(priority, "priority", owner) if priority is not None else None,
                ttl=_numeric(ttl, "TTL", owner) if ttl not in (None, "") else None,
                metadata={"source_file": node.get("source_file")},
            )
        )
    return record_set


def records_from_files(files: Mapping[str, str], dialect_by_file: Mapping[str, str]) -> RecordSet:
    """Parse raw file texts (with per-file dialects) and collect their records."""
    config_set = ConfigSet()
    for filename, text in files.items():
        dialect_name = dialect_by_file[filename]
        config_set.add(get_dialect(dialect_name).parse(text, filename=filename))
    return config_set_to_records(config_set)
