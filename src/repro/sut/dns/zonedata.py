"""Helpers turning parsed DNS configuration files into :class:`DnsRecord` sets.

Both simulated servers load their record data through the same
system-independent record view used by the semantic-error plugin
(:class:`~repro.core.views.dns_view.DnsRecordView`), which keeps the
"published records" interpretation consistent between injection and serving.
A BIND zone record converts through :func:`bind_record`, the view's own
per-record fields followed by the conversion every view record gets, so a
server that already knows a record's conversion (see
:class:`~repro.sut.dns.bind_server.SimulatedBIND`) may reuse it.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterator, Mapping, Union

from repro.core.infoset import ConfigSet, ConfigTree
from repro.core.views.dns_view import (
    VIEW_TREE_NAME,
    BindEntry,
    DnsRecordView,
    bind_record_fields,
    bind_zone_entries,
)
from repro.dns.records import DnsRecord, RecordSet
from repro.parsers.base import get_dialect

__all__ = [
    "RecordDataError",
    "bind_record",
    "bind_record_table",
    "config_set_to_records",
    "records_from_files",
]


class RecordDataError(ValueError):  # conferr: allow[harness/foreign-exception]
    """Record data that parses syntactically but is not loadable.

    Real servers reject such zones at load time (e.g. ``named`` refuses a
    non-numeric TTL); the simulated servers convert this into a failed start.
    """


#: What converting one record gives: the record, or why it cannot load.
Conversion = Union[DnsRecord, RecordDataError]

_NOTHING_KNOWN: Mapping[BindEntry, Conversion] = MappingProxyType({})


def _numeric(text: object, what: str, owner: str) -> int:
    try:
        return int(text)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise RecordDataError(f"{what} {text!r} of record {owner!r} is not a number") from None


def _record(owner: str, value: str | None, attrs: Mapping) -> DnsRecord:
    """The :class:`DnsRecord` a ``dns-record`` view node's fields publish."""
    priority = attrs.get("priority")
    ttl = attrs.get("ttl")
    return DnsRecord(
        name=owner,
        rtype=attrs.get("rtype", "A"),
        value=value or "",
        priority=_numeric(priority, "priority", owner) if priority is not None else None,
        ttl=_numeric(ttl, "TTL", owner) if ttl not in (None, "") else None,
        metadata={"source_file": attrs.get("source_file")},
    )


def bind_record(
    zone_file: str,
    origin: str,
    default_ttl: str | None,
    owner_text: str,
    rtype: str,
    rdata: str,
    ttl: str | None,
) -> DnsRecord:
    """The record one zone record line publishes (its fields are a
    :data:`~repro.core.views.dns_view.BindEntry`).

    A pure function of its arguments.  Raises :class:`RecordDataError` for
    a non-numeric TTL or MX priority.
    """
    return _record(
        *bind_record_fields(zone_file, origin, default_ttl, owner_text, rtype, rdata, ttl)
    )


def _converted(entry: BindEntry) -> Conversion:
    try:
        return bind_record(*entry)
    except RecordDataError as exc:
        return exc


def bind_record_table(tree: ConfigTree) -> dict[BindEntry, Conversion]:
    """Every record line of the zone ``tree`` mapped to its conversion."""
    return {entry: _converted(entry) for entry in bind_zone_entries(tree)}


def _bind_zone_records(
    tree: ConfigTree, known: Mapping[BindEntry, Conversion]
) -> Iterator[Conversion]:
    """Each record line's conversion, in file order: from ``known`` when it
    has the line's entry, computed afresh (and not kept) otherwise."""
    for entry in bind_zone_entries(tree):
        conversion = known.get(entry) if known else None
        yield conversion if conversion is not None else _converted(entry)


def _tinydns_records(tree: ConfigTree) -> Iterator[Conversion]:
    """Each record a tinydns data file publishes, in file order."""
    try:
        view = DnsRecordView().transform(ConfigSet([tree]))
    except ValueError as exc:
        raise RecordDataError(str(exc)) from None
    for node in view.get(VIEW_TREE_NAME).root.children_of_kind("dns-record"):
        try:
            yield _record(node.name or "", node.value, node.attrs)
        except RecordDataError as exc:
            yield exc


def config_set_to_records(
    config_set: ConfigSet, known: Mapping[BindEntry, Conversion] = _NOTHING_KNOWN
) -> RecordSet:
    """Convert parsed zone/data file trees into a :class:`RecordSet`.

    Records keep file order.  Raises :class:`RecordDataError` for data a
    real server would refuse to load: a record the view cannot build (a
    ``=`` line without an address has no reverse name), which wins, else
    the first non-numeric TTL or priority in file order.  ``known`` maps
    BIND record lines to conversions already made (see
    :func:`bind_record_table`); it is only read.
    """
    record_set = RecordSet()
    first_error: RecordDataError | None = None
    for tree in config_set:
        if tree.dialect == "bindzone":
            conversions = _bind_zone_records(tree, known)
        elif tree.dialect == "tinydns":
            conversions = _tinydns_records(tree)
        else:
            continue
        for conversion in conversions:
            if type(conversion) is DnsRecord:
                record_set.add(conversion)
            elif first_error is None:
                first_error = conversion
    if first_error is not None:
        # a fresh exception: a known conversion is shared and never raised
        raise RecordDataError(*first_error.args)
    return record_set


def records_from_files(files: Mapping[str, str], dialect_by_file: Mapping[str, str]) -> RecordSet:
    """Parse raw file texts (with per-file dialects) and collect their records."""
    config_set = ConfigSet()
    for filename, text in files.items():
        dialect_name = dialect_by_file[filename]
        config_set.add(get_dialect(dialect_name).parse(text, filename=filename))
    return config_set_to_records(config_set)
