"""Simulated ISC BIND name server.

The simulation loads ``named.conf`` plus the master zone files it references
and enforces the zone-sanity checks BIND performs at load time, which are
what makes it "effective in detecting errors of class (3) and (4)" in the
paper's Table 3:

* every zone must carry an SOA and at least one NS record at its apex,
* a name that owns a CNAME record may not own records of any other type
  ("duplicate name for NS and CNAME"),
* MX and NS records may not point at aliases ("MX/NS points to a CNAME").

Cross-zone relations (a host's PTR being missing, or pointing at an alias
defined in another zone) are *not* checked, reproducing the "not found"
entries of Table 3.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

from repro.core.infoset import ConfigSet
from repro.dns.names import normalize_name
from repro.dns.records import RecordSet
from repro.errors import ParseError
from repro.parsers.base import get_dialect
from repro.sut.base import StartResult
from repro.sut.dns.nameserver import SimulatedNameServer
from repro.sut.dns.zonedata import (
    RecordDataError,
    bind_record_table,
    config_set_to_records,
)
from repro.sut.incremental import BaselineValidation, ScenarioDelta

__all__ = ["SimulatedBIND", "DEFAULT_NAMED_CONF", "DEFAULT_FORWARD_ZONE", "DEFAULT_REVERSE_ZONE"]


DEFAULT_NAMED_CONF = """\
options {
    directory "/var/named";
    recursion no;
};

zone "example.com" {
    type master;
    file "example.com.zone";
};

zone "2.0.192.in-addr.arpa" {
    type master;
    file "192.0.2.rev";
};
"""

DEFAULT_FORWARD_ZONE = """\
$TTL 86400
$ORIGIN example.com.
@\tIN\tSOA\tns1.example.com. hostmaster.example.com. 2008010101 3600 900 604800 86400
@\tIN\tNS\tns1.example.com.
@\tIN\tMX\t10 mail.example.com.
@\tIN\tTXT\t"v=spf1 mx -all"
ns1\tIN\tA\t192.0.2.1
www\tIN\tA\t192.0.2.10
mail\tIN\tA\t192.0.2.20
shell\tIN\tA\t192.0.2.40
www\tIN\tTXT\t"main web server"
www\tIN\tRP\thostmaster.example.com. www.example.com.
www\tIN\tHINFO\t"INTEL-X86" "LINUX"
webmail\tIN\tCNAME\twww.example.com.
ftp\tIN\tCNAME\twww.example.com.
docs\tIN\tCNAME\twww.example.com.
"""

DEFAULT_REVERSE_ZONE = """\
$TTL 86400
$ORIGIN 2.0.192.in-addr.arpa.
@\tIN\tSOA\tns1.example.com. hostmaster.example.com. 2008010101 3600 900 604800 86400
@\tIN\tNS\tns1.example.com.
1\tIN\tPTR\tns1.example.com.
10\tIN\tPTR\twww.example.com.
20\tIN\tPTR\tmail.example.com.
40\tIN\tPTR\tshell.example.com.
"""


class SimulatedBIND(SimulatedNameServer):
    """Simulated BIND 9-style authoritative name server.

    Its baseline (see :meth:`_baseline_state`) keeps a table of what each
    pristine zone record line converts to, keyed by everything the
    conversion reads: the zone file, the ``$ORIGIN`` and ``$TTL`` in force,
    the owner text (a blank owner's inherited one), the type, the rdata and
    the TTL attribute.  A delta walk (:meth:`start_delta`) takes each line's
    record from that table and converts afresh only the lines whose entry
    it lacks -- the lines a delta edited, or whose ``$ORIGIN``, ``$TTL`` or
    inherited owner it changed.  A full start and ``prepare`` walk with an
    empty table.
    """

    name = "BIND"
    config_filename = "named.conf"
    missing_file_error = "{filename} is missing"
    parse_error = "named.conf parse failure: {error}"
    process_name = "named"

    def __init__(
        self,
        named_conf: str = DEFAULT_NAMED_CONF,
        zone_files: Mapping[str, str] | None = None,
    ):
        super().__init__()
        self._named_conf = named_conf
        self._zone_files = dict(zone_files) if zone_files is not None else {
            "example.com.zone": DEFAULT_FORWARD_ZONE,
            "192.0.2.rev": DEFAULT_REVERSE_ZONE,
        }
        #: Zones declared in named.conf after the last successful start.
        self.zones: dict[str, str] = {}
        #: Record conversions the walk takes as known: the baseline's during
        #: ``start_delta``, none otherwise.
        self._known_records: Mapping = {}

    # --------------------------------------------------------------- interface
    def default_configuration(self) -> dict[str, str]:
        files = {self.config_filename: self._named_conf}
        files.update(self._zone_files)
        return files

    def dialect_for(self, filename: str) -> str:
        return "namedconf" if filename == self.config_filename else "bindzone"

    # ------------------------------------------------------------------ start
    def _start_from_trees(self, trees: ConfigSet, files: Mapping[str, str]) -> StartResult:
        """Load zones from the parsed ``named.conf`` in ``trees``.

        Zone files already in ``trees`` (the delta path's patched set) are
        used as parsed; the others are parsed from ``files``, so a mutated
        ``named.conf`` (zone name, file directive) re-resolves zone files
        through the same lookup a full start performs.
        """
        named_conf = trees.get(self.config_filename)
        zones: dict[str, str] = {}
        for section in named_conf.root.children_of_kind("section"):
            if (section.name or "").lower() != "zone":
                continue
            zone_name = normalize_name((section.value or "").strip().strip('"'))
            file_directive = section.child_named("file", kind="directive")
            if file_directive is None or not file_directive.value:
                return StartResult.failed(f"zone '{zone_name}': no file directive")
            zones[zone_name] = file_directive.value.strip().strip('"')

        if not zones:
            return StartResult.failed("named.conf declares no zones")

        config_set = ConfigSet()
        for zone_name, zone_file in zones.items():
            if zone_file in trees and trees.get(zone_file).dialect == "bindzone":
                # already parsed (on the delta path: patched); the dialect
                # check keeps a file directive mutated to point at named.conf
                # itself on the text path, like a full parse
                config_set.add(trees.get(zone_file))
                continue
            text = files.get(zone_file)
            if text is None:
                return StartResult.failed(f"zone '{zone_name}': file {zone_file!r} not found")
            try:
                config_set.add(get_dialect("bindzone").parse(text, filename=zone_file))
            except ParseError as exc:
                return StartResult.failed(f"zone '{zone_name}': {exc}")

        try:
            records = config_set_to_records(config_set, self._known_records)
        except RecordDataError as exc:
            return StartResult.failed(f"zone data rejected: {exc}")
        errors = self.check_zones(zones, records)
        if errors:
            return StartResult.failed(*errors)

        self.zones = zones
        return self._publish(records)

    def _observable_state(self) -> tuple:
        return (self.zones, list(self._records))

    def _baseline_state(self, trees: ConfigSet) -> Mapping:
        """Every pristine zone record line mapped to its conversion.

        Built once per baseline and only read afterwards: a delta walk
        converts the lines the table lacks without adding them.
        """
        table: dict = {}
        for tree in trees:
            if tree.dialect == "bindzone":
                table.update(bind_record_table(tree))
        return MappingProxyType(table)

    def start_delta(
        self, baseline: BaselineValidation, delta: ScenarioDelta
    ) -> StartResult | None:
        """The shared delta protocol, walking with the baseline's record table."""
        self._known_records = baseline.state or {}
        try:
            return super().start_delta(baseline, delta)
        finally:
            self._known_records = {}

    # ------------------------------------------------------------- zone checks
    @staticmethod
    def check_zones(zones: Mapping[str, str], records: RecordSet) -> list[str]:
        """BIND-style zone sanity checks; returns the list of fatal problems.

        One pass groups the record types by owner, so the checks cost what
        the records do, not records times owners.
        """
        types_by_owner: dict[str, list[str]] = {}
        for record in records:
            types_by_owner.setdefault(record.name, []).append(record.rtype)
        errors: list[str] = []
        for zone_name in zones:
            apex_types = types_by_owner.get(normalize_name(zone_name), ())
            if "SOA" not in apex_types:
                errors.append(f"zone {zone_name}/IN: has no SOA record")
            if "NS" not in apex_types:
                errors.append(f"zone {zone_name}/IN: has no NS records")

        # CNAME exclusivity: an alias owner may not have records of other types.
        alias_owners = set()
        for owner, types in types_by_owner.items():
            if "CNAME" not in types:
                continue
            alias_owners.add(owner)
            other = sorted({rtype for rtype in types if rtype != "CNAME"})
            if other:
                errors.append(f"zone: {owner}: CNAME and other data ({', '.join(other)})")

        # MX / NS targets must not be aliases.
        for record in records:
            if record.rtype in ("MX", "NS") and record.value in alias_owners:
                errors.append(
                    f"zone: {record.name}/{record.rtype} '{record.value}' is a CNAME (illegal)"
                )
        return errors
