"""Simulated djbdns (tinydns) name server.

djbdns reads a single ``data`` file.  Its configuration format is a strength:
the ``=`` selector defines a host's A record and the matching PTR record
together, so whole classes of inconsistency simply cannot be written down
(paper Section 5.4).  Its weakness, which the paper also reports, is that it
performs **no cross-record consistency checking**: an alias that clashes with
NS data or an MX pointing at a CNAME are served without complaint.

The simulated server therefore only validates line syntax (unknown selector
characters, malformed IP addresses, non-numeric MX distances) and otherwise
publishes whatever the data file describes.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.infoset import ConfigSet
from repro.dns.records import DnsRecord, RecordSet
from repro.dns.resolver import ResolutionError, Resolver
from repro.errors import ParseError
from repro.parsers.base import get_dialect
from repro.sut.base import FunctionalTest, StartResult, SystemUnderTest
from repro.sut.dns.zonedata import RecordDataError, config_set_to_records
from repro.sut.functional import dns_suite

__all__ = ["SimulatedDjbdns", "DEFAULT_TINYDNS_DATA"]


#: Default ``data`` file publishing the same hosts, mail exchanger, aliases
#: and TXT/RP/HINFO records as the BIND default zones.  Host address/PTR
#: pairs use the combined ``=`` selector, which is what makes some fault
#: classes inexpressible for djbdns.
DEFAULT_TINYDNS_DATA = """\
# tinydns data file for example.com and its reverse zone
.example.com::ns1.example.com:259200
.2.0.192.in-addr.arpa::ns1.example.com:259200
=ns1.example.com:192.0.2.1:86400
=www.example.com:192.0.2.10:86400
=mail.example.com:192.0.2.20:86400
=shell.example.com:192.0.2.40:86400
@example.com::mail.example.com:10:86400
'example.com:v=spf1 mx -all:86400
'www.example.com:main web server:86400
:www.example.com:17:hostmaster.example.com www.example.com:86400
:www.example.com:13:INTEL-X86 LINUX:86400
Cwebmail.example.com:www.example.com:86400
Cftp.example.com:www.example.com:86400
Cdocs.example.com:www.example.com:86400
"""


def _looks_like_ip(value: str) -> bool:
    parts = value.split(".")
    return len(parts) == 4 and all(part.isdigit() and 0 <= int(part) <= 255 for part in parts)


class SimulatedDjbdns(SystemUnderTest):
    """Simulated djbdns/tinydns authoritative server."""

    name = "djbdns"
    config_filename = "data"

    def __init__(self, data_file: str = DEFAULT_TINYDNS_DATA):
        self._data_file = data_file
        self._records: RecordSet | None = None
        self._resolver: Resolver | None = None

    # --------------------------------------------------------------- interface
    def default_configuration(self) -> dict[str, str]:
        return {self.config_filename: self._data_file}

    def dialect_for(self, filename: str) -> str:
        return "tinydns"

    def functional_tests(self) -> list[FunctionalTest]:
        return dns_suite("example.com", "2.0.192.in-addr.arpa")

    def is_running(self) -> bool:
        return self._resolver is not None

    def stop(self) -> None:
        self._records = None
        self._resolver = None

    # ------------------------------------------------------------------ start
    def start(self, files: Mapping[str, str]) -> StartResult:
        self.stop()
        text = files.get(self.config_filename)
        if text is None:
            return StartResult.failed("data file is missing")
        try:
            tree = get_dialect("tinydns").parse(text, filename=self.config_filename)
        except ParseError as exc:
            return StartResult.failed(f"tinydns-data: {exc}")
        return self._start_from_trees(ConfigSet([tree]), files)

    def _start_from_trees(self, trees: ConfigSet, files: Mapping[str, str]) -> StartResult:
        """Validate and publish from the parsed ``data`` file."""
        tree = trees.get(self.config_filename)
        # Syntax-level validation, mirroring what tinydns-data checks when it
        # compiles data into data.cdb.
        for node in tree.root.children_of_kind("record"):
            prefix = node.get("prefix")
            fields = [str(field) for field in node.get("fields", [])]
            if prefix in ("=", "+", "-") and fields and fields[0] and not _looks_like_ip(fields[0]):
                return StartResult.failed(
                    f"tinydns-data: unable to parse IP address '{fields[0]}' in line for {node.name}"
                )
            if prefix == "@" and len(fields) > 2 and fields[2] and not fields[2].isdigit():
                return StartResult.failed(
                    f"tinydns-data: MX distance '{fields[2]}' is not a number in line for {node.name}"
                )
            if prefix == ":" and fields and fields[0] and not fields[0].isdigit():
                return StartResult.failed(
                    f"tinydns-data: generic record type '{fields[0]}' is not a number"
                )

        try:
            records = config_set_to_records(ConfigSet([tree]))
        except RecordDataError as exc:
            return StartResult.failed(f"tinydns-data: {exc}")
        self._records = records
        self._resolver = Resolver(records)
        return StartResult.ok()

    def _observable_state(self) -> list[DnsRecord]:
        return list(self._records)

    # --------------------------------------------------------------- behaviour
    def query(self, name: str, rtype: str) -> list[DnsRecord]:
        """Answer a query against the published records (empty when unanswerable)."""
        if self._resolver is None:
            raise RuntimeError("tinydns is not running")
        try:
            return list(self._resolver.resolve(name, rtype).records)
        except ResolutionError:
            return []

    @property
    def records(self) -> RecordSet:
        """Records currently served (empty set when not running)."""
        return self._records if self._records is not None else RecordSet()
