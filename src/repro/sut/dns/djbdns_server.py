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
from repro.dns.records import DnsRecord
from repro.sut.base import StartResult
from repro.sut.dns.nameserver import SimulatedNameServer
from repro.sut.dns.zonedata import RecordDataError, config_set_to_records

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


def _is_number(text: str) -> bool:
    """Whether ``text`` is a plain decimal number (ASCII digits only)."""
    return text.isascii() and text.isdigit()


def _looks_like_ip(value: str) -> bool:
    parts = value.split(".")
    return len(parts) == 4 and all(_is_number(part) and 0 <= int(part) <= 255 for part in parts)


class SimulatedDjbdns(SimulatedNameServer):
    """Simulated djbdns/tinydns authoritative server."""

    name = "djbdns"
    config_filename = "data"
    missing_file_error = "{filename} file is missing"
    parse_error = "tinydns-data: {error}"
    process_name = "tinydns"

    def __init__(self, data_file: str = DEFAULT_TINYDNS_DATA):
        super().__init__()
        self._data_file = data_file

    # --------------------------------------------------------------- interface
    def default_configuration(self) -> dict[str, str]:
        return {self.config_filename: self._data_file}

    def dialect_for(self, filename: str) -> str:
        return "tinydns"

    # ------------------------------------------------------------------ start
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
            if prefix == "@" and len(fields) > 2 and fields[2] and not _is_number(fields[2]):
                return StartResult.failed(
                    f"tinydns-data: MX distance '{fields[2]}' is not a number in line for {node.name}"
                )
            if prefix == ":" and fields and fields[0] and not _is_number(fields[0]):
                return StartResult.failed(
                    f"tinydns-data: generic record type '{fields[0]}' is not a number"
                )

        try:
            records = config_set_to_records(ConfigSet([tree]))
        except RecordDataError as exc:
            return StartResult.failed(f"tinydns-data: {exc}")
        return self._publish(records)

    def _observable_state(self) -> list[DnsRecord]:
        return list(self._records)
