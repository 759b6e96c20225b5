"""What the simulated name servers share: serving the records a start published.

BIND and djbdns differ in the files they read and in what they check at load
time, and agree on everything after it.  A family's walk
(``_start_from_trees``) validates its files, converts them into a
:class:`~repro.dns.records.RecordSet` and ends in
:meth:`SimulatedNameServer._publish`; queries, the served record set, the
stop and the DNS diagnosis suite come with :class:`SimulatedNameServer`.
"""

from __future__ import annotations

from repro.dns.records import DnsRecord, RecordSet
from repro.dns.resolver import ResolutionError, Resolver
from repro.sut.base import FunctionalTest, StartResult, SystemUnderTest
from repro.sut.functional import dns_suite

__all__ = ["SimulatedNameServer"]


class SimulatedNameServer(SystemUnderTest):
    """A simulated authoritative name server for ``example.com``."""

    #: Server process named by :meth:`query` while stopped.
    process_name: str

    def __init__(self) -> None:
        self._records: RecordSet | None = None
        self._resolver: Resolver | None = None

    # --------------------------------------------------------------- interface
    def functional_tests(self) -> list[FunctionalTest]:
        return dns_suite("example.com", "2.0.192.in-addr.arpa")

    def is_running(self) -> bool:
        return self._resolver is not None

    def stop(self) -> None:
        self._records = None
        self._resolver = None

    def _publish(self, records: RecordSet) -> StartResult:
        """Serve ``records``: the successful end of a family's walk."""
        self._records = records
        self._resolver = Resolver(records)
        return StartResult.ok()

    # --------------------------------------------------------------- behaviour
    def query(self, name: str, rtype: str) -> list[DnsRecord]:
        """Answer a query against the served records (empty when unanswerable)."""
        if self._resolver is None:
            raise RuntimeError(f"{self.process_name} is not running")
        try:
            return list(self._resolver.resolve(name, rtype).records)
        except ResolutionError:
            return []

    @property
    def records(self) -> RecordSet:
        """Records currently served (empty set when not running)."""
        return self._records if self._records is not None else RecordSet()
