"""Resilience profiles: the sole output of a ConfErr run.

A profile records, for every synthesised injection, the injected error and
the corresponding system behaviour (paper Section 3.1).  Outcomes follow the
paper's three-way classification -- detected at startup, detected by the
functional tests, or ignored -- extended with two bookkeeping outcomes: the
mutation could not be expressed in the native format (Section 5.4's "N/A"),
and harness errors unrelated to the injected fault.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable, Iterator

__all__ = [
    "InjectionOutcome",
    "InjectionRecord",
    "ResilienceProfile",
    "DETECTION_BINS",
    "detection_bin",
]


class InjectionOutcome(Enum):
    """How the system under test reacted to one injected configuration error."""

    #: The SUT refused to start (it most likely detected the error).
    DETECTED_AT_STARTUP = "detected-at-startup"
    #: The SUT started but the diagnosis suite failed.
    DETECTED_BY_TESTS = "detected-by-tests"
    #: The SUT started and all functional tests passed: the error was ignored.
    IGNORED = "ignored"
    #: The mutated configuration cannot be expressed in the native format.
    INJECTION_IMPOSSIBLE = "injection-impossible"
    #: The harness itself failed; the record is excluded from statistics.
    HARNESS_ERROR = "harness-error"
    #: The experiment exceeded its deadline and was cancelled by the
    #: watchdog; like harness errors, excluded from statistics.
    TIMEOUT = "timeout"

    def is_detected(self) -> bool:
        """True for the two outcomes in which the error was caught."""
        return self in (InjectionOutcome.DETECTED_AT_STARTUP, InjectionOutcome.DETECTED_BY_TESTS)

    def counts_as_injected(self) -> bool:
        """True when the scenario actually resulted in a faulty configuration."""
        return self in (
            InjectionOutcome.DETECTED_AT_STARTUP,
            InjectionOutcome.DETECTED_BY_TESTS,
            InjectionOutcome.IGNORED,
        )


@dataclass
class InjectionRecord:
    """One line of the resilience profile."""

    scenario_id: str
    category: str
    description: str
    outcome: InjectionOutcome
    messages: list[str] = field(default_factory=list)
    failed_tests: list[str] = field(default_factory=list)
    metadata: dict[str, Any] = field(default_factory=dict)
    duration_seconds: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable representation."""
        return {
            "scenario_id": self.scenario_id,
            "category": self.category,
            "description": self.description,
            "outcome": self.outcome.value,
            "messages": list(self.messages),
            "failed_tests": list(self.failed_tests),
            "metadata": dict(self.metadata),
            "duration_seconds": self.duration_seconds,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "InjectionRecord":
        """Rebuild a record from :meth:`to_dict` output."""
        return cls(
            scenario_id=data["scenario_id"],
            category=data.get("category", ""),
            description=data.get("description", ""),
            outcome=InjectionOutcome(data["outcome"]),
            messages=list(data.get("messages", [])),
            failed_tests=list(data.get("failed_tests", [])),
            metadata=dict(data.get("metadata", {})),
            duration_seconds=float(data.get("duration_seconds", 0.0)),
        )


#: Detection-quality bins of Figure 3, as (label, inclusive lower bound, upper bound).
DETECTION_BINS = (
    ("poor", 0.0, 0.25),
    ("fair", 0.25, 0.50),
    ("good", 0.50, 0.75),
    ("excellent", 0.75, 1.0),
)


def detection_bin(rate: float) -> str:
    """Classify a detection rate into the paper's poor/fair/good/excellent bins.

    Boundaries are half-open except the last bin, which includes 1.0:
    rates in [0, 0.25) are poor, [0.25, 0.5) fair, [0.5, 0.75) good and
    [0.75, 1.0] excellent.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"detection rate must be within [0, 1], got {rate}")
    for label, lower, upper in DETECTION_BINS:
        if rate < upper or (label == "excellent" and rate <= upper):
            if rate >= lower:
                return label
    return "excellent"


class ResilienceProfile:
    """Collection of injection records for one system under test."""

    def __init__(self, system_name: str, records: Iterable[InjectionRecord] | None = None):
        self.system_name = system_name
        self._records: list[InjectionRecord] = list(records or [])

    # ------------------------------------------------------------------ build
    def add(self, record: InjectionRecord) -> InjectionRecord:
        """Append one record."""
        self._records.append(record)
        return record

    def extend(self, records: Iterable[InjectionRecord]) -> None:
        """Append many records."""
        self._records.extend(records)

    def merge(self, other: "ResilienceProfile") -> "ResilienceProfile":
        """New profile containing this profile's records followed by ``other``'s."""
        return ResilienceProfile(self.system_name, [*self._records, *other._records])

    # ---------------------------------------------------------------- queries
    def __iter__(self) -> Iterator[InjectionRecord]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> list[InjectionRecord]:
        """All records, in injection order."""
        return list(self._records)

    def records_with(self, outcome: InjectionOutcome) -> list[InjectionRecord]:
        """Records with a specific outcome."""
        return [record for record in self._records if record.outcome is outcome]

    def outcome_counts(self) -> dict[InjectionOutcome, int]:
        """Count of records per outcome (all outcomes present, possibly zero)."""
        counter = Counter(record.outcome for record in self._records)
        return {outcome: counter.get(outcome, 0) for outcome in InjectionOutcome}

    def injected_count(self) -> int:
        """Number of scenarios actually injected (excludes impossible/harness errors)."""
        return sum(1 for record in self._records if record.outcome.counts_as_injected())

    def detected_count(self) -> int:
        """Number of injected errors the system caught (startup or tests)."""
        return sum(1 for record in self._records if record.outcome.is_detected())

    def ignored_count(self) -> int:
        """Number of injected errors that went unnoticed."""
        return sum(1 for record in self._records if record.outcome is InjectionOutcome.IGNORED)

    def detection_rate(self) -> float:
        """Fraction of injected errors that were detected (0.0 when nothing was injected)."""
        injected = self.injected_count()
        return self.detected_count() / injected if injected else 0.0

    def detection_bin(self) -> str:
        """Figure-3 style quality bin of the overall detection rate."""
        return detection_bin(self.detection_rate())

    def categories(self) -> list[str]:
        """Distinct scenario categories, in first-appearance order."""
        seen: dict[str, None] = {}
        for record in self._records:
            seen.setdefault(record.category, None)
        return list(seen)

    def by_category(self) -> dict[str, "ResilienceProfile"]:
        """Split the profile into per-category sub-profiles."""
        result: dict[str, ResilienceProfile] = {}
        for record in self._records:
            result.setdefault(record.category, ResilienceProfile(self.system_name)).add(record)
        return result

    def by_metadata(self, key: str) -> dict[Any, "ResilienceProfile"]:
        """Split the profile by a metadata value (e.g. the targeted directive)."""
        result: dict[Any, ResilienceProfile] = {}
        for record in self._records:
            result.setdefault(record.metadata.get(key), ResilienceProfile(self.system_name)).add(record)
        return result

    # ------------------------------------------------------------ serialisation
    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable representation of the whole profile."""
        counts = self.outcome_counts()
        return {
            "system": self.system_name,
            "total_records": len(self._records),
            "injected": self.injected_count(),
            "detection_rate": self.detection_rate(),
            "outcomes": {outcome.value: count for outcome, count in counts.items()},
            "records": [record.to_dict() for record in self._records],
        }

    def to_json(self, indent: int = 2) -> str:
        """Serialise the profile to JSON text."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ResilienceProfile":
        """Rebuild a profile from :meth:`to_dict` output."""
        records = [InjectionRecord.from_dict(entry) for entry in data.get("records", [])]
        return cls(data.get("system", "unknown"), records)

    @classmethod
    def from_json(cls, text: str) -> "ResilienceProfile":
        """Rebuild a profile from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        """Write the profile to ``path`` as JSON, creating parent directories.

        ``conferr run --output results/out.json`` must work on a fresh
        checkout; raising ``FileNotFoundError`` for a missing ``results/``
        would throw away a whole completed campaign.
        """
        from pathlib import Path

        from repro.core.durable import write_atomic

        target = Path(path).expanduser()
        target.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(target, self.to_json())

    @classmethod
    def load(cls, path: str) -> "ResilienceProfile":
        """Read a profile previously written with :meth:`save`."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def summary(self) -> str:
        """Multi-line human-readable summary (Table 1-style counts)."""
        counts = self.outcome_counts()
        injected = self.injected_count()
        lines = [
            f"Resilience profile for {self.system_name}",
            f"  injected errors:        {injected}",
            f"  detected at startup:    {counts[InjectionOutcome.DETECTED_AT_STARTUP]}",
            f"  detected by tests:      {counts[InjectionOutcome.DETECTED_BY_TESTS]}",
            f"  ignored:                {counts[InjectionOutcome.IGNORED]}",
            f"  impossible to inject:   {counts[InjectionOutcome.INJECTION_IMPOSSIBLE]}",
            f"  harness errors:         {counts[InjectionOutcome.HARNESS_ERROR]}",
            f"  timeouts:               {counts[InjectionOutcome.TIMEOUT]}",
            f"  detection rate:         {self.detection_rate():.1%}",
        ]
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResilienceProfile({self.system_name!r}, records={len(self._records)})"
