"""Table 3 -- resilience to semantic (RFC-1912 style) DNS errors.

For BIND and djbdns the experiment injects record-level faults through the
system-independent record view and classifies each fault class:

* ``found``     -- at least one scenario of the class was detected (the
  server refused to load the zone, or the functional tests failed),
* ``not found`` -- every scenario was served without complaint,
* ``N/A``       -- every scenario was impossible to express in the system's
  configuration format (djbdns' combined ``=`` records).
"""

from __future__ import annotations

from typing import Mapping

from repro.core.profile import ResilienceProfile
from repro.core.report import classify_semantic_behaviour, semantic_behaviour_table
from repro.core.spec import ExecutionSpec, ExperimentSpec, PluginSpec, SystemSpec
from repro.errors import StoreError

__all__ = ["table3_spec", "render", "behaviour_matrix", "FAULT_LABELS", "TABLE3_CAMPAIGN"]

#: Campaign key of the one plugin Table 3 runs per system.
TABLE3_CAMPAIGN = "semantic-dns"

#: Fault classes shown in the paper's Table 3, with the row descriptions.
FAULT_LABELS = {
    "missing-ptr": "Missing PTR",
    "ptr-to-cname": "PTR pointing to CNAME",
    "ns-cname-clash": "dupl name for NS and CNAME",
    "mx-to-cname": "MX pointing to CNAME",
}


def table3_spec(seed: int = 2008, max_scenarios_per_class: int = 3) -> ExperimentSpec:
    """The Table 3 experiment as a declarative spec (the DNS semantic sweep)."""
    return ExperimentSpec(
        systems=(SystemSpec("bind", label="BIND"), SystemSpec("djbdns")),
        plugins=(
            PluginSpec(
                TABLE3_CAMPAIGN,
                params={
                    "classes": list(FAULT_LABELS),
                    "max_scenarios_per_class": max_scenarios_per_class,
                },
            ),
        ),
        execution=ExecutionSpec(seed=seed),
    )


def behaviour_matrix(
    profiles: Mapping[str, Mapping[str, ResilienceProfile]],
) -> dict[str, dict[str, str]]:
    """Fault row label -> system -> "found"/"not found"/"N/A"."""
    if not any(TABLE3_CAMPAIGN in cells for cells in profiles.values()):
        raise StoreError(
            f"Table 3 needs the {TABLE3_CAMPAIGN!r} campaign; none found", "store/incompatible"
        )
    behaviour: dict[str, dict[str, str]] = {label: {} for label in FAULT_LABELS.values()}
    for system, cells in profiles.items():
        by_category = cells.get(TABLE3_CAMPAIGN, ResilienceProfile(system)).by_category()
        for fault_class, label in FAULT_LABELS.items():
            class_profile = by_category.get(f"semantic-{fault_class}", ResilienceProfile(system))
            behaviour[label][system] = classify_semantic_behaviour(class_profile)
    return behaviour


def render(profiles: Mapping[str, Mapping[str, ResilienceProfile]]) -> str:
    """The Table 3 behaviour matrix."""
    return semantic_behaviour_table(behaviour_matrix(profiles))
