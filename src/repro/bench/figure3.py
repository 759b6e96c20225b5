"""Figure 3 -- comparing the typo resilience of MySQL and Postgres.

The Section 5.5 benchmark views configuration as a transformation of an
initial file and measures how many of the errors introduced along the way
the system detects.  Concretely (and as in the paper):

* the starting configuration contains most of the available directives with
  their default values; directives with boolean values or no default are
  excluded,
* only typos in directive *values* are injected (name typos are detected by
  both systems and would not differentiate them),
* each directive receives ``experiments_per_directive`` independent typo
  experiments (the paper uses 20),
* the per-directive detection rate is binned into poor / fair / good /
  excellent, and Figure 3 reports the share of directives in each bin.
"""

from __future__ import annotations

import json
from typing import Mapping

from repro.core.profile import ResilienceProfile
from repro.core.report import (
    detection_distribution,
    per_directive_detection_rates,
    render_distribution_chart,
)
from repro.core.spec import ExecutionSpec, ExperimentSpec, PluginSpec, SystemSpec
from repro.core.views.token_view import TOKEN_DIRECTIVE_VALUE
from repro.errors import StoreError

__all__ = ["figure3_spec", "render", "directive_rates"]

#: Campaign key of the one plugin the comparison runs per system.
FIGURE3_CAMPAIGN = "value-typos"


def figure3_spec(seed: int = 2008, experiments_per_directive: int = 20) -> ExperimentSpec:
    """The Figure 3 comparison as a declarative spec.

    Both systems run the full-directive workload variants (most available
    directives at their defaults, Section 5.5) with value typos only.
    """
    return ExperimentSpec(
        systems=(
            SystemSpec("mysql-full-directives", label="MySQL"),
            SystemSpec("postgres-full-directives", label="Postgresql"),
        ),
        plugins=(
            PluginSpec(
                "spelling",
                label=FIGURE3_CAMPAIGN,
                params={
                    "token_types": [TOKEN_DIRECTIVE_VALUE],
                    "mutations_per_token": experiments_per_directive,
                },
            ),
        ),
        execution=ExecutionSpec(seed=seed),
    )


def directive_rates(
    profiles: Mapping[str, Mapping[str, ResilienceProfile]],
) -> dict[str, dict[str, float]]:
    """System -> directive -> detection rate over its directive-value typos."""
    value_typos = {
        system: ResilienceProfile(
            system,
            [
                record
                for profile in cells.values()
                for record in profile.records
                if record.metadata.get("token_type") == TOKEN_DIRECTIVE_VALUE
            ],
        )
        for system, cells in profiles.items()
    }
    if not any(len(profile) for profile in value_typos.values()):
        raise StoreError("Figure 3 needs directive-value typo records; none found")
    return {system: per_directive_detection_rates(profile) for system, profile in value_typos.items()}


def render(profiles: Mapping[str, Mapping[str, ResilienceProfile]]) -> str:
    """The Figure 3 chart followed by the bin shares as JSON."""
    distributions = {
        system: detection_distribution(rates)
        for system, rates in directive_rates(profiles).items()
    }
    return f"{render_distribution_chart(distributions)}\n\n{json.dumps(distributions, indent=2)}"
