"""Table 1 -- resilience to typos.

The paper injects three kinds of errors into the default configuration files
of MySQL, Postgres and Apache (Section 5.2):

* deletion of entire directives,
* typos in directive names (for each section, up to ten selected
  directives get typos in their names),
* typos in directive values (same selection, typos in the values).

Outcomes are classified as detected at startup, detected by the functional
tests or ignored; :func:`render` merges each system's three campaigns and
renders the Table 1 layout.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.profile import ResilienceProfile
from repro.core.report import typo_resilience_table
from repro.core.spec import ExecutionSpec, ExperimentSpec, PluginSpec, SystemSpec
from repro.core.views.token_view import TOKEN_DIRECTIVE_NAME, TOKEN_DIRECTIVE_VALUE

__all__ = ["table1_spec", "render", "merged"]


def table1_spec(
    seed: int = 2008, typos_per_directive: int = 10, directives_per_section: int = 10
) -> ExperimentSpec:
    """The Table 1 experiment as a declarative spec.

    MySQL uses the server-group-only workload variant so that every injected
    typo targets a directive the server actually parses at startup; the paper
    counts 14 directives for MySQL, 8 for Postgres and 98 for Apache.  The
    two ``spelling`` entries carry distinct labels -- they are separate
    campaigns over different token types -- and the same per-section
    directive selection.
    """
    typo_params = {
        "mutations_per_token": typos_per_directive,
        "directives_per_section": directives_per_section,
    }
    return ExperimentSpec(
        systems=(
            SystemSpec("mysql-server-only", label="MySQL"),
            SystemSpec("postgres", label="Postgres"),
            SystemSpec("apache", label="Apache"),
        ),
        plugins=(
            PluginSpec("structural", label="omit-directive", params={"include": ["omit-directive"]}),
            PluginSpec(
                "spelling",
                label="name-typos",
                params={"token_types": [TOKEN_DIRECTIVE_NAME], **typo_params},
            ),
            PluginSpec(
                "spelling",
                label="value-typos",
                params={"token_types": [TOKEN_DIRECTIVE_VALUE], **typo_params},
            ),
        ),
        execution=ExecutionSpec(seed=seed),
    )


def merged(profiles: Mapping[str, Mapping[str, ResilienceProfile]]) -> dict[str, ResilienceProfile]:
    """Each system's campaigns merged into one profile."""
    return {
        system: ResilienceProfile(system, [r for profile in cells.values() for r in profile.records])
        for system, cells in profiles.items()
    }


def render(profiles: Mapping[str, Mapping[str, ResilienceProfile]]) -> str:
    """The Table 1 layout over any suite's profiles."""
    return typo_resilience_table(merged(profiles))
