"""Table 2 -- resilience to structural errors (configuration variations).

For each system and each variation class of Section 5.3 the experiment
creates ``variants_per_class`` semantically-equivalent configuration files
and checks whether the system accepts all of them.  A class is "Yes" when
every variant starts and passes the functional tests, "No" when at least one
is rejected, and "n/a" when the class does not apply to the system's format
(for example section reordering for the flat ``postgresql.conf``).
"""

from __future__ import annotations

from typing import Mapping

from repro.core.profile import ResilienceProfile
from repro.core.report import classify_structural_support, structural_support_table
from repro.core.spec import ExecutionSpec, ExperimentSpec, PluginSpec, SystemSpec
from repro.errors import StoreError

__all__ = ["table2_spec", "render", "support_matrix", "VARIATION_LABELS", "APPLICABLE_CLASSES"]

#: Human-readable row labels, in the paper's order.
VARIATION_LABELS = {
    "section-order": "Order of sections",
    "directive-order": "Order of directives",
    "separator-whitespace": "Spaces near separators",
    "mixed-case-names": "Mixed-case directive names",
    "truncated-names": "Truncatable directive names",
}

#: Which variation classes apply to which system.  Reordering top-level
#: sections is meaningful for MySQL's flat group structure but not for the
#: sectionless postgresql.conf nor for Apache's nested, context-carrying
#: containers -- the paper marks both "n/a".
APPLICABLE_CLASSES = {
    "MySQL": tuple(VARIATION_LABELS),
    "Postgres": tuple(c for c in VARIATION_LABELS if c != "section-order"),
    "Apache": tuple(c for c in VARIATION_LABELS if c != "section-order"),
}


def table2_spec(
    seed: int = 2008, variants_per_class: int = 10, min_truncation: int = 8
) -> ExperimentSpec:
    """The Table 2 experiment as a declarative spec.

    One ``structural-variations`` entry per variation class, labelled with
    the paper's row name -- each class is its own campaign, so the support
    matrix can be rebuilt cell-exactly from a store.
    """
    return ExperimentSpec(
        systems=(
            SystemSpec("mysql", label="MySQL"),
            SystemSpec("postgres", label="Postgres"),
            SystemSpec("apache", label="Apache"),
        ),
        plugins=tuple(
            PluginSpec(
                "structural-variations",
                label=label,
                params={
                    "classes": [variation_class],
                    "variants_per_class": variants_per_class,
                    "min_truncation": min_truncation,
                },
            )
            for variation_class, label in VARIATION_LABELS.items()
        ),
        execution=ExecutionSpec(seed=seed),
    )


def support_matrix(
    profiles: Mapping[str, Mapping[str, ResilienceProfile]],
) -> dict[str, dict[str, str]]:
    """System -> variation label -> "Yes"/"No"/"n/a".

    A class outside the system's :data:`APPLICABLE_CLASSES` is "n/a" even
    when it ran; a class without records classifies as "n/a" too.
    """
    if not any(label in cells for cells in profiles.values() for label in VARIATION_LABELS.values()):
        raise StoreError(
            "Table 2 needs a structural-variations campaign labelled with a "
            f"variation class ({', '.join(VARIATION_LABELS.values())}); none found",
            "store/incompatible",
        )
    support: dict[str, dict[str, str]] = {}
    for system, cells in profiles.items():
        applicable = APPLICABLE_CLASSES.get(system, tuple(VARIATION_LABELS))
        support[system] = {
            label: (
                classify_structural_support(cells.get(label, ResilienceProfile(system)))
                if variation_class in applicable
                else "n/a"
            )
            for variation_class, label in VARIATION_LABELS.items()
        }
    return support


def render(profiles: Mapping[str, Mapping[str, ResilienceProfile]]) -> str:
    """The Table 2 support matrix with its "% of assumptions satisfied" row."""
    return structural_support_table(support_matrix(profiles))
