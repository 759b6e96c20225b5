#!/usr/bin/env python3
"""Compare the configuration-error resilience of two database servers.

Reproduces the Section 5.5 benchmark (Figure 3 of the paper): start from a
configuration containing most available directives at their default values,
inject typos into directive *values* (20 independent experiments per
directive), compute the per-directive detection rate and report how many
directives fall into the poor / fair / good / excellent bins for each system.

The expected outcome, as in the paper, is that Postgres -- with its strict
parsing and cross-parameter constraint checking -- detects far more value
typos than MySQL, whose permissive option parser silently accepts or adjusts
most of them.

Run with::

    python examples/compare_databases.py
"""

from repro.bench import figure3
from repro.core.report import detection_distribution
from repro.core.suite import CampaignSuite


def main() -> None:
    spec = figure3.figure3_spec(seed=2008, experiments_per_directive=20)
    profiles = CampaignSuite.from_spec(spec).run().profiles_by_display()

    print("Share of directives per detection-quality bin (Figure 3):\n")
    print(figure3.render(profiles))
    print()

    per_directive_rates = figure3.directive_rates(profiles)
    for system, rates in per_directive_rates.items():
        strongest = sorted(rates.items(), key=lambda item: item[1], reverse=True)[:3]
        weakest = sorted(rates.items(), key=lambda item: item[1])[:3]
        print(f"{system}:")
        print("  best-checked directives:  " + ", ".join(f"{n} ({r:.0%})" for n, r in strongest))
        print("  worst-checked directives: " + ", ".join(f"{n} ({r:.0%})" for n, r in weakest))
        print()

    mysql_poor = detection_distribution(per_directive_rates["MySQL"])["poor"]
    postgres_excellent = detection_distribution(per_directive_rates["Postgres"])["excellent"]
    print(
        f"MySQL leaves {mysql_poor:.0%} of its directives poorly checked, while "
        f"Postgres checks {postgres_excellent:.0%} of its directives excellently."
    )


if __name__ == "__main__":
    main()
