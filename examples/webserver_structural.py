#!/usr/bin/env python3
"""Probe a web server's tolerance of structural configuration variations and mistakes.

Part 1 reproduces the Section 5.3 experiment for Apache: generate semantically
neutral variations of ``httpd.conf`` (reordered directives, mixed-case names,
extra whitespace, truncated names) and check which classes the server accepts.

Part 2 injects genuine structural *mistakes* -- omitted directives, duplicated
directives, directives moved into the wrong section -- and summarises how many
of them the server notices.

Run with::

    python examples/webserver_structural.py
"""

from repro import CampaignSuite
from repro.core.profile import InjectionOutcome
from repro.plugins import StructuralErrorsPlugin, StructuralVariationsPlugin
from repro.sut.apache import SimulatedApache


VARIATION_CLASSES = ("directive-order", "separator-whitespace", "mixed-case-names", "truncated-names")


def variation_support() -> None:
    print("Part 1: which structural variations does Apache accept?\n")
    plugins = []
    for variation_class in VARIATION_CLASSES:
        plugin = StructuralVariationsPlugin(classes=[variation_class], variants_per_class=10, min_truncation=8)
        plugin.name = variation_class  # one suite cell (and profile) per class
        plugins.append(plugin)
    result = CampaignSuite({"apache": SimulatedApache}, plugins, seed=2008).run()
    for variation_class in VARIATION_CLASSES:
        profile = result.profiles["apache"][variation_class]
        accepted = len(profile.records_with(InjectionOutcome.IGNORED))
        verdict = "supported" if accepted == len(profile) and len(profile) else "NOT supported"
        print(f"  {variation_class:<22} {accepted}/{len(profile)} variants accepted -> {verdict}")
    print()


def structural_mistakes() -> None:
    print("Part 2: how many structural mistakes does Apache detect?\n")
    plugin = StructuralErrorsPlugin(
        include=["omit-directive", "duplicate-directive", "misplace-directive"],
        max_scenarios_per_class=25,
    )
    suite = CampaignSuite({"apache": SimulatedApache}, [plugin], seed=2008)
    profile = suite.run().overall("apache")
    for category, sub_profile in sorted(profile.by_category().items()):
        print(
            f"  {category:<28} injected={sub_profile.injected_count():<3} "
            f"detected={sub_profile.detection_rate():.0%}"
        )
    print()
    print(
        "Duplications and misplacements are usually absorbed silently (the last value wins),\n"
        "which is exactly the latent-error risk the paper highlights for copy-paste mistakes."
    )


def main() -> None:
    variation_support()
    structural_mistakes()


if __name__ == "__main__":
    main()
