#!/usr/bin/env python3
"""Quickstart: measure a database server's resilience to configuration typos.

This is the smallest end-to-end use of the library: take a system under test
(the simulated MySQL server), attach the spelling-mistakes error generator,
run the campaign and print the resilience profile -- exactly the workflow the
ConfErr paper describes in its design overview (Section 3.1).

Run with::

    python examples/quickstart.py
"""

from repro import CampaignSuite, SpellingMistakesPlugin
from repro.core.profile import InjectionOutcome
from repro.sut.mysql import SimulatedMySQL


def main() -> None:
    # One realistic typo per configuration token keeps the demo fast; drop the
    # limit to enumerate every possible single-keystroke error.
    plugin = SpellingMistakesPlugin(mutations_per_token=1)
    suite = CampaignSuite({"mysql": SimulatedMySQL}, [plugin], seed=2008)

    result = suite.run()
    profile = result.overall("mysql")

    print(profile.summary())
    print()
    print("Sample of undetected (ignored) errors the server accepted silently:")
    for record in profile.records_with(InjectionOutcome.IGNORED)[:5]:
        print(f"  - {record.description}")

    print()
    print("Per error-model breakdown:")
    for category, sub_profile in sorted(profile.by_category().items()):
        print(
            f"  {category:<22} injected={sub_profile.injected_count():<4}"
            f" detected={sub_profile.detection_rate():.0%}"
        )


if __name__ == "__main__":
    main()
