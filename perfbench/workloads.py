"""The benchmark's workloads: which spec each one runs, and how.

Every workload is an experiment spec driven the way a user drives one:
spec file -> ``CampaignSuite`` -> ``ResultStore`` -> store renderers.  The
benchmark's ``--seed`` replaces the spec's suite seed, so one seed always
gives the same scenarios.  Why each workload exists is recorded in
BENCHMARK.json and METRICS.md.  Nothing here imports the program; the parent
process only orchestrates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

PAPER_SUITE = "examples/specs/paper_suite.toml"

#: Seed of the committed reference outcomes (the shipped specs' own seed).
REFERENCE_SEED = 2008


@dataclass(frozen=True)
class Workload:
    name: str
    spec_file: str
    #: ``ExecutionSpec`` fields replaced on top of the spec file (besides the seed).
    execution: dict = field(default_factory=dict)
    #: The workload whose slow-path records this one must reproduce exactly.
    outcomes_of: str = ""


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("paper-suite", PAPER_SUITE, outcomes_of="paper-suite"),
        Workload(
            "process-fanout",
            PAPER_SUITE,
            execution={"executor": "process", "jobs": 2},
            outcomes_of="paper-suite",
        ),
    )
}

#: ``ExecutionSpec`` fields of the reference run: serial and without the
#: incremental fast path, i.e. the slow path the fast path must agree with.
REFERENCE_EXECUTION = {"incremental": False, "jobs": 1, "executor": None}
