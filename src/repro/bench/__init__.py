"""The paper's evaluation artefacts: one spec builder plus one renderer each.

Every artefact is an M-systems x N-error-classes experiment, so each runs
as an ordinary campaign suite (spec -> :class:`~repro.core.suite.CampaignSuite`
-> store) and renders from the suite's cell profiles:

* :mod:`repro.bench.table1`  -- resilience to typos (Table 1),
* :mod:`repro.bench.table2`  -- resilience to structural variations (Table 2),
* :mod:`repro.bench.table3`  -- resilience to DNS semantic errors (Table 3),
* :mod:`repro.bench.figure3` -- the MySQL vs Postgres value-typo comparison (Figure 3),
* :mod:`repro.bench.matrix`  -- the M-systems x N-plugins resilience matrix
  (beyond the paper: every registered system crossed with every error family),
* :mod:`repro.bench.timing`  -- per-injection wall-clock cost (Section 5.2's timing remarks).

A renderer takes ``{system display name: {campaign label: profile}}`` --
the shape of :meth:`~repro.core.suite.SuiteResult.profiles_by_display` for
a live run and of :meth:`~repro.core.store.ResultStore.load_profiles` for a
stored one -- so a render from disk is byte-identical to the live render by
construction.
``docs/PERFORMANCE.md`` records the timing measurements.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple

from repro.bench import figure3, matrix, table1, table2, table3
from repro.bench.timing import ThroughputResult, campaign_throughput, time_single_injection
from repro.core.profile import ResilienceProfile
from repro.core.spec import ExperimentSpec

__all__ = [
    "ARTIFACTS",
    "Artifact",
    "time_single_injection",
    "campaign_throughput",
    "ThroughputResult",
]

Profiles = Mapping[str, Mapping[str, ResilienceProfile]]


class Artifact(NamedTuple):
    """How to run one artefact and how to render it."""

    spec: Callable[..., ExperimentSpec]
    render: Callable[[Profiles], str]
    #: Keyword arguments of ``spec`` the ``conferr`` sub-command sets from
    #: its same-named flags.
    options: tuple[str, ...] = ()


#: Artefact name (the ``conferr`` sub-command) -> spec builder and renderer.
ARTIFACTS: dict[str, Artifact] = {
    "table1": Artifact(table1.table1_spec, table1.render, ("typos_per_directive",)),
    "table2": Artifact(table2.table2_spec, table2.render, ("variants_per_class",)),
    "table3": Artifact(table3.table3_spec, table3.render),
    "figure3": Artifact(figure3.figure3_spec, figure3.render, ("experiments_per_directive",)),
    "matrix": Artifact(matrix.matrix_spec, matrix.render, ("systems", "plugins")),
}
