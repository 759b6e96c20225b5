"""Per-injection timing and campaign throughput (Section 5.2's cost remarks).

The paper reports that each injection experiment took on the order of
seconds on the authors' workstation (2.2 s for MySQL, 6 s for Postgres,
1.1 s for Apache), dominated by starting and stopping the real servers.
With the simulated servers an experiment is orders of magnitude faster.

This module holds the two instruments behind ``docs/PERFORMANCE.md``:
:func:`time_single_injection` (and :func:`single_injection_callable`, which
``benchmarks/test_injection_speed.py`` times with pytest-benchmark) measure
one experiment, and :func:`campaign_throughput` measures end-to-end
scenarios/second for a whole campaign under a chosen executor strategy and
worker count (``benchmarks/test_campaign_throughput.py``).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.campaign import Campaign
from repro.core.executor import WorkerContext, WorkerSpec
from repro.plugins.base import ErrorGeneratorPlugin
from repro.plugins.spelling import SpellingMistakesPlugin
from repro.sut.base import SystemUnderTest, split_sut

__all__ = [
    "time_single_injection",
    "single_injection_callable",
    "ThroughputResult",
    "campaign_throughput",
]


def single_injection_callable(sut: SystemUnderTest, seed: int = 2008):
    """Return a zero-argument callable that performs one injection experiment.

    The scenario generation and the worker context (parse, view, baseline)
    are built once up-front, with the delta fast path off, so the callable
    measures exactly the inject + start + test + stop cycle (what the paper
    times).
    """
    sut, _ = split_sut(sut)
    plugin = SpellingMistakesPlugin(mutations_per_token=1)
    context = WorkerContext.from_spec(WorkerSpec(lambda: sut, plugin, incremental=False))
    scenarios = plugin.generate(context.view_set, random.Random(seed))
    if not scenarios:
        raise RuntimeError(f"no scenarios generated for {sut.name}")
    scenario = scenarios[0]
    return lambda: context.run(scenario)


def time_single_injection(sut: SystemUnderTest, repetitions: int = 10, seed: int = 2008) -> float:
    """Average wall-clock seconds per injection experiment."""
    run_once = single_injection_callable(sut, seed=seed)
    started = time.perf_counter()
    for _ in range(repetitions):
        run_once()
    return (time.perf_counter() - started) / repetitions


@dataclass
class ThroughputResult:
    """End-to-end campaign throughput measurement."""

    system_name: str
    scenarios: int
    seconds: float
    jobs: int
    executor: str | None
    block_size: int | None = None

    @property
    def scenarios_per_second(self) -> float:
        """Scenarios completed per wall-clock second."""
        return self.scenarios / self.seconds if self.seconds > 0 else float("inf")


def campaign_throughput(
    sut: SystemUnderTest | Callable[[], SystemUnderTest],
    plugins: Sequence[ErrorGeneratorPlugin],
    seed: int = 2008,
    jobs: int = 1,
    executor: str | None = None,
    block_size: int | None = None,
    check_baseline: bool = False,
) -> ThroughputResult:
    """Run one campaign and measure its scenarios/second.

    The clock covers the whole campaign -- scenario generation, injection,
    SUT lifecycle and merging -- because that is the quantity an operator
    sizing a profiling run cares about.
    """
    campaign = Campaign(
        sut,
        list(plugins),
        seed=seed,
        check_baseline=check_baseline,
        jobs=jobs,
        executor=executor,
        block_size=block_size,
    )
    started = time.perf_counter()
    result = campaign.run()
    elapsed = time.perf_counter() - started
    overall = result.overall
    return ThroughputResult(
        system_name=overall.system_name,
        scenarios=len(overall),
        seconds=elapsed,
        jobs=jobs,
        executor=executor,
        block_size=block_size,
    )
