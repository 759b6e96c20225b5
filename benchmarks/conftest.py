"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one of the paper's evaluation artefacts; they are
wall-clock heavy compared to unit tests, so each experiment runs exactly once
under pytest-benchmark (the quantities of interest are the produced
table/figure and an order-of-magnitude runtime, not micro-second statistics).

Benchmarks that track a performance trajectory write machine-readable
``BENCH_<name>.json`` files into the gitignored ``benchmarks/out/`` via
:func:`write_bench_json`, so a test run never rewrites a tracked file; CI
uploads them as artifacts so the numbers are comparable across commits.  A
session hook additionally dumps every pytest-benchmark timing into
``BENCH_benchmarks.json``.
"""

import json
from pathlib import Path

import pytest

#: Seed shared by all benchmark experiments (reported results are reproducible).
BENCH_SEED = 2008

#: Where the ``BENCH_*.json`` trajectory files land (gitignored).
BENCH_OUT = Path(__file__).resolve().parent / "out"


def run_suite(spec):
    """Run an artefact's spec as a campaign suite; its cell profiles by display name."""
    from repro.core.suite import CampaignSuite

    return CampaignSuite.from_spec(spec).run().profiles_by_display()


def write_bench_json(name: str, payload: dict) -> Path:
    """Write one ``BENCH_<name>.json`` trajectory file into :data:`BENCH_OUT`."""
    BENCH_OUT.mkdir(exist_ok=True)
    path = BENCH_OUT / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


@pytest.fixture
def run_once(benchmark):
    """Run a callable exactly once under pytest-benchmark and return its result."""

    def _run(function, *args, **kwargs):
        return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return _run


def pytest_sessionfinish(session, exitstatus):
    """Dump every pytest-benchmark timing into ``BENCH_benchmarks.json``."""
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not getattr(bench_session, "benchmarks", None):
        return
    timings = {}
    for meta in bench_session.benchmarks:
        stats = getattr(meta, "stats", None)
        mean = getattr(stats, "mean", None)
        if mean is None:  # fixture-level Metadata nests the Stats one deeper
            mean = getattr(getattr(stats, "stats", None), "mean", None)
        if mean is None:
            continue
        timings[meta.fullname] = {"mean_seconds": mean}
    if timings:
        write_bench_json("benchmarks", {"seed": BENCH_SEED, "timings": timings})
