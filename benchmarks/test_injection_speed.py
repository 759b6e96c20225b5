"""Benchmark: per-injection cost (Section 5.2 timing remarks).

The paper reports 2.2 s (MySQL), 6 s (Postgres) and 1.1 s (Apache) per
injection experiment when driving the real servers; with the simulated
servers one experiment (materialise faulty files + start + diagnose + stop)
runs in milliseconds.  These benchmarks record the per-system cost; see
the per-injection section of ``docs/PERFORMANCE.md``.
"""

import pytest

from benchmarks.conftest import BENCH_SEED
from repro.bench.timing import single_injection_callable
from repro.core.profile import InjectionRecord
from repro.sut.apache import SimulatedApache
from repro.sut.dns import SimulatedBIND, SimulatedDjbdns
from repro.sut.mysql import SimulatedMySQL
from repro.sut.postgres import SimulatedPostgres

SYSTEMS = {
    "mysql": SimulatedMySQL,
    "postgres": SimulatedPostgres,
    "apache": SimulatedApache,
    "bind": SimulatedBIND,
    "djbdns": SimulatedDjbdns,
}


@pytest.mark.parametrize("system_name", sorted(SYSTEMS))
def test_single_injection_experiment_speed(benchmark, system_name):
    run_one = single_injection_callable(SYSTEMS[system_name](), seed=BENCH_SEED)
    record = benchmark(run_one)
    assert isinstance(record, InjectionRecord)
    # one experiment must stay far below the paper's seconds-per-injection cost
    assert benchmark.stats.stats.mean < 1.0
