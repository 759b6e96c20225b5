"""The latency wrapper must change timing only -- never outcomes."""

import time
from functools import partial

from repro.core.suite import CampaignSuite
from repro.plugins import SpellingMistakesPlugin
from repro.sut.latency import LatencySUT
from repro.sut.postgres import SimulatedPostgres


def _campaign(factory, plugin):
    """Profile of a one-system, one-plugin campaign suite."""
    return CampaignSuite({"postgres": factory}, [plugin], seed=2008).run().overall("postgres")


class TestLatencySUT:
    def test_profiles_match_the_unwrapped_sut(self):
        plugin = SpellingMistakesPlugin(mutations_per_token=1)
        wrapped = _campaign(partial(LatencySUT, SimulatedPostgres, start_latency=0.001), plugin)
        plain = _campaign(SimulatedPostgres, plugin)
        assert wrapped.summary() == plain.summary()
        assert [r.outcome for r in wrapped] == [r.outcome for r in plain]

    def test_delegates_system_specific_probes(self):
        sut = LatencySUT(SimulatedPostgres)
        sut.start(sut.default_configuration())
        # the Postgres functional tests call connect()/query() on whatever
        # SUT the engine passes; the wrapper must forward them
        connection = sut.connect()
        assert connection is not None
        sut.stop()

    def test_start_latency_is_applied(self):
        sut = LatencySUT(SimulatedPostgres, start_latency=0.02)
        started = time.perf_counter()
        result = sut.start(sut.default_configuration())
        elapsed = time.perf_counter() - started
        assert result.started
        assert elapsed >= 0.02
        sut.stop()

    def test_name_and_dialects_pass_through(self):
        sut = LatencySUT(SimulatedPostgres)
        inner = SimulatedPostgres()
        assert sut.name == inner.name
        for filename in inner.default_configuration():
            assert sut.dialect_for(filename) == inner.dialect_for(filename)

    def test_test_latency_wraps_functional_tests(self):
        sut = LatencySUT(SimulatedPostgres, test_latency=0.005)
        sut.start(sut.default_configuration())
        tests = sut.functional_tests()
        assert tests
        started = time.perf_counter()
        result = tests[0].run(sut)
        assert time.perf_counter() - started >= 0.005
        assert result.passed
        sut.stop()
