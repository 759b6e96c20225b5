"""Fault tolerance of the harness: watchdog, crash retry, quarantine, resume.

The acceptance bar mirrors the executor tests' determinism bar: under a
seeded chaos wrapper (:mod:`repro.sut.chaos`) a campaign must *complete*
under every executor strategy, the non-faulted records must be identical to
a fault-free run's (modulo wall-clock durations), and every faulted
scenario must surface exactly once as a quarantined ``TIMEOUT`` /
``HARNESS_ERROR`` record -- never silently vanish, never duplicate.
"""

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.campaign import Campaign
from repro.core.faults import (
    FaultPolicy,
    GuardedWorker,
    WorkerCrashed,
    crash_record,
    timeout_record,
)
from repro.core.profile import InjectionOutcome
from repro.core.spec import ExecutionSpec
from repro.core.store import ResultStore
from repro.core.suite import CampaignSuite
from repro.core.templates.base import FaultScenario
from repro.plugins import SpellingMistakesPlugin
from repro.registry import get_system
from repro.sut.chaos import ChaosFactory

SEED = 2008

#: Small, fast policy for tests: short watchdog deadline, short setup grace
#: (the simulated SUT contexts build in milliseconds), fast backoff.
FAST_POLICY = FaultPolicy(
    timeout_seconds=0.4,
    max_retries=1,
    retry_backoff_seconds=0.01,
    setup_grace_seconds=2.0,
)


def _scenario(scenario_id="s1"):
    return FaultScenario(scenario_id=scenario_id, description="d", category="c")


# --------------------------------------------------------------- FaultPolicy
class TestFaultPolicy:
    def test_from_execution_defaults_to_off(self):
        assert FaultPolicy.from_execution(ExecutionSpec()) is None

    def test_from_execution_any_knob_turns_it_on(self):
        policy = FaultPolicy.from_execution(ExecutionSpec(seed=7, timeout_seconds=30))
        assert policy == FaultPolicy(timeout_seconds=30.0, backoff_seed=7)
        policy = FaultPolicy.from_execution(ExecutionSpec(max_retries=0))
        assert policy is not None and policy.max_retries == 0
        assert policy.timeout_seconds is None

    def test_backoff_is_deterministic_and_exponential(self):
        policy = FaultPolicy(retry_backoff_seconds=0.1, backoff_seed=3)
        first = policy.backoff_delay("scenario-x", 1)
        assert first == policy.backoff_delay("scenario-x", 1)
        # exponential base with jitter in [0.5, 1.5)
        for attempt in (1, 2, 3):
            delay = policy.backoff_delay("scenario-x", attempt)
            base = 0.1 * 2 ** (attempt - 1)
            assert 0.5 * base <= delay < 1.5 * base

    def test_backoff_depends_on_seed_and_key(self):
        a = FaultPolicy(backoff_seed=1).backoff_delay("k", 1)
        b = FaultPolicy(backoff_seed=2).backoff_delay("k", 1)
        c = FaultPolicy(backoff_seed=1).backoff_delay("other", 1)
        assert len({a, b, c}) == 3

    def test_scenario_budget_includes_setup_grace_once(self):
        policy = FaultPolicy(timeout_seconds=1.0, setup_grace_seconds=5.0)
        assert policy.scenario_budget(fresh_runner=True) == 6.0
        assert policy.scenario_budget(fresh_runner=False) == 1.0
        assert FaultPolicy().scenario_budget(fresh_runner=True) is None

    def test_block_deadline_none_without_timeout(self):
        assert FaultPolicy().block_deadline(10) is None
        assert FaultPolicy(timeout_seconds=1.0).block_deadline(10) > 10


# ------------------------------------------------------------ GuardedWorker
class _FakeContext:
    """Scripted worker context: each run() pops the next behaviour."""

    def __init__(self, script):
        self.script = script

    def run(self, scenario):
        action = self.script.pop(0)
        if action == "ok":
            return timeout_record(scenario, None)  # any record object will do
        if action == "hang":
            import time

            time.sleep(60)
        if action == "crash":
            raise WorkerCrashed("scripted crash")
        raise RuntimeError("scripted harness bug")


class TestGuardedWorker:
    def test_hang_becomes_timeout_record_and_context_is_rebuilt(self):
        builds = []

        def build():
            builds.append(1)
            return _FakeContext(["hang", "ok"])

        worker = GuardedWorker(build, FAST_POLICY)
        record = worker.run(_scenario())
        assert record.outcome is InjectionOutcome.TIMEOUT
        assert record.metadata["quarantined"] is True
        assert record.metadata["harness_fault"] == "timeout"
        # the hung runner was abandoned: the next scenario builds a new one
        worker.run(_scenario("s2"))
        assert len(builds) == 2
        worker.close()

    def test_crash_retries_then_succeeds(self):
        scripts = iter([["crash"], ["ok"]])
        worker = GuardedWorker(lambda: _FakeContext(next(scripts)), FAST_POLICY)
        record = worker.run(_scenario())
        # first context crashed, the retry on a fresh context succeeded
        assert record.outcome is not InjectionOutcome.HARNESS_ERROR
        worker.close()

    def test_crash_exhausts_retries_into_quarantine(self):
        worker = GuardedWorker(lambda: _FakeContext(["crash"]), FAST_POLICY)
        record = worker.run(_scenario())
        assert record.outcome is InjectionOutcome.HARNESS_ERROR
        assert record.metadata["quarantined"] is True
        assert record.metadata["harness_fault"] == "worker-crash"
        assert "scripted crash" in record.messages[0]
        # the worker-side traceback is preserved for debugging
        assert any("WorkerCrashed" in message for message in record.messages)
        worker.close()

    def test_plain_exception_is_a_harness_bug_and_reraises(self):
        worker = GuardedWorker(lambda: _FakeContext(["boom"]), FAST_POLICY)
        with pytest.raises(RuntimeError, match="scripted harness bug"):
            worker.run(_scenario())
        worker.close()

    def test_without_timeout_crash_policy_still_applies(self):
        policy = FaultPolicy(max_retries=0, retry_backoff_seconds=0.0)
        worker = GuardedWorker(lambda: _FakeContext(["crash"]), policy)
        record = worker.run(_scenario())
        assert record.outcome is InjectionOutcome.HARNESS_ERROR
        worker.close()


# ----------------------------------------------------- harness-level chaos
def _chaos_campaign(jobs, executor, *, hang=0.0, crash=0.0, policy=FAST_POLICY):
    factory = ChaosFactory(
        get_system("djbdns"),
        hang_fraction=hang,
        crash_fraction=crash,
        seed=SEED,
        hang_seconds=30.0,
    )
    return Campaign(
        factory,
        [SpellingMistakesPlugin(mutations_per_token=1)],
        seed=SEED,
        check_baseline=False,
        jobs=jobs,
        executor=executor,
        policy=policy,
    )


def _plain_profile():
    campaign = Campaign(
        get_system("djbdns"),
        [SpellingMistakesPlugin(mutations_per_token=1)],
        seed=SEED,
        check_baseline=False,
    )
    return campaign.run().overall


def _comparable(record):
    """Everything that must be identical across executors and chaos runs."""
    return (
        record.scenario_id,
        record.category,
        record.description,
        record.outcome,
        tuple(record.messages),
        tuple(sorted(record.metadata.items())),
    )


class TestChaosTimeouts:
    @pytest.mark.parametrize(
        "jobs,executor", [(1, None), (4, "thread"), (4, "process")]
    )
    def test_hung_scenarios_time_out_everywhere(self, jobs, executor):
        plain = {r.scenario_id: r for r in _plain_profile().records}
        profile = _chaos_campaign(jobs, executor, hang=0.12).run().overall
        assert len(profile) == len(plain)  # every scenario exactly once
        timeouts = [r for r in profile.records if r.outcome is InjectionOutcome.TIMEOUT]
        assert timeouts, "chaos seed must hang at least one scenario"
        for record in timeouts:
            assert record.metadata["quarantined"] is True
        # non-faulted records are identical to the fault-free run's
        for record in profile.records:
            if record.outcome is InjectionOutcome.TIMEOUT:
                continue
            untouched = plain[record.scenario_id]
            assert _comparable(record) == _comparable(untouched)

    def test_timeouts_do_not_skew_statistics(self):
        profile = _chaos_campaign(1, None, hang=0.12).run().overall
        counts = profile.outcome_counts()
        assert counts[InjectionOutcome.TIMEOUT] > 0
        # like harness errors, timeouts are excluded from the injected base
        assert profile.injected_count() == len(profile) - (
            counts[InjectionOutcome.TIMEOUT]
            + counts[InjectionOutcome.HARNESS_ERROR]
            + counts[InjectionOutcome.INJECTION_IMPOSSIBLE]
        )
        assert "timeouts:" in profile.summary()


class TestChaosCrashes:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_killed_workers_quarantine_exactly_the_guilty(self, executor):
        plain = {r.scenario_id: r for r in _plain_profile().records}
        profile = _chaos_campaign(4, executor, crash=0.12).run().overall
        assert len(profile) == len(plain)
        crashed = {
            r.scenario_id
            for r in profile.records
            if r.outcome is InjectionOutcome.HARNESS_ERROR
        }
        assert crashed, "chaos seed must crash at least one scenario"
        for record in profile.records:
            if record.scenario_id in crashed:
                assert record.metadata["harness_fault"] == "worker-crash"
                assert record.metadata["quarantined"] is True
            else:
                assert _comparable(record) == _comparable(plain[record.scenario_id])

    def test_pool_broken_between_waits_requeues_unsubmitted_blocks(self, monkeypatch):
        """A worker can die after ``wait`` returns and before the window refills.

        ``submit`` then raises ``BrokenProcessPool`` itself.  With a policy
        the stream must respawn the pool and run the refused block there,
        not raise to its caller.
        """
        original_submit = ProcessPoolExecutor.submit
        submits = []

        def racy_submit(pool, fn, *args, **kwargs):
            submits.append(fn)
            if len(submits) == 2:
                raise BrokenProcessPool("a worker died since the last wait")
            return original_submit(pool, fn, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", racy_submit)
        plain = _plain_profile().records
        profile = _chaos_campaign(4, "process").run().overall
        assert len(submits) > 2
        assert [_comparable(r) for r in profile.records] == [_comparable(r) for r in plain]

    def test_blame_is_identical_across_executors(self):
        by_executor = {}
        for executor in ("thread", "process"):
            profile = _chaos_campaign(4, executor, crash=0.12).run().overall
            by_executor[executor] = {
                r.scenario_id
                for r in profile.records
                if r.outcome is InjectionOutcome.HARNESS_ERROR
            }
        assert by_executor["thread"] == by_executor["process"]


# -------------------------------------------------- quarantine-then-resume
def _chaos_suite(*, retry_quarantined=False):
    # 0.2, not the 0.12 of the campaign tests: the suite derives different
    # per-cell seeds, so its scenario stream draws different fates
    factory = ChaosFactory(
        get_system("djbdns"), crash_fraction=0.2, seed=SEED, hang_seconds=30.0
    )
    return CampaignSuite(
        {"djbdns": factory},
        [SpellingMistakesPlugin(mutations_per_token=1)],
        seed=SEED,
        jobs=4,
        executor="thread",
        policy=FAST_POLICY,
        retry_quarantined=retry_quarantined,
    )


class TestQuarantineResume:
    def test_quarantined_scenarios_are_skipped_on_resume(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        _chaos_suite().run(store=store, resume=False)
        quarantined = store.quarantined_ids("djbdns")
        assert quarantined, "chaos seed must quarantine at least one scenario"
        # quarantined records never pollute the main record stream
        main_ids = {
            (campaign, record.scenario_id)
            for campaign, record in store.iter_records("djbdns")
        }
        assert not (main_ids & quarantined)
        store.close()

        resumed = _chaos_suite().run(store=store, resume=True)
        assert resumed.executed["djbdns"] == {"spelling": 0}
        # exactly once: the quarantine manifest did not grow
        assert store.quarantined_ids("djbdns") == quarantined
        assert len(list(store.iter_quarantined("djbdns"))) == len(quarantined)
        store.close()

    def test_retry_quarantined_reattempts_and_requarantines(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        _chaos_suite().run(store=store, resume=False)
        quarantined = store.quarantined_ids("djbdns")
        store.close()

        result = _chaos_suite(retry_quarantined=True).run(store=store, resume=True)
        # the quarantined scenarios ran again -- and, chaos being
        # deterministic, crashed and were quarantined again, exactly once
        assert result.executed["djbdns"] == {"spelling": len(quarantined)}
        assert store.quarantined_ids("djbdns") == quarantined
        assert len(list(store.iter_quarantined("djbdns"))) == len(quarantined)
        store.close()

    def test_store_with_quarantine_verifies_clean(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        _chaos_suite().run(store=store, resume=False)
        store.close()
        report = store.verify()
        assert report.clean, report.summary()
        assert any(check.path == "quarantine.jsonl" for check in report.files)
