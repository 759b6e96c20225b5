"""Tests for campaign suites: fan-out, seed derivation, persistence, resume."""

import functools

import pytest

from repro.core.store import ResultStore
from repro.core.suite import CampaignSuite, derive_seed
from repro.errors import CampaignError, StoreError
from repro.plugins import ConstraintViolationPlugin, SpellingMistakesPlugin
from repro.sut.mysql import SimulatedMySQL
from repro.sut.postgres import SimulatedPostgres


def small_suite(live: bool = False, **kwargs) -> CampaignSuite:
    """Two systems x two plugins; ``live`` passes SUT instances, not factories."""
    defaults = dict(seed=11)
    defaults.update(kwargs)
    systems = {"mysql": SimulatedMySQL, "postgres": SimulatedPostgres}
    if live:
        systems = {key: factory() for key, factory in systems.items()}
    return CampaignSuite(
        systems,
        [
            SpellingMistakesPlugin(mutations_per_token=1),
            ConstraintViolationPlugin(),
        ],
        **defaults,
    )


class TestSeedDerivation:
    def test_stable_across_calls(self):
        assert derive_seed(1, "mysql", "spelling") == derive_seed(1, "mysql", "spelling")

    def test_distinct_per_cell(self):
        seeds = {
            derive_seed(1, system, plugin)
            for system in ("mysql", "postgres")
            for plugin in ("spelling", "structural")
        }
        assert len(seeds) == 4

    def test_depends_on_suite_seed(self):
        assert derive_seed(1, "mysql", "spelling") != derive_seed(2, "mysql", "spelling")

    def test_campaign_seed_is_independent_of_plugin_position(self):
        # the seed names the cell, not its position, so reordering plugins
        # cannot silently change the scenario stream
        suite = small_suite()
        assert suite.campaign_seed("mysql", "spelling") == derive_seed(11, "mysql", "spelling")


class TestConstruction:
    def test_requires_systems_and_plugins(self):
        with pytest.raises(CampaignError):
            CampaignSuite({}, [SpellingMistakesPlugin()])
        with pytest.raises(CampaignError):
            CampaignSuite({"mysql": SimulatedMySQL}, [])

    def test_rejects_duplicate_plugin_names(self):
        with pytest.raises(CampaignError, match="unique"):
            CampaignSuite(
                {"mysql": SimulatedMySQL},
                [SpellingMistakesPlugin(), SpellingMistakesPlugin()],
            )

    def test_rejects_duplicate_display_names(self):
        # both keys instantiate SUTs named "MySQL": the rendered tables key
        # columns by display name and would silently merge the two systems
        suite = CampaignSuite(
            {"a": SimulatedMySQL, "b": SimulatedMySQL},
            [SpellingMistakesPlugin(mutations_per_token=1)],
        )
        with pytest.raises(CampaignError, match="display name"):
            suite.run()

    def test_manifest_describes_the_run(self):
        suite = small_suite(layout="dvorak", jobs=3, executor="thread")
        manifest = suite.manifest()
        assert manifest["kind"] == "suite"
        assert manifest["seed"] == 11
        assert manifest["systems"] == {"mysql": "MySQL", "postgres": "Postgres"}
        assert [p["name"] for p in manifest["plugins"]] == ["spelling", "semantic-constraints"]
        assert manifest["layout"] == "dvorak"
        assert manifest["executor"] == {"jobs": 3, "executor": "thread"}


class TestRunWithoutStore:
    def test_produces_complete_profiles(self):
        result = small_suite().run()
        assert set(result.profiles) == {"mysql", "postgres"}
        for system in ("mysql", "postgres"):
            assert set(result.profiles[system]) == {"spelling", "semantic-constraints"}
            assert len(result.overall(system)) > 0
        assert result.total_skipped() == 0
        assert result.total_executed() == sum(
            len(profile)
            for per_plugin in result.profiles.values()
            for profile in per_plugin.values()
        )

    def test_table1_lists_all_systems(self):
        result = small_suite().run()
        assert "MySQL" in result.table1() and "Postgres" in result.table1()

    def test_resume_without_store_is_refused(self):
        with pytest.raises(CampaignError, match="store"):
            small_suite().run(resume=True)

    def test_deterministic_across_invocations(self):
        first = small_suite().run()
        second = small_suite().run()
        assert first.table1() == second.table1()

    def test_live_instances_run_serially_like_factories(self):
        # one instance serves every plugin of its system
        assert small_suite(live=True).run().matrix() == small_suite().run().matrix()

    def test_serial_run_builds_one_sut_per_system(self):
        # the display names, the manifest and every plugin's campaign share
        # the one instance a serial run builds per system
        built: list[str] = []

        def counting(factory, key):
            def build():
                built.append(key)
                return factory()

            return build

        suite = small_suite()
        suite.systems = {key: counting(f, key) for key, f in suite.systems.items()}
        suite.run()
        assert sorted(built) == ["mysql", "postgres"]

    def test_incremental_knob_reaches_every_cell(self, monkeypatch):
        delta_starts: list[str] = []
        for sut_class in (SimulatedMySQL, SimulatedPostgres):
            original = sut_class.start_delta

            def counting(sut, *args, _original=original, **kwargs):
                delta_starts.append(sut.name)
                return _original(sut, *args, **kwargs)

            monkeypatch.setattr(sut_class, "start_delta", counting)
        small_suite(incremental=False).run()
        assert delta_starts == []
        small_suite().run()
        assert set(delta_starts) == {"MySQL", "Postgres"}


class TestBaselineCheck:
    def broken_suite(self, **kwargs) -> CampaignSuite:
        broken = functools.partial(
            SimulatedPostgres, default_config="max_connections = banana\n"
        )
        return CampaignSuite(
            {"postgres": broken}, [SpellingMistakesPlugin(mutations_per_token=1)], **kwargs
        )

    def test_unhealthy_pristine_configuration_is_refused(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(CampaignError, match="not healthy"):
            self.broken_suite().run(store=store)
        assert list(store.iter_records("postgres")) == []

    def test_disabled_check_runs_and_records(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        result = self.broken_suite(check_baseline=False).run(store=store)
        assert result.total_executed() > 0
        assert len(list(store.iter_records("postgres"))) == result.total_executed()


class TestRunWithStore:
    def test_records_land_on_disk_as_the_suite_runs(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        result = small_suite().run(store=store)
        assert store.exists()
        for system in ("mysql", "postgres"):
            on_disk = list(store.iter_records(system))
            assert len(on_disk) == len(result.overall(system))

    def test_existing_store_is_refused_without_resume(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        small_suite().run(store=store)
        with pytest.raises(StoreError, match="already exists"):
            small_suite().run(store=store)

    def test_store_table_is_byte_identical_to_live_table(self, tmp_path):
        from repro.core.report import store_typo_table

        store = ResultStore(tmp_path / "store")
        result = small_suite().run(store=store)
        assert store_typo_table(store) == result.table1()


class TestResume:
    def test_completed_suite_resumes_with_zero_replays(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        first = small_suite().run(store=store)
        second = small_suite().run(store=store, resume=True)
        assert second.total_executed() == 0
        assert second.total_skipped() == first.total_executed()
        assert second.table1() == first.table1()

    def test_interrupted_suite_resumes_the_remainder(self, tmp_path):
        # simulate an interrupt: keep only a prefix of the first run's records
        complete = ResultStore(tmp_path / "complete")
        reference = small_suite().run(store=complete)

        partial = ResultStore(tmp_path / "partial")
        partial.write_manifest(small_suite().manifest())
        kept = 0
        for system in ("mysql", "postgres"):
            for campaign, record in complete.iter_records(system):
                if kept >= 3:
                    break
                partial.append(system, campaign, record)
                kept += 1

        resumed = small_suite().run(store=partial, resume=True)
        assert resumed.total_skipped() == 3
        assert resumed.total_executed() == reference.total_executed() - 3
        assert resumed.table1() == reference.table1()
        # the store now holds the complete run
        total_on_disk = sum(
            1 for system in ("mysql", "postgres") for _ in partial.iter_records(system)
        )
        assert total_on_disk == reference.total_executed()

    def test_resume_with_different_seed_is_refused(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        small_suite().run(store=store)
        with pytest.raises(StoreError, match="seed"):
            small_suite(seed=99).run(store=store, resume=True)

    def test_resume_with_different_plugin_config_is_refused(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        small_suite().run(store=store)
        other = CampaignSuite(
            {"mysql": SimulatedMySQL, "postgres": SimulatedPostgres},
            [
                SpellingMistakesPlugin(mutations_per_token=5),
                ConstraintViolationPlugin(),
            ],
            seed=11,
        )
        with pytest.raises(StoreError, match="plugins"):
            other.run(store=store, resume=True)

    def test_resume_on_fresh_directory_runs_everything(self, tmp_path):
        store = ResultStore(tmp_path / "fresh")
        result = small_suite().run(store=store, resume=True)
        assert result.total_skipped() == 0
        assert result.total_executed() > 0

    def test_executor_settings_do_not_block_resume(self, tmp_path):
        # profiles are executor-invariant, so resuming with different worker
        # settings must be allowed (that is the point of resuming elsewhere)
        store = ResultStore(tmp_path / "store")
        small_suite().run(store=store)
        resumed = small_suite(jobs=3, executor="thread").run(store=store, resume=True)
        assert resumed.total_executed() == 0


class TestKilledRunResumeEquivalence:
    """A run killed mid-store and resumed equals an uninterrupted run.

    The "kill" is an exception raised from inside the store's append path
    (the moment a real interrupt would strike), optionally followed by a
    torn partial line -- the worst state a crash can leave behind.
    """

    @staticmethod
    def _beyond_paper_suite(**kwargs) -> CampaignSuite:
        from repro.plugins import OmissionDuplicationPlugin
        from repro.registry import get_system

        defaults = dict(seed=11)
        defaults.update(kwargs)
        return CampaignSuite(
            {"nginx": get_system("nginx"), "sshd": get_system("sshd")},
            [
                OmissionDuplicationPlugin(max_scenarios_per_class=6),
                SpellingMistakesPlugin(mutations_per_token=1),
            ],
            **defaults,
        )

    class _KilledMidRun(Exception):
        pass

    def _killing_store(self, root, after: int) -> ResultStore:
        outer = self

        class KillingStore(ResultStore):
            appended = 0

            def append(self, system, campaign, record):
                if KillingStore.appended >= after:
                    raise outer._KilledMidRun(f"killed after {after} records")
                KillingStore.appended += 1
                super().append(system, campaign, record)

        return KillingStore(root)

    def test_resumed_matrix_equals_uninterrupted_matrix(self, tmp_path):
        reference_store = ResultStore(tmp_path / "uninterrupted")
        reference = self._beyond_paper_suite().run(store=reference_store)

        killed_root = tmp_path / "killed"
        killing = self._killing_store(killed_root, after=9)
        with pytest.raises(self._KilledMidRun):
            self._beyond_paper_suite().run(store=killing)
        # a real SIGKILL leaves a stale lock a resume breaks (dead pid); an
        # in-process simulated kill must release its writer lock explicitly
        killing.close()

        # the crash may also have torn the final line mid-write
        jsonl_files = sorted(killed_root.glob("*.jsonl"))
        assert jsonl_files, "the killed run left records behind"
        with open(jsonl_files[0], "ab") as handle:
            handle.write(b'{"campaign": "omission", "rec')

        resumed = self._beyond_paper_suite().run(
            store=ResultStore(killed_root), resume=True
        )
        assert resumed.total_skipped() > 0
        assert resumed.total_executed() < reference.total_executed()
        assert resumed.matrix() == reference.matrix()
        assert resumed.table1() == reference.table1()

        # and the on-disk rendering of both stores is identical too
        from repro.core.report import store_matrix_table

        assert store_matrix_table(ResultStore(killed_root)) == store_matrix_table(reference_store)

    def test_resumed_store_renders_byte_identical_from_disk(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        result = self._beyond_paper_suite().run(store=store)

        from repro.core.report import store_matrix_table

        assert store_matrix_table(store) == result.matrix()


class _KilledMidRun(Exception):
    pass


class _KillingStore(ResultStore):
    """A store whose append raises after N records -- the moment a real
    SIGKILL would strike, since the engine releases records to the store
    live under every executor."""

    def __init__(self, root, after: int):
        super().__init__(root)
        self.after = after
        self.appended = 0

    def append(self, system, campaign, record):
        if self.appended >= self.after:
            raise _KilledMidRun(f"killed after {self.after} records")
        self.appended += 1
        super().append(system, campaign, record)


class TestParallelKillDurability:
    """A --jobs 4 run killed mid-campaign keeps its completed records.

    This is the durability bug the streaming pipeline fixes: the old
    barrier executors fired the suite's store appends only after a whole
    (system, plugin) cell had finished, so a killed parallel run silently
    discarded everything in flight and --resume re-ran work that had
    actually completed.  Now records stream to disk in scenario order as
    the front of the sequence completes, under the thread and the process
    strategy alike.
    """

    KILL_AFTER = 9

    def _count_records(self, root) -> int:
        store = ResultStore(root)
        return sum(1 for system in ("mysql", "postgres") for _ in store.iter_records(system))

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_killed_parallel_run_keeps_all_but_in_flight_records(self, tmp_path, executor):
        reference = small_suite(jobs=4, executor=executor).run(
            store=ResultStore(tmp_path / "reference")
        )
        assert reference.total_executed() > self.KILL_AFTER + 4

        killed_root = tmp_path / "killed"
        killing = _KillingStore(killed_root, after=self.KILL_AFTER)
        with pytest.raises(_KilledMidRun):
            small_suite(jobs=4, executor=executor).run(store=killing)
        # in-process kill: release the writer lock a real dead pid would
        # leave stale (and breakable) for the resume below
        killing.close()

        # everything released before the kill is on disk -- with an
        # exception-kill the in-order release makes that exactly N records;
        # a SIGKILL could additionally tear the final line, never more
        on_disk = self._count_records(killed_root)
        assert on_disk == self.KILL_AFTER
        assert on_disk >= self.KILL_AFTER - 4  # the issue's >= N - jobs floor

        # --resume replays only the genuinely missing scenarios
        resumed = small_suite(jobs=4, executor=executor).run(
            store=ResultStore(killed_root), resume=True
        )
        assert resumed.total_skipped() == on_disk
        assert resumed.total_executed() == reference.total_executed() - on_disk
        assert resumed.table1() == reference.table1()
        assert self._count_records(killed_root) == reference.total_executed()

    def test_killed_parallel_run_with_torn_tail_still_resumes(self, tmp_path):
        killed_root = tmp_path / "killed"
        killing = _KillingStore(killed_root, after=self.KILL_AFTER)
        with pytest.raises(_KilledMidRun):
            small_suite(jobs=4, executor="thread").run(store=killing)
        killing.close()
        jsonl_files = sorted(killed_root.glob("*.jsonl"))
        assert jsonl_files, "the killed run left records behind"
        with open(jsonl_files[0], "ab") as handle:
            handle.write(b'{"campaign": "spelling", "rec')  # SIGKILL mid-write

        reference = small_suite().run()
        resumed = small_suite(jobs=4, executor="thread").run(
            store=ResultStore(killed_root), resume=True
        )
        assert resumed.total_skipped() == self.KILL_AFTER
        assert resumed.table1() == reference.table1()


class TestRecordObserver:
    def test_record_observer_fires_after_the_store_append(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        observed: list[tuple[str, str, str, int]] = []

        def observer(system, plugin, record):
            # by the time the observer reports a record, it is already durable
            on_disk = sum(1 for _ in ResultStore(store.root).iter_records(system))
            observed.append((system, plugin, record.scenario_id, on_disk))

        suite = small_suite(jobs=4, executor="thread", record_observer=observer)
        result = suite.run(store=store)
        assert len(observed) == result.total_executed()
        per_system: dict[str, int] = {}
        for system, _plugin, _scenario, on_disk in observed:
            per_system[system] = per_system.get(system, 0) + 1
            assert on_disk >= per_system[system]

    @pytest.mark.parametrize("jobs,executor", [(1, None), (4, "thread")])
    def test_record_observer_without_store_sees_scenario_order(self, jobs, executor):
        observed: list[str] = []
        suite = small_suite(
            jobs=jobs,
            executor=executor,
            record_observer=lambda system, plugin, record: observed.append(record.scenario_id),
        )
        result = suite.run()
        expected = []
        for system in ("mysql", "postgres"):
            for profile in result.profiles[system].values():
                expected.extend(record.scenario_id for record in profile.records)
        assert observed == expected
