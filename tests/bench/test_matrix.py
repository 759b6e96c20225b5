"""Tests for the M-systems x N-plugins resilience matrix."""

import dataclasses

import pytest

from repro.bench.matrix import MATRIX_PLUGINS, MATRIX_SYSTEMS, matrix_spec, render
from repro.core.report import resilience_matrix_table
from repro.core.profile import ResilienceProfile, InjectionOutcome, InjectionRecord
from repro.core.store import ResultStore
from repro.core.suite import CampaignSuite
from repro.errors import StoreError

SMALL = dict(
    systems=["nginx", "sshd"],
    plugins=["omission", "spelling"],
    max_scenarios_per_class=4,
    seed=2008,
)


def _record(scenario_id: str, outcome: InjectionOutcome) -> InjectionRecord:
    return InjectionRecord(
        scenario_id=scenario_id, category="test", description="", outcome=outcome
    )


class TestRenderer:
    def test_cells_show_detected_over_injected(self):
        profile = ResilienceProfile("sys")
        profile.add(_record("a", InjectionOutcome.DETECTED_AT_STARTUP))
        profile.add(_record("b", InjectionOutcome.DETECTED_BY_TESTS))
        profile.add(_record("c", InjectionOutcome.IGNORED))
        profile.add(_record("d", InjectionOutcome.INJECTION_IMPOSSIBLE))
        table = resilience_matrix_table({"sys": {"plug": profile}})
        assert "2/3 (67%)" in table

    def test_empty_cells_render_na(self):
        table = resilience_matrix_table({"sys": {"plug": ResilienceProfile("sys")}})
        assert "n/a" in table

    def test_plugin_rows_keep_first_seen_order(self):
        profiles = {
            "sys": {
                "zeta": ResilienceProfile("sys"),
                "alpha": ResilienceProfile("sys"),
            }
        }
        table = resilience_matrix_table(profiles)
        assert table.index("zeta") < table.index("alpha")


class TestDefaults:
    def test_default_matrix_covers_paper_and_new_systems(self):
        assert set(("mysql", "postgres", "apache", "bind", "djbdns")) < set(MATRIX_SYSTEMS)
        assert "nginx" in MATRIX_SYSTEMS and "sshd" in MATRIX_SYSTEMS
        assert "omission" in MATRIX_PLUGINS

    def test_matrix_spec_validates(self):
        matrix_spec(**{k: v for k, v in SMALL.items() if k != "max_scenarios_per_class"}).validate()


def run_matrix(store=None, execution=None, **options):
    spec = matrix_spec(**options)
    if execution is not None:
        spec = dataclasses.replace(spec, execution=execution)
    return CampaignSuite.from_spec(spec).run(store=store).profiles_by_display()


class TestLiveVsStore:
    @pytest.fixture(scope="class")
    def stored_run(self, tmp_path_factory):
        store = ResultStore(tmp_path_factory.mktemp("matrix-store"))
        profiles = run_matrix(store=store, **SMALL)
        return profiles, store

    def test_live_and_store_renders_are_byte_identical(self, stored_run):
        profiles, store = stored_run
        assert render(store.load_profiles()) == render(profiles)

    def test_matrix_lists_every_requested_cell(self, stored_run):
        profiles, _store = stored_run
        assert set(profiles) == {"nginx", "sshd"}
        for per_plugin in profiles.values():
            assert set(per_plugin) == {"omission", "spelling"}

    def test_stored_profiles_match_live_counts(self, stored_run):
        profiles, store = stored_run
        reloaded = store.load_profiles()
        for system, per_plugin in profiles.items():
            for plugin, profile in per_plugin.items():
                assert reloaded[system][plugin].injected_count() == profile.injected_count()
                assert reloaded[system][plugin].detected_count() == profile.detected_count()

    def test_empty_cells_are_present_in_store_backed_results(self, tmp_path):
        # regression: campaigns with zero records used to be missing from
        # store-backed profiles, so looking the cell up raised KeyError
        store = ResultStore(tmp_path / "na-cells")
        live = run_matrix(
            systems=["bind"], plugins=["omission", "semantic-constraints"],
            seed=2008, store=store,
        )
        reloaded = store.load_profiles()
        assert len(reloaded["BIND"]["semantic-constraints"]) == 0
        assert len(live["BIND"]["semantic-constraints"]) == 0
        assert list(reloaded["BIND"]) == ["omission", "semantic-constraints"]

    def test_from_store_requires_a_result_store(self, tmp_path):
        with pytest.raises(StoreError, match="no result store"):
            ResultStore(tmp_path / "bogus").load_profiles()


class TestExecutorInvariance:
    def test_matrix_is_executor_invariant(self):
        serial = run_matrix(**SMALL)
        execution = dataclasses.replace(
            matrix_spec(**SMALL).execution, jobs=4, executor="thread"
        )
        threaded = run_matrix(execution=execution, **SMALL)
        assert render(threaded) == render(serial)
