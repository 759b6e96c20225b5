"""Tests for declarative experiment specs: round-trips, validation, diffing."""

import itertools

import pytest

from repro.core.spec import (
    ExecutionSpec,
    ExperimentSpec,
    PluginSpec,
    StoreSpec,
    SystemSpec,
    derive_seed,
    diff_spec_dicts,
)
from repro.core.store import ResultStore
from repro.core.suite import CampaignSuite
from repro.errors import SpecError, StoreError
from repro.plugins.base import available_plugins, get_plugin
from repro.registry import available_systems, get_system


def spec_for(system: str, plugin: str, **execution) -> ExperimentSpec:
    return ExperimentSpec(
        systems=(SystemSpec(system),),
        plugins=(PluginSpec(plugin),),
        execution=ExecutionSpec(**execution),
    )


class TestRegistry:
    def test_all_paper_systems_registered(self):
        names = available_systems()
        for name in ("mysql", "postgres", "apache", "bind", "djbdns"):
            assert name in names

    def test_workload_variants_registered(self):
        for name in ("mysql-server-only", "mysql-full-directives", "postgres-full-directives"):
            sut = get_system(name)()
            assert sut.start(sut.default_configuration()).started

    def test_unknown_system_lists_alternatives(self):
        with pytest.raises(SpecError, match="available"):
            get_system("oracle")


class TestRoundTrips:
    @pytest.mark.parametrize(
        "system,plugin",
        list(itertools.product(available_systems(), available_plugins())),
    )
    def test_dict_round_trip_is_identity_for_every_combination(self, system, plugin):
        spec = spec_for(system, plugin).validate()
        data = spec.to_dict()
        assert ExperimentSpec.from_dict(data).to_dict() == data

    def test_toml_and_json_loaders_agree(self):
        spec = ExperimentSpec(
            systems=(SystemSpec("mysql"), SystemSpec("postgres", label="PG")),
            plugins=(
                PluginSpec("spelling", params={"mutations_per_token": 3, "layout": "dvorak"}),
                PluginSpec("spelling", label="value-typos", params={"token_types": ["directive-value"]}),
            ),
            execution=ExecutionSpec(seed=7, jobs=2, executor="thread"),
            store=StoreSpec(root="results/run", resume=True),
        ).validate()
        from_toml = ExperimentSpec.from_toml(spec.to_toml())
        from_json = ExperimentSpec.from_json(spec.to_json())
        assert from_toml == from_json == spec
        assert from_toml.to_dict() == from_json.to_dict() == spec.to_dict()

    def test_from_file_handles_both_formats(self, tmp_path):
        spec = spec_for("postgres", "spelling", seed=5)
        toml_path = tmp_path / "spec.toml"
        toml_path.write_text(spec.to_toml(), encoding="utf-8")
        json_path = tmp_path / "spec.json"
        json_path.write_text(spec.to_json(), encoding="utf-8")
        assert ExperimentSpec.from_file(toml_path) == spec
        assert ExperimentSpec.from_file(json_path) == spec

    def test_from_file_reports_missing_file(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read"):
            ExperimentSpec.from_file(tmp_path / "absent.toml")

    def test_string_shorthand_for_systems_and_plugins(self):
        spec = ExperimentSpec.from_dict(
            {"systems": ["postgres"], "plugins": ["spelling"]}
        ).validate()
        assert spec.systems[0] == SystemSpec("postgres")
        assert spec.plugins[0].name == "spelling"

    def test_plugin_from_params_inverts_manifest_params(self):
        # manifest_params must feed back through from_params to an
        # equivalent plugin for every registered plugin
        for name in available_plugins():
            plugin_class = get_plugin(name)
            plugin = plugin_class.from_params({})
            params = plugin.manifest_params()
            rebuilt = plugin_class.from_params(params)
            assert rebuilt.manifest_params() == params


class TestValidation:
    def test_unknown_system_reports_exact_path(self):
        spec = ExperimentSpec(systems=("mysql", "oracle"), plugins=("spelling",))
        with pytest.raises(SpecError, match=r"systems\[1\].name: unknown system 'oracle'"):
            spec.validate()

    def test_unknown_plugin_reports_exact_path(self):
        spec = ExperimentSpec(systems=("mysql",), plugins=("spelling", "fuzzer"))
        with pytest.raises(SpecError, match=r"plugins\[1\].name: unknown plugin 'fuzzer'"):
            spec.validate()

    def test_bad_plugin_param_reports_exact_path(self):
        spec = ExperimentSpec(
            systems=("mysql",),
            plugins=(
                PluginSpec("structural"),
                PluginSpec("spelling", params={"layout": "qwertz-xx"}),
            ),
        )
        with pytest.raises(
            SpecError, match=r"plugins\[1\].params.layout: unknown layout 'qwertz-xx'"
        ):
            spec.validate()

    def test_duplicate_list_param_values_rejected(self):
        # a repeated class would silently double the generated scenarios
        spec = ExperimentSpec(
            systems=("mysql",),
            plugins=(
                PluginSpec(
                    "structural-variations",
                    params={"classes": ["mixed-case-names", "mixed-case-names"]},
                ),
            ),
        )
        with pytest.raises(SpecError, match=r"plugins\[0\].params.classes: duplicate value"):
            spec.validate()

    def test_unknown_plugin_param_name_reports_exact_path(self):
        spec = ExperimentSpec(
            systems=("mysql",), plugins=(PluginSpec("spelling", params={"typos": 3}),)
        )
        with pytest.raises(SpecError, match=r"plugins\[0\].params.typos: unknown parameter"):
            spec.validate()

    def test_duplicate_systems_rejected_with_clear_message(self):
        spec = ExperimentSpec(systems=("mysql", "mysql"), plugins=("spelling",))
        with pytest.raises(SpecError, match=r"systems\[1\]: duplicate system 'mysql'"):
            spec.validate()

    def test_system_labels_colliding_after_filename_sanitization_rejected(self):
        # 'MySQL 5.0' and 'MySQL-5.0' would interleave in MySQL_5.0.jsonl
        spec = ExperimentSpec(
            systems=(
                SystemSpec("mysql", label="MySQL 5.0"),
                SystemSpec("mysql-server-only", label="MySQL_5.0"),
            ),
            plugins=("spelling",),
        )
        with pytest.raises(SpecError, match="store\nfilename|store filename"):
            spec.validate()

    def test_display_name_collision_rejected_like_run_spec_would(self):
        # mysql and mysql-server-only both build SUTs named 'MySQL'; validate
        # must refuse what CampaignSuite.system_names() would refuse at run time
        spec = ExperimentSpec(systems=("mysql", "mysql-server-only"), plugins=("spelling",))
        with pytest.raises(SpecError, match=r"systems\[1\].*display\s*name"):
            spec.validate()

    def test_constraints_catalog_typo_rejected(self):
        # an unknown 'system' must not silently fall back to the combined
        # catalog; registered systems without a catalog are still accepted
        spec = ExperimentSpec(
            systems=("postgres",),
            plugins=(PluginSpec("semantic-constraints", params={"system": "postgrse"}),),
        )
        with pytest.raises(SpecError, match=r"plugins\[0\].params.system: unknown system"):
            spec.validate()
        ok = ExperimentSpec(
            systems=("apache",),
            plugins=(PluginSpec("semantic-constraints", params={"system": "apache"}),),
        )
        assert ok.validate() is ok

    def test_duplicate_plugins_need_distinct_labels(self):
        spec = ExperimentSpec(systems=("mysql",), plugins=("spelling", "spelling"))
        with pytest.raises(SpecError, match="distinct label"):
            spec.validate()
        labelled = ExperimentSpec(
            systems=("mysql",),
            plugins=(
                PluginSpec("spelling", label="name-typos", params={"token_types": ["directive-name"]}),
                PluginSpec("spelling", label="value-typos", params={"token_types": ["directive-value"]}),
            ),
        )
        assert labelled.validate() is labelled

    def test_empty_matrix_rejected(self):
        with pytest.raises(SpecError, match="at least one system"):
            ExperimentSpec(systems=(), plugins=("spelling",)).validate()
        with pytest.raises(SpecError, match="at least one plugin"):
            ExperimentSpec(systems=("mysql",), plugins=()).validate()

    def test_execution_settings_validated(self):
        with pytest.raises(SpecError, match=r"execution.jobs"):
            spec_for("mysql", "spelling", jobs=0).validate()
        with pytest.raises(SpecError, match=r"execution.executor"):
            spec_for("mysql", "spelling", executor="gpu").validate()
        with pytest.raises(SpecError, match=r"execution.layout"):
            spec_for("mysql", "spelling", layout="colemak").validate()
        with pytest.raises(SpecError, match=r"execution.mutations_per_token"):
            spec_for("mysql", "spelling", mutations_per_token=0).validate()
        with pytest.raises(SpecError, match=r"execution.block_size"):
            spec_for("mysql", "spelling", block_size=0).validate()

    def test_block_size_round_trips_and_validates(self):
        spec = spec_for("mysql", "spelling", jobs=4, executor="thread", block_size=3)
        spec.validate()
        data = spec.to_dict()
        assert data["execution"]["block_size"] == 3
        assert ExperimentSpec.from_dict(data) == spec
        # absent when unset, so pre-existing specs serialize unchanged
        assert "block_size" not in spec_for("mysql", "spelling").to_dict()["execution"]

    def test_unknown_keys_rejected_at_every_level(self):
        with pytest.raises(SpecError, match="unknown key"):
            ExperimentSpec.from_dict({"systems": ["mysql"], "plugins": ["spelling"], "seeds": 1})
        with pytest.raises(SpecError, match=r"systems\[0\].colour"):
            ExperimentSpec.from_dict(
                {"systems": [{"name": "mysql", "colour": "red"}], "plugins": ["spelling"]}
            )
        with pytest.raises(SpecError, match=r"execution.sede"):
            ExperimentSpec.from_dict(
                {"systems": ["mysql"], "plugins": ["spelling"], "execution": {"sede": 1}}
            )


class TestBuilding:
    def test_build_systems_resolves_labels(self):
        spec = ExperimentSpec(
            systems=(SystemSpec("mysql-server-only", label="MySQL"),),
            plugins=("spelling",),
        ).validate()
        factories = spec.build_systems()
        assert list(factories) == ["MySQL"]
        assert factories["MySQL"]().name == "MySQL"

    def test_build_plugins_applies_execution_defaults(self):
        spec = ExperimentSpec(
            systems=("mysql",),
            plugins=(PluginSpec("spelling"), PluginSpec("structural")),
            execution=ExecutionSpec(
                mutations_per_token=4, max_scenarios_per_class=2, layout="dvorak"
            ),
        ).validate()
        spelling, structural = spec.build_plugins()
        assert spelling.mutations_per_token == 4
        assert spelling.layout_name == "dvorak"
        assert structural.max_scenarios_per_class == 2

    def test_explicit_params_beat_execution_defaults(self):
        spec = ExperimentSpec(
            systems=("mysql",),
            plugins=(PluginSpec("spelling", params={"mutations_per_token": 9}),),
            execution=ExecutionSpec(mutations_per_token=4),
        ).validate()
        (spelling,) = spec.build_plugins()
        assert spelling.mutations_per_token == 9

    def test_labelled_plugins_take_the_label_as_campaign_name(self):
        spec = ExperimentSpec(
            systems=("mysql",),
            plugins=(PluginSpec("spelling", label="value-typos"),),
        ).validate()
        (plugin,) = spec.build_plugins()
        assert plugin.name == "value-typos"
        assert type(plugin).name == "spelling"

    def test_suite_from_spec_runs_the_matrix(self):
        spec = ExperimentSpec(
            systems=("postgres",),
            plugins=(PluginSpec("semantic-constraints", params={"system": "postgres"}),),
            execution=ExecutionSpec(seed=3),
        )
        suite = CampaignSuite.from_spec(spec)
        result = suite.run()
        assert set(result.profiles) == {"postgres"}
        assert result.total_executed() > 0
        # the suite's per-cell seed derives from the spec's seed
        assert suite.campaign_seed("postgres", "semantic-constraints") == derive_seed(
            3, "postgres", "semantic-constraints"
        )


class TestSpecDiffing:
    def base(self) -> dict:
        return spec_for("postgres", "spelling", seed=3).to_dict()

    def test_identical_specs_have_no_diff(self):
        assert diff_spec_dicts(self.base(), self.base()) == []

    def test_seed_change_is_reported_with_path(self):
        changed = spec_for("postgres", "spelling", seed=4).to_dict()
        diffs = diff_spec_dicts(self.base(), changed)
        assert diffs == ["execution.seed: 3 on disk but 4 now"]

    def test_worker_settings_and_store_are_ignored(self):
        changed = spec_for(
            "postgres", "spelling", seed=3, jobs=8, executor="thread", block_size=2
        )
        changed = ExperimentSpec(
            systems=changed.systems,
            plugins=changed.plugins,
            execution=changed.execution,
            store=StoreSpec(root="elsewhere"),
        )
        assert diff_spec_dicts(self.base(), changed.to_dict()) == []

    def test_plugin_list_change_is_reported(self):
        changed = spec_for("postgres", "structural", seed=3).to_dict()
        assert any("plugins[0]" in diff for diff in diff_spec_dicts(self.base(), changed))

    def test_store_resume_uses_spec_diff(self, tmp_path):
        spec = ExperimentSpec(
            systems=("postgres",),
            plugins=(PluginSpec("semantic-constraints"),),
            execution=ExecutionSpec(seed=3),
        )
        store = ResultStore(tmp_path / "store")
        CampaignSuite.from_spec(spec).run(store=store)
        # same spec resumes cleanly, replaying nothing
        resumed = CampaignSuite.from_spec(spec).run(store=store, resume=True)
        assert resumed.total_executed() == 0
        # different worker settings are still compatible
        relaxed = ExperimentSpec(
            systems=spec.systems,
            plugins=spec.plugins,
            execution=ExecutionSpec(seed=3, jobs=2, executor="thread"),
        )
        CampaignSuite.from_spec(relaxed).run(store=store, resume=True)
        # a different seed is refused with the exact path
        other = ExperimentSpec(
            systems=spec.systems,
            plugins=spec.plugins,
            execution=ExecutionSpec(seed=4),
        )
        with pytest.raises(StoreError, match=r"execution.seed"):
            CampaignSuite.from_spec(other).run(store=store, resume=True)

    def test_resume_across_run_kinds_is_refused_even_with_matching_specs(self, tmp_path):
        # a table1 store embeds a spec too, but its records were generated
        # under driver-specific seeds -- a suite resume over it must be refused
        store = ResultStore(tmp_path / "store")
        spec = spec_for("postgres", "spelling", seed=3)
        manifest = {"kind": "table1", "seed": 3, "spec": spec.to_dict()}
        store.write_manifest(manifest)
        with pytest.raises(StoreError, match="kind"):
            store.check_compatible({"kind": "suite", "seed": 3, "spec": spec.to_dict()})


class TestFaultToleranceKnobs:
    def test_fault_knobs_round_trip_and_default_off(self):
        spec = spec_for(
            "mysql",
            "spelling",
            timeout_seconds=30.0,
            max_retries=1,
            retry_backoff_seconds=0.5,
        )
        spec.validate()
        data = spec.to_dict()
        assert data["execution"]["timeout_seconds"] == 30.0
        assert ExperimentSpec.from_dict(data) == spec
        assert ExperimentSpec.from_toml(spec.to_toml()) == spec
        # absent when unset, so pre-existing specs serialize unchanged
        plain = spec_for("mysql", "spelling").to_dict()["execution"]
        for key in ("timeout_seconds", "max_retries", "retry_backoff_seconds"):
            assert key not in plain

    def test_fault_knobs_validated(self):
        with pytest.raises(SpecError, match=r"execution.timeout_seconds"):
            spec_for("mysql", "spelling", timeout_seconds=0).validate()
        with pytest.raises(SpecError, match=r"execution.max_retries"):
            spec_for("mysql", "spelling", max_retries=-1).validate()
        with pytest.raises(SpecError, match=r"execution.retry_backoff_seconds"):
            spec_for("mysql", "spelling", retry_backoff_seconds=-0.1).validate()

    def test_fault_knobs_do_not_block_resume(self):
        from repro.core.spec import diff_spec_dicts

        base = spec_for("postgres", "spelling", seed=3).to_dict()
        tolerant = spec_for(
            "postgres", "spelling", seed=3, timeout_seconds=60, max_retries=3
        ).to_dict()
        assert diff_spec_dicts(base, tolerant) == []

    def test_from_execution_builds_policy_only_when_asked(self):
        from repro.core.faults import FaultPolicy

        off = spec_for("mysql", "spelling").execution
        assert FaultPolicy.from_execution(off) is None
        on = spec_for("mysql", "spelling", seed=5, timeout_seconds=30).execution
        policy = FaultPolicy.from_execution(on)
        assert policy.timeout_seconds == 30.0
        assert policy.backoff_seed == 5


class TestChaosTable:
    def chaos_spec(self, **chaos) -> ExperimentSpec:
        return ExperimentSpec(
            systems=(SystemSpec("mysql", chaos=chaos),),
            plugins=(PluginSpec("spelling"),),
        )

    def test_chaos_round_trips_through_toml(self):
        spec = self.chaos_spec(hang_fraction=0.1, crash_fraction=0.1, seed=9)
        spec.validate()
        toml_text = spec.to_toml()
        assert "[systems.chaos]" in toml_text
        assert ExperimentSpec.from_toml(toml_text) == spec

    def test_chaos_fractions_validated_with_exact_path(self):
        with pytest.raises(SpecError, match=r"systems\[0\].chaos.hang_fraction"):
            self.chaos_spec(hang_fraction=1.5).validate()
        with pytest.raises(SpecError, match=r"systems\[0\].chaos"):
            self.chaos_spec(hang_fraction=0.6, crash_fraction=0.6).validate()
        with pytest.raises(SpecError, match=r"systems\[0\].chaos"):
            self.chaos_spec(explode_fraction=0.5).validate()

    def test_build_systems_wraps_in_chaos_factory(self):
        from repro.sut.chaos import ChaosSUT

        systems = self.chaos_spec(crash_fraction=0.1, seed=4).build_systems()
        sut = systems["mysql"]()
        assert isinstance(sut, ChaosSUT)
        assert sut.crash_fraction == 0.1 and sut.seed == 4

    def test_without_chaos_factories_are_untouched(self):
        systems = spec_for("mysql", "spelling").build_systems()
        from repro.sut.chaos import ChaosSUT

        assert not isinstance(systems["mysql"](), ChaosSUT)
