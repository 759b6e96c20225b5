"""Spec-surface rules against the per-code fixture pairs."""

import shutil
from pathlib import Path

import pytest

from repro.analysis import lint_specs, select_rules
from repro.core import spec as spec_mod
from repro.core.spec import ExperimentSpec
from repro.core.store import ResultStore

FIXTURES = Path(__file__).parent / "fixtures"

#: (code, fixture slug) pairs whose bad/clean behaviour is purely static.
STATIC_CASES = [
    ("spec/parse-error", "parse_error"),
    ("spec/unknown-key", "unknown_key"),
    ("spec/invalid-value", "invalid_value"),
    ("spec/unknown-system", "unknown_system"),
    ("spec/unknown-plugin", "unknown_plugin"),
    ("spec/unknown-plugin-param", "unknown_plugin_param"),
    ("spec/duplicate-label", "duplicate_label"),
    ("spec/store-filename-clash", "store_filename_clash"),
    ("spec/inapplicable-plugin", "inapplicable_plugin"),
    ("catalog/dangling-ref", "dangling_ref"),
    ("spec/retry-without-resume", "retry_without_resume"),
]


def codes_of(report):
    return {finding.code for finding in report.findings}


class TestStaticFixturePairs:
    @pytest.mark.parametrize("code,slug", STATIC_CASES)
    def test_bad_fixture_triggers_exactly_its_code(self, code, slug):
        report = lint_specs([FIXTURES / f"{slug}_bad.toml"])
        assert code in codes_of(report), report.render_text()

    @pytest.mark.parametrize("code,slug", STATIC_CASES)
    def test_clean_fixture_does_not_trigger_its_code(self, code, slug):
        report = lint_specs([FIXTURES / f"{slug}_clean.toml"])
        assert code not in codes_of(report), report.render_text()
        assert report.clean, report.render_text()

    def test_findings_carry_the_spec_path_and_file(self):
        report = lint_specs([FIXTURES / "unknown_plugin_param_bad.toml"])
        [finding] = report.findings
        assert finding.path == "plugins[0].params.mutations_per_tokn"
        assert finding.file.endswith("unknown_plugin_param_bad.toml")
        assert "did you mean 'mutations_per_token'" in finding.message

    def test_unknown_system_suggests_the_nearest_name(self):
        report = lint_specs([FIXTURES / "unknown_system_bad.toml"])
        [finding] = report.findings
        assert "did you mean 'mysql'" in finding.message

    def test_unknown_key_suggests_the_nearest_key(self):
        report = lint_specs([FIXTURES / "unknown_key_bad.toml"])
        [finding] = report.findings
        assert finding.code == "spec/unknown-key"
        assert "did you mean 'seed'" in finding.message

    @pytest.mark.parametrize(
        "execution", ['layout = "qwertz-xx"', "mutations_per_token = 0"]
    )
    def test_invalid_execution_default_is_reported_once(self, execution, tmp_path):
        # the execution defaults are folded into every plugin accepting
        # them; a bad one is reported where the user wrote it, not again
        # at plugins[i].params
        spec_file = tmp_path / "spec.toml"
        spec_file.write_text(
            f'systems = ["mysql"]\nplugins = ["spelling", "structural"]\n'
            f"[execution]\n{execution}\n",
            encoding="utf-8",
        )
        report = lint_specs([spec_file])
        [finding] = report.findings
        assert finding.code == "spec/invalid-value"
        assert finding.path == "execution." + execution.split(" ")[0]

    def test_dangling_ref_is_a_warning_naming_the_dead_cell(self):
        report = lint_specs([FIXTURES / "dangling_ref_bad.toml"])
        [finding] = report.findings
        assert finding.severity.value == "warning"
        assert "postgres" in finding.message

    def test_implicit_combined_catalog_is_exempt_from_dangling_ref(self):
        # paper_suite applies semantic-constraints with the implicit combined
        # catalog to non-database systems on purpose; no explicit selection,
        # no warning
        spec_file = (
            Path(__file__).resolve().parents[2] / "examples" / "specs" / "paper_suite.toml"
        )
        report = lint_specs([spec_file])
        assert "catalog/dangling-ref" not in codes_of(report)

    def test_lint_builds_each_system_sut_once(self, monkeypatch):
        """The display-name check and the lint-only rules share one instance."""
        from repro import registry

        factory = registry.get_system("mysql")
        built = []

        def counting_factory():
            built.append(1)
            return factory()

        monkeypatch.setitem(registry._REGISTRY, "mysql", counting_factory)
        report = lint_specs([FIXTURES / "inapplicable_plugin_bad.toml"])
        assert "spec/inapplicable-plugin" in codes_of(report)
        assert len(built) == 1


class TestSeedCollision:
    def test_collision_detected_when_derivation_degenerates(self, monkeypatch):
        monkeypatch.setattr(spec_mod, "derive_seed", lambda seed, system, plugin: 42)
        report = lint_specs([FIXTURES / "seed_collision_bad.toml"])
        assert "spec/seed-collision" in codes_of(report)
        [finding] = [f for f in report.findings if f.code == "spec/seed-collision"][:1]
        assert finding.path == "execution.seed"

    def test_real_derivation_is_collision_free(self):
        report = lint_specs([FIXTURES / "seed_collision_clean.toml"])
        assert "spec/seed-collision" not in codes_of(report)


class TestStoreRules:
    def _copy(self, slug, tmp_path):
        target = tmp_path / f"{slug}.toml"
        shutil.copy(FIXTURES / f"{slug}.toml", target)
        return target

    def test_existing_store_without_resume(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        spec_file = self._copy("store_exists_bad", tmp_path)
        spec = ExperimentSpec.from_file(spec_file)
        with ResultStore("existing-store") as store:
            store.write_manifest({"kind": "suite", "spec": spec.to_dict()})
        report = lint_specs([spec_file])
        assert codes_of(report) == {"spec/store-exists-without-resume"}

    def test_existing_store_with_resume_is_clean(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        spec_file = self._copy("store_exists_clean", tmp_path)
        spec = ExperimentSpec.from_file(spec_file)
        with ResultStore("existing-store") as store:
            store.write_manifest({"kind": "suite", "spec": spec.to_dict()})
        report = lint_specs([spec_file])
        assert report.clean, report.render_text()

    def test_absent_store_is_clean_either_way(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        report = lint_specs(
            [
                self._copy("store_exists_bad", tmp_path),
                self._copy("store_exists_clean", tmp_path),
            ]
        )
        assert report.clean, report.render_text()

    def test_resume_against_a_different_experiment(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bad = self._copy("resume_incompatible_bad", tmp_path)
        clean = self._copy("resume_incompatible_clean", tmp_path)
        # the stored manifest records the *clean* fixture's experiment
        # (seed 2008); the bad fixture resumes it with seed 1
        stored = ExperimentSpec.from_file(clean)
        with ResultStore("resumable-store") as store:
            store.write_manifest({"kind": "suite", "spec": stored.to_dict()})
        report = lint_specs([bad])
        assert codes_of(report) == {"spec/resume-incompatible"}
        [finding] = report.findings
        assert "execution.seed" in finding.message
        assert lint_specs([clean]).clean

    def test_unreadable_manifest_is_resume_incompatible(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        spec_file = self._copy("resume_incompatible_bad", tmp_path)
        store_dir = tmp_path / "resumable-store"
        store_dir.mkdir()
        (store_dir / "manifest.json").write_text("{ not json", encoding="utf-8")
        report = lint_specs([spec_file])
        assert codes_of(report) == {"spec/resume-incompatible"}

    @pytest.mark.parametrize(
        "manifest, code",
        [(b"[]", "store/manifest-shape"), (b'{"kind": "suite\xff"}', "store/manifest-shape")],
        ids=["array", "non-utf8"],
    )
    def test_damaged_manifest_is_resume_incompatible(self, tmp_path, monkeypatch, manifest, code):
        monkeypatch.chdir(tmp_path)
        spec_file = self._copy("resume_incompatible_bad", tmp_path)
        store_dir = tmp_path / "resumable-store"
        store_dir.mkdir()
        (store_dir / "manifest.json").write_bytes(manifest)
        report = lint_specs([spec_file])
        assert codes_of(report) == {"spec/resume-incompatible"}
        [finding] = report.findings
        assert f"{code}: corrupt manifest" in finding.message


class TestNoDeltaSupport:
    def test_off_by_default(self):
        report = lint_specs([FIXTURES / "no_delta_support_bad.toml"])
        assert "spec/no-delta-support" not in codes_of(report)

    def test_chaos_wrapped_system_flagged_when_selected(self):
        rules = select_rules("spec", select=["spec/no-delta-support"])
        report = lint_specs([FIXTURES / "no_delta_support_bad.toml"], rules)
        [finding] = report.findings
        assert finding.code == "spec/no-delta-support"
        assert finding.severity.value == "info"
        assert "chaos" in finding.message

    def test_plain_system_with_delta_support_is_clean(self):
        rules = select_rules("spec", select=["spec/no-delta-support"])
        report = lint_specs([FIXTURES / "no_delta_support_clean.toml"], rules)
        assert report.clean, report.render_text()


class TestShippedSpecs:
    @pytest.mark.parametrize(
        "name",
        ["paper_suite.toml", "dns_semantic_sweep.toml", "chaos_smoke.toml", "smoke.json"],
    )
    def test_every_shipped_spec_lints_clean(self, name):
        spec_file = Path(__file__).resolve().parents[2] / "examples" / "specs" / name
        report = lint_specs([spec_file])
        assert report.clean, report.render_text()
