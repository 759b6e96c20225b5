"""The rule catalog itself: stable codes, docs, and selection semantics."""

import pickle
from pathlib import Path

import pytest

from repro.analysis import RuleSelectionError, all_rules, select_rules
from repro.analysis.diagnostics import Severity
from repro.errors import SPEC_ERROR_CODES, SpecError

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestCatalog:
    def test_at_least_ten_rules_exist(self):
        assert len(all_rules()) >= 10

    def test_every_rule_has_a_unique_stable_code(self):
        codes = [rule.code for rule in all_rules()]
        assert len(codes) == len(set(codes))
        for code in codes:
            namespace, _, slug = code.partition("/")
            assert namespace in {"spec", "catalog", "harness"}, code
            assert slug and slug == slug.lower(), code

    def test_every_rule_has_a_docstring(self):
        for rule in all_rules():
            assert rule.check.__doc__ and rule.check.__doc__.strip(), rule.code
            assert rule.summary, rule.code

    def test_every_rule_has_a_valid_severity_and_surface(self):
        for rule in all_rules():
            assert isinstance(rule.severity, Severity), rule.code
            assert rule.surface in {"spec", "self"}, rule.code

    def test_every_rule_is_documented_in_linting_md(self):
        catalog = (REPO_ROOT / "docs" / "LINTING.md").read_text(encoding="utf-8")
        for rule in all_rules():
            assert f"`{rule.code}`" in catalog, f"{rule.code} missing from docs/LINTING.md"

    def test_every_spec_error_code_is_a_registered_rule(self):
        # validate --json, the service's 400 bodies and lint all report the
        # code a SpecError carries, so each must be a spec-surface rule
        rules = {rule.code: rule for rule in all_rules()}
        for code in SPEC_ERROR_CODES:
            assert code in rules, code
            assert rules[code].surface == "spec", code
            assert rules[code].severity is Severity.ERROR, code

    def test_spec_errors_refuse_unregistered_codes(self):
        assert SpecError("x: bad").code == "spec/invalid-value"
        with pytest.raises(ValueError, match="unknown spec error code"):
            SpecError("x: bad", "spec/made-up")

    def test_spec_error_code_survives_pickling(self):
        error = pickle.loads(pickle.dumps(SpecError("x: bad", "spec/unknown-key")))
        assert (str(error), error.code) == ("x: bad", "spec/unknown-key")


class TestSelection:
    def test_default_selection_excludes_default_off_rules(self):
        codes = {rule.code for rule in select_rules("spec")}
        assert "spec/seed-collision" in codes
        assert "spec/no-delta-support" not in codes

    def test_select_enables_default_off_rules(self):
        rules = select_rules("spec", select=["spec/no-delta-support"])
        assert [rule.code for rule in rules] == ["spec/no-delta-support"]

    def test_prefix_select_matches_a_namespace(self):
        codes = {rule.code for rule in select_rules("self", select=["harness"])}
        assert "harness/unseeded-rng" in codes
        assert all(code.startswith("harness/") for code in codes)

    def test_ignore_removes_rules(self):
        codes = {rule.code for rule in select_rules("self", ignore=["harness/wall-clock"])}
        assert "harness/wall-clock" not in codes
        assert "harness/unseeded-rng" in codes

    def test_unknown_token_is_a_usage_error(self):
        with pytest.raises(RuleSelectionError, match="unknown rule or prefix"):
            select_rules("spec", select=["spec/totally-made-up"])
        with pytest.raises(RuleSelectionError):
            select_rules("spec", ignore=["nonsense"])

    def test_surfaces_are_disjoint(self):
        spec_codes = {rule.code for rule in select_rules("spec")}
        self_codes = {rule.code for rule in select_rules("self")}
        assert not spec_codes & self_codes
