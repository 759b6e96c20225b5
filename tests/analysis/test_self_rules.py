"""Self-surface rules: AST checks on fixture trees, registry introspection."""

from pathlib import Path

import pytest

from repro.analysis import lint_self, select_rules
from repro.plugins import base as plugin_base
from repro.registry import _REGISTRY as system_registry
from repro.sut.base import StartResult, SystemUnderTest

FIXTURES = Path(__file__).parent / "fixtures"
BAD_TREE = FIXTURES / "selfsrc_bad"
CLEAN_TREE = FIXTURES / "selfsrc_clean"
SRC_REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"

AST_CODES = [
    "harness/parse-error",
    "harness/unseeded-rng",
    "harness/wall-clock",
    "harness/non-atomic-write",
    "harness/unpickleable-error",
    "harness/foreign-exception",
    "harness/unfrozen-spec",
    "harness/delta-contract",
]


def codes_of(report):
    return {finding.code for finding in report.findings}


class TestFixtureTrees:
    @pytest.mark.parametrize("code", AST_CODES)
    def test_bad_tree_triggers_every_ast_code(self, code):
        report = lint_self([BAD_TREE])
        assert code in codes_of(report), report.render_text()

    def test_clean_tree_is_clean(self):
        report = lint_self([CLEAN_TREE])
        assert report.clean, report.render_text()

    def test_findings_carry_file_and_line(self):
        report = lint_self([BAD_TREE])
        for finding in report.findings:
            assert finding.file, finding
            if finding.code != "harness/parse-error":
                assert finding.line, finding

    def test_service_layer_is_exempt_from_wall_clock(self):
        # selfsrc_clean/service/jobs_like.py calls time.time() and stays clean
        report = lint_self([CLEAN_TREE])
        assert "harness/wall-clock" not in codes_of(report)

    def test_non_atomic_write_flags_truncating_writes_in_store_and_service(self):
        rules = select_rules("self", select=["harness/non-atomic-write"])
        report = lint_self([BAD_TREE], rules)
        flagged = sorted((Path(f.file).name, f.message.split(" ")[0]) for f in report.findings)
        assert flagged == [
            ("snapshot.py", "open(...,"),
            ("writes.py", "open(...,"),
            ("writes.py", "write_bytes()"),
            ("writes.py", "write_text()"),
        ]

    def test_non_atomic_write_spares_appends_locks_and_other_layers(self):
        # selfsrc_clean/core/writes.py appends, reads and writes a lock
        # through os.fdopen; its pragma'd temp-file write is suppressed;
        # bench/render_like.py calls write_text outside the store layers
        rules = select_rules("self", select=["harness/non-atomic-write"])
        report = lint_self([CLEAN_TREE], rules)
        assert report.clean, report.render_text()
        assert report.suppressed == 1

    def test_unseeded_rng_flags_both_global_and_constructor_forms(self):
        rules = select_rules("self", select=["harness/unseeded-rng"])
        report = lint_self([BAD_TREE], rules)
        messages = sorted(finding.message for finding in report.findings)
        assert any("random.choice()" in message for message in messages)
        assert any("random.Random() without a seed" in message for message in messages)


class TestPragmas:
    def test_inline_pragma_suppresses_and_is_counted(self):
        report = lint_self([BAD_TREE])
        # pragma_ok.py's ValueError subclass is annotated with
        # "conferr: allow[harness/foreign-exception]"
        assert report.suppressed == 1
        flagged_files = {Path(f.file).name for f in report.findings}
        assert "pragma_ok.py" not in flagged_files

    def test_pragma_only_suppresses_the_named_code(self):
        # foreign.py has no pragma, so the same rule still fires there
        rules = select_rules("self", select=["harness/foreign-exception"])
        report = lint_self([BAD_TREE], rules)
        flagged_files = {Path(f.file).name for f in report.findings}
        assert "foreign.py" in flagged_files

    def test_ignore_flag_style_suppression(self):
        report = lint_self(
            [BAD_TREE],
            select_rules("self", ignore=["harness/unseeded-rng", "harness/wall-clock"]),
        )
        assert "harness/unseeded-rng" not in codes_of(report)
        assert "harness/wall-clock" not in codes_of(report)
        assert "harness/foreign-exception" in codes_of(report)


class _BrokenPlugin(plugin_base.ErrorGeneratorPlugin):
    """param_names declares a parameter __init__ cannot accept."""

    name = "lint-test-broken-plugin"
    param_names = ("alpha",)

    def __init__(self):
        pass

    @property
    def view(self):  # pragma: no cover - never constructed by the lint
        raise NotImplementedError

    def generate(self, view_set, rng):  # pragma: no cover
        return []


class _DriftingPlugin(plugin_base.ErrorGeneratorPlugin):
    """manifest_params emits a key outside param_names."""

    name = "lint-test-drifting-plugin"
    param_names = ()

    @property
    def view(self):  # pragma: no cover
        raise NotImplementedError

    def generate(self, view_set, rng):  # pragma: no cover
        return []

    def manifest_params(self):
        return {"stealth": 1}


class _HalfDeltaSut(SystemUnderTest):
    """A tree walk without _observable_state: the delta contract violation."""

    name = "lint-test-half-delta"

    def default_configuration(self):
        return {}

    def dialect_for(self, filename):
        return "ini"

    def start(self, files):
        return StartResult.ok()

    def stop(self):
        pass

    def functional_tests(self):
        return []

    def _start_from_trees(self, trees, files):
        return StartResult.ok()


class TestRegistryIntrospection:
    def test_shipped_registries_pass(self):
        rules = select_rules(
            "self", select=["harness/param-drift", "harness/delta-contract"]
        )
        report = lint_self([CLEAN_TREE], rules)
        assert report.clean, report.render_text()

    def test_param_names_init_drift_is_flagged(self):
        plugin_base._REGISTRY[_BrokenPlugin.name] = _BrokenPlugin
        try:
            rules = select_rules("self", select=["harness/param-drift"])
            report = lint_self([CLEAN_TREE], rules)
        finally:
            del plugin_base._REGISTRY[_BrokenPlugin.name]
        [finding] = report.findings
        assert "alpha" in finding.message and _BrokenPlugin.name in finding.message

    def test_manifest_params_drift_is_flagged(self):
        plugin_base._REGISTRY[_DriftingPlugin.name] = _DriftingPlugin
        try:
            rules = select_rules("self", select=["harness/param-drift"])
            report = lint_self([CLEAN_TREE], rules)
        finally:
            del plugin_base._REGISTRY[_DriftingPlugin.name]
        [finding] = report.findings
        assert "undeclared parameter" in finding.message
        assert "stealth" in finding.message

    def test_half_delta_sut_is_flagged(self):
        system_registry["lint-test-half-delta"] = _HalfDeltaSut
        try:
            rules = select_rules("self", select=["harness/delta-contract"])
            report = lint_self([CLEAN_TREE], rules)
        finally:
            del system_registry["lint-test-half-delta"]
        [finding] = report.findings
        assert "_observable_state" in finding.message
        assert "_HalfDeltaSut" in finding.message


class TestHarnessSource:
    @pytest.mark.parametrize("root", [SRC_REPRO, SRC_REPRO.parent], ids=["src/repro", "src"])
    def test_the_harness_lints_clean(self, root):
        # directory-scoped rules see the same package layout from either root
        report = lint_self([root])
        assert report.clean, report.render_text()
        # the four intentionally-internal exception classes and
        # write_atomic's own temp-file write are pragma'd, not silently
        # passed over
        assert report.suppressed == 5
