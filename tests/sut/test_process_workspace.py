"""Unit tests for the workspace manager and the subprocess-driven SUT."""

import sys

import pytest

from repro.core.suite import CampaignSuite
from repro.core.profile import InjectionOutcome
from repro.plugins.spelling import SpellingMistakesPlugin
from repro.sut.process import CommandSpec, ProcessSUT
from repro.sut.workspace import Workspace


class TestWorkspace:
    def test_deploy_and_read(self, tmp_path):
        workspace = Workspace(tmp_path)
        paths = workspace.deploy({"app.conf": "a = 1\n", "nested/extra.conf": "b = 2\n"})
        assert paths["app.conf"].read_text() == "a = 1\n"
        assert workspace.read("nested/extra.conf") == "b = 2\n"
        assert workspace.path_of("app.conf").parent == tmp_path

    def test_snapshot_and_restore(self, tmp_path):
        workspace = Workspace(tmp_path)
        workspace.snapshot({"app.conf": "original\n"})
        workspace.deploy({"app.conf": "mutated\n"})
        workspace.restore()
        assert workspace.read("app.conf") == "original\n"

    def test_cleanup_only_removes_owned_directories(self, tmp_path):
        owned = Workspace()
        owned_root = owned.root
        owned.cleanup()
        assert not owned_root.exists()
        external = Workspace(tmp_path)
        external.cleanup()
        assert tmp_path.exists()

    def test_context_manager_cleans_up(self):
        with Workspace() as workspace:
            root = workspace.root
            workspace.deploy({"x": "1"})
        assert not root.exists()


def _python_command(code: str, name: str) -> CommandSpec:
    return CommandSpec(name=name, argv=(sys.executable, "-c", code))


def build_process_sut() -> ProcessSUT:
    """A ProcessSUT whose 'system' is a short Python script validating key=value files."""
    start_code = (
        "import os,sys\n"
        "path = os.path.join(os.environ['CONFERR_WORKSPACE'], 'service.conf')\n"
        "settings = {}\n"
        "for line in open(path):\n"
        "    line = line.strip()\n"
        "    if not line or line.startswith('#'): continue\n"
        "    if '=' not in line: sys.exit('missing separator: ' + line)\n"
        "    key, value = [part.strip() for part in line.split('=', 1)]\n"
        "    if key not in ('port', 'name'): sys.exit('unknown setting ' + key)\n"
        "    settings[key] = value\n"
        "int(settings.get('port', 'x'))\n"
    )
    check_code = "print('service responds')\n"
    return ProcessSUT(
        name="script-service",
        config_files={"service.conf": "port = 8080\nname = demo\n"},
        dialects={"service.conf": "lineconf"},
        start_command=_python_command(start_code, "start"),
        stop_command=_python_command("pass", "stop"),
        check_commands=[_python_command(check_code, "service-check")],
    )


class TestProcessSUT:
    def test_baseline_configuration_starts_and_checks_pass(self):
        sut = build_process_sut()
        try:
            result = sut.start(sut.default_configuration())
            assert result.started
            assert all(test.run(sut).passed for test in sut.functional_tests())
        finally:
            sut.stop()
            sut.cleanup()

    def test_start_failure_is_reported_with_output(self):
        sut = build_process_sut()
        try:
            result = sut.start({"service.conf": "pork = 8080\n"})
            assert not result.started
            assert "unknown setting" in result.errors[0]
        finally:
            sut.cleanup()

    def test_missing_executable_reports_failure(self):
        sut = ProcessSUT(
            name="ghost",
            config_files={"x.conf": ""},
            dialects={"x.conf": "lineconf"},
            start_command=CommandSpec("start", ("/nonexistent/binary",)),
            stop_command=CommandSpec("stop", ("/nonexistent/binary",)),
        )
        try:
            assert not sut.start(sut.default_configuration()).started
        finally:
            sut.cleanup()

    def test_end_to_end_with_injection_engine(self):
        sut = build_process_sut()
        try:
            plugin = SpellingMistakesPlugin(mutations_per_token=1)
            profile = CampaignSuite({"service": sut}, [plugin], seed=1).run().overall("service")
            assert len(profile) > 0
            outcomes = {record.outcome for record in profile}
            assert InjectionOutcome.HARNESS_ERROR not in outcomes
            # name typos produce unknown settings, which the script rejects
            assert InjectionOutcome.DETECTED_AT_STARTUP in outcomes
        finally:
            sut.cleanup()

    def test_dialect_lookup(self):
        sut = build_process_sut()
        try:
            assert sut.dialect_for("service.conf") == "lineconf"
            with pytest.raises(KeyError):
                sut.dialect_for("other.conf")
        finally:
            sut.cleanup()
