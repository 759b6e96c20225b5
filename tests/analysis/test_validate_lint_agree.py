"""validate, validate --json, the service's 400 bodies and lint read one checker.

Every spec fixture is run through all four surfaces: whatever
``validate --json`` refuses, lint reports as an error with the same code
at the same path, the campaign service rejects with the same body, and a
spec whose lint errors are all validate-owned codes is refused by
``validate``.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import lint_specs
from repro.analysis.diagnostics import Severity
from repro.cli import main
from repro.errors import SPEC_ERROR_CODES
from repro.service.app import CampaignService, SpecRejected

FIXTURES = Path(__file__).parent / "fixtures"
SPEC_FIXTURES = sorted(FIXTURES.glob("*.toml"))

#: Specs lint once passed while validate refused them, with the code and
#: path all surfaces now agree on.
DIVERGENCES = {
    "chaos_key_typo_bad.toml": ("spec/unknown-key", "systems[0].chaos.crash_fractoin"),
    "catalog_system_typo_bad.toml": ("spec/invalid-value", "plugins[0].params.system"),
    "layout_user_text_bad.toml": ("spec/invalid-value", "execution.layout"),
    "models_user_text_bad.toml": ("spec/invalid-value", "plugins[0].params.models"),
}


def validate_json(spec_file: Path, capsys) -> dict:
    status = main(["validate", "--json", str(spec_file)])
    report = json.loads(capsys.readouterr().out)
    assert status == (0 if report["valid"] else 1)
    return report


def lint_errors(spec_file: Path) -> set[tuple[str, str | None]]:
    report = lint_specs([spec_file])
    return {(f.code, f.path) for f in report.findings if f.severity is Severity.ERROR}


@pytest.mark.parametrize("spec_file", SPEC_FIXTURES, ids=lambda path: path.name)
def test_validate_and_lint_agree(spec_file, capsys):
    report = validate_json(spec_file, capsys)
    errors = lint_errors(spec_file)
    for entry in report["errors"]:
        assert (entry["code"], entry["path"]) in errors, (entry, errors)
    owned = {(code, path) for code, path in errors if code in SPEC_ERROR_CODES}
    assert report["valid"] == (not owned), (report, errors)


@pytest.mark.parametrize("spec_file", SPEC_FIXTURES, ids=lambda path: path.name)
def test_service_rejects_with_the_validate_json_body(spec_file, capsys, tmp_path):
    report = validate_json(spec_file, capsys)
    if report["valid"]:
        return
    service = CampaignService(tmp_path / "service")
    with pytest.raises(SpecRejected) as excinfo:
        service.submit_text("tenant", spec_file.read_text(encoding="utf-8"), toml=True)
    assert excinfo.value.report == report


@pytest.mark.parametrize("name", sorted(DIVERGENCES))
def test_former_divergences_fail_lint_with_the_validate_code(name, capsys):
    spec_file = FIXTURES / name
    report = validate_json(spec_file, capsys)
    [entry] = report["errors"]
    assert (entry["code"], entry["path"]) == DIVERGENCES[name]
    assert main(["lint", str(spec_file)]) == 1
    out = capsys.readouterr().out
    assert entry["code"] in out and entry["path"] in out


def test_validate_and_lint_print_one_wording(capsys):
    spec_file = FIXTURES / "unknown_system_bad.toml"
    [entry] = validate_json(spec_file, capsys)["errors"]
    [finding] = lint_specs([spec_file]).findings
    assert finding.message == entry["message"]
    assert "did you mean 'mysql'" in entry["message"]
