"""Golden-file snapshots of every rendered evaluation artefact.

Each artefact's spec runs as a small-but-deterministic suite into a result
store, and the tests assert three things at once:

* the live render is byte-identical to the checked-in golden under
  ``tests/golden/`` (regenerate intentionally with
  ``pytest --regen-goldens``),
* the ``--from-store`` re-render of the same run is byte-identical to the
  live render (the store-vs-live identity claimed in CHANGES.md, enforced
  forever),
* both therefore match the golden.

The runs use reduced scenario counts so the whole module stays cheap; the
goldens cover the *rendering* contract, the full-size runs stay in
``benchmarks/``.
"""

from __future__ import annotations

import pytest

from repro.bench import ARTIFACTS
from repro.core.report import render_store_report
from repro.core.store import ResultStore
from repro.core.suite import CampaignSuite

SEED = 2008

#: Artefact -> spec-builder arguments of the reduced golden run.
GOLDEN_RUNS = {
    "table1": dict(seed=SEED, directives_per_section=3, typos_per_directive=2),
    "table2": dict(seed=SEED, variants_per_class=2),
    "table3": dict(seed=SEED),
    "figure3": dict(seed=SEED, experiments_per_directive=2),
    "matrix": dict(
        systems=["nginx", "sshd", "mysql"],
        plugins=["omission", "spelling"],
        seed=SEED,
        max_scenarios_per_class=4,
    ),
}


@pytest.fixture(scope="module", params=list(GOLDEN_RUNS))
def artifact_run(request, tmp_path_factory):
    """One stored suite run of an artefact's spec: (name, live render, store)."""
    name = request.param
    artifact = ARTIFACTS[name]
    root = tmp_path_factory.mktemp(name)
    spec = artifact.spec(**GOLDEN_RUNS[name])
    with ResultStore(root) as store:
        result = CampaignSuite.from_spec(spec).run(store=store)
    return name, artifact.render(result.profiles_by_display()), ResultStore(root)


def test_live_render_matches_golden(artifact_run, golden):
    name, live, _store = artifact_run
    golden(f"{name}.txt", live + "\n")


def test_store_render_is_byte_identical(artifact_run):
    name, live, store = artifact_run
    assert ARTIFACTS[name].render(store.load_profiles()) == live
    assert store.read_manifest()["kind"] == "suite"


def test_report_views_match_golden(tmp_path, golden):
    # `conferr report <store-dir>` as printed, less its header line, which
    # names the store's temporary path
    spec = ARTIFACTS["matrix"].spec(**GOLDEN_RUNS["matrix"])
    with ResultStore(tmp_path / "mx") as store:
        CampaignSuite.from_spec(spec).run(store=store)
    header, body = render_store_report(store).split("\n\n", 1)
    assert header == f"result store: {store.root} (kind: suite, seed: {SEED})"
    golden("report.txt", body + "\n")
