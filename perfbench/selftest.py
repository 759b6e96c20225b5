"""The benchmark's output check fires on a corrupted reference.

    python3 -m pytest perfbench/selftest.py -q

The file name keeps it out of a test run from the repository root: that run
measures wall-clock ratios, and extra collected modules move where the
interpreter's garbage collections land in it.
"""

import copy
import json
from pathlib import Path

import pytest

from checks import OutputMismatch, check_campaign, check_counts_repeat
from run import END_TO_END_UNITS
from spans import COUNT_METRICS, PER_LAYER_UNITS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))["outcomes"]


def campaign_matching(reference: dict) -> dict:
    """A campaign summary that reproduces ``reference`` exactly."""
    return {
        "digest": reference["digest"],
        "records": reference["records"],
        "verify_problems": [],
        "renders_match": True,
        "cells": {cell: [count, 0] for cell, count in reference["cells"].items()},
    }


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_matching_campaign_passes(name):
    check_campaign(campaign_matching(REFERENCE[name]), REFERENCE[name])


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_corrupted_reference_digest_fires(name):
    corrupted = copy.deepcopy(REFERENCE[name])
    corrupted["digest"] = corrupted["digest"][:-1] + ("0" if corrupted["digest"][-1] != "0" else "1")
    with pytest.raises(OutputMismatch, match="outcome digest"):
        check_campaign(campaign_matching(REFERENCE[name]), corrupted)


def test_corrupted_reference_cell_count_fires():
    corrupted = copy.deepcopy(REFERENCE["paper-suite"])
    corrupted["cells"]["apache/structural"] += 1
    with pytest.raises(OutputMismatch, match="apache/structural"):
        check_campaign(campaign_matching(REFERENCE["paper-suite"]), corrupted)


def test_unclean_store_and_divergent_renders_fire():
    result = campaign_matching(REFERENCE["paper-suite"])
    result["verify_problems"] = ["torn trailing line"]
    result["renders_match"] = False
    with pytest.raises(OutputMismatch, match="verify is not clean.*renders differ"):
        check_campaign(result, REFERENCE["paper-suite"])


def test_skipped_scenarios_on_a_fresh_store_fire():
    result = campaign_matching(REFERENCE["paper-suite"])
    result["cells"]["mysql/spelling"] = [39, 1]
    with pytest.raises(OutputMismatch, match="mysql/spelling: 1 scenarios skipped"):
        check_campaign(result, REFERENCE["paper-suite"])


def test_counts_that_differ_between_runs_fire():
    runs = [{name: 1 for name in COUNT_METRICS} for _ in range(3)]
    check_counts_repeat(runs, COUNT_METRICS)
    runs[2]["parsers.parse_calls"] = 2
    with pytest.raises(OutputMismatch, match="parsers.parse_calls"):
        check_counts_repeat(runs, COUNT_METRICS)


def test_benchmark_json_matches_the_benchmark():
    document = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in document["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in document["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in document["per_layer"]} == PER_LAYER_UNITS
