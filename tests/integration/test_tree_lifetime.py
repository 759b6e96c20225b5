"""Configuration trees are acyclic: a campaign leaves none to the cycle collector.

A node holds no link to its parent, so every parsed, cloned, view or
spine-copied tree is freed by reference counting as soon as the campaign
drops it.  The paper suite exercises every SUT family and the parse,
apply/undo, view and delta paths; with the cyclic collector off, whatever
``gc.collect()`` finds afterwards was kept alive only by a reference cycle.
Nor does a run leave state behind: each prepared delta baseline belongs to
the SUT instance that built it and goes with it.
"""

import gc
from pathlib import Path

from repro.core.infoset import ConfigNode, ConfigTree
from repro.core.spec import ExperimentSpec
from repro.core.suite import CampaignSuite
from repro.sut.incremental import BaselineValidation

PAPER_SUITE = Path(__file__).resolve().parents[2] / "examples" / "specs" / "paper_suite.toml"


def _run_paper_suite() -> None:
    """Run the suite; its result is dropped on return, so none of it stays reachable."""
    result = CampaignSuite.from_spec(ExperimentSpec.from_file(PAPER_SUITE)).run()
    assert result.total_executed() > 0


def test_paper_suite_leaves_no_tree_in_a_reference_cycle():
    gc.collect()
    flags, enabled = gc.get_debug(), gc.isenabled()
    gc.disable()
    try:
        _run_paper_suite()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        cyclic = [obj for obj in gc.garbage if isinstance(obj, (ConfigNode, ConfigTree))]
    finally:
        gc.garbage.clear()
        gc.set_debug(flags)
        if enabled:
            gc.enable()
    assert not cyclic, f"{len(cyclic)} configuration nodes and trees were freed only by gc"


def test_no_prepared_baseline_outlives_the_run():
    _run_paper_suite()
    gc.collect()
    kept = [obj for obj in gc.get_objects() if isinstance(obj, BaselineValidation)]
    assert not kept, f"{len(kept)} prepared baselines outlived the suite run"
