"""A resume continues a store whose last line a kill damaged, losing nothing.

A run killed mid-append can leave the last line of a record file without
its newline, or cut short after one.  The store's line rule calls either
line torn: readers do not count it, and the resumed run's first append cuts
it off, so its scenario runs again.  The finished store must then hold the
records of an uninterrupted run and verify clean.
"""

from pathlib import Path

import pytest

from repro.core.spec import ExperimentSpec
from repro.core.store import ResultStore, diff_stores
from repro.core.suite import CampaignSuite

PAPER_SUITE = Path(__file__).resolve().parents[2] / "examples" / "specs" / "paper_suite.toml"


class _Killed(Exception):
    pass


class _KillingStore(ResultStore):
    """A store whose writer dies instead of making its ``after + 1``-th append."""

    def __init__(self, root: Path, after: int):
        super().__init__(root)
        self.left = after

    def append(self, system, campaign, record):
        if self.left == 0:
            raise _Killed
        self.left -= 1
        super().append(system, campaign, record)


def _paper_suite() -> CampaignSuite:
    return CampaignSuite.from_spec(ExperimentSpec.from_file(PAPER_SUITE))


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory) -> ResultStore:
    with ResultStore(tmp_path_factory.mktemp("uninterrupted")) as store:
        _paper_suite().run(store=store)
    return store


def _without_final_newline(data: bytes) -> bytes:
    return data[:-1]


def _cut_short_after_a_newline(data: bytes) -> bytes:
    last_line_start = data.rindex(b"\n", 0, len(data) - 1) + 1
    return data[:last_line_start] + b'{"campaign": "spel\n'


@pytest.mark.parametrize("damage", [_without_final_newline, _cut_short_after_a_newline])
def test_resume_after_a_damaged_last_line_matches_an_uninterrupted_run(
    tmp_path, uninterrupted, damage
):
    killed = _KillingStore(tmp_path, after=100)  # inside MySQL, the first system
    with pytest.raises(_Killed):
        _paper_suite().run(store=killed)
    killed.close()
    path = killed.path_for("mysql")
    path.write_bytes(damage(path.read_bytes()))

    with ResultStore(tmp_path) as resumed:
        _paper_suite().run(store=resumed, resume=True)

    assert diff_stores(ResultStore(tmp_path), uninterrupted) == []
    report = ResultStore(tmp_path).verify()
    assert report.clean, report.summary()
