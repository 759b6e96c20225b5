"""Shared pytest configuration: the golden-file harness.

Golden files under ``tests/golden/`` pin the byte-exact output of the
paper-artefact renderers (Tables 1-3, Figure 3, the resilience matrix and
the report views).  ``pytest --regen-goldens`` rewrites them from the
current renders -- use it when an output change is *intended*, and review
the resulting diff like any other code change.
"""

from __future__ import annotations

from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--regen-goldens",
        action="store_true",
        default=False,
        help="rewrite tests/golden/* from the current renders instead of comparing",
    )


@pytest.fixture
def golden(request: pytest.FixtureRequest):
    """Compare ``text`` against the checked-in golden file ``name``.

    With ``--regen-goldens`` the golden file is (re)written and the check
    passes; without it, a missing or drifted golden fails with a pointed
    message.
    """
    regenerate = request.config.getoption("--regen-goldens")

    def check(name: str, text: str) -> None:
        path = GOLDEN_DIR / name
        if regenerate:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
            return
        assert path.is_file(), (
            f"golden file {path} is missing; generate it with "
            "pytest --regen-goldens and commit the result"
        )
        expected = path.read_text(encoding="utf-8")
        assert text == expected, (
            f"render drifted from {path.name}; if the change is intended, "
            "regenerate with pytest --regen-goldens and review the diff"
        )

    return check


@pytest.fixture
def clone_counts(monkeypatch: pytest.MonkeyPatch) -> dict[str, int]:
    """Count ``ConfigSet.clone`` and ``ConfigTree.clone`` calls during a test.

    Returns ``{"set": n, "tree": n}``, updated live by counting wrappers
    installed on both classes.  A set clone also counts one tree clone per
    member tree, since it clones each of them.
    """
    from repro.core.infoset import ConfigSet, ConfigTree

    counts = {"set": 0, "tree": 0}

    def count(cls: type, key: str) -> None:
        original = cls.clone

        def clone(self):
            counts[key] += 1
            return original(self)

        monkeypatch.setattr(cls, "clone", clone)

    count(ConfigSet, "set")
    count(ConfigTree, "tree")
    return counts
