"""Micro-benchmark: bulk node addressing on wide trees.

``address_of`` walks up from the node, paying a linear scan of each
ancestor's child list per level; addressing all N nodes of a wide tree that
way is O(N^2).  :class:`AddressIndex` computes every address in one
enumerate-driven walk -- O(N) -- which is what the plugins now use during
scenario generation.  This benchmark proves the win on a wide flat tree (the
shape of ``postgresql.conf`` and Apache's directive lists), by wall clock
and by counting the node visits and sibling-list scans each way makes.
"""

import functools
import time
from collections import Counter

import pytest

from repro.core.infoset import ConfigNode, ConfigSet, ConfigTree
from repro.core.templates.base import AddressIndex, address_of

WIDTH = 2000


@pytest.fixture(scope="module")
def wide_set() -> ConfigSet:
    root = ConfigNode(
        "file",
        name="wide.conf",
        children=[ConfigNode("directive", f"option_{i}", str(i)) for i in range(WIDTH)],
    )
    return ConfigSet([ConfigTree("wide.conf", root, dialect="ini")])


def _address_all_via_index(config_set: ConfigSet):
    index = AddressIndex(config_set)
    tree = config_set.get("wide.conf")
    return [index.address_of(node) for node in tree.root.children]


def _address_all_via_upwalk(config_set: ConfigSet):
    tree = config_set.get("wide.conf")
    return [address_of(config_set, node) for node in tree.root.children]


def test_index_matches_per_node_addressing(wide_set):
    assert _address_all_via_index(wide_set) == _address_all_via_upwalk(wide_set)


def test_index_beats_per_node_addressing_on_wide_trees(wide_set):
    started = time.perf_counter()
    _address_all_via_index(wide_set)
    indexed = time.perf_counter() - started

    started = time.perf_counter()
    _address_all_via_upwalk(wide_set)
    legacy = time.perf_counter() - started

    # O(N) vs O(N^2): on 2000 siblings the gap is orders of magnitude, so a
    # 3x bar keeps the assertion far from scheduler noise.
    assert indexed * 3 < legacy, f"AddressIndex {indexed:.4f}s vs per-node {legacy:.4f}s"


def test_index_does_linear_work_and_the_upwalk_quadratic(wide_set, monkeypatch):
    """Count the work behind the timing above: the index walks each node once
    and never scans a sibling list; the up-walk scans one per node."""
    counts: Counter = Counter()

    def counted(name):
        original = getattr(ConfigNode, name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(ConfigNode, name, wrapper)

    counted("index_in_parent")
    counted("walk_with_paths")
    _address_all_via_index(wide_set)
    # walk_with_paths recurses through the class attribute: one call per node
    assert counts == Counter(walk_with_paths=WIDTH + 1)

    counts.clear()
    _address_all_via_upwalk(wide_set)
    assert counts == Counter(index_in_parent=WIDTH)


def test_bulk_addressing_benchmark(wide_set, benchmark):
    addresses = benchmark(_address_all_via_index, wide_set)
    assert len(addresses) == WIDTH
