"""Micro-benchmark: bulk node addressing on wide trees.

A node holds no link to its parent, so its address is only known on the way
down from a root.  :class:`AddressIndex` computes every address in one
enumerate-driven walk -- O(N) -- which is what the plugins use during
scenario generation.  This benchmark pins that on a wide flat tree (the
shape of ``postgresql.conf`` and Apache's directive lists): every address
resolves back to its node, and the index visits each node exactly once.
"""

import functools
from collections import Counter

import pytest

from repro.core.infoset import ConfigNode, ConfigSet, ConfigTree
from repro.core.templates.base import AddressIndex, resolve_address

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


def test_index_addresses_resolve_back_to_their_nodes(wide_set):
    nodes = wide_set.get("wide.conf").root.children
    addresses = _address_all_via_index(wide_set)
    assert [address.path for address in addresses] == [(i,) for i in range(WIDTH)]
    assert all(resolve_address(wide_set, a) is n for a, n in zip(addresses, nodes))


def test_index_does_linear_work(wide_set, monkeypatch):
    """The index walks each node once: one ``walk_with_paths`` call per node."""
    counts: Counter = Counter()
    original = ConfigNode.walk_with_paths

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        counts["walk_with_paths"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(ConfigNode, "walk_with_paths", wrapper)
    _address_all_via_index(wide_set)
    # walk_with_paths recurses through the class attribute: one call per node
    assert counts == Counter(walk_with_paths=WIDTH + 1)


def test_bulk_addressing_benchmark(wide_set, benchmark):
    addresses = benchmark(_address_all_via_index, wide_set)
    assert len(addresses) == WIDTH
