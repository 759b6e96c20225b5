"""Incremental revalidation protocol: baselines, node deltas, fallbacks.

Every injected scenario mutates one or two nodes of an otherwise pristine
configuration set, yet the classic SUT contract re-parses and re-walks the
*entire* set per scenario.  This module carries the shared vocabulary of the
delta protocol:

* :class:`BaselineValidation` -- the result of fully validating the pristine
  file set once, including the parsed trees, the pristine observable state
  and an opaque per-SUT reusable index (a splice index or a table of
  directive effects).  The SUT instance that prepared it keeps it (see
  ``SystemUnderTest.prepare``), so suite cells sharing that instance reuse
  it and it is freed with the instance.
* :class:`ScenarioDelta` -- a scenario reduced to detached change records
  addressing baseline nodes, in two kinds kept apart: :class:`NodeChange`
  (the new fields of one node, edited in place) and
  :class:`ChildrenChange` (the new child list of one container, covering
  deleted, inserted, moved and reordered children).  Changes never hold
  view nodes, so they stay valid after the copy-on-write context manager
  has undone the mutation and are safe to share across threads.
* tree-patching helpers that build a revalidation tree by copying only the
  spine above each change, sharing every untouched subtree with the
  baseline.

The engine decides *when* the delta path is sound (see
``InjectionEngine.prepare_incremental`` and its round-trip guard) and
counts how often the delta path ran in its own ``stats``;
``SystemUnderTest.start_delta`` revalidates a delta by re-running the SUT's
own validation walk over the patched trees.  The module holds no state.
Returning ``None`` anywhere falls back to the byte-identical full pass, so
the protocol can never change an experiment's outcome -- only its cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Union

from repro.core.infoset import ConfigNode, ConfigSet, ConfigTree

__all__ = [
    "BaselineValidation",
    "ChildrenChange",
    "NodeChange",
    "ScenarioDelta",
    "node_at",
    "node_from_change",
    "patch_tree",
    "patched_trees",
]


# ------------------------------------------------------------------ data model
@dataclass(frozen=True)
class NodeChange:
    """Detached description of one node whose fields changed in place.

    ``tree``/``path`` address the node inside the *baseline* system trees
    (child indices from the root); the remaining fields are the node's
    post-mutation state.  Children are never part of a field change: the
    patched node keeps the baseline node's children, and edits to a child
    list are :class:`ChildrenChange` records.
    """

    tree: str
    path: tuple[int, ...]
    kind: str
    name: str | None
    value: str | None
    attrs: Mapping[str, Any] = field(default_factory=dict)


#: One child of a patched container: the index of one of the container's
#: own baseline children, the baseline path of a node moved in from another
#: container of the same tree, or a detached snapshot node.
ChildEntry = Union[int, tuple[int, ...], ConfigNode]


@dataclass(frozen=True)
class ChildrenChange:
    """The new child list of one baseline container (a structural edit).

    ``tree``/``path`` address the container inside the baseline trees and
    ``children`` lists its post-mutation children in order.  An ``int``
    entry is the index of one of the container's own baseline children and
    a ``tuple`` entry the baseline path of a node moved in from elsewhere
    in the same tree: both are shared with the baseline.  A
    :class:`~repro.core.infoset.ConfigNode` entry is a detached snapshot
    the scenario inserts; it is read, never mutated.

    One record per touched container expresses every structural operation:
    a deletion omits an index, an insertion (or duplication) adds a
    snapshot, a move omits an index in one container and names its path in
    another, and a permutation reorders the indices.
    """

    tree: str
    path: tuple[int, ...]
    children: tuple[ChildEntry, ...]


@dataclass(frozen=True)
class ScenarioDelta:
    """All changes of one scenario: in-place field edits and child lists.

    The two kinds stay in separate tuples so a SUT that splices field edits
    by path (``SimulatedDatabase``) can never mistake a structural edit for
    one.
    """

    changes: tuple[NodeChange, ...]
    children_changes: tuple[ChildrenChange, ...] = ()

    def trees(self) -> list[str]:
        """Names of the trees this delta touches, deduplicated, in order."""
        seen: dict[str, None] = {}
        for change in (*self.changes, *self.children_changes):
            seen.setdefault(change.tree, None)
        return list(seen)


@dataclass
class BaselineValidation:
    """One fully validated pristine configuration set, ready for deltas.

    ``trees`` are the files parsed with the SUT's own dialects; ``result``
    is the pristine walk's outcome, the one a full ``start()`` returns;
    ``state`` is what the family's ``_baseline_state`` builds while the
    pristine system runs: ``SimulatedDatabase``'s positional index for its
    field-delta splice, ``SimulatedApache``'s table of directive effects
    for its walk to replay, ``None`` for every other SUT;
    ``observable`` is a copy of the pristine system's ``_observable_state``,
    which a delta must reproduce to count as a no-op; ``functional`` records
    the diagnosis suite's outcomes on the pristine system as ``(passed,
    name, detail)`` triples, reused verbatim for no-op deltas.  The last
    three stay None when the pristine system did not start.  Treat
    instances as immutable: the preparing SUT instance hands the same one
    to every engine built over it.
    """

    files: dict[str, str]
    trees: ConfigSet
    result: Any
    state: Any
    observable: Any = None
    functional: tuple[tuple[bool, str, str], ...] | None = None


# ------------------------------------------------------------- tree utilities
def node_at(tree: ConfigTree, path: Iterable[int]) -> ConfigNode | None:
    """The node at a child-index ``path`` from the root, or None."""
    node = tree.root
    for index in path:
        if not 0 <= index < len(node.children):
            return None
        node = node.children[index]
    return node


def node_from_change(change: NodeChange, baseline_node: ConfigNode | None) -> ConfigNode:
    """Build the post-mutation node a change describes.

    Children are taken from the baseline node (shared, not cloned: patched
    trees are read-only revalidation inputs, and a node holds no link to
    its parent, so sharing a subtree between two trees is safe).
    """
    node = ConfigNode(change.kind, name=change.name, value=change.value, attrs=change.attrs)
    if baseline_node is not None and baseline_node.children:
        node.children = list(baseline_node.children)
    return node


def patch_tree(
    tree: ConfigTree, changes: Iterable[NodeChange | ChildrenChange]
) -> ConfigTree | None:
    """Copy of ``tree`` with every change applied.

    Field changes replace a node's fields and child-list changes a
    container's children.  Only the child lists on the spine from the root
    down to each change are copied (a list copy plus index replacement);
    every other node and subtree is shared with the baseline.  Returns None
    when a change does not resolve in ``tree`` -- an unknown path, a field
    change whose kind disagrees with the baseline node, or a child entry
    that names no baseline node -- and the caller falls back to a full pass.
    """
    fields: dict[tuple[int, ...], NodeChange] = {}
    layouts: dict[tuple[int, ...], ChildrenChange] = {}
    for change in changes:
        existing = node_at(tree, change.path)
        if existing is None:
            return None
        if isinstance(change, ChildrenChange):
            layouts[change.path] = change
        elif not change.path or existing.kind != change.kind:
            return None
        else:
            fields[change.path] = change
    # group the changes by path prefix once: each spine node maps to the
    # child indices leading down to a change
    spine: dict[tuple[int, ...], set[int]] = {}
    for path in (*fields, *layouts):
        for depth in range(len(path)):
            spine.setdefault(path[:depth], set()).add(path[depth])
    root = _patch_node(tree.root, (), _Plan(tree, fields, layouts, spine))
    if root is None:
        return None
    return ConfigTree(tree.name, root, dialect=tree.dialect)


@dataclass(frozen=True)
class _Plan:
    tree: ConfigTree
    fields: Mapping[tuple[int, ...], NodeChange]
    layouts: Mapping[tuple[int, ...], ChildrenChange]
    spine: Mapping[tuple[int, ...], set[int]]


def _patch_node(node: ConfigNode, path: tuple[int, ...], plan: _Plan) -> ConfigNode | None:
    """``node`` with the plan applied at and below ``path`` (None: unresolved)."""
    change = plan.fields.get(path)
    layout = plan.layouts.get(path)
    below = plan.spine.get(path, ())
    if change is None and layout is None and not below:
        return node
    source = change if change is not None else node
    copy = ConfigNode(source.kind, name=source.name, value=source.value, attrs=source.attrs)
    if layout is None:
        children = list(node.children)
        for index in below:
            children[index] = _patch_node(children[index], path + (index,), plan)
    else:
        children = _laid_out(node, path, layout.children, below, plan)
    if children is None or None in children:
        return None
    copy.children = children
    return copy


def _laid_out(
    node: ConfigNode,
    path: tuple[int, ...],
    entries: Iterable[ChildEntry],
    below: Iterable[int],
    plan: _Plan,
) -> list[ConfigNode | None] | None:
    """Resolve a child list's entries against the baseline container ``node``.

    None when an entry names no baseline node, or would nest the container
    (or one of its ancestors) inside itself.
    """
    own = node.children
    children: list[ConfigNode | None] = []
    for entry in entries:
        if type(entry) is int:
            if not 0 <= entry < len(own):
                return None
            child = own[entry]
            if entry in below:
                child = _patch_node(child, path + (entry,), plan)
        elif type(entry) is tuple:
            moved = node_at(plan.tree, entry)
            if moved is None or entry == path[: len(entry)]:
                return None
            child = _patch_node(moved, entry, plan)
        elif isinstance(entry, ConfigNode):
            child = entry
        else:
            return None
        children.append(child)
    return children


def patched_trees(baseline_trees: ConfigSet, delta: ScenarioDelta) -> ConfigSet | None:
    """A ConfigSet mirroring the baseline with the delta's changes applied.

    Unchanged trees are shared verbatim; changed trees are spine-copied.
    Returns None when a change addresses an unknown tree or node.
    """
    by_tree: dict[str, list[NodeChange | ChildrenChange]] = {}
    for change in (*delta.changes, *delta.children_changes):
        if change.tree not in baseline_trees:
            return None
        by_tree.setdefault(change.tree, []).append(change)
    patched = ConfigSet()
    for tree in baseline_trees:
        changes = by_tree.get(tree.name)
        if changes is None:
            patched.add(tree)
            continue
        new_tree = patch_tree(tree, changes)
        if new_tree is None:
            return None
        patched.add(new_tree)
    return patched
