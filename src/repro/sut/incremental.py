"""Incremental revalidation protocol: baselines, node deltas, fallbacks.

Every injected scenario mutates one or two nodes of an otherwise pristine
configuration set, yet the classic SUT contract re-parses and re-walks the
*entire* set per scenario.  This module carries the shared vocabulary of the
delta protocol:

* :class:`BaselineValidation` -- the result of fully validating the pristine
  file set once, including the parsed trees, the pristine observable state
  and an opaque per-SUT reusable index (a splice index, or directive
  effects and summaries of top-level children).  The SUT instance that
  prepared it keeps it (see ``SystemUnderTest.prepare``), so suite cells
  sharing that instance reuse it and it is freed with the instance.
* :class:`ScenarioDelta` -- a scenario reduced to detached change records
  addressing baseline nodes, in two kinds kept apart: :class:`NodeChange`
  (the new fields of one node, edited in place) and
  :class:`ChildrenChange` (splices of one container's child list, covering
  deleted, inserted, moved and reordered children).  A splice
  ``(start, stop, entries)`` says that the baseline children
  ``[start:stop]`` become ``entries``, so a change costs what it edits, not
  the length of the list it edits.  Changes never hold view nodes, so they
  stay valid after the copy-on-write context manager has undone the
  mutation and are safe to share across threads.
* tree-patching helpers that build a revalidation tree by copying only the
  spine above each change, sharing every untouched subtree with the
  baseline, and :func:`patched_pieces`, the same patch of one container
  told as runs of untouched baseline children and the nodes the changes
  built, for a walk that reuses what the baseline knows of those runs.

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
from typing import Any, Iterable, Mapping, NamedTuple, Union

from repro.core.infoset import ConfigNode, ConfigSet, ConfigTree

__all__ = [
    "BaselineValidation",
    "ChildrenChange",
    "NodeChange",
    "ScenarioDelta",
    "node_at",
    "node_from_change",
    "patch_tree",
    "patched_pieces",
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


#: One child a splice places: the index of one of the container's own
#: baseline children, the baseline path of a node moved in from another
#: container of the same tree, or a detached snapshot node.
ChildEntry = Union[int, tuple[int, ...], ConfigNode]

#: ``(start, stop, entries)``: the baseline children ``[start:stop]`` of a
#: container become ``entries``.
Splice = tuple[int, int, tuple[ChildEntry, ...]]


@dataclass(frozen=True)
class ChildrenChange:
    """Splices of one baseline container's child list (a structural edit).

    ``tree``/``path`` address the container inside the baseline trees.
    ``splices`` are sorted and do not overlap, in baseline index space: a
    splice ``(start, stop, entries)`` replaces the baseline children
    ``[start:stop]`` with ``entries``, and every baseline child outside all
    splices keeps its place.  An ``int`` entry is the index of one of the
    container's own baseline children and a ``tuple`` entry the baseline
    path of a node moved in from elsewhere in the same tree: both are
    shared with the baseline.  A :class:`~repro.core.infoset.ConfigNode`
    entry is a detached snapshot the scenario inserts; it is read, never
    mutated.

    Each structural operation maps to splices of the containers it edits:
    a deletion of child ``p`` is ``(p, p + 1, ())``, an insertion (or
    duplication) before child ``q`` is ``(q, q, (snapshot,))``, a move
    within one container is both in one record, a move across containers
    one record per container, and a permutation of the first ``k``
    children is ``(0, k, permutation)``.
    """

    tree: str
    path: tuple[int, ...]
    splices: tuple[Splice, ...]


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
    field-delta splice, ``SimulatedApache``'s directive effects and
    top-level summaries for its scoped walk, ``None`` for every other SUT;
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


#: One run of a patched child list: a ``range`` of baseline child indices
#: whose baseline nodes stand unchanged, or one node the changes built.
Piece = Union[range, ConfigNode]


class _Plan(NamedTuple):
    tree: ConfigTree
    fields: Mapping[tuple[int, ...], NodeChange]
    layouts: Mapping[tuple[int, ...], ChildrenChange]
    #: each spine node's child indices leading down to a change, sorted
    spine: Mapping[tuple[int, ...], list[int]]


def _plan(tree: ConfigTree, changes: Iterable[NodeChange | ChildrenChange]) -> _Plan | None:
    """The changes grouped by path, or None when one does not resolve in ``tree``."""
    fields: dict[tuple[int, ...], NodeChange] = {}
    layouts: dict[tuple[int, ...], ChildrenChange] = {}
    for change in changes:
        existing = node_at(tree, change.path) if change.tree == tree.name else None
        if existing is None:
            return None
        if isinstance(change, ChildrenChange):
            if change.path in layouts:
                return None
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
    return _Plan(tree, fields, layouts, {path: sorted(below) for path, below in spine.items()})


def patch_tree(
    tree: ConfigTree, changes: Iterable[NodeChange | ChildrenChange]
) -> ConfigTree | None:
    """Copy of ``tree`` with every change applied.

    Field changes replace a node's fields and splices a container's
    children.  Only the child lists on the spine from the root down to each
    change are copied (list slices around the changed positions); every
    other node and subtree is shared with the baseline.  Returns None when
    a change does not resolve in ``tree`` -- one naming another tree, an
    unknown path, a field change whose kind disagrees with the baseline
    node, two child-list changes of one container, splices out of order or
    out of range, or a child entry that names no baseline node -- and the
    caller falls back to a full pass.
    """
    plan = _plan(tree, changes)
    root = _patch_node(tree.root, (), plan) if plan is not None else None
    if root is None:
        return None
    return ConfigTree(tree.name, root, dialect=tree.dialect)


def patched_pieces(
    tree: ConfigTree, changes: Iterable[NodeChange | ChildrenChange]
) -> list[Piece] | None:
    """The patched root's children, as :func:`patch_tree` would lay them out.

    Runs of baseline root children that no change touches come back as one
    ``range`` of their baseline indices (each run as long as it can be);
    patched, moved-in and inserted top-level nodes come back as nodes.  The
    cost is that of the changes, not of the root's length.  None exactly
    when :func:`patch_tree` gives None.
    """
    plan = _plan(tree, changes)
    return _pieces(tree.root, (), plan) if plan is not None else None


def _patch_node(node: ConfigNode, path: tuple[int, ...], plan: _Plan) -> ConfigNode | None:
    """``node`` with the plan applied at and below ``path`` (None: unresolved)."""
    change = plan.fields.get(path)
    if path not in plan.layouts and path not in plan.spine:
        return node if change is None else node_from_change(change, node)
    pieces = _pieces(node, path, plan)
    if pieces is None:
        return None
    source = change if change is not None else node
    copy = ConfigNode(source.kind, name=source.name, value=source.value, attrs=source.attrs)
    own = node.children
    for piece in pieces:
        if type(piece) is range:
            copy.children.extend(own[piece.start : piece.stop])
        else:
            copy.children.append(piece)
    return copy


def _pieces(node: ConfigNode, path: tuple[int, ...], plan: _Plan) -> list[Piece] | None:
    """The patched child list of the baseline container ``node`` at ``path``.

    None when a splice is out of order or out of range, or an entry names
    no baseline node or would nest the container (or one of its ancestors)
    inside itself.  Changes below a child that a splice removes go with it.
    """
    own = node.children
    count = len(own)
    layout = plan.layouts.get(path)
    below = plan.spine.get(path, ())
    pieces: list[Piece] = []
    at = 0  # the first baseline child not yet placed
    pending = 0  # the first index of ``below`` not yet passed
    for start, stop, entries in (*(layout.splices if layout else ()), (count, count, ())):
        if not at <= start <= stop <= count:
            return None
        while pending < len(below) and below[pending] < start:
            index = below[pending]
            pending += 1
            if index < at:
                continue
            _keep(pieces, at, index)
            child = _patch_node(own[index], path + (index,), plan)
            if child is None:
                return None
            pieces.append(child)
            at = index + 1
        _keep(pieces, at, start)
        for entry in entries:
            if type(entry) is int:
                if not 0 <= entry < count:
                    return None
                if entry not in below:
                    _keep(pieces, entry, entry + 1)
                    continue
                child = _patch_node(own[entry], path + (entry,), plan)
            elif type(entry) is tuple:
                moved = node_at(plan.tree, entry)
                if moved is None or entry == path[: len(entry)]:
                    return None
                child = _patch_node(moved, entry, plan)
            elif isinstance(entry, ConfigNode):
                child = entry
            else:
                return None
            if child is None:
                return None
            pieces.append(child)
        at = stop
    return pieces


def _keep(pieces: list[Piece], start: int, stop: int) -> None:
    """Append the baseline children ``[start:stop]``, joining a run that ends at ``start``."""
    if start >= stop:
        return
    last = pieces[-1] if pieces else None
    if type(last) is range and last.stop == start:
        pieces[-1] = range(last.start, stop)
    else:
        pieces.append(range(start, stop))


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
