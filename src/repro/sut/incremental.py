"""Incremental revalidation protocol: baselines, node deltas, fallbacks.

Every injected scenario mutates one or two nodes of an otherwise pristine
configuration set, yet the classic SUT contract re-parses and re-walks the
*entire* set per scenario.  This module carries the shared vocabulary of the
delta protocol:

* :class:`BaselineValidation` -- the result of fully validating the pristine
  file set once per ``(worker, plugin run)``, including the parsed trees and
  an opaque per-SUT reusable index (duplicate maps, option tables, context
  stacks).
* :class:`ScenarioDelta` -- a scenario reduced to detached change records
  addressing baseline nodes, in two kinds kept apart: :class:`NodeChange`
  (the new fields of one node, edited in place) and
  :class:`ChildrenChange` (the new child list of one container, covering
  deleted, inserted, moved and reordered children).  Changes never hold
  view nodes, so they stay valid after the copy-on-write context manager
  has undone the mutation and are safe to share across threads.
* a content-hash keyed baseline cache, so consecutive plugin runs (and suite
  cells) over the same system files reuse one prepared baseline instead of
  re-validating per run.
* tree-patching helpers that build a revalidation tree by copying only the
  spine above each change, sharing every untouched subtree with the
  baseline.
* :data:`INCREMENTAL_STATS` -- process-global counters tracking how often
  the delta path ran versus fell back to a full validation pass.

The engine decides *when* the delta path is sound (see
``InjectionEngine.prepare_incremental`` and its round-trip guard); SUTs
decide *how* to revalidate a delta (``SystemUnderTest.start_delta``).
Returning ``None`` anywhere falls back to the byte-identical full pass, so
the protocol can never change an experiment's outcome -- only its cost.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Union

from repro.core.infoset import ConfigNode, ConfigSet, ConfigTree

__all__ = [
    "BaselineValidation",
    "ChildrenChange",
    "NodeChange",
    "ScenarioDelta",
    "IncrementalStats",
    "INCREMENTAL_STATS",
    "content_key",
    "cached_baseline",
    "store_baseline",
    "clear_baseline_cache",
    "node_at",
    "node_from_change",
    "patch_tree",
    "patched_trees",
]


# ------------------------------------------------------------------ statistics
@dataclass
class IncrementalStats:
    """Process-global counters for the delta-validation path.

    ``attempts`` counts scenarios offered to the delta path;
    ``delta_starts`` the ones it validated without a full pass.  The three
    fallback counters partition the remainder: ``fallbacks`` are edits the
    view cannot express (multi-operation structural scenarios, cross-file
    moves) or the SUT declined, ``guard_fallbacks`` are changes the
    round-trip guard refused, and ``errors`` are unexpected exceptions
    (always recoverable -- the full pass runs instead).  ``substitutions``
    counts changes the guard accepted after replacing the mutated fields
    with their single-node reparse (line-oriented dialects only), and
    ``noop_reuses`` delta starts that proved the scenario a no-op so the
    baseline functional outcomes were reused.
    """

    prepares: int = 0
    cache_hits: int = 0
    attempts: int = 0
    delta_starts: int = 0
    fallbacks: int = 0
    guard_fallbacks: int = 0
    substitutions: int = 0
    noop_reuses: int = 0
    errors: int = 0

    def reset(self) -> None:
        """Zero every counter (tests isolate themselves with this)."""
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)

    def snapshot(self) -> dict[str, int]:
        """Current counter values as a plain dict."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    @property
    def fallback_total(self) -> int:
        """Scenarios that reached the delta path but ran the full pass."""
        return self.fallbacks + self.guard_fallbacks + self.errors

    @property
    def fallback_rate(self) -> float:
        """Fraction of attempted scenarios that fell back (0.0 when idle)."""
        return self.fallback_total / self.attempts if self.attempts else 0.0


#: Counters shared by every engine in the process (per-process in pools,
#: like ``CLONE_STATS``).
INCREMENTAL_STATS = IncrementalStats()


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
    the scenario inserts; it is read, never mutated or re-parented.

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
    by path (MySQL, Postgres) can never mistake a structural edit for one.
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
    is the full ``start()`` outcome on the pristine files; ``state`` is the
    SUT-specific reusable index built by ``_baseline_state`` while the
    pristine system was running (``None`` when the SUT offers no delta
    support); ``functional`` records the diagnosis suite's outcomes on the
    pristine system as ``(passed, name, detail)`` triples, reused verbatim
    for no-op deltas.  Treat instances as immutable: they are shared
    between plugin runs and threads through the baseline cache.
    """

    files: dict[str, str]
    trees: ConfigSet
    result: Any
    state: Any
    content_key: str
    functional: tuple[tuple[bool, str, str], ...] | None = None


# ------------------------------------------------------------- baseline cache
_BASELINE_CACHE: dict[tuple[str, str], BaselineValidation] = {}
_CACHE_LOCK = threading.Lock()
#: Distinct (SUT class, file set) baselines kept; oldest evicted beyond this.
_CACHE_LIMIT = 16


def content_key(files: Mapping[str, str]) -> str:
    """Stable content hash of a configuration file set."""
    digest = hashlib.sha256()
    for name in sorted(files):
        digest.update(name.encode("utf-8", "surrogateescape"))
        digest.update(b"\x00")
        digest.update(files[name].encode("utf-8", "surrogateescape"))
        digest.update(b"\x00")
    return digest.hexdigest()


def cached_baseline(sut_key: str, key: str) -> BaselineValidation | None:
    """Look up a prepared baseline for (SUT class, content hash)."""
    with _CACHE_LOCK:
        return _BASELINE_CACHE.get((sut_key, key))


def store_baseline(sut_key: str, key: str, baseline: BaselineValidation) -> None:
    """Cache a prepared baseline, evicting the oldest entry when full."""
    with _CACHE_LOCK:
        if len(_BASELINE_CACHE) >= _CACHE_LIMIT and (sut_key, key) not in _BASELINE_CACHE:
            _BASELINE_CACHE.pop(next(iter(_BASELINE_CACHE)))
        _BASELINE_CACHE[(sut_key, key)] = baseline


def clear_baseline_cache() -> None:
    """Drop every cached baseline (test isolation)."""
    with _CACHE_LOCK:
        _BASELINE_CACHE.clear()


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
    trees are read-only revalidation inputs and nothing in the SUT
    validators follows ``parent`` pointers).
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
