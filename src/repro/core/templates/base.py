"""Fault scenarios, node addresses and the template base class.

A mutation must be generated by inspecting one configuration set and later
replayed on a *fresh clone* of that set (every injection experiment starts
from the pristine configuration).  Scenarios therefore never hold direct
references to tree nodes; they address nodes by their *index path* from the
root of a named tree (:class:`NodeAddress`), which is stable across clones.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from repro.core.infoset import ConfigNode, ConfigSet
from repro.errors import TemplateError

__all__ = [
    "NodeAddress",
    "AddressIndex",
    "resolve_address",
    "Operation",
    "UndoUnsupported",
    "DeleteOperation",
    "InsertOperation",
    "MoveOperation",
    "PermuteChildrenOperation",
    "SetFieldOperation",
    "FaultScenario",
    "Template",
]


# ------------------------------------------------------------------ addressing
@dataclass(frozen=True)
class NodeAddress:
    """Stable identification of a node inside a :class:`ConfigSet`.

    ``tree`` is the configuration file name, ``path`` the sequence of child
    indices followed from the root.  The root itself has an empty path.
    """

    tree: str
    path: tuple[int, ...]

    def parent(self) -> "NodeAddress":
        """Address of the parent node (error for roots)."""
        if not self.path:
            raise TemplateError("root node has no parent address")
        return NodeAddress(self.tree, self.path[:-1])

    def child(self, index: int) -> "NodeAddress":
        """Address of the ``index``-th child of this node."""
        return NodeAddress(self.tree, self.path + (index,))

    def __str__(self) -> str:
        return f"{self.tree}:{'/'.join(str(i) for i in self.path) or '.'}"


class AddressIndex:
    """Addresses of every node in a :class:`ConfigSet`, built in one walk.

    A node does not know its parent, so its address can only be found on the
    way down from a root.  The index walks the whole set once with
    :meth:`ConfigNode.walk_with_paths`, so computing the addresses of all N
    nodes is O(N) total, and templates that select nodes by path expression
    look their addresses up here.

    The index is a snapshot: it is valid as long as the set's tree structure
    is unchanged.  Node references are kept alive by the index, so ``id()``
    keys cannot be recycled while it exists.
    """

    __slots__ = ("_addresses",)

    def __init__(self, config_set: ConfigSet):
        self._addresses: dict[int, tuple[ConfigNode, NodeAddress]] = {}
        for tree in config_set:
            for node, path in tree.root.walk_with_paths():
                self._addresses[id(node)] = (node, NodeAddress(tree.name, path))

    def address_of(self, node: ConfigNode) -> NodeAddress:
        """Address of ``node``; TemplateError when it is not in the indexed set."""
        entry = self._addresses.get(id(node))
        if entry is None or entry[0] is not node:
            raise TemplateError("node does not belong to the given configuration set")
        return entry[1]

    def __contains__(self, node: ConfigNode) -> bool:
        entry = self._addresses.get(id(node))
        return entry is not None and entry[0] is node

    def __len__(self) -> int:
        return len(self._addresses)


def resolve_address(config_set: ConfigSet, address: NodeAddress) -> ConfigNode:
    """Return the node at ``address`` in ``config_set``.

    Raises :class:`~repro.errors.TemplateError` when the address does not
    exist (for example because an earlier operation removed the node).
    """
    if address.tree not in config_set:
        raise TemplateError(f"no tree named {address.tree!r} in configuration set")
    node = config_set.get(address.tree).root
    for index in address.path:
        if index >= len(node.children):
            raise TemplateError(f"address {address} does not exist in the configuration set")
        node = node.children[index]
    return node


def _resolve_slot(config_set: ConfigSet, address: NodeAddress) -> tuple[ConfigNode, int] | None:
    """``(parent, index)`` of the node at ``address``, or None for a root.

    Raises :class:`~repro.errors.TemplateError` when the address does not
    exist.
    """
    if not address.path:
        resolve_address(config_set, address)
        return None
    parent = resolve_address(config_set, address.parent())
    index = address.path[-1]
    if index >= len(parent.children):
        raise TemplateError(f"address {address} does not exist in the configuration set")
    return parent, index


def _place(parent: ConfigNode, index: int | None, node: ConfigNode) -> None:
    """Insert ``node`` under ``parent`` at ``index``, appending when None or past the end."""
    if index is None or index >= len(parent.children):
        parent.append(node)
    else:
        parent.insert(index, node)


# ------------------------------------------------------------------ operations
class UndoUnsupported(TemplateError):
    """Raised by :meth:`Operation.apply_with_undo` when an operation cannot
    produce an inverse; the engine then falls back to copy-on-write cloning."""


class Operation(ABC):
    """One atomic, replayable mutation of a configuration set."""

    @abstractmethod
    def apply(self, config_set: ConfigSet) -> None:
        """Mutate ``config_set`` in place."""

    @abstractmethod
    def describe(self) -> str:
        """Human-readable description of the mutation."""

    def apply_with_undo(self, config_set: ConfigSet) -> Callable[[], None]:
        """Mutate ``config_set`` in place and return a zero-argument undo.

        Calling the returned function restores the set to the exact state it
        had before this application (the engine uses this to reuse one working
        copy across a whole campaign instead of cloning per scenario).  The
        undo closure may hold direct node references; it is only valid until
        the set is mutated by anything other than later operations of the same
        scenario being undone in reverse order.

        Operations that cannot produce an inverse raise
        :class:`UndoUnsupported`; callers then fall back to applying the
        scenario on a (partially) cloned set via :meth:`Operation.apply`.
        """
        raise UndoUnsupported(f"{type(self).__name__} does not support undo")

    def touched_trees(self) -> frozenset[str] | None:
        """Names of the trees this operation may mutate, or None when unknown.

        ``None`` forces fallback paths to clone the entire set; built-in
        operations report the trees named by their addresses so only those
        need copying.
        """
        return None


@dataclass(frozen=True)
class DeleteOperation(Operation):
    """Remove the addressed node from its parent."""

    target: NodeAddress

    def apply(self, config_set: ConfigSet) -> None:
        self.apply_with_undo(config_set)

    def apply_with_undo(self, config_set: ConfigSet) -> Callable[[], None]:
        slot = _resolve_slot(config_set, self.target)
        if slot is None:
            raise TemplateError("cannot delete the root of a configuration tree")
        parent, index = slot
        node = parent.children.pop(index)

        def undo() -> None:
            parent.insert(index, node)

        return undo

    def touched_trees(self) -> frozenset[str]:
        return frozenset({self.target.tree})

    def describe(self) -> str:
        return f"delete node at {self.target}"


@dataclass(frozen=True)
class InsertOperation(Operation):
    """Insert a copy of ``node`` under the addressed parent at ``index``.

    ``index`` may be None to append.  The node snapshot is cloned on every
    application so a scenario can be replayed multiple times.
    """

    parent: NodeAddress
    node: ConfigNode
    index: int | None = None

    def apply(self, config_set: ConfigSet) -> None:
        self.apply_with_undo(config_set)

    def apply_with_undo(self, config_set: ConfigSet) -> Callable[[], None]:
        parent = resolve_address(config_set, self.parent)
        copy = self.node.clone()
        _place(parent, self.index, copy)

        def undo() -> None:
            parent.children.remove(copy)

        return undo

    def touched_trees(self) -> frozenset[str]:
        return frozenset({self.parent.tree})

    def describe(self) -> str:
        where = "end" if self.index is None else f"position {self.index}"
        return f"insert {self.node.describe()} under {self.parent} at {where}"


@dataclass(frozen=True)
class MoveOperation(Operation):
    """Detach the addressed node and re-attach it under a new parent.

    Moving a tree's root attaches it under the new parent and leaves it the
    root of its own tree too; :meth:`apply_with_undo` refuses that case.
    """

    target: NodeAddress
    new_parent: NodeAddress
    index: int | None = None

    def apply(self, config_set: ConfigSet) -> None:
        if self.target.path:
            self.apply_with_undo(config_set)
            return
        node = resolve_address(config_set, self.target)
        _place(self._destination(config_set), self.index, node)

    def apply_with_undo(self, config_set: ConfigSet) -> Callable[[], None]:
        slot = _resolve_slot(config_set, self.target)
        new_parent = self._destination(config_set)
        if slot is None:
            # apply() tolerates re-parenting a root; keep that via the fallback.
            raise UndoUnsupported("moving a root node is not undoable")
        old_parent, old_index = slot
        node = old_parent.children.pop(old_index)
        _place(new_parent, self.index, node)

        def undo() -> None:
            new_parent.children.remove(node)
            old_parent.insert(old_index, node)

        return undo

    def _destination(self, config_set: ConfigSet) -> ConfigNode:
        """The resolved new parent; TemplateError when it lies in the moved subtree."""
        new_parent = resolve_address(config_set, self.new_parent)
        target, destination = self.target, self.new_parent
        if target.tree == destination.tree and destination.path[: len(target.path)] == target.path:
            raise TemplateError("cannot move a node into its own subtree")
        return new_parent

    def touched_trees(self) -> frozenset[str]:
        return frozenset({self.target.tree, self.new_parent.tree})

    def describe(self) -> str:
        return f"move node at {self.target} under {self.new_parent}"


@dataclass(frozen=True)
class PermuteChildrenOperation(Operation):
    """Reorder the children of a node according to a fixed permutation.

    ``permutation`` maps new positions to old positions and must cover every
    child of the addressed node exactly once (children beyond the permutation
    length keep their relative order at the end).
    """

    parent: NodeAddress
    permutation: tuple[int, ...]

    def apply(self, config_set: ConfigSet) -> None:
        parent = resolve_address(config_set, self.parent)
        children = list(parent.children)
        if sorted(self.permutation) != list(range(len(self.permutation))):
            raise TemplateError("permutation must be a rearrangement of 0..n-1")
        if len(self.permutation) > len(children):
            raise TemplateError("permutation longer than the child list")
        reordered = [children[old_index] for old_index in self.permutation]
        reordered.extend(children[len(self.permutation):])
        parent.children = reordered

    def apply_with_undo(self, config_set: ConfigSet):
        parent = resolve_address(config_set, self.parent)
        before = list(parent.children)
        self.apply(config_set)

        def undo() -> None:
            parent.children = before

        return undo

    def touched_trees(self) -> frozenset[str]:
        return frozenset({self.parent.tree})

    def describe(self) -> str:
        return f"permute children of {self.parent} to order {self.permutation}"


@dataclass(frozen=True)
class SetFieldOperation(Operation):
    """Overwrite one field (``name``, ``value`` or an attribute) of a node."""

    target: NodeAddress
    field_name: str  # "name", "value" or "attr:<key>"
    new_value: Any

    def apply(self, config_set: ConfigSet) -> None:
        node = resolve_address(config_set, self.target)
        if self.field_name == "name":
            node.name = self.new_value
        elif self.field_name == "value":
            node.value = self.new_value
        elif self.field_name.startswith("attr:"):
            node.attrs[self.field_name[len("attr:"):]] = self.new_value
        else:
            raise TemplateError(f"unknown field {self.field_name!r}")

    def apply_with_undo(self, config_set: ConfigSet) -> Callable[[], None]:
        node = resolve_address(config_set, self.target)
        if self.field_name == "name":
            old_name = node.name
            node.name = self.new_value

            def undo() -> None:
                node.name = old_name

        elif self.field_name == "value":
            old_value = node.value
            node.value = self.new_value

            def undo() -> None:
                node.value = old_value

        elif self.field_name.startswith("attr:"):
            key = self.field_name[len("attr:"):]
            had_key = key in node.attrs
            old_attr = node.attrs.get(key)
            node.attrs[key] = self.new_value

            def undo() -> None:
                if had_key:
                    node.attrs[key] = old_attr
                else:
                    node.attrs.pop(key, None)

        else:
            raise TemplateError(f"unknown field {self.field_name!r}")
        return undo

    def touched_trees(self) -> frozenset[str]:
        return frozenset({self.target.tree})

    def describe(self) -> str:
        return f"set {self.field_name} of node at {self.target} to {self.new_value!r}"


# -------------------------------------------------------------------- scenario
@dataclass
class FaultScenario:
    """A replayable configuration mutation.

    Attributes
    ----------
    scenario_id:
        Unique, human-readable identifier (used in resilience profiles).
    description:
        One-line description of the injected error.
    category:
        Error class this scenario belongs to (``"typo-omission"``,
        ``"structure-duplicate"``, ``"semantic-mx-cname"``...); profiles are
        aggregated per category.
    operations:
        Ordered operations applied to a clone of the pristine configuration.
    metadata:
        Free-form extra information recorded in the profile (target directive
        name, mutated value, ...).
    """

    scenario_id: str
    description: str
    category: str
    operations: Sequence[Operation] = field(default_factory=tuple)
    metadata: dict[str, Any] = field(default_factory=dict)

    def apply(self, config_set: ConfigSet) -> ConfigSet:
        """Return a mutated deep copy of ``config_set`` (the input is untouched)."""
        mutated = config_set.clone()
        self.apply_in_place(mutated)
        return mutated

    def apply_in_place(self, config_set: ConfigSet) -> None:
        """Apply every operation to ``config_set``, mutating it."""
        for operation in self.operations:
            operation.apply(config_set)

    def touched_trees(self) -> frozenset[str] | None:
        """Trees this scenario mutates, or None when any operation is opaque."""
        touched: set[str] = set()
        for operation in self.operations:
            trees = operation.touched_trees()
            if trees is None:
                return None
            touched.update(trees)
        return frozenset(touched)

    def materialize_cow(self, config_set: ConfigSet) -> ConfigSet:
        """Mutated copy-on-write overlay: only touched trees are cloned.

        Untouched trees are *shared* with ``config_set``; the result must be
        treated as read-only scratch (serialise and discard).
        """
        touched = self.touched_trees()
        if touched is None:
            overlay = config_set.clone()
        else:
            overlay = ConfigSet(
                tree.clone() if tree.name in touched else tree for tree in config_set
            )
        self.apply_in_place(overlay)
        return overlay

    @contextmanager
    def applied_to(self, config_set: ConfigSet) -> Iterator[ConfigSet]:
        """Context manager yielding ``config_set`` with this scenario applied.

        Fast path: every operation supports :meth:`Operation.apply_with_undo`,
        so ``config_set`` itself is mutated in place and rolled back on exit --
        no cloning at all.  Fallback (an operation without an inverse): a
        copy-on-write overlay cloning only the touched trees is yielded and
        ``config_set`` stays untouched.  Either way the input is byte-identical
        to its original state after the block exits.
        """
        undos: list[Callable[[], None]] = []
        fallback = False
        try:
            for operation in self.operations:
                undos.append(operation.apply_with_undo(config_set))
        except UndoUnsupported:
            for undo in reversed(undos):
                undo()
            undos = []
            fallback = True
        except BaseException:
            for undo in reversed(undos):
                undo()
            raise
        if fallback:
            yield self.materialize_cow(config_set)
            return
        try:
            yield config_set
        finally:
            for undo in reversed(undos):
                undo()

    def describe_operations(self) -> list[str]:
        """Descriptions of the individual operations, in order."""
        return [operation.describe() for operation in self.operations]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultScenario({self.scenario_id!r}, category={self.category!r})"


# -------------------------------------------------------------------- template
class Template(ABC):
    """Base class of all error templates.

    A template inspects a configuration set and produces fault scenarios.
    Randomised templates draw from the supplied ``random.Random`` so that
    campaigns are reproducible from a seed.
    """

    #: Category recorded on generated scenarios unless overridden.
    category: str = "generic"

    @abstractmethod
    def generate(self, config_set: ConfigSet, rng: random.Random) -> list[FaultScenario]:
        """Produce fault scenarios for ``config_set``."""

    def __or__(self, other: "Template") -> "Template":
        """``a | b`` composes two templates into a union (paper Section 3.3)."""
        from repro.core.templates.compose import UnionTemplate

        return UnionTemplate([self, other])
