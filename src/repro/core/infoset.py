"""Abstract configuration representation.

ConfErr models configuration files internally as *information sets*: trees of
items, each carrying a type, optional textual value and a dictionary of
properties (paper, Section 3.2).  This module provides that data model.

A :class:`ConfigNode` is a mutable tree node with

* ``kind`` -- the node type (``"file"``, ``"section"``, ``"directive"``,
  ``"line"``, ``"token"``, ``"record"``, ...),
* ``name`` -- an optional identifying name (directive name, section name),
* ``value`` -- an optional textual value,
* ``attrs`` -- arbitrary string-keyed properties used by parsers to record
  whatever is needed to faithfully re-serialise the file (separators,
  comments, original spelling, ...),
* ``children`` -- ordered child nodes.

A :class:`ConfigTree` wraps a root node together with the logical name of the
configuration file it came from, so multi-file configurations can be handled
as sets of trees (the paper injects cross-file errors, Section 3.1).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, Optional


class ConfigNode:
    """One information item in a configuration tree."""

    __slots__ = ("kind", "name", "value", "attrs", "children", "parent")

    def __init__(
        self,
        kind: str,
        name: str | None = None,
        value: str | None = None,
        attrs: Mapping[str, Any] | None = None,
        children: Iterable["ConfigNode"] | None = None,
    ):
        self.kind = kind
        self.name = name
        self.value = value
        self.attrs: dict[str, Any] = dict(attrs) if attrs else {}
        self.children: list[ConfigNode] = []
        self.parent: ConfigNode | None = None
        if children:
            for child in children:
                self.append(child)

    # ------------------------------------------------------------------ tree
    def append(self, child: "ConfigNode") -> "ConfigNode":
        """Append ``child`` as the last child and return it."""
        child.parent = self
        self.children.append(child)
        return child

    def insert(self, index: int, child: "ConfigNode") -> "ConfigNode":
        """Insert ``child`` at position ``index`` and return it."""
        child.parent = self
        self.children.insert(index, child)
        return child

    def remove(self, child: "ConfigNode") -> "ConfigNode":
        """Remove ``child`` from this node's children and return it."""
        self.children.remove(child)
        child.parent = None
        return child

    def detach(self) -> "ConfigNode":
        """Remove this node from its parent (no-op for roots) and return it."""
        if self.parent is not None:
            self.parent.remove(self)
        return self

    def index_in_parent(self) -> int:
        """Position of this node among its siblings.

        Raises ``ValueError`` for root nodes.
        """
        if self.parent is None:
            raise ValueError("node has no parent")
        return self.parent.children.index(self)

    def replace_with(self, other: "ConfigNode") -> "ConfigNode":
        """Replace this node with ``other`` in the parent's child list."""
        if self.parent is None:
            raise ValueError("cannot replace a root node")
        parent = self.parent
        idx = self.index_in_parent()
        parent.children[idx] = other
        other.parent = parent
        self.parent = None
        return other

    # ------------------------------------------------------------- traversal
    def walk(self) -> Iterator["ConfigNode"]:
        """Yield this node and all descendants in document order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def walk_with_paths(
        self, prefix: tuple[int, ...] = ()
    ) -> Iterator[tuple["ConfigNode", tuple[int, ...]]]:
        """Yield ``(node, index_path)`` pairs in document order.

        The index path is the sequence of child indices from this node down to
        the yielded node (this node itself has path ``prefix``).  Computing
        paths during the walk is O(total nodes); deriving them per node with
        :meth:`index_in_parent` would cost O(depth x sibling count) each.
        """
        yield self, prefix
        for index, child in enumerate(self.children):
            yield from child.walk_with_paths(prefix + (index,))

    def descendants(self) -> Iterator["ConfigNode"]:
        """Yield all descendants (excluding this node) in document order."""
        for child in self.children:
            yield from child.walk()

    def ancestors(self) -> Iterator["ConfigNode"]:
        """Yield the parent chain from the immediate parent up to the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def find_all(self, predicate: Callable[["ConfigNode"], bool]) -> list["ConfigNode"]:
        """Return every node in this subtree matching ``predicate``."""
        return [node for node in self.walk() if predicate(node)]

    def find_first(self, predicate: Callable[["ConfigNode"], bool]) -> Optional["ConfigNode"]:
        """Return the first node (document order) matching ``predicate``."""
        for node in self.walk():
            if predicate(node):
                return node
        return None

    def children_of_kind(self, kind: str) -> list["ConfigNode"]:
        """Return the direct children whose ``kind`` equals ``kind``."""
        return [child for child in self.children if child.kind == kind]

    def child_named(self, name: str, kind: str | None = None) -> Optional["ConfigNode"]:
        """Return the first direct child with the given name (and kind)."""
        for child in self.children:
            if child.name == name and (kind is None or child.kind == kind):
                return child
        return None

    def path_from_root(self) -> list["ConfigNode"]:
        """Return the chain of nodes from the root down to (including) self."""
        chain = list(self.ancestors())
        chain.reverse()
        chain.append(self)
        return chain

    def depth(self) -> int:
        """Distance from the root (a root has depth 0)."""
        return sum(1 for _ in self.ancestors())

    # ----------------------------------------------------------------- value
    def get(self, key: str, default: Any = None) -> Any:
        """Return attribute ``key`` or ``default``."""
        return self.attrs.get(key, default)

    def set(self, key: str, value: Any) -> "ConfigNode":
        """Set attribute ``key`` and return self (chainable)."""
        self.attrs[key] = value
        return self

    # ------------------------------------------------------------------ copy
    def clone(self) -> "ConfigNode":
        """Deep-copy this subtree (parent pointer of the copy is ``None``)."""
        copy = ConfigNode(self.kind, self.name, self.value, dict(self.attrs))
        for child in self.children:
            copy.append(child.clone())
        return copy

    # ------------------------------------------------------------ comparison
    def structurally_equal(self, other: "ConfigNode") -> bool:
        """Deep structural equality (kind, name, value, attrs and children)."""
        if not isinstance(other, ConfigNode):
            return False
        if (self.kind, self.name, self.value) != (other.kind, other.name, other.value):
            return False
        if self.attrs != other.attrs:
            return False
        if len(self.children) != len(other.children):
            return False
        return all(a.structurally_equal(b) for a, b in zip(self.children, other.children))

    # --------------------------------------------------------------- display
    def describe(self) -> str:
        """Short one-line human description of this node."""
        parts = [self.kind]
        if self.name is not None:
            parts.append(repr(self.name))
        if self.value is not None:
            parts.append(f"= {self.value!r}")
        return " ".join(parts)

    def pretty(self, indent: int = 0) -> str:
        """Multi-line indented dump of the subtree (for debugging/reports)."""
        lines = ["  " * indent + self.describe()]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConfigNode({self.describe()}, children={len(self.children)})"


class ConfigTree:
    """A parsed configuration file: a root :class:`ConfigNode` plus metadata.

    Parameters
    ----------
    name:
        Logical file name (e.g. ``"my.cnf"``); used to match trees to
        serialisers and to report where an error was injected.
    root:
        Root node of the tree.  By convention the root has ``kind == "file"``.
    dialect:
        Identifier of the parser that produced the tree (``"ini"``,
        ``"apache"``, ``"pgconf"``, ...); serialisation uses it to find the
        matching serialiser.
    """

    def __init__(self, name: str, root: ConfigNode, dialect: str = "generic"):
        self.name = name
        self.root = root
        self.dialect = dialect

    def clone(self) -> "ConfigTree":
        """Deep copy of the tree (for the copy-on-write overlay and view transforms)."""
        return ConfigTree(self.name, self.root.clone(), self.dialect)

    def walk(self) -> Iterator[ConfigNode]:
        """Iterate over every node in document order."""
        return self.root.walk()

    def find_all(self, predicate: Callable[[ConfigNode], bool]) -> list[ConfigNode]:
        """Return all nodes matching ``predicate``."""
        return self.root.find_all(predicate)

    def structurally_equal(self, other: "ConfigTree") -> bool:
        """Deep equality of name, dialect and tree content."""
        return (
            isinstance(other, ConfigTree)
            and self.name == other.name
            and self.dialect == other.dialect
            and self.root.structurally_equal(other.root)
        )

    def node_count(self) -> int:
        """Total number of nodes in the tree."""
        return sum(1 for _ in self.walk())

    def pretty(self) -> str:
        """Indented dump of the whole tree."""
        return f"<{self.name} ({self.dialect})>\n" + self.root.pretty(1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConfigTree({self.name!r}, dialect={self.dialect!r}, nodes={self.node_count()})"


class ConfigSet:
    """An ordered collection of :class:`ConfigTree` objects.

    ConfErr mutates *sets* of configuration files so that cross-file errors
    can be injected (paper, Section 3.1).  A ``ConfigSet`` behaves like an
    ordered mapping from file name to tree.
    """

    def __init__(self, trees: Iterable[ConfigTree] | None = None):
        self._trees: dict[str, ConfigTree] = {}
        for tree in trees or []:
            self.add(tree)

    def add(self, tree: ConfigTree) -> ConfigTree:
        """Add (or replace) a tree, keyed by its file name."""
        self._trees[tree.name] = tree
        return tree

    def get(self, name: str) -> ConfigTree:
        """Return the tree for ``name`` (KeyError if absent)."""
        return self._trees[name]

    def __contains__(self, name: str) -> bool:
        return name in self._trees

    def __iter__(self) -> Iterator[ConfigTree]:
        return iter(self._trees.values())

    def __len__(self) -> int:
        return len(self._trees)

    def names(self) -> list[str]:
        """File names in insertion order."""
        return list(self._trees)

    def clone(self) -> "ConfigSet":
        """Deep copy of every tree in the set."""
        return ConfigSet(tree.clone() for tree in self)

    def structurally_equal(self, other: "ConfigSet") -> bool:
        """Deep equality over all member trees."""
        if not isinstance(other, ConfigSet) or self.names() != other.names():
            return False
        return all(self.get(n).structurally_equal(other.get(n)) for n in self.names())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConfigSet({self.names()})"
