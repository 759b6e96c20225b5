"""A small XPath-like query language over :class:`~repro.core.infoset.ConfigNode` trees.

The paper specifies template targets with XPath queries over the XML infoset
representation (Section 3.3).  This module implements the subset of XPath
that the templates and plugins need, natively over :class:`ConfigNode`:

* ``/file/section/directive``     -- absolute child steps (matched on ``kind``)
* ``//directive``                 -- descendant-or-self steps
* ``*``                           -- wildcard kind
* ``[@name='Listen']``            -- predicate on the node name
* ``[@value='80']``               -- predicate on the node value
* ``[@some-attr='x']``            -- predicate on an ``attrs`` entry
* ``[@name]``                     -- attribute-presence predicate
* ``[3]``                         -- 1-based positional predicate
* ``section/directive``           -- relative paths (evaluated from a context node)

Example
-------
>>> from repro.core.infoset import ConfigNode
>>> root = ConfigNode("file", children=[
...     ConfigNode("section", "mysqld", children=[
...         ConfigNode("directive", "port", "3306"),
...         ConfigNode("directive", "datadir", "/var/lib/mysql"),
...     ]),
... ])
>>> [n.name for n in select(root, "//directive[@name='port']")]
['port']
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.core.infoset import ConfigNode
from repro.errors import PathSyntaxError

__all__ = ["select", "select_one", "parse_path", "PathExpr"]


# --------------------------------------------------------------------------- model
@dataclass(frozen=True)
class Predicate:
    """One ``[...]`` filter attached to a path step."""

    kind: str  # "attr" | "position"
    key: str | None = None
    value: str | None = None
    position: int | None = None

    def evaluate(self, node: ConfigNode, position: int) -> bool:
        """Return True when ``node`` (at 1-based ``position``) satisfies the predicate."""
        if self.kind == "position":
            return position == self.position
        assert self.key is not None
        actual = _node_attribute(node, self.key)
        if self.value is None:
            return actual is not None
        return actual is not None and str(actual) == self.value


@dataclass(frozen=True)
class Step:
    """One location step: an axis, a node test and zero or more predicates."""

    axis: str  # "child" | "descendant"
    node_test: str  # a kind name or "*"
    predicates: tuple[Predicate, ...] = field(default_factory=tuple)

    def candidates(self, node: ConfigNode) -> list[ConfigNode]:
        """Nodes reachable from ``node`` along this step's axis."""
        if self.axis == "child":
            pool = list(node.children)
        else:  # descendant-or-self applied to children, i.e. all descendants
            pool = list(node.descendants())
        return [n for n in pool if self.node_test == "*" or n.kind == self.node_test]

    def apply(self, node: ConfigNode) -> list[ConfigNode]:
        """Evaluate the step from ``node`` and return matching nodes in order."""
        matched = self.candidates(node)
        for predicate in self.predicates:
            matched = [
                n for position, n in enumerate(matched, start=1) if predicate.evaluate(n, position)
            ]
        return matched


@dataclass(frozen=True)
class PathExpr:
    """A parsed path expression."""

    steps: tuple[Step, ...]
    absolute: bool
    text: str

    def select(self, root: ConfigNode) -> list[ConfigNode]:
        """Return all nodes matched by this expression, starting at ``root``.

        For absolute expressions the first step is evaluated against ``root``
        itself (so ``/file/...`` requires the root to have kind ``file``);
        relative expressions start at ``root``'s children.
        """
        if self.absolute and self.steps:
            first, *rest = self.steps
            if first.axis == "child":
                if first.node_test not in ("*", root.kind):
                    return []
                current = _apply_predicates(first.predicates, [root])
            else:
                pool = [n for n in root.walk() if first.node_test in ("*", n.kind)]
                current = _apply_predicates(first.predicates, pool)
            steps = rest
        else:
            current = [root]
            steps = list(self.steps)

        for step in steps:
            next_nodes: list[ConfigNode] = []
            seen: set[int] = set()
            for node in current:
                for match in step.apply(node):
                    if id(match) not in seen:
                        seen.add(id(match))
                        next_nodes.append(match)
            current = next_nodes
        return current

    def __str__(self) -> str:
        return self.text


def _apply_predicates(predicates: tuple[Predicate, ...], nodes: list[ConfigNode]) -> list[ConfigNode]:
    for predicate in predicates:
        nodes = [n for pos, n in enumerate(nodes, start=1) if predicate.evaluate(n, pos)]
    return nodes


def _node_attribute(node: ConfigNode, key: str):
    """Resolve ``@key`` against the built-in fields first, then ``attrs``."""
    if key == "name":
        return node.name
    if key == "value":
        return node.value
    if key == "kind":
        return node.kind
    return node.attrs.get(key)


# --------------------------------------------------------------------------- parser
_STEP_RE = re.compile(r"^(?P<test>\*|[A-Za-z_][\w.-]*)(?P<preds>(\[[^\]]*\])*)$")
_PRED_RE = re.compile(r"\[([^\]]*)\]")
_ATTR_PRED_RE = re.compile(r"^@(?P<key>[\w.-]+)\s*(=\s*(?P<quote>['\"])(?P<value>.*)(?P=quote))?$")


def parse_path(text: str) -> PathExpr:
    """Parse ``text`` into a :class:`PathExpr`.

    Raises :class:`~repro.errors.PathSyntaxError` on malformed input.
    """
    if not isinstance(text, str) or not text.strip():
        raise PathSyntaxError("empty path expression")
    original = text
    text = text.strip()

    absolute = text.startswith("/")
    steps: list[Step] = []
    index = 0
    first = True
    while index < len(text):
        axis = "child"
        if text.startswith("//", index):
            axis = "descendant"
            index += 2
        elif text.startswith("/", index):
            index += 1
        elif not first:
            raise PathSyntaxError(f"expected '/' at position {index} in {original!r}")
        first = False

        # find the end of this step: the next '/' that is not inside brackets
        depth = 0
        end = index
        while end < len(text):
            char = text[end]
            if char == "[":
                depth += 1
            elif char == "]":
                depth -= 1
            elif char == "/" and depth == 0:
                break
            end += 1
        step_text = text[index:end]
        if not step_text:
            raise PathSyntaxError(f"empty step in path {original!r}")
        steps.append(_parse_step(step_text, axis, original))
        index = end

    if not steps:
        raise PathSyntaxError(f"no steps in path {original!r}")
    return PathExpr(steps=tuple(steps), absolute=absolute, text=original)


def _parse_step(step_text: str, axis: str, original: str) -> Step:
    match = _STEP_RE.match(step_text)
    if not match:
        raise PathSyntaxError(f"malformed step {step_text!r} in path {original!r}")
    node_test = match.group("test")
    predicates: list[Predicate] = []
    for pred_text in _PRED_RE.findall(match.group("preds") or ""):
        predicates.append(_parse_predicate(pred_text.strip(), original))
    return Step(axis=axis, node_test=node_test, predicates=tuple(predicates))


def _parse_predicate(pred_text: str, original: str) -> Predicate:
    if not pred_text:
        raise PathSyntaxError(f"empty predicate in path {original!r}")
    if pred_text.isdigit():
        return Predicate(kind="position", position=int(pred_text))
    match = _ATTR_PRED_RE.match(pred_text)
    if not match:
        raise PathSyntaxError(f"malformed predicate [{pred_text}] in path {original!r}")
    return Predicate(kind="attr", key=match.group("key"), value=match.group("value"))


# --------------------------------------------------------------------------- API
def select(root: ConfigNode, path: str | PathExpr) -> list[ConfigNode]:
    """Return every node under ``root`` matched by ``path``."""
    expr = path if isinstance(path, PathExpr) else parse_path(path)
    return expr.select(root)


def select_one(root: ConfigNode, path: str | PathExpr) -> ConfigNode | None:
    """Return the first node matched by ``path`` (document order), or None."""
    results = select(root, path)
    return results[0] if results else None
