"""Token view: configuration files as lines of typed tokens.

This is the representation the spelling-mistakes plugin works on
(paper Figure 2.c): each configuration entry becomes a ``line`` node whose
children are ``token`` nodes tagged with a *token type* (directive name,
directive value word, section name, ...).  The token type lets the plugin
restrict injection to a specific part of the configuration, e.g. mis-spell
directive names only (Section 4.1).

Every token records the address of the node it came from and the field it
represents, which is the complementary information the reverse transform
needs (Section 3.2).
"""

from __future__ import annotations

import re

from repro.core.infoset import ConfigNode, ConfigSet, ConfigTree
from repro.core.templates.base import SetFieldOperation
from repro.core.views.base import View
from repro.errors import TransformError
from repro.sut.incremental import NodeChange, node_at

__all__ = ["TokenView", "TOKEN_DIRECTIVE_NAME", "TOKEN_DIRECTIVE_VALUE", "TOKEN_SECTION_NAME", "TOKEN_SECTION_ARG"]

TOKEN_DIRECTIVE_NAME = "directive-name"
TOKEN_DIRECTIVE_VALUE = "directive-value"
TOKEN_SECTION_NAME = "section-name"
TOKEN_SECTION_ARG = "section-arg"

#: Node kinds that produce tokens (anything else -- comments, blanks -- is skipped).
_TOKENISABLE_KINDS = {"directive", "section", "record", "control"}

_WORD_SPLIT_RE = re.compile(r"(\s+)")


def _resolve_path(tree: ConfigTree, path: tuple[int, ...]) -> ConfigNode:
    node = tree.root
    for index in path:
        if index >= len(node.children):
            raise TransformError(f"token source path {path} no longer exists in {tree.name!r}")
        node = node.children[index]
    return node


def _split_words(value: str) -> tuple[list[str], list[str]]:
    """Split ``value`` into words and the whitespace gaps between them."""
    if value == "":
        return [], []
    parts = _WORD_SPLIT_RE.split(value)
    words = parts[0::2]
    gaps = parts[1::2]
    # A leading gap produces an empty first word; keep it so reassembly is exact.
    return words, gaps


def _join_words(words: list[str], gaps: list[str]) -> str:
    pieces: list[str] = []
    for index, word in enumerate(words):
        pieces.append(word)
        if index < len(words) - 1:
            pieces.append(gaps[index] if index < len(gaps) else " ")
    return "".join(pieces)


class TokenView(View):
    """Bidirectional mapping between system trees and token/line trees."""

    name = "tokens"

    def __init__(self, include_values: bool = True, include_names: bool = True):
        #: Whether directive/section values are tokenised.
        self.include_values = include_values
        #: Whether directive/section names are tokenised.
        self.include_names = include_names

    # ------------------------------------------------------------- transform
    def transform(self, config_set: ConfigSet) -> ConfigSet:
        view_trees = []
        for tree in config_set:
            view_root = ConfigNode("token-file", name=tree.name)
            # Nodes do not know their parents: the source path of each node
            # comes from this one walk down from the root.
            for node, path in tree.root.walk_with_paths():
                if node.kind not in _TOKENISABLE_KINDS:
                    continue
                line = self._line_for(tree, node, path)
                if line.children:
                    view_root.append(line)
            view_trees.append(ConfigTree(tree.name, view_root, dialect="view:tokens"))
        return ConfigSet(view_trees)

    def _line_for(self, tree: ConfigTree, node: ConfigNode, path: tuple[int, ...]) -> ConfigNode:
        line = ConfigNode(
            "line",
            name=node.name,
            attrs={"source_tree": tree.name, "source_path": path, "source_kind": node.kind},
        )
        if self.include_names and node.name is not None:
            name_type = TOKEN_SECTION_NAME if node.kind == "section" else TOKEN_DIRECTIVE_NAME
            line.append(
                ConfigNode(
                    "token",
                    value=node.name,
                    attrs={
                        "token_type": name_type,
                        "source_tree": tree.name,
                        "source_path": path,
                        "field": "name",
                        "owner_name": node.name,
                    },
                )
            )
        if self.include_values and node.value is not None:
            value_type = TOKEN_SECTION_ARG if node.kind == "section" else TOKEN_DIRECTIVE_VALUE
            words, gaps = _split_words(node.value)
            line.set("value_gaps", gaps)
            for word_index, word in enumerate(words):
                line.append(
                    ConfigNode(
                        "token",
                        value=word,
                        attrs={
                            "token_type": value_type,
                            "source_tree": tree.name,
                            "source_path": path,
                            "field": "value",
                            "word_index": word_index,
                            "owner_name": node.name,
                        },
                    )
                )
        return line

    # ----------------------------------------------------------- untransform
    def untransform(self, view_set: ConfigSet, original: ConfigSet) -> ConfigSet:
        result = original.clone()
        for view_tree in view_set:
            for line in view_tree.root.children_of_kind("line"):
                self._apply_line(line, result)
        return result

    def untransform_touched(self, view_set, original, touched):
        # One view tree per system tree, same name; every line of tree X
        # sources from tree X, so a change confined to ``touched`` view trees
        # only requires rebuilding the same-named system trees.
        touched = set(touched)
        result = ConfigSet()
        for name in touched:
            if name not in view_set or name not in original:
                return None
            result.add(original.get(name).clone())
        for name in touched:
            for line in view_set.get(name).root.children_of_kind("line"):
                if line.get("source_tree") not in touched:
                    # a cross-file line was grafted in; localisation is unsound
                    return None
                self._apply_line(line, result)
        return result

    def _apply_line(self, line: ConfigNode, result: ConfigSet) -> None:
        tree_name = line.get("source_tree")
        path = tuple(line.get("source_path", ()))
        if tree_name not in result:
            raise TransformError(f"token line refers to unknown file {tree_name!r}")
        target = _resolve_path(result.get(tree_name), path)
        target.name, target.value = self._line_fields(line, target.name, target.value)

    def _line_fields(
        self, line: ConfigNode, base_name: str | None, base_value: str | None
    ) -> tuple[str | None, str | None]:
        """The (name, value) a line's tokens impose on its source node.

        The single source of truth for the reverse mapping of one line:
        both the full untransform and the delta extraction go through it.
        """
        name = base_name
        value = base_value
        named = False
        words: list[str] | None = None
        for token in line.children:
            if token.kind != "token":
                continue
            token_field = token.attrs.get("field")
            if token_field == "name":
                if not named:
                    named = True
                    name = token.value
            elif token_field == "value":
                if words is None:
                    words = []
                words.append(token.value if token.value is not None else "")
        if words:
            value = _join_words(words, line.attrs.get("value_gaps") or [])
        return name, value

    # ---------------------------------------------------------------- deltas
    def scenario_changes(self, scenario, view_set, baseline_trees):
        # Token edits address (line, token) pairs; each touched line maps to
        # exactly one source node, whose post-mutation fields are rebuilt by
        # the same reassembly the full untransform uses.
        lines: dict[tuple[str, int], ConfigNode] = {}
        for operation in scenario.operations:
            if not isinstance(operation, SetFieldOperation):
                return None
            target = operation.target
            path = target.path
            if len(path) != 2 or target.tree not in view_set:
                return None
            children = view_set.get(target.tree).root.children
            line_index = path[0]
            if not 0 <= line_index < len(children):
                return None
            line = children[line_index]
            if line.kind != "line":
                return None
            lines[(target.tree, line_index)] = line
        changes: dict[tuple[str, tuple[int, ...]], NodeChange] = {}
        for line in lines.values():
            line_attrs = line.attrs
            source_tree = line_attrs.get("source_tree")
            source_path = tuple(line_attrs.get("source_path") or ())
            if source_tree is None or not source_path or source_tree not in baseline_trees:
                return None
            base = node_at(baseline_trees.get(source_tree), source_path)
            if base is None:
                return None
            name, value = self._line_fields(line, base.name, base.value)
            changes[(source_tree, source_path)] = NodeChange(
                tree=source_tree,
                path=source_path,
                kind=base.kind,
                name=name,
                value=value,
                attrs=base.attrs,
            )
        return list(changes.values())
