"""Apache ``httpd.conf`` configuration dialect.

Apache's configuration consists of one-per-line directives (``Name arg ...``)
and nestable container sections written as pseudo-XML tags::

    <VirtualHost *:80>
        ServerName example.org
        <Directory "/srv/www">
            Options Indexes
        </Directory>
    </VirtualHost>

Tree shape
----------
``file`` root containing ``directive``, ``section``, ``comment`` and
``blank`` nodes; ``section`` nodes carry the tag name in ``name`` and the
tag argument (e.g. ``*:80``) in ``value`` and may contain further
directives and sections.  Nesting depth is unrestricted (Apache is the one
paper SUT with nested sections).
"""

from __future__ import annotations

import re

from repro.core.infoset import ConfigNode, ConfigTree
from repro.errors import ParseError, SerializationError
from repro.parsers.base import ConfigDialect, register_dialect

__all__ = ["ApacheConfDialect", "DIALECT"]

_OPEN_RE = re.compile(r"^\s*<(?P<name>[A-Za-z][\w-]*)(?:\s+(?P<arg>[^>]*?))?\s*>\s*$")
_CLOSE_RE = re.compile(r"^\s*</(?P<name>[A-Za-z][\w-]*)\s*>\s*$")
_DIRECTIVE_RE = re.compile(r"^(?P<indent>\s*)(?P<name>[A-Za-z][\w.-]*)(?:(?P<separator>\s+)(?P<value>.*?))?\s*$")


class ApacheConfDialect(ConfigDialect):
    """Parser/serialiser for Apache ``httpd.conf``-style files."""

    name = "apache"

    def siblings_independent_in(self, container: ConfigNode) -> bool:
        # Directives are single lines and sections balanced tag blocks; indents
        # are recorded, so a node reads back the same in any container.
        return True

    def _parse(self, text: str, filename: str) -> ConfigTree:
        root = ConfigNode("file", name=filename)
        stack: list[ConfigNode] = [root]
        for line_number, raw_line in enumerate(text.splitlines(), start=1):
            current = stack[-1]
            stripped = raw_line.strip()
            if not stripped:
                current.append(ConfigNode("blank", attrs={"raw": raw_line}))
                continue
            if stripped.startswith("#"):
                current.append(
                    ConfigNode(
                        "comment",
                        value=stripped[1:],
                        attrs={"indent": raw_line[: len(raw_line) - len(raw_line.lstrip())]},
                    )
                )
                continue
            close = _CLOSE_RE.match(raw_line)
            if close:
                if len(stack) == 1:
                    raise ParseError(
                        f"unexpected closing tag </{close.group('name')}>",
                        filename=filename,
                        line=line_number,
                    )
                opened = stack.pop()
                if (opened.name or "").lower() != close.group("name").lower():
                    raise ParseError(
                        f"mismatched closing tag </{close.group('name')}> for <{opened.name}>",
                        filename=filename,
                        line=line_number,
                    )
                continue
            open_tag = _OPEN_RE.match(raw_line)
            if open_tag:
                section = ConfigNode(
                    "section",
                    name=open_tag.group("name"),
                    value=(open_tag.group("arg") or "").strip() or None,
                    attrs={"indent": raw_line[: len(raw_line) - len(raw_line.lstrip())]},
                )
                current.append(section)
                stack.append(section)
                continue
            directive = _DIRECTIVE_RE.match(raw_line)
            if directive is None:
                raise ParseError("unparseable line", filename=filename, line=line_number)
            current.append(
                ConfigNode(
                    "directive",
                    name=directive.group("name"),
                    value=directive.group("value"),
                    attrs={
                        "indent": directive.group("indent"),
                        "separator": directive.group("separator") or " ",
                    },
                )
            )
        if len(stack) != 1:
            unclosed = stack[-1].name
            raise ParseError(f"unclosed section <{unclosed}>", filename=filename)
        root.set("trailing_newline", text.endswith("\n") or text == "")
        return ConfigTree(filename, root, dialect=self.name)

    def _serialize(self, tree: ConfigTree) -> str:
        lines: list[str] = []
        for node in tree.root.children:
            self._serialize_node(node, lines, depth=0)
        text = "\n".join(lines)
        if tree.root.get("trailing_newline", True) and text:
            text += "\n"
        return text

    def _serialize_node(self, node: ConfigNode, lines: list[str], depth: int) -> None:
        default_indent = "    " * depth
        if node.kind == "blank":
            lines.append(node.get("raw", ""))
            return
        if node.kind == "comment":
            lines.append(f"{node.get('indent', default_indent)}#{node.value or ''}")
            return
        if node.kind == "directive":
            indent = node.get("indent", default_indent)
            if node.value is None or node.value == "":
                lines.append(f"{indent}{node.name}")
            else:
                lines.append(f"{indent}{node.name}{node.get('separator', ' ')}{node.value}")
            return
        if node.kind == "section":
            indent = node.get("indent", default_indent)
            arg = f" {node.value}" if node.value else ""
            lines.append(f"{indent}<{node.name}{arg}>")
            for child in node.children:
                self._serialize_node(child, lines, depth + 1)
            lines.append(f"{indent}</{node.name}>")
            return
        raise SerializationError(f"Apache configuration cannot express node kind {node.kind!r}")


DIALECT = register_dialect(ApacheConfDialect())
