"""nginx ``nginx.conf`` configuration dialect.

nginx's configuration is block-structured: simple directives are terminated
by ``;`` and may take several space-separated arguments, block directives
open a brace-delimited context that nests arbitrarily, and ``include``
pulls further files into the current context::

    worker_processes  1;

    events {
        worker_connections  1024;
    }

    http {
        include       mime.types;
        server {
            listen       80;
            location / {
                root   html;
            }
        }
    }

Tree shape
----------
``file`` root containing ``directive``, ``section``, ``comment`` and
``blank`` nodes.  ``section`` nodes carry the block name in ``name`` and
the arguments between name and brace (e.g. ``/`` for a location) in
``value``; they nest without restriction.  Directives keep their
indentation and name/value separator in ``attrs`` so an unmodified file
serialises back byte-identically -- including the trailing ``;`` spacing
nginx tolerates.
"""

from __future__ import annotations

import re

from repro.core.infoset import ConfigNode, ConfigTree
from repro.errors import ParseError, SerializationError
from repro.parsers.base import ConfigDialect, register_dialect

__all__ = ["NginxConfDialect", "DIALECT"]

_OPEN_RE = re.compile(
    r"^(?P<indent>\s*)(?P<name>[A-Za-z_][\w.-]*)"
    r"(?:(?P<separator>\s+)(?P<arg>[^{;\s][^{;]*?))?(?P<brace>\s*)\{(?P<comment>\s*#.*)?\s*$"
)
_DIRECTIVE_RE = re.compile(
    r"^(?P<indent>\s*)(?P<name>[A-Za-z_][\w.+/-]*)"
    r"(?:(?P<separator>\s+)(?P<value>[^;]*?))?\s*;(?P<comment>\s*#.*)?\s*$"
)
_CLOSE_RE = re.compile(r"^\s*\}(?P<comment>\s*#.*)?\s*$")
# mime.types maps a type to extensions: "text/html  html htm;" -- the name
# contains a slash, which the main directive pattern covers via [\w./-].


class NginxConfDialect(ConfigDialect):
    """Parser/serialiser for nginx ``nginx.conf``-style files."""

    name = "nginxconf"

    def siblings_independent_in(self, container: ConfigNode) -> bool:
        # Directives end at ``;`` and blocks at their own ``}``; indents are
        # recorded, so a node reads back the same in any container.
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
            close_match = _CLOSE_RE.match(raw_line)
            if close_match:
                if len(stack) == 1:
                    raise ParseError(
                        'unexpected "}"', filename=filename, line=line_number
                    )
                closed = stack.pop()
                closed.set(
                    "close_indent", raw_line[: len(raw_line) - len(raw_line.lstrip())]
                )
                closed.set("close_comment", close_match.group("comment") or "")
                continue
            open_match = _OPEN_RE.match(raw_line)
            if open_match:
                section = ConfigNode(
                    "section",
                    name=open_match.group("name"),
                    value=(open_match.group("arg") or "").strip() or None,
                    attrs={
                        "indent": open_match.group("indent"),
                        "separator": open_match.group("separator") or " ",
                        "brace": open_match.group("brace"),
                        "inline_comment": open_match.group("comment") or "",
                    },
                )
                current.append(section)
                stack.append(section)
                continue
            directive = _DIRECTIVE_RE.match(raw_line)
            if directive is None:
                raise ParseError("unparseable line", filename=filename, line=line_number)
            value = directive.group("value")
            current.append(
                ConfigNode(
                    "directive",
                    name=directive.group("name"),
                    value=value.strip() if value is not None else None,
                    attrs={
                        "indent": directive.group("indent"),
                        "separator": directive.group("separator") or " ",
                        "inline_comment": directive.group("comment") or "",
                    },
                )
            )
        if len(stack) != 1:
            raise ParseError(
                f'unexpected end of file, expecting "}}" for block {stack[-1].name!r}',
                filename=filename,
            )
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
            comment = node.get("inline_comment", "")
            if node.value is None or node.value == "":
                lines.append(f"{indent}{node.name};{comment}")
            else:
                lines.append(
                    f"{indent}{node.name}{node.get('separator', ' ')}{node.value};{comment}"
                )
            return
        if node.kind == "section":
            indent = node.get("indent", default_indent)
            header = f"{indent}{node.name}"
            if node.value:
                header += f"{node.get('separator', ' ')}{node.value}"
            lines.append(header + f"{node.get('brace', ' ')}{{{node.get('inline_comment', '')}")
            for child in node.children:
                self._serialize_node(child, lines, depth + 1)
            lines.append(f"{node.get('close_indent', indent)}}}{node.get('close_comment', '')}")
            return
        raise SerializationError(f"nginx configuration cannot express node kind {node.kind!r}")


DIALECT = register_dialect(NginxConfDialect())
