"""Simulated nginx web server.

The simulation reproduces the configuration-checking behaviour of nginx,
the strictest of the simulated servers -- every check below matches an
``nginx: [emerg]`` diagnostic of the real binary:

* unknown directives and unknown block names abort startup,
* directives in a context they are not allowed in abort startup,
* duplicate non-repeatable directives abort startup (``"root" directive is
  duplicate``) -- conflicting copy-paste duplicates never slip through,
* numeric arguments are validated (``worker_processes`` accepts ``auto``),
* a missing ``events`` block aborts startup,
* ``include`` is resolved against the configuration file set; a typo in
  the included file name is detected at startup (``open() "..." failed``).

What nginx does *not* catch at startup: a ``listen`` port typo'd into a
different valid port (the functional HTTP GET then fails -- the paper's
"detected by functional tests" row) and path typos (``root`` arguments are
accepted as-is), so the simulation is strict but not omniscient.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.infoset import ConfigNode, ConfigSet
from repro.errors import ParseError
from repro.parsers.base import get_dialect
from repro.sut.base import FunctionalTest, StartResult, SystemUnderTest
from repro.sut.functional import web_suite
from repro.sut.nginx.directives import (
    DEFAULT_MIME_TYPES,
    DEFAULT_NGINX_CONF,
    NGINX_BLOCKS,
    NGINX_DIRECTIVES,
    NginxDirectiveSpec,
)

__all__ = ["SimulatedNginx"]

_ONOFF = {"on", "off"}
_SIZE_SUFFIXES = {"k", "m", "g"}


class SimulatedNginx(SystemUnderTest):
    """Simulated nginx web server driven by ``nginx.conf`` (+ ``mime.types``)."""

    name = "nginx"
    config_filename = "nginx.conf"
    parse_error = "nginx: [emerg] {error}"
    mime_filename = "mime.types"

    def __init__(self, default_config: str | None = None, mime_types: str | None = None):
        self._default_config = default_config if default_config is not None else DEFAULT_NGINX_CONF
        self._mime_types = mime_types if mime_types is not None else DEFAULT_MIME_TYPES
        self._running = False
        self._has_events = False
        self._include_trees = ConfigSet()
        self.listen_ports: list[int] = []
        self.server_roots: list[str] = []
        self.mime_map: dict[str, str] = {}
        self.effective_directives: dict[str, str] = {}

    # --------------------------------------------------------------- interface
    def default_configuration(self) -> dict[str, str]:
        return {self.config_filename: self._default_config, self.mime_filename: self._mime_types}

    def dialect_for(self, filename: str) -> str:
        return "nginxconf"

    def functional_tests(self) -> list[FunctionalTest]:
        return web_suite(port=80)

    def is_running(self) -> bool:
        return self._running

    def stop(self) -> None:
        self._running = False

    # ------------------------------------------------------------------ start
    def _start_from_trees(self, trees: ConfigSet, files: Mapping[str, str]) -> StartResult:
        """Validate and bring up the server from the parsed ``nginx.conf``.

        ``include`` directives resolve against ``trees`` first (the delta
        path's patched set, so a mutated ``mime.types`` entry is honoured
        without re-parsing); files absent from it are parsed from ``files``,
        so a mutated include *argument* fails ("open() ... failed") exactly
        like a full start.
        """
        tree = trees.get(self.config_filename)
        self._include_trees = trees
        self.listen_ports = []
        self.server_roots = []
        self.mime_map = {}
        self.effective_directives = {}
        # presence flags are collected during the walk (not by re-scanning the
        # main file's children) so blocks arriving via include count too
        self._has_events = False
        warnings: list[str] = []

        error = self._process_block(tree.root, "main", files, warnings, seen_includes=set())
        if error is not None:
            return StartResult.failed(error)

        if not self._has_events:
            return StartResult.failed('nginx: [emerg] no "events" section in configuration')

        self._running = True
        return StartResult.ok(warnings)

    def _observable_state(self) -> tuple:
        return (self.listen_ports, self.server_roots, self.mime_map, self.effective_directives)

    # ----------------------------------------------------------------- checks
    def _process_block(
        self,
        block: ConfigNode,
        context: str,
        files: Mapping[str, str],
        warnings: list[str],
        seen_includes: set[str],
    ) -> str | None:
        seen: dict[tuple[str, str], str] = {}
        return self._process_children(block, context, files, warnings, seen_includes, seen)

    def _process_children(
        self,
        block: ConfigNode,
        context: str,
        files: Mapping[str, str],
        warnings: list[str],
        seen_includes: set[str],
        seen: dict,
    ) -> str | None:
        for node in block.children:
            if node.kind == "section":
                name = node.name or ""
                if context == "types" or name not in NGINX_BLOCKS:
                    return f'nginx: [emerg] unknown directive "{name}"'
                if context not in NGINX_BLOCKS[name]:
                    return f'nginx: [emerg] "{name}" directive is not allowed here'
                if name == "events":
                    self._has_events = True
                ports_before = len(self.listen_ports)
                error = self._process_block(node, name, files, warnings, seen_includes)
                if error is not None:
                    return error
                if name == "server" and len(self.listen_ports) == ports_before:
                    # a server block with no listen directive (even one pulled
                    # in via include) listens on the default port
                    self.listen_ports.append(80)
                continue
            if node.kind != "directive":
                continue
            error = self._apply_directive(node, context, files, warnings, seen_includes, seen)
            if error is not None:
                return error
        return None

    def _apply_directive(
        self,
        node: ConfigNode,
        context: str,
        files: Mapping[str, str],
        warnings: list[str],
        seen_includes: set[str],
        seen: dict,
    ) -> str | None:
        name = node.name or ""
        value = (node.value or "").strip()
        if context == "types":
            # inside a types block every directive is a mime-type mapping
            for extension in value.split():
                self.mime_map[extension] = name
            return None
        spec = NGINX_DIRECTIVES.get(name)
        if spec is None:
            return f'nginx: [emerg] unknown directive "{name}"'
        if context not in spec.contexts:
            return f'nginx: [emerg] "{name}" directive is not allowed here'
        if not spec.repeatable:
            key = (context, name)
            if key in seen:
                return f'nginx: [emerg] "{name}" directive is duplicate'
            seen[key] = value
        if not value:
            return f'nginx: [emerg] invalid number of arguments in "{name}" directive'

        error = self._validate_value(spec, value, files, seen_includes, context, warnings, seen)
        if error is not None:
            return error
        self.effective_directives[name] = value
        if name == "listen":
            self.listen_ports.append(self._listen_port(value))
        elif name == "root":
            self.server_roots.append(value)
        return None

    def _validate_value(
        self,
        spec: NginxDirectiveSpec,
        value: str,
        files: Mapping[str, str],
        seen_includes: set[str],
        context: str,
        warnings: list[str],
        seen: dict,
    ) -> str | None:
        kind = spec.kind
        word = value.split()[0]
        if kind == "number":
            if not (word.isascii() and word.isdigit()):
                return f'nginx: [emerg] invalid value "{word}" in "{spec.name}" directive'
            return None
        if kind == "number_or_auto":
            if word != "auto" and not (word.isascii() and word.isdigit()):
                return f'nginx: [emerg] invalid value "{word}" in "{spec.name}" directive'
            return None
        if kind == "onoff":
            if value.lower() not in _ONOFF:
                return (
                    f'nginx: [emerg] invalid value "{value}" in "{spec.name}" directive, '
                    'it must be "on" or "off"'
                )
            return None
        if kind == "size":
            body = word[:-1] if word and word[-1].lower() in _SIZE_SUFFIXES else word
            if not (body.isascii() and body.isdigit()):
                return f'nginx: [emerg] "{spec.name}" directive invalid value'
            return None
        if kind == "listen":
            port_text = word.rsplit(":", 1)[-1]
            if not (port_text.isascii() and port_text.isdigit()) or not 0 < int(port_text) <= 65535:
                return f'nginx: [emerg] invalid port in "{word}" of the "listen" directive'
            return None
        if kind == "include":
            return self._resolve_include(value, files, seen_includes, context, warnings, seen)
        # freeform / path: accepted as-is (paths cannot be checked in simulation)
        return None

    def _resolve_include(
        self,
        value: str,
        files: Mapping[str, str],
        seen_includes: set[str],
        context: str,
        warnings: list[str],
        seen: dict,
    ) -> str | None:
        filename = value.split()[0]
        if filename in seen_includes:
            return f'nginx: [emerg] include cycle detected for "{filename}"'
        if filename in self._include_trees:
            # already parsed (on the delta path: patched)
            tree = self._include_trees.get(filename)
        else:
            included = files.get(filename)
            if included is None:
                return (
                    f'nginx: [emerg] open() "{filename}" failed '
                    "(2: No such file or directory)"
                )
            try:
                tree = get_dialect("nginxconf").parse(included, filename=filename)
            except ParseError as exc:
                return f"nginx: [emerg] {exc}"
        # the included content lands in the including context, so duplicate
        # tracking (`seen`) continues across the file boundary -- real nginx
        # reports "directive is duplicate" for a main-file/include clash
        return self._process_children(
            tree.root, context, files, warnings, seen_includes | {filename}, seen
        )

    @staticmethod
    def _listen_port(value: str) -> int:
        return int(value.split()[0].rsplit(":", 1)[-1])

    # --------------------------------------------------------------- behaviour
    def http_get(self, path: str, port: int = 80, host: str = "localhost") -> tuple[int, str]:
        """Simulate an HTTP GET against the running server.

        Succeeds only when the server is running, a server block listens on
        the requested port and a document root is configured.
        """
        if not self._running:
            raise ConnectionRefusedError("nginx is not running")
        if port not in self.listen_ports:
            raise ConnectionRefusedError(f"nothing is listening on port {port}")
        if not self.server_roots:
            return 404, ""
        body = (
            "<html><head><title>Welcome to nginx!</title></head>"
            f"<body>Welcome to nginx! ({self.server_roots[0]}{path})</body></html>"
        )
        return 200, body
