"""Simulated Apache httpd server.

The simulation reproduces the configuration-checking behaviour the paper
observed in Apache 2.2 (Section 5.2):

* unknown directives abort startup (``Invalid command ... perhaps misspelled``),
* directive names are case-insensitive but cannot be truncated,
* numeric arguments (``Listen``, ``Timeout``, the MPM knobs) are validated,
* ``AddType``, ``DefaultType``, ``ServerAdmin`` and ``ServerName`` accept
  freeform strings -- the laxity the paper flags as a weakness,
* a typo that turns the listening port into a *different valid* port is not
  caught at startup; it is the HTTP functional test that notices nothing
  answers on port 80 (the paper's 5 % "detected by functional tests" row).
"""

from __future__ import annotations

from typing import Mapping

from repro.core.infoset import ConfigNode, ConfigSet
from repro.errors import ParseError
from repro.parsers.base import get_dialect
from repro.sut.apache.directives import APACHE_DIRECTIVES, DEFAULT_HTTPD_CONF, SECTION_TAGS, DirectiveSpec
from repro.sut.base import FunctionalTest, StartResult, SystemUnderTest
from repro.sut.functional import web_suite

__all__ = ["SimulatedApache"]

_ONOFF = {"on", "off"}
_KNOWN_OPTIONS = {
    "none", "all", "indexes", "includes", "includesnoexec", "followsymlinks",
    "symlinksifownermatch", "execcgi", "multiviews",
}


class SimulatedApache(SystemUnderTest):
    """Simulated Apache web server driven by ``httpd.conf``."""

    name = "Apache"
    config_filename = "httpd.conf"

    def __init__(self, default_config: str | None = None):
        self._default_config = default_config if default_config is not None else DEFAULT_HTTPD_CONF
        self._running = False
        self.listen_ports: list[int] = []
        self.document_roots: list[str] = []
        self.virtual_hosts: list[dict[str, str]] = []
        self.effective_directives: dict[str, str] = {}
        self.last_warnings: list[str] = []

    # --------------------------------------------------------------- interface
    def default_configuration(self) -> dict[str, str]:
        return {self.config_filename: self._default_config}

    def dialect_for(self, filename: str) -> str:
        return "apache"

    def functional_tests(self) -> list[FunctionalTest]:
        return web_suite(port=80)

    def is_running(self) -> bool:
        return self._running

    def stop(self) -> None:
        self._running = False

    # ------------------------------------------------------------------ start
    def start(self, files: Mapping[str, str]) -> StartResult:
        self.stop()
        text = files.get(self.config_filename)
        if text is None:
            return StartResult.failed(f"configuration file {self.config_filename} is missing")
        try:
            tree = get_dialect("apache").parse(text, filename=self.config_filename)
        except ParseError as exc:
            return StartResult.failed(f"Syntax error: {exc}")
        return self._start_from_trees(ConfigSet([tree]), files)

    def _start_from_trees(self, trees: ConfigSet, files: Mapping[str, str]) -> StartResult:
        """Validate and bring up the server from the parsed ``httpd.conf``.

        ``<IfModule>`` guards and module availability are recomputed from
        the tree, so a mutated ``LoadModule`` line changes which blocks are
        skipped exactly as a full parse would.
        """
        tree = trees.get(self.config_filename)
        self.listen_ports = []
        self.document_roots = []
        self.virtual_hosts = []
        self.effective_directives = {}
        warnings: list[str] = []

        available_modules = self._available_modules(tree)
        error = self._process_children(tree.root, available_modules, warnings)
        if error is not None:
            return StartResult.failed(error)

        if not self.listen_ports:
            return StartResult.failed("no listening sockets available, shutting down")
        missing_servername = [
            vhost for vhost in self.virtual_hosts if not vhost.get("servername")
        ]
        if missing_servername:
            # Apache only warns about VirtualHost sections without ServerName.
            warnings.append(
                "NameVirtualHost-based virtual host has no ServerName; using the default"
            )

        self.last_warnings = warnings
        self._running = True
        return StartResult.ok(warnings)

    def _observable_state(self) -> tuple:
        return (
            self.listen_ports,
            self.document_roots,
            self.virtual_hosts,
            self.effective_directives,
        )

    # ----------------------------------------------------------------- helpers
    #: Modules compiled into the server (always "present" for <IfModule>).
    BUILTIN_MODULES = {"prefork.c", "core.c", "http_core.c", "mod_so.c"}

    @staticmethod
    def _available_modules(tree) -> set[str]:
        """Module identifiers/filenames available for ``<IfModule>`` evaluation."""
        available = set(SimulatedApache.BUILTIN_MODULES)
        for node in tree.walk():
            if node.kind == "directive" and (node.name or "").lower() == "loadmodule":
                words = (node.value or "").split()
                if words:
                    available.add(words[0].lower())  # module identifier, e.g. mime_module
                if len(words) > 1:
                    filename = words[1].rsplit("/", 1)[-1]
                    available.add(filename.replace(".so", ".c").lower())  # e.g. mod_mime.c
        return available

    def _process_children(self, parent: ConfigNode, available_modules: set[str], warnings: list[str]) -> str | None:
        """Validate and apply ``parent``'s children, honouring ``<IfModule>`` guards.

        Directives inside an ``<IfModule>`` block whose module is not loaded
        are skipped entirely -- Apache never parses them, so configuration
        errors hiding there stay latent (one more place where errors are
        silently ignored).
        """
        for node in parent.children:
            if node.kind == "section":
                tag = (node.name or "").lower()
                if tag not in SECTION_TAGS:
                    return (
                        f"Invalid command '<{node.name}>', perhaps misspelled or defined by a "
                        "module not included in the server configuration"
                    )
                if tag == "ifmodule":
                    argument = (node.value or "").strip().lstrip("!").lower()
                    negated = (node.value or "").strip().startswith("!")
                    present = argument in available_modules
                    if present == negated:
                        continue  # guard not satisfied: block contents are never parsed
                elif tag == "virtualhost":
                    self.virtual_hosts.append(self._virtual_host_info(node))
                error = self._process_children(node, available_modules, warnings)
                if error is not None:
                    return error
                continue
            if node.kind != "directive":
                continue
            error = self._apply_directive(node, warnings)
            if error is not None:
                return error
        return None

    @staticmethod
    def _virtual_host_info(section: ConfigNode) -> dict[str, str]:
        info = {"address": section.value or ""}
        for child in section.children_of_kind("directive"):
            info[(child.name or "").lower()] = child.value or ""
        return info

    def _apply_directive(self, node: ConfigNode, warnings: list[str]) -> str | None:
        directive_name = node.name or ""
        spec = APACHE_DIRECTIVES.get(directive_name.lower())
        if spec is None:
            return (
                f"Invalid command '{directive_name}', perhaps misspelled or defined by a "
                "module not included in the server configuration"
            )
        value = (node.value or "").strip()
        if not value and spec.min_args >= 1:
            return f"{spec.name} takes at least {spec.min_args} argument(s)"

        error = self._validate_value(spec, value)
        if error is not None:
            return error

        lowered = spec.name.lower()
        if lowered == "listen":
            port_text = value.split()[0].rsplit(":", 1)[-1]
            self.listen_ports.append(int(port_text))
        elif lowered == "documentroot":
            self.document_roots.append(value.strip('"'))
        self.effective_directives[lowered] = value
        return None

    def _validate_value(self, spec: DirectiveSpec, value: str) -> str | None:
        kind = spec.kind
        words = value.split()
        if kind in ("args",) and len(words) < spec.min_args:
            return f"{spec.name} takes at least {spec.min_args} arguments"
        if kind == "number":
            if not words[0].lstrip("-").isdigit():
                return f"{spec.name}: '{words[0]}' is not a valid number"
            return None
        if kind == "port":
            port_text = words[0].rsplit(":", 1)[-1]
            if not port_text.isdigit() or not 0 < int(port_text) <= 65535:
                return f"{spec.name}: could not parse port '{words[0]}'"
            return None
        if kind == "onoff":
            if value.lower() not in _ONOFF:
                return f"{spec.name} must be On or Off"
            return None
        if kind == "enum":
            if value.lower() not in {choice.lower() for choice in spec.choices}:
                return f"{spec.name}: unknown argument '{value}'"
            return None
        if kind == "options":
            for word in words:
                cleaned = word.lstrip("+-").lower()
                if "=" in cleaned:
                    continue
                if cleaned not in _KNOWN_OPTIONS:
                    return f"Illegal option {word}"
            return None
        if kind == "fromlist":
            if not words or words[0].lower() != "from" or len(words) < 2:
                return f"{spec.name}: requires 'from' followed by hosts"
            return None
        # freeform / path / args: accepted as-is (this laxity is intentional,
        # see the module docstring)
        return None

    # --------------------------------------------------------------- behaviour
    def http_get(self, path: str, port: int = 80, host: str = "localhost") -> tuple[int, str]:
        """Simulate an HTTP GET against the running server.

        Returns ``(status, body)``.  The request only succeeds when the
        server is running, actually listens on the requested port and has a
        document root to serve from.
        """
        if not self._running:
            raise ConnectionRefusedError("httpd is not running")
        if port not in self.listen_ports:
            raise ConnectionRefusedError(f"nothing is listening on port {port}")
        if not self.document_roots:
            return 404, ""
        body = (
            "<html><head><title>Test Page</title></head>"
            f"<body>It works! ({self.document_roots[0]}{path})</body></html>"
        )
        return 200, body
