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

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional

from repro.core.infoset import ConfigNode, ConfigSet
from repro.sut.apache.directives import APACHE_DIRECTIVES, DEFAULT_HTTPD_CONF, SECTION_TAGS, DirectiveSpec
from repro.sut.base import FunctionalTest, StartResult, SystemUnderTest
from repro.sut.functional import web_suite
from repro.sut.incremental import BaselineValidation, NodeChange, ScenarioDelta, node_at

__all__ = ["SimulatedApache"]

_ONOFF = {"on", "off"}
_KNOWN_OPTIONS = {
    "none", "all", "indexes", "includes", "includesnoexec", "followsymlinks",
    "symlinksifownermatch", "execcgi", "multiviews",
}

#: What one directive does, a pure function of its ``(name, value)``: the
#: error that aborts startup (the rest is then None), or the port it adds to
#: ``listen_ports``, the root it adds to ``document_roots`` and its
#: ``effective_directives`` key and value.
Effect = tuple[Optional[str], Optional[int], Optional[str], Optional[str], Optional[str]]


@dataclass(frozen=True)
class _Replay:
    """What the walk takes as known instead of computing it from the tree.

    ``effects`` maps a directive's ``(name, value)`` to its :data:`Effect`;
    ``modules`` is the module set ``<IfModule>`` guards test, or None to
    collect it from the tree.  A baseline keeps the pristine walk's
    ``_Replay``: it holds strings and effects, never a tree node.
    """

    effects: Mapping[tuple, Effect]
    modules: frozenset[str] | None = None


_NOTHING_KNOWN = _Replay(MappingProxyType({}))


def _loads_module(node: ConfigNode | NodeChange) -> bool:
    """Whether ``node`` is a ``LoadModule`` line."""
    return node.kind == "directive" and (node.name or "").lower() == "loadmodule"


class SimulatedApache(SystemUnderTest):
    """Simulated Apache web server driven by ``httpd.conf``."""

    name = "Apache"
    config_filename = "httpd.conf"
    parse_error = "Syntax error: {error}"

    def __init__(self, default_config: str | None = None):
        self._default_config = default_config if default_config is not None else DEFAULT_HTTPD_CONF
        self._running = False
        self.listen_ports: list[int] = []
        self.document_roots: list[str] = []
        self.virtual_hosts: list[dict[str, str]] = []
        self.effective_directives: dict[str, str] = {}
        #: What the walk replays: the baseline's during ``start_delta``,
        #: nothing otherwise.
        self._replay = _NOTHING_KNOWN
        #: Effects the last walk computed because ``_replay`` lacked them.
        self._evaluated: dict[tuple, Effect] = {}

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
    def _start_from_trees(self, trees: ConfigSet, files: Mapping[str, str]) -> StartResult:
        """Validate and bring up the server from the parsed ``httpd.conf``.

        ``<IfModule>`` guards test the module set this tree loads, so a
        mutated ``LoadModule`` line changes which blocks are skipped exactly
        as a full parse would.  A directive's effect, and the module set,
        are taken from ``_replay`` when it has them and computed otherwise;
        computed effects are kept in ``_evaluated``.
        """
        tree = trees.get(self.config_filename)
        self.listen_ports = []
        self.document_roots = []
        self.virtual_hosts = []
        self.effective_directives = {}
        self._evaluated = {}
        warnings: list[str] = []

        available_modules = self._replay.modules
        if available_modules is None:
            available_modules = self._available_modules(tree)
        error = self._process_children(tree.root, available_modules)
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

        self._running = True
        return StartResult.ok(warnings)

    def _observable_state(self) -> tuple:
        return (
            self.listen_ports,
            self.document_roots,
            self.virtual_hosts,
            self.effective_directives,
        )

    def _baseline_state(self, trees: ConfigSet) -> _Replay:
        """The pristine walk's directive effects and module set.

        The next walk starts a new ``_evaluated`` dict, so the recorded
        table is never written again.
        """
        modules = frozenset(self._available_modules(trees.get(self.config_filename)))
        return _Replay(self._evaluated, modules)

    def start_delta(
        self, baseline: BaselineValidation, delta: ScenarioDelta
    ) -> StartResult | None:
        """The shared protocol, replaying what the baseline recorded.

        Only directives the baseline table lacks are evaluated: the changed
        ones, and those a baseline ``<IfModule>`` guard skipped.  The
        baseline module set stands unless the delta may change it.
        """
        replay = baseline.state or _NOTHING_KNOWN
        if self._may_change_modules(baseline.trees, delta):
            replay = _Replay(replay.effects)
        self._replay = replay
        try:
            return super().start_delta(baseline, delta)
        finally:
            self._replay = _NOTHING_KNOWN

    @staticmethod
    def _may_change_modules(trees: ConfigSet, delta: ScenarioDelta) -> bool:
        """Whether ``delta`` edits a ``LoadModule`` line, or inserts, moves or
        deletes a subtree holding one (True when unsure)."""
        touched: list[ConfigNode] = []
        for change in (*delta.changes, *delta.children_changes):
            tree = trees.get(change.tree) if change.tree in trees else None
            node = node_at(tree, change.path) if tree is not None else None
            if node is None:
                return True
            if isinstance(change, NodeChange):
                if _loads_module(node) or _loads_module(change):
                    return True
                continue
            deleted = set(range(len(node.children))).difference(change.children)
            touched += (node.children[index] for index in deleted)
            for entry in change.children:
                if type(entry) is tuple:  # moved in from elsewhere in the tree
                    entry = node_at(tree, entry)
                    if entry is None:
                        return True
                if isinstance(entry, ConfigNode):
                    touched.append(entry)
        return any(_loads_module(node) for subtree in touched for node in subtree.walk())

    # ----------------------------------------------------------------- helpers
    #: Modules compiled into the server (always "present" for <IfModule>).
    BUILTIN_MODULES = {"prefork.c", "core.c", "http_core.c", "mod_so.c"}

    @staticmethod
    def _available_modules(tree) -> set[str]:
        """Module identifiers/filenames available for ``<IfModule>`` evaluation.

        Every ``LoadModule`` line counts, guarded or not.
        """
        available = set(SimulatedApache.BUILTIN_MODULES)
        pending = [tree.root]
        while pending:
            for node in pending.pop().children:
                if node.children:
                    pending.append(node)
                if _loads_module(node):
                    words = (node.value or "").split()
                    if words:
                        available.add(words[0].lower())  # module identifier, e.g. mime_module
                    if len(words) > 1:
                        filename = words[1].rsplit("/", 1)[-1]
                        available.add(filename.replace(".so", ".c").lower())  # e.g. mod_mime.c
        return available

    def _process_children(self, parent: ConfigNode, available_modules: set[str]) -> str | None:
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
                error = self._process_children(node, available_modules)
                if error is not None:
                    return error
                continue
            if node.kind != "directive":
                continue
            key = (node.name, node.value)
            effect = self._replay.effects.get(key) or self._evaluated.get(key)
            if effect is None:
                effect = self._directive_effect(node.name or "", node.value or "")
                self._evaluated[key] = effect
            error, port, root, lowered, value = effect
            if error is not None:
                return error
            if port is not None:
                self.listen_ports.append(port)
            if root is not None:
                self.document_roots.append(root)
            self.effective_directives[lowered] = value
        return None

    @staticmethod
    def _virtual_host_info(section: ConfigNode) -> dict[str, str]:
        info = {"address": section.value or ""}
        for child in section.children_of_kind("directive"):
            info[(child.name or "").lower()] = child.value or ""
        return info

    @classmethod
    def _directive_effect(cls, directive_name: str, raw_value: str) -> Effect:
        """Validate one directive and say what it contributes (see :data:`Effect`)."""
        spec = APACHE_DIRECTIVES.get(directive_name.lower())
        if spec is None:
            return (
                f"Invalid command '{directive_name}', perhaps misspelled or defined by a "
                "module not included in the server configuration",
                None, None, None, None,
            )
        value = raw_value.strip()
        if not value and spec.min_args >= 1:
            return f"{spec.name} takes at least {spec.min_args} argument(s)", None, None, None, None

        error = cls._validate_value(spec, value)
        if error is not None:
            return error, None, None, None, None

        lowered = spec.name.lower()
        port = root = None
        if lowered == "listen":
            port = int(value.split()[0].rsplit(":", 1)[-1])
        elif lowered == "documentroot":
            root = value.strip('"')
        return None, port, root, lowered, value

    @staticmethod
    def _validate_value(spec: DirectiveSpec, value: str) -> str | None:
        kind = spec.kind
        words = value.split()
        if kind in ("args",) and len(words) < spec.min_args:
            return f"{spec.name} takes at least {spec.min_args} arguments"
        if kind == "number":
            digits = words[0].lstrip("-")
            if not (digits.isascii() and digits.isdigit()):
                return f"{spec.name}: '{words[0]}' is not a valid number"
            return None
        if kind == "port":
            port_text = words[0].rsplit(":", 1)[-1]
            if not (port_text.isascii() and port_text.isdigit()) or not 0 < int(port_text) <= 65535:
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
