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

import copy
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional

from repro.core.infoset import ConfigNode, ConfigSet
from repro.sut.apache.directives import APACHE_DIRECTIVES, DEFAULT_HTTPD_CONF, SECTION_TAGS, DirectiveSpec
from repro.sut.base import FunctionalTest, StartResult, SystemUnderTest
from repro.sut.functional import web_suite
from repro.sut.incremental import BaselineValidation, Piece, ScenarioDelta, patched_pieces

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


class _Summary(NamedTuple):
    """What a run of top-level children adds to the walk's state.

    Valid for a walk that reaches the whole run without an error under the
    baseline module set: the ports, roots and virtual hosts the run
    appends, in order, and its ``effective_directives`` entries in
    first-occurrence order with last-wins values.
    """

    ports: tuple[int, ...]
    roots: tuple[str, ...]
    vhosts: tuple[dict[str, str], ...]
    directives: dict[str, str]


_NO_SUMMARY = _Summary((), (), (), {})


def _joined(left: _Summary, right: _Summary) -> _Summary:
    """The summary of ``left``'s run followed by ``right``'s.

    Associative: ``{**a, **b}`` keeps ``a``'s key order, appends ``b``'s new
    keys and takes ``b``'s values, exactly as the sequential walk's
    assignments do.
    """
    return _Summary(
        left.ports + right.ports,
        left.roots + right.roots,
        left.vhosts + right.vhosts,
        {**left.directives, **right.directives},
    )


class _Segments:
    """Summaries of every run of the baseline's top-level children.

    ``prefix[i]`` folds children ``[0:i]`` and ``suffix[i]`` children
    ``[i:]``; a segment tree over the per-child summaries answers any other
    run with O(log n) summaries.
    """

    def __init__(self, leaves: list[_Summary]):
        self.count = count = len(leaves)
        self.prefix = [_NO_SUMMARY]
        for leaf in leaves:
            self.prefix.append(_joined(self.prefix[-1], leaf))
        self.suffix = [_NO_SUMMARY]
        for leaf in reversed(leaves):
            self.suffix.append(_joined(leaf, self.suffix[-1]))
        self.suffix.reverse()
        self.size = size = 1 << max(count - 1, 0).bit_length()
        self.tree = [_NO_SUMMARY] * (2 * size)
        self.tree[size : size + count] = leaves
        for node in range(size - 1, 0, -1):
            self.tree[node] = _joined(self.tree[2 * node], self.tree[2 * node + 1])

    def cover(self, start: int, stop: int) -> list[_Summary]:
        """Summaries that fold, in order, to the run ``[start:stop]``."""
        if start == 0:
            return [self.prefix[stop]]
        if stop == self.count:
            return [self.suffix[start]]
        left: list[_Summary] = []
        right: list[_Summary] = []
        start += self.size
        stop += self.size
        while start < stop:
            if start & 1:
                left.append(self.tree[start])
                start += 1
            if stop & 1:
                stop -= 1
                right.append(self.tree[stop])
            start >>= 1
            stop >>= 1
        left.extend(reversed(right))
        return left


@dataclass(frozen=True)
class _Replay:
    """What the walk takes as known instead of computing it from the tree.

    ``effects`` maps a directive's ``(name, value)`` to its :data:`Effect`;
    ``modules`` is the module set ``<IfModule>`` guards test, or None to
    collect it from the tree.  A baseline's ``_Replay`` also holds what a
    scoped delta walk reuses: the ``segments`` summarising its top-level
    children under ``modules``, the ``LoadModule`` words each top-level
    child contributes (``child_words``) and their counts over the whole
    tree (``module_words``), and the argument of every ``<IfModule>``
    guard (``guards``).  It holds strings, effects and summaries, never a
    tree node.
    """

    effects: Mapping[tuple, Effect]
    modules: frozenset[str] | None = None
    segments: _Segments | None = None
    child_words: tuple[tuple[str, ...], ...] = ()
    module_words: Mapping[str, int] = field(default_factory=dict)
    guards: frozenset[str] = frozenset()


_NOTHING_KNOWN = _Replay(MappingProxyType({}))


def _module_words(node: ConfigNode) -> list[str]:
    """The module identifiers ``LoadModule`` lines in ``node``'s subtree add.

    Each line adds its module identifier (``mime_module``) and the
    ``.c`` name of its file (``mod_mime.c``), the forms ``<IfModule>``
    tests.
    """
    found: list[str] = []
    pending = [node]
    while pending:
        current = pending.pop()
        if current.children:
            pending.extend(current.children)
        if current.kind == "directive" and (current.name or "").lower() == "loadmodule":
            words = (current.value or "").split()
            if words:
                found.append(words[0].lower())  # module identifier, e.g. mime_module
            if len(words) > 1:
                filename = words[1].rsplit("/", 1)[-1]
                found.append(filename.replace(".so", ".c").lower())  # e.g. mod_mime.c
    return found


#: Sort key of a run of baseline children.
_START = attrgetter("start")


def _guard_argument(section: ConfigNode) -> str:
    """The module an ``<IfModule>`` section tests, without its ``!``."""
    return (section.value or "").strip().lstrip("!").lower()


class SimulatedApache(SystemUnderTest):
    """Simulated Apache web server driven by ``httpd.conf``.

    Its delta path is scoped: the baseline keeps a summary of what each
    top-level child contributes, and :meth:`start_delta` walks only the
    top-level nodes a delta touches, folding the summaries over the rest
    (see :meth:`_baseline_state` and :meth:`start_delta`).
    """

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
        self._reset()
        available_modules = self._replay.modules
        if available_modules is None:
            available_modules = self._available_modules(tree)
        return self._started(self._process_children(tree.root.children, available_modules))

    def _reset(self) -> None:
        """Empty the walk's state, ready for a walk from the top of the file."""
        self.listen_ports = []
        self.document_roots = []
        self.virtual_hosts = []
        self.effective_directives = {}
        self._evaluated = {}

    def _started(self, error: str | None) -> StartResult:
        """The end of every walk: its first error, else the checks on what
        it collected, then the server runs."""
        if error is not None:
            return StartResult.failed(error)
        if not self.listen_ports:
            return StartResult.failed("no listening sockets available, shutting down")
        warnings: list[str] = []
        if any(not vhost.get("servername") for vhost in self.virtual_hosts):
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
        """What the pristine walk knows, kept for every delta to reuse.

        The directive effects it recorded and its module set; the summary
        of each top-level child's contribution under that module set, with
        prefix and suffix folds and a segment tree over them
        (:class:`_Segments`); the ``LoadModule`` words of each top-level
        child and their counts; and every ``<IfModule>`` argument.  The
        summaries come from walking each top-level child alone on a scratch
        copy of this server, so the live state is left as the pristine walk
        left it.  The next walk starts a new ``_evaluated`` dict, so the
        recorded table is never written again.
        """
        tree = trees.get(self.config_filename)
        modules = self._available_modules(tree)
        effects = self._evaluated
        scratch = copy.copy(self)
        scratch._replay = _Replay(effects, modules)
        leaves = [scratch._summary_of(child, modules) for child in tree.root.children]
        child_words = tuple(tuple(_module_words(child)) for child in tree.root.children)
        guards = frozenset(
            _guard_argument(node)
            for node in tree.walk()
            if node.kind == "section" and (node.name or "").lower() == "ifmodule"
        )
        return _Replay(
            effects,
            modules,
            _Segments(leaves),
            child_words,
            MappingProxyType(Counter(word for words in child_words for word in words)),
            guards,
        )

    def _summary_of(self, child: ConfigNode, modules: frozenset[str]) -> _Summary:
        """What walking the top-level ``child`` alone contributes."""
        self._reset()
        self._process_children((child,), modules)
        return _Summary(
            tuple(self.listen_ports),
            tuple(self.document_roots),
            tuple(self.virtual_hosts),
            self.effective_directives,
        )

    def start_delta(
        self, baseline: BaselineValidation, delta: ScenarioDelta
    ) -> StartResult | None:
        """Walk only what the delta changed; fold the baseline's summaries
        over the rest.

        The patched file's top level is a few runs of untouched baseline
        children and the few nodes the delta built
        (:func:`~repro.sut.incremental.patched_pieces`).  The walk folds
        each run's summary into the state, O(log n) summaries per run, and
        walks only the built nodes, replaying the baseline's directive
        effects; it then ends as every walk does.  An error in a built node
        leaves the state a full walk leaves: everything before it plus the
        partial node.

        The module set is the baseline's, updated by the ``LoadModule``
        words of the top-level children the delta drops, repeats or builds
        (a copy of the baseline counts, never a rescan).  The summaries
        hold while no baseline ``<IfModule>`` guard changes its verdict;
        when the new module set flips one, the delta takes the shared whole
        walk of :meth:`SystemUnderTest.start_delta` instead, with the
        module set collected from the patched tree.  So does a delta whose
        changes do not resolve in ``httpd.conf``, which that walk answers
        with None when they do not resolve in the baseline at all.
        """
        replay: _Replay | None = baseline.state
        if replay is None:
            return self._walk_whole(baseline, delta, _NOTHING_KNOWN)
        pieces = patched_pieces(
            baseline.trees.get(self.config_filename), (*delta.changes, *delta.children_changes)
        )
        modules = self._modules_after(replay, pieces) if pieces is not None else None
        if modules is None:
            return self._walk_whole(baseline, delta, _Replay(replay.effects))
        self.stop()
        self._replay = replay
        try:
            result = self._started(self._walk_pieces(pieces, replay.segments, modules))
        finally:
            self._replay = _NOTHING_KNOWN
        return self._delta_outcome(baseline, result)

    def _walk_whole(
        self, baseline: BaselineValidation, delta: ScenarioDelta, replay: _Replay
    ) -> StartResult | None:
        """The shared protocol's walk over the whole patched tree, replaying ``replay``."""
        self._replay = replay
        try:
            return super().start_delta(baseline, delta)
        finally:
            self._replay = _NOTHING_KNOWN

    def _walk_pieces(
        self, pieces: Iterable[Piece], segments: _Segments, modules: frozenset[str]
    ) -> str | None:
        """Fold each baseline run's summaries and walk each built node, in order."""
        self._reset()
        ports, roots = self.listen_ports, self.document_roots
        vhosts, directives = self.virtual_hosts, self.effective_directives
        for piece in pieces:
            if type(piece) is not range:
                error = self._process_children((piece,), modules)
                if error is not None:
                    return error
                continue
            for summary in segments.cover(piece.start, piece.stop):
                ports.extend(summary.ports)
                roots.extend(summary.roots)
                # copies: the live state never aliases the baseline's summaries
                vhosts.extend(map(dict, summary.vhosts))
                directives.update(summary.directives)
        return None

    @staticmethod
    def _modules_after(replay: _Replay, pieces: list[Piece]) -> frozenset[str] | None:
        """The module set of the patched file, or None when it flips a guard.

        A sweep over the runs, sorted by start, finds the baseline
        top-level children the pieces drop (the gaps) and repeat (the
        overlaps); their words and those of every built node update a
        copy of the baseline's word counts.  A word whose count reaches or
        leaves zero enters or leaves the module set (builtins stay).
        """
        child_words = replay.child_words
        lost: list[str] = []
        gained: list[str] = []
        runs = [piece for piece in pieces if type(piece) is range]
        runs.sort(key=_START)
        at = 0  # every baseline child before ``at`` is placed at least once
        for run in runs:
            start, stop = run.start, run.stop
            if start > at:
                for index in range(at, start):
                    lost += child_words[index]
            elif start < at:
                for index in range(start, min(stop, at)):
                    gained += child_words[index]
            if stop > at:
                at = stop
        for index in range(at, len(child_words)):
            lost += child_words[index]
        for piece in pieces:
            if type(piece) is not range:
                gained += _module_words(piece)
        if not lost and not gained:
            return replay.modules
        counts = Counter(replay.module_words)
        counts.subtract(lost)
        counts.update(gained)
        flipped = {
            word
            for word in (*lost, *gained)
            if (counts[word] > 0) != (replay.module_words.get(word, 0) > 0)
        }
        flipped -= SimulatedApache.BUILTIN_MODULES
        if not flipped:
            return replay.modules
        if not flipped.isdisjoint(replay.guards):
            return None
        return replay.modules.symmetric_difference(flipped)

    # ----------------------------------------------------------------- helpers
    #: Modules compiled into the server (always "present" for <IfModule>).
    BUILTIN_MODULES = frozenset({"prefork.c", "core.c", "http_core.c", "mod_so.c"})

    @staticmethod
    def _available_modules(tree) -> frozenset[str]:
        """Module identifiers/filenames available for ``<IfModule>`` evaluation.

        Every ``LoadModule`` line counts, guarded or not.
        """
        return SimulatedApache.BUILTIN_MODULES.union(_module_words(tree.root))

    def _process_children(
        self, children: Iterable[ConfigNode], available_modules: frozenset[str]
    ) -> str | None:
        """Validate and apply ``children``, honouring ``<IfModule>`` guards.

        Directives inside an ``<IfModule>`` block whose module is not loaded
        are skipped entirely -- Apache never parses them, so configuration
        errors hiding there stay latent (one more place where errors are
        silently ignored).
        """
        for node in children:
            if node.kind == "section":
                tag = (node.name or "").lower()
                if tag not in SECTION_TAGS:
                    return (
                        f"Invalid command '<{node.name}>', perhaps misspelled or defined by a "
                        "module not included in the server configuration"
                    )
                if tag == "ifmodule":
                    negated = (node.value or "").strip().startswith("!")
                    present = _guard_argument(node) in available_modules
                    if present == negated:
                        continue  # guard not satisfied: block contents are never parsed
                elif tag == "virtualhost":
                    self.virtual_hosts.append(self._virtual_host_info(node))
                error = self._process_children(node.children, available_modules)
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
