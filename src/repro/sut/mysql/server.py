"""Simulated MySQL server.

The simulation reproduces the configuration-handling behaviour of the MySQL
5.1 server the paper studied, including the weaknesses Section 5.2 reports:

* the option file is shared with the auxiliary tools, and the server only
  parses its own groups at startup -- errors in the other sections remain
  latent until the corresponding tool runs;
* numeric values that are out of bounds are silently adjusted;
* a multiplier suffix stops value parsing, so ``1M0`` is accepted as ``1M``;
* values *starting* with a multiplier letter (hence not numeric at all) are
  silently replaced by the default;
* directives given without a value are accepted and the default is used;
* directive names are matched case-sensitively (mixed-case spellings are
  rejected as unknown variables) but may be abbreviated to any unambiguous
  prefix, and ``-`` and ``_`` are interchangeable (paper Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.infoset import ConfigSet
from repro.errors import ParseError
from repro.parsers.base import get_dialect
from repro.sut.base import FunctionalTest, StartResult, SystemUnderTest
from repro.sut.functional import database_suite
from repro.sut.incremental import BaselineValidation, ScenarioDelta
from repro.sut.mysql.options import AUXILIARY_SECTIONS, CLIENT_OPTIONS, DEFAULT_MY_CNF, MYSQLD_OPTIONS
from repro.sut.options import OptionSpec, OptionTable
from repro.sut.storage import Connection, MiniSqlEngine

__all__ = ["SimulatedMySQL", "parse_mysql_numeric", "MySqlValueError"]

_MULTIPLIERS = {"k": 1024, "m": 1024**2, "g": 1024**3}
_BOOL_VALUES = {"0": False, "1": True, "on": True, "off": False, "true": True, "false": False}

#: Section names whose directives the server itself interprets at startup.
_SERVER_SECTIONS = ("mysqld", "server")


class MySqlValueError(ValueError):  # conferr: allow[harness/foreign-exception]
    """A numeric option value was rejected by the option parser."""


def parse_mysql_numeric(text: str, spec: OptionSpec) -> tuple[int | None, list[str]]:
    """Parse a numeric option value the way MySQL's option parser does.

    Returns ``(effective_value, warnings)``.  The behaviour reproduces what
    the paper reports for MySQL 5.1:

    * a value whose digits are followed by a *multiplier* letter (K/M/G)
      stops parsing there, so ``1M0`` is accepted as one megabyte (flaw),
    * a value with no leading digits at all (``M16``) is silently ignored
      and the built-in default used (flaw; ``effective_value`` is None),
    * an out-of-bounds value is silently adjusted into range (flaw),
    * digits followed by an *unknown* suffix (``33o6``) are rejected with an
      "Unknown suffix" error, which aborts startup --
      :class:`MySqlValueError` is raised.
    """
    warnings: list[str] = []
    stripped = text.strip()
    index = 0
    if index < len(stripped) and stripped[index] in "+-":
        index += 1
    digits_start = index
    while index < len(stripped) and stripped[index].isdigit():
        index += 1
    if index == digits_start:
        # No leading digits at all ("M16", "abc"): the value is silently
        # ignored and the built-in default used instead.
        warnings.append(
            f"option '{spec.name}': value '{text}' is not numeric; using default {spec.default!r}"
        )
        return None, warnings
    magnitude = int(stripped[:index])
    if index < len(stripped):
        suffix = stripped[index]
        if suffix.lower() in _MULTIPLIERS:
            magnitude *= _MULTIPLIERS[suffix.lower()]
            if len(stripped) > index + 1:
                warnings.append(
                    f"option '{spec.name}': characters after the multiplier in '{text}' were ignored"
                )
        else:
            raise MySqlValueError(
                f"Unknown suffix '{suffix}' used for variable '{spec.name}' (value '{text}')"
            )
    clamped = magnitude
    if spec.minimum is not None and clamped < spec.minimum:
        clamped = int(spec.minimum)
    if spec.maximum is not None and clamped > spec.maximum:
        clamped = int(spec.maximum)
    if clamped != magnitude:
        warnings.append(
            f"option '{spec.name}': value {magnitude} is out of bounds and was adjusted to {clamped}"
        )
    return clamped, warnings


@dataclass
class _MySqlDeltaState:
    """Reusable index of one fully validated pristine ``my.cnf``.

    ``roles`` classifies every node path the server's walk visits: an int
    is the document-order position of a processed ``[mysqld]``/``[server]``
    directive, ``"ignored"`` marks nodes the server never interprets
    (auxiliary groups, comments, directives outside any group).  Section
    nodes carry no role on purpose: renaming a section can move whole
    groups in or out of the server's view, which is a full-pass edit.

    ``entries[position]`` is the effect of one processed directive on the
    pristine file: ``(error, assignment, warnings)`` where ``assignment``
    is the ``(canonical key, value)`` it wrote (or None).  ``assignments``
    indexes the same data per key for last-write-wins splicing.
    """

    roles: dict[tuple[int, ...], object]
    entries: list[tuple[str | None, tuple[str, object] | None, tuple[str, ...]]]
    assignments: dict[str, list[tuple[int, object]]]
    defaults: dict[str, object]
    final_settings: dict[str, object]
    #: Positions whose pristine directive emitted warnings (usually none);
    #: kept sparse so the per-delta merge never walks all entries.
    warning_positions: tuple[tuple[int, tuple[str, ...]], ...]


class SimulatedMySQL(SystemUnderTest):
    """Simulated MySQL database server driven by a ``my.cnf`` option file."""

    name = "MySQL"
    config_filename = "my.cnf"

    def __init__(self, default_config: str | None = None):
        self._default_config = default_config if default_config is not None else DEFAULT_MY_CNF
        self._engine: MiniSqlEngine | None = None
        #: Effective settings after the last successful start.
        self.effective_settings: dict[str, object] = {}
        #: Warnings emitted during the last start.
        self.last_warnings: list[str] = []

    # --------------------------------------------------------------- interface
    def default_configuration(self) -> dict[str, str]:
        return {self.config_filename: self._default_config}

    def dialect_for(self, filename: str) -> str:
        return "ini"

    def functional_tests(self) -> list[FunctionalTest]:
        return database_suite()

    def is_running(self) -> bool:
        return self._engine is not None

    def stop(self) -> None:
        self._engine = None

    def connect(self) -> Connection:
        """Open a client connection (used by the database functional suite)."""
        if self._engine is None:
            raise RuntimeError("mysqld is not running")
        return self._engine.connect()

    # ------------------------------------------------------------------ start
    def start(self, files: Mapping[str, str]) -> StartResult:
        self.stop()
        text = files.get(self.config_filename)
        if text is None:
            return StartResult.failed(f"option file {self.config_filename} is missing")
        try:
            tree = get_dialect("ini").parse(text, filename=self.config_filename)
        except ParseError as exc:
            return StartResult.failed(f"could not parse option file: {exc}")
        return self._start_from_trees(ConfigSet([tree]), files)

    def _start_from_trees(self, trees: ConfigSet, files: Mapping[str, str]) -> StartResult:
        """Validate and bring up the server from the parsed ``my.cnf``."""
        tree = trees.get(self.config_filename)
        settings: dict[str, object] = {
            spec.canonical_name(): self._default_for(spec) for spec in MYSQLD_OPTIONS
        }
        warnings: list[str] = []

        for section in tree.root.children_of_kind("section"):
            section_name = (section.name or "").strip().lower()
            if section_name not in _SERVER_SECTIONS:
                # Shared option file: the server ignores the groups belonging
                # to auxiliary tools, so errors there stay undetected for now.
                continue
            for directive in section.children_of_kind("directive"):
                error = self._apply_directive(directive.name or "", directive.value, settings, warnings)
                if error is not None:
                    return StartResult.failed(error)

        # Directives placed before any [section] header belong to no group and
        # are ignored by mysqld, like any other unknown group content.
        self.effective_settings = settings
        self.last_warnings = warnings
        max_connections = int(settings.get("max_connections") or 1)
        self._engine = MiniSqlEngine(max_connections=max(1, max_connections))
        return StartResult.ok(warnings)

    # ------------------------------------------------------------ delta start
    def _observable_state(self) -> int:
        # the diagnosis suite sees the server only through its admission limit
        return int(self.effective_settings.get("max_connections") or 1)

    def _baseline_state(self, trees: ConfigSet) -> _MySqlDeltaState | None:
        """Index the pristine option file for last-write-wins splicing."""
        if self.config_filename not in trees:
            return None
        tree = trees.get(self.config_filename)
        roles: dict[tuple[int, ...], object] = {}
        entries: list[tuple[str | None, tuple[str, object] | None, tuple[str, ...]]] = []
        for s_index, node in enumerate(tree.root.children):
            if node.kind != "section":
                # content before any [section] header: mysqld never reads it
                roles[(s_index,)] = "ignored"
                continue
            section_name = (node.name or "").strip().lower()
            if section_name not in _SERVER_SECTIONS:
                for d_index in range(len(node.children)):
                    roles[(s_index, d_index)] = "ignored"
                continue
            for d_index, child in enumerate(node.children):
                if child.kind != "directive":
                    roles[(s_index, d_index)] = "ignored"
                    continue
                probe: dict[str, object] = {}
                probe_warnings: list[str] = []
                error = self._apply_directive(
                    child.name or "", child.value, probe, probe_warnings
                )
                assignment = next(iter(probe.items()), None)
                roles[(s_index, d_index)] = len(entries)
                entries.append((error, assignment, tuple(probe_warnings)))
        assignments: dict[str, list[tuple[int, object]]] = {}
        for position, (_error, assignment, _warnings) in enumerate(entries):
            if assignment is not None:
                assignments.setdefault(assignment[0], []).append((position, assignment[1]))
        defaults = {spec.canonical_name(): self._default_for(spec) for spec in MYSQLD_OPTIONS}
        final_settings = dict(defaults)
        for _error, assignment, _warnings in entries:
            if assignment is not None:
                final_settings[assignment[0]] = assignment[1]
        return _MySqlDeltaState(
            roles=roles,
            entries=entries,
            assignments=assignments,
            defaults=defaults,
            final_settings=final_settings,
            warning_positions=tuple(
                (position, entry[2]) for position, entry in enumerate(entries) if entry[2]
            ),
        )

    def start_delta(
        self, baseline: BaselineValidation, delta: ScenarioDelta
    ) -> StartResult | None:
        """Revalidate only the changed directives, splicing their effects.

        A changed directive's effect (error, assignment, warnings) is
        recomputed in isolation and substituted at its document position;
        every key it touched is re-resolved by last-write-wins over the
        baseline index.  Section edits and unknown paths fall back.
        Structural edits move document positions, so those take the shared
        protocol (the walk over the patched tree) instead of splicing.  The
        splice stays for field edits because it is measured: with the walk
        as the only path, ``mysql-full-directives`` spelling reruns gain
        about 2.5x over full revalidation instead of about 8x, below the
        5x the benchmarks require.
        """
        if delta.children_changes:
            return super().start_delta(baseline, delta)
        state: _MySqlDeltaState = baseline.state
        overrides: dict[int, tuple[str, str | None]] = {}
        for change in delta.changes:
            if change.tree != self.config_filename:
                return None
            role = state.roles.get(change.path)
            if role == "ignored":
                continue
            if not isinstance(role, int):
                return None
            overrides[role] = (change.name or "", change.value)

        self.stop()
        if not overrides:
            # every changed node is one mysqld never reads: pristine state
            self.effective_settings = dict(state.final_settings)
            self.last_warnings = list(baseline.result.warnings)
            max_connections = int(state.final_settings.get("max_connections") or 1)
            self._engine = MiniSqlEngine(max_connections=max(1, max_connections))
            return baseline.result
        effects: dict[int, tuple[str | None, tuple[str, object] | None, tuple[str, ...]]] = {}
        for position, (name, value) in overrides.items():
            probe: dict[str, object] = {}
            probe_warnings: list[str] = []
            error = self._apply_directive(name, value, probe, probe_warnings)
            effects[position] = (error, next(iter(probe.items()), None), tuple(probe_warnings))

        # the full walk fails on the first erroring directive in file order
        failing = [position for position, effect in effects.items() if effect[0] is not None]
        if failing:
            return StartResult.failed(effects[min(failing)][0])

        settings = dict(state.final_settings)
        affected: set[str] = set()
        for position in overrides:
            old = state.entries[position][1]
            if old is not None:
                affected.add(old[0])
            new = effects[position][1]
            if new is not None:
                affected.add(new[0])
        for key in affected:
            candidates = [
                (position, value)
                for position, value in state.assignments.get(key, [])
                if position not in overrides
            ]
            candidates.extend(
                (position, effect[1][1])
                for position, effect in effects.items()
                if effect[1] is not None and effect[1][0] == key
            )
            settings[key] = max(candidates)[1] if candidates else state.defaults[key]

        warnings: list[str] = []
        if state.warning_positions or any(effect[2] for effect in effects.values()):
            merged = dict(state.warning_positions)
            for position, effect in effects.items():
                if effect[2]:
                    merged[position] = effect[2]
                else:
                    merged.pop(position, None)
            for position in sorted(merged):
                warnings.extend(merged[position])

        self.effective_settings = settings
        self.last_warnings = warnings
        max_connections = int(settings.get("max_connections") or 1)
        self._engine = MiniSqlEngine(max_connections=max(1, max_connections))
        if warnings == baseline.result.warnings and self._observable_state() == baseline.observable:
            return baseline.result
        return StartResult.ok(warnings)

    # ----------------------------------------------------------------- helpers
    @staticmethod
    def _default_for(spec: OptionSpec) -> object:
        if spec.kind in ("int", "size") and spec.default is not None:
            value, _ = parse_mysql_numeric(spec.default, spec)
            return value
        if spec.flag:
            return False
        return spec.default

    def _apply_directive(
        self,
        directive_name: str,
        value: str | None,
        settings: dict[str, object],
        warnings: list[str],
    ) -> str | None:
        """Apply one ``[mysqld]`` directive; return an error message or None."""
        spec = MYSQLD_OPTIONS.resolve(directive_name, allow_prefix=True, case_sensitive=True)
        if spec is None:
            return f"unknown variable '{directive_name}'"
        key = spec.canonical_name()

        if spec.flag:
            if value in (None, ""):
                settings[key] = True
                return None
            parsed = _BOOL_VALUES.get(value.strip().lower())
            if parsed is None:
                return f"option '{spec.name}': invalid boolean value '{value}'"
            settings[key] = parsed
            return None

        if value is None or value.strip() == "":
            # Valued directive written without a value: accepted, default used.
            warnings.append(f"option '{spec.name}': no value given; using default {spec.default!r}")
            return None

        if spec.kind in ("int", "size"):
            try:
                parsed_value, value_warnings = parse_mysql_numeric(value, spec)
            except MySqlValueError as exc:
                return str(exc)
            warnings.extend(value_warnings)
            if parsed_value is not None:
                settings[key] = parsed_value
            return None

        if spec.kind == "bool":
            parsed = _BOOL_VALUES.get(value.strip().lower())
            if parsed is None:
                return f"option '{spec.name}': invalid boolean value '{value}'"
            settings[key] = parsed
            return None

        if spec.kind == "enum":
            for choice in spec.choices:
                if value.strip().lower() == choice.lower():
                    settings[key] = choice
                    return None
            return f"option '{spec.name}': invalid value '{value}'"

        # string / path values are accepted as-is
        settings[key] = value
        return None

    # ----------------------------------------------------- auxiliary-tool check
    def check_auxiliary_tools(self, files: Mapping[str, str]) -> dict[str, list[str]]:
        """Parse the auxiliary-tool groups the way the tools themselves would.

        Returns a mapping of section name to the list of errors a tool run
        would report.  The server's own startup never performs these checks;
        this method exists to demonstrate the latent-error design flaw the
        paper describes (errors surface only when e.g. the nightly backup
        cron job runs).
        """
        text = files.get(self.config_filename, "")
        try:
            tree = get_dialect("ini").parse(text, filename=self.config_filename)
        except ParseError as exc:
            return {"<file>": [str(exc)]}
        problems: dict[str, list[str]] = {}
        known_tables: dict[str, OptionTable] = {"client": CLIENT_OPTIONS}
        for section in tree.root.children_of_kind("section"):
            section_name = (section.name or "").strip().lower()
            if section_name not in AUXILIARY_SECTIONS:
                continue
            table = known_tables.get(section_name)
            for directive in section.children_of_kind("directive"):
                if table is not None and table.resolve(directive.name or "", allow_prefix=True) is None:
                    problems.setdefault(section_name, []).append(
                        f"unknown option '{directive.name}' for [{section_name}]"
                    )
        return problems
