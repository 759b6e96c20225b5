"""Simulated option-file databases: one lifecycle, one walk, one splice.

The simulated MySQL and Postgres servers read one flat option file the same
way: start from the built-in defaults, apply each directive the server reads
in file order, stop at the first error, check the cross-parameter
constraints, then bring up a :class:`~repro.sut.storage.MiniSqlEngine`.
:class:`SimulatedDatabase` owns that walk, the lifecycle and the field-delta
splice; a family writes four hooks:

* :meth:`~SimulatedDatabase._defaults` -- the built-in settings, built once;
* :meth:`~SimulatedDatabase._read_nodes` -- the nodes the server reads, in
  file order (the walk and the splice index both use it);
* :meth:`~SimulatedDatabase._apply` -- one node's effect on the settings;
* :meth:`~SimulatedDatabase._check_settings` -- cross-parameter constraints.
"""

from __future__ import annotations

from abc import abstractmethod
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from repro.core.infoset import ConfigNode, ConfigSet, ConfigTree
from repro.sut.base import FunctionalTest, StartResult, SystemUnderTest
from repro.sut.functional import database_suite
from repro.sut.incremental import BaselineValidation, NodeChange, ScenarioDelta
from repro.sut.storage import Connection, MiniSqlEngine

__all__ = ["SimulatedDatabase"]

#: A node of the option file, or the post-edit fields of one.
Directive = Union[ConfigNode, NodeChange]
#: One directive's effect in isolation: ``(error, assignment, warnings)``,
#: where ``assignment`` is the ``(canonical key, value)`` it wrote, or None.
Effect = tuple[Union[str, None], Union[tuple[str, object], None], tuple[str, ...]]

#: Role of a node the server never interprets.
_IGNORED = "ignored"


@dataclass
class _SpliceIndex:
    """Reusable index of one fully validated pristine option file.

    ``roles`` maps every node path below the root to the document position
    of a directive the server reads, or ``"ignored"`` for any other node.
    Section nodes carry no role on purpose: renaming a section can move
    whole groups in or out of the server's view, which is a full-pass edit.
    ``assigned[position]`` is the assignment that directive makes in
    isolation and ``assignments`` the same data per key, for last-write-wins
    splicing; ``settings`` are the pristine walk's final settings.
    ``warnings`` holds only the positions whose pristine directive warned
    (usually none), so the per-delta merge never walks every position.
    """

    roles: dict[tuple[int, ...], Union[int, str]]
    assigned: list[Union[tuple[str, object], None]]
    assignments: dict[str, list[tuple[int, object]]]
    settings: dict[str, object]
    warnings: dict[int, tuple[str, ...]]


class SimulatedDatabase(SystemUnderTest):
    """A simulated database server driven by one option file."""

    #: The dialect of the option file ``config_filename``.
    config_dialect: str
    #: The option file used when the constructor is given none.
    default_text: str
    #: Server process named by :meth:`connect` while stopped.
    process_name: str

    def __init__(self, default_config: str | None = None):
        self._default_config = default_config if default_config is not None else self.default_text
        self._engine: MiniSqlEngine | None = None
        #: Effective settings after the last successful start.
        self.effective_settings: dict[str, object] = {}

    # ------------------------------------------------------------ family hooks
    @abstractmethod
    def _defaults(self) -> Mapping[str, object]:
        """Built-in settings before the option file is read (never mutated)."""

    @abstractmethod
    def _read_nodes(self, tree: ConfigTree) -> Iterable[ConfigNode]:
        """The nodes of ``tree`` the server interprets, in file order."""

    @abstractmethod
    def _apply(self, node: Directive, settings: dict[str, object], warnings: list[str]) -> str | None:
        """Apply one read node to ``settings``; return an error message or None."""

    def _check_settings(self, settings: Mapping[str, object]) -> str | None:
        """Cross-parameter check of the final settings; an error message or None."""
        return None

    # --------------------------------------------------------------- interface
    def default_configuration(self) -> dict[str, str]:
        return {self.config_filename: self._default_config}

    def dialect_for(self, filename: str) -> str:
        return self.config_dialect

    def functional_tests(self) -> list[FunctionalTest]:
        return database_suite()

    def is_running(self) -> bool:
        return self._engine is not None

    def stop(self) -> None:
        self._engine = None

    def connect(self) -> Connection:
        """Open a client connection (used by the database functional suite)."""
        if self._engine is None:
            raise RuntimeError(f"{self.process_name} is not running")
        return self._engine.connect()

    # ------------------------------------------------------------------ start
    def _start_from_trees(self, trees: ConfigSet, files: Mapping[str, str]) -> StartResult:
        """Apply each read node in file order; the first error aborts startup."""
        settings = dict(self._defaults())
        warnings: list[str] = []
        for node in self._read_nodes(trees.get(self.config_filename)):
            error = self._apply(node, settings, warnings)
            if error is not None:
                return StartResult.failed(error)
        return self._bring_up(settings, warnings)

    def _bring_up(self, settings: dict[str, object], warnings: list[str]) -> StartResult:
        """Check the final ``settings`` and, when they hold, start the engine."""
        error = self._check_settings(settings)
        if error is not None:
            return StartResult.failed(error)
        self.effective_settings = settings
        self._engine = MiniSqlEngine(max_connections=max(1, self._observable_state()))
        return StartResult.ok(warnings)

    # ------------------------------------------------------------ delta start
    def _observable_state(self) -> int:
        # the diagnosis suite sees the server only through its admission limit
        return int(self.effective_settings.get("max_connections") or 1)

    def _effect(self, node: Directive) -> Effect:
        """The effect of applying ``node`` alone to empty settings."""
        settings: dict[str, object] = {}
        warnings: list[str] = []
        error = self._apply(node, settings, warnings)
        return error, next(iter(settings.items()), None), tuple(warnings)

    def _baseline_state(self, trees: ConfigSet) -> _SpliceIndex | None:
        """Index the pristine option file by document position."""
        if self.config_filename not in trees:
            return None
        tree = trees.get(self.config_filename)
        read = {id(node) for node in self._read_nodes(tree)}
        roles: dict[tuple[int, ...], Union[int, str]] = {}
        assigned: list[Union[tuple[str, object], None]] = []
        warnings: dict[int, tuple[str, ...]] = {}
        for node, path in tree.root.walk_with_paths():
            if not path or node.kind == "section":
                continue
            if id(node) not in read:
                roles[path] = _IGNORED
                continue
            position = roles[path] = len(assigned)
            _error, assignment, node_warnings = self._effect(node)
            assigned.append(assignment)
            if node_warnings:
                warnings[position] = node_warnings
        assignments: dict[str, list[tuple[int, object]]] = {}
        settings = dict(self._defaults())
        for position, assignment in enumerate(assigned):
            if assignment is not None:
                key, value = assignment
                assignments.setdefault(key, []).append((position, value))
                settings[key] = value
        return _SpliceIndex(roles, assigned, assignments, settings, warnings)

    def start_delta(
        self, baseline: BaselineValidation, delta: ScenarioDelta
    ) -> StartResult | None:
        """Revalidate only the changed directives, splicing their effects.

        A changed directive's effect (error, assignment, warnings) is
        recomputed in isolation and substituted at its document position;
        every key it touched is re-resolved by last-write-wins over the
        baseline index, and the cross-parameter check runs on the spliced
        settings.  Section edits and unknown paths fall back.  Structural
        edits move document positions, so those take the shared protocol
        (the walk over the patched tree) instead of splicing.  The splice
        stays for field edits because it is measured: with the walk as the
        only path, ``mysql-full-directives`` spelling reruns gain about 2.5x
        over full revalidation instead of about 8x, below the 5x the
        benchmarks require.
        """
        if delta.children_changes:
            return super().start_delta(baseline, delta)
        index: _SpliceIndex = baseline.state
        changed: dict[int, NodeChange] = {}
        for change in delta.changes:
            if change.tree != self.config_filename:
                return None
            role = index.roles.get(change.path)
            if role is None:
                return None
            if role != _IGNORED:
                changed[role] = change

        self.stop()
        effects = {position: self._effect(change) for position, change in changed.items()}
        # the full walk fails on the first erroring directive in file order
        failing = [position for position, effect in effects.items() if effect[0] is not None]
        if failing:
            return StartResult.failed(effects[min(failing)][0])

        settings = dict(index.settings)
        affected: set[str] = set()
        for position, effect in effects.items():
            for assignment in (index.assigned[position], effect[1]):
                if assignment is not None:
                    affected.add(assignment[0])
        for key in affected:
            candidates = [
                (position, value)
                for position, value in index.assignments.get(key, [])
                if position not in effects
            ]
            candidates.extend(
                (position, effect[1][1])
                for position, effect in effects.items()
                if effect[1] is not None and effect[1][0] == key
            )
            settings[key] = max(candidates)[1] if candidates else self._defaults()[key]

        warnings: list[str] = []
        if index.warnings or any(effect[2] for effect in effects.values()):
            merged = dict(index.warnings)
            for position, effect in effects.items():
                if effect[2]:
                    merged[position] = effect[2]
                else:
                    merged.pop(position, None)
            for position in sorted(merged):
                warnings.extend(merged[position])

        return self._delta_outcome(baseline, self._bring_up(settings, warnings))
