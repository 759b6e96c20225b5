"""The injection engine: one worker's injection context.

For one (system under test, error-generator plugin) pair the engine

1. parses the SUT's initial configuration files into system-specific trees
   and maps them to the plugin's view (once, at construction -- the
   coordinator generates the scenarios from that view),
2. for each scenario: applies it to the pristine view, maps the mutated view
   back, serialises the faulty configuration files, starts the SUT with them,
   runs the functional tests, stops the SUT and records the outcome.

None of these steps require human intervention (paper Section 3).  The one
campaign driver is :class:`~repro.core.suite.CampaignSuite`: it generates
each cell's scenarios from an engine's view and streams them through an
executor strategy, whose workers each own an engine of their own.

Scenario application uses an apply/undo protocol: every built-in
:class:`~repro.core.templates.base.Operation` returns an inverse, so the
engine mutates one long-lived working view and rolls it back after each
experiment instead of deep-cloning the whole configuration set per scenario.
File serialisations of trees a scenario does not touch come from a baseline
cache computed on the engine's first experiment.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.core.infoset import ConfigNode, ConfigSet, ConfigTree
from repro.core.profile import InjectionOutcome, InjectionRecord
from repro.core.templates.base import FaultScenario
from repro.errors import CampaignError, ConfErrError, SerializationError, SUTError, TransformError
from repro.parsers.base import get_dialect, serialize_tree
from repro.plugins.base import ErrorGeneratorPlugin
from repro.sut.base import SystemUnderTest, split_sut
from repro.sut.incremental import (
    BaselineValidation,
    ChildEntry,
    ChildrenChange,
    NodeChange,
    ScenarioDelta,
    Splice,
    node_at,
    node_from_change,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from repro.core.executor import WorkerSpec

__all__ = ["IncrementalStats", "InjectionEngine"]


@dataclass
class IncrementalStats:
    """One engine's counters for the delta-validation path.

    ``attempts`` counts scenarios offered to the delta path;
    ``delta_starts`` the ones it validated without a full pass.  The three
    fallback counters partition the remainder: ``fallbacks`` are edits the
    view cannot express (multi-operation structural scenarios, cross-file
    moves) or the SUT declined, ``guard_fallbacks`` are changes the
    round-trip guard refused, and ``errors`` are unexpected exceptions
    (always recoverable -- the full pass runs instead).  ``substitutions``
    counts changes the guard accepted after replacing the mutated fields
    with their single-node reparse (line-oriented dialects only), and
    ``noop_reuses`` delta starts that proved the scenario a no-op so the
    baseline functional outcomes were reused.
    """

    attempts: int = 0
    delta_starts: int = 0
    fallbacks: int = 0
    guard_fallbacks: int = 0
    substitutions: int = 0
    noop_reuses: int = 0
    errors: int = 0

    def snapshot(self) -> dict[str, int]:
        """Current counter values as a plain dict."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    @property
    def fallback_total(self) -> int:
        """Scenarios that reached the delta path but ran the full pass."""
        return self.fallbacks + self.guard_fallbacks + self.errors


def _reparse_alone(
    node: ConfigNode, filename: str, dialect, container: ConfigNode | None = None
) -> ConfigNode | None:
    """The single node ``node`` reads back as when serialised on its own.

    With a ``container`` (one below the file root), ``node`` is serialised
    inside a childless copy of it, so a node that container cannot hold
    (a section inside an INI section) fails to read back.  None when the
    text does not parse or parses to anything but exactly one node.
    ``node`` itself is only read, so shared and snapshot nodes stay
    untouched.
    """
    held = node
    if container is not None:
        held = ConfigNode(
            container.kind, container.name, container.value, container.attrs, children=[node]
        )
    root = ConfigNode("file", name=filename, children=[held])
    snippet = ConfigTree(filename, root, dialect=dialect.name)
    try:
        reparsed = dialect.parse(dialect.serialize(snippet), filename=filename)
    except ConfErrError:
        return None
    children = reparsed.root.children
    if held is not node and len(children) == 1:
        children = children[0].children
    return children[0] if len(children) == 1 else None


def _children_vetted(change: ChildrenChange, tree: ConfigTree, dialect) -> bool:
    """Whether a spliced child list means what a full parse would read.

    Sound when four things hold:

    * the dialect answers
      :meth:`~repro.parsers.base.ConfigDialect.siblings_independent_in`
      for the container, so each child reads back the same whatever its
      new neighbours;
    * every node moved in from another container of the tree comes from
      one that answers yes as well (shared baseline nodes were read by the
      parser already and need no text check);
    * every inserted snapshot serialises alone inside the container and
      re-parses to exactly one structurally equal node;
    * the file cannot end differently.  A trailing empty line without a
      final newline vanishes on reparse, so the file *root* keeps at least
      two children, and in a file without a final newline every container
      holding its last line -- the root, its last child, that child's last
      child and so on (an INI section or sshd ``Match`` block that ends
      the file) -- keeps its baseline last child last.

    The checks read the splices and the path down to the container only,
    never the untouched children.
    """
    root = tree.root
    container = node_at(tree, change.path)
    if container is None or not dialect.siblings_independent_in(container):
        return False
    splices = change.splices
    count = len(container.children)
    if not change.path:
        length = count + sum(len(entries) - (stop - start) for start, stop, entries in splices)
        if length < 2:
            return False
    if (
        not root.get("trailing_newline", True)
        and _ends_file(root, change.path)
        and _last_child(splices, count) != count - 1
    ):
        return False
    for _start, _stop, entries in splices:
        for entry in entries:
            if isinstance(entry, ConfigNode):
                reparsed = _reparse_alone(
                    entry, tree.name, dialect, container if change.path else None
                )
                if reparsed is None or not reparsed.structurally_equal(entry):
                    return False
            elif isinstance(entry, tuple):
                source = node_at(tree, entry[:-1])
                if source is None or not dialect.siblings_independent_in(source):
                    return False
    return True


def _ends_file(root: ConfigNode, path: tuple[int, ...]) -> bool:
    """Whether the container at ``path`` holds the file's last line: each
    step of the path goes to its parent's last child."""
    node = root
    for index in path:
        if index != len(node.children) - 1:
            return False
        node = node.children[index]
    return True


def _last_child(splices: tuple[Splice, ...], count: int) -> ChildEntry | None:
    """The last entry of a child list of ``count`` baseline children after
    ``splices`` (a kept baseline child as its index); None when empty."""
    end = count
    for start, stop, entries in reversed(splices):
        if stop < end:
            break
        if entries:
            return entries[-1]
        end = start
    return end - 1 if end > 0 else None


class InjectionEngine:
    """One worker's injection context: a SUT, a plugin and their parsed state.

    Parameters
    ----------
    sut:
        Either a live :class:`SystemUnderTest` or a zero-argument factory
        returning one (the SUT class itself works); a factory is called
        once.
    plugin:
        The error-generator plugin supplying the view scenarios act on.
    incremental:
        Whether scenarios may take the delta-validation fast path
        (``--no-incremental`` turns this off; outcomes are identical).

    The pristine configuration is parsed into :attr:`config_set` and mapped
    to :attr:`view_set` at construction.  The baseline serialisation
    (:meth:`baseline_files`) and the delta-validation baseline
    (:meth:`prepare_incremental`) are computed on first use, so a
    coordinator that only generates scenarios never pays for them.
    :attr:`stats` counts this engine's delta-path decisions.
    """

    def __init__(
        self,
        sut: SystemUnderTest | Callable[[], SystemUnderTest],
        plugin: ErrorGeneratorPlugin,
        *,
        incremental: bool = True,
    ):
        self.sut = split_sut(sut)[0]
        self.plugin = plugin
        self.incremental = incremental
        #: The parsed pristine configuration (system-specific trees).
        self.config_set = self.parse_initial_configuration()
        #: The plugin's view of it: scenarios are generated from and
        #: injected into this set (rolled back after every experiment).
        self.view_set = plugin.view.transform(self.config_set)
        self._baselines: dict[str, Any] = {}
        self.stats = IncrementalStats()

    @classmethod
    def from_spec(cls, spec: WorkerSpec) -> "InjectionEngine":
        """An engine over a fresh SUT from ``spec``'s factory."""
        if spec.sut_factory is None:
            raise CampaignError(
                "parallel execution and fault tolerance need a SUT factory: pass "
                "the SUT class or a zero-argument callable instead of a shared "
                "instance"
            )
        return cls(spec.sut_factory(), spec.plugin, incremental=spec.incremental)

    # ---------------------------------------------------------------- parsing
    def parse_initial_configuration(self) -> ConfigSet:
        """Parse the SUT's default configuration files into a ConfigSet."""
        config_set = ConfigSet()
        for filename, text in self.sut.default_configuration().items():
            dialect = get_dialect(self.sut.dialect_for(filename))
            config_set.add(dialect.parse(text, filename=filename))
        return config_set

    # -------------------------------------------------------------- baselines
    def baseline_files(self) -> dict[str, str] | None:
        """Serialise the *pristine* configuration through the view round-trip.

        The result is what :meth:`materialize` produces for trees a scenario
        does not touch, so it is computed once per engine and reused.  None
        when the pristine round-trip itself cannot be serialised (degenerate
        harness setups); :meth:`materialize` then falls back to full
        per-scenario untransforms.
        """
        try:
            system_set = self.plugin.view.untransform(self.view_set, self.config_set)
            return {tree.name: serialize_tree(tree) for tree in system_set}
        except ConfErrError:
            return None

    def prepare_incremental(self) -> BaselineValidation | None:
        """Prepare the delta-validation baseline, or None when unsound.

        The delta path validates baseline *trees* patched in place of the
        full serialise-and-reparse round trip, so it is only enabled when

        * the engine and the SUT opt in (``incremental`` and a
          ``_start_from_trees`` override),
        * the pristine full validation started, and
        * the view's reverse mapping reproduces the parsed pristine trees
          *exactly* (a view that normalises formatting would make patched
          baseline trees diverge from what the SUT would really see).
        """
        if not self.incremental or not self.sut.supports_delta():
            return None
        try:
            system_set = self.plugin.view.untransform(self.view_set, self.config_set)
        except ConfErrError:
            return None
        prepared = self.sut.prepare(self.sut.default_configuration())
        if prepared is None or not prepared.result.started:
            return None
        if prepared.trees.names() != system_set.names():
            return None
        for name in system_set.names():
            if not prepared.trees.get(name).structurally_equal(system_set.get(name)):
                return None
        return prepared

    def _once(self, method: str) -> Any:
        """The result of the baseline ``method``, computed on first use."""
        if method not in self._baselines:
            self._baselines[method] = getattr(self, method)()
        return self._baselines[method]

    def _vet_change(
        self, change: NodeChange | ChildrenChange, baseline_trees: ConfigSet
    ) -> NodeChange | ChildrenChange | None:
        """Round-trip-check ``change``; returns the change the SUT may trust.

        The full path validates ``parse(serialize(tree))``; the delta path
        validates patched baseline trees directly, so every changed node
        must be proven to mean what the real parser would read.  A field
        change gets one of three verdicts:

        * the dialect's :meth:`~repro.parsers.base.ConfigDialect.roundtrip_safe`
          pre-filter (or an actual serialise-and-reparse) shows the node
          survives intact -- the change stands as-is;
        * the dialect is line-oriented and the mutated text re-parses as a
          *single node of the same kind* with different fields (a comment
          marker truncating a value, say) -- the reparsed fields are
          substituted, because that is exactly what a full parse of the
          mutated file would see on that line;
        * anything else (parse error, node splits, kind changes) -- ``None``,
          routing the scenario through the full pass.

        A child-list change is vetted by :func:`_children_vetted`.
        """
        if change.tree not in baseline_trees:
            return None
        baseline_tree = baseline_trees.get(change.tree)
        base_node = node_at(baseline_tree, change.path)
        if base_node is None:
            return None
        dialect = get_dialect(baseline_tree.dialect)
        if isinstance(change, ChildrenChange):
            return change if _children_vetted(change, baseline_tree, dialect) else None
        if base_node.kind != change.kind:
            return None
        if not base_node.children and dialect.roundtrip_safe(
            change.kind, change.name, change.value, change.attrs
        ):
            return change
        patched = node_from_change(change, base_node)
        reparsed_node = _reparse_alone(patched, baseline_tree.name, dialect)
        if reparsed_node is None:
            return None
        if reparsed_node.structurally_equal(patched):
            return change
        if dialect.line_oriented and reparsed_node.kind == change.kind:
            self.stats.substitutions += 1
            return NodeChange(
                tree=change.tree,
                path=change.path,
                kind=change.kind,
                name=reparsed_node.name,
                value=reparsed_node.value,
                attrs=dict(reparsed_node.attrs),
            )
        return None

    def _attempt_delta(self, scenario: FaultScenario, prepared: BaselineValidation):
        """Try to classify ``scenario``'s start via the delta path.

        Returns the :class:`~repro.sut.base.StartResult` a full start on the
        mutated files would have produced, or None to run the full path.
        Any exception is treated as a fallback: the full pass re-raises (and
        classifies) whatever actually fails.
        """
        self.stats.attempts += 1
        try:
            with scenario.applied_to(self.view_set) as mutated:
                changes = self.plugin.view.scenario_changes(scenario, mutated, prepared.trees)
                if changes is None:
                    self.stats.fallbacks += 1
                    return None
                fields: list[NodeChange] = []
                layouts: list[ChildrenChange] = []
                for change in changes:
                    checked = self._vet_change(change, prepared.trees)
                    if checked is None:
                        self.stats.guard_fallbacks += 1
                        return None
                    (layouts if isinstance(checked, ChildrenChange) else fields).append(checked)
                delta = ScenarioDelta(tuple(fields), tuple(layouts))
                result = self.sut.start_delta(prepared, delta)
        except Exception:
            self.stats.errors += 1
            self._safe_stop()
            return None
        if result is None:
            self.stats.fallbacks += 1
            return None
        self.stats.delta_starts += 1
        return result

    # -------------------------------------------------------------- injection
    def materialize(self, scenario: FaultScenario) -> dict[str, str]:
        """Produce the faulty configuration files for ``scenario``.

        :attr:`view_set` is used as the working copy: it is mutated in place
        and rolled back before returning (operations without an inverse fall
        back to a copy-on-write overlay that clones only the touched trees).
        When the baseline files exist and the view supports localisation,
        only the touched trees are reverse-transformed and serialised.

        Raises :class:`~repro.errors.SerializationError` (or
        :class:`~repro.errors.TransformError`) when the mutation cannot be
        expressed in the native format.
        """
        baseline_files = self._once("baseline_files")
        with scenario.applied_to(self.view_set) as mutated:
            partial = None
            if baseline_files is not None:
                touched = scenario.touched_trees()
                if touched is not None:
                    partial = self.plugin.view.untransform_touched(
                        mutated, self.config_set, touched
                    )
            if partial is None:
                system_set = self.plugin.view.untransform(mutated, self.config_set)
                return {tree.name: serialize_tree(tree) for tree in system_set}
            files = dict(baseline_files)
            for tree in partial:
                files[tree.name] = serialize_tree(tree)
            return files

    def run_scenario(self, scenario: FaultScenario) -> InjectionRecord:
        """Run a single injection experiment and classify its outcome.

        With a prepared delta-validation baseline, the engine first offers
        the scenario to the delta path; scenarios it cannot soundly localise
        (multi-operation structural edits, guard refusals) run the classic
        materialise-and-start pipeline, byte-identically.
        """
        # both baselines exist before the clock starts, so an engine's first
        # record does not carry their one-off cost
        self._once("baseline_files")
        incremental = self._once("prepare_incremental")
        started_at = time.perf_counter()

        def record(outcome: InjectionOutcome, messages=(), failed_tests=()) -> InjectionRecord:
            return InjectionRecord(
                scenario_id=scenario.scenario_id,
                category=scenario.category,
                description=scenario.description,
                outcome=outcome,
                messages=list(messages),
                failed_tests=list(failed_tests),
                metadata=dict(scenario.metadata),
                duration_seconds=time.perf_counter() - started_at,
            )

        def diagnosed(warnings, outcomes) -> InjectionRecord:
            """Fold ``(passed, name, detail)`` diagnosis outcomes into a record."""
            failed = []
            messages = list(warnings)
            for passed, name, detail in outcomes:
                if not passed:
                    failed.append(name)
                    if detail:
                        messages.append(f"{name}: {detail}")
            if failed:
                return record(InjectionOutcome.DETECTED_BY_TESTS, messages=messages, failed_tests=failed)
            return record(InjectionOutcome.IGNORED, messages=messages)

        start_result = None
        if incremental is not None:
            start_result = self._attempt_delta(scenario, incremental)
            if start_result is incremental.result and incremental.functional is not None:
                # the SUT declared the delta a no-op (see start_delta): the
                # post-start state is the pristine state, so the recorded
                # baseline functional outcomes are the suite's outcomes
                self.stats.noop_reuses += 1
                self._safe_stop()
                return diagnosed(start_result.warnings, incremental.functional)

        if start_result is None:
            try:
                files = self.materialize(scenario)
            except (SerializationError, TransformError) as exc:
                return record(InjectionOutcome.INJECTION_IMPOSSIBLE, messages=[str(exc)])
            except ConfErrError as exc:
                return record(InjectionOutcome.HARNESS_ERROR, messages=[str(exc)])

            try:
                start_result = self.sut.start(files)
            except SUTError as exc:
                return record(InjectionOutcome.HARNESS_ERROR, messages=[str(exc)])
            except Exception as exc:
                # A crashing simulated SUT must not take the whole campaign (or a
                # pool worker) down with it; record it and keep injecting.
                self._safe_stop()
                return record(
                    InjectionOutcome.HARNESS_ERROR,
                    messages=[f"unexpected SUT failure: {type(exc).__name__}: {exc}"],
                )

        if not start_result.started:
            self._safe_stop()
            return record(InjectionOutcome.DETECTED_AT_STARTUP, messages=start_result.errors)

        try:
            results = (test.run(self.sut) for test in self.sut.functional_tests())
            return diagnosed(
                start_result.warnings,
                ((result.passed, result.name, result.detail) for result in results),
            )
        except Exception as exc:
            # like a crashing start(), a crashing diagnosis test must not
            # abort the campaign
            return record(
                InjectionOutcome.HARNESS_ERROR,
                messages=[f"unexpected functional-test failure: {type(exc).__name__}: {exc}"],
            )
        finally:
            self._safe_stop()

    def baseline_check(self) -> list[str]:
        """Sanity-check that the *unmodified* configuration starts and passes tests.

        Returns a list of problems (empty when the baseline is healthy).  The
        paper's methodology presumes a working initial configuration; running
        this before a campaign catches harness misconfiguration early.
        """
        problems: list[str] = []
        files = self.sut.default_configuration()
        result = self.sut.start(files)
        if not result.started:
            problems.append(f"default configuration refused to start: {result.errors}")
            self._safe_stop()
            return problems
        for test in self.sut.functional_tests():
            outcome = test.run(self.sut)
            if not outcome.passed:
                problems.append(f"functional test {outcome.name} fails on the default configuration: {outcome.detail}")
        self._safe_stop()
        return problems

    def _safe_stop(self) -> None:
        try:
            self.sut.stop()
        except Exception:  # pragma: no cover - defensive: stop() should not fail
            pass
