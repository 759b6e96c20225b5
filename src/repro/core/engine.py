"""The injection engine: ConfErr's end-to-end pipeline.

For one (system under test, error-generator plugin) pair the engine

1. parses the SUT's initial configuration files into system-specific trees,
2. maps them to the plugin's view,
3. asks the plugin for fault scenarios,
4. for each scenario: applies it to the pristine view, maps the mutated view
   back, serialises the faulty configuration files, starts the SUT with them,
   runs the functional tests, stops the SUT and records the outcome,
5. returns the resulting :class:`~repro.core.profile.ResilienceProfile`.

None of these steps require human intervention (paper Section 3).

Scenario application uses an apply/undo protocol: every built-in
:class:`~repro.core.templates.base.Operation` returns an inverse, so the
engine mutates one long-lived working view and rolls it back after each
experiment instead of deep-cloning the whole configuration set per scenario.
File serialisations of trees a scenario does not touch come from a baseline
cache computed once per campaign.  Campaigns can also fan scenarios out
across threads or processes (``jobs``/``executor``); each worker owns a
private SUT built from ``sut_factory``.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Mapping, Sequence

from repro.core.faults import FaultPolicy
from repro.core.infoset import ConfigNode, ConfigSet, ConfigTree
from repro.core.profile import InjectionOutcome, InjectionRecord, ResilienceProfile
from repro.core.templates.base import FaultScenario
from repro.errors import CampaignError, ConfErrError, SerializationError, SUTError, TransformError
from repro.parsers.base import get_dialect, serialize_tree
from repro.plugins.base import ErrorGeneratorPlugin
from repro.sut.base import SystemUnderTest, split_sut
from repro.sut.incremental import (
    INCREMENTAL_STATS,
    BaselineValidation,
    ChildrenChange,
    NodeChange,
    ScenarioDelta,
    node_at,
    node_from_change,
)

__all__ = ["InjectionEngine"]


def _reparse_alone(node: ConfigNode, filename: str, dialect) -> ConfigNode | None:
    """The single node ``node`` reads back as when serialised on its own.

    None when the text does not parse or parses to anything but exactly
    one node.  ``node`` is not re-parented: the snippet root lists it
    without adopting it, so shared and snapshot nodes stay untouched.
    """
    root = ConfigNode("file", name=filename)
    root.children = [node]
    snippet = ConfigTree(filename, root, dialect=dialect.name)
    try:
        reparsed = dialect.parse(dialect.serialize(snippet), filename=filename)
    except ConfErrError:
        return None
    children = reparsed.root.children
    return children[0] if len(children) == 1 else None


def _children_vetted(
    change: ChildrenChange, container: ConfigNode, filename: str, dialect
) -> bool:
    """Whether a patched child list means what a full parse would read.

    Sound when three things hold:

    * the dialect declares
      :attr:`~repro.parsers.base.ConfigDialect.sibling_independent`, so
      each child reads back the same whatever its new neighbours and
      container are;
    * every inserted snapshot serialises alone and re-parses to exactly
      one structurally equal node (shared baseline nodes, kept or
      moved, were read by the parser already and need no text check);
    * a rewritten file *root* cannot end differently: a file's last
      line interacts with the end-of-file rules (a trailing empty line
      without a final newline vanishes on reparse), so the file must
      keep at least two children, and a file without a final newline
      must keep its baseline last child last.
    """
    if not dialect.sibling_independent:
        return False
    entries = change.children
    if not change.path:
        if len(entries) < 2:
            return False
        last = len(container.children) - 1
        if not container.get("trailing_newline", True) and not (
            isinstance(entries[-1], int) and entries[-1] == last
        ):
            return False
    for entry in entries:
        if isinstance(entry, ConfigNode):
            reparsed = _reparse_alone(entry, filename, dialect)
            if reparsed is None or not reparsed.structurally_equal(entry):
                return False
    return True


class InjectionEngine:
    """Runs injection experiments for one SUT and one plugin.

    Parameters
    ----------
    sut:
        Either a live :class:`SystemUnderTest` or a zero-argument factory
        returning one (the SUT class itself works).  Passing a factory is
        required for parallel execution: every worker builds its own instance.
    plugin:
        The error-generator plugin supplying view and fault scenarios.
    seed:
        Seed of the scenario-generation RNG (campaigns are reproducible).
    observer:
        Optional callback invoked once per record, in scenario order,
        regardless of the executor strategy or worker count.  Under every
        strategy the callback fires *live*: serial runs observe each record
        as it is produced, and parallel runs observe each record as soon as
        the in-order front of the scenario sequence completes (records that
        finish out of order wait in a merge buffer until the records before
        them arrive).
    sut_factory:
        Explicit factory; overrides the one inferred from ``sut``.  Must
        build SUTs configured identically to ``sut`` -- workers re-parse the
        pristine configuration from their own instance, so a mismatched
        factory would silently inject into a different configuration.
    jobs:
        Number of workers scenarios are fanned out to (1 = serial, on this
        engine's own SUT).
    executor:
        Executor strategy name (``"serial"``, ``"thread"``, ``"process"``);
        None picks serial for ``jobs == 1`` and threads otherwise.
    block_size:
        Scenarios a parallel worker pulls from the shared work queue at a
        time (None: a heuristic based on the scenario count and worker
        count).  Smaller blocks rebalance skewed scenario costs better;
        larger blocks reduce queue traffic.  Profiles are identical for any
        value.
    policy:
        Optional :class:`~repro.core.faults.FaultPolicy` opting the campaign
        into the fault-tolerance layer (per-scenario timeouts, worker-crash
        retry and quarantine).  Requires a SUT factory -- a watchdog that
        cannot rebuild its worker context cannot recover anything -- so
        even a serial run then injects on disposable contexts built from
        it.  None (the default) leaves every execution path untouched.
    """

    def __init__(
        self,
        sut: SystemUnderTest | Callable[[], SystemUnderTest],
        plugin: ErrorGeneratorPlugin,
        seed: int = 0,
        observer: Callable[[InjectionRecord], None] | None = None,
        *,
        sut_factory: Callable[[], SystemUnderTest] | None = None,
        jobs: int = 1,
        executor: str | None = None,
        block_size: int | None = None,
        policy: FaultPolicy | None = None,
        incremental: bool = True,
    ):
        if sut_factory is not None:
            self.sut = sut if isinstance(sut, SystemUnderTest) else sut_factory()
        else:
            sut, sut_factory = split_sut(sut)
            self.sut = sut
        #: Zero-argument factory producing fresh SUT instances for workers
        #: (None when only a shared instance was supplied).
        self.sut_factory = sut_factory
        self.plugin = plugin
        self.seed = seed
        #: Optional callback invoked after every injection (progress reporting).
        self.observer = observer
        self.jobs = jobs
        self.executor = executor
        self.block_size = block_size
        self.policy = policy
        #: Whether scenarios may take the delta-validation fast path
        #: (``--no-incremental`` turns this off; outcomes are identical).
        self.incremental = incremental

    # ---------------------------------------------------------------- parsing
    def parse_initial_configuration(self) -> ConfigSet:
        """Parse the SUT's default configuration files into a ConfigSet."""
        config_set = ConfigSet()
        for filename, text in self.sut.default_configuration().items():
            dialect = get_dialect(self.sut.dialect_for(filename))
            config_set.add(dialect.parse(text, filename=filename))
        return config_set

    # -------------------------------------------------------------- scenarios
    def generate_scenarios(
        self, config_set: ConfigSet | None = None
    ) -> tuple[ConfigSet, ConfigSet, list[FaultScenario]]:
        """Return (system config set, plugin view set, scenarios)."""
        rng = random.Random(self.seed)
        config_set = config_set or self.parse_initial_configuration()
        view_set = self.plugin.view.transform(config_set)
        scenarios = self.plugin.generate(view_set, rng)
        return config_set, view_set, scenarios

    def baseline_files(self, config_set: ConfigSet, view_set: ConfigSet) -> dict[str, str] | None:
        """Serialise the *pristine* configuration through the view round-trip.

        The result is what :meth:`materialize` produces for trees a scenario
        does not touch, so it is computed once per campaign and reused.  None
        when the pristine round-trip itself cannot be serialised (degenerate
        harness setups); callers then fall back to full per-scenario
        untransforms.
        """
        try:
            system_set = self.plugin.view.untransform(view_set, config_set)
            return {tree.name: serialize_tree(tree) for tree in system_set}
        except ConfErrError:
            return None

    # ------------------------------------------------------------ incremental
    def prepare_incremental(
        self, config_set: ConfigSet, view_set: ConfigSet
    ) -> BaselineValidation | None:
        """Prepare the delta-validation baseline, or None when unsound.

        The delta path validates baseline *trees* patched in place of the
        full serialise-and-reparse round trip, so it is only enabled when

        * the engine and the SUT opt in (``incremental`` and a
          ``start_delta`` override),
        * the pristine full validation started with a reusable index, and
        * the view's reverse mapping reproduces the parsed pristine trees
          *exactly* (a view that normalises formatting would make patched
          baseline trees diverge from what the SUT would really see).
        """
        if not self.incremental or not self.sut.supports_delta():
            return None
        try:
            system_set = self.plugin.view.untransform(view_set, config_set)
        except ConfErrError:
            return None
        prepared = self.sut.prepare(self.sut.default_configuration())
        if prepared is None or not prepared.result.started or prepared.state is None:
            return None
        if prepared.trees.names() != system_set.names():
            return None
        for name in system_set.names():
            if not prepared.trees.get(name).structurally_equal(system_set.get(name)):
                return None
        return prepared

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
            vetted = _children_vetted(change, base_node, baseline_tree.name, dialect)
            return change if vetted else None
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
            INCREMENTAL_STATS.substitutions += 1
            return NodeChange(
                tree=change.tree,
                path=change.path,
                kind=change.kind,
                name=reparsed_node.name,
                value=reparsed_node.value,
                attrs=dict(reparsed_node.attrs),
            )
        return None

    def _attempt_delta(
        self,
        scenario: FaultScenario,
        view_set: ConfigSet,
        prepared: BaselineValidation,
    ):
        """Try to classify ``scenario``'s start via the delta path.

        Returns the :class:`~repro.sut.base.StartResult` a full start on the
        mutated files would have produced, or None to run the full path.
        Any exception is treated as a fallback: the full pass re-raises (and
        classifies) whatever actually fails.
        """
        INCREMENTAL_STATS.attempts += 1
        try:
            with scenario.applied_to(view_set) as mutated:
                changes = self.plugin.view.scenario_changes(scenario, mutated, prepared.trees)
                if changes is None:
                    INCREMENTAL_STATS.fallbacks += 1
                    return None
                fields: list[NodeChange] = []
                layouts: list[ChildrenChange] = []
                for change in changes:
                    checked = self._vet_change(change, prepared.trees)
                    if checked is None:
                        INCREMENTAL_STATS.guard_fallbacks += 1
                        return None
                    (layouts if isinstance(checked, ChildrenChange) else fields).append(checked)
                delta = ScenarioDelta(tuple(fields), tuple(layouts))
                result = self.sut.start_delta(prepared, delta)
        except Exception:
            INCREMENTAL_STATS.errors += 1
            self._safe_stop()
            return None
        if result is None:
            INCREMENTAL_STATS.fallbacks += 1
            return None
        INCREMENTAL_STATS.delta_starts += 1
        return result

    # -------------------------------------------------------------- injection
    def run(
        self,
        scenarios: Sequence[FaultScenario] | None = None,
        *,
        config_set: ConfigSet | None = None,
        view_set: ConfigSet | None = None,
    ) -> ResilienceProfile:
        """Run the full campaign and return the resilience profile.

        Records are merged in scenario order whatever the executor strategy
        and worker count, so profiles are seed-stable across ``jobs``
        settings: same records, order and outcomes (hence byte-identical
        summaries); only per-record wall-clock durations vary.

        Every strategy, serial included, is one stream: each record is
        yielded as its experiment completes, and an in-order buffer releases
        records to the profile and the observer as soon as the front of the
        scenario sequence is contiguous.  Observers (progress lines,
        result-store appends) therefore fire while workers are still
        injecting; the buffer only ever holds records that completed ahead
        of a still-running earlier scenario (typically around ``jobs x
        block_size`` entries).

        When ``scenarios`` is given (a pre-generated, possibly filtered list
        -- the resume path of campaign suites), generation is skipped
        entirely and exactly those scenarios run.  ``config_set``/``view_set``
        let a caller that already ran :meth:`generate_scenarios` reuse its
        parse and view transform instead of paying for them twice; a serial
        run injects into exactly these sets, on this engine's own SUT.
        """
        if scenarios is None:
            config_set, view_set, scenario_list = self.generate_scenarios(config_set)
            scenario_list = list(scenario_list)
        else:
            if config_set is None:
                config_set = self.parse_initial_configuration()
            if view_set is None:
                view_set = self.plugin.view.transform(config_set)
            scenario_list = list(scenarios)

        from repro.core.executor import WorkerContext, resolve_executor

        strategy = resolve_executor(self.executor, self.jobs, self.block_size)
        profile = ResilienceProfile(self.sut.name)
        if not scenario_list:
            return profile
        # workers stream (index, record) pairs in completion order; release
        # them in scenario order as the front completes so observers fire
        # live (store appends stay durable mid-run)
        buffer: dict[int, InjectionRecord] = {}
        next_index = 0
        for index, record in strategy.stream(
            self.worker_spec(),
            scenario_list,
            lambda: WorkerContext(self, config_set, view_set),
        ):
            buffer[index] = record
            while next_index in buffer:
                ready = buffer.pop(next_index)
                next_index += 1
                profile.add(ready)
                if self.observer is not None:
                    self.observer(ready)
        if next_index != len(scenario_list):  # pragma: no cover - strategy bug
            raise CampaignError(
                f"executor stream ended after {next_index} of "
                f"{len(scenario_list)} scenarios (no record for index "
                f"{next_index}; {len(buffer)} later records stranded)"
            )
        return profile

    def worker_spec(self):
        """Picklable description of this engine for executor workers."""
        from repro.core.executor import WorkerSpec

        return WorkerSpec(
            sut_factory=self.sut_factory,
            plugin=self.plugin,
            policy=self.policy,
            incremental=self.incremental,
        )

    def materialize(
        self,
        scenario: FaultScenario,
        config_set: ConfigSet,
        view_set: ConfigSet,
        baseline_files: Mapping[str, str] | None = None,
    ) -> dict[str, str]:
        """Produce the faulty configuration files for ``scenario``.

        ``view_set`` is used as the working copy: it is mutated in place and
        rolled back before returning (operations without an inverse fall back
        to a copy-on-write overlay that clones only the touched trees).  When
        ``baseline_files`` is given and the view supports localisation, only
        the touched trees are reverse-transformed and serialised.

        Raises :class:`~repro.errors.SerializationError` (or
        :class:`~repro.errors.TransformError`) when the mutation cannot be
        expressed in the native format.
        """
        with scenario.applied_to(view_set) as mutated:
            partial = None
            if baseline_files is not None:
                touched = scenario.touched_trees()
                if touched is not None:
                    partial = self.plugin.view.untransform_touched(mutated, config_set, touched)
            if partial is None:
                system_set = self.plugin.view.untransform(mutated, config_set)
                return {tree.name: serialize_tree(tree) for tree in system_set}
            files = dict(baseline_files)
            for tree in partial:
                files[tree.name] = serialize_tree(tree)
            return files

    def run_scenario(
        self,
        scenario: FaultScenario,
        config_set: ConfigSet,
        view_set: ConfigSet,
        baseline_files: Mapping[str, str] | None = None,
        incremental: BaselineValidation | None = None,
    ) -> InjectionRecord:
        """Run a single injection experiment and classify its outcome.

        With a prepared ``incremental`` baseline, the engine first offers
        the scenario to the delta-validation path; scenarios it cannot
        soundly localise (multi-operation structural edits, guard refusals)
        run the classic materialise-and-start pipeline, byte-identically.
        """
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

        start_result = None
        if incremental is not None:
            start_result = self._attempt_delta(scenario, view_set, incremental)
            if start_result is incremental.result and incremental.functional is not None:
                # the SUT declared the delta a no-op (see start_delta): the
                # post-start state is the pristine state, so the recorded
                # baseline functional outcomes are the suite's outcomes
                INCREMENTAL_STATS.noop_reuses += 1
                self._safe_stop()
                failed = []
                messages = list(start_result.warnings)
                for passed, name, detail in incremental.functional:
                    if not passed:
                        failed.append(name)
                        if detail:
                            messages.append(f"{name}: {detail}")
                if failed:
                    return record(
                        InjectionOutcome.DETECTED_BY_TESTS, messages=messages, failed_tests=failed
                    )
                return record(InjectionOutcome.IGNORED, messages=messages)

        if start_result is None:
            try:
                files = self.materialize(
                    scenario, config_set, view_set, baseline_files=baseline_files
                )
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
            failed = []
            messages = list(start_result.warnings)
            for test in self.sut.functional_tests():
                result = test.run(self.sut)
                if not result.passed:
                    failed.append(result.name)
                    if result.detail:
                        messages.append(f"{result.name}: {result.detail}")
            if failed:
                return record(InjectionOutcome.DETECTED_BY_TESTS, messages=messages, failed_tests=failed)
            return record(InjectionOutcome.IGNORED, messages=messages)
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
