"""Campaign suites: whole evaluations as one durable, resumable run.

The paper's evaluation is inherently a *suite*: every table crosses several
systems with several error classes.  A :class:`CampaignSuite` is the one
campaign driver: it fans M systems x N plugins into (system, plugin) cells,
derives a stable seed for every cell from one suite seed, generates each
cell's scenarios, streams them through one executor strategy and -- when
given a :class:`~repro.core.store.ResultStore` -- appends every record to
disk as it lands so an interrupted suite can be resumed.  Appends are live
under every executor strategy: the suite's streaming merge releases records
in scenario order while workers are still injecting, so a ``--jobs 4`` run
killed mid-campaign still leaves everything but the in-flight tail on disk.

Resumption is scenario-exact: the suite regenerates each cell's scenarios
from the derived seed (generation is deterministic), skips the scenario ids
already on disk, and runs only the remainder.  A second run of a completed
suite therefore replays zero scenarios, and rendering the paper's tables
from the store is byte-identical to rendering them from the live run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.core.engine import InjectionEngine
from repro.core.executor import CampaignExecutor, WorkerSpec, resolve_executor
from repro.core.faults import FaultPolicy
from repro.core.profile import InjectionRecord, ResilienceProfile
from repro.core.report import merged, resilience_matrix_table, typo_resilience_table
from repro.core.spec import ExperimentSpec, derive_seed
from repro.core.store import ResultStore
from repro.core.templates.base import FaultScenario
from repro.errors import CampaignError, CancelledRun, StoreError
from repro.plugins.base import ErrorGeneratorPlugin
from repro.sut.base import SystemUnderTest, split_sut

__all__ = ["CampaignSuite", "SuiteResult", "derive_seed"]


@dataclass
class SuiteResult:
    """Profiles and bookkeeping of one suite invocation.

    ``profiles`` holds the *complete* per-(system, plugin) profiles -- on a
    resumed run that includes the records reloaded from the store, not just
    the ones this invocation executed.  ``executed``/``skipped`` count, per
    system and plugin, the scenarios run now vs. skipped as already stored.
    """

    system_names: dict[str, str]
    profiles: dict[str, dict[str, ResilienceProfile]] = field(default_factory=dict)
    executed: dict[str, dict[str, int]] = field(default_factory=dict)
    skipped: dict[str, dict[str, int]] = field(default_factory=dict)

    def overall(self, system: str) -> ResilienceProfile:
        """All plugins' records for one system merged into one profile."""
        name = self.system_names.get(system, system)
        return merged({name: self.profiles.get(system, {})})[name]

    def total_executed(self) -> int:
        """Scenarios actually run by this invocation."""
        return sum(count for per_plugin in self.executed.values() for count in per_plugin.values())

    def total_skipped(self) -> int:
        """Scenarios skipped because their records were already stored."""
        return sum(count for per_plugin in self.skipped.values() for count in per_plugin.values())

    def table1(self) -> str:
        """Table 1 layout over the suite's merged per-system profiles."""
        return typo_resilience_table(merged(self.profiles_by_display()))

    def profiles_by_display(self) -> dict[str, dict[str, ResilienceProfile]]:
        """Per-(system, plugin) cell profiles keyed by system display name.

        The shape every artefact renderer in :mod:`repro.bench` consumes
        (:meth:`ResultStore.load_profiles
        <repro.core.store.ResultStore.load_profiles>` reads it from a
        store); keeping the display-name remapping in one place is what
        guarantees the live rendering stays byte-identical to the
        store-backed one.
        """
        return {
            self.system_names.get(key, key): dict(per_plugin)
            for key, per_plugin in self.profiles.items()
        }

    def matrix(self) -> str:
        """The systems x plugins resilience matrix of this suite.

        Byte-identical to :func:`~repro.core.report.store_matrix_table`
        over the store the same run wrote: columns are the suite's systems
        (display names, suite order), rows its plugins (campaign order).
        """
        return resilience_matrix_table(self.profiles_by_display())

    def summary(self) -> str:
        """Multi-line human-readable overview of the whole suite."""
        lines = []
        for key in self.profiles:
            profile = self.overall(key)
            lines.append(
                f"{self.system_names.get(key, key)}: "
                f"{profile.injected_count()} injected, "
                f"{profile.detected_count()} detected "
                f"({profile.detection_rate():.1%}), "
                f"{profile.ignored_count()} ignored"
            )
        lines.append(
            f"scenarios executed: {self.total_executed()}, "
            f"skipped (already stored): {self.total_skipped()}"
        )
        return "\n".join(lines)


class CampaignSuite:
    """M systems x N plugins, one seed, one optional persistent store.

    Parameters
    ----------
    systems:
        Mapping of system key (used for store file names and seed
        derivation) to a zero-argument SUT factory, or to a live instance
        for a serial run.  One instance serves all of a system's plugins.
    plugins:
        The error-generator plugins to run against every system.  Plugin
        names must be unique: they key the per-campaign records in the
        store.
    seed:
        The one suite seed; every (system, plugin) campaign runs under
        :func:`derive_seed` of it.
    layout:
        Keyboard-layout name recorded in the manifest (informational; the
        spelling plugin itself carries the layout used for generation).
    jobs / executor / block_size:
        Worker fan-out of every (system, plugin) cell: one executor strategy
        (:func:`~repro.core.executor.resolve_executor`) streams every cell's
        scenarios, and a process strategy's one pool serves the whole run;
        ``jobs > 1`` needs factories, not live instances.
    policy:
        Optional :class:`~repro.core.faults.FaultPolicy` opting every
        campaign into the fault-tolerance layer.  Scenarios it gives up on
        land in the store's ``quarantine.jsonl``, not the record stream.
    retry_quarantined:
        What a resume does with previously quarantined scenarios: False
        (default) keeps skipping them, True drops their quarantine entries
        and re-attempts them.
    spec:
        Optional :class:`~repro.core.spec.ExperimentSpec` this suite was
        built from; when present it is embedded in the store manifest so
        resume compatibility is a structured spec diff.
    record_observer:
        Optional ``(system_key, plugin_name, record)`` callback fired once
        per record, live, in scenario order -- under every executor
        strategy (the suite's streaming merge releases records as the
        front of the scenario sequence completes).  Fires after the store
        append, so a progress line never reports a record that could still
        be lost.
    cancel_check:
        Optional zero-argument callable polled before every cell and before
        every record append; returning True raises
        :class:`~repro.errors.CancelledRun`, aborting the run cooperatively.
        Everything already released to the store stays durable (the check
        runs *before* an append, never between an append and its
        observer), so a cancelled run resumes exactly like an interrupted
        one.  This is the cancellation hook behind ``DELETE /jobs/{id}``
        and graceful service shutdown.
    """

    def __init__(
        self,
        systems: Mapping[str, SystemUnderTest | Callable[[], SystemUnderTest]],
        plugins: Sequence[ErrorGeneratorPlugin],
        *,
        seed: int = 2008,
        layout: str | None = None,
        jobs: int = 1,
        executor: str | None = None,
        block_size: int | None = None,
        policy: FaultPolicy | None = None,
        incremental: bool = True,
        retry_quarantined: bool = False,
        check_baseline: bool = True,
        spec: ExperimentSpec | None = None,
        record_observer: Callable[[str, str, InjectionRecord], None] | None = None,
        cancel_check: Callable[[], bool] | None = None,
    ):
        if not systems:
            raise CampaignError("a suite needs at least one system")
        if not plugins:
            raise CampaignError("a suite needs at least one plugin")
        names = [plugin.name for plugin in plugins]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise CampaignError(
                f"plugin names must be unique within a suite, got duplicates: {sorted(duplicates)}"
            )
        self.systems = dict(systems)
        self.plugins = list(plugins)
        self.seed = seed
        self.layout = layout
        self.jobs = jobs
        self.executor = executor
        self.block_size = block_size
        self.policy = policy
        self.incremental = incremental
        self.retry_quarantined = retry_quarantined
        self.check_baseline = check_baseline
        self.spec = spec
        self.record_observer = record_observer
        self.cancel_check = cancel_check

    @classmethod
    def from_spec(
        cls,
        spec: ExperimentSpec,
        record_observer: Callable[[str, str, InjectionRecord], None] | None = None,
        cancel_check: Callable[[], bool] | None = None,
    ) -> "CampaignSuite":
        """Build the suite a declarative :class:`ExperimentSpec` describes.

        The spec is validated first, so a suite built here is guaranteed to
        reference registered systems and plugins with well-formed params.
        """
        spec.validate()
        return cls(
            spec.build_systems(),
            spec.build_plugins(),
            seed=spec.execution.seed,
            layout=spec.execution.layout,
            jobs=spec.execution.jobs,
            executor=spec.execution.executor,
            block_size=spec.execution.block_size,
            policy=FaultPolicy.from_execution(spec.execution),
            incremental=spec.execution.incremental,
            retry_quarantined=spec.store.retry_quarantined if spec.store else False,
            spec=spec,
            record_observer=record_observer,
            cancel_check=cancel_check,
        )

    # ----------------------------------------------------------------- manifest
    def system_names(self) -> dict[str, str]:
        """Display name of every system, by key (instantiates each factory once).

        Duplicate display names are refused: the rendered tables are keyed
        by display name, so two systems sharing one would silently collapse
        into a single column.
        """
        return _display_names(
            {key: split_sut(factory)[0] for key, factory in self.systems.items()}
        )

    def manifest(self, system_names: dict[str, str] | None = None) -> dict[str, Any]:
        """The run manifest persisted alongside the records.

        ``system_names`` spares a caller that already holds the SUT
        instances a second round of factory calls.
        """
        manifest: dict[str, Any] = {
            "kind": "suite",
            "seed": self.seed,
            "systems": self.system_names() if system_names is None else system_names,
            "plugins": [
                {"name": plugin.name, "params": plugin.manifest_params()}
                for plugin in self.plugins
            ],
            "layout": self.layout,
            "executor": self._executor_manifest(),
        }
        if self.spec is not None:
            manifest["spec"] = self.spec.to_dict()
        return manifest

    def _executor_manifest(self) -> dict[str, Any]:
        """Worker settings recorded in the manifest (informational only:
        profiles are executor-invariant, so resume never compares them)."""
        executor: dict[str, Any] = {"jobs": self.jobs, "executor": self.executor}
        if self.block_size is not None:
            executor["block_size"] = self.block_size
        return executor

    def campaign_seed(self, system: str, plugin_name: str) -> int:
        """Seed of one (system, plugin) campaign."""
        return derive_seed(self.seed, system, plugin_name)

    # ---------------------------------------------------------------------- run
    def run(self, store: ResultStore | None = None, resume: bool = False) -> SuiteResult:
        """Run (or resume) every campaign of the suite.

        With a ``store``, every record is appended to disk as it lands and
        the manifest is written up front.  With ``resume=True`` the store's
        manifest is checked for compatibility and scenario ids already on
        disk are skipped; without it, an existing store is refused rather
        than silently mixed into.
        """
        if resume and store is None:
            raise CampaignError("resuming needs a result store")
        strategy = resolve_executor(self.executor, self.jobs, self.block_size)
        # one SUT instance per system serves its display name and every
        # plugin's campaign
        split = {key: split_sut(factory) for key, factory in self.systems.items()}
        manifest = self.manifest(_display_names({key: pair[0] for key, pair in split.items()}))
        if store is not None:
            if store.exists():
                if not resume:
                    raise StoreError(
                        f"result store {store.root} already exists; "
                        "resume it or point at a fresh directory",
                        "store/exists",
                    )
                store.check_compatible(manifest)
            else:
                store.write_manifest(manifest)

        result = SuiteResult(system_names=dict(manifest["systems"]))
        # one strategy context around every cell: the process strategy forks
        # its workers once per run and shuts them down however the run ends
        with strategy:
            self._run_cells(strategy, split, store, resume, result)
        return result

    def _run_cells(
        self,
        strategy: CampaignExecutor,
        split: dict[str, tuple[SystemUnderTest, Callable[[], SystemUnderTest] | None]],
        store: ResultStore | None,
        resume: bool,
        result: SuiteResult,
    ) -> None:
        """Run every (system, plugin) cell, filling ``result`` as each ends."""
        for system_key in self.systems:
            self._check_cancelled()
            sut, sut_factory = split.pop(system_key)  # released once its cells ran
            prior: dict[str, list[InjectionRecord]] = {}
            completed: set[tuple[str, str]] = set()
            if store is not None and resume:
                for campaign_name, record in store.iter_records(system_key):
                    prior.setdefault(campaign_name, []).append(record)
                    completed.add((campaign_name, record.scenario_id))
                if self.retry_quarantined:
                    # drop the quarantine entries so the filter below lets
                    # the scenarios run again (and re-quarantine on failure)
                    store.clear_quarantine(system_key)
                else:
                    # quarantined scenarios count as handled: re-running a
                    # scenario that hung or killed its worker every resume
                    # would make the store unfinishable
                    completed |= store.quarantined_ids(system_key)

            display = result.system_names[system_key]
            profiles = result.profiles[system_key] = {}
            executed = result.executed[system_key] = {}
            skipped = result.skipped[system_key] = {}
            for index, plugin in enumerate(self.plugins):
                engine = InjectionEngine(sut, plugin, incremental=self.incremental)
                if self.check_baseline and index == 0:
                    problems = engine.baseline_check()
                    if problems:
                        raise CampaignError(
                            "the unmodified configuration is not healthy: " + "; ".join(problems)
                        )
                rng = random.Random(self.campaign_seed(system_key, plugin.name))
                scenarios = plugin.generate(engine.view_set, rng)
                kept = [s for s in scenarios if (plugin.name, s.scenario_id) not in completed]
                records = self._run_cell(
                    strategy,
                    WorkerSpec(sut_factory, plugin, self.policy, self.incremental),
                    kept,
                    engine,
                    self._cell_observer(system_key, plugin.name, store),
                )
                profiles[plugin.name] = ResilienceProfile(
                    display, prior.get(plugin.name, []) + records
                )
                executed[plugin.name] = len(records)
                skipped[plugin.name] = len(scenarios) - len(kept)

    @staticmethod
    def _run_cell(
        strategy: CampaignExecutor,
        spec: WorkerSpec,
        scenarios: list[FaultScenario],
        engine: InjectionEngine,
        observe: Callable[[InjectionRecord], None] | None,
    ) -> list[InjectionRecord]:
        """Stream one cell's scenarios through ``strategy``, in scenario order.

        Records are merged in scenario order whatever the strategy and
        worker count, so profiles are seed-stable across ``jobs`` settings:
        same records, order and outcomes; only per-record wall-clock
        durations vary.  Workers yield ``(index, record)`` pairs in
        completion order; an in-order buffer releases each record to
        ``observe`` as soon as the front of the scenario sequence is
        contiguous, so store appends and progress lines fire while workers
        are still injecting.  The buffer only ever holds records that
        completed ahead of a still-running earlier scenario (typically
        around ``jobs x block_size`` entries).
        """
        records: list[InjectionRecord] = []
        buffer: dict[int, InjectionRecord] = {}
        for index, record in strategy.stream(spec, scenarios, engine):
            buffer[index] = record
            while len(records) in buffer:
                ready = buffer.pop(len(records))
                records.append(ready)
                if observe is not None:
                    observe(ready)
        if len(records) != len(scenarios):  # pragma: no cover - strategy bug
            raise CampaignError(
                f"executor stream ended after {len(records)} of "
                f"{len(scenarios)} scenarios (no record for index "
                f"{len(records)}; {len(buffer)} later records stranded)"
            )
        return records

    def _check_cancelled(self) -> None:
        if self.cancel_check is not None and self.cancel_check():
            raise CancelledRun(
                "suite run cancelled; records released so far are durable "
                "and the store can be resumed"
            )

    def _cell_observer(
        self, system_key: str, plugin_name: str, store: ResultStore | None
    ) -> Callable[[InjectionRecord], None] | None:
        """Per-record callback for one (system, plugin) cell: persist, then report.

        The store append runs first so that by the time a progress observer
        announces a record it is already durable on disk.  The cancellation
        check runs before the append: a record is either fully released
        (stored *and* reported) or not released at all.
        """
        if store is None and self.record_observer is None and self.cancel_check is None:
            return None

        def observe(record: InjectionRecord) -> None:
            self._check_cancelled()
            if store is not None:
                store.append(system_key, plugin_name, record)
            if self.record_observer is not None:
                self.record_observer(system_key, plugin_name, record)

        return observe


def _display_names(suts: Mapping[str, SystemUnderTest]) -> dict[str, str]:
    """``{key: display name}``, refusing two systems that share a display name."""
    names = {key: sut.name for key, sut in suts.items()}
    seen: dict[str, str] = {}
    for key, name in names.items():
        if name in seen:
            raise CampaignError(
                f"systems {seen[name]!r} and {key!r} share the display name {name!r}; "
                "rendered tables would merge them -- give one a distinguishable SUT name"
            )
        seen[name] = key
    return names
