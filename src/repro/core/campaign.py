"""Campaigns: declarative descriptions of injection experiments.

A campaign bundles a system under test with one or more error-generator
plugins and a seed; running it produces one resilience profile per plugin
plus a merged overall profile.  Campaigns make the benchmark reproducible:
the same campaign with the same seed always injects the same faults, and
profiles are identical -- same records, same order, same outcomes, so
byte-identical summaries -- whatever the worker count (``jobs``) or executor
strategy used to run them (only per-record wall-clock durations differ).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.engine import InjectionEngine
from repro.core.faults import FaultPolicy
from repro.core.profile import InjectionRecord, ResilienceProfile
from repro.errors import CampaignError
from repro.plugins.base import ErrorGeneratorPlugin
from repro.sut.base import SystemUnderTest, split_sut

__all__ = ["Campaign", "CampaignResult"]


@dataclass
class CampaignResult:
    """Profiles produced by one campaign run.

    ``executed`` and ``skipped`` count, per plugin, the scenarios that were
    run by this invocation and the ones a ``scenario_filter`` excluded (the
    resume path of campaign suites reports "replayed 0 scenarios" from
    these).
    """

    system_name: str
    per_plugin: dict[str, ResilienceProfile]
    executed: dict[str, int] = field(default_factory=dict)
    skipped: dict[str, int] = field(default_factory=dict)
    _overall_cache: ResilienceProfile | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def overall(self) -> ResilienceProfile:
        """All records of all plugins merged into one profile.

        The merge is memoized and the *same* profile object is returned on
        every access: treat it as read-only.  To change the result, go
        through :meth:`add_profile` (or call :meth:`invalidate` after
        mutating ``per_plugin`` directly); mutating the returned profile or
        the per-plugin profiles in place corrupts the cache.
        """
        if self._overall_cache is None:
            merged = ResilienceProfile(self.system_name)
            for profile in self.per_plugin.values():
                merged.extend(profile.records)
            self._overall_cache = merged
        return self._overall_cache

    def add_profile(self, plugin_name: str, profile: ResilienceProfile) -> ResilienceProfile:
        """Add (or replace) one plugin's profile and invalidate the merge cache."""
        self.per_plugin[plugin_name] = profile
        self.invalidate()
        return profile

    def invalidate(self) -> None:
        """Drop the memoized overall profile (recomputed on next access)."""
        self._overall_cache = None

    def profile(self, plugin_name: str) -> ResilienceProfile:
        """Profile of one plugin (KeyError if the plugin was not part of the campaign)."""
        return self.per_plugin[plugin_name]


@dataclass
class Campaign:
    """One benchmark: a SUT, the plugins to run against it, and a seed.

    ``sut`` may be a live instance or a zero-argument factory (the SUT class
    itself works); a factory is required when ``jobs > 1`` so that every
    worker can build a private instance.

    ``observer`` fires once per record in scenario order, live under every
    executor strategy: serially after each injection, and in parallel runs
    as soon as the in-order front of the scenario sequence completes (the
    engine's streaming merge).  ``block_size`` tunes how many scenarios a
    parallel worker pulls from the shared work queue at a time.

    Three hooks exist for suite-level orchestration (see
    :mod:`repro.core.suite`):

    ``seed_for``
        Overrides the default per-plugin seed (``seed + plugin_index``), e.g.
        to derive stable per-(system, plugin) seeds from one suite seed.
    ``scenario_filter``
        Predicate ``(plugin_name, scenario) -> bool``; scenarios it rejects
        are skipped without running (the resume path skips scenario ids
        already in the result store).  Skip counts land in
        :attr:`CampaignResult.skipped`.
    ``plugin_observer``
        Like ``observer`` but receives ``(plugin_name, record)`` -- enough
        context to append each record to a persistent store as it lands.
    """

    sut: SystemUnderTest | Callable[[], SystemUnderTest]
    plugins: Sequence[ErrorGeneratorPlugin]
    seed: int = 0
    check_baseline: bool = True
    observer: Callable[[InjectionRecord], None] | None = field(default=None, repr=False)
    jobs: int = 1
    executor: str | None = None
    block_size: int | None = None
    #: Opt-in fault tolerance (timeouts, crash retry, quarantine); None off.
    policy: FaultPolicy | None = None
    #: Whether scenarios may take the delta-validation fast path.
    incremental: bool = True
    seed_for: Callable[[ErrorGeneratorPlugin, int], int] | None = field(default=None, repr=False)
    scenario_filter: Callable[[str, object], bool] | None = field(default=None, repr=False)
    plugin_observer: Callable[[str, InjectionRecord], None] | None = field(
        default=None, repr=False
    )

    def run(self) -> CampaignResult:
        """Run every plugin and collect the profiles.

        Raises :class:`~repro.errors.CampaignError` when no plugins are given
        or when the baseline (unmodified) configuration is itself unhealthy.
        """
        if not self.plugins:
            raise CampaignError("a campaign needs at least one plugin")
        sut, sut_factory = split_sut(self.sut)
        result = CampaignResult(sut.name, {})
        for index, plugin in enumerate(self.plugins):
            seed = (
                self.seed + index if self.seed_for is None else self.seed_for(plugin, index)
            )
            engine = InjectionEngine(
                sut,
                plugin,
                seed=seed,
                observer=self._observer_for(plugin.name),
                sut_factory=sut_factory,
                jobs=self.jobs,
                executor=self.executor,
                block_size=self.block_size,
                policy=self.policy,
                incremental=self.incremental,
            )
            if self.check_baseline and index == 0:
                problems = engine.baseline_check()
                if problems:
                    raise CampaignError(
                        "the unmodified configuration is not healthy: " + "; ".join(problems)
                    )
            skipped = 0
            if self.scenario_filter is None:
                profile = engine.run()
            else:
                config_set, view_set, scenarios = engine.generate_scenarios()
                kept = [s for s in scenarios if self.scenario_filter(plugin.name, s)]
                skipped = len(scenarios) - len(kept)
                profile = engine.run(kept, config_set=config_set, view_set=view_set)
            result.add_profile(plugin.name, profile)
            result.executed[plugin.name] = len(profile)
            result.skipped[plugin.name] = skipped
        return result

    def _observer_for(self, plugin_name: str) -> Callable[[InjectionRecord], None] | None:
        """Compose the plain and plugin-aware observers for one plugin run."""
        if self.plugin_observer is None:
            return self.observer

        def observe(record: InjectionRecord) -> None:
            self.plugin_observer(plugin_name, record)
            if self.observer is not None:
                self.observer(record)

        return observe
