"""Abstract interface every system under test implements."""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.core.infoset import ConfigSet
from repro.errors import ConfErrError, ParseError
from repro.parsers.base import get_dialect
from repro.sut.incremental import BaselineValidation, ScenarioDelta, patched_trees

__all__ = ["StartResult", "TestResult", "FunctionalTest", "SystemUnderTest", "split_sut"]


@dataclass
class StartResult:
    """Outcome of trying to start the SUT with a set of configuration files.

    ``started`` is False when the system refused to come up (typically
    because it detected a configuration error); ``errors`` then carries the
    diagnostics it produced.  ``warnings`` records complaints emitted by a
    system that nevertheless started.
    """

    started: bool
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @classmethod
    def ok(cls, warnings: Sequence[str] = ()) -> "StartResult":
        """A successful start."""
        return cls(started=True, warnings=list(warnings))

    @classmethod
    def failed(cls, *errors: str) -> "StartResult":
        """A refused start with the given error messages."""
        return cls(started=False, errors=list(errors))


@dataclass
class TestResult:
    """Outcome of one functional (diagnosis) test."""

    #: Tell pytest this is not a test class despite the name.
    __test__ = False

    name: str
    passed: bool
    detail: str = ""


class FunctionalTest(ABC):
    """One diagnosis check run against a started SUT (paper Section 5.1).

    Functional tests are deliberately simple -- "akin to what an
    administrator might do to check that a system is OK".
    """

    #: Short identifier shown in resilience profiles.
    name: str = "functional-test"

    @abstractmethod
    def run(self, sut: "SystemUnderTest") -> TestResult:
        """Execute the check against ``sut`` and report pass/fail."""


class SystemUnderTest(ABC):
    """A system whose resilience to configuration errors is being measured.

    The engine drives the SUT through a fixed lifecycle for every injection:
    ``start(files)`` with the (possibly faulty) configuration files, then the
    functional tests, then ``stop()``.

    A tree-walking family sets :attr:`config_filename` and
    :attr:`parse_error` and writes its validation walk over parsed trees,
    :meth:`_start_from_trees`; it then gets :meth:`start`, which parses the
    entry file and enters the walk.  With :meth:`_observable_state`, the
    state its diagnosis suite can observe, the walk also opts the family
    into incremental revalidation: :meth:`start_delta` implements the rest
    of the delta protocol once, for every family.  A system that does not
    walk parsed trees overrides :meth:`start` instead.
    """

    #: Human-readable system name used in profiles and reports.
    name: str = "system"
    #: The entry file :meth:`start` parses before entering the walk.
    config_filename: str
    #: Start-failure wording for a missing entry file (``{filename}``) and
    #: for one that does not parse (``{error}``).
    missing_file_error: str = "configuration file {filename} is missing"
    parse_error: str
    #: The baseline :meth:`prepare` built last, returned again for equal files.
    _baseline: BaselineValidation | None = None

    @abstractmethod
    def default_configuration(self) -> dict[str, str]:
        """Initial configuration files: mapping of file name to file text."""

    @abstractmethod
    def dialect_for(self, filename: str) -> str:
        """Name of the configuration dialect used to parse ``filename``."""

    def start(self, files: Mapping[str, str]) -> StartResult:
        """(Re)start the system with the given configuration files.

        Stops the system, parses the entry file :attr:`config_filename` and
        enters :meth:`_start_from_trees` with it; the walk resolves any
        other file it needs from ``files``.
        """
        self.stop()
        text = files.get(self.config_filename)
        if text is None:
            return StartResult.failed(self.missing_file_error.format(filename=self.config_filename))
        dialect = get_dialect(self.dialect_for(self.config_filename))
        try:
            tree = dialect.parse(text, filename=self.config_filename)
        except ParseError as exc:
            return StartResult.failed(self.parse_error.format(error=exc))
        return self._start_from_trees(ConfigSet([tree]), files)

    @abstractmethod
    def stop(self) -> None:
        """Stop the system and release its resources."""

    @abstractmethod
    def functional_tests(self) -> list[FunctionalTest]:
        """The diagnosis suite run after a successful start."""

    def is_running(self) -> bool:
        """Whether the system is currently started (optional override)."""
        return False

    # ------------------------------------------------- incremental revalidation
    def supports_delta(self) -> bool:
        """Whether this SUT overrides :meth:`_start_from_trees`."""
        return type(self)._start_from_trees is not SystemUnderTest._start_from_trees

    def prepare(self, files: Mapping[str, str]) -> BaselineValidation | None:
        """Parse and fully validate the pristine ``files`` once, for reuse.

        Each file is parsed once, and the family's walk
        (:meth:`_start_from_trees`) validates those trees, exactly as a full
        ``start()`` would.  Returns a
        :class:`~repro.sut.incremental.BaselineValidation` holding the parsed
        trees, the walk's result and, when the pristine system started, a
        copy of its :meth:`_observable_state` plus the reusable index from
        :meth:`_baseline_state`.  The instance keeps the baseline it built
        last and returns it again while ``files`` stay equal, so every suite
        cell -- every engine -- sharing this instance reuses one prepared
        baseline, and it is freed with the instance.

        The system is stopped before this returns; ``start_delta`` restores
        the running state itself.  Returns None when a file fails to parse
        (the full path classifies such sets per scenario).  ``files`` is a
        default configuration, so it holds every file the walk starts from.
        """
        files = dict(files)
        if self._baseline is not None and self._baseline.files == files:
            return self._baseline
        trees = []
        try:
            for filename, text in files.items():
                dialect = get_dialect(self.dialect_for(filename))
                trees.append(dialect.parse(text, filename=filename))
        except ConfErrError:
            return None
        tree_set = ConfigSet(trees)
        self.stop()
        result = self._start_from_trees(tree_set, files)
        state = observable = None
        functional: tuple[tuple[bool, str, str], ...] | None = None
        try:
            if result.started:
                state = self._baseline_state(tree_set)
                # a copy: the live state is compared against it per delta
                observable = copy.deepcopy(self._observable_state())
                try:
                    functional = tuple(
                        (outcome.passed, outcome.name, outcome.detail)
                        for outcome in (test.run(self) for test in self.functional_tests())
                    )
                except Exception:
                    # a diagnosis suite that cannot run on the pristine system
                    # simply never gets its outcomes reused
                    functional = None
        finally:
            self.stop()
        self._baseline = BaselineValidation(
            files=files,
            trees=tree_set,
            result=result,
            state=state,
            observable=observable,
            functional=functional,
        )
        return self._baseline

    def _start_from_trees(self, trees: Any, files: Mapping[str, str]) -> StartResult:
        """Validate and bring up the system from already parsed ``trees``.

        The family's validation walk, and the single source of truth for
        its configuration semantics: :meth:`start` enters it with the parsed
        entry file :attr:`config_filename`, :meth:`prepare` with every
        pristine file and :meth:`start_delta` with the patched baseline
        :class:`~repro.core.infoset.ConfigSet`, so all paths run literally
        the same code.  ``files`` resolves any file a walk needs that
        ``trees`` lacks (an include or zone file the full start has not
        parsed yet).  Writing it is what gives a family :meth:`start` and
        enables the delta path.
        """
        raise NotImplementedError(f"{type(self).__name__} has no tree walk")

    def _observable_state(self) -> Any:
        """What the diagnosis suite can observe of the started system.

        Called only while the system is started, after the pristine start
        (:meth:`prepare` keeps a copy) and after each delta walk; equal
        values make a delta a no-op (see :meth:`start_delta`).  Live
        attributes may be returned as they are: :meth:`prepare` copies the
        pristine value, so the per-delta call need not.  The default, a
        fresh ``object()``, equals nothing, so a SUT that does not say what
        it exposes never has a delta declared a no-op.
        """
        return object()

    def _baseline_state(self, trees: Any) -> Any:
        """Reusable validation index built while the pristine system runs.

        Called by :meth:`prepare` with the parsed pristine trees after the
        pristine walk started the system, and before the stop.  Two
        families build one: :class:`~repro.sut.database.SimulatedDatabase`
        a positional index its :meth:`start_delta` splices field edits into,
        and :class:`~repro.sut.apache.server.SimulatedApache` the directive
        effects and top-level summaries its scoped delta walk reuses.  The
        default is None.
        """
        return None

    def start_delta(
        self, baseline: BaselineValidation, delta: ScenarioDelta
    ) -> "StartResult | None":
        """Revalidate ``delta`` from the patched baseline trees.

        The delta protocol every family shares: patch the baseline trees
        (copying only the spine above each change), stop the system and
        re-run :meth:`_start_from_trees` on them.  The system ends in
        exactly the state a full ``start()`` on the mutated files would
        leave -- the functional tests interrogate the live system
        afterwards -- and only the untransform/serialise/parse round trip is
        skipped.  Returns None, routing the scenario through the
        byte-identical full pass, when a change does not resolve in the
        baseline trees.

        Returning ``baseline.result`` *itself* (object identity) declares
        the delta *functionally equivalent* to the pristine start: the walk
        started with the baseline's warnings and :meth:`_observable_state`
        equals the pristine copy, so the diagnosis suite would reproduce the
        baseline's recorded outcomes.  The engine then reuses those outcomes
        instead of re-running the suite.  An override must keep this
        contract and still leave the system fully started.
        """
        patched = patched_trees(baseline.trees, delta)
        if patched is None:
            return None
        self.stop()
        return self._delta_outcome(baseline, self._start_from_trees(patched, baseline.files))

    def _delta_outcome(self, baseline: BaselineValidation, result: StartResult) -> StartResult:
        """``baseline.result`` itself when the delta start ``result`` is a
        no-op (see :meth:`start_delta`), else ``result``."""
        if (
            result.started
            and result.warnings == baseline.result.warnings
            and self._observable_state() == baseline.observable
        ):
            return baseline.result
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


def split_sut(
    sut: "SystemUnderTest | Callable[[], SystemUnderTest]",
) -> tuple["SystemUnderTest", "Callable[[], SystemUnderTest] | None"]:
    """Normalise a SUT-or-factory into ``(instance, factory-or-None)``.

    Experiment drivers accept either a live SUT or a zero-argument factory
    (the class itself, a ``functools.partial``, ...).  The factory variant is
    what enables parallel execution -- each worker builds a private instance
    -- so it is preserved alongside the instantiated SUT.
    """
    if isinstance(sut, SystemUnderTest):
        return sut, None
    if callable(sut):
        return sut(), sut
    raise TypeError(f"expected a SystemUnderTest or factory, got {type(sut).__name__}")
