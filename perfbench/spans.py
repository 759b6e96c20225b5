"""In-memory spans around calls into each layer's public functions.

The traced run installs wrappers from outside the program: every wrapped
function or method opens a span on entry and closes it on exit, so a layer's
*self time* is its spans' durations minus the part their child spans cover.
Spans are kept in memory and written out once, when the run ends.

Layers are named after the modules whose public functions are wrapped:

====================  =======================================================
span                  wrapped calls
====================  =======================================================
plugins.generate      ``ErrorGeneratorPlugin.generate`` (incl. the keyboard
                      typo model the spelling plugin drives)
views.transform       ``View.transform``
views.untransform     ``View.untransform`` / ``View.untransform_touched``
engine.scenario       ``InjectionEngine.run_scenario``
engine.materialize    ``InjectionEngine.materialize``
engine.cell_setup     ``InjectionEngine.baseline_check`` / ``baseline_files`` /
                      ``prepare_incremental``
parsers.parse         ``ConfigDialect.parse``
parsers.serialize     ``ConfigDialect.serialize``
sut.start             ``SystemUnderTest.start`` (every override)
sut.start_delta       ``SystemUnderTest.start_delta`` (every override)
sut.prepare           ``SystemUnderTest.prepare``
sut.functional        ``FunctionalTest.run`` (every override)
store.append          ``ResultStore.append``
store.iter_records    each ``next()`` on ``ResultStore.iter_records``
executor.stream_wait  each ``next()`` on ``ProcessPoolCampaignExecutor.stream``
report.table1         ``store_typo_table``
report.matrix         ``store_matrix_table``
report.report         ``render_store_report``
====================  =======================================================

``View.scenario_changes`` and the process pool constructor are wrapped for
counts only.  A call made while a span of the same name is already open (an
override delegating to ``super()``) joins the open span instead of opening a
nested one, so call counts are outermost calls.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Iterator


class Tracer:
    """Span stack plus per-name aggregates for one process."""

    def __init__(self) -> None:
        #: Closed spans as ``(name, start, end, parent)``; ``parent`` is the
        #: index of the enclosing span in this list, or -1 at top level.
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.self_s: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        #: Counts made at span boundaries (scenarios generated, bytes parsed...).
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # [name, start, child_seconds, index]

    def enter(self, name: str) -> list | None:
        """Open a span; None when it joins an open span of the same name."""
        stack = self._stack
        if stack and stack[-1][0] == name:
            return None
        index = len(self.spans)
        self.spans.append(None)
        frame = [name, 0.0, 0.0, index]
        stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def exit(self, frame: list | None) -> None:
        if frame is None:
            return
        end = perf_counter()
        stack = self._stack
        stack.pop()
        name, start, child_seconds, index = frame
        duration = end - start
        self.spans[index] = (name, start, end, stack[-1][3] if stack else -1)
        self.self_s[name] += duration - child_seconds
        self.calls[name] += 1
        if stack:
            stack[-1][2] += duration

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Context manager form, for spans opened by the benchmark's own code."""
        frame = self.enter(name)
        try:
            yield
        finally:
            self.exit(frame)

    # ---------------------------------------------------------------- accounting
    def reset_aggregates(self) -> None:
        """Zero the per-name aggregates (spans already recorded are kept)."""
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()

    def uncovered(self, start: float, end: float) -> float:
        """Time in ``[start, end]`` that no top-level span covers.

        Worked out from the recorded span intervals, independently of the
        self-time aggregates, so the two can be checked against each other.
        """
        covered = 0.0
        for span in self.spans:
            if span is not None and span[3] == -1 and span[1] >= start and span[2] <= end:
                covered += span[2] - span[1]
        return (end - start) - covered

    def dump(self, path: str, **extra: Any) -> None:
        """Write every closed span (and ``extra`` fields) as one JSON document."""
        spans = [
            {"id": i, "name": s[0], "start": s[1], "end": s[2], "parent": s[3]}
            for i, s in enumerate(self.spans)
            if s is not None
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**extra, "spans": spans}, handle)


# ------------------------------------------------------------------ wrappers
def _wrap(tracer: Tracer, name: str, fn: Callable, after: Callable | None = None) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if after is not None and frame is not None:
            after(args, kwargs, result)
        return result

    return traced


def _wrap_generator(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Span each ``next()`` on the generator ``fn`` returns (not the consumer)."""

    @functools.wraps(fn)
    def traced(*args, **kwargs) -> Iterator:
        iterator = fn(*args, **kwargs)
        try:
            while True:
                frame = tracer.enter(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.exit(frame)
                tracer.counts[name + ".items"] += 1
                yield item
        finally:
            iterator.close()

    return traced


def _wrap_counter(fn: Callable, after: Callable) -> Callable:
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(args, kwargs, result)
        return result

    return counted


def _subclasses(cls: type) -> list[type]:
    found, pending = [cls], [cls]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return found


def _patch_methods(root: type, method: str, wrapper: Callable[[Callable], Callable]) -> None:
    """Wrap ``method`` on ``root`` and on every subclass that overrides it."""
    for cls in _subclasses(root):
        if method in cls.__dict__:
            setattr(cls, method, wrapper(cls.__dict__[method]))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary listed in the module docstring."""
    # importing the registries loads every concrete SUT, dialect, view and
    # plugin class, so the subclass walks below see all of them
    import repro.core.executor as executor_module
    import repro.core.report as report_module
    import repro.parsers  # noqa: F401 - registers the dialects
    import repro.plugins  # noqa: F401 - registers the plugins
    import repro.registry  # noqa: F401 - registers the systems
    from repro.core.engine import InjectionEngine
    from repro.core.store import ResultStore
    from repro.core.views.base import View
    from repro.parsers.base import ConfigDialect
    from repro.plugins.base import ErrorGeneratorPlugin
    from repro.sut.base import FunctionalTest, SystemUnderTest

    counts = tracer.counts

    def span(name: str, after: Callable | None = None) -> Callable[[Callable], Callable]:
        return lambda fn: _wrap(tracer, name, fn, after)

    def scenarios_generated(_args, _kwargs, result) -> None:
        counts["plugins.scenarios"] += len(result)

    def bytes_parsed(args, kwargs, _result) -> None:
        text = args[1] if len(args) > 1 else kwargs["text"]
        counts["parsers.parse_bytes"] += len(text.encode("utf-8", "surrogateescape"))

    def delta_outcome(args, _kwargs, result) -> None:
        if result is None:
            counts["delta.sut_declined"] += 1
            return
        counts["delta.hits"] += 1
        if result is args[1].result:
            counts["delta.noop_reuses"] += 1

    def changes_offered(_args, _kwargs, result) -> None:
        counts["delta.attempts"] += 1
        if result is None:
            counts["delta.structural_fallbacks"] += 1

    _patch_methods(ErrorGeneratorPlugin, "generate", span("plugins.generate", scenarios_generated))
    _patch_methods(View, "transform", span("views.transform"))
    _patch_methods(View, "untransform", span("views.untransform"))
    _patch_methods(View, "untransform_touched", span("views.untransform"))
    _patch_methods(View, "scenario_changes", lambda fn: _wrap_counter(fn, changes_offered))

    _patch_methods(InjectionEngine, "run_scenario", span("engine.scenario"))
    _patch_methods(InjectionEngine, "materialize", span("engine.materialize"))
    for method in ("baseline_check", "baseline_files", "prepare_incremental"):
        _patch_methods(InjectionEngine, method, span("engine.cell_setup"))

    _patch_methods(ConfigDialect, "parse", span("parsers.parse", bytes_parsed))
    _patch_methods(ConfigDialect, "serialize", span("parsers.serialize"))

    _patch_methods(SystemUnderTest, "start", span("sut.start"))
    _patch_methods(SystemUnderTest, "start_delta", span("sut.start_delta", delta_outcome))
    _patch_methods(SystemUnderTest, "prepare", span("sut.prepare"))
    _patch_methods(FunctionalTest, "run", span("sut.functional"))

    _patch_methods(ResultStore, "append", span("store.append"))
    _patch_methods(
        ResultStore, "iter_records", lambda fn: _wrap_generator(tracer, "store.iter_records", fn)
    )

    pool_class = executor_module.ProcessPoolExecutor

    class CountingPool(pool_class):
        def __init__(self, *args, **kwargs):
            counts["executor.streams"] += 1
            super().__init__(*args, **kwargs)

    executor_module.ProcessPoolExecutor = CountingPool
    stream_class = executor_module.ProcessPoolCampaignExecutor
    stream_class.stream = _wrap_generator(tracer, "executor.stream_wait", stream_class.stream)

    for function, name in (
        ("store_typo_table", "report.table1"),
        ("store_matrix_table", "report.matrix"),
        ("render_store_report", "report.report"),
    ):
        setattr(report_module, function, _wrap(tracer, name, getattr(report_module, function)))


# ------------------------------------------------------------- layer metrics
#: Per-layer metrics whose values are counts of work: they must repeat
#: exactly between runs of one input.  ``store.bytes_written`` is left out on
#: purpose -- records carry their wall-clock duration as a float, whose
#: printed length varies from run to run.
COUNT_METRICS = [
    "plugins.scenarios",
    "engine.scenarios",
    "engine.materialize_calls",
    "delta.attempts",
    "delta.structural_fallbacks",
    "delta.guard_fallbacks",
    "delta.sut_declined",
    "delta.noop_reuses",
    "delta.hits",
    "parsers.parse_calls",
    "parsers.parse_bytes",
    "parsers.serialize_calls",
    "sut.start_calls",
    "sut.start_delta_calls",
    "sut.functional_calls",
    "sut.prepare_calls",
    "executor.streams",
    "store.append_calls",
    "store.records_read",
]

#: Every per-layer metric a traced run reports, with its unit, in report order.
PER_LAYER_UNITS = {
    "spec.load_s": "s",
    "suite.build_s": "s",
    "plugins.generate_s": "s",
    "plugins.scenarios": "count",
    "views.transform_s": "s",
    "views.untransform_s": "s",
    "engine.scenario_self_s": "s",
    "engine.scenarios": "count",
    "engine.materialize_s": "s",
    "engine.materialize_calls": "count",
    "engine.cell_setup_s": "s",
    "delta.attempts": "count",
    "delta.structural_fallbacks": "count",
    "delta.guard_fallbacks": "count",
    "delta.sut_declined": "count",
    "delta.noop_reuses": "count",
    "delta.hits": "count",
    "delta.hit_ratio": "ratio",
    "parsers.parse_s": "s",
    "parsers.parse_calls": "count",
    "parsers.parse_bytes": "bytes",
    "parsers.serialize_s": "s",
    "parsers.serialize_calls": "count",
    "sut.start_s": "s",
    "sut.start_calls": "count",
    "sut.start_delta_s": "s",
    "sut.start_delta_calls": "count",
    "sut.functional_s": "s",
    "sut.functional_calls": "count",
    "sut.prepare_s": "s",
    "sut.prepare_calls": "count",
    "executor.streams": "count",
    "executor.stream_wait_s": "s",
    "executor.coordinator_busy_s": "s",
    "store.append_s": "s",
    "store.append_calls": "count",
    "store.bytes_written": "bytes",
    "store.iter_records_s": "s",
    "store.records_read": "count",
    "report.table1_s": "s",
    "report.matrix_s": "s",
    "report.report_s": "s",
    "harness_error_share": "ratio",
    "trace.wall_s": "s",
    "trace.span_self_s": "s",
    "trace.unaccounted_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(tracer: Tracer, setup: dict[str, float]) -> dict[str, float]:
    """Named per-layer metrics from the aggregates of one traced campaign.

    ``setup`` carries the set-up spans' self times, taken before the
    aggregates were reset at the start of the timed window.
    """
    self_s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    scenarios = calls["engine.scenario"]
    return {
        "spec.load_s": setup["spec.load"],
        "suite.build_s": setup["suite.build"],
        "plugins.generate_s": self_s["plugins.generate"],
        "plugins.scenarios": counts["plugins.scenarios"],
        "views.transform_s": self_s["views.transform"],
        "views.untransform_s": self_s["views.untransform"],
        "engine.scenario_self_s": self_s["engine.scenario"],
        "engine.scenarios": scenarios,
        "engine.materialize_s": self_s["engine.materialize"],
        "engine.materialize_calls": calls["engine.materialize"],
        "engine.cell_setup_s": self_s["engine.cell_setup"],
        "delta.attempts": counts["delta.attempts"],
        "delta.structural_fallbacks": counts["delta.structural_fallbacks"],
        "delta.guard_fallbacks": counts["delta.attempts"]
        - counts["delta.structural_fallbacks"]
        - calls["sut.start_delta"],
        "delta.sut_declined": counts["delta.sut_declined"],
        "delta.noop_reuses": counts["delta.noop_reuses"],
        "delta.hits": counts["delta.hits"],
        "delta.hit_ratio": counts["delta.hits"] / scenarios if scenarios else 0.0,
        "parsers.parse_s": self_s["parsers.parse"],
        "parsers.parse_calls": calls["parsers.parse"],
        "parsers.parse_bytes": counts["parsers.parse_bytes"],
        "parsers.serialize_s": self_s["parsers.serialize"],
        "parsers.serialize_calls": calls["parsers.serialize"],
        "sut.start_s": self_s["sut.start"],
        "sut.start_calls": calls["sut.start"],
        "sut.start_delta_s": self_s["sut.start_delta"],
        "sut.start_delta_calls": calls["sut.start_delta"],
        "sut.functional_s": self_s["sut.functional"],
        "sut.functional_calls": calls["sut.functional"],
        "sut.prepare_s": self_s["sut.prepare"],
        "sut.prepare_calls": calls["sut.prepare"],
        "executor.streams": counts["executor.streams"],
        "executor.stream_wait_s": self_s["executor.stream_wait"],
        "store.append_s": self_s["store.append"],
        "store.append_calls": calls["store.append"],
        "store.iter_records_s": self_s["store.iter_records"],
        "store.records_read": counts["store.iter_records.items"],
        "report.table1_s": self_s["report.table1"],
        "report.matrix_s": self_s["report.matrix"],
        "report.report_s": self_s["report.report"],
    }
