"""Command-line interface: ``conferr``.

The CLI is a thin translation layer: every campaign-running sub-command
turns its flags into a declarative
:class:`~repro.core.spec.ExperimentSpec` and hands it to the same spec
runner that ``run-spec`` uses for spec files.  No factory tables live
here -- systems come from :mod:`repro.registry` and plugins from
:mod:`repro.plugins.base`.

Sub-commands
------------
``conferr run --system mysql --plugin spelling``
    Run one injection campaign against a simulated SUT and print the profile.
``conferr suite --store results/``
    Run a whole multi-system, multi-plugin campaign suite, persisting every
    record; ``--resume`` continues an interrupted suite from the store.
``conferr run-spec experiment.toml``
    Run the experiment a TOML/JSON spec file describes.
``conferr validate experiment.toml``
    Check a spec file against the registries without running anything;
    ``--json`` emits the machine-readable report the service uses for
    HTTP 400 bodies.
``conferr serve --data-dir service/``
    Run the campaign service: an HTTP API + multi-tenant job queue over
    durable result stores (see ``docs/SERVICE.md``).
``conferr table1`` / ``table2`` / ``table3`` / ``figure3``
    Regenerate the paper's evaluation artefacts (``--store`` persists the
    records; ``--from-store`` re-renders from disk without re-running).
``conferr matrix``
    Render the M-systems x N-plugins resilience matrix -- by default every
    registered plain system (the paper's five plus nginx and sshd) crossed
    with every cross-system error family.  ``--from-store`` re-renders a
    stored suite/matrix run byte-identically to the live rendering.
``conferr report``
    Re-render a saved profile JSON file or a result-store directory.
``conferr store verify|repair|diff``
    Check a result store for corrupt records, quarantine unreadable lines
    to a sidecar and rebuild the index, or compare two stores' records
    (ignoring wall-clock durations and quarantined scenarios).
``conferr list``
    Show the available systems, plugins, dialects and keyboard layouts.

Campaign-running sub-commands accept fault-tolerance flags
(``--timeout-seconds``, ``--max-retries``, ``--retry-backoff-seconds``);
see ``docs/ROBUSTNESS.md``.  SIGINT/SIGTERM shut a run down gracefully:
store append handles are flushed and closed, and the resumable-store hint
is printed instead of a traceback (exit status 130).

``run`` and ``suite`` also accept ``--dump-spec``: print the equivalent
spec file (TOML) instead of running, so any flag invocation can be turned
into a reusable, version-controllable experiment description.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import sys
from typing import Callable, Sequence

from repro.core.spec import (
    EXECUTOR_CHOICES,
    ExecutionSpec,
    ExperimentSpec,
    PluginSpec,
    StoreSpec,
    SystemSpec,
)
from repro.core.store import ResultStore, diff_stores
from repro.core.suite import CampaignSuite, SuiteResult
from repro.errors import CampaignError, ServiceError, SpecError, StoreError
from repro.parsers.base import available_dialects
from repro.plugins.base import available_plugins
from repro.registry import available_systems

__all__ = ["main", "build_parser"]

#: Default system line-up of ``conferr suite``: the five systems the paper
#: studies, in the canonical table-column order (the registry also names
#: benchmark workload variants, which are opt-in).
_DEFAULT_SUITE_SYSTEMS = ("mysql", "postgres", "apache", "bind", "djbdns")

#: Default plugin line-up of ``conferr suite``: the three error classes that
#: apply to every system (DNS semantic errors only fit the DNS servers).
_DEFAULT_SUITE_PLUGINS = ("spelling", "structural", "semantic-constraints")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive number, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be zero or positive, got {value}")
    return value


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be zero or positive, got {value}")
    return value


def _layout_name(text: str) -> str:
    """Validate a keyboard-layout name at parse time."""
    from repro.keyboard.layouts import get_layout

    try:
        get_layout(text)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None
    return text


def _csv_of(allowed: Sequence[str], what: str) -> Callable[[str], list[str]]:
    """argparse type: comma-separated subset of ``allowed``.

    Order-preserving and deduplicating: ``--systems mysql,mysql`` means the
    one system, not a double-counted table cell.
    """

    def parse(text: str) -> list[str]:
        names = [name.strip() for name in text.split(",") if name.strip()]
        if not names:
            raise argparse.ArgumentTypeError(f"expected at least one {what}")
        seen: dict[str, None] = {}
        for name in names:
            if name not in allowed:
                raise argparse.ArgumentTypeError(
                    f"unknown {what} {name!r}; available: {', '.join(sorted(allowed))}"
                )
            seen.setdefault(name, None)
        return list(seen)

    return parse


def _add_executor_arguments(parser: argparse.ArgumentParser) -> None:
    """Shared worker-fan-out flags for campaign-running sub-commands."""
    parser.add_argument(
        "--jobs",
        "-j",
        type=_positive_int,
        default=1,
        metavar="N",
        help="number of parallel workers per campaign (default 1: serial)",
    )
    parser.add_argument(
        "--executor",
        choices=EXECUTOR_CHOICES,
        default=None,
        help="worker strategy; default: serial for --jobs 1, threads otherwise",
    )
    parser.add_argument(
        "--block-size",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "scenarios a worker pulls from the shared work queue per pull "
            "(default: auto); profiles are identical for any value"
        ),
    )
    parser.add_argument(
        "--no-incremental",
        dest="incremental",
        action="store_false",
        help=(
            "disable the delta-validation fast path and fully re-validate "
            "every scenario (outcomes are identical either way)"
        ),
    )
    parser.add_argument(
        "--timeout-seconds",
        type=_positive_float,
        default=None,
        metavar="S",
        help=(
            "per-scenario watchdog deadline; a hung experiment is cancelled "
            "and recorded as a TIMEOUT outcome (default: no timeout)"
        ),
    )
    parser.add_argument(
        "--max-retries",
        type=_nonnegative_int,
        default=None,
        metavar="N",
        help=(
            "isolated re-attempts granted a scenario that crashed its worker "
            "before it is quarantined (default 2 once fault tolerance is on)"
        ),
    )
    parser.add_argument(
        "--retry-backoff-seconds",
        type=_nonnegative_float,
        default=None,
        metavar="S",
        help="base of the seeded exponential backoff between crash retries",
    )


def build_parser() -> argparse.ArgumentParser:
    """Create the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="conferr",
        description="Assess resilience to human configuration errors (ConfErr reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one injection campaign")
    run.add_argument("--system", choices=sorted(available_systems()), required=True)
    run.add_argument("--plugin", choices=available_plugins(), default="spelling")
    run.add_argument("--seed", type=int, default=2008)
    run.add_argument("--mutations-per-token", type=_positive_int, default=1)
    run.add_argument("--max-scenarios-per-class", type=_positive_int, default=None)
    run.add_argument(
        "--layout",
        type=_layout_name,
        default=None,
        metavar="NAME",
        help="keyboard layout for the spelling plugin (default: qwerty-us)",
    )
    run.add_argument("--json", action="store_true", help="emit the full profile as JSON")
    run.add_argument("--output", metavar="FILE", default=None, help="also save the profile as JSON to FILE")
    run.add_argument(
        "--dump-spec",
        action="store_true",
        help="print the equivalent experiment spec (TOML) instead of running",
    )
    _add_executor_arguments(run)

    suite = sub.add_parser(
        "suite", help="run a whole multi-system, multi-plugin campaign suite"
    )
    suite.add_argument(
        "--systems",
        type=_csv_of(tuple(available_systems()), "system"),
        default=list(_DEFAULT_SUITE_SYSTEMS),
        metavar="A,B,...",
        help=f"comma-separated systems (default: {','.join(_DEFAULT_SUITE_SYSTEMS)})",
    )
    suite.add_argument(
        "--plugins",
        type=_csv_of(tuple(available_plugins()), "plugin"),
        default=list(_DEFAULT_SUITE_PLUGINS),
        metavar="A,B,...",
        help=f"comma-separated plugins (default: {','.join(_DEFAULT_SUITE_PLUGINS)})",
    )
    suite.add_argument("--seed", type=int, default=2008)
    suite.add_argument("--mutations-per-token", type=_positive_int, default=1)
    suite.add_argument("--max-scenarios-per-class", type=_positive_int, default=None)
    suite.add_argument(
        "--layout",
        type=_layout_name,
        default=None,
        metavar="NAME",
        help="keyboard layout for the spelling plugin (default: qwerty-us)",
    )
    suite.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="persist every record (and the run manifest) into this directory",
    )
    suite.add_argument(
        "--resume",
        action="store_true",
        help="skip scenarios whose records are already in --store and continue",
    )
    suite.add_argument(
        "--retry-quarantined",
        action="store_true",
        help=(
            "with --resume: re-attempt quarantined scenarios instead of "
            "treating them as done"
        ),
    )
    suite.add_argument(
        "--dump-spec",
        action="store_true",
        help="print the equivalent experiment spec (TOML) instead of running",
    )
    _add_executor_arguments(suite)

    run_spec = sub.add_parser(
        "run-spec", help="run the experiment described by a TOML/JSON spec file"
    )
    run_spec.add_argument("spec_file", help="experiment spec file (.toml or .json)")
    run_spec.add_argument(
        "--no-incremental",
        dest="incremental",
        action="store_false",
        help=(
            "override the spec: disable the delta-validation fast path "
            "(outcomes are identical either way)"
        ),
    )
    run_spec.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="override (or add) the spec's result-store directory",
    )

    validate = sub.add_parser(
        "validate", help="validate a spec file against the registries without running it"
    )
    validate.add_argument("spec_file", help="experiment spec file (.toml or .json)")
    validate.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help=(
            "emit a machine-readable {valid, errors[{path, message}]} report "
            "(the same document the service returns as an HTTP 400 body)"
        ),
    )

    lint = sub.add_parser(
        "lint",
        help=(
            "statically check spec files (or, with --self, harness source) "
            "with coded rules; exit 0 clean / 1 findings / 2 usage"
        ),
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help=(
            "spec files to lint, or source files/directories with --self "
            "(--self defaults to the installed repro package)"
        ),
    )
    lint.add_argument(
        "--self",
        action="store_true",
        dest="lint_self",
        help="lint harness source for project invariants instead of spec files",
    )
    lint.add_argument(
        "--select",
        metavar="CODES",
        default=None,
        help=(
            "comma-separated rule codes or prefixes to run exclusively "
            "(e.g. 'spec/seed-collision' or 'harness'); also enables "
            "default-off advisory rules"
        ),
    )
    lint.add_argument(
        "--ignore",
        metavar="CODES",
        default=None,
        help="comma-separated rule codes or prefixes to skip",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help=(
            "emit a machine-readable {valid, errors[{code, path, message, "
            "severity}]} report (the validate --json document shape)"
        ),
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog (code, severity, default, summary) and exit",
    )

    report = sub.add_parser(
        "report", help="re-render a saved profile JSON file or a result-store directory"
    )
    report.add_argument(
        "profile_file",
        help="JSON file written by 'conferr run --output', or a --store directory",
    )

    for name, help_text in (
        ("table1", "regenerate Table 1 (resilience to typos)"),
        ("table2", "regenerate Table 2 (structural variations)"),
        ("table3", "regenerate Table 3 (DNS semantic errors)"),
        ("figure3", "regenerate Figure 3 (MySQL vs Postgres comparison)"),
    ):
        bench = sub.add_parser(name, help=help_text)
        bench.add_argument("--seed", type=int, default=2008)
        persistence = bench.add_mutually_exclusive_group()
        persistence.add_argument(
            "--store",
            metavar="DIR",
            default=None,
            help="persist the run's records into this (fresh) directory",
        )
        persistence.add_argument(
            "--from-store",
            metavar="DIR",
            default=None,
            help="re-render from a stored run instead of re-running injections",
        )
        _add_executor_arguments(bench)
        if name == "figure3":
            bench.add_argument("--experiments-per-directive", type=int, default=20)
        if name == "table1":
            bench.add_argument("--typos-per-directive", type=int, default=10)
        if name == "table2":
            bench.add_argument("--variants-per-class", type=int, default=10)

    matrix = sub.add_parser(
        "matrix", help="render the M-systems x N-plugins resilience matrix"
    )
    from repro.bench.matrix import MATRIX_PLUGINS, MATRIX_SYSTEMS

    matrix.add_argument(
        "--systems",
        type=_csv_of(tuple(available_systems()), "system"),
        default=list(MATRIX_SYSTEMS),
        metavar="A,B,...",
        help=f"comma-separated systems (default: {','.join(MATRIX_SYSTEMS)})",
    )
    matrix.add_argument(
        "--plugins",
        type=_csv_of(tuple(available_plugins()), "plugin"),
        default=list(MATRIX_PLUGINS),
        metavar="A,B,...",
        help=f"comma-separated plugins (default: {','.join(MATRIX_PLUGINS)})",
    )
    matrix.add_argument("--seed", type=int, default=2008)
    matrix.add_argument("--mutations-per-token", type=_positive_int, default=1)
    matrix.add_argument("--max-scenarios-per-class", type=_positive_int, default=None)
    matrix_persistence = matrix.add_mutually_exclusive_group()
    matrix_persistence.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="persist the run's records into this (fresh) directory",
    )
    matrix_persistence.add_argument(
        "--from-store",
        metavar="DIR",
        default=None,
        help="re-render from a stored suite/matrix run instead of re-running",
    )
    matrix.add_argument(
        "--resume",
        action="store_true",
        help="with --store: continue an interrupted matrix run from the store",
    )
    _add_executor_arguments(matrix)

    store_cmd = sub.add_parser(
        "store", help="inspect and maintain result-store directories"
    )
    store_sub = store_cmd.add_subparsers(dest="store_command", required=True)
    store_verify = store_sub.add_parser(
        "verify", help="check a result store for corrupt records and index drift"
    )
    store_verify.add_argument("store_dir", help="result-store directory")
    store_repair = store_sub.add_parser(
        "repair",
        help=(
            "quarantine corrupt lines to .corrupt sidecars, drop torn tails "
            "and rebuild systems.json"
        ),
    )
    store_repair.add_argument("store_dir", help="result-store directory")
    store_diff = store_sub.add_parser(
        "diff", help="compare the records of two result stores"
    )
    store_diff.add_argument("left", help="first result-store directory")
    store_diff.add_argument("right", help="second result-store directory")
    store_diff.add_argument(
        "--include-quarantined",
        action="store_true",
        help="also flag records whose scenario id is quarantined in either store",
    )

    serve = sub.add_parser(
        "serve",
        help=(
            "run the campaign service: an HTTP API + multi-tenant job queue "
            "over durable result stores (see docs/SERVICE.md)"
        ),
    )
    serve.add_argument(
        "--data-dir",
        required=True,
        metavar="DIR",
        help="service state root (per-tenant job specs, states and stores)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default: %(default)s)")
    serve.add_argument(
        "--port", type=int, default=8765, help="bind port, 0 picks a free one (default: %(default)s)"
    )
    serve.add_argument(
        "--jobs-per-tenant",
        type=_positive_int,
        default=1,
        help="max jobs of one tenant running at once (default: %(default)s)",
    )
    serve.add_argument(
        "--workers",
        type=_positive_int,
        default=2,
        help="max jobs running at once across all tenants (default: %(default)s)",
    )

    sub.add_parser("list", help="list available systems, plugins, dialects and layouts")
    return parser


# --------------------------------------------------------- flags -> ExperimentSpec
def _execution_from_args(args: argparse.Namespace) -> ExecutionSpec:
    return ExecutionSpec(
        seed=args.seed,
        jobs=args.jobs,
        executor=args.executor,
        block_size=args.block_size,
        incremental=args.incremental,
        # the paper artefacts fix these per plugin and have no such flags
        mutations_per_token=getattr(args, "mutations_per_token", None),
        max_scenarios_per_class=getattr(args, "max_scenarios_per_class", None),
        layout=getattr(args, "layout", None),
        timeout_seconds=args.timeout_seconds,
        max_retries=args.max_retries,
        retry_backoff_seconds=args.retry_backoff_seconds,
    )


def _spec_from_run_args(args: argparse.Namespace) -> ExperimentSpec:
    params: dict = {}
    if args.plugin == "semantic-constraints":
        # one-system campaigns use the system's own constraint catalog
        params["system"] = args.system
    return ExperimentSpec(
        systems=(SystemSpec(args.system),),
        plugins=(PluginSpec(args.plugin, params=params),),
        execution=_execution_from_args(args),
    )


def _spec_from_suite_args(args: argparse.Namespace) -> ExperimentSpec:
    store = None
    if args.store:
        store = StoreSpec(
            root=args.store,
            resume=args.resume,
            retry_quarantined=args.retry_quarantined,
        )
    return ExperimentSpec(
        systems=tuple(SystemSpec(name) for name in args.systems),
        plugins=tuple(PluginSpec(name) for name in args.plugins),
        execution=_execution_from_args(args),
        store=store,
    )


def _progress_observer(stream=None):
    """Live per-record progress line, or None when the stream is not a TTY.

    Records stream in scenario order under every executor (the engine's
    in-order merge releases them as experiments complete), so the counter
    advances while a ``--jobs 4`` campaign is still running -- and because
    the suite appends to the store *before* reporting, a count on screen is
    a count on disk.
    """
    stream = stream if stream is not None else sys.stderr
    if not (hasattr(stream, "isatty") and stream.isatty()):
        return None
    totals: dict[tuple[str, str], int] = {}

    def progress(system: str, plugin: str, record) -> None:
        key = (system, plugin)
        totals[key] = totals.get(key, 0) + 1
        overall = sum(totals.values())
        print(
            f"\r{overall} records ({system}/{plugin}: {totals[key]}, "
            f"last: {record.outcome.value})\x1b[K",  # clear any longer previous line
            end="",
            file=stream,
            flush=True,
        )

    return progress


#: Stores opened by the running command; the KeyboardInterrupt handler in
#: :func:`main` flushes and closes these so an interrupted run stays resumable.
_ACTIVE_STORES: list[ResultStore] = []


def _run_spec(spec: ExperimentSpec, resume: bool) -> tuple[SuiteResult, ResultStore | None]:
    """Run an experiment spec; the one execution path for run/suite/run-spec."""
    progress = _progress_observer()
    suite = CampaignSuite.from_spec(spec, record_observer=progress)
    store = spec.build_store()
    if store is not None:
        _ACTIVE_STORES.append(store)
    try:
        result = suite.run(store=store, resume=resume)
    finally:
        if progress is not None:
            print(file=sys.stderr)  # move off the \r progress line
        if store is not None:
            store.close()
    # only on success: an interrupted run keeps its store listed so the
    # KeyboardInterrupt handler in main() can name it in the resume hint
    if store is not None and store in _ACTIVE_STORES:
        _ACTIVE_STORES.remove(store)
    return result, store


def _print_suite_result(result: SuiteResult, store: ResultStore | None) -> None:
    print(result.summary())
    print()
    print(result.table1())
    if store is not None:
        print()
        print(f"records stored in {store.root}")


# ------------------------------------------------------------------------ commands
def _command_run(args: argparse.Namespace) -> int:
    spec = _spec_from_run_args(args)
    if args.dump_spec:
        print(spec.validate().to_toml(), end="")
        return 0
    result, _store = _run_spec(spec, resume=False)
    profile = result.overall(spec.systems[0].key)
    if args.output:
        profile.save(args.output)
    if args.json:
        print(profile.to_json())
    else:
        print(profile.summary())
        print()
        for category, sub_profile in profile.by_category().items():
            counts = {o.value: c for o, c in sub_profile.outcome_counts().items() if c}
            print(f"  {category}: {counts}")
    return 0


def _command_suite(args: argparse.Namespace) -> int:
    spec = _spec_from_suite_args(args)
    if args.dump_spec:
        print(spec.validate().to_toml(), end="")
        return 0
    result, store = _run_spec(spec, resume=args.resume)
    _print_suite_result(result, store)
    return 0


def _command_run_spec(args: argparse.Namespace) -> int:
    # no explicit validate(): CampaignSuite.from_spec validates before building
    spec = ExperimentSpec.from_file(args.spec_file)
    if not args.incremental:
        spec = dataclasses.replace(
            spec, execution=dataclasses.replace(spec.execution, incremental=False)
        )
    if args.store is not None:
        store_spec = (
            dataclasses.replace(spec.store, root=args.store)
            if spec.store is not None
            else StoreSpec(root=args.store)
        )
        spec = dataclasses.replace(spec, store=store_spec)
    try:
        result, store = _run_spec(spec, resume=spec.store.resume if spec.store else False)
    except SpecError as exc:
        raise SpecError(f"{args.spec_file}: {exc}", exc.code) from None
    _print_suite_result(result, store)
    return 0


def _command_validate(args: argparse.Namespace) -> int:
    from repro.core.spec import validation_report

    if args.as_json:
        # machine-readable: always exit through JSON (0 valid / 1 invalid),
        # never a traceback -- this document is also the service's 400 body
        try:
            report = validation_report(ExperimentSpec.from_file(args.spec_file))
        except SpecError as exc:
            report = validation_report(exc, args.spec_file)
        print(json.dumps(report, indent=2))
        return 0 if report["valid"] else 1
    spec = ExperimentSpec.from_file(args.spec_file)
    try:
        spec.validate()
    except SpecError as exc:
        # name the file: a script validating several specs must be able to
        # tell which one is broken
        raise SpecError(f"{args.spec_file}: {exc}", exc.code) from None
    print(
        f"{args.spec_file}: OK "
        f"({len(spec.systems)} system(s) x {len(spec.plugins)} plugin(s), "
        f"seed {spec.execution.seed})"
    )
    return 0


def _split_codes(value: str | None) -> list[str] | None:
    if value is None:
        return None
    return [token.strip() for token in value.split(",") if token.strip()]


def _command_lint(args: argparse.Namespace) -> int:
    """Static analysis: exit 0 clean, 1 findings, 2 usage (ruff-style)."""
    from repro.analysis import (
        RuleSelectionError,
        all_rules,
        lint_self,
        lint_specs,
        select_rules,
    )

    if args.list_rules:
        for rule in all_rules():
            state = "on" if rule.default else "off (enable with --select)"
            print(f"{rule.code:32} {rule.severity.value:8} {state:28} {rule.summary}")
        return 0
    surface = "self" if args.lint_self else "spec"
    try:
        rules = select_rules(
            surface, _split_codes(args.select), _split_codes(args.ignore)
        )
    except RuleSelectionError as exc:
        print(f"conferr lint: usage error: {exc}", file=sys.stderr)
        return 2
    if args.lint_self:
        paths = args.paths or [os.path.dirname(os.path.abspath(__file__))]
        report = lint_self(paths, rules)
    else:
        if not args.paths:
            print(
                "conferr lint: usage error: give spec files to lint, or --self "
                "to lint the harness source",
                file=sys.stderr,
            )
            return 2
        report = lint_specs(args.paths, rules)
    if args.as_json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render_text())
    return report.exit_code


def _command_report(args: argparse.Namespace) -> int:
    from repro.core.profile import ResilienceProfile
    from repro.core.report import render_store_report

    if os.path.isdir(args.profile_file):
        # one renderer shared with the service's GET /jobs/{id}/report, so
        # the served report is byte-identical to this command's output
        print(render_store_report(ResultStore(args.profile_file)))
        return 0
    profile = ResilienceProfile.load(args.profile_file)
    print(profile.summary())
    print()
    for category, sub_profile in profile.by_category().items():
        counts = {o.value: c for o, c in sub_profile.outcome_counts().items() if c}
        print(f"  {category}: {counts}")
    return 0


def _command_store(args: argparse.Namespace) -> int:
    if args.store_command == "diff":
        for path in (args.left, args.right):
            if not os.path.isdir(path):
                raise StoreError(f"not a result-store directory: {path}", "store/missing")
        differences = diff_stores(
            ResultStore(args.left),
            ResultStore(args.right),
            ignore_quarantined=not args.include_quarantined,
        )
        if not differences:
            print(f"stores match: {args.left} == {args.right}")
            return 0
        for line in differences:
            print(line)
        print(f"{len(differences)} difference(s)")
        return 1
    if not os.path.isdir(args.store_dir):
        raise StoreError(f"not a result-store directory: {args.store_dir}", "store/missing")
    store = ResultStore(args.store_dir)
    if args.store_command == "repair":
        # the report lists what was moved; the store itself is clean afterwards
        print(store.repair().summary())
        return 0
    report = store.verify()
    print(report.summary())
    return 0 if report.clean else 1


def _command_list(_args: argparse.Namespace) -> int:
    from repro.keyboard.layouts import available_layouts

    print("systems:  " + ", ".join(available_systems()))
    print("plugins:  " + ", ".join(available_plugins()))
    print("dialects: " + ", ".join(available_dialects()))
    print("layouts:  " + ", ".join(available_layouts()))
    return 0


def _command_artifact(args: argparse.Namespace) -> int:
    """``table1`` ... ``matrix``: run the artefact's spec (or load a stored
    run) and print its render -- one renderer for both, so the two outputs
    of one run are byte-identical."""
    from repro.bench import ARTIFACTS

    artifact = ARTIFACTS[args.command]
    resume = getattr(args, "resume", False)
    if args.from_store:
        if resume:
            raise SpecError(
                "--resume needs --store (continue an interrupted run); "
                "--from-store only re-renders the records already on disk"
            )
        profiles = ResultStore(args.from_store).load_profiles()
    else:
        spec = artifact.spec(**{name: getattr(args, name) for name in artifact.options})
        spec = dataclasses.replace(
            spec,
            execution=_execution_from_args(args),
            store=StoreSpec(root=args.store, resume=resume) if args.store else None,
        )
        result, _store = _run_spec(spec, resume=resume)
        profiles = result.profiles_by_display()
    print(artifact.render(profiles))
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.service.http import serve

    # serve() owns graceful shutdown itself: KeyboardInterrupt (and the
    # SIGTERM main() folds into it) stops the server, interrupts running
    # jobs between records and requeues them for the next start
    return serve(
        args.data_dir,
        host=args.host,
        port=args.port,
        jobs_per_tenant=args.jobs_per_tenant,
        workers=args.workers,
    )


def _sigterm_to_interrupt(signum: int, frame: object) -> None:
    """Fold SIGTERM into the KeyboardInterrupt shutdown path of :func:`main`."""
    raise KeyboardInterrupt


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for the ``conferr`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _command_run,
        "suite": _command_suite,
        "run-spec": _command_run_spec,
        "validate": _command_validate,
        "lint": _command_lint,
        "list": _command_list,
        "report": _command_report,
        "store": _command_store,
        "table1": _command_artifact,
        "table2": _command_artifact,
        "table3": _command_artifact,
        "figure3": _command_artifact,
        "matrix": _command_artifact,
        "serve": _command_serve,
    }
    del _ACTIVE_STORES[:]
    try:
        previous_sigterm = signal.signal(signal.SIGTERM, _sigterm_to_interrupt)
    except ValueError:  # not the main thread (e.g. tests driving main())
        previous_sigterm = None
    try:
        return handlers[args.command](args)
    except (CampaignError, ServiceError, SpecError, StoreError) as exc:
        # e.g. --executor process with a campaign that cannot be pickled, a
        # resume pointed at an incompatible/existing store, or an invalid spec;
        # a store failure names its store/... code
        code = f"{exc.code}: " if isinstance(exc, StoreError) else ""
        print(f"conferr: error: {code}{exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # graceful shutdown: flush the stores so the run stays resumable,
        # report where the records are, and exit without a traceback
        roots = []
        for store in list(_ACTIVE_STORES):
            try:
                store.close()
            except Exception:  # noqa: BLE001 - best-effort flush on the way out
                pass
            else:
                roots.append(str(store.root))
            _ACTIVE_STORES.remove(store)
        print("conferr: interrupted", file=sys.stderr)
        for root in roots:
            print(
                f"conferr: records flushed to {root}; rerun with --resume to continue",
                file=sys.stderr,
            )
        return 130
    finally:
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
