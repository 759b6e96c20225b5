"""Self-surface lint rules: the harness held to its own contracts.

These rules walk harness source with :mod:`ast` and interrogate the live
system/plugin registries, enforcing project invariants that otherwise
fail only at runtime -- or worse, not at all:

* determinism: no unseeded randomness or wall-clock reads in
  record-producing code (the byte-identity contract behind resume,
  incremental revalidation and store verify);
* durability: no truncating file writes where the durable files live;
* process-pool safety: exceptions that cross executor boundaries must
  unpickle, and should be :mod:`repro.errors` types;
* registry contracts: the ``param_names``/``from_params``/
  ``manifest_params`` triangle, the delta protocol's two hooks, and
  frozen spec dataclasses.

Findings can be suppressed per line with an inline pragma naming the
code, mirroring ``noqa``/ruff::

    class WorkerCrashed(BaseException):  # conferr: allow[harness/foreign-exception]
"""

from __future__ import annotations

import ast
import builtins
import inspect
import re
from pathlib import Path
from typing import Iterator, Sequence

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.rules import rule

_PRAGMA_RE = re.compile(r"#\s*conferr:\s*allow\[([^\]]+)\]")

#: Builtin exception type names, for resolving base-class chains statically.
_BUILTIN_EXCEPTIONS = frozenset(
    name
    for name, obj in vars(builtins).items()
    if isinstance(obj, type) and issubclass(obj, BaseException)
)

#: ``random`` module functions backed by the hidden shared global generator.
_GLOBAL_RNG_FUNCS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "uniform",
        "choice",
        "choices",
        "sample",
        "shuffle",
        "gauss",
        "getrandbits",
        "seed",
    }
)

#: Top-level package directories exempt from the wall-clock rule: the
#: service layer timestamps jobs operationally and produces no records.
_WALL_CLOCK_EXEMPT_DIRS = frozenset({"service"})

#: Top-level package directories whose file writes must be atomic: the
#: result store and the campaign service own every durable file.
_ATOMIC_WRITE_DIRS = frozenset({"core", "service"})


class SourceModule:
    """One parsed Python source file under self-lint."""

    def __init__(self, path: Path, rel: str):
        self.path = path
        self.rel = rel
        self.parse_error: str | None = None
        self.tree: ast.Module | None = None
        self.pragmas: dict[int, set[str]] = {}
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            self.parse_error = str(exc)
            return
        for lineno, line in enumerate(text.splitlines(), start=1):
            match = _PRAGMA_RE.search(line)
            if match:
                self.pragmas[lineno] = {
                    code.strip() for code in match.group(1).split(",")
                }
        try:
            self.tree = ast.parse(text, filename=str(path))
        except SyntaxError as exc:
            self.parse_error = f"{exc.msg} (line {exc.lineno})"

    def package_dir(self) -> str:
        """Top-level package directory of this file (``core``, ``service``...).

        The same whether the lint root is the package (``src/repro``) or the
        directory holding it (``src``).
        """
        parts = self.rel.replace("\\", "/").split("/")
        if parts[0] == "repro" and len(parts) > 1:
            parts = parts[1:]
        return parts[0]

    # ------------------------------------------------------------- name maps
    def import_map(self) -> tuple[dict[str, str], dict[str, tuple[str, str]]]:
        """``({alias: module}, {alias: (module, original_name)})`` of this module."""
        modules: dict[str, str] = {}
        names: dict[str, tuple[str, str]] = {}
        if self.tree is None:
            return modules, names
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    modules[alias.asname or alias.name.split(".")[0]] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    names[alias.asname or alias.name] = (node.module, alias.name)
        return modules, names


class SelfLintContext:
    """A set of parsed source modules plus pragma lookup."""

    def __init__(self, modules: Sequence[SourceModule]):
        self.modules = list(modules)
        self._pragmas_by_path = {
            module.path.resolve(): module.pragmas for module in self.modules
        }

    def allowed(self, finding: Diagnostic) -> bool:
        """True when an inline pragma suppresses ``finding``."""
        if finding.file is None or finding.line is None:
            return False
        pragmas = self._pragmas_by_path.get(Path(finding.file).resolve())
        if not pragmas:
            return False
        return finding.code in pragmas.get(finding.line, ())


def _source_location(obj) -> tuple[str | None, int | None]:
    """(file, line) of a live class, when its source is reachable."""
    try:
        file = inspect.getsourcefile(obj)
        line = inspect.getsourcelines(obj)[1]
    except (OSError, TypeError):
        return None, None
    return file, line


def _resolves_to_module(node: ast.expr, module: str, modules: dict[str, str]) -> bool:
    return isinstance(node, ast.Name) and modules.get(node.id) == module


# -------------------------------------------------------------- per-file rules
@rule("harness/parse-error", Severity.ERROR, "self")
def check_self_parse_error(ctx: SelfLintContext) -> Iterator[Diagnostic]:
    """A source file under self-lint cannot be read or parsed."""
    for module in ctx.modules:
        if module.parse_error is not None:
            yield Diagnostic(
                code="harness/parse-error",
                message=f"cannot parse: {module.parse_error}",
                severity=Severity.ERROR,
                file=str(module.path),
            )


@rule("harness/unseeded-rng", Severity.ERROR, "self")
def check_unseeded_rng(ctx: SelfLintContext) -> Iterator[Diagnostic]:
    """Unseeded or shared-global randomness in harness code.

    Scenario streams must be reproducible from the experiment seed alone
    (resume, incremental revalidation and ``store verify`` all re-derive
    them); ``random.random()``-style module functions draw from a hidden
    global generator, and a no-argument ``random.Random()`` seeds itself
    from the OS.  Pass an explicit derived seed instead.
    """
    for module in ctx.modules:
        if module.tree is None:
            continue
        modules, names = module.import_map()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _GLOBAL_RNG_FUNCS
                and _resolves_to_module(func.value, "random", modules)
            ):
                yield Diagnostic(
                    code="harness/unseeded-rng",
                    message=(
                        f"random.{func.attr}() uses the shared global "
                        "generator; derive a seeded random.Random instead"
                    ),
                    severity=Severity.ERROR,
                    file=str(module.path),
                    line=node.lineno,
                )
            is_random_class = (
                isinstance(func, ast.Attribute)
                and func.attr == "Random"
                and _resolves_to_module(func.value, "random", modules)
            ) or (
                isinstance(func, ast.Name)
                and names.get(func.id) == ("random", "Random")
            )
            if is_random_class and not node.args and not node.keywords:
                yield Diagnostic(
                    code="harness/unseeded-rng",
                    message=(
                        "random.Random() without a seed draws OS entropy; "
                        "pass a seed derived from the experiment seed"
                    ),
                    severity=Severity.ERROR,
                    file=str(module.path),
                    line=node.lineno,
                )


@rule("harness/wall-clock", Severity.WARNING, "self")
def check_wall_clock(ctx: SelfLintContext) -> Iterator[Diagnostic]:
    """Wall-clock reads in record-producing code paths.

    ``time.time()`` and ``datetime.now()`` make output depend on when a
    campaign ran, breaking the byte-identity contract between runs.
    Durations belong to ``time.perf_counter()``/``monotonic()``; the
    service layer (operational job metadata) is exempt.
    """
    for module in ctx.modules:
        if module.tree is None:
            continue
        if module.package_dir() in _WALL_CLOCK_EXEMPT_DIRS:
            continue
        modules, names = module.import_map()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            func = node.func
            if func.attr in {"time", "time_ns"} and _resolves_to_module(
                func.value, "time", modules
            ):
                yield Diagnostic(
                    code="harness/wall-clock",
                    message=(
                        f"time.{func.attr}() reads the wall clock; use "
                        "time.perf_counter()/monotonic() for durations and "
                        "keep timestamps out of records"
                    ),
                    severity=Severity.WARNING,
                    file=str(module.path),
                    line=node.lineno,
                )
            if func.attr in {"now", "utcnow", "today"}:
                value = func.value
                from_datetime_module = isinstance(
                    value, ast.Attribute
                ) and value.attr in {"datetime", "date"} and _resolves_to_module(
                    value.value, "datetime", modules
                )
                from_datetime_import = isinstance(value, ast.Name) and names.get(
                    value.id, ("", "")
                )[0] == "datetime"
                if from_datetime_module or from_datetime_import:
                    yield Diagnostic(
                        code="harness/wall-clock",
                        message=(
                            f"datetime {func.attr}() reads the wall clock; "
                            "keep timestamps out of record-producing paths"
                        ),
                        severity=Severity.WARNING,
                        file=str(module.path),
                        line=node.lineno,
                    )


def _open_mode(node: ast.Call) -> str:
    """The literal mode of an ``open()`` call ("" when not a literal)."""
    mode = node.args[1] if len(node.args) > 1 else None
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return ""


@rule("harness/non-atomic-write", Severity.ERROR, "self")
def check_non_atomic_write(ctx: SelfLintContext) -> Iterator[Diagnostic]:
    """A truncating file write in the store or service layers.

    ``Path.write_text``/``write_bytes`` and ``open(..., "w")`` truncate
    the target before writing it, so a kill mid-write leaves a torn or
    empty file.  Durable files there go through
    :func:`repro.core.durable.write_atomic` (temp file, fsync, rename);
    appends are not flagged.
    """
    for module in ctx.modules:
        if module.tree is None:
            continue
        if module.package_dir() not in _ATOMIC_WRITE_DIRS:
            continue
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in {"write_text", "write_bytes"}:
                call = f"{func.attr}()"
            elif isinstance(func, ast.Name) and func.id == "open" and "w" in _open_mode(node):
                call = f"open(..., {_open_mode(node)!r})"
            else:
                continue
            yield Diagnostic(
                code="harness/non-atomic-write",
                message=(
                    f"{call} truncates the file before writing it; a kill "
                    "mid-write leaves it torn -- use "
                    "repro.core.durable.write_atomic"
                ),
                severity=Severity.ERROR,
                file=str(module.path),
                line=node.lineno,
            )


# ------------------------------------------------------- exception-class rules
def _class_defs(module: SourceModule) -> Iterator[ast.ClassDef]:
    if module.tree is None:
        return
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ClassDef):
            yield node


def _base_kind(
    base: ast.expr,
    local_classes: dict[str, ast.ClassDef],
    modules: dict[str, str],
    names: dict[str, tuple[str, str]],
    seen: frozenset[str] = frozenset(),
) -> str:
    """Classify a base expression: 'errors', 'builtin', or 'other'."""
    if isinstance(base, ast.Attribute):
        if _resolves_to_module(base.value, "repro.errors", modules):
            return "errors"
        return "other"
    if not isinstance(base, ast.Name):
        return "other"
    name = base.id
    if name in names and names[name][0] == "repro.errors":
        return "errors"
    if name in local_classes and name not in seen:
        kinds = {
            _base_kind(b, local_classes, modules, names, seen | {name})
            for b in local_classes[name].bases
        }
        if "errors" in kinds:
            return "errors"
        if "builtin" in kinds:
            return "builtin"
        return "other"
    if name in _BUILTIN_EXCEPTIONS:
        return "builtin"
    return "other"


@rule("harness/foreign-exception", Severity.WARNING, "self")
def check_foreign_exception(ctx: SelfLintContext) -> Iterator[Diagnostic]:
    """An exception class outside errors.py derives from a builtin, not the hierarchy.

    Only :mod:`repro.errors` types are part of the crossing-the-executor
    contract: callers catch ``ConfErrError`` subclasses, and anything
    else escaping a worker surfaces as an unhandled crash.  Exceptions
    that intentionally stay inside one module carry an inline
    ``conferr: allow[harness/foreign-exception]`` pragma.
    """
    for module in ctx.modules:
        if module.path.name == "errors.py":
            continue
        modules, names = module.import_map()
        local_classes = {node.name: node for node in _class_defs(module)}
        for node in _class_defs(module):
            kinds = {
                _base_kind(base, local_classes, modules, names)
                for base in node.bases
            }
            if "builtin" in kinds and "errors" not in kinds:
                yield Diagnostic(
                    code="harness/foreign-exception",
                    message=(
                        f"exception {node.name!r} derives from a builtin "
                        "exception, not the repro.errors hierarchy; it is "
                        "invisible to ConfErrError handlers if it crosses an "
                        "executor boundary"
                    ),
                    severity=Severity.WARNING,
                    file=str(module.path),
                    line=node.lineno,
                )


def _find_method(node: ast.ClassDef, name: str) -> ast.FunctionDef | None:
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name == name:
            return item
    return None


@rule("harness/unpickleable-error", Severity.ERROR, "self")
def check_unpickleable_error(ctx: SelfLintContext) -> Iterator[Diagnostic]:
    """An exception class cannot survive a pickle round-trip.

    Process-pool executors pickle exceptions back to the parent.
    Unpickling rebuilds the instance as ``cls(*self.args)``, and
    ``super().__init__(...)`` resets ``self.args`` -- so an ``__init__``
    that requires more positional arguments than it forwards to
    ``super().__init__`` raises ``TypeError`` in the parent instead of
    delivering the real failure.  Define ``__reduce__`` when the
    constructor signature cannot match.
    """
    for module in ctx.modules:
        modules, names = module.import_map()
        local_classes = {node.name: node for node in _class_defs(module)}
        for node in _class_defs(module):
            kinds = {
                _base_kind(base, local_classes, modules, names)
                for base in node.bases
            }
            if not kinds & {"builtin", "errors"}:
                continue  # not statically an exception class
            if _find_method(node, "__reduce__") is not None:
                continue
            init = _find_method(node, "__init__")
            if init is None:
                continue
            args = init.args
            if args.vararg is not None:
                continue  # *args forwards anything; cannot reason statically
            positional = list(args.posonlyargs) + list(args.args)
            required = max(0, len(positional) - 1 - len(args.defaults))
            missing_kwonly = [
                kwarg.arg
                for kwarg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is None
            ]
            if missing_kwonly:
                yield Diagnostic(
                    code="harness/unpickleable-error",
                    message=(
                        f"exception {node.name!r} requires keyword-only "
                        f"argument(s) {', '.join(missing_kwonly)}; unpickling "
                        "rebuilds it from positional args only -- give them "
                        "defaults or define __reduce__"
                    ),
                    severity=Severity.ERROR,
                    file=str(module.path),
                    line=node.lineno,
                )
                continue
            super_call = None
            for sub in ast.walk(init):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "__init__"
                    and isinstance(sub.func.value, ast.Call)
                    and isinstance(sub.func.value.func, ast.Name)
                    and sub.func.value.func.id == "super"
                ):
                    super_call = sub
                    break
            if super_call is None:
                continue  # BaseException.__new__ preserved the original args
            if any(isinstance(a, ast.Starred) for a in super_call.args):
                continue
            forwarded = len(super_call.args)
            if forwarded < required:
                yield Diagnostic(
                    code="harness/unpickleable-error",
                    message=(
                        f"exception {node.name!r} forwards {forwarded} "
                        f"argument(s) to super().__init__ but its __init__ "
                        f"requires {required}; unpickling across a process "
                        "pool raises TypeError -- align the arguments or "
                        "define __reduce__"
                    ),
                    severity=Severity.ERROR,
                    file=str(module.path),
                    line=node.lineno,
                )


# ----------------------------------------------------------- dataclass contract
def _dataclass_decorator(node: ast.ClassDef) -> ast.expr | None:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return decorator
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return decorator
    return None


@rule("harness/unfrozen-spec", Severity.ERROR, "self")
def check_unfrozen_spec(ctx: SelfLintContext) -> Iterator[Diagnostic]:
    """A ``*Spec`` dataclass is not declared ``frozen=True``.

    Spec objects are hashed, shared across threads, and embedded in
    store manifests; a mutable spec invalidates all three.  Every
    dataclass whose name ends in ``Spec`` must stay frozen.
    """
    for module in ctx.modules:
        for node in _class_defs(module):
            if not node.name.endswith("Spec"):
                continue
            decorator = _dataclass_decorator(node)
            if decorator is None:
                continue  # not a dataclass: the rule has no opinion
            frozen = False
            if isinstance(decorator, ast.Call):
                for keyword in decorator.keywords:
                    if keyword.arg == "frozen":
                        frozen = (
                            isinstance(keyword.value, ast.Constant)
                            and keyword.value.value is True
                        )
            if not frozen:
                yield Diagnostic(
                    code="harness/unfrozen-spec",
                    message=(
                        f"dataclass {node.name!r} is not frozen; spec objects "
                        "must stay immutable (declare @dataclass(frozen=True))"
                    ),
                    severity=Severity.ERROR,
                    file=str(module.path),
                    line=node.lineno,
                )


# ------------------------------------------------------------- registry rules
@rule("harness/delta-contract", Severity.ERROR, "self")
def check_delta_contract(ctx: SelfLintContext) -> Iterator[Diagnostic]:
    """A SUT advertises delta support it does not implement.

    ``supports_delta()`` is derived from overriding ``_start_from_trees``
    (the tree walk ``start_delta`` re-runs); overriding the probe directly
    advertises a fast path that falls over at runtime.  Registered SUTs
    that do override ``_start_from_trees`` must also override
    ``_observable_state``, or no delta is ever recognised as a no-op.
    """
    for module in ctx.modules:
        for node in _class_defs(module):
            method_names = {
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            if "supports_delta" in method_names and "_start_from_trees" not in method_names:
                yield Diagnostic(
                    code="harness/delta-contract",
                    message=(
                        f"class {node.name!r} overrides supports_delta without "
                        "defining _start_from_trees; delta support is advertised "
                        "by implementing the tree walk, not by patching the probe"
                    ),
                    severity=Severity.ERROR,
                    file=str(module.path),
                    line=node.lineno,
                )
    from repro.registry import registered_systems
    from repro.sut.base import SystemUnderTest, split_sut

    seen: set[type] = set()
    for name, factory in registered_systems().items():
        try:
            sut = split_sut(factory)[0]
        except Exception as exc:
            yield Diagnostic(
                code="harness/delta-contract",
                message=f"registered system {name!r} cannot be constructed: {exc}",
                severity=Severity.ERROR,
            )
            continue
        cls = type(sut)
        if cls in seen:
            continue
        seen.add(cls)
        overrides_walk = cls._start_from_trees is not SystemUnderTest._start_from_trees
        overrides_observable = cls._observable_state is not SystemUnderTest._observable_state
        if overrides_walk and not overrides_observable:
            file, line = _source_location(cls)
            yield Diagnostic(
                code="harness/delta-contract",
                message=(
                    f"SUT {cls.__name__!r} (system {name!r}) implements "
                    "_start_from_trees but not _observable_state; no delta "
                    "would ever be recognised as a no-op"
                ),
                severity=Severity.ERROR,
                file=file,
                line=line,
            )


@rule("harness/param-drift", Severity.ERROR, "self")
def check_param_drift(ctx: SelfLintContext) -> Iterator[Diagnostic]:
    """A registered plugin's param triangle is inconsistent.

    ``param_names``, ``from_params`` and ``manifest_params`` must agree:
    ``from_params({})`` builds the default plugin, ``manifest_params()``
    emits only declared names, and feeding a manifest back through
    ``from_params`` reproduces it (store resume depends on this inverse
    pair).
    """
    from repro.plugins.base import registered_plugins

    for name, cls in registered_plugins().items():
        file, line = _source_location(cls)

        def drift(message: str) -> Diagnostic:
            return Diagnostic(
                code="harness/param-drift",
                message=f"plugin {name!r}: {message}",
                severity=Severity.ERROR,
                file=file,
                line=line,
            )

        if "from_params" not in cls.__dict__:
            try:
                signature = inspect.signature(cls.__init__)
            except (TypeError, ValueError):
                signature = None
            if signature is not None:
                accepted = {
                    parameter.name
                    for parameter in signature.parameters.values()
                    if parameter.kind
                    in (
                        inspect.Parameter.POSITIONAL_OR_KEYWORD,
                        inspect.Parameter.KEYWORD_ONLY,
                    )
                }
                undeclared = set(cls.param_names) - accepted
                if undeclared and not any(
                    parameter.kind is inspect.Parameter.VAR_KEYWORD
                    for parameter in signature.parameters.values()
                ):
                    yield drift(
                        "param_names declares "
                        f"{', '.join(sorted(undeclared))} but __init__ does "
                        "not accept them (and from_params is not overridden)"
                    )
                    continue
        try:
            instance = cls.from_params({})
        except Exception as exc:
            yield drift(f"from_params({{}}) failed: {exc}")
            continue
        manifest = instance.manifest_params()
        if not isinstance(manifest, dict):
            yield drift(f"manifest_params() returned {type(manifest).__name__}, not dict")
            continue
        undeclared = set(manifest) - set(cls.param_names)
        if undeclared:
            yield drift(
                "manifest_params() emits undeclared parameter(s): "
                f"{', '.join(sorted(undeclared))}"
            )
            continue
        try:
            rebuilt = cls.from_params(manifest)
        except Exception as exc:
            yield drift(f"from_params rejects its own manifest_params(): {exc}")
            continue
        if rebuilt.manifest_params() != manifest:
            yield drift(
                "manifest_params()/from_params round-trip drifts: "
                f"{manifest!r} != {rebuilt.manifest_params()!r}"
            )
