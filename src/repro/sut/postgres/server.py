"""Simulated PostgreSQL server.

The simulation reproduces the strict configuration validation of the
Postgres 8.2 server the paper studied:

* unknown parameters abort startup (``unrecognized configuration parameter``),
* parameter names are case-insensitive but cannot be abbreviated
  (paper Table 2: mixed case yes, truncation no),
* numeric values are parsed strictly: malformed numbers, unknown units and
  out-of-range values abort startup,
* boolean parameters only accept the documented spellings,
* cross-parameter constraints are enforced (Section 5.2's
  ``max_fsm_pages >= 16 * max_fsm_relations`` example).
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.core.infoset import ConfigNode, ConfigTree
from repro.sut.database import Directive, SimulatedDatabase
from repro.sut.options import OptionSpec
from repro.sut.postgres.options import CROSS_CONSTRAINTS, DEFAULT_POSTGRESQL_CONF, POSTGRES_OPTIONS

__all__ = ["SimulatedPostgres", "parse_postgres_value", "PostgresValueError"]

_MEMORY_UNITS = {"kb": 1024, "mb": 1024**2, "gb": 1024**3}
#: Time units (seconds multipliers) accepted by ``time`` parameters.
_TIME_UNITS = {"ms": 0.001, "s": 1, "min": 60, "h": 3600, "d": 86400}
_BOOL_TRUE = {"on", "true", "yes", "1"}
_BOOL_FALSE = {"off", "false", "no", "0"}


class PostgresValueError(ValueError):  # conferr: allow[harness/foreign-exception]
    """A parameter value was rejected by the strict parser."""


def parse_postgres_value(text: str, spec: OptionSpec) -> object:
    """Parse a parameter value with Postgres' strict rules.

    Raises :class:`PostgresValueError` with a FATAL-style message when the
    value is malformed or out of range; returns the effective value otherwise.
    """
    value = text.strip()
    if spec.kind in ("int", "size", "real", "time"):
        magnitude_text = value
        multiplier: float = 1
        unit_table = _MEMORY_UNITS if spec.kind == "size" else _TIME_UNITS if spec.kind == "time" else {}
        lowered = value.lower()
        # longest unit first so "min" is not mistaken for a trailing "n" garbage
        for unit in sorted(unit_table, key=len, reverse=True):
            if lowered.endswith(unit):
                magnitude_text = value[: -len(unit)].strip()
                multiplier = unit_table[unit]
                break
        try:
            magnitude = float(magnitude_text) if spec.kind == "real" else int(magnitude_text)
        except ValueError as exc:
            raise PostgresValueError(
                f'invalid value for parameter "{spec.name}": "{text}"'
            ) from exc
        effective = magnitude * multiplier
        if spec.minimum is not None and effective < spec.minimum:
            raise PostgresValueError(
                f'{spec.name} = {text} is outside the valid range ({spec.minimum} .. {spec.maximum})'
            )
        if spec.maximum is not None and effective > spec.maximum:
            raise PostgresValueError(
                f'{spec.name} = {text} is outside the valid range ({spec.minimum} .. {spec.maximum})'
            )
        return effective
    if spec.kind == "bool":
        lowered = value.lower()
        if lowered in _BOOL_TRUE:
            return True
        if lowered in _BOOL_FALSE:
            return False
        raise PostgresValueError(
            f'parameter "{spec.name}" requires a Boolean value, got "{text}"'
        )
    if spec.kind == "enum":
        for choice in spec.choices:
            if value.lower() == choice.lower():
                return choice
        raise PostgresValueError(f'invalid value for parameter "{spec.name}": "{text}"')
    # string / path parameters accept any text
    return value


#: The server's built-in settings, before the configuration file is read.
_POSTGRES_DEFAULTS = {
    spec.canonical_name(): parse_postgres_value(spec.default, spec) if spec.default is not None else None
    for spec in POSTGRES_OPTIONS
}


class SimulatedPostgres(SimulatedDatabase):
    """Simulated PostgreSQL database server driven by ``postgresql.conf``."""

    name = "Postgres"
    config_filename = "postgresql.conf"
    config_dialect = "pgconf"
    default_text = DEFAULT_POSTGRESQL_CONF
    parse_error = "syntax error in configuration file: {error}"
    process_name = "postgres"

    def _defaults(self) -> Mapping[str, object]:
        return _POSTGRES_DEFAULTS

    def _read_nodes(self, tree: ConfigTree) -> Iterator[ConfigNode]:
        # the file is flat: every directive counts, and a section is an error
        return (node for node in tree.walk() if node.kind in ("directive", "section"))

    def _apply(self, node: Directive, settings: dict[str, object], warnings: list[str]) -> str | None:
        if node.kind == "section":
            return f'syntax error in configuration file: unexpected section "{node.name}"'
        directive_name = node.name or ""
        value = node.value
        spec = POSTGRES_OPTIONS.resolve(directive_name, allow_prefix=False, case_sensitive=False)
        if spec is None:
            return f'unrecognized configuration parameter "{directive_name}"'
        if value is None or value.strip() == "":
            return f'parameter "{spec.name}" requires a value'
        try:
            settings[spec.canonical_name()] = parse_postgres_value(value, spec)
        except PostgresValueError as exc:
            return f"FATAL: {exc}"
        return None

    def _check_settings(self, settings: Mapping[str, object]) -> str | None:
        for constraint in CROSS_CONSTRAINTS:
            value = settings.get(constraint.parameter)
            related = settings.get(constraint.related)
            if value is None or related is None:
                continue
            if not constraint.check(float(value), float(related)):
                return f"FATAL: {constraint.message} (got {value} vs {related})"
        return None
