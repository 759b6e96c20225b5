"""Simulated MySQL server.

The simulation reproduces the configuration-handling behaviour of the MySQL
5.1 server the paper studied, including the weaknesses Section 5.2 reports:

* the option file is shared with the auxiliary tools, and the server only
  parses its own groups at startup -- errors in the other sections remain
  latent until the corresponding tool runs;
* numeric values that are out of bounds are silently adjusted;
* a multiplier suffix stops value parsing, so ``1M0`` is accepted as ``1M``;
* values *starting* with a multiplier letter (hence not numeric at all) are
  silently replaced by the default;
* directives given without a value are accepted and the default is used;
* directive names are matched case-sensitively (mixed-case spellings are
  rejected as unknown variables) but may be abbreviated to any unambiguous
  prefix, and ``-`` and ``_`` are interchangeable (paper Table 2).
"""

from __future__ import annotations

import string
from typing import Iterator, Mapping

from repro.core.infoset import ConfigNode, ConfigTree
from repro.errors import ParseError
from repro.parsers.base import get_dialect
from repro.sut.database import Directive, SimulatedDatabase
from repro.sut.mysql.options import AUXILIARY_SECTIONS, CLIENT_OPTIONS, DEFAULT_MY_CNF, MYSQLD_OPTIONS
from repro.sut.options import OptionSpec, OptionTable

__all__ = ["SimulatedMySQL", "parse_mysql_numeric", "MySqlValueError"]

_MULTIPLIERS = {"k": 1024, "m": 1024**2, "g": 1024**3}
_BOOL_VALUES = {"0": False, "1": True, "on": True, "off": False, "true": True, "false": False}

#: Section names whose directives the server itself interprets at startup.
_SERVER_SECTIONS = ("mysqld", "server")


class MySqlValueError(ValueError):  # conferr: allow[harness/foreign-exception]
    """A numeric option value was rejected by the option parser."""


def parse_mysql_numeric(text: str, spec: OptionSpec) -> tuple[int | None, list[str]]:
    """Parse a numeric option value the way MySQL's option parser does.

    Returns ``(effective_value, warnings)``.  The behaviour reproduces what
    the paper reports for MySQL 5.1:

    * a value whose digits are followed by a *multiplier* letter (K/M/G)
      stops parsing there, so ``1M0`` is accepted as one megabyte (flaw),
    * a value with no leading digits at all (``M16``) is silently ignored
      and the built-in default used (flaw; ``effective_value`` is None),
    * an out-of-bounds value is silently adjusted into range (flaw),
    * digits followed by an *unknown* suffix (``33o6``) are rejected with an
      "Unknown suffix" error, which aborts startup --
      :class:`MySqlValueError` is raised.
    """
    warnings: list[str] = []
    stripped = text.strip()
    index = 0
    if index < len(stripped) and stripped[index] in "+-":
        index += 1
    digits_start = index
    while index < len(stripped) and stripped[index] in string.digits:
        index += 1
    if index == digits_start:
        # No leading digits at all ("M16", "abc"): the value is silently
        # ignored and the built-in default used instead.
        warnings.append(
            f"option '{spec.name}': value '{text}' is not numeric; using default {spec.default!r}"
        )
        return None, warnings
    magnitude = int(stripped[:index])
    if index < len(stripped):
        suffix = stripped[index]
        if suffix.lower() in _MULTIPLIERS:
            magnitude *= _MULTIPLIERS[suffix.lower()]
            if len(stripped) > index + 1:
                warnings.append(
                    f"option '{spec.name}': characters after the multiplier in '{text}' were ignored"
                )
        else:
            raise MySqlValueError(
                f"Unknown suffix '{suffix}' used for variable '{spec.name}' (value '{text}')"
            )
    clamped = magnitude
    if spec.minimum is not None and clamped < spec.minimum:
        clamped = int(spec.minimum)
    if spec.maximum is not None and clamped > spec.maximum:
        clamped = int(spec.maximum)
    if clamped != magnitude:
        warnings.append(
            f"option '{spec.name}': value {magnitude} is out of bounds and was adjusted to {clamped}"
        )
    return clamped, warnings


def _default_for(spec: OptionSpec) -> object:
    if spec.kind in ("int", "size") and spec.default is not None:
        value, _ = parse_mysql_numeric(spec.default, spec)
        return value
    if spec.flag:
        return False
    return spec.default


#: mysqld's built-in settings, before the option file is read.
_MYSQLD_DEFAULTS = {spec.canonical_name(): _default_for(spec) for spec in MYSQLD_OPTIONS}


class SimulatedMySQL(SimulatedDatabase):
    """Simulated MySQL database server driven by a ``my.cnf`` option file."""

    name = "MySQL"
    config_filename = "my.cnf"
    config_dialect = "ini"
    default_text = DEFAULT_MY_CNF
    missing_file_error = "option file {filename} is missing"
    parse_error = "could not parse option file: {error}"
    process_name = "mysqld"

    def _defaults(self) -> Mapping[str, object]:
        return _MYSQLD_DEFAULTS

    def _read_nodes(self, tree: ConfigTree) -> Iterator[ConfigNode]:
        # Shared option file: the server reads only its own groups.  The
        # auxiliary tools' groups stay unread, so errors there stay
        # undetected for now, and directives placed before any [section]
        # header belong to no group and are ignored like them.
        for section in tree.root.children_of_kind("section"):
            if (section.name or "").strip().lower() in _SERVER_SECTIONS:
                yield from section.children_of_kind("directive")

    def _apply(self, node: Directive, settings: dict[str, object], warnings: list[str]) -> str | None:
        """Apply one ``[mysqld]`` directive; return an error message or None."""
        directive_name = node.name or ""
        value = node.value
        spec = MYSQLD_OPTIONS.resolve(directive_name, allow_prefix=True, case_sensitive=True)
        if spec is None:
            return f"unknown variable '{directive_name}'"
        key = spec.canonical_name()

        if spec.flag:
            if value in (None, ""):
                settings[key] = True
                return None
            parsed = _BOOL_VALUES.get(value.strip().lower())
            if parsed is None:
                return f"option '{spec.name}': invalid boolean value '{value}'"
            settings[key] = parsed
            return None

        if value is None or value.strip() == "":
            # Valued directive written without a value: accepted, default used.
            warnings.append(f"option '{spec.name}': no value given; using default {spec.default!r}")
            return None

        if spec.kind in ("int", "size"):
            try:
                parsed_value, value_warnings = parse_mysql_numeric(value, spec)
            except MySqlValueError as exc:
                return str(exc)
            warnings.extend(value_warnings)
            if parsed_value is not None:
                settings[key] = parsed_value
            return None

        if spec.kind == "bool":
            parsed = _BOOL_VALUES.get(value.strip().lower())
            if parsed is None:
                return f"option '{spec.name}': invalid boolean value '{value}'"
            settings[key] = parsed
            return None

        if spec.kind == "enum":
            for choice in spec.choices:
                if value.strip().lower() == choice.lower():
                    settings[key] = choice
                    return None
            return f"option '{spec.name}': invalid value '{value}'"

        # string / path values are accepted as-is
        settings[key] = value
        return None

    # ----------------------------------------------------- auxiliary-tool check
    def check_auxiliary_tools(self, files: Mapping[str, str]) -> dict[str, list[str]]:
        """Parse the auxiliary-tool groups the way the tools themselves would.

        Returns a mapping of section name to the list of errors a tool run
        would report.  The server's own startup never performs these checks;
        this method exists to demonstrate the latent-error design flaw the
        paper describes (errors surface only when e.g. the nightly backup
        cron job runs).
        """
        text = files.get(self.config_filename, "")
        try:
            tree = get_dialect("ini").parse(text, filename=self.config_filename)
        except ParseError as exc:
            return {"<file>": [str(exc)]}
        problems: dict[str, list[str]] = {}
        known_tables: dict[str, OptionTable] = {"client": CLIENT_OPTIONS}
        for section in tree.root.children_of_kind("section"):
            section_name = (section.name or "").strip().lower()
            if section_name not in AUXILIARY_SECTIONS:
                continue
            table = known_tables.get(section_name)
            for directive in section.children_of_kind("directive"):
                if table is not None and table.resolve(directive.name or "", allow_prefix=True) is None:
                    problems.setdefault(section_name, []).append(
                        f"unknown option '{directive.name}' for [{section_name}]"
                    )
        return problems
