"""Simulated OpenSSH sshd server.

The simulation reproduces sshd's configuration handling, which mixes
strict and dangerously silent behaviours (exactly the blend the paper's
methodology is designed to expose):

* unknown keywords abort startup (``Bad configuration option: Foo``),
* keywords are case-insensitive (``port`` == ``Port``; the paper's
  mixed-case structural variation is *supported*),
* malformed integer / yes-no / enum arguments abort startup,
* a keyword given without an argument aborts startup (``missing argument``),
* omitting every ``HostKey`` aborts startup (``no hostkeys available``) --
  a *detected* whole-directive omission,
* a **repeated** single-value keyword is silently ignored: sshd keeps the
  *first* value, so a conflicting copy-paste duplicate never surfaces at
  startup -- the functional login probe is the only thing that can catch
  it (and only when the stale value breaks the login path),
* ``Match`` blocks accept only a subset of keywords
  (``Directive 'Port' is not allowed within a Match block``) and only the
  known criteria (``Unsupported Match attribute``).

The functional diagnosis mirrors what an administrator would do: open an
SSH connection to the configured port and log in as a regular user.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.infoset import ConfigNode, ConfigSet
from repro.sut.base import FunctionalTest, StartResult, SystemUnderTest
from repro.sut.functional import ssh_suite
from repro.sut.options import OptionSpec
from repro.sut.sshd.options import (
    DEFAULT_SSHD_CONFIG,
    MATCH_ALLOWED_KEYWORDS,
    MATCH_CRITERIA,
    REPEATABLE_KEYWORDS,
    SSHD_OPTIONS,
)

__all__ = ["SimulatedSshd"]

_BOOL_VALUES = {"yes": True, "no": False}


class SimulatedSshd(SystemUnderTest):
    """Simulated OpenSSH daemon driven by ``sshd_config``."""

    name = "sshd"
    config_filename = "sshd_config"
    parse_error = "sshd_config: {error}"

    def __init__(self, default_config: str | None = None):
        self._default_config = default_config if default_config is not None else DEFAULT_SSHD_CONFIG
        self._running = False
        #: Effective global settings after the last successful start.
        self.effective_settings: dict[str, object] = {}
        #: Parsed Match blocks: (criteria dict, overrides dict) pairs.
        self.match_blocks: list[tuple[dict[str, str], dict[str, object]]] = []
        self.listen_ports: list[int] = []
        self.host_keys: list[str] = []

    # --------------------------------------------------------------- interface
    def default_configuration(self) -> dict[str, str]:
        return {self.config_filename: self._default_config}

    def dialect_for(self, filename: str) -> str:
        return "sshdconf"

    def functional_tests(self) -> list[FunctionalTest]:
        return ssh_suite(port=22)

    def is_running(self) -> bool:
        return self._running

    def stop(self) -> None:
        self._running = False

    # ------------------------------------------------------------------ start
    def _start_from_trees(self, trees: ConfigSet, files: Mapping[str, str]) -> StartResult:
        """Validate and bring up the daemon from the parsed ``sshd_config``."""
        tree = trees.get(self.config_filename)
        settings: dict[str, object] = {
            spec.canonical_name(): self._default_for(spec) for spec in SSHD_OPTIONS
        }
        ports: list[int] = []
        host_keys: list[str] = []
        accumulated: dict[str, list[str]] = {}
        assigned: set[str] = set()

        for node in tree.root.children:
            if node.kind == "section":
                break  # Match blocks are validated separately below
            if node.kind != "directive":
                continue
            error = self._apply_keyword(
                node, settings, ports, host_keys, accumulated, assigned
            )
            if error is not None:
                return StartResult.failed(error)

        match_blocks: list[tuple[dict[str, str], dict[str, object]]] = []
        for section in tree.root.children_of_kind("section"):
            criteria, error = self._parse_criteria(section)
            if error is not None:
                return StartResult.failed(error)
            overrides: dict[str, object] = {}
            override_accumulated: dict[str, list[str]] = {}
            override_assigned: set[str] = set()
            for node in section.children_of_kind("directive"):
                spec = SSHD_OPTIONS.get(node.name or "")
                if spec is None:
                    return StartResult.failed(
                        f"{self.config_filename}: Bad configuration option: {node.name}"
                    )
                if spec.canonical_name() not in MATCH_ALLOWED_KEYWORDS:
                    return StartResult.failed(
                        f"Directive '{spec.name}' is not allowed within a Match block"
                    )
                error = self._apply_keyword(
                    node, overrides, [], [], override_accumulated, override_assigned
                )
                if error is not None:
                    return StartResult.failed(error)
            for key, values in override_accumulated.items():
                overrides[key] = list(values)
            match_blocks.append((criteria, overrides))

        if not host_keys:
            return StartResult.failed("sshd: no hostkeys available -- exiting.")

        for key, values in accumulated.items():
            settings[key] = list(values)
        self.effective_settings = settings
        self.match_blocks = match_blocks
        self.listen_ports = ports or [22]
        self.host_keys = host_keys
        self._running = True
        return StartResult.ok()

    def _observable_state(self) -> tuple:
        return (self.effective_settings, self.match_blocks, self.listen_ports, self.host_keys)

    # ----------------------------------------------------------------- helpers
    @staticmethod
    def _default_for(spec: OptionSpec) -> object:
        if spec.kind == "int" and spec.default is not None:
            return int(spec.default)
        if spec.kind == "bool" and spec.default is not None:
            return _BOOL_VALUES[spec.default]
        return spec.default

    def _apply_keyword(
        self,
        node: ConfigNode,
        settings: dict[str, object],
        ports: list[int],
        host_keys: list[str],
        accumulated: dict[str, list[str]],
        assigned: set[str],
    ) -> str | None:
        keyword = node.name or ""
        spec = SSHD_OPTIONS.get(keyword)
        if spec is None:
            return f"{self.config_filename}: Bad configuration option: {keyword}"
        key = spec.canonical_name()
        value = (node.value or "").strip()
        if not value:
            return f"{self.config_filename}: {spec.name}: missing argument."

        if key == "port":
            if not (value.isascii() and value.isdigit()) or not 1 <= int(value) <= 65535:
                return f"{self.config_filename}: Badly formatted port number."
            ports.append(int(value))
            return None
        if key == "hostkey":
            host_keys.append(value)
            return None
        if key in REPEATABLE_KEYWORDS:
            accumulated.setdefault(key, []).append(value)
            return None
        # single-value keyword: validate, then first occurrence wins --
        # later (possibly conflicting) duplicates are silently ignored
        parsed, error = self._parse_value(spec, value)
        if error is not None:
            return error
        if key not in assigned:
            settings[key] = parsed
            assigned.add(key)
        return None

    def _parse_value(self, spec: OptionSpec, value: str) -> tuple[object, str | None]:
        if spec.kind == "int":
            body = value.strip()
            digits = body.lstrip("-")
            if not (digits.isascii() and digits.isdigit()):
                return None, f"{self.config_filename}: {spec.name}: integer expected."
            number = int(body)
            if spec.minimum is not None and number < spec.minimum:
                return None, f"{self.config_filename}: {spec.name}: out of range."
            if spec.maximum is not None and number > spec.maximum:
                return None, f"{self.config_filename}: {spec.name}: out of range."
            return number, None
        if spec.kind == "bool":
            parsed = _BOOL_VALUES.get(value.strip().lower())
            if parsed is None:
                return None, f"{self.config_filename}: {spec.name}: bad yes/no argument: {value}"
            return parsed, None
        if spec.kind == "enum":
            for choice in spec.choices:
                if value.strip().lower() == choice.lower():
                    return choice, None
            return None, f"{self.config_filename}: {spec.name}: bad argument: {value}"
        return value, None

    def _parse_criteria(self, section: ConfigNode) -> tuple[dict[str, str], str | None]:
        words = (section.value or "").split()
        if not words:
            return {}, f"{self.config_filename}: Match: missing argument."
        if len(words) == 1 and words[0].lower() == "all":
            return {"all": "all"}, None
        if len(words) % 2 != 0:
            return {}, f"{self.config_filename}: Match: criteria without an argument"
        criteria: dict[str, str] = {}
        for attribute, argument in zip(words[::2], words[1::2]):
            lowered = attribute.lower()
            if lowered not in MATCH_CRITERIA:
                return {}, f"{self.config_filename}: Unsupported Match attribute {attribute}"
            criteria[lowered] = argument
        return criteria, None

    # --------------------------------------------------------------- behaviour
    def settings_for(self, user: str) -> dict[str, object]:
        """Effective settings for one login user (Match overrides applied)."""
        effective = dict(self.effective_settings)
        for criteria, overrides in self.match_blocks:
            if self._criteria_match(criteria, user):
                effective.update(overrides)
        return effective

    @staticmethod
    def _criteria_match(criteria: Mapping[str, str], user: str) -> bool:
        if "all" in criteria:
            return True
        matched = False
        for attribute, argument in criteria.items():
            if attribute == "user":
                if user not in argument.split(","):
                    return False
                matched = True
            # host/address/group criteria never match the simulated client
            elif attribute in ("group", "host", "address", "localaddress", "localport"):
                return False
        return matched

    def ssh_login(self, user: str = "admin", port: int = 22) -> str:
        """Simulate an SSH connection plus password/pubkey login.

        Returns the server banner on success; raises on anything an
        interactive ``ssh`` invocation would fail on.
        """
        if not self._running:
            raise ConnectionRefusedError("sshd is not running")
        if port not in self.listen_ports:
            raise ConnectionRefusedError(f"nothing is listening on port {port}")
        settings = self.settings_for(user)
        allow = settings.get("allowusers")
        if allow:
            allowed = allow if isinstance(allow, list) else [str(allow)]
            names = {name for entry in allowed for name in str(entry).split()}
            if user not in names:
                raise PermissionError(f"Permission denied for user {user!r} (AllowUsers)")
        deny = settings.get("denyusers")
        if deny:
            denied = deny if isinstance(deny, list) else [str(deny)]
            names = {name for entry in denied for name in str(entry).split()}
            if user in names:
                raise PermissionError(f"Permission denied for user {user!r} (DenyUsers)")
        if user == "root" and settings.get("permitrootlogin") == "no":
            raise PermissionError("Permission denied (root login disabled)")
        if not (
            settings.get("passwordauthentication")
            or settings.get("pubkeyauthentication")
            or settings.get("challengeresponseauthentication")
        ):
            raise PermissionError("Permission denied (no authentication methods enabled)")
        return "SSH-2.0-OpenSSH_7.4"
