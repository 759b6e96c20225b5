"""Omission/duplication error plugin: the whole-directive slips.

The paper's human-error taxonomy (Sections 2.2 and 4.2) contains two error
shapes the other plugins never inject in their *conflicting* form:

``omit-directive`` / ``omit-section``
    A directive (or a whole block) the administrator forgot to write.
    ``required_directives`` narrows the omissions to a set of directive
    names known to matter (e.g. ``HostKey`` for sshd, ``listen`` for
    nginx); by default every directive is a candidate -- any of them might
    be the required one.

``duplicate-conflict``
    The copy-paste slip: the same directive appears twice with *different*
    values.  Unlike the structural plugin's verbatim duplication, the copy
    carries a conflicting value, so the system's duplicate-handling policy
    is what decides the outcome: nginx refuses (``directive is
    duplicate``), MySQL silently keeps the *last* value, sshd silently
    keeps the *first* -- three different answers to the same slip.  The
    copy is inserted right behind the original (the place a stray paste
    usually lands, and the only spot every dialect can express).

Conflicting values are derived deterministically from the original via the
campaign RNG: numbers are doubled-or-incremented, booleans/toggles are
flipped, enumerated-looking words are case-flipped, and everything else
gets a path/name-style mangling -- always a *plausible* value of the same
shape, never random noise (plausibility is what lets the slip survive
superficial review, Section 2.1).
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.core.infoset import ConfigNode, ConfigSet
from repro.core.templates.base import (
    AddressIndex,
    DeleteOperation,
    FaultScenario,
    InsertOperation,
    NodeAddress,
)
from repro.core.views.structure_view import StructureView
from repro.errors import TemplateError
from repro.plugins.base import (
    ErrorGeneratorPlugin,
    positive_int_param,
    register_plugin,
    string_list_param,
)

__all__ = ["OmissionDuplicationPlugin", "conflicting_value"]

#: Value pairs flipped wholesale when a directive value matches one side.
_TOGGLES = {
    "on": "off", "off": "on",
    "yes": "no", "no": "yes",
    "true": "false", "false": "true",
    "1": "0", "0": "1",
}


def conflicting_value(original: str, rng: random.Random) -> str:
    """A plausible value of the same shape as ``original`` that conflicts.

    Deterministic given the RNG state; never returns ``original`` itself.
    """
    stripped = original.strip()
    lowered = stripped.lower()
    if lowered in _TOGGLES:
        flipped = _TOGGLES[lowered]
        return flipped.upper() if stripped.isupper() else flipped
    if stripped.lstrip("-").isdigit():
        number = int(stripped)
        # doubling keeps magnitudes plausible; +1 covers 0 and -1
        doubled = number * 2
        return str(doubled if doubled not in (number, 0) else number + 1)
    words = stripped.split()
    if len(words) > 1:
        # multi-word value: conflicting first word, rest kept
        return " ".join([conflicting_value(words[0], rng), *words[1:]])
    if any(char.isdigit() for char in stripped):
        # mixed token (ports in addresses, sizes, versions): bump each digit run
        return "".join(
            str((int(char) + 1) % 10) if char.isdigit() else char for char in stripped
        )
    if stripped and stripped != stripped.swapcase():
        alternative = stripped.swapcase()
    else:
        alternative = stripped + "2"
    # prefer a recognisable "other" spelling over pure noise
    return alternative if rng.random() < 0.5 else stripped + "2"


@register_plugin
class OmissionDuplicationPlugin(ErrorGeneratorPlugin):
    """Whole-directive omission, section omission and conflicting duplication.

    Parameters
    ----------
    include:
        Which error classes to generate; any subset of
        :data:`ALL_CLASSES`.
    required_directives:
        When given, ``omit-directive`` only drops directives with these
        names (matched case-insensitively) -- the "required" directives of
        the system under test.  Omission of anything else is still a valid
        experiment, just not one this run asks for.
    max_scenarios_per_class:
        When set, a deterministic random subset of this size is kept per
        error class.
    """

    name = "omission"
    param_names = ("include", "required_directives", "max_scenarios_per_class")

    ALL_CLASSES = ("omit-directive", "omit-section", "duplicate-conflict")

    def __init__(
        self,
        include: Sequence[str] | None = None,
        required_directives: Sequence[str] | None = None,
        max_scenarios_per_class: int | None = None,
    ):
        self.include = tuple(include) if include is not None else self.ALL_CLASSES
        unknown = set(self.include) - set(self.ALL_CLASSES)
        if unknown:
            raise TemplateError(f"unknown omission error classes: {sorted(unknown)}")
        self.required_directives = (
            tuple(required_directives) if required_directives is not None else None
        )
        self.max_scenarios_per_class = max_scenarios_per_class
        self._view = StructureView()

    @property
    def view(self) -> StructureView:
        return self._view

    def manifest_params(self) -> dict:
        return {
            "include": list(self.include),
            "required_directives": (
                list(self.required_directives) if self.required_directives is not None else None
            ),
            "max_scenarios_per_class": self.max_scenarios_per_class,
        }

    @classmethod
    def from_params(cls, params) -> "OmissionDuplicationPlugin":
        cls.check_param_names(params)
        include = None
        if params.get("include") is not None:
            include = string_list_param("include", params["include"], allowed=cls.ALL_CLASSES)
        required = None
        if params.get("required_directives") is not None:
            required = string_list_param("required_directives", params["required_directives"])
        return cls(
            include=include,
            required_directives=required,
            max_scenarios_per_class=positive_int_param(
                "max_scenarios_per_class", params.get("max_scenarios_per_class")
            ),
        )

    # ---------------------------------------------------------------- helpers
    def _wanted_directive(self, node: ConfigNode) -> bool:
        if self.required_directives is None:
            return True
        name = (node.name or "").lower()
        return any(name == wanted.lower() for wanted in self.required_directives)

    @staticmethod
    def _label(node: ConfigNode) -> str:
        return f"{node.kind}:{node.name}" if node.name else node.kind

    def _subset(self, scenarios: list[FaultScenario], rng: random.Random) -> list[FaultScenario]:
        if self.max_scenarios_per_class is None or len(scenarios) <= self.max_scenarios_per_class:
            return scenarios
        picked = rng.sample(range(len(scenarios)), self.max_scenarios_per_class)
        return [scenarios[index] for index in sorted(picked)]

    # --------------------------------------------------------------- generate
    def generate(self, view_set: ConfigSet, rng: random.Random) -> list[FaultScenario]:
        addresses = AddressIndex(view_set)
        scenarios: list[FaultScenario] = []
        builders = {
            "omit-directive": self._omit_directives,
            "omit-section": self._omit_sections,
            "duplicate-conflict": self._duplicate_conflicts,
        }
        for error_class in self.include:
            scenarios.extend(self._subset(builders[error_class](view_set, addresses, rng), rng))
        return scenarios

    def _omit_directives(
        self, view_set: ConfigSet, addresses: AddressIndex, rng: random.Random
    ) -> list[FaultScenario]:
        scenarios = []
        ordinal = 0
        for tree in view_set:
            for node in tree.walk():
                if node.kind != "directive" or not self._wanted_directive(node):
                    continue
                address = addresses.address_of(node)
                scenarios.append(
                    FaultScenario(
                        scenario_id=f"omission-directive-{ordinal}-{self._label(node)}",
                        description=f"forget to write {self._label(node)} in {address.tree}",
                        category="omission-directive",
                        operations=(DeleteOperation(address),),
                        metadata={
                            "target": str(address),
                            "node": self._label(node),
                            "directive": node.name,
                        },
                    )
                )
                ordinal += 1
        return scenarios

    def _omit_sections(
        self, view_set: ConfigSet, addresses: AddressIndex, rng: random.Random
    ) -> list[FaultScenario]:
        scenarios = []
        ordinal = 0
        for tree in view_set:
            for node in tree.walk():
                if node.kind != "section":
                    continue
                address = addresses.address_of(node)
                scenarios.append(
                    FaultScenario(
                        scenario_id=f"omission-section-{ordinal}-{self._label(node)}",
                        description=f"forget the whole {self._label(node)} block of {address.tree}",
                        category="omission-section",
                        operations=(DeleteOperation(address),),
                        metadata={
                            "target": str(address),
                            "node": self._label(node),
                            "section": node.name,
                        },
                    )
                )
                ordinal += 1
        return scenarios

    def _duplicate_conflicts(
        self, view_set: ConfigSet, addresses: AddressIndex, rng: random.Random
    ) -> list[FaultScenario]:
        scenarios = []
        ordinal = 0
        for tree in view_set:
            for node in tree.walk():
                if node.kind != "directive" or node.value is None or not node.value.strip():
                    continue
                address = addresses.address_of(node)
                if not address.path:
                    continue
                conflicted = conflicting_value(node.value, rng)
                copy = node.clone()
                copy.value = conflicted
                parent_address = address.parent()
                index = address.path[-1] + 1
                scenarios.append(
                    FaultScenario(
                        scenario_id=f"duplicate-conflict-{ordinal}-{self._label(node)}",
                        description=(
                            f"paste a second {self._label(node)} with conflicting "
                            f"value {conflicted!r} (original {node.value!r})"
                        ),
                        category="duplicate-conflict",
                        operations=(InsertOperation(parent_address, copy, index=index),),
                        metadata={
                            "target": str(address),
                            "node": self._label(node),
                            "directive": node.name,
                            "original": node.value,
                            "conflicting": conflicted,
                        },
                    )
                )
                ordinal += 1
        return scenarios
