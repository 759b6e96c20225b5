"""Primitive error templates: delete, duplicate, move, insert and modify.

These correspond to the "simplest class of templates" of the paper
(Section 3.3): they take a description of the target nodes -- a path
expression in our XPath subset -- and describe one mutation per eligible
node (or per eligible node/destination pair for moves).
"""

from __future__ import annotations

import random
from abc import abstractmethod
from typing import Callable, Iterable, Sequence

from repro.core.infoset import ConfigNode, ConfigSet
from repro.core.path import PathExpr, parse_path
from repro.core.templates.base import (
    AddressIndex,
    DeleteOperation,
    FaultScenario,
    InsertOperation,
    MoveOperation,
    NodeAddress,
    SetFieldOperation,
    Template,
    resolve_address,
)
from repro.errors import TemplateError

__all__ = [
    "TargetedTemplate",
    "DeleteTemplate",
    "DuplicateTemplate",
    "MoveTemplate",
    "InsertTemplate",
    "SetValueTemplate",
    "ModifyTemplate",
]


def _compile(path: str | PathExpr) -> PathExpr:
    return path if isinstance(path, PathExpr) else parse_path(path)


def _node_label(node: ConfigNode) -> str:
    """Short label used in scenario ids and descriptions."""
    if node.name:
        return f"{node.kind}:{node.name}"
    if node.value:
        return f"{node.kind}={node.value}"
    return node.kind


class TargetedTemplate(Template):
    """Base for templates whose candidates are selected by a path expression.

    ``generate`` takes an optional :class:`AddressIndex` of ``config_set``,
    so a caller running several targeted templates over one set walks it
    once (the structural plugin builds one per ``generate``); without one,
    each call builds its own.
    """

    def __init__(self, target: str | PathExpr, category: str | None = None):
        self.target = _compile(target)
        if category is not None:
            self.category = category

    def select_targets(
        self, config_set: ConfigSet, addresses: AddressIndex | None = None
    ) -> list[tuple[ConfigNode, NodeAddress]]:
        """Return every (node, address) matched by the target expression.

        Addresses come from a single-walk :class:`AddressIndex` (pass one in
        to share it across several selections on the same set).
        """
        addresses = addresses or AddressIndex(config_set)
        matches: list[tuple[ConfigNode, NodeAddress]] = []
        for tree in config_set:
            for node in self.target.select(tree.root):
                matches.append((node, addresses.address_of(node)))
        return matches


class DeleteTemplate(TargetedTemplate):
    """Omission errors: remove each matched node (directive/section/token)."""

    category = "omission"

    def generate(
        self, config_set: ConfigSet, rng: random.Random, addresses: AddressIndex | None = None
    ) -> list[FaultScenario]:
        scenarios = []
        for ordinal, (node, address) in enumerate(self.select_targets(config_set, addresses)):
            scenarios.append(
                FaultScenario(
                    scenario_id=f"delete-{ordinal}-{_node_label(node)}",
                    description=f"omit {_node_label(node)} from {address.tree}",
                    category=self.category,
                    operations=(DeleteOperation(address),),
                    metadata={"target": str(address), "node": _node_label(node)},
                )
            )
        return scenarios


class DuplicateTemplate(TargetedTemplate):
    """Duplication errors: re-insert a copy of each matched node.

    The copy is appended to the same parent by default (modelling a stray
    copy-paste); when ``destination`` is given, the copy is inserted under
    each matching destination node instead.
    """

    category = "duplication"

    def __init__(
        self,
        target: str | PathExpr,
        destination: str | PathExpr | None = None,
        category: str | None = None,
    ):
        super().__init__(target, category)
        self.destination = _compile(destination) if destination is not None else None

    def generate(
        self, config_set: ConfigSet, rng: random.Random, addresses: AddressIndex | None = None
    ) -> list[FaultScenario]:
        scenarios = []
        ordinal = 0
        addresses = addresses or AddressIndex(config_set)
        for node, address in self.select_targets(config_set, addresses):
            if self.destination is None:
                # a root has no parent to paste the copy into
                parents = [address.parent()] if address.path else []
                destinations = [(resolve_address(config_set, p), p) for p in parents]
            else:
                destinations = [
                    (dest, addresses.address_of(dest))
                    for tree in config_set
                    for dest in self.destination.select(tree.root)
                ]
            for dest_node, dest_address in destinations:
                scenarios.append(
                    FaultScenario(
                        scenario_id=f"duplicate-{ordinal}-{_node_label(node)}",
                        description=(
                            f"duplicate {_node_label(node)} into "
                            f"{_node_label(dest_node)} of {dest_address.tree}"
                        ),
                        category=self.category,
                        operations=(InsertOperation(dest_address, node.clone()),),
                        metadata={
                            "target": str(address),
                            "destination": str(dest_address),
                            "node": _node_label(node),
                        },
                    )
                )
                ordinal += 1
        return scenarios


class MoveTemplate(TargetedTemplate):
    """Misplacement errors: move each matched node under a different parent.

    Destinations are selected by a second path expression; by default every
    (target, destination) pair yields one scenario, excluding the node's
    current parent and its own subtree.
    """

    category = "misplacement"

    def __init__(
        self,
        target: str | PathExpr,
        destination: str | PathExpr,
        category: str | None = None,
        include_current_parent: bool = False,
    ):
        super().__init__(target, category)
        self.destination = _compile(destination)
        self.include_current_parent = include_current_parent

    def generate(
        self, config_set: ConfigSet, rng: random.Random, addresses: AddressIndex | None = None
    ) -> list[FaultScenario]:
        scenarios = []
        ordinal = 0
        addresses = addresses or AddressIndex(config_set)
        # destinations do not depend on the target: select and label them once
        destinations = []
        for tree in config_set:
            for dest in self.destination.select(tree.root):
                dest_address = addresses.address_of(dest)
                destinations.append((dest_address, str(dest_address), _node_label(dest)))
        for node, address in self.select_targets(config_set, addresses):
            label, where = _node_label(node), str(address)
            for dest_address, dest_where, dest_label in destinations:
                if dest_address.tree == address.tree:
                    if dest_address.path[: len(address.path)] == address.path:
                        continue  # the node itself or its own subtree
                    if not self.include_current_parent and dest_address.path == address.path[:-1]:
                        continue
                scenarios.append(
                    FaultScenario(
                        scenario_id=f"move-{ordinal}-{label}",
                        description=f"move {label} from {where} into {dest_label} ({dest_where})",
                        category=self.category,
                        operations=(MoveOperation(address, dest_address),),
                        metadata={"target": where, "destination": dest_where, "node": label},
                    )
                )
                ordinal += 1
        return scenarios


class InsertTemplate(TargetedTemplate):
    """Foreign-content errors: insert a given node under each matched parent.

    Models the rule-based "borrowing" of a directive or section from another
    program's configuration (paper Section 2.2).
    """

    category = "foreign-insertion"

    def __init__(
        self,
        destination: str | PathExpr,
        nodes: Sequence[ConfigNode] | ConfigNode,
        category: str | None = None,
    ):
        super().__init__(destination, category)
        self.nodes = [nodes] if isinstance(nodes, ConfigNode) else list(nodes)
        if not self.nodes:
            raise TemplateError("InsertTemplate requires at least one node to insert")

    def generate(
        self, config_set: ConfigSet, rng: random.Random, addresses: AddressIndex | None = None
    ) -> list[FaultScenario]:
        scenarios = []
        ordinal = 0
        for parent, parent_address in self.select_targets(config_set, addresses):
            for node in self.nodes:
                scenarios.append(
                    FaultScenario(
                        scenario_id=f"insert-{ordinal}-{_node_label(node)}",
                        description=(
                            f"insert foreign {_node_label(node)} into "
                            f"{_node_label(parent)} of {parent_address.tree}"
                        ),
                        category=self.category,
                        operations=(InsertOperation(parent_address, node.clone()),),
                        metadata={
                            "destination": str(parent_address),
                            "node": _node_label(node),
                        },
                    )
                )
                ordinal += 1
        return scenarios


class ModifyTemplate(TargetedTemplate):
    """Abstract modify template (paper Section 3.3).

    Subclasses (the spelling submodels, for instance) override
    :meth:`mutations_for` to enumerate the possible replacement values of a
    node field; the base class turns each into a scenario.
    """

    category = "modification"
    #: Which field of the matched node is modified: "name", "value" or "attr:<k>".
    field_name: str = "value"

    @abstractmethod
    def mutations_for(
        self, node: ConfigNode, rng: random.Random
    ) -> Iterable[tuple[str, str]]:
        """Yield ``(mutation_label, new_field_value)`` pairs for ``node``."""

    def current_value(self, node: ConfigNode) -> str | None:
        """Current value of the modified field."""
        if self.field_name == "name":
            return node.name
        if self.field_name == "value":
            return node.value
        if self.field_name.startswith("attr:"):
            return node.attrs.get(self.field_name[len("attr:"):])
        raise TemplateError(f"unknown field {self.field_name!r}")

    def generate(
        self, config_set: ConfigSet, rng: random.Random, addresses: AddressIndex | None = None
    ) -> list[FaultScenario]:
        scenarios = []
        ordinal = 0
        for node, address in self.select_targets(config_set, addresses):
            original = self.current_value(node)
            for label, new_value in self.mutations_for(node, rng):
                scenarios.append(
                    FaultScenario(
                        scenario_id=f"modify-{ordinal}-{label}-{_node_label(node)}",
                        description=(
                            f"{label}: change {self.field_name} of {_node_label(node)} "
                            f"from {original!r} to {new_value!r}"
                        ),
                        category=self.category,
                        operations=(SetFieldOperation(address, self.field_name, new_value),),
                        metadata={
                            "target": str(address),
                            "node": _node_label(node),
                            "field": self.field_name,
                            "original": original,
                            "mutated": new_value,
                            "mutation": label,
                        },
                    )
                )
                ordinal += 1
        return scenarios


class SetValueTemplate(ModifyTemplate):
    """Concrete modify template driven by a user-supplied mutation function."""

    def __init__(
        self,
        target: str | PathExpr,
        mutator: Callable[[ConfigNode, random.Random], Iterable[tuple[str, str]]],
        field_name: str = "value",
        category: str | None = None,
    ):
        super().__init__(target, category)
        self.field_name = field_name
        self._mutator = mutator

    def mutations_for(self, node: ConfigNode, rng: random.Random) -> Iterable[tuple[str, str]]:
        return self._mutator(node, rng)
