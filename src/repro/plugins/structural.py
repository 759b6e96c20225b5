"""Structural-errors plugin and structural-variations generator.

Two plugins live in this module:

:class:`StructuralErrorsPlugin`
    Injects the structural *mistakes* of Sections 2.2 and 4.2: omission of
    directives or sections, duplication of directives (stray copy-paste),
    misplacement of directives into other sections, and insertion of foreign
    directives "borrowed" from another program's configuration.

:class:`StructuralVariationsPlugin`
    Generates the semantically neutral *variations* of Section 5.3 used to
    probe how flexible a parser is: reordering sections, reordering
    directives inside a section, mixed-case directive names, extra
    whitespace around separators and truncated (but unambiguous) directive
    names.  A robust system should accept all of them.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.core.infoset import ConfigNode, ConfigSet
from repro.core.templates.base import (
    FaultScenario,
    NodeAddress,
    PermuteChildrenOperation,
    SetFieldOperation,
)
from repro.core.templates.compose import RandomSubsetTemplate, UnionTemplate
from repro.core.templates.primitives import (
    DeleteTemplate,
    DuplicateTemplate,
    InsertTemplate,
    MoveTemplate,
)
from repro.core.views.structure_view import StructureView
from repro.errors import TemplateError
from repro.plugins.base import (
    ErrorGeneratorPlugin,
    positive_int_param,
    register_plugin,
    string_list_param,
)

__all__ = [
    "StructuralErrorsPlugin",
    "StructuralVariationsPlugin",
    "PermuteChildrenOperation",
    "VARIATION_CLASSES",
]


# ----------------------------------------------------------- structural mistakes
@register_plugin
class StructuralErrorsPlugin(ErrorGeneratorPlugin):
    """Omission, duplication, misplacement and foreign-directive insertion.

    Parameters
    ----------
    include:
        Which error classes to generate; any subset of ``{"omit-directive",
        "omit-section", "duplicate-directive", "misplace-directive",
        "foreign-directive"}``.
    foreign_directives:
        Directive nodes borrowed from another system's configuration, used by
        the ``foreign-directive`` class (rule-based "borrowing", Section 2.2).
    max_scenarios_per_class:
        When set, a random subset of this size is kept per error class.
    """

    name = "structural"
    param_names = ("include", "max_scenarios_per_class")

    ALL_CLASSES = (
        "omit-directive",
        "omit-section",
        "duplicate-directive",
        "misplace-directive",
        "foreign-directive",
    )

    def __init__(
        self,
        include: Sequence[str] | None = None,
        foreign_directives: Sequence[ConfigNode] | None = None,
        max_scenarios_per_class: int | None = None,
    ):
        self.include = tuple(include) if include is not None else self.ALL_CLASSES
        unknown = set(self.include) - set(self.ALL_CLASSES)
        if unknown:
            raise TemplateError(f"unknown structural error classes: {sorted(unknown)}")
        self.foreign_directives = list(foreign_directives or [])
        self.max_scenarios_per_class = max_scenarios_per_class
        self._view = StructureView()

    @property
    def view(self) -> StructureView:
        return self._view

    def manifest_params(self) -> dict:
        return {
            "include": list(self.include),
            "max_scenarios_per_class": self.max_scenarios_per_class,
        }

    @classmethod
    def from_params(cls, params) -> "StructuralErrorsPlugin":
        cls.check_param_names(params)
        include = None
        if params.get("include") is not None:
            include = string_list_param("include", params["include"], allowed=cls.ALL_CLASSES)
        return cls(
            include=include,
            max_scenarios_per_class=positive_int_param(
                "max_scenarios_per_class", params.get("max_scenarios_per_class")
            ),
        )

    def _templates(self) -> list:
        templates = []
        if "omit-directive" in self.include:
            templates.append(DeleteTemplate("//directive", category="structure-omit-directive"))
        if "omit-section" in self.include:
            templates.append(DeleteTemplate("//section", category="structure-omit-section"))
        if "duplicate-directive" in self.include:
            templates.append(DuplicateTemplate("//directive", category="structure-duplicate"))
        if "misplace-directive" in self.include:
            templates.append(
                MoveTemplate("//directive", "//section", category="structure-misplace")
            )
        if "foreign-directive" in self.include and self.foreign_directives:
            templates.append(
                InsertTemplate("//section", self.foreign_directives, category="structure-foreign")
            )
        return templates

    def generate(self, view_set: ConfigSet, rng: random.Random) -> list[FaultScenario]:
        scenarios: list[FaultScenario] = []
        for template in self._templates():
            if self.max_scenarios_per_class is not None:
                template = RandomSubsetTemplate(template, self.max_scenarios_per_class)
            scenarios.extend(template.generate(view_set, rng))
        # namespacing avoids id collisions across classes
        return UnionTemplate([_Precomputed(scenarios)]).generate(view_set, rng)


class _Precomputed:
    """Internal template wrapper returning an already-computed scenario list."""

    category = "precomputed"

    def __init__(self, scenarios: list[FaultScenario]):
        self._scenarios = scenarios

    def generate(self, config_set: ConfigSet, rng: random.Random) -> list[FaultScenario]:
        return self._scenarios


# ---------------------------------------------------------- structural variations
#: Variation classes of Table 2, in the paper's order.
VARIATION_CLASSES = (
    "section-order",
    "directive-order",
    "separator-whitespace",
    "mixed-case-names",
    "truncated-names",
)


@register_plugin
class StructuralVariationsPlugin(ErrorGeneratorPlugin):
    """Semantically neutral variations of a configuration file (Section 5.3).

    For each requested variation class the plugin produces ``variants_per_class``
    scenarios, each derived with independent random choices.  A system that
    supports the variation class should accept every one of these files.

    Parameters
    ----------
    classes:
        Subset of :data:`VARIATION_CLASSES` to generate.
    variants_per_class:
        Number of variant configurations per class (the paper uses 10).
    whitespace_styles:
        Separator spellings tried by the ``separator-whitespace`` class.
    min_truncation:
        Minimum number of leading characters kept when truncating names.
    """

    name = "structural-variations"
    param_names = ("classes", "variants_per_class", "min_truncation")

    def __init__(
        self,
        classes: Sequence[str] | None = None,
        variants_per_class: int = 10,
        whitespace_styles: Sequence[str] = ("=", "  =  ", " =\t", "\t=\t"),
        min_truncation: int = 4,
    ):
        self.classes = tuple(classes) if classes is not None else VARIATION_CLASSES
        unknown = set(self.classes) - set(VARIATION_CLASSES)
        if unknown:
            raise TemplateError(f"unknown variation classes: {sorted(unknown)}")
        self.variants_per_class = variants_per_class
        self.whitespace_styles = tuple(whitespace_styles)
        self.min_truncation = min_truncation
        self._view = StructureView()

    @property
    def view(self) -> StructureView:
        return self._view

    def manifest_params(self) -> dict:
        return {
            "classes": list(self.classes),
            "variants_per_class": self.variants_per_class,
            "min_truncation": self.min_truncation,
        }

    @classmethod
    def from_params(cls, params) -> "StructuralVariationsPlugin":
        cls.check_param_names(params)
        classes = None
        if params.get("classes") is not None:
            classes = string_list_param("classes", params["classes"], allowed=VARIATION_CLASSES)
        variants = positive_int_param("variants_per_class", params.get("variants_per_class"))
        min_truncation = positive_int_param("min_truncation", params.get("min_truncation"))
        kwargs = {}
        if variants is not None:
            kwargs["variants_per_class"] = variants
        if min_truncation is not None:
            kwargs["min_truncation"] = min_truncation
        return cls(classes=classes, **kwargs)

    # ---------------------------------------------------------------- helpers
    @staticmethod
    def _containers(view_set: ConfigSet) -> list[tuple[ConfigNode, NodeAddress]]:
        """Nodes that hold directives, with their addresses."""
        containers = []
        for tree in view_set:
            for node, path in tree.root.walk_with_paths():
                if node.kind in ("file", "section") and node.children_of_kind("directive"):
                    containers.append((node, NodeAddress(tree.name, path)))
        return containers

    @staticmethod
    def _directives(view_set: ConfigSet) -> list[tuple[ConfigNode, NodeAddress]]:
        directives = []
        for tree in view_set:
            for node, path in tree.root.walk_with_paths():
                if node.kind == "directive" and node.name:
                    directives.append((node, NodeAddress(tree.name, path)))
        return directives

    # --------------------------------------------------------------- generate
    def generate(self, view_set: ConfigSet, rng: random.Random) -> list[FaultScenario]:
        scenarios: list[FaultScenario] = []
        for variation_class in self.classes:
            builder = getattr(self, "_build_" + variation_class.replace("-", "_"))
            for variant_index in range(self.variants_per_class):
                scenario = builder(view_set, rng, variant_index)
                if scenario is not None:
                    scenarios.append(scenario)
        return scenarios

    def _build_section_order(self, view_set, rng, variant_index) -> FaultScenario | None:
        operations = []
        for tree in view_set:
            sections = tree.root.children_of_kind("section")
            if len(sections) < 2:
                continue
            indices = [child.index_in_parent() for child in tree.root.children]
            section_positions = [node.index_in_parent() for node in sections]
            shuffled = section_positions[:]
            rng.shuffle(shuffled)
            permutation = list(range(len(tree.root.children)))
            for original, new in zip(section_positions, shuffled):
                permutation[original] = new
            operations.append(
                PermuteChildrenOperation(
                    NodeAddress(tree.name, ()), tuple(permutation)
                )
            )
            del indices
        if not operations:
            return None
        return FaultScenario(
            scenario_id=f"variation-section-order-{variant_index}",
            description="reorder top-level sections",
            category="variation-section-order",
            operations=tuple(operations),
            metadata={"variation": "section-order", "variant": variant_index},
        )

    def _build_directive_order(self, view_set, rng, variant_index) -> FaultScenario | None:
        operations = []
        # Shuffle the deepest containers first: permuting a parent changes the
        # child indices its nested sections were addressed by, so nested
        # containers must be reordered before their ancestors.
        containers = sorted(
            self._containers(view_set), key=lambda pair: len(pair[1].path), reverse=True
        )
        for container, container_address in containers:
            child_count = len(container.children)
            if child_count < 2:
                continue
            permutation = list(range(child_count))
            rng.shuffle(permutation)
            operations.append(PermuteChildrenOperation(container_address, tuple(permutation)))
        if not operations:
            return None
        return FaultScenario(
            scenario_id=f"variation-directive-order-{variant_index}",
            description="reorder directives within their sections",
            category="variation-directive-order",
            operations=tuple(operations),
            metadata={"variation": "directive-order", "variant": variant_index},
        )

    #: Separator spellings used for formats whose separator is whitespace only
    #: (Apache-style ``Name value`` directives have no ``=`` to decorate).
    WHITESPACE_ONLY_STYLES = (" ", "  ", "\t", "    ")

    def _build_separator_whitespace(self, view_set, rng, variant_index) -> FaultScenario | None:
        operations = []
        for node, address in self._directives(view_set):
            if node.value is None:
                continue
            current = node.get("separator") or "="
            styles = self.whitespace_styles if "=" in current else self.WHITESPACE_ONLY_STYLES
            style = rng.choice(styles)
            operations.append(SetFieldOperation(address, "attr:separator", style))
        if not operations:
            return None
        return FaultScenario(
            scenario_id=f"variation-separator-whitespace-{variant_index}",
            description="vary whitespace around directive separators",
            category="variation-separator-whitespace",
            operations=tuple(operations),
            metadata={"variation": "separator-whitespace", "variant": variant_index},
        )

    def _build_mixed_case_names(self, view_set, rng, variant_index) -> FaultScenario | None:
        operations = []
        for node, address in self._directives(view_set):
            name = node.name or ""
            if not any(char.isalpha() for char in name):
                continue
            mixed = "".join(
                char.upper() if rng.random() < 0.5 else char.lower() for char in name
            )
            if mixed == name:
                mixed = name.swapcase()
            operations.append(SetFieldOperation(address, "name", mixed))
        if not operations:
            return None
        return FaultScenario(
            scenario_id=f"variation-mixed-case-names-{variant_index}",
            description="randomise the case of directive names",
            category="variation-mixed-case-names",
            operations=tuple(operations),
            metadata={"variation": "mixed-case-names", "variant": variant_index},
        )

    def _build_truncated_names(self, view_set, rng, variant_index) -> FaultScenario | None:
        directives = self._directives(view_set)
        all_names = [node.name or "" for node, _ in directives]
        operations = []
        for node, address in directives:
            truncated = self._unambiguous_truncation(node.name or "", all_names, rng)
            if truncated is not None:
                operations.append(SetFieldOperation(address, "name", truncated))
        if not operations:
            return None
        return FaultScenario(
            scenario_id=f"variation-truncated-names-{variant_index}",
            description="truncate directive names to unambiguous prefixes",
            category="variation-truncated-names",
            operations=tuple(operations),
            metadata={"variation": "truncated-names", "variant": variant_index},
        )

    def _unambiguous_truncation(
        self, name: str, all_names: list[str], rng: random.Random
    ) -> str | None:
        """Shortest-to-full random prefix of ``name`` that no other name shares."""
        if len(name) <= self.min_truncation:
            return None
        others = [other for other in all_names if other != name]
        eligible_lengths = [
            length
            for length in range(self.min_truncation, len(name))
            if not any(other.lower().startswith(name[:length].lower()) for other in others)
        ]
        if not eligible_lengths:
            return None
        return name[: rng.choice(eligible_lengths)]
