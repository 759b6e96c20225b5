"""Constraint-violation plugin: inconsistent cross-directive configurations.

The paper's first class of semantic errors (Section 2.3) is the *inconsistent
configuration*: the value of one parameter must relate in a specific way to
the value of another (the shared-memory pool vs. the maximum number of client
connections, or Postgres' requirement that ``max_fsm_pages`` be at least
sixteen times ``max_fsm_relations``), and an operator who does not know the
relation produces a configuration that violates it.

This plugin takes declarative :class:`ConstraintSpec` descriptions and
produces scenarios that set one of the related directives to a value breaking
the constraint while leaving the other untouched.

Two named catalogs ship with the plugin -- :data:`MYSQL_CONSTRAINTS` and
:data:`POSTGRES_CONSTRAINTS` -- built exclusively from picklable violating-
value callables (:class:`ScaledRelatedValue`), so constraint campaigns can
run under the process executor.  :func:`default_constraints` selects the
catalog for a system (or the combined catalog when the system is unknown:
generation simply produces no scenarios for directives a configuration does
not contain).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.infoset import ConfigNode, ConfigSet
from repro.core.templates.base import FaultScenario, NodeAddress, SetFieldOperation
from repro.core.views.structure_view import StructureView
from repro.errors import PluginError, SpecError
from repro.plugins.base import ErrorGeneratorPlugin, register_plugin, string_list_param

__all__ = [
    "ConstraintSpec",
    "ConstraintViolationPlugin",
    "ScaledRelatedValue",
    "MYSQL_CONSTRAINTS",
    "POSTGRES_CONSTRAINTS",
    "default_constraints",
]


@dataclass(frozen=True)
class ConstraintSpec:
    """A relation between two directives and how to violate it.

    ``violating_value`` receives the current values of the two directives (as
    strings) and returns a new value for ``directive`` that breaks the
    relation with ``related_directive``.  Use a picklable callable (a
    module-level function or :class:`ScaledRelatedValue`, not a lambda) if
    the campaign should be runnable under the process executor.
    """

    name: str
    directive: str
    related_directive: str
    description: str
    violating_value: Callable[[str | None, str | None], str]


_SIZE_MULTIPLIERS = {"k": 1024, "m": 1024**2, "g": 1024**3}


def parse_config_int(text: str | None, fallback: int) -> int:
    """Best-effort integer from a configuration value (``"1M"`` -> 1048576).

    Understands optional sign, leading digits, and a single K/M/G multiplier
    suffix; anything unparsable yields ``fallback`` (the directive's built-in
    default, which is what the system would use too).
    """
    if text is None:
        return fallback
    stripped = text.strip().strip("'\"")
    index = 0
    if index < len(stripped) and stripped[index] in "+-":
        index += 1
    digits_end = index
    while digits_end < len(stripped) and stripped[digits_end].isdigit():
        digits_end += 1
    if digits_end == index:
        return fallback
    magnitude = int(stripped[:digits_end])
    if digits_end < len(stripped):
        multiplier = _SIZE_MULTIPLIERS.get(stripped[digits_end].lower())
        if multiplier is not None:
            magnitude *= multiplier
    return magnitude


@dataclass(frozen=True)
class ScaledRelatedValue:
    """Picklable violating value: ``factor * related + offset``.

    ``fallback`` stands in for the related directive's value when it is not
    present in the configuration (the system falls back to its built-in
    default in that case, and so must the violation).  The result is clamped
    at zero -- configuration integers are non-negative.
    """

    factor: float = 1.0
    offset: int = 0
    fallback: int = 0

    def __call__(self, current: str | None, related: str | None) -> str:
        base = parse_config_int(related, self.fallback)
        return str(max(0, int(self.factor * base) + self.offset))


#: Cross-directive relations of the simulated PostgreSQL server.  The first
#: is the paper's Section 5.2 example: the free-space-map page pool must be
#: able to hold at least sixteen pages per tracked relation; Postgres checks
#: the relation at startup and refuses to come up when it is violated.
POSTGRES_CONSTRAINTS: tuple[ConstraintSpec, ...] = (
    ConstraintSpec(
        name="fsm-pages-vs-relations",
        directive="max_fsm_pages",
        related_directive="max_fsm_relations",
        description="max_fsm_pages must be at least 16 * max_fsm_relations",
        violating_value=ScaledRelatedValue(factor=16, offset=-16, fallback=1000),
    ),
    ConstraintSpec(
        name="connections-vs-reserved",
        directive="max_connections",
        related_directive="superuser_reserved_connections",
        description="max_connections must exceed superuser_reserved_connections",
        violating_value=ScaledRelatedValue(factor=1, offset=0, fallback=3),
    ),
    ConstraintSpec(
        name="reserved-vs-connections",
        directive="superuser_reserved_connections",
        related_directive="max_connections",
        description="superuser_reserved_connections must be less than max_connections",
        violating_value=ScaledRelatedValue(factor=1, offset=0, fallback=100),
    ),
)

#: Cross-directive relations of MySQL option files.  MySQL does not check
#: either relation at startup (values are silently clamped or accepted), so
#: these scenarios typically land in the "ignored" bucket -- the asymmetry
#: with Postgres is exactly the paper's point.
MYSQL_CONSTRAINTS: tuple[ConstraintSpec, ...] = (
    ConstraintSpec(
        name="net-buffer-vs-packet",
        directive="net_buffer_length",
        related_directive="max_allowed_packet",
        description="net_buffer_length must not exceed max_allowed_packet",
        violating_value=ScaledRelatedValue(factor=2, offset=0, fallback=1024**2),
    ),
    ConstraintSpec(
        name="thread-cache-vs-connections",
        directive="thread_cache_size",
        related_directive="max_connections",
        description="thread_cache_size should not exceed max_connections",
        violating_value=ScaledRelatedValue(factor=2, offset=0, fallback=100),
    ),
)

_CATALOGS: dict[str, tuple[ConstraintSpec, ...]] = {
    "mysql": MYSQL_CONSTRAINTS,
    "postgres": POSTGRES_CONSTRAINTS,
    "postgresql": POSTGRES_CONSTRAINTS,
}


def default_constraints(system: str | None = None) -> tuple[ConstraintSpec, ...]:
    """Constraint catalog for one system, or the combined catalog.

    Directives a configuration does not contain generate no scenarios, so
    the combined catalog is safe to run against any system -- on Apache or
    the DNS servers it simply produces an empty campaign.
    """
    if system is not None:
        catalog = _CATALOGS.get(system.strip().lower())
        if catalog is not None:
            return catalog
    return MYSQL_CONSTRAINTS + POSTGRES_CONSTRAINTS


def _find_directive(view_set: ConfigSet, name: str) -> tuple[ConfigNode, NodeAddress] | None:
    lowered = name.lower()
    for tree in view_set:
        for node, path in tree.root.walk_with_paths():
            if node.kind == "directive" and (node.name or "").lower() == lowered:
                return node, NodeAddress(tree.name, path)
    return None


@register_plugin
class ConstraintViolationPlugin(ErrorGeneratorPlugin):
    """Generate configurations violating declared cross-directive constraints."""

    name = "semantic-constraints"
    param_names = ("system", "constraints")

    def __init__(self, constraints: Sequence[ConstraintSpec] | None = None):
        if constraints is None:
            constraints = default_constraints()
        if not constraints:
            raise PluginError("ConstraintViolationPlugin requires at least one constraint")
        self.constraints = list(constraints)
        self._view = StructureView()

    @property
    def view(self) -> StructureView:
        return self._view

    def manifest_params(self) -> dict:
        return {"constraints": [spec.name for spec in self.constraints]}

    @classmethod
    def from_params(cls, params) -> "ConstraintViolationPlugin":
        """Build from a catalog selection: by ``system``, by constraint ``names``, or both.

        ``system`` picks a shipped catalog (unknown systems fall back to the
        combined one, exactly like :func:`default_constraints`); ``constraints``
        selects individual relations by name from that catalog.
        """
        cls.check_param_names(params)
        system = params.get("system")
        if system is not None:
            if not isinstance(system, str):
                raise SpecError(f"system: expected a system name, got {system!r}")
            # a typo'd catalog name must not silently fall back to the
            # combined catalog; registered systems without a catalog of
            # their own are fine (they generate an empty campaign)
            from repro.registry import available_systems

            if system.strip().lower() not in _CATALOGS and system not in available_systems():
                from repro.analysis.suggest import suggestion_suffix

                catalogs = sorted(set(_CATALOGS))
                raise SpecError(
                    f"system: unknown system {system!r}; catalogs exist for "
                    f"{', '.join(catalogs)}, and any registered "
                    f"system is accepted ({', '.join(available_systems())})"
                    f"{suggestion_suffix(system, catalogs + available_systems())}"
                )
        catalog = default_constraints(system)
        names = params.get("constraints")
        if names is None:
            return cls(catalog)
        by_name = {spec.name: spec for spec in catalog}
        selected = string_list_param("constraints", names, allowed=tuple(by_name))
        if not selected:
            raise SpecError("constraints: must name at least one constraint")
        return cls([by_name[name] for name in selected])

    def generate(self, view_set: ConfigSet, rng: random.Random) -> list[FaultScenario]:
        scenarios: list[FaultScenario] = []
        for ordinal, spec in enumerate(self.constraints):
            target = _find_directive(view_set, spec.directive)
            related = _find_directive(view_set, spec.related_directive)
            if target is None:
                continue
            target_node, target_address = target
            related_value = related[0].value if related is not None else None
            new_value = spec.violating_value(target_node.value, related_value)
            scenarios.append(
                FaultScenario(
                    scenario_id=f"constraint-{ordinal}-{spec.name}",
                    description=f"violate constraint {spec.name}: {spec.description}",
                    category="semantic-constraint",
                    operations=(SetFieldOperation(target_address, "value", new_value),),
                    metadata={
                        "constraint": spec.name,
                        "directive": spec.directive,
                        "related_directive": spec.related_directive,
                        "original": target_node.value,
                        "mutated": new_value,
                    },
                )
            )
        return scenarios
