"""Complex templates that combine the scenario sets of other templates.

The paper (Section 3.3) mentions templates that take *sets of fault
scenarios* as parameters: a union template and a random-subset selector.
We also provide a deterministic limit and a predicate filter, which are
convenient when building campaign faultloads.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from repro.core.infoset import ConfigSet
from repro.core.templates.base import AddressIndex, FaultScenario, Template
from repro.errors import TemplateError

__all__ = ["UnionTemplate", "RandomSubsetTemplate", "LimitTemplate", "FilterTemplate"]


def _relabel(scenario: FaultScenario, prefix: str, ordinal: int) -> FaultScenario:
    """Return a copy of ``scenario`` with a namespaced, collision-free id."""
    return FaultScenario(
        scenario_id=f"{prefix}{ordinal}:{scenario.scenario_id}",
        description=scenario.description,
        category=scenario.category,
        operations=scenario.operations,
        metadata=dict(scenario.metadata),
    )


class UnionTemplate(Template):
    """Union of the scenarios produced by several templates."""

    category = "union"

    def __init__(self, templates: Sequence[Template]):
        if not templates:
            raise TemplateError("UnionTemplate requires at least one template")
        self.templates = list(templates)

    def generate(self, config_set: ConfigSet, rng: random.Random) -> list[FaultScenario]:
        scenarios: list[FaultScenario] = []
        for index, template in enumerate(self.templates):
            for scenario in template.generate(config_set, rng):
                scenarios.append(_relabel(scenario, "u", index))
        return scenarios


class RandomSubsetTemplate(Template):
    """Select a random subset of a given size from another template's scenarios.

    The paper uses this to bound the number of injections per fault class
    (e.g. "randomly select 10 directives per section and introduce a typo in
    each", Section 5.2).  Selection draws from the engine's seeded RNG, so
    campaigns are reproducible.
    """

    category = "random-subset"

    def __init__(self, template: Template, size: int):
        if size < 0:
            raise TemplateError("subset size must be non-negative")
        self.template = template
        self.size = size

    def generate(
        self, config_set: ConfigSet, rng: random.Random, addresses: AddressIndex | None = None
    ) -> list[FaultScenario]:
        """The subset; ``addresses`` is handed to the wrapped template, which
        must then accept it (every targeted template does)."""
        if addresses is None:
            scenarios = self.template.generate(config_set, rng)
        else:
            scenarios = self.template.generate(config_set, rng, addresses)
        if len(scenarios) <= self.size:
            return scenarios
        return rng.sample(scenarios, self.size)


class LimitTemplate(Template):
    """Keep only the first ``limit`` scenarios (deterministic truncation)."""

    category = "limit"

    def __init__(self, template: Template, limit: int):
        if limit < 0:
            raise TemplateError("limit must be non-negative")
        self.template = template
        self.limit = limit

    def generate(self, config_set: ConfigSet, rng: random.Random) -> list[FaultScenario]:
        return self.template.generate(config_set, rng)[: self.limit]


class FilterTemplate(Template):
    """Keep only the scenarios accepted by a predicate."""

    category = "filter"

    def __init__(self, template: Template, predicate: Callable[[FaultScenario], bool]):
        self.template = template
        self.predicate = predicate

    def generate(self, config_set: ConfigSet, rng: random.Random) -> list[FaultScenario]:
        return [s for s in self.template.generate(config_set, rng) if self.predicate(s)]
