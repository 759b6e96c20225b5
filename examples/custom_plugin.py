#!/usr/bin/env python3
"""Extend ConfErr with a custom error-generator plugin and a custom SUT.

The paper stresses that ConfErr is extensible: error models are encoded as
plugins that instantiate templates over a view of the configuration
(Sections 3.3 and 4).  This example builds both halves from scratch:

* ``EnvironmentOverridePlugin`` -- a small rule-based error model: an operator
  used to *another* application writes that application's directives into
  this one's configuration file ("borrowing", Section 2.2), and also tends to
  comment out directives they do not understand;
* ``TinyKeyValueService`` -- a toy system under test with a strict key=value
  configuration parser, so we can see which of those borrowed mistakes it
  catches.

Run with::

    python examples/custom_plugin.py
"""

import random

from repro import CampaignSuite
from repro.core.infoset import ConfigNode, ConfigSet
from repro.core.templates import DeleteTemplate, FaultScenario, InsertTemplate
from repro.core.views.structure_view import StructureView
from repro.parsers.base import get_dialect
from repro.plugins.base import ErrorGeneratorPlugin
from repro.sut.base import FunctionalTest, StartResult, SystemUnderTest, TestResult


# --------------------------------------------------------------------- plugin
class EnvironmentOverridePlugin(ErrorGeneratorPlugin):
    """Borrow directives from another program and drop unfamiliar ones."""

    name = "environment-override"

    #: Directives an Apache administrator might reflexively add anywhere.
    BORROWED = (
        ConfigNode("directive", "Listen", "8080", attrs={"separator": " = "}),
        ConfigNode("directive", "ServerName", "cache.example.com", attrs={"separator": " = "}),
    )

    def __init__(self, drops_per_run: int = 2):
        self.drops_per_run = drops_per_run
        self._view = StructureView()

    @property
    def view(self) -> StructureView:
        return self._view

    def generate(self, view_set: ConfigSet, rng: random.Random) -> list[FaultScenario]:
        scenarios = []
        # Rule-based borrowing: insert a foreign directive at the top level.
        borrow = InsertTemplate("/file", self.BORROWED, category="borrowed-directive")
        scenarios.extend(borrow.generate(view_set, rng))
        # Knowledge-based omission: drop directives the operator "cleaned up".
        drop = DeleteTemplate("//directive", category="cleaned-up-directive")
        dropped = drop.generate(view_set, rng)
        if len(dropped) > self.drops_per_run:
            dropped = rng.sample(dropped, self.drops_per_run)
        scenarios.extend(dropped)
        return scenarios


# ------------------------------------------------------------------------ SUT
class TinyKeyValueService(SystemUnderTest):
    """A toy cache service with a strict ``key = value`` configuration."""

    name = "tinycache"
    REQUIRED = {"listen_port": int, "cache_size_mb": int, "eviction_policy": str}
    DEFAULT_CONFIG = "listen_port = 9090\ncache_size_mb = 64\neviction_policy = lru\n"

    def __init__(self) -> None:
        self._settings: dict[str, object] | None = None

    def default_configuration(self) -> dict[str, str]:
        return {"tinycache.conf": self.DEFAULT_CONFIG}

    def dialect_for(self, filename: str) -> str:
        return "lineconf"

    def start(self, files) -> StartResult:
        tree = get_dialect("lineconf").parse(files["tinycache.conf"], "tinycache.conf")
        settings: dict[str, object] = {}
        for node in tree.root.children_of_kind("directive"):
            if node.name not in self.REQUIRED:
                return StartResult.failed(f"unknown setting '{node.name}'")
            try:
                settings[node.name] = self.REQUIRED[node.name](node.value)
            except (TypeError, ValueError):
                return StartResult.failed(f"setting '{node.name}' has an invalid value: {node.value!r}")
        missing = set(self.REQUIRED) - set(settings)
        if missing:
            return StartResult.failed(f"missing required settings: {sorted(missing)}")
        self._settings = settings
        return StartResult.ok()

    def stop(self) -> None:
        self._settings = None

    def functional_tests(self) -> list[FunctionalTest]:
        service = self

        class PingTest(FunctionalTest):
            name = "cache-ping"

            def run(self, sut) -> TestResult:
                ok = service._settings is not None and int(service._settings["cache_size_mb"]) > 0
                return TestResult(self.name, ok, "" if ok else "cache not serving")

        return [PingTest()]


def main() -> None:
    suite = CampaignSuite({"kv": TinyKeyValueService}, [EnvironmentOverridePlugin()], seed=7)
    profile = suite.run().overall("kv")
    print(profile.summary())
    print()
    for record in profile:
        print(f"  [{record.outcome.value:<20}] {record.description}")


if __name__ == "__main__":
    main()
