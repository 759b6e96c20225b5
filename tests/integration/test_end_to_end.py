"""Integration tests: full campaigns against every simulated SUT, and the
specific findings the paper reports in Section 5.2, reproduced end-to-end
through the injection engine rather than by poking the SUTs directly."""

import random

import pytest

from repro import CampaignSuite, SpellingMistakesPlugin
from repro.core.engine import InjectionEngine
from repro.core.profile import InjectionOutcome
from repro.core.templates import FaultScenario, NodeAddress, SetFieldOperation
from repro.core.views.structure_view import StructureView
from repro.plugins import (
    ConstraintViolationPlugin,
    DnsSemanticErrorsPlugin,
    StructuralErrorsPlugin,
    StructuralVariationsPlugin,
)
from repro.plugins.base import ErrorGeneratorPlugin
from repro.plugins.semantic_db import ConstraintSpec
from repro.sut.apache import SimulatedApache
from repro.sut.dns import SimulatedBIND, SimulatedDjbdns
from repro.sut.mysql import SimulatedMySQL
from repro.sut.postgres import SimulatedPostgres


ALL_SUTS = [SimulatedMySQL, SimulatedPostgres, SimulatedApache, SimulatedBIND, SimulatedDjbdns]


class _ScriptedPlugin(ErrorGeneratorPlugin):
    """Inject a single, hand-written directive-value change (for targeted findings)."""

    name = "scripted"

    def __init__(self, tree_name: str, directive: str, new_value: str, field: str = "value"):
        self.tree_name = tree_name
        self.directive = directive
        self.new_value = new_value
        self.field = field
        self._view = StructureView()

    @property
    def view(self):
        return self._view

    def generate(self, view_set, rng):
        for tree in view_set:
            if tree.name != self.tree_name:
                continue
            for node, path in tree.root.walk_with_paths():
                if node.kind == "directive" and node.name == self.directive:
                    address = NodeAddress(tree.name, path)
                    return [
                        FaultScenario(
                            scenario_id=f"scripted-{self.directive}",
                            description=f"set {self.directive} {self.field} to {self.new_value!r}",
                            category="scripted",
                            operations=(SetFieldOperation(address, self.field, self.new_value),),
                            metadata={"directive": self.directive},
                        )
                    ]
        return []


def run_single(sut, plugin, seed=0) -> InjectionOutcome:
    """Outcome of the one scenario ``plugin`` generates for ``sut`` at ``seed``."""
    engine = InjectionEngine(sut, plugin)
    [scenario] = plugin.generate(engine.view_set, random.Random(seed))
    return engine.run_scenario(scenario).outcome


class TestBaselines:
    @pytest.mark.parametrize("sut_class", ALL_SUTS)
    def test_every_sut_has_a_healthy_baseline(self, sut_class):
        sut = sut_class()
        engine = InjectionEngine(sut, SpellingMistakesPlugin(mutations_per_token=1))
        assert engine.baseline_check() == []


def _overall(sut_class, plugin, seed):
    """Profile of a one-system, one-plugin campaign suite."""
    return CampaignSuite({"sut": sut_class}, [plugin], seed=seed).run().overall("sut")


class TestFullCampaigns:
    @pytest.mark.parametrize("sut_class", [SimulatedMySQL, SimulatedPostgres, SimulatedApache])
    def test_typo_campaign_produces_consistent_profiles(self, sut_class):
        profile = _overall(sut_class, SpellingMistakesPlugin(mutations_per_token=1), seed=17)
        assert profile.injected_count() > 10
        assert profile.injected_count() + len(
            profile.records_with(InjectionOutcome.INJECTION_IMPOSSIBLE)
        ) + len(profile.records_with(InjectionOutcome.HARNESS_ERROR)) == len(profile)
        assert not profile.records_with(InjectionOutcome.HARNESS_ERROR)

    def test_structural_campaign_on_all_three_servers(self):
        for sut_class in (SimulatedMySQL, SimulatedPostgres, SimulatedApache):
            plugin = StructuralErrorsPlugin(
                include=["omit-directive", "duplicate-directive"], max_scenarios_per_class=10
            )
            profile = _overall(sut_class, plugin, seed=5)
            assert profile.injected_count() > 0

    def test_variation_campaign_is_seed_stable(self):
        def outcomes(seed):
            plugin = StructuralVariationsPlugin(variants_per_class=3, min_truncation=8)
            return [r.outcome for r in _overall(SimulatedMySQL, plugin, seed)]

        assert outcomes(9) == outcomes(9)

    @pytest.mark.parametrize("sut_class", [SimulatedBIND, SimulatedDjbdns])
    def test_semantic_dns_campaign(self, sut_class):
        profile = _overall(sut_class, DnsSemanticErrorsPlugin(max_scenarios_per_class=2), seed=3)
        assert len(profile) > 0
        # every record is classified into one of the defined outcomes
        assert all(isinstance(record.outcome, InjectionOutcome) for record in profile)


class TestPaperFindings:
    """Each test corresponds to a specific flaw or behaviour reported in Section 5.2/5.4."""

    def test_mysql_out_of_bounds_value_is_ignored(self):
        outcome = run_single(
            SimulatedMySQL(), _ScriptedPlugin("my.cnf", "key_buffer_size", "1")
        )
        assert outcome is InjectionOutcome.IGNORED

    def test_mysql_multiplier_typo_is_ignored(self):
        outcome = run_single(
            SimulatedMySQL(), _ScriptedPlugin("my.cnf", "max_allowed_packet", "1M0")
        )
        assert outcome is InjectionOutcome.IGNORED

    def test_mysql_value_starting_with_multiplier_is_ignored(self):
        outcome = run_single(
            SimulatedMySQL(), _ScriptedPlugin("my.cnf", "key_buffer_size", "M16")
        )
        assert outcome is InjectionOutcome.IGNORED

    def test_postgres_fsm_pages_typo_detected_at_startup(self):
        # The exact example from the paper: 153600 -> 15600.
        outcome = run_single(
            SimulatedPostgres(), _ScriptedPlugin("postgresql.conf", "max_fsm_pages", "15600")
        )
        assert outcome is InjectionOutcome.DETECTED_AT_STARTUP

    def test_postgres_malformed_value_detected_at_startup(self):
        outcome = run_single(
            SimulatedPostgres(), _ScriptedPlugin("postgresql.conf", "shared_buffers", "32MBq")
        )
        assert outcome is InjectionOutcome.DETECTED_AT_STARTUP

    def test_apache_freeform_servername_is_ignored(self):
        outcome = run_single(
            SimulatedApache(), _ScriptedPlugin("httpd.conf", "ServerName", "not a hostname at all")
        )
        assert outcome is InjectionOutcome.IGNORED

    def test_apache_defaulttype_freeform_is_ignored(self):
        outcome = run_single(
            SimulatedApache(), _ScriptedPlugin("httpd.conf", "DefaultType", "textplain")
        )
        assert outcome is InjectionOutcome.IGNORED

    def test_apache_listen_port_typo_detected_by_functional_tests(self):
        outcome = run_single(SimulatedApache(), _ScriptedPlugin("httpd.conf", "Listen", "880"))
        assert outcome is InjectionOutcome.DETECTED_BY_TESTS

    def test_apache_misspelled_directive_detected_at_startup(self):
        outcome = run_single(
            SimulatedApache(), _ScriptedPlugin("httpd.conf", "KeepAlive", "KeepAlives", field="name")
        )
        assert outcome is InjectionOutcome.DETECTED_AT_STARTUP

    def test_constraint_plugin_detected_by_postgres(self):
        constraint = ConstraintSpec(
            name="fsm",
            directive="max_fsm_pages",
            related_directive="max_fsm_relations",
            description="max_fsm_pages >= 16 * max_fsm_relations",
            violating_value=lambda current, related: "15600",
        )
        outcome = run_single(SimulatedPostgres(), ConstraintViolationPlugin([constraint]))
        assert outcome is InjectionOutcome.DETECTED_AT_STARTUP

    def test_bind_detects_cname_clash_but_djbdns_serves_it(self):
        plugin = DnsSemanticErrorsPlugin(classes=["ns-cname-clash"], max_scenarios_per_class=1)
        bind_outcome = run_single(SimulatedBIND(), plugin, seed=1)
        djbdns_outcome = run_single(SimulatedDjbdns(), plugin, seed=1)
        assert bind_outcome is InjectionOutcome.DETECTED_AT_STARTUP
        assert djbdns_outcome is InjectionOutcome.IGNORED

    def test_missing_ptr_impossible_for_djbdns_but_injectable_for_bind(self):
        plugin = DnsSemanticErrorsPlugin(classes=["missing-ptr"], max_scenarios_per_class=1)
        bind_outcome = run_single(SimulatedBIND(), plugin, seed=1)
        djbdns_outcome = run_single(SimulatedDjbdns(), plugin, seed=1)
        assert bind_outcome is InjectionOutcome.IGNORED
        assert djbdns_outcome is InjectionOutcome.INJECTION_IMPOSSIBLE
