"""Tests for the experiment runners: they must reproduce the paper's qualitative results.

These are scaled-down runs of the same code paths the ``benchmarks/`` suite
uses, asserting the *shape* of each result (who wins, which cells say what)
rather than exact counts.
"""

import pytest

from repro.bench import ARTIFACTS, figure3, table1, table2, table3, time_single_injection
from repro.bench.table2 import APPLICABLE_CLASSES, VARIATION_LABELS
from repro.bench.table3 import FAULT_LABELS
from repro.bench.timing import single_injection_callable
from repro.bench.workloads import full_directive_mysql_config, full_directive_postgres_config
from repro.core.profile import InjectionOutcome, ResilienceProfile
from repro.core.report import detection_distribution, merged
from repro.core.suite import CampaignSuite
from repro.errors import StoreError
from repro.sut.mysql import SimulatedMySQL
from repro.sut.postgres import SimulatedPostgres


def run_suite(spec):
    """Cell profiles of one artefact run, keyed by system display name."""
    return CampaignSuite.from_spec(spec).run().profiles_by_display()


class TestWorkloads:
    def test_full_directive_configs_are_healthy_baselines(self):
        mysql = SimulatedMySQL(default_config=full_directive_mysql_config())
        assert mysql.start(mysql.default_configuration()).started
        postgres = SimulatedPostgres(default_config=full_directive_postgres_config())
        result = postgres.start(postgres.default_configuration())
        assert result.started, result.errors

    def test_full_directive_configs_exclude_booleans(self):
        assert "fsync" not in full_directive_postgres_config()
        assert "skip-external-locking" not in full_directive_mysql_config()


class TestTable1:
    @pytest.fixture(scope="class")
    def cells(self):
        return run_suite(table1.table1_spec(seed=42, typos_per_directive=3, directives_per_section=5))

    @pytest.fixture(scope="class")
    def profiles(self, cells):
        return merged(cells)

    def test_all_three_systems_present(self, profiles):
        assert set(profiles) == {"MySQL", "Postgres", "Apache"}

    def test_every_system_received_injections(self, profiles):
        for profile in profiles.values():
            assert profile.injected_count() > 20

    def test_postgres_detects_more_than_apache(self, profiles):
        # Paper Table 1: Postgres detects far more of the injected typos than
        # Apache, which ignores the majority of them.
        assert profiles["Postgres"].detection_rate() > profiles["Apache"].detection_rate()

    def test_apache_ignores_more_than_postgres(self, profiles):
        ignored_share = {
            name: profile.ignored_count() / profile.injected_count()
            for name, profile in profiles.items()
        }
        assert ignored_share["Apache"] > ignored_share["Postgres"]

    def test_directive_name_typos_are_well_detected_by_the_databases(self, profiles):
        # Misspelled directive names are rejected as unknown variables/parameters
        # by both database servers (the bulk of the paper's startup detections).
        for system in ("MySQL", "Postgres"):
            records = [
                record
                for record in profiles[system]
                if record.metadata.get("field") == "name"
            ]
            detected = sum(1 for record in records if record.outcome.is_detected())
            assert records and detected / len(records) > 0.6

    def test_name_and_value_typos_target_the_same_directives(self, cells):
        # the per-section selection hashes directive locations, so both typo
        # campaigns pick the same directives (as in the paper)
        for system, per_campaign in cells.items():
            targets = {
                campaign: {
                    (r.metadata["source_tree"], tuple(r.metadata["source_path"]))
                    for r in per_campaign[campaign]
                }
                for campaign in ("name-typos", "value-typos")
            }
            assert targets["value-typos"] <= targets["name-typos"], system

    def test_value_typos_are_detected_less_often_than_name_typos(self, profiles):
        for system, profile in profiles.items():
            by_field = {"name": [], "value": []}
            for record in profile:
                field = record.metadata.get("field")
                if field in by_field:
                    by_field[field].append(record)
            name_rate = sum(r.outcome.is_detected() for r in by_field["name"]) / len(by_field["name"])
            value_rate = sum(r.outcome.is_detected() for r in by_field["value"]) / len(by_field["value"])
            assert name_rate >= value_rate, system

    def test_startup_detection_dominates_functional_tests(self, profiles):
        # Paper: functional tests add little detection power beyond startup checks.
        for profile in profiles.values():
            counts = profile.outcome_counts()
            assert counts[InjectionOutcome.DETECTED_AT_STARTUP] >= counts[InjectionOutcome.DETECTED_BY_TESTS]

    def test_table_text_mentions_all_rows(self, cells):
        table_text = table1.render(cells)
        for fragment in ("# of Injected Errors", "Detected by system at startup", "Ignored"):
            assert fragment in table_text

    def test_no_harness_errors(self, profiles):
        for profile in profiles.values():
            assert not profile.records_with(InjectionOutcome.HARNESS_ERROR)


def satisfied_fraction(support: dict[str, str]) -> float:
    """Fraction of applicable variation classes a system accepts."""
    values = [v for v in support.values() if v != "n/a"]
    return sum(1 for v in values if v == "Yes") / len(values)


class TestTable2:
    @pytest.fixture(scope="class")
    def cells(self):
        return run_suite(table2.table2_spec(seed=42, variants_per_class=5))

    @pytest.fixture(scope="class")
    def support(self, cells):
        return table2.support_matrix(cells)

    def test_matches_paper_support_matrix(self, support):
        # Paper Table 2, cell by cell.
        expected = {
            "MySQL": {
                "Order of sections": "Yes",
                "Order of directives": "Yes",
                "Spaces near separators": "Yes",
                "Mixed-case directive names": "No",
                "Truncatable directive names": "Yes",
            },
            "Postgres": {
                "Order of sections": "n/a",
                "Order of directives": "Yes",
                "Spaces near separators": "Yes",
                "Mixed-case directive names": "Yes",
                "Truncatable directive names": "No",
            },
            "Apache": {
                "Order of sections": "n/a",
                "Order of directives": "Yes",
                "Spaces near separators": "Yes",
                "Mixed-case directive names": "Yes",
                "Truncatable directive names": "No",
            },
        }
        assert support == expected

    def test_satisfied_fractions_match_paper(self, support):
        assert satisfied_fraction(support["MySQL"]) == pytest.approx(0.80)
        assert satisfied_fraction(support["Postgres"]) == pytest.approx(0.75)
        assert satisfied_fraction(support["Apache"]) == pytest.approx(0.75)

    def test_applicable_classes_cover_all_labels(self):
        for classes in APPLICABLE_CLASSES.values():
            assert set(classes) <= set(VARIATION_LABELS)

    def test_table_text_has_summary_row(self, cells):
        assert "% of assumptions satisfied" in table2.render(cells)

    def test_inapplicable_classes_are_na_even_when_run(self, cells, support):
        # the suite crosses every cell, so Apache runs "Order of sections"
        # too; the paper's n/a comes from APPLICABLE_CLASSES, not absence
        assert len(cells["Apache"]["Order of sections"]) > 0
        assert support["Apache"]["Order of sections"] == "n/a"


class TestTable3:
    @pytest.fixture(scope="class")
    def cells(self):
        return run_suite(table3.table3_spec(seed=42, max_scenarios_per_class=2))

    @pytest.fixture(scope="class")
    def behaviour(self, cells):
        return table3.behaviour_matrix(cells)

    def test_matches_paper_behaviour_matrix(self, behaviour):
        assert behaviour["Missing PTR"]["BIND"] == "not found"
        assert behaviour["Missing PTR"]["djbdns"] == "N/A"
        assert behaviour["PTR pointing to CNAME"]["BIND"] == "not found"
        assert behaviour["PTR pointing to CNAME"]["djbdns"] == "N/A"
        assert behaviour["dupl name for NS and CNAME"]["BIND"] == "found"
        assert behaviour["dupl name for NS and CNAME"]["djbdns"] == "not found"
        assert behaviour["MX pointing to CNAME"]["BIND"] == "found"
        assert behaviour["MX pointing to CNAME"]["djbdns"] == "not found"

    def test_all_fault_rows_present(self, behaviour):
        assert set(behaviour) == set(FAULT_LABELS.values())

    def test_djbdns_impossible_injections_recorded(self, cells):
        impossible = cells["djbdns"]["semantic-dns"].records_with(
            InjectionOutcome.INJECTION_IMPOSSIBLE
        )
        assert impossible
        assert all("tinydns" in record.messages[0] for record in impossible)

    def test_table_text_contains_both_systems(self, cells):
        table_text = table3.render(cells)
        assert "BIND" in table_text and "djbdns" in table_text


class TestFigure3:
    @pytest.fixture(scope="class")
    def cells(self):
        return run_suite(figure3.figure3_spec(seed=42, experiments_per_directive=8))

    @pytest.fixture(scope="class")
    def rates(self, cells):
        return figure3.directive_rates(cells)

    @pytest.fixture(scope="class")
    def share(self, rates):
        distributions = {system: detection_distribution(r) for system, r in rates.items()}
        return lambda system, bin_label: distributions[system][bin_label]

    def test_distributions_are_probability_vectors(self, rates):
        for system_rates in rates.values():
            distribution = detection_distribution(system_rates)
            assert sum(distribution.values()) == pytest.approx(1.0)
            assert all(0.0 <= share <= 1.0 for share in distribution.values())

    def test_postgres_is_more_resilient_than_mysql(self, share):
        # Paper Section 5.5 headline: Postgres detects more value typos.
        strong_postgres = share("Postgres", "good") + share("Postgres", "excellent")
        strong_mysql = share("MySQL", "good") + share("MySQL", "excellent")
        assert strong_postgres > strong_mysql

    def test_mysql_has_largest_poor_share(self, share):
        assert share("MySQL", "poor") >= share("Postgres", "poor")

    def test_per_directive_rates_cover_many_directives(self, rates):
        assert len(rates["MySQL"]) >= 15
        assert len(rates["Postgres"]) >= 20

    def test_boolean_directives_excluded(self, rates):
        assert "fsync" not in rates["Postgres"]

    def test_chart_text_lists_all_bins(self, cells):
        chart_text = figure3.render(cells)
        for label in ("poor", "fair", "good", "excellent"):
            assert label in chart_text


class TestArtifactRenderers:
    def test_table2_refuses_cells_without_a_variation_campaign(self):
        with pytest.raises(StoreError, match="variation class"):
            ARTIFACTS["table2"].render({"BIND": {"semantic-dns": ResilienceProfile("BIND")}})


class TestTiming:
    def test_single_injection_callable_runs(self):
        run_once = single_injection_callable(SimulatedPostgres(), seed=1)
        record = run_once()
        assert record.outcome is not None

    def test_time_single_injection_returns_positive_seconds(self):
        seconds = time_single_injection(SimulatedPostgres(), repetitions=3, seed=1)
        assert 0 < seconds < 5
