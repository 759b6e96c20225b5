"""Unit tests for report rendering (tables and the Figure 3 distribution)."""

from repro.core.profile import InjectionOutcome, InjectionRecord, ResilienceProfile
from repro.core.report import (
    classify_semantic_behaviour,
    classify_structural_support,
    detection_distribution,
    format_table,
    merged,
    per_directive_detection_rates,
    render_distribution_chart,
    render_store_report,
    semantic_behaviour_table,
    store_typo_table,
    structural_support_table,
    typo_resilience_table,
)
from repro.core.store import ResultStore


def profile_with(startup: int, by_tests: int, ignored: int, name: str = "Sys") -> ResilienceProfile:
    profile = ResilienceProfile(name)
    for index in range(startup):
        profile.add(InjectionRecord(f"s{index}", "typo", "", InjectionOutcome.DETECTED_AT_STARTUP))
    for index in range(by_tests):
        profile.add(InjectionRecord(f"t{index}", "typo", "", InjectionOutcome.DETECTED_BY_TESTS))
    for index in range(ignored):
        profile.add(InjectionRecord(f"i{index}", "typo", "", InjectionOutcome.IGNORED))
    return profile


class TestFormatTable:
    def test_alignment_and_separator(self):
        text = format_table(["a", "bbb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert set(lines[1]) <= {"-", " "}

    def test_cells_are_stringified(self):
        text = format_table(["n"], [[42]])
        assert "42" in text


class TestMerged:
    def test_each_system_cells_fold_into_one_profile_in_cell_order(self):
        spelling, structural = profile_with(1, 0, 2, "MySQL"), profile_with(0, 1, 0, "MySQL")
        profiles = {"MySQL": {"spelling": spelling, "structural": structural}, "Empty": {}}
        folded = merged(profiles)
        assert list(folded) == ["MySQL", "Empty"]
        assert folded["MySQL"].system_name == "MySQL"
        assert folded["MySQL"].records == spelling.records + structural.records
        assert len(folded["Empty"]) == 0
        folded["MySQL"].add(spelling.records[0])
        assert len(spelling) == 3  # the cells are not aliased


class TestTypoResilienceTable:
    def test_counts_and_percentages(self):
        profiles = {"MySQL": profile_with(8, 1, 1), "Postgres": profile_with(7, 0, 3)}
        text = typo_resilience_table(profiles)
        assert "10 (100%)" in text
        assert "8 (80%)" in text
        assert "3 (30%)" in text
        assert "MySQL" in text and "Postgres" in text

    def test_handles_empty_profiles(self):
        text = typo_resilience_table({"Empty": ResilienceProfile("Empty")})
        assert "Empty" in text

    def test_empty_profile_shows_zero_without_percentages(self):
        lines = typo_resilience_table({"Empty": ResilienceProfile("Empty")}).splitlines()
        injected_row = next(line for line in lines if "# of Injected Errors" in line)
        assert injected_row.rstrip().endswith("0")
        assert "%" not in injected_row

    def test_zero_injected_errors_do_not_divide_by_zero(self):
        # every record a harness error: nothing was actually injected
        profile = ResilienceProfile("Sys")
        for index in range(3):
            profile.add(
                InjectionRecord(f"h{index}", "typo", "", InjectionOutcome.HARNESS_ERROR)
            )
        lines = typo_resilience_table({"Sys": profile}).splitlines()
        injected_row = next(line for line in lines if "# of Injected Errors" in line)
        assert injected_row.split()[-1] == "0"

    def test_mixed_empty_and_populated_systems(self):
        profiles = {"Full": profile_with(2, 0, 2), "Empty": ResilienceProfile("Empty")}
        text = typo_resilience_table(profiles)
        assert "4 (100%)" in text and "Empty" in text

    def test_no_profiles_at_all(self):
        text = typo_resilience_table({})
        assert "# of Injected Errors" in text


class TestStructuralSupportTable:
    def test_percentage_excludes_na(self):
        support = {
            "MySQL": {"A": "Yes", "B": "Yes", "C": "No", "D": "Yes", "E": "Yes"},
            "Postgres": {"A": "n/a", "B": "Yes", "C": "Yes", "D": "No", "E": "Yes"},
        }
        text = structural_support_table(support)
        assert "80%" in text  # MySQL: 4/5
        assert "75%" in text  # Postgres: 3/4 applicable
        assert "n/a" in text

    def test_row_order_follows_insertion(self):
        support = {"S": {"first": "Yes", "second": "No"}}
        text = structural_support_table(support)
        assert text.index("first") < text.index("second")

    def test_system_missing_from_a_row_renders_na(self):
        # "B" never ran the "only-a" variation class
        support = {"A": {"only-a": "Yes", "both": "Yes"}, "B": {"both": "No"}}
        lines = structural_support_table(support).splitlines()
        row = next(line for line in lines if line.startswith("only-a"))
        assert "n/a" in row

    def test_system_with_empty_support_mapping(self):
        text = structural_support_table({"Empty": {}, "Full": {"x": "Yes"}})
        summary = next(
            line for line in text.splitlines() if "% of assumptions satisfied" in line
        )
        assert "n/a" in summary and "100%" in summary


class TestSemanticBehaviourTable:
    def test_rows_are_numbered_and_systems_columned(self):
        behaviour = {
            "Missing PTR": {"BIND": "not found", "djbdns": "N/A"},
            "MX pointing to CNAME": {"BIND": "found", "djbdns": "not found"},
        }
        text = semantic_behaviour_table(behaviour)
        assert "1" in text and "2" in text
        assert "BIND" in text and "djbdns" in text
        assert "not found" in text and "N/A" in text

    def test_system_missing_from_a_fault_row_renders_na(self):
        behaviour = {
            "Missing PTR": {"BIND": "not found"},
            "MX pointing to CNAME": {"BIND": "found", "djbdns": "not found"},
        }
        lines = semantic_behaviour_table(behaviour).splitlines()
        ptr_row = next(line for line in lines if "Missing PTR" in line)
        assert "N/A" in ptr_row

    def test_empty_behaviour_mapping(self):
        text = semantic_behaviour_table({})
        assert "Description of fault" in text


class TestClassification:
    def make(self, *outcomes):
        profile = ResilienceProfile("S")
        for index, outcome in enumerate(outcomes):
            profile.add(InjectionRecord(f"r{index}", "c", "", outcome))
        return profile

    def test_structural_support_of_empty_profile_is_na(self):
        assert classify_structural_support(self.make()) == "n/a"

    def test_structural_support_requires_every_variant_accepted(self):
        accepted = self.make(InjectionOutcome.IGNORED, InjectionOutcome.IGNORED)
        rejected = self.make(InjectionOutcome.IGNORED, InjectionOutcome.DETECTED_AT_STARTUP)
        assert classify_structural_support(accepted) == "Yes"
        assert classify_structural_support(rejected) == "No"

    def test_semantic_behaviour_of_empty_profile_is_na(self):
        assert classify_semantic_behaviour(self.make()) == "N/A"

    def test_semantic_behaviour_of_impossible_injections_is_na(self):
        profile = self.make(
            InjectionOutcome.INJECTION_IMPOSSIBLE, InjectionOutcome.INJECTION_IMPOSSIBLE
        )
        assert classify_semantic_behaviour(profile) == "N/A"

    def test_semantic_behaviour_found_vs_not_found(self):
        assert classify_semantic_behaviour(self.make(InjectionOutcome.DETECTED_BY_TESTS)) == "found"
        assert classify_semantic_behaviour(self.make(InjectionOutcome.IGNORED)) == "not found"

    def test_per_directive_rates_skip_missing_and_uninjected(self):
        profile = ResilienceProfile("S")
        profile.add(
            InjectionRecord(
                "a", "typo", "", InjectionOutcome.DETECTED_AT_STARTUP,
                metadata={"directive": "port"},
            )
        )
        profile.add(
            InjectionRecord(
                "b", "typo", "", InjectionOutcome.INJECTION_IMPOSSIBLE,
                metadata={"directive": "socket"},
            )
        )
        profile.add(InjectionRecord("c", "typo", "", InjectionOutcome.IGNORED))
        rates = per_directive_detection_rates(profile)
        assert rates == {"port": 1.0}


class TestDetectionDistribution:
    def test_distribution_shares_sum_to_one(self):
        rates = {"a": 0.1, "b": 0.3, "c": 0.6, "d": 0.9}
        distribution = detection_distribution(rates)
        assert sum(distribution.values()) == 1.0
        assert distribution["poor"] == 0.25
        assert distribution["excellent"] == 0.25

    def test_empty_rates(self):
        distribution = detection_distribution({})
        assert all(share == 0.0 for share in distribution.values())

    def test_chart_contains_all_bins_and_systems(self):
        chart = render_distribution_chart(
            {"MySQL": {"poor": 0.5, "fair": 0.25, "good": 0.25, "excellent": 0.0}}
        )
        for label in ("poor", "fair", "good", "excellent", "MySQL"):
            assert label in chart
        assert "50.0%" in chart


class TestStoreReport:
    """``render_store_report`` over a two-system, two-campaign store."""

    def _store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.write_manifest({"kind": "suite", "seed": 7, "systems": {"a": "Alpha", "b": "Beta"}})
        for system, name in (("a", "Alpha"), ("b", "Beta")):
            for campaign, profile in (
                ("spelling", profile_with(2, 1, 3, name)),
                ("structural", profile_with(1, 0, 1, name)),
            ):
                for record in profile:
                    store.append(system, campaign, record)
        store.close()
        return ResultStore(tmp_path / "store")

    def test_report_is_the_summaries_then_table1(self, tmp_path):
        store = self._store(tmp_path)
        expected = [f"result store: {store.root} (kind: suite, seed: 7)"]
        for profile in merged(store.load_profiles()).values():
            expected += ["", profile.summary()]
        expected += ["", store_typo_table(store)]
        assert render_store_report(store) == "\n".join(expected)

    def test_report_reads_each_stored_record_once(self, tmp_path, monkeypatch):
        store = self._store(tmp_path)
        stored = sum(1 for system in store.systems() for _ in store.iter_records(system))
        read = []
        original = ResultStore.iter_records

        def counting(self, system):
            for item in original(self, system):
                read.append(item)
                yield item

        monkeypatch.setattr(ResultStore, "iter_records", counting)
        render_store_report(store)
        assert stored == 16
        assert len(read) == stored
