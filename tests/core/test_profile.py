"""Unit tests for resilience profiles, outcomes and detection bins."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.profile import (
    DETECTION_BINS,
    InjectionOutcome,
    InjectionRecord,
    ResilienceProfile,
    detection_bin,
)


def record(outcome: InjectionOutcome, category: str = "typo", directive: str | None = None) -> InjectionRecord:
    return InjectionRecord(
        scenario_id=f"{category}-{outcome.value}",
        category=category,
        description="test record",
        outcome=outcome,
        metadata={"directive": directive} if directive else {},
    )


class TestOutcome:
    def test_is_detected(self):
        assert InjectionOutcome.DETECTED_AT_STARTUP.is_detected()
        assert InjectionOutcome.DETECTED_BY_TESTS.is_detected()
        assert not InjectionOutcome.IGNORED.is_detected()
        assert not InjectionOutcome.INJECTION_IMPOSSIBLE.is_detected()

    def test_counts_as_injected(self):
        assert InjectionOutcome.IGNORED.counts_as_injected()
        assert not InjectionOutcome.INJECTION_IMPOSSIBLE.counts_as_injected()
        assert not InjectionOutcome.HARNESS_ERROR.counts_as_injected()


class TestDetectionBin:
    @pytest.mark.parametrize(
        "rate,expected",
        [
            (0.0, "poor"),
            (0.24, "poor"),
            (0.25, "fair"),
            (0.49, "fair"),
            (0.5, "good"),
            (0.74, "good"),
            (0.75, "excellent"),
            (1.0, "excellent"),
        ],
    )
    def test_bin_boundaries(self, rate, expected):
        assert detection_bin(rate) == expected

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            detection_bin(1.5)
        with pytest.raises(ValueError):
            detection_bin(-0.1)

    def test_bins_cover_unit_interval(self):
        assert DETECTION_BINS[0][1] == 0.0
        assert DETECTION_BINS[-1][2] == 1.0


class TestResilienceProfile:
    def build(self) -> ResilienceProfile:
        profile = ResilienceProfile("TestSys")
        profile.add(record(InjectionOutcome.DETECTED_AT_STARTUP, "typo", "port"))
        profile.add(record(InjectionOutcome.DETECTED_BY_TESTS, "typo", "port"))
        profile.add(record(InjectionOutcome.IGNORED, "typo", "datadir"))
        profile.add(record(InjectionOutcome.IGNORED, "structure", "datadir"))
        profile.add(record(InjectionOutcome.INJECTION_IMPOSSIBLE, "semantic"))
        profile.add(record(InjectionOutcome.HARNESS_ERROR, "semantic"))
        return profile

    def test_counts(self):
        profile = self.build()
        assert len(profile) == 6
        assert profile.injected_count() == 4
        assert profile.detected_count() == 2
        assert profile.ignored_count() == 2

    def test_detection_rate_and_bin(self):
        profile = self.build()
        assert profile.detection_rate() == pytest.approx(0.5)
        assert profile.detection_bin() == "good"

    def test_empty_profile_rate_is_zero(self):
        assert ResilienceProfile("empty").detection_rate() == 0.0

    def test_outcome_counts_include_all_outcomes(self):
        counts = self.build().outcome_counts()
        assert set(counts) == set(InjectionOutcome)
        assert counts[InjectionOutcome.IGNORED] == 2

    def test_records_with(self):
        profile = self.build()
        assert len(profile.records_with(InjectionOutcome.IGNORED)) == 2

    def test_categories_in_first_appearance_order(self):
        assert self.build().categories() == ["typo", "structure", "semantic"]

    def test_by_category_split(self):
        by_category = self.build().by_category()
        assert by_category["typo"].injected_count() == 3
        assert by_category["semantic"].injected_count() == 0

    def test_by_metadata_split(self):
        by_directive = self.build().by_metadata("directive")
        assert by_directive["port"].detection_rate() == 1.0
        assert by_directive["datadir"].detection_rate() == 0.0
        assert None in by_directive

    def test_merge_and_extend(self):
        profile = self.build()
        other = ResilienceProfile("TestSys", [record(InjectionOutcome.IGNORED)])
        merged = profile.merge(other)
        assert len(merged) == 7
        profile.extend(other.records)
        assert len(profile) == 7

    def test_to_dict_and_json(self):
        profile = self.build()
        data = profile.to_dict()
        assert data["system"] == "TestSys"
        assert data["injected"] == 4
        assert len(data["records"]) == 6
        parsed = json.loads(profile.to_json())
        assert parsed["outcomes"]["ignored"] == 2

    def test_record_to_dict(self):
        entry = record(InjectionOutcome.DETECTED_BY_TESTS).to_dict()
        assert entry["outcome"] == "detected-by-tests"
        assert "scenario_id" in entry and "metadata" in entry

    def test_roundtrip_through_dict_and_json(self):
        profile = self.build()
        rebuilt = ResilienceProfile.from_json(profile.to_json())
        assert rebuilt.system_name == profile.system_name
        assert len(rebuilt) == len(profile)
        assert rebuilt.detection_rate() == profile.detection_rate()
        assert [r.outcome for r in rebuilt] == [r.outcome for r in profile]

    def test_save_and_load(self, tmp_path):
        profile = self.build()
        path = tmp_path / "profile.json"
        profile.save(str(path))
        loaded = ResilienceProfile.load(str(path))
        assert loaded.outcome_counts() == profile.outcome_counts()

    def test_record_from_dict_roundtrip(self):
        original = record(InjectionOutcome.DETECTED_BY_TESTS, "typo", "port")
        rebuilt = InjectionRecord.from_dict(original.to_dict())
        assert rebuilt == original

    def test_summary_mentions_key_numbers(self):
        text = self.build().summary()
        assert "TestSys" in text
        assert "injected errors:        4" in text
        assert "50.0%" in text


def recount(profile: ResilienceProfile) -> dict:
    """Every count query answered by a fresh pass over ``profile.records``."""
    outcomes = [entry.outcome for entry in profile.records]
    injected = sum(1 for outcome in outcomes if outcome.counts_as_injected())
    detected = sum(1 for outcome in outcomes if outcome.is_detected())
    return {
        "outcome_counts": {outcome: outcomes.count(outcome) for outcome in InjectionOutcome},
        "injected": injected,
        "detected": detected,
        "ignored": outcomes.count(InjectionOutcome.IGNORED),
        "rate": detected / injected if injected else 0.0,
    }


def answers(profile: ResilienceProfile) -> dict:
    return {
        "outcome_counts": profile.outcome_counts(),
        "injected": profile.injected_count(),
        "detected": profile.detected_count(),
        "ignored": profile.ignored_count(),
        "rate": profile.detection_rate(),
    }


_outcome_lists = st.lists(st.sampled_from(list(InjectionOutcome)), max_size=4)
_operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sampled_from(list(InjectionOutcome))),
        st.tuples(st.just("extend"), _outcome_lists),
        st.tuples(st.just("merge"), _outcome_lists),
        st.tuples(st.just("query"), st.none()),
    ),
    max_size=30,
)


class TestOutcomeTally:
    @settings(max_examples=200, deadline=None)
    @given(_operations)
    def test_counts_match_a_recount_after_any_interleaving(self, operations):
        # the tally is built by the first query after a change; every
        # change must clear it, whether or not a query built it
        profile = ResilienceProfile("S")
        for operation, argument in operations:
            if operation == "add":
                profile.add(record(argument))
            elif operation == "extend":
                profile.extend(record(outcome) for outcome in argument)
            elif operation == "merge":
                before = answers(profile)
                merged = profile.merge(ResilienceProfile("S", [record(o) for o in argument]))
                assert answers(profile) == before == recount(profile)
                assert answers(merged) == recount(merged)
                profile = merged
            else:
                assert answers(profile) == recount(profile)
        assert answers(profile) == recount(profile)

    def test_outcome_counts_returns_a_copy(self):
        profile = ResilienceProfile("S", [record(InjectionOutcome.IGNORED)])
        profile.outcome_counts()[InjectionOutcome.IGNORED] = 99
        assert profile.ignored_count() == 1


def _enum_from_dict(data):
    """``InjectionRecord.from_dict`` as written with the ``Enum`` call."""
    return InjectionRecord(
        scenario_id=data["scenario_id"],
        category=data.get("category", ""),
        description=data.get("description", ""),
        outcome=InjectionOutcome(data["outcome"]),
        messages=list(data.get("messages", [])),
        failed_tests=list(data.get("failed_tests", [])),
        metadata=dict(data.get("metadata", {})),
        duration_seconds=float(data.get("duration_seconds", 0.0)),
    )


#: The exceptions the store's line rule turns into a corrupt-line verdict.
_LINE_RULE_CATCHES = (ValueError, KeyError, TypeError)
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)
_outcome_values = st.sampled_from(
    [outcome.value for outcome in InjectionOutcome] + [outcome.name for outcome in InjectionOutcome]
)
_record_dicts = st.fixed_dictionaries(
    {},
    optional={
        "scenario_id": st.text(max_size=4) | _json,
        "category": st.text(max_size=4) | _json,
        "description": _json,
        "outcome": _outcome_values | _json,
        "messages": st.lists(st.text(max_size=3), max_size=2) | _json,
        "failed_tests": st.lists(st.text(max_size=3), max_size=2) | _json,
        "metadata": st.dictionaries(st.text(max_size=3), _json, max_size=2) | _json,
        "duration_seconds": st.floats() | _json,
    },
)


class TestRecordFromDict:
    @settings(max_examples=400, deadline=None)
    @given(_record_dicts | _json)
    def test_table_lookup_accepts_and_refuses_like_the_enum_call(self, data):
        try:
            expected = _enum_from_dict(data)
        except Exception as exc:  # noqa: BLE001 - the refusal itself is compared
            expected = exc
        try:
            actual = InjectionRecord.from_dict(data)
        except Exception as exc:  # noqa: BLE001
            actual = exc
        if isinstance(expected, Exception):
            assert isinstance(actual, Exception)
            assert isinstance(actual, _LINE_RULE_CATCHES) == isinstance(expected, _LINE_RULE_CATCHES)
        else:
            assert not isinstance(actual, Exception), actual
            assert actual.outcome is expected.outcome
            assert repr(actual) == repr(expected)  # repr: a NaN duration equals itself

    @pytest.mark.parametrize("outcome", ["IGNORED", "no-such-outcome", ["ignored"], {"v": 1}, None])
    def test_unknown_or_unhashable_outcome_is_refused_as_the_line_rule_expects(self, outcome):
        with pytest.raises(_LINE_RULE_CATCHES):
            InjectionRecord.from_dict({"scenario_id": "s", "outcome": outcome})
