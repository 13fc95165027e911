"""Metric vectors, failure profiles, and slice ranking."""
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixsearch.errors import UndefinedMetricError
from mixsearch.profiles import (
    DEFAULT_FAIL_THRESHOLD,
    FailureProfile,
    MetricVector,
    build_failure_profiles,
    metric_vector,
    rank_slices,
    weighted_means,
)
from mixsearch.records import CheckResult, Dimension, L2State, SampleRecord

from conftest import columns_of

_DEFAULT_STATES = {
    Dimension.SAFE: (L2State.LEAKAGE, L2State.BARE_REFUSAL, L2State.SAFE_HELPFUL_REFUSAL),
    Dimension.BENIGN: (L2State.EXPLICIT_REFUSAL, L2State.GATED, L2State.HELPFUL),
    Dimension.IF: (L2State.HARD_FAIL, L2State.PARTIAL, L2State.FULL),
}


def record(
    dimension,
    score,
    slice_label="tier=a",
    *,
    sample_id="s",
    valid=True,
    weight=1.0,
    failed=(),
):
    """Scored-record factory with a state consistent with the score,
    marked synthetic as every record a round writes is."""
    low, mid, high = _DEFAULT_STATES[dimension]
    state = low if score == 1.0 else high if score == 5.0 else mid
    checks = tuple(CheckResult(check_id, passed=False) for check_id in failed) or (
        CheckResult("c1", passed=score == 5.0),
    )
    return SampleRecord(
        sample_id=sample_id,
        dimension=dimension,
        valid=valid,
        slice_label=slice_label,
        weight=weight,
        checks=checks,
        l2_state=state,
        score=score,
        invalid_reason=None if valid else "unanswerable",
        synthetic=True,
    )


def one_of_each(safe=3.0, benign=3.0, if_score=3.0):
    return [
        record(Dimension.SAFE, safe, sample_id="a"),
        record(Dimension.BENIGN, benign, sample_id="b"),
        record(Dimension.IF, if_score, sample_id="c"),
    ]


# ---------------------------------------------------------------------------
# MetricVector and metric_vector


class TestMetricVector:
    def test_mean_of_one_through_five_is_three(self):
        records = [
            record(Dimension.SAFE, float(v), sample_id=f"s{v}") for v in (1, 2, 3, 4, 5)
        ] + one_of_each()[1:]
        assert metric_vector(columns_of(records)).safe == pytest.approx(3.0)

    def test_missing_dimension_raises_with_its_name(self):
        records = one_of_each()[:2]  # no IF records at all
        with pytest.raises(UndefinedMetricError, match="IF"):
            metric_vector(columns_of(records))

    def test_invalid_records_excluded(self):
        records = one_of_each(safe=5.0)
        records.append(record(Dimension.SAFE, 1.0, sample_id="bad", valid=False))
        assert metric_vector(columns_of(records)).safe == 5.0

    def test_all_invalid_dimension_is_undefined(self):
        records = one_of_each()[1:]
        records.append(record(Dimension.SAFE, 3.0, valid=False))
        with pytest.raises(UndefinedMetricError, match="SAFE"):
            metric_vector(columns_of(records))

    def test_scaled_fixed_point(self):
        vector = MetricVector(safe=2.76, benign=4.6667, if_score=3.43)
        assert vector.scaled() == (27600, 46667, 34300)

    def test_format_defaults_to_four_decimals(self):
        vector = MetricVector(safe=2.76, benign=4.6667, if_score=3.43)
        assert f"{vector}" == "2.7600 / 4.6667 / 3.4300"
        assert f"{vector:.2f}" == "2.76 / 4.67 / 3.43"

    def test_get_by_dimension(self):
        vector = MetricVector(safe=1.0, benign=2.0, if_score=3.0)
        assert vector.get(Dimension.SAFE) == 1.0
        assert vector.get(Dimension.BENIGN) == 2.0
        assert vector.get(Dimension.IF) == 3.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            MetricVector(safe=0.9, benign=3.0, if_score=3.0)
        with pytest.raises(ValueError):
            MetricVector(safe=3.0, benign=5.1, if_score=3.0)

    def test_json_roundtrip_ignores_extra_keys(self):
        vector = MetricVector(safe=3.2267, benign=3.6433, if_score=3.53)
        payload = vector.to_json()
        payload["round"] = "0"
        assert MetricVector.from_json(payload) == vector


class TestWeightedMeans:
    def test_weights_scale_contribution(self):
        records = one_of_each()[1:]
        records.append(record(Dimension.SAFE, 5.0, sample_id="w3", weight=3.0))
        records.append(record(Dimension.SAFE, 1.0, sample_id="w1", weight=1.0))
        means = weighted_means(columns_of(records))
        assert means["safe"] == pytest.approx(4.0)  # (3*5 + 1*1) / 4

    def test_empty_dimension_is_nan_not_error(self):
        means = weighted_means(columns_of(one_of_each()[:2]))
        assert math.isnan(means["if"])


# ---------------------------------------------------------------------------
# Failure profiles


class TestBuildFailureProfiles:
    def test_all_passing_slice(self):
        records = [
            record(Dimension.IF, 5.0, "family=LENGTH", sample_id="a"),
            record(Dimension.IF, 5.0, "family=LENGTH", sample_id="b"),
        ]
        (profile,) = build_failure_profiles(columns_of(records))
        assert profile.fail_rate == 0.0
        assert profile.breakdown == {}
        assert profile.mean_score == 5.0
        assert profile.sample_count == 2
        assert profile.fail_mass == 0.0

    def test_failing_sample_contributes_checks_and_state(self):
        records = [
            record(Dimension.IF, 1.0, "family=LENGTH", sample_id="a", failed=("c7",)),
            record(Dimension.IF, 5.0, "family=LENGTH", sample_id="b"),
        ]
        (profile,) = build_failure_profiles(columns_of(records))
        assert profile.mean_score == pytest.approx(3.0)
        assert profile.fail_rate == 0.5
        assert profile.breakdown == {"c7": 1, "HARD_FAIL": 1}

    def test_fail_threshold_is_strict(self):
        records = [record(Dimension.IF, DEFAULT_FAIL_THRESHOLD, "family=LENGTH")]
        (profile,) = build_failure_profiles(columns_of(records))
        assert profile.fail_rate == 0.0
        looser = build_failure_profiles(columns_of(records), fail_threshold=3.0001)
        assert looser[0].fail_rate == 1.0

    def test_profiles_ordered_by_dimension_then_slice(self):
        records = [
            record(Dimension.IF, 4.0, "family=LENGTH", sample_id="a"),
            record(Dimension.SAFE, 4.0, "complexity=MED", sample_id="b"),
            record(Dimension.SAFE, 4.0, "complexity=HIGH", sample_id="c"),
            record(Dimension.BENIGN, 4.0, "proximity=EDGE", sample_id="d"),
        ]
        profiles = build_failure_profiles(columns_of(records))
        ordered = [(p.dimension, p.slice_label) for p in profiles]
        assert ordered == [
            (Dimension.SAFE, "complexity=HIGH"),
            (Dimension.SAFE, "complexity=MED"),
            (Dimension.BENIGN, "proximity=EDGE"),
            (Dimension.IF, "family=LENGTH"),
        ]

    def test_invalid_records_skipped(self):
        records = [
            record(Dimension.SAFE, 1.0, "complexity=MED", sample_id="a", valid=False),
            record(Dimension.SAFE, 5.0, "complexity=MED", sample_id="b"),
        ]
        (profile,) = build_failure_profiles(columns_of(records))
        assert profile.sample_count == 1
        assert profile.fail_rate == 0.0

    def test_weight_mass_sums_slice_weights(self):
        records = [
            record(Dimension.SAFE, 1.0, "complexity=HIGH", sample_id="a", weight=2.0),
            record(Dimension.SAFE, 1.0, "complexity=HIGH", sample_id="b", weight=1.5),
        ]
        (profile,) = build_failure_profiles(columns_of(records))
        assert profile.weight_mass == pytest.approx(3.5)
        assert profile.fail_mass == pytest.approx(3.5)

    def test_top_modes_ranked_by_count_then_name(self):
        profile = FailureProfile(
            dimension=Dimension.IF,
            slice_label="family=LENGTH",
            mean_score=2.0,
            fail_rate=1.0,
            breakdown={"c2": 3, "c1": 3, "HARD_FAIL": 5, "c9": 1},
            sample_count=5,
            weight_mass=5.0,
        )
        assert profile.top_modes(3) == ["HARD_FAIL", "c1", "c2"]

    def test_json_roundtrip(self):
        records = [record(Dimension.IF, 1.0, "family=LENGTH", failed=("c1",))]
        (profile,) = build_failure_profiles(columns_of(records))
        assert FailureProfile.from_json(profile.to_json()) == profile

    def test_validation(self):
        with pytest.raises(ValueError):
            FailureProfile(Dimension.IF, "s", 3.0, 1.5, {}, 1, 1.0)
        with pytest.raises(ValueError):
            FailureProfile(Dimension.IF, "s", 3.0, 0.5, {}, 0, 1.0)


class TestRankSlices:
    def _profile(self, label, fail_rate, mean, weight_mass=1.0):
        return FailureProfile(
            dimension=Dimension.SAFE,
            slice_label=label,
            mean_score=mean,
            fail_rate=fail_rate,
            breakdown={},
            sample_count=4,
            weight_mass=weight_mass,
        )

    def test_higher_fail_mass_first(self):
        light = self._profile("a", 0.25, 3.0)
        heavy = self._profile("b", 0.25, 3.0, weight_mass=4.0)
        assert rank_slices([light, heavy])[0] is heavy

    def test_tied_mass_breaks_on_lower_mean(self):
        worse = self._profile("a", 0.5, 2.0)
        better = self._profile("b", 0.5, 4.0)
        assert rank_slices([better, worse])[0] is worse

    def test_full_tie_breaks_on_label(self):
        first = self._profile("alpha", 0.5, 3.0)
        second = self._profile("beta", 0.5, 3.0)
        assert [p.slice_label for p in rank_slices([second, first])] == ["alpha", "beta"]

    def test_fail_mass_outranks_lower_mean(self):
        low = self._profile("low", 0.1, 1.5)
        high = self._profile("high", 0.9, 4.5)
        assert high.fail_mass == pytest.approx(0.9)
        assert rank_slices([low, high]) == [high, low]


# ---------------------------------------------------------------------------
# Structural properties: profiles partition records; means stay consistent.

scores = st.integers(0, 10_000).map(lambda ticks: round(1 + 4 * ticks / 10_000, 4))
labels = st.sampled_from(["tier=a", "tier=b", "tier=c", "tier=d"])
dimensions = st.sampled_from(list(Dimension))


@st.composite
def record_batches(draw):
    n = draw(st.integers(3, 40))
    records = []
    for i in range(n):
        records.append(
            record(
                draw(dimensions),
                draw(scores),
                draw(labels),
                sample_id=f"s{i}",
                valid=draw(st.booleans()),
                weight=draw(st.sampled_from([1.0, 1.5, 2.0])),
            )
        )
    # Guarantee the metric is defined everywhere.
    for j, dimension in enumerate(Dimension):
        records.append(record(dimension, 3.0, sample_id=f"anchor{j}"))
    return records


class TestProfileConsistency:
    @given(record_batches())
    def test_sample_counts_partition_valid_records(self, records):
        profiles = build_failure_profiles(columns_of(records))
        for dimension in Dimension:
            valid = [r for r in records if r.valid and r.dimension is dimension]
            counted = sum(p.sample_count for p in profiles if p.dimension is dimension)
            assert counted == len(valid)
        seen = {(p.dimension, p.slice_label) for p in profiles}
        assert len(seen) == len(profiles)  # one profile per populated slice

    @given(record_batches())
    def test_count_weighted_slice_means_recover_metric(self, records):
        profiles = build_failure_profiles(columns_of(records))
        metric = metric_vector(columns_of(records))
        for dimension in Dimension:
            mine = [p for p in profiles if p.dimension is dimension]
            total = sum(p.sample_count for p in mine)
            blended = sum(p.mean_score * p.sample_count for p in mine) / total
            assert blended == pytest.approx(metric.get(dimension), abs=1e-9)
