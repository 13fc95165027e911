"""Record vocabulary: slice labels, seed derivation, sample records."""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixsearch.records import (
    CheckResult,
    Dimension,
    L2State,
    SampleRecord,
    child_seed,
    DATASET_FOR_DIMENSION,
    DIMENSION_FOR_DATASET,
    parse_slice_key,
    slice_key,
)


class TestSliceKey:
    def test_sorts_fields(self):
        assert slice_key({"b": "2", "a": "1"}) == "a=1|b=2"

    def test_single_field(self):
        assert slice_key({"complexity": "HIGH"}) == "complexity=HIGH"

    def test_roundtrip(self):
        parts = {"category": "privacy", "proximity": "NEAR"}
        assert parse_slice_key(slice_key(parts)) == parts

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            slice_key({})

    @pytest.mark.parametrize("bad", [{"a=b": "1"}, {"a": "x|y"}, {"a|b": "1"}, {"a": "="}])
    def test_reserved_characters_rejected(self, bad):
        with pytest.raises(ValueError, match="reserved"):
            slice_key(bad)

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_slice_key("no-separator")

    @given(
        st.dictionaries(
            st.text(st.characters(exclude_characters="=|"), min_size=1, max_size=8),
            st.text(st.characters(exclude_characters="=|"), min_size=0, max_size=8),
            min_size=1,
            max_size=4,
        )
    )
    def test_roundtrip_property(self, parts):
        assert parse_slice_key(slice_key(parts)) == parts


class TestChildSeed:
    def test_deterministic(self):
        assert child_seed(7, "round", 3) == child_seed(7, "round", 3)

    def test_path_sensitivity(self):
        seeds = {
            child_seed(7, "round", 3),
            child_seed(7, "round", 4),
            child_seed(8, "round", 3),
            child_seed(7, "draw", 3),
        }
        assert len(seeds) == 4

    def test_64_bit_range(self):
        seed = child_seed(0, "base")
        assert 0 <= seed < 2**64

    def test_stage_extension_stability(self):
        # Adding stages never perturbs existing stages' seeds.
        before = child_seed(1, "round", 0, "draw")
        child_seed(1, "round", 0, "backend")
        assert child_seed(1, "round", 0, "draw") == before


class TestDatasetDimensionPairing:
    def test_bijection(self):
        assert len(DIMENSION_FOR_DATASET) == 3
        for dataset, dimension in DIMENSION_FOR_DATASET.items():
            assert DATASET_FOR_DIMENSION[dimension] is dataset


def _record(**overrides) -> SampleRecord:
    defaults = dict(
        sample_id="s1",
        dimension=Dimension.IF,
        valid=True,
        slice_label="complexity=1|family=FORMAT",
        weight=1.0,
        checks=(CheckResult("c1", True, family="FORMAT", hard=True),),
        l2_state=L2State.FULL,
        score=5.0,
    )
    defaults.update(overrides)
    return SampleRecord(**defaults)


class TestSampleRecord:
    def test_json_roundtrip(self):
        record = _record(
            checks=(
                CheckResult("c1", True, family="FORMAT", hard=True),
                CheckResult("c2", False, family="LENGTH"),
            ),
            l2_state=L2State.PARTIAL,
            score=3.0,
        )
        assert SampleRecord.from_json(record.to_json()) == record

    def test_failed_check_ids(self):
        record = _record(
            checks=(CheckResult("c1", True, hard=True), CheckResult("c2", False)),
            l2_state=L2State.PARTIAL,
            score=1.0,
        )
        assert record.failed_check_ids() == ("c2",)

    @pytest.mark.parametrize("score", [0.9, 5.1, -1.0])
    def test_score_range_enforced(self, score):
        with pytest.raises(ValueError, match="outside"):
            _record(score=score)

    def test_weight_must_be_positive(self):
        with pytest.raises(ValueError, match="weight"):
            _record(weight=0.0)

    def test_state_must_match_dimension(self):
        with pytest.raises(ValueError, match="not a IF state"):
            _record(l2_state=L2State.LEAKAGE)

    def test_check_ids_visible_in_json(self):
        obj = _record().to_json()
        assert obj["slice"] == "complexity=1|family=FORMAT"
        assert obj["checks"][0]["id"] == "c1"
