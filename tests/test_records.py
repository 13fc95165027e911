"""Record vocabulary: slice labels, seed derivation, sample records."""
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mixsearch.errors import DataError
from mixsearch.records import (
    CheckResult,
    Dimension,
    L2State,
    STATES_FOR_DIMENSION,
    SampleRecord,
    child_seed,
    read_json,
    DATASET_FOR_DIMENSION,
    DIMENSION_FOR_DATASET,
    parse_slice_key,
    slice_key,
    write_records,
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


# Strings with the characters JSON escapes or passes through unescaped;
# no lone surrogates, which a UTF-8 file cannot hold.
_text = st.text(
    st.one_of(
        st.sampled_from('"\\/\n\t\x00\x1f\x7fé漢\u2028🙂'),
        st.characters(exclude_categories=("Cs",)),
    ),
    max_size=6,
)
_checks = st.lists(
    st.builds(
        CheckResult,
        check_id=_text.filter(bool),
        passed=st.booleans(),
        family=st.none() | _text,
        hard=st.booleans(),
        weight=st.sampled_from([1.0, 0.5, 2, 1e-05]),
    ),
    min_size=1,
    max_size=3,
).map(tuple)


@st.composite
def _records(draw):
    """Records that share a few checks tuples, some through equal copies."""
    shared = draw(st.lists(_checks, min_size=1, max_size=3))
    records = []
    for _ in range(draw(st.integers(1, 12))):
        dimension = draw(st.sampled_from(list(Dimension)))
        checks = draw(st.sampled_from(shared))
        records.append(
            SampleRecord(
                sample_id=draw(_text),
                dimension=dimension,
                valid=draw(st.booleans()),
                slice_label=draw(_text),
                weight=draw(
                    st.sampled_from([0.1, 1e-05, 1e16, math.inf, 1, 1.0, 2.5])
                    | st.floats(min_value=1e-300, allow_infinity=False)
                ),
                checks=tuple(list(checks)) if draw(st.booleans()) else checks,
                l2_state=draw(st.sampled_from(STATES_FOR_DIMENSION[dimension])),
                score=draw(st.sampled_from([1.0, 3.25, 5.0, 2]) | st.floats(1.0, 5.0)),
                invalid_reason=draw(st.none() | _text),
                synthetic=draw(st.booleans()),
            )
        )
    return records


_SHARED_CHECKS = (CheckResult("c1", True, family="FORMAT", hard=True),)


class TestWriteRecords:
    @given(_records())
    @example([  # scores that compare equal, encoded differently
        _record(checks=_SHARED_CHECKS, score=2.0, l2_state=L2State.PARTIAL),
        _record(checks=_SHARED_CHECKS, score=2, l2_state=L2State.PARTIAL),
    ])
    def test_lines_are_json_dumps_of_to_json(self, records):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "records.jsonl"
            write_records(path, records)
            written = path.read_bytes()
        expected = "".join(json.dumps(r.to_json(), ensure_ascii=False) + "\n" for r in records)
        assert written == expected.encode("utf-8")


class TestReadJson:
    @pytest.mark.parametrize("lines", [False, True])
    @pytest.mark.parametrize(
        "text",
        [
            "NaN",
            "-Infinity",
            '{"a": Infinity}',
            "1e999",
            "[1, -1e400]",
            pytest.param("1" * 5000, id="integer-past-the-digit-limit"),
        ],
    )
    def test_numbers_python_cannot_hold_are_not_json(self, tmp_path, text, lines):
        path = tmp_path / "document.json"
        path.write_text(text + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="is not valid JSON") as caught:
            read_json(path, lines=lines, what="document")
        assert str(path) in str(caught.value)

    def test_finite_numbers_parse(self, tmp_path):
        path = tmp_path / "document.json"
        path.write_text('{"a": 1.5e300, "b": -2.5, "c": 1e-400, "d": 12}', encoding="utf-8")
        assert read_json(path, what="document") == {"a": 1.5e300, "b": -2.5, "c": 0.0, "d": 12}
