"""Record vocabulary: slice labels, seed derivation, sample records."""
import hashlib
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mixsearch.errors import DataError
from mixsearch.records import (
    _DECODER,
    CheckResult,
    Dimension,
    L2State,
    STATES_FOR_DIMENSION,
    SampleRecord,
    TemplateColumns,
    child_seed,
    read_json,
    DATASET_FOR_DIMENSION,
    DIMENSION_FOR_DATASET,
    parse_slice_key,
    slice_key,
    write_records,
)

from conftest import columns_of


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
        synthetic=True,
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
        """A record's failed check ids head its template's failure mode,
        which ends with its state."""
        record = _record(
            checks=(CheckResult("c1", True, hard=True), CheckResult("c2", False)),
            l2_state=L2State.PARTIAL,
            score=1.0,
        )
        table = TemplateColumns(record.dimension)
        template = table.add(record.checks, record.l2_state, record.score)
        assert table.modes[template] == ("c2", "PARTIAL")

    def test_a_copied_template_shares_its_source_objects(self):
        checks = (CheckResult("c1", True, hard=True), CheckResult("c2", False, weight=0.5))
        source = TemplateColumns(Dimension.IF)
        source.add(_record().checks, L2State.FULL, 5.0)
        template = source.add(checks, L2State.PARTIAL, 3.25)
        table = TemplateColumns(Dimension.IF)
        assert table.add_copy(source, template) == 0
        assert table.scores[0] is source.scores[template]
        assert table.modes[0] is source.modes[template]
        assert table.middles[0] is source.middles[template]
        # Made afresh in the new table, the same template shares its modes.
        made = table.add(checks, L2State.PARTIAL, 3.25)
        assert table.middles[made] == table.middles[0]
        assert table.modes[made] is table.modes[0]
        with pytest.raises(ValueError, match="SAFE template copied into a IF table"):
            table.add_copy(TemplateColumns(Dimension.SAFE), 0)

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
# Flags that are the integers 0 and 1, and an infinite weight: values
# that json.dumps encodes, and the hand-written encoding does not.
_checks = st.lists(
    st.builds(
        CheckResult,
        check_id=_text.filter(bool),
        passed=st.booleans() | st.sampled_from([0, 1]),
        family=st.none() | _text,
        hard=st.booleans() | st.sampled_from([0, 1]),
        weight=st.sampled_from([1.0, 0.5, 2, 1e-05, math.inf]),
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
                synthetic=True,  # the writer marks every record synthetic
            )
        )
    return records


_SHARED_CHECKS = (CheckResult("c1", True, family="FORMAT", hard=True),)
_PLAIN_CHECKS = (CheckResult("c1", True), CheckResult("c2", False, weight=1))


def _written(records) -> bytes:
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "records.jsonl"
        digest = write_records(path, columns_of(records))
        written = path.read_bytes()
    assert digest == hashlib.sha256(written).hexdigest()
    return written


def _compact_line(record) -> str:
    return json.dumps(record.to_json(), ensure_ascii=False, separators=(",", ":")) + "\n"


class TestWriteRecords:
    @given(_records())
    @example([  # scores that compare equal, encoded differently
        _record(checks=_SHARED_CHECKS, score=2.0, l2_state=L2State.PARTIAL),
        _record(checks=_SHARED_CHECKS, score=2, l2_state=L2State.PARTIAL),
    ])
    @example([  # an int weight 1 is written, the float 1.0 is not
        _record(checks=_PLAIN_CHECKS, weight=1, l2_state=L2State.PARTIAL, score=3.0),
        _record(checks=_PLAIN_CHECKS, weight=1.0, l2_state=L2State.PARTIAL, score=3.0),
    ])
    @example([  # a non-ASCII id, a set invalid reason, a check with family and hard
        _record(sample_id="é漢-🙂", invalid_reason="unanswerable", synthetic=True),
        _record(sample_id="s2", valid=False),
    ])
    @example([  # an empty id, a boolean score
        _record(sample_id="", score=True),
        _record(sample_id="s2"),
    ])
    @example([  # checks of one run that differ only by a flag's True against 1
        _record(checks=(CheckResult("c1", True, hard=True),)),
        _record(checks=(CheckResult("c1", 1, hard=True),)),
        _record(checks=(CheckResult("c2", False, hard=True),)),
        _record(checks=(CheckResult("c2", False, hard=1),)),
    ])
    def test_lines_are_json_dumps_of_to_json(self, records):
        written = _written(records)
        expected = "".join(_compact_line(record) for record in records)
        assert written == expected.encode("utf-8")

    def test_default_fields_are_left_out(self):
        record = _record(checks=_PLAIN_CHECKS, l2_state=L2State.PARTIAL, score=3.0)
        assert _written([record]).decode("utf-8") == (
            '{"sample_id":"s1","dimension":"IF","valid":true,'
            '"slice":"complexity=1|family=FORMAT","checks":[{"id":"c1","passed":true},'
            '{"id":"c2","passed":false,"weight":1}],"l2_state":"PARTIAL","score":3.0,'
            '"synthetic":true}\n'
        )
        set_fields = _record(weight=2.5, invalid_reason="unmapped")
        assert json.loads(_written([set_fields])) == {
            "sample_id": "s1",
            "dimension": "IF",
            "valid": True,
            "slice": "complexity=1|family=FORMAT",
            "weight": 2.5,
            "checks": [{"id": "c1", "passed": True, "family": "FORMAT", "hard": True}],
            "l2_state": "FULL",
            "score": 5.0,
            "invalid_reason": "unmapped",
            "synthetic": True,
        }

    @given(_records())
    def test_lines_read_back_as_the_records(self, records):
        # JSON escapes every "\n" inside a string; a line may hold U+2028.
        lines = _written(records).decode("utf-8").split("\n")[:-1]
        assert [SampleRecord.from_json(json.loads(line)) for line in lines] == records


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

    def test_lines_are_parsed_as_build_reads_them(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n{broken\n', encoding="utf-8")
        assert read_json(path, next, lines=True, what="rows") == {"a": 1}

    def test_a_byte_met_while_build_reads_is_not_utf8(self, tmp_path):
        # Past the text decoder's first chunk, so rows are built before it.
        path = tmp_path / "rows.jsonl"
        path.write_bytes(b'{"a": 1}\n' * 5000 + b"\xff\n")
        seen = []
        with pytest.raises(DataError, match="is not UTF-8 text") as caught:
            read_json(path, seen.extend, lines=True, what="rows")
        assert seen and str(path) in str(caught.value)

    def test_a_line_nested_too_deep_names_its_line(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text("[]\n" + "[" * 100_000 + "]" * 100_000 + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"rows.jsonl:2 is not valid JSON: maximum recursion"):
            read_json(path, lines=True, what="rows")

    @pytest.mark.parametrize("bad_line", ["", '\n{"d": 4}\x0c'])
    def test_lines_read_as_each_line_decoded_on_its_own(self, tmp_path, bad_line):
        # Padding, blank and whitespace-only lines (a form feed is blank to
        # str.strip(), not to JSON), a last line without a newline and,
        # with ``bad_line``, a line that fails after all of them.
        text = (
            '  {"a": 1}  \n\t[1, 2]\t\n"x"\r\n{"b": null}\r\n\n   \n\x0c\n \t\r\n'
            '{"c": [true, false]}\n7' + bad_line
        )
        path = tmp_path / "rows.jsonl"
        path.write_bytes(text.encode("utf-8"))
        expected, failing = [], None
        with open(path, "r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                if line.strip():
                    try:
                        expected.append(_DECODER.decode(line))
                    except ValueError:
                        failing = number
                        break
        assert expected == [{"a": 1}, [1, 2], "x", {"b": None}, {"c": [True, False]}, 7]
        seen = []
        if failing is None:
            read_json(path, seen.extend, lines=True, what="rows")
        else:
            with pytest.raises(DataError, match=f"rows.jsonl:{failing} is not valid JSON"):
                read_json(path, seen.extend, lines=True, what="rows")
        assert seen == expected

    def test_an_error_build_raises_names_the_line_it_holds(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n\n{"a": 2}\n{"b": 3}\n', encoding="utf-8")

        def strict(rows):
            for row in rows:
                if "a" not in row:
                    raise DataError(f"row {row!r} has no a")

        def lookup(rows):
            return [row["a"] for row in rows]

        def counted(rows):
            if len(list(rows)) > 2:
                raise DataError("too many rows")

        with pytest.raises(DataError, match=r"rows.jsonl:4: row \{'b': 3\} has no a$"):
            read_json(path, strict, lines=True, what="rows")
        with pytest.raises(DataError, match=r"rows.jsonl:4 is malformed \(KeyError: 'a'\)"):
            read_json(path, lookup, lines=True, what="rows")
        # Raised after the last row: the file, and no line.
        with pytest.raises(DataError, match=r"rows.jsonl: too many rows$"):
            read_json(path, counted, lines=True, what="rows")

    def test_finite_numbers_parse(self, tmp_path):
        path = tmp_path / "document.json"
        path.write_text('{"a": 1.5e300, "b": -2.5, "c": 1e-400, "d": 12}', encoding="utf-8")
        assert read_json(path, what="document") == {"a": 1.5e300, "b": -2.5, "c": 0.0, "d": 12}
