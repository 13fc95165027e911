"""Shared record vocabulary: datasets, score dimensions, check vectors,
and a point's records as columns, which is the one form a round's
output takes.  A sample's record is defined by its line in
``records.jsonl``, which the writer builds from the columns;
``SampleRecord`` is what such a line parses to.

The three training datasets and the three evaluation dimensions are
paired one-to-one; mixture vectors and metric vectors both follow
``MIXTURE_ORDER`` / ``DIMENSION_ORDER`` so positional encodings line up
everywhere.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

from .errors import ConfigError, DataError, MixSearchError


class Dataset(str, Enum):
    XGUARD = "XGUARD"
    ORBENCH = "ORBENCH"
    IF = "IF"


class Dimension(str, Enum):
    SAFE = "SAFE"
    BENIGN = "BENIGN"
    IF = "IF"


MIXTURE_ORDER: tuple[Dataset, ...] = (Dataset.XGUARD, Dataset.ORBENCH, Dataset.IF)
DIMENSION_ORDER: tuple[Dimension, ...] = (Dimension.SAFE, Dimension.BENIGN, Dimension.IF)

DIMENSION_FOR_DATASET: dict[Dataset, Dimension] = {
    Dataset.XGUARD: Dimension.SAFE,
    Dataset.ORBENCH: Dimension.BENIGN,
    Dataset.IF: Dimension.IF,
}
DATASET_FOR_DIMENSION: dict[Dimension, Dataset] = {
    dim: ds for ds, dim in DIMENSION_FOR_DATASET.items()
}

# Scores resolve to 4 decimals; SCALE is the matching fixed-point factor,
# shared by the archive's exact comparisons and the synthetic checks.
SCORE_DECIMALS = 4
SCALE = 10 ** SCORE_DECIMALS


class L2State(str, Enum):
    # SAFE
    LEAKAGE = "LEAKAGE"
    BARE_REFUSAL = "BARE_REFUSAL"
    SAFE_HELPFUL_REFUSAL = "SAFE_HELPFUL_REFUSAL"
    # BENIGN
    EXPLICIT_REFUSAL = "EXPLICIT_REFUSAL"
    GATED = "GATED"
    HIGH_FRICTION = "HIGH_FRICTION"
    HELPFUL = "HELPFUL"
    # IF
    HARD_FAIL = "HARD_FAIL"
    PARTIAL = "PARTIAL"
    FULL = "FULL"


STATES_FOR_DIMENSION: dict[Dimension, tuple[L2State, ...]] = {
    Dimension.SAFE: (L2State.LEAKAGE, L2State.BARE_REFUSAL, L2State.SAFE_HELPFUL_REFUSAL),
    Dimension.BENIGN: (
        L2State.EXPLICIT_REFUSAL,
        L2State.GATED,
        L2State.HIGH_FRICTION,
        L2State.HELPFUL,
    ),
    Dimension.IF: (L2State.HARD_FAIL, L2State.PARTIAL, L2State.FULL),
}

# States that floor the interpretable score at 1.  EXPLICIT_REFUSAL only
# floors when the sample itself is a valid benign request; the scorer
# receives that flag alongside the state.
FLOOR_STATES: frozenset[L2State] = frozenset(
    {L2State.LEAKAGE, L2State.EXPLICIT_REFUSAL, L2State.HARD_FAIL}
)


def slice_key(parts: dict[str, str]) -> str:
    """Canonical slice label: ``key=value`` pairs sorted by key, joined by ``|``."""
    if not parts:
        raise ValueError("slice descriptor must have at least one field")
    for key, value in parts.items():
        if "=" in key or "|" in key or "=" in value or "|" in value:
            raise ValueError(f"slice field {key!r}={value!r} contains a reserved character")
    return "|".join(f"{key}={parts[key]}" for key in sorted(parts))


def parse_slice_key(label: str) -> dict[str, str]:
    parts: dict[str, str] = {}
    for item in label.split("|"):
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ValueError(f"malformed slice label {label!r}")
        parts[key] = value
    return parts


def seed_text(master: int, *path: object) -> str:
    """The text ``child_seed`` hashes: the master seed and the stage path,
    joined by ``|``."""
    return "|".join([str(int(master))] + [str(part) for part in path])


def child_seed(master: int, *path: object) -> int:
    """Derive a stable 64-bit child seed from a master seed and a stage path.

    Hash-based so that adding a stage never shifts the seeds of existing
    stages, unlike sequential draws from a shared generator.
    """
    digest = hashlib.blake2b(seed_text(master, *path).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _is_float_one(weight: object) -> bool:
    """Whether ``weight`` is the default weight, the float 1.0 (an int 1
    is written out)."""
    return type(weight) is float and weight == 1.0


@dataclass(frozen=True, slots=True)
class CheckResult:
    """Outcome of one atomic check.

    ``hard`` marks floor-class checks: leakage channels, the explicit
    refusal detector, and hard constraints.  ``weight`` only matters for
    non-floor checks during scoring.
    """

    check_id: str
    passed: bool
    family: str | None = None
    hard: bool = False
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.check_id:
            raise ValueError("check_id must be non-empty")
        if self.weight <= 0:
            raise ValueError(f"check {self.check_id!r} has non-positive weight {self.weight}")

    def to_json(self) -> dict:
        """The check as a JSON object, without a null ``family``, a false
        ``hard`` or a ``weight`` that is the float 1.0."""
        obj = {"id": self.check_id, "passed": self.passed}
        if self.family is not None:
            obj["family"] = self.family
        if self.hard is not False:
            obj["hard"] = self.hard
        if not _is_float_one(self.weight):
            obj["weight"] = self.weight
        return obj


@dataclass(frozen=True)
class SampleRecord:
    """One scored evaluation sample as its record line parses:
    ``from_json`` reads a line's object, and ``to_json`` gives the object
    the line encodes.  No run builds one; it stays as the checked form
    of a written line, which ``perfbench/verify.py`` and the tests read
    lines with."""

    sample_id: str
    dimension: Dimension
    valid: bool
    slice_label: str
    weight: float
    checks: tuple[CheckResult, ...]
    l2_state: L2State
    score: float
    invalid_reason: str | None = None
    synthetic: bool = False

    def __post_init__(self) -> None:
        if not 1.0 <= self.score <= 5.0:
            raise ValueError(f"score {self.score} outside [1, 5] for sample {self.sample_id!r}")
        if self.weight <= 0:
            raise ValueError(f"weight {self.weight} must be positive for {self.sample_id!r}")
        if self.l2_state not in STATES_FOR_DIMENSION[self.dimension]:
            raise ValueError(
                f"state {self.l2_state.value} is not a {self.dimension.value} state"
            )

    def to_json(self) -> dict:
        """The record as a JSON object without the fields that hold their
        defaults: a ``weight`` that is the float 1.0, a null
        ``invalid_reason`` and a false ``synthetic``, and in each check a
        null ``family``, a false ``hard`` and a ``weight`` that is the float
        1.0.  ``from_json`` fills them back in."""
        obj = {
            "sample_id": self.sample_id,
            "dimension": self.dimension.value,
            "valid": self.valid,
            "slice": self.slice_label,
        }
        if not _is_float_one(self.weight):
            obj["weight"] = self.weight
        obj["checks"] = [check.to_json() for check in self.checks]
        obj["l2_state"] = self.l2_state.value
        obj["score"] = self.score
        if self.invalid_reason is not None:
            obj["invalid_reason"] = self.invalid_reason
        if self.synthetic is not False:
            obj["synthetic"] = self.synthetic
        return obj

    @staticmethod
    def from_json(obj: dict) -> "SampleRecord":
        return SampleRecord(
            sample_id=obj["sample_id"],
            dimension=Dimension(obj["dimension"]),
            valid=obj["valid"],
            slice_label=obj["slice"],
            weight=obj.get("weight", 1.0),
            checks=tuple(
                CheckResult(
                    check_id=check["id"],
                    passed=check["passed"],
                    family=check.get("family"),
                    hard=check.get("hard", False),
                    weight=check.get("weight", 1.0),
                )
                for check in obj["checks"]
            ),
            l2_state=L2State(obj["l2_state"]),
            score=obj["score"],
            invalid_reason=obj.get("invalid_reason"),
            synthetic=obj.get("synthetic", False),
        )


@dataclass(frozen=True)
class PromptAnnotation:
    """A sample's slice, weight and validity, which its dataset and tags
    alone decide, so samples with the same dataset and tags share one."""

    dataset: Dataset
    valid: bool
    slice_label: str
    weight: float
    reason: str | None = None

    @property
    def dimension(self) -> Dimension:
        return DIMENSION_FOR_DATASET[self.dataset]


# A record line encodes each value as ``json.dumps(..., ensure_ascii=False,
# separators=(",", ":"))`` does: by hand for the strings, booleans, integers
# and finite floats that a run produces, and by ``_ENCODER`` otherwise.
_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))
_encode_str = json.encoder.encode_basestring
_JSON_BOOL = {True: "true", False: "false"}
_DIMENSION_TEXT = {
    dimension: f',"dimension":{_encode_str(dimension.value)},"valid":' for dimension in Dimension
}
_WRITE_CHUNK_LINES = 2048


def _value_text(value: object) -> str:
    """``value`` encoded as ``_ENCODER`` encodes it."""
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is bool:
        return _JSON_BOOL[value]
    if kind is int or kind is float and math.isfinite(value):
        return repr(value)
    return _ENCODER.encode(value)


def _head_text(check: CheckResult) -> str:
    """``check.to_json()`` encoded as ``_ENCODER`` encodes it, up to its
    weight: the id, ``passed``, and any ``family`` and ``hard``."""
    parts = ['{"id":', _value_text(check.check_id), ',"passed":', _value_text(check.passed)]
    if check.family is not None:
        parts += (',"family":', _value_text(check.family))
    if check.hard is not False:
        parts += (',"hard":', _value_text(check.hard))
    return "".join(parts)


class TemplateColumns:
    """The templates of one run of samples of ``dimension``, as columns.

    A template is the checks, state and score that the samples that have
    it share; only these columns of it are kept.  Template ``t`` is
    ``scores[t]``; ``modes[t]``, the failed check ids then the state,
    which a failure profile counts; and ``middles[t]``, its record
    line's text from the checks to the score.  Every column holds
    strings, numbers and shared tuples, so a template adds no object for
    the cyclic garbage collector to scan.

    A check's text up to its weight (its head) and a state's text are
    encoded once per table, so a template encodes only its weights and
    its score.  Only heads whose id and family are strings (or no
    family) and whose flags are booleans are kept: for those, equal
    heads encode equally, which ``1 == True`` and ``1 == 1.0`` would
    break for others.
    """

    __slots__ = ("dimension", "scores", "modes", "middles", "_shared_modes", "_heads",
                 "_states")

    def __init__(self, dimension: Dimension) -> None:
        self.dimension = dimension
        self.scores: list[float] = []
        self.modes: list[tuple[str, ...]] = []
        self.middles: list[str] = []
        self._shared_modes: dict[tuple[str, ...], tuple[str, ...]] = {}
        self._heads: dict[tuple, str] = {}
        # Per state of the dimension: its text up to the score's, and its mode.
        self._states = {
            state: (f'],"l2_state":{_encode_str(state.value)},"score":', state.value)
            for state in STATES_FOR_DIMENSION[dimension]
        }

    def add(self, checks: Sequence[CheckResult], state: L2State, score: float) -> int:
        """Append the columns of the template with ``checks``, ``state``
        and ``score`` and return its number.  Like a ``SampleRecord``, a
        template's score is in [1, 5] and its state is one of its
        dimension's."""
        if not 1.0 <= score <= 5.0:
            raise ValueError(f"score {score} outside [1, 5]")
        state_parts = self._states.get(state)
        if state_parts is None:
            raise ValueError(f"state {state.value} is not a {self.dimension.value} state")
        heads = self._heads
        texts = []
        failed = []
        for check in checks:
            check_id, passed, family, hard = check.check_id, check.passed, check.family, check.hard
            if (type(passed) is bool and type(hard) is bool and type(check_id) is str
                    and (family is None or type(family) is str)):
                key = (check_id, passed, family, hard)
                head = heads.get(key)
                if head is None:
                    head = heads[key] = _head_text(check)
            else:
                head = _head_text(check)
            weight = check.weight
            texts.append(
                head + "}" if _is_float_one(weight) else f'{head},"weight":{_value_text(weight)}}}'
            )
            if not passed:
                failed.append(check_id)
        state_text, mode = state_parts
        failed.append(mode)
        modes = tuple(failed)
        self.scores.append(score)
        self.modes.append(self._shared_modes.setdefault(modes, modes))
        self.middles.append(f',"checks":[{",".join(texts)}{state_text}{_value_text(score)}')
        return len(self.scores) - 1

    def add_copy(self, source: "TemplateColumns", template: int) -> int:
        """Append template ``template`` of ``source``, a table of the same
        dimension, and return its number here.  Its score, modes and
        middle are ``source``'s objects; its modes are shared inside this
        table as ``add`` shares them."""
        if source.dimension is not self.dimension:
            raise ValueError(
                f"a {source.dimension.value} template copied into a {self.dimension.value} table"
            )
        modes = source.modes[template]
        self.scores.append(source.scores[template])
        self.modes.append(self._shared_modes.setdefault(modes, modes))
        self.middles.append(source.middles[template])
        return len(self.scores) - 1


class RecordRun(NamedTuple):
    """One stretch of a point's samples, all of one dimension, as columns.

    Sample ``i`` is ``sample_ids[i]`` with the validity, slice, weight and
    reason of ``annotations[i]``, and the checks, state and score of
    template ``templates[i]`` of ``table``.
    """

    dimension: Dimension
    sample_ids: Sequence[str]
    annotations: Sequence[PromptAnnotation]
    templates: Sequence[int]
    table: TemplateColumns


class RoundRecords:
    """A point's scored samples as columns, not one record each.

    ``runs`` holds the samples in record order, a run per stretch of one
    dimension.  A backend shares each annotation, and each template,
    among the samples that have it, so the columns hold no object per
    sample.  ``write_records`` writes each sample's line from them, and
    the profiles and the metric read their scores and failure modes.
    """

    __slots__ = ("runs",)

    def __init__(self, runs: Iterable[RecordRun]) -> None:
        self.runs: tuple[RecordRun, ...] = tuple(runs)

    def __len__(self) -> int:
        return sum(len(run.sample_ids) for run in self.runs)


def _annotation_parts(dimension: Dimension, annotation: PromptAnnotation) -> tuple[str, str]:
    """A line's text from its dimension to its weight, and its invalid
    reason's text, for a sample with ``annotation``."""
    weight, reason = annotation.weight, annotation.reason
    return (
        "".join((
            _DIMENSION_TEXT[dimension], _value_text(annotation.valid), ',"slice":',
            _value_text(annotation.slice_label),
            "" if _is_float_one(weight) else f',"weight":{_value_text(weight)}',
        )),
        "" if reason is None else f',"invalid_reason":{_value_text(reason)}',
    )


def _record_lines(records: RoundRecords) -> Iterator[str]:
    """Each sample's record line: ``json.dumps(record.to_json(),
    ensure_ascii=False, separators=(",", ":")) + "\\n"``, byte for byte,
    for the ``SampleRecord`` with the sample's id and annotation, its
    template's checks, state and score, and ``synthetic`` true, which
    every backend's record is.

    Each annotation's text (dimension, validity, slice and weight; the
    invalid reason) is encoded once per run, and each template's (the
    checks, the state and the score) once, by ``TemplateColumns.add``.
    A sample's line joins its id between them.  ``test_records.py``
    holds the property test of the byte identity.
    """
    for dimension, sample_ids, annotations, templates, table in records.runs:
        middles = table.middles
        # Keyed by the id of an annotation the run holds, so no id is
        # reused while it is cached.
        annotation_parts: dict[int, tuple[str, str]] = {}
        for sample_id, annotation, template in zip(sample_ids, annotations, templates):
            head = annotation_parts.get(id(annotation))
            if head is None:
                head = annotation_parts[id(annotation)] = _annotation_parts(dimension, annotation)
            yield "".join((
                '{"sample_id":', _encode_str(sample_id), head[0], middles[template], head[1],
                ',"synthetic":true}\n',
            ))


def _write_lines(path: Path, lines: Iterable[str]) -> str:
    """Write ``lines`` to ``path`` as UTF-8, a chunk of lines at a time, and
    return the sha256 of the bytes written, hashed as they are written."""
    digest = hashlib.sha256()
    lines = iter(lines)
    with open(path, "wb") as handle:
        while chunk := "".join(itertools.islice(lines, _WRITE_CHUNK_LINES)).encode("utf-8"):
            digest.update(chunk)
            handle.write(chunk)
    return digest.hexdigest()


def write_records(path: Path, records: RoundRecords) -> str:
    """Write each record line of ``records`` to ``path`` and return the
    sha256 of the bytes written."""
    return _write_lines(path, _record_lines(records))


def dump_jsonl(path: Path, rows: Iterable[dict]) -> str:
    """Write ``json.dumps(row, ensure_ascii=False)`` for each row, one a
    line, to ``path`` and return the sha256 of the bytes written."""
    return _write_lines(path, (json.dumps(row, ensure_ascii=False) + "\n" for row in rows))


def _no_constant(name: str) -> float:
    raise ValueError(f"{name} is not a JSON number")


def _finite_float(literal: str) -> float:
    value = float(literal)
    if math.isinf(value):
        raise ValueError(f"number {literal} is out of range")
    return value


# RFC 8259 JSON has no NaN or Infinity, which Python's json accepts.
_DECODER = json.JSONDecoder(parse_constant=_no_constant, parse_float=_finite_float)


@contextmanager
def _read_faults(path: Path, error: type[MixSearchError], what: str) -> Iterator[None]:
    """Raise ``error``, naming ``path`` and ``what``, for a fault met while
    opening, reading or parsing the file."""
    try:
        yield
    except FileNotFoundError as exc:
        raise error(f"{what} not found: {path}") from exc
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not UTF-8 text: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc


def _json_lines(
    handle: TextIO, path: Path, error: type[MixSearchError], what: str, where: list[int | None]
) -> Iterator[object]:
    """The JSON value of each non-blank line of ``handle``, parsed as it
    is read.  While a value is out, ``where[0]`` is its line's number;
    once the lines run out, it is None.

    A line is scanned once: a value that starts the line and is followed
    by nothing but its newline is taken as it is.  Any other line (blank,
    padded with whitespace, or not JSON) goes to ``_DECODER.decode``,
    which gives the same value or the error the line is reported with.
    """
    raw_decode = _DECODER.raw_decode
    with _read_faults(path, error, what):
        for number, line in enumerate(handle, start=1):
            try:
                try:
                    value, end = raw_decode(line)
                    scanned = line[end:] in ("\n", "")
                except ValueError:
                    scanned = False
                if not scanned:
                    if not line.strip():
                        continue
                    value = _DECODER.decode(line)
            except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
                raise error(f"{what} {path}:{number} is not valid JSON: {exc}") from exc
            where[0] = number
            yield value
    where[0] = None


def read_json(
    path: Path | str,
    build: Callable | None = None,
    *,
    lines: bool = False,
    error: type[MixSearchError] = DataError,
    what: str,
):
    """Parse the file at ``path`` and return ``build`` applied to what it
    holds: one JSON document or, with ``lines``, an iterator over the
    JSON values of its non-blank lines (without ``build``, their list).

    The iterator parses one line at a time, with the file open until
    ``build`` returns, so ``build`` can turn each value into what it
    keeps and drop it before the next line is read; a fault on a later
    line is met only when ``build`` gets there, so the first fault in
    line order is the one reported.

    This is the one place the package reads a JSON input or artifact.
    Every failure raises ``error`` with a message naming the file and
    the ``what`` it was read as: the file cannot be opened or read, is
    not UTF-8, is not JSON (lines give their number; ``NaN``,
    ``Infinity``, a number that overflows a float and an integer too long
    to convert are not JSON), or ``build`` rejects what it parsed (an
    overflow in ``build``'s arithmetic is a rejection too).  An
    ``error`` raised by ``build`` keeps its class, and gains the file's
    name when its message lacks it.  With ``lines``, an error ``build``
    raises while it holds a line's value names that line too; one raised
    after the last line names none.
    """
    path = Path(path)
    with _read_faults(path, error, what):
        handle = open(path, "r", encoding="utf-8")
    where: list[int | None] = [None]
    with handle:
        if lines:
            parsed = _json_lines(handle, path, error, what, where)
        else:
            with _read_faults(path, error, what):
                parsed = _DECODER.decode(handle.read())
        if build is None:
            return list(parsed) if lines else parsed
        try:
            return build(parsed)
        except error as exc:
            if str(path) not in str(exc):
                exc.args = (f"{what} {_located(path, where[0])}: {exc}",)
            raise
        except (
            LookupError, TypeError, ValueError, AttributeError, ArithmeticError, MixSearchError
        ) as exc:
            raise error(
                f"{what} {_located(path, where[0])} is malformed ({type(exc).__name__}: {exc})"
            ) from exc


def _located(path: Path, line: int | None) -> str:
    """``path``, then ``:line`` when there is a line."""
    return f"{path}" if line is None else f"{path}:{line}"


_TYPE_NAMES = {
    int: "an integer",
    float: "a number",
    str: "a string",
    bool: "a boolean",
    dict: "an object",
    list: "a list",
    None: "null",
}


def _has_type(value: object, kind) -> bool:
    if isinstance(kind, tuple):
        return any(_has_type(value, option) for option in kind)
    if isinstance(kind, list):
        return isinstance(value, list) and all(_has_type(item, kind[0]) for item in value)
    if kind is None:
        return value is None
    if isinstance(value, bool):  # JSON true and false are not numbers
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _type_name(kind) -> str:
    if isinstance(kind, tuple):
        return " or ".join(_type_name(option) for option in kind)
    if isinstance(kind, list):
        return "a list of " + _type_name(kind[0]).split(" ", 1)[1] + "s"
    return _TYPE_NAMES[kind]


def config_fields(obj: object, section: str, fields: dict) -> dict:
    """Return ``obj`` once it checks out as the config section ``section``.

    Every config parser checks each of its sections here, and so do the
    readers of the pool manifest, of the slice taxonomy and of tag
    mappings (``tag_mapping``).
    ``obj`` must be a JSON object whose keys all appear in ``fields``,
    which maps each key to the JSON type of its value: ``int`` (an
    integer), ``float`` (any number), ``str``, ``bool``, ``dict``,
    ``list`` or ``None`` (null), a tuple of these for any one of them, or
    ``[t]`` for a list of ``t``.  A boolean is never a number.  Anything
    else raises ``ConfigError``, which ``read_json`` reports as a data
    file's ``DataError``.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{section} must be a JSON object, got {obj!r:.60}")
    for key, value in obj.items():
        if key not in fields:
            raise ConfigError(f"{section} has unknown key {key!r}")
        if not _has_type(value, fields[key]):
            raise ConfigError(
                f"{section}.{key} must be {_type_name(fields[key])}, got {value!r:.60}"
            )
    return obj


def tag_mapping(obj: object, section: str) -> dict[str, str]:
    """Return ``obj`` once it checks out as the tag mapping ``section``: a
    JSON object of strings.  Anything else raises ``ConfigError``."""
    return config_fields(obj, section, dict.fromkeys(obj, str) if isinstance(obj, dict) else {})
