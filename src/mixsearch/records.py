"""Shared record vocabulary: datasets, score dimensions, check vectors,
and the per-sample output record that every scoring path emits.

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
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable

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


@dataclass(frozen=True)
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
    """One scored evaluation sample, the unit every downstream module consumes."""

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

    def failed_check_ids(self) -> tuple[str, ...]:
        return tuple(check.check_id for check in self.checks if not check.passed)

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


# What ``json.dumps(..., ensure_ascii=False)`` encodes each string with.
_encode_str = json.encoder.encode_basestring
_JSON_BOOL = {True: "true", False: "false"}
_DIMENSION_TEXT = {
    dimension: f',"dimension":{_encode_str(dimension.value)},"valid":' for dimension in Dimension
}
_WRITE_CHUNK_LINES = 2048


def _record_line(record: SampleRecord) -> str:
    """The line ``write_records`` writes for ``record``, by definition."""
    return json.dumps(record.to_json(), ensure_ascii=False, separators=(",", ":")) + "\n"


def _check_text(check: CheckResult) -> str | None:
    """``check.to_json()`` encoded as ``_record_line`` encodes it, or None
    when a field's type is outside the fast path."""
    check_id, family, weight = check.check_id, check.family, check.weight
    if not (
        type(check_id) is str
        and type(check.passed) is bool
        and type(check.hard) is bool
        and (family is None or type(family) is str)
        and (type(weight) is int or type(weight) is float and math.isfinite(weight))
    ):
        return None
    parts = ['{"id":', _encode_str(check_id), ',"passed":', _JSON_BOOL[check.passed]]
    if family is not None:
        parts += (',"family":', _encode_str(family))
    if check.hard:
        parts.append(',"hard":true')
    if not _is_float_one(weight):
        parts += (',"weight":', repr(weight))
    parts.append("}")
    return "".join(parts)


def _record_lines(records: Iterable[SampleRecord]) -> Iterable[str]:
    """``_record_line(record)`` for each record, byte for byte.

    The part of a line that records with one score share (the checks,
    the state and the score) is encoded once per checks tuple, state and
    score, from each check's text, itself encoded once per check object:
    a new score's checks tuple reuses its hard checks' texts and encodes
    only its two soft checks.  Each record's own id, dimension,
    validity, slice, weight, invalid reason and ``synthetic`` flag are
    spliced around it.  A record with a value outside that fast path (a
    non-finite or non-float weight, a non-float score, a string field
    that is not a ``str``, a flag that is not a ``bool``, such a check
    field) is encoded by ``_record_line`` itself.  ``test_records.py``
    holds the property test of the byte identity.
    """
    # Each cache holds the object whose id it is keyed by, so no id is
    # reused while it is cached.
    check_texts: dict[int, tuple[CheckResult, str | None]] = {}
    middles: dict[tuple, tuple[tuple, str | None]] = {}
    for record in records:
        weight, reason, score, checks = (
            record.weight, record.invalid_reason, record.score, record.checks
        )
        middle = None
        if (
            type(weight) is float
            and math.isfinite(weight)
            and type(score) is float
            and type(record.sample_id) is str
            and type(record.slice_label) is str
            and (reason is None or type(reason) is str)
            and type(record.valid) is bool
            and type(record.synthetic) is bool
        ):
            key = (id(checks), record.l2_state, score)
            cached = middles.get(key)
            if cached is None:
                texts = []
                for check in checks:
                    entry = check_texts.get(id(check))
                    if entry is None:
                        entry = check_texts[id(check)] = (check, _check_text(check))
                    texts.append(entry[1])
                cached = middles[key] = (
                    checks,
                    None if None in texts else (
                        f',"checks":[{",".join(texts)}],'
                        f'"l2_state":{_encode_str(record.l2_state.value)},"score":{score!r}'
                    ),
                )
            middle = cached[1]
        if middle is None:
            yield _record_line(record)
            continue
        yield "".join((
            '{"sample_id":', _encode_str(record.sample_id), _DIMENSION_TEXT[record.dimension],
            _JSON_BOOL[record.valid], ',"slice":', _encode_str(record.slice_label),
            "" if weight == 1.0 else f',"weight":{weight!r}', middle,
            "" if reason is None else f',"invalid_reason":{_encode_str(reason)}',
            ',"synthetic":true}\n' if record.synthetic else "}\n",
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


def write_records(path: Path, records: Iterable[SampleRecord]) -> str:
    """Write ``_record_line(record)`` for each record to ``path`` and return
    the sha256 of the bytes written."""
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


def read_json(
    path: Path | str,
    build: Callable | None = None,
    *,
    lines: bool = False,
    error: type[MixSearchError] = DataError,
    what: str,
):
    """Parse the file at ``path``, one JSON document or, with ``lines``,
    a list of the JSON values on its non-blank lines, and return
    ``build`` applied to it.

    This is the one place the package reads a JSON input or artifact.
    Every failure raises ``error`` with a message naming the file and
    the ``what`` it was read as: the file cannot be opened, is not
    UTF-8, is not JSON (lines give their number; ``NaN``, ``Infinity``,
    a number that overflows a float and an integer too long to convert
    are not JSON), or ``build`` rejects what it parsed.  An ``error``
    raised by ``build`` keeps its class, and gains the file's name when
    its message lacks it.
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            if not lines:
                parsed = _DECODER.decode(handle.read())
            else:
                parsed = []
                for number, line in enumerate(handle, start=1):
                    if line.strip():
                        try:
                            parsed.append(_DECODER.decode(line))
                        except ValueError as exc:
                            raise error(f"{what} {path}:{number} is not valid JSON: {exc}") from exc
    except FileNotFoundError as exc:
        raise error(f"{what} not found: {path}") from exc
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not UTF-8 text: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc
    if build is None:
        return parsed
    try:
        return build(parsed)
    except error as exc:
        if str(path) not in str(exc):
            exc.args = (f"{what} {path}: {exc}",)
        raise
    except (LookupError, TypeError, ValueError, AttributeError, MixSearchError) as exc:
        raise error(f"{what} {path} is malformed ({type(exc).__name__}: {exc})") from exc


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
    readers of the pool manifest and of tag mappings
    (``dict.fromkeys(obj, str)`` asks for an object of strings).  ``obj``
    must be a JSON object whose keys all appear in ``fields``, which maps
    each key to the JSON type of its value: ``int`` (an integer),
    ``float`` (any number), ``str``, ``bool``, ``dict``, ``list`` or
    ``None`` (null), a tuple of these for any one of them, or ``[t]`` for
    a list of ``t``.  A boolean is never a number.  Anything else raises
    ``ConfigError``, which ``read_json`` reports as a data file's
    ``DataError``.
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
