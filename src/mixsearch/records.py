"""Shared record vocabulary: datasets, score dimensions, check vectors,
and the per-sample output record that every scoring path emits.

The three training datasets and the three evaluation dimensions are
paired one-to-one; mixture vectors and metric vectors both follow
``MIXTURE_ORDER`` / ``DIMENSION_ORDER`` so positional encodings line up
everywhere.
"""
from __future__ import annotations

import hashlib
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


def child_seed(master: int, *path: object) -> int:
    """Derive a stable 64-bit child seed from a master seed and a stage path.

    Hash-based so that adding a stage never shifts the seeds of existing
    stages, unlike sequential draws from a shared generator.
    """
    text = "|".join([str(int(master))] + [str(part) for part in path])
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


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
        return {
            "sample_id": self.sample_id,
            "dimension": self.dimension.value,
            "valid": self.valid,
            "slice": self.slice_label,
            "weight": self.weight,
            "checks": [
                {
                    "id": check.check_id,
                    "passed": check.passed,
                    "family": check.family,
                    "hard": check.hard,
                    "weight": check.weight,
                }
                for check in self.checks
            ],
            "l2_state": self.l2_state.value,
            "score": self.score,
            "invalid_reason": self.invalid_reason,
            "synthetic": self.synthetic,
        }

    @staticmethod
    def from_json(obj: dict) -> "SampleRecord":
        return SampleRecord(
            sample_id=obj["sample_id"],
            dimension=Dimension(obj["dimension"]),
            valid=obj["valid"],
            slice_label=obj["slice"],
            weight=obj["weight"],
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


def dump_jsonl(path: Path, rows: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")


# What ``json.dumps(..., ensure_ascii=False)`` encodes each string with.
_encode_str = json.encoder.encode_basestring
_JSON_BOOL = {True: "true", False: "false"}


def _record_lines(records: Iterable[SampleRecord]) -> Iterable[str]:
    """``json.dumps(record.to_json(), ensure_ascii=False) + "\n"`` for each
    record, byte for byte.

    The part of a line that records with one score share (the dimension,
    the checks, the state, the score and the constant keys) is encoded
    once per checks tuple, state, score, dimension and ``synthetic``;
    each record's own id, validity, slice, weight and invalid reason are
    spliced into it.  A record with a value outside that fast path (a
    non-finite or non-float weight, a non-float score, a string field
    that is not a ``str``, a flag that is not a ``bool``) is encoded by
    ``json.dumps`` itself.  ``test_records.py`` holds the property test
    of the byte identity.
    """
    parts: dict[tuple, tuple] = {}
    for record in records:
        weight, reason = record.weight, record.invalid_reason
        if not (
            type(weight) is float
            and math.isfinite(weight)
            and type(record.score) is float
            and type(record.sample_id) is str
            and type(record.slice_label) is str
            and (reason is None or type(reason) is str)
            and type(record.valid) is bool
            and type(record.synthetic) is bool
        ):
            yield json.dumps(record.to_json(), ensure_ascii=False) + "\n"
            continue
        # The checks tuple is held in the value, so its id is not reused
        # while the key is cached.
        key = (id(record.checks), record.l2_state, record.score, record.dimension,
               record.synthetic)
        cached = parts.get(key)
        if cached is None:
            obj = record.to_json()
            cached = parts[key] = (
                record.checks,
                f', "dimension": {_encode_str(obj["dimension"])}, "valid": ',
                f', "checks": {json.dumps(obj["checks"], ensure_ascii=False)}, '
                f'"l2_state": {_encode_str(obj["l2_state"])}, "score": {obj["score"]!r}, '
                '"invalid_reason": ',
                f', "synthetic": {_JSON_BOOL[record.synthetic]}}}\n',
            )
        _, dimension, middle, tail = cached
        yield "".join((
            '{"sample_id": ', _encode_str(record.sample_id), dimension,
            _JSON_BOOL[record.valid], ', "slice": ', _encode_str(record.slice_label),
            ', "weight": ', repr(weight), middle,
            "null" if reason is None else _encode_str(reason), tail,
        ))


def write_records(path: Path, records: Iterable[SampleRecord]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(_record_lines(records))


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
