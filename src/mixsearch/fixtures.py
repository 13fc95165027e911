"""Shipped fixtures: the recorded replay trajectory, taxonomy defaults,
and the synthetic demo pool.

A replay fixture is a JSONL file with one row per round (a ``base`` row
plus contiguous numbered rounds), each row carrying the three dimension
means, the mixture that produced them, optional focus descriptors, and
a self-check digest.  A trailing ``frontier`` row declares which rounds
the non-dominated set must contain, so loading recomputes dominance
rather than trusting the file.  Rows, focus descriptors and the frontier
take only their own keys, each of its JSON type: a string ``"3"`` is not
a boost, nor ``true`` a cap fraction.  A numbered row's mixture and
focus descriptors become the ``DataAction`` it replays as the row is
read, so a row that cannot be one (shares that are not three, a negative
share or a sum other than 1, an unparseable slice, a boost below 1)
fails the load, not a round.  A ``base`` row's mixture, when it has one,
meets the same rule.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterator

from .errors import FixtureError
from .pareto import ParetoArchive
from .profiles import METRIC_KEYS, MetricVector
from .records import config_fields, read_json
from .sampler import DataAction, FocusCriterion

CHECK_DIGEST_CHARS = 8
ROW_FIELDS = {
    "round": (str, int),
    **dict.fromkeys(METRIC_KEYS, float),
    "mixture": [float],
    "focus": [dict],
    "check": str,
}
FOCUS_FIELDS = {"dimension": str, "slice": str, "mode": str, "boost": float, "cap_fraction": float}


def row_check(row: dict) -> str:
    """Digest of a fixture row's content, excluding the check field itself."""
    content = {key: value for key, value in row.items() if key != "check"}
    canonical = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:CHECK_DIGEST_CHARS]


@dataclass(frozen=True)
class ReplayRound:
    metrics: MetricVector
    action: DataAction  # the row's mixture and focus criteria; bucket weights are not recorded


@dataclass(frozen=True)
class ReplayFixture:
    base: MetricVector
    rounds: tuple[ReplayRound, ...]  # round i is rounds[i]
    frontier: tuple[str, ...]  # the recomputed non-dominated labels, sorted


def load_replay_fixture(path: Path | str) -> ReplayFixture:
    """Parse and check a fixture file: each row's self-check, mixture and
    focus descriptors, a ``base`` row plus contiguous rounds, and the
    declared frontier against the recomputed one.  Any problem raises
    ``FixtureError`` naming the file and, where it has one, the row."""
    return read_json(
        path, _fixture_from_rows, lines=True, error=FixtureError, what="replay fixture"
    )


def _fixture_from_rows(raw_rows: Iterator[dict]) -> ReplayFixture:
    points: dict[str, tuple[MetricVector, DataAction | None]] = {}  # by label, in file order
    declared: list[str] | None = None
    for raw in raw_rows:
        if isinstance(raw, dict) and "frontier" in raw:
            config_fields(raw, "replay fixture frontier row", {"frontier": [str]})
            declared = raw["frontier"]
            continue
        label, metrics, action = _fixture_row(raw)
        if label in points:
            raise FixtureError(f"row {label!r} appears more than once")
        points[label] = metrics, action
    if declared is None:
        raise FixtureError("lacks a frontier row")
    if "base" not in points:
        raise FixtureError("row 'base' is missing")
    numbered = sorted(int(label) for label in points if label != "base")
    gap = next((index for index, number in enumerate(numbered) if number != index), None)
    if gap is not None:
        raise FixtureError(f"row for round {gap} is missing")
    archive = ParetoArchive()
    for label, (metrics, _) in points.items():
        archive.insert(label, metrics)
    frontier = tuple(sorted(archive.labels()))
    if frontier != tuple(sorted(declared)):
        raise FixtureError(
            f"frontier mismatch: declared {sorted(declared)}, recomputed {list(frontier)}"
        )
    rounds = tuple(ReplayRound(*points[str(index)]) for index in range(len(numbered)))
    return ReplayFixture(base=points["base"][0], rounds=rounds, frontier=frontier)


def _fixture_row(raw: dict) -> tuple[str, MetricVector, DataAction | None]:
    """A row's label, its metrics, and the action its mixture and focus
    descriptors record (None for a ``base`` row without a mixture).  A
    ``ConfigError`` from ``DataAction`` reaches ``read_json``, which
    reports it as a ``FixtureError`` naming the row's line."""
    config_fields(raw, "replay fixture row", ROW_FIELDS)
    try:
        label = str(raw["round"])
        if label != "base":
            if not label.isdecimal():
                raise ValueError(f"round {raw['round']!r} is neither 'base' nor a round index")
            label = str(int(label))  # "01" and 1 both name round 1
        metrics = MetricVector.from_json(raw)
        mixture = tuple(float(v) for v in raw["mixture"]) if raw.get("mixture") else None
        focus = tuple(_focus_criterion(descriptor) for descriptor in raw.get("focus", []))
    except (KeyError, TypeError, ValueError) as exc:
        raise FixtureError(f"malformed row {raw!r}: {exc}") from exc
    declared, actual = raw.get("check"), row_check(raw)
    if declared != actual:
        raise FixtureError(
            f"row {label!r} failed its self-check "
            f"(declared {declared!r}, content hashes to {actual!r})"
        )
    if mixture is None:
        if label != "base":
            raise FixtureError(f"row {label!r} lacks a mixture")
        return label, metrics, None
    return label, metrics, DataAction(dataset_mixture=mixture, focus_criteria=focus)


def _focus_criterion(descriptor: dict) -> FocusCriterion:
    """The focus criterion a fixture row's focus descriptor records."""
    config_fields(descriptor, "replay fixture focus descriptor", FOCUS_FIELDS)
    return FocusCriterion.on_slice(
        descriptor["dimension"], descriptor["slice"], descriptor.get("mode", ""),
        float(descriptor.get("boost", 2.0)), float(descriptor.get("cap_fraction", 0.25)),
    )


def data_path(*parts: str) -> Path:
    """Filesystem path of a shipped data file."""
    root = resources.files("mixsearch.data")
    target = root.joinpath("/".join(parts))
    return Path(str(target))


def default_fixture_path() -> Path:
    return data_path("replay_fixture.jsonl")


def default_taxonomy_path() -> Path:
    return data_path("taxonomy.json")


def demo_config_path() -> Path:
    return data_path("demo", "config.json")
