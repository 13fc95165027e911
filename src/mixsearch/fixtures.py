"""Shipped fixtures: the recorded replay trajectory, taxonomy defaults,
and the synthetic demo pool.

A replay fixture is a JSONL file with one row per round (a ``base`` row
plus contiguous numbered rounds), each row carrying the three dimension
means, the mixture that produced them, optional focus descriptors, and
a self-check digest.  A trailing ``frontier`` row declares which rounds
the non-dominated set must contain, so loading recomputes dominance
rather than trusting the file.  Rows, focus descriptors and the frontier
take only their own keys, each of its JSON type: a string ``"3"`` is not
a boost, nor ``true`` a cap fraction.  Each focus descriptor becomes a
focus criterion as the file is read, so one that cannot be (an
unparseable slice, a boost below 1) fails the load, not a round.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterator

from .errors import FixtureError, ReplayGapError
from .pareto import ParetoArchive
from .profiles import MetricVector
from .records import config_fields, read_json
from .sampler import FocusCriterion, slice_pairs

CHECK_DIGEST_CHARS = 8
ROW_FIELDS = {
    "round": (str, int),
    "safe": float,
    "benign": float,
    "if": float,
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
class FixtureRow:
    label: str  # "base" or the round index as a string
    metrics: MetricVector
    mixture: tuple[float, float, float] | None
    focus: tuple[FocusCriterion, ...]

    @property
    def round_index(self) -> int:
        return -1 if self.label == "base" else int(self.label)


@dataclass(frozen=True)
class ReplayFixture:
    rows: tuple[FixtureRow, ...]
    frontier: tuple[str, ...]  # the recomputed non-dominated labels, sorted

    def row_for(self, round_index: int) -> FixtureRow:
        for row in self.rows:
            if row.round_index == round_index:
                return row
        label = "base" if round_index == -1 else str(round_index)
        raise ReplayGapError(f"replay fixture has no row for round {label!r}")

    @property
    def round_count(self) -> int:
        return sum(1 for row in self.rows if row.label != "base")


def load_replay_fixture(path: Path | str) -> ReplayFixture:
    """Parse and check a fixture file: each row's self-check, mixture and
    focus descriptors, a ``base`` row plus contiguous rounds, and the
    declared frontier against the recomputed one.  Any problem raises
    ``FixtureError`` naming the file and, where it has one, the row."""
    return read_json(
        path, _fixture_from_rows, lines=True, error=FixtureError, what="replay fixture"
    )


def _fixture_from_rows(raw_rows: Iterator[dict]) -> ReplayFixture:
    rows = []
    declared: list[str] | None = None
    for raw in raw_rows:
        if isinstance(raw, dict) and "frontier" in raw:
            config_fields(raw, "replay fixture frontier row", {"frontier": [str]})
            declared = raw["frontier"]
        else:
            rows.append(_fixture_row(raw))
    if declared is None:
        raise FixtureError("lacks a frontier row")
    labels = [row.label for row in rows]
    duplicate = next((label for i, label in enumerate(labels) if label in labels[:i]), None)
    if duplicate is not None:
        raise FixtureError(f"row {duplicate!r} appears more than once")
    if "base" not in labels:
        raise FixtureError("row 'base' is missing")
    numbered = sorted(int(label) for label in labels if label != "base")
    gap = next((index for index, number in enumerate(numbered) if number != index), None)
    if gap is not None:
        raise FixtureError(f"row for round {gap} is missing")
    archive = ParetoArchive()
    for row in rows:
        archive.insert(row.label, row.metrics)
    frontier = tuple(sorted(archive.labels()))
    if frontier != tuple(sorted(declared)):
        raise FixtureError(
            f"frontier mismatch: declared {sorted(declared)}, recomputed {list(frontier)}"
        )
    return ReplayFixture(rows=tuple(rows), frontier=frontier)


def _fixture_row(raw: dict) -> FixtureRow:
    config_fields(raw, "replay fixture row", ROW_FIELDS)
    try:
        label = str(raw["round"])
        if label != "base":
            if not label.isdecimal():
                raise ValueError(f"round {raw['round']!r} is neither 'base' nor a round index")
            label = str(int(label))  # "01" and 1 both name round 1
        metrics = MetricVector(safe=raw["safe"], benign=raw["benign"], if_score=raw["if"])
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
    if label != "base" and mixture is None:
        raise FixtureError(f"row {label!r} lacks a mixture")
    if mixture is not None and abs(sum(mixture) - 1.0) > 1e-9:
        raise FixtureError(f"row {label!r} mixture does not sum to 1")
    return FixtureRow(label, metrics, mixture, focus)  # type: ignore[arg-type]


def _focus_criterion(descriptor: dict) -> FocusCriterion:
    """The focus criterion a fixture row's focus descriptor records."""
    config_fields(descriptor, "replay fixture focus descriptor", FOCUS_FIELDS)
    return FocusCriterion(
        pairs=slice_pairs(descriptor["slice"]),
        boost=float(descriptor.get("boost", 2.0)),
        cap_fraction=float(descriptor.get("cap_fraction", 0.25)),
        label=f"{descriptor['dimension']}:{descriptor['slice']}:{descriptor.get('mode', '')}",
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
