"""Shipped fixtures: the recorded replay trajectory, taxonomy defaults,
and the synthetic demo pool.

A replay fixture is a JSONL file with one row per round (a ``base`` row
plus contiguous numbered rounds), each row carrying the three dimension
means, the mixture that produced them, optional focus descriptors, and
a self-check digest.  A trailing ``frontier`` row declares which rounds
the non-dominated set must contain, so validation recomputes dominance
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
    raw: dict

    @property
    def round_index(self) -> int:
        return -1 if self.label == "base" else int(self.label)


@dataclass(frozen=True)
class FixtureVerdict:
    row_count: int
    frontier: tuple[str, ...]


@dataclass(frozen=True)
class ReplayFixture:
    rows: tuple[FixtureRow, ...]
    declared_frontier: tuple[str, ...]
    path: Path | None = None

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
    """Parse a fixture file; structural problems raise ``FixtureError``.

    Content integrity is checked separately by ``validate_fixture``.
    """
    path = Path(path)
    return read_json(
        path,
        lambda rows: _fixture_from_rows(rows, path),
        lines=True,
        error=FixtureError,
        what="replay fixture",
    )


def _fixture_from_rows(raw_rows: list[dict], path: Path) -> ReplayFixture:
    rows = []
    frontier: tuple[str, ...] | None = None
    for raw in raw_rows:
        if isinstance(raw, dict) and "frontier" in raw:
            config_fields(raw, "replay fixture frontier row", {"frontier": [str]})
            frontier = tuple(raw["frontier"])
            continue
        config_fields(raw, "replay fixture row", ROW_FIELDS)
        try:
            label = str(raw["round"])
            if label != "base" and not label.isdecimal():
                raise ValueError(f"round {raw['round']!r} is neither 'base' nor a round index")
            metrics = MetricVector(safe=raw["safe"], benign=raw["benign"], if_score=raw["if"])
            mixture = tuple(float(v) for v in raw["mixture"]) if raw.get("mixture") else None
            focus = tuple(_focus_criterion(descriptor) for descriptor in raw.get("focus", []))
        except (KeyError, TypeError, ValueError) as exc:
            raise FixtureError(f"replay fixture {path}: malformed row {raw!r}: {exc}") from exc
        rows.append(
            FixtureRow(
                label=label,
                metrics=metrics,
                mixture=mixture,  # type: ignore[arg-type]
                focus=focus,
                raw=raw,
            )
        )
    if frontier is None:
        raise FixtureError(f"replay fixture {path} lacks a frontier row")
    return ReplayFixture(rows=tuple(rows), declared_frontier=frontier, path=path)


def _focus_criterion(descriptor: dict) -> FocusCriterion:
    """The focus criterion a fixture row's focus descriptor records."""
    config_fields(descriptor, "replay fixture focus descriptor", FOCUS_FIELDS)
    return FocusCriterion(
        pairs=slice_pairs(descriptor["slice"]),
        boost=float(descriptor.get("boost", 2.0)),
        cap_fraction=float(descriptor.get("cap_fraction", 0.25)),
        label=f"{descriptor['dimension']}:{descriptor['slice']}:{descriptor.get('mode', '')}",
    )


def validate_fixture(fixture: ReplayFixture) -> FixtureVerdict:
    """Check row integrity, contiguity, and the declared frontier.

    Any mismatch raises ``FixtureError`` naming the offending row.
    """
    where = f" in {fixture.path}" if fixture.path else ""
    labels = [row.label for row in fixture.rows]
    if "base" not in labels:
        raise FixtureError(f"fixture row 'base' is missing{where}")
    numbered = sorted(int(label) for label in labels if label != "base")
    expected = list(range(len(numbered)))
    if numbered != expected:
        missing = sorted(set(expected) - set(numbered)) or numbered
        raise FixtureError(f"fixture row for round {missing[0]} is missing or duplicated{where}")
    if len(labels) != len(set(labels)):
        duplicate = next(label for label in labels if labels.count(label) > 1)
        raise FixtureError(f"fixture row {duplicate!r} appears more than once{where}")
    for row in fixture.rows:
        declared = row.raw.get("check")
        actual = row_check(row.raw)
        if declared != actual:
            raise FixtureError(
                f"fixture row {row.label!r} failed its self-check "
                f"(declared {declared!r}, content hashes to {actual!r}){where}"
            )
        if row.label != "base" and row.mixture is None:
            raise FixtureError(f"fixture row {row.label!r} lacks a mixture{where}")
        if row.mixture is not None and abs(sum(row.mixture) - 1.0) > 1e-9:
            raise FixtureError(f"fixture row {row.label!r} mixture does not sum to 1{where}")

    archive = ParetoArchive()
    for row in fixture.rows:
        archive.insert(row.label, row.metrics)
    recomputed = tuple(sorted(archive.labels()))
    declared_frontier = tuple(sorted(fixture.declared_frontier))
    if recomputed != declared_frontier:
        raise FixtureError(
            f"fixture frontier mismatch: declared {list(declared_frontier)}, "
            f"recomputed {list(recomputed)}{where}"
        )
    return FixtureVerdict(row_count=len(fixture.rows), frontier=recomputed)


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
