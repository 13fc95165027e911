"""Output checks for one run directory, made outside every timed span.

Each check returns a list of problems; an empty list means the
directory passed.  The checks read the artifacts back from disk and
recompute what they claim, with the independent dominance oracle for
the archive.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from mixsearch.oracles.dominance_enum import non_dominated
from mixsearch.records import SampleRecord
from mixsearch.rubric import AtomicCheckVector, score_l1

METRIC_TOLERANCE = 1e-9
DIMENSIONS = (("SAFE", "safe"), ("BENIGN", "benign"), ("IF", "if"))


def _jsonl(path: Path):
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                yield json.loads(line)


def _metric_dirs(run_dir: Path) -> list[Path]:
    return [run_dir / "base"] + sorted(run_dir.glob("round-*"))


def check_budget(run_dir: Path, budget: int) -> list[str]:
    """Every round's manifest stays within the budget its summary states."""
    problems = []
    for directory in sorted(run_dir.glob("round-*")):
        summary = json.loads((directory / "manifest_summary.json").read_text("utf-8"))
        entries = list(_jsonl(directory / "manifest.jsonl"))
        total = sum(entry["token_count"] for entry in entries)
        if summary["budget_tokens"] != budget or total > budget:
            problems.append(f"{directory.name}: {total} tokens drawn against budget {budget}")
        if total != summary["total_tokens"] or len(entries) != summary["window_count"]:
            problems.append(f"{directory.name}: manifest summary disagrees with manifest.jsonl")
    return problems


def frontier_labels(run_dir: Path) -> list[str]:
    """Labels of the archive's final frontier row."""
    rows = [row for row in _jsonl(run_dir / "archive.jsonl") if row["kind"] == "frontier"]
    return rows[-1]["labels"]


def check_frontier(run_dir: Path) -> list[str]:
    """The archive's final frontier equals the oracle's non-dominated set."""
    points = {
        row["label"]: tuple(row["metric"][key] for _, key in DIMENSIONS)
        for row in _jsonl(run_dir / "archive.jsonl") if row["kind"] == "insert"
    }
    frontier = set(frontier_labels(run_dir))
    expected = non_dominated(points)
    if frontier != expected:
        return [f"archive frontier {sorted(frontier)} != oracle {sorted(expected)}"]
    return []


def check_metrics(run_dir: Path) -> list[str]:
    """Each metric.json equals the per-dimension mean of its records.jsonl."""
    problems = []
    for directory in _metric_dirs(run_dir):
        scores: dict[str, list[float]] = {dim: [] for dim, _ in DIMENSIONS}
        for record in _jsonl(directory / "records.jsonl"):
            if record["valid"]:
                scores[record["dimension"]].append(record["score"])
        metric = json.loads((directory / "metric.json").read_text("utf-8"))
        for dimension, key in DIMENSIONS:
            values = scores[dimension]
            mean = math.fsum(values) / len(values) if values else math.nan
            if not abs(mean - metric[key]) <= METRIC_TOLERANCE:
                problems.append(f"{directory.name}: {key} {metric[key]} != record mean {mean}")
    return problems


def check_run(run_dir: Path, budget: int) -> list[str]:
    return check_budget(run_dir, budget) + check_frontier(run_dir) + check_metrics(run_dir)


def check_replay(run_dir: Path, fixture_path: Path) -> list[str]:
    """A replay run reproduces the fixture's 4-decimal trajectory."""
    problems = check_frontier(run_dir) + check_metrics(run_dir)
    for row in _jsonl(fixture_path):
        if "frontier" in row:
            continue
        label = "base" if row["round"] == "base" else f"round-{int(row['round']):03d}"
        metric = json.loads((run_dir / label / "metric.json").read_text("utf-8"))
        for _, key in DIMENSIONS:
            if round(metric[key], 4) != round(row[key], 4):
                problems.append(f"replay {label}: {key} {metric[key]:.4f} != fixture {row[key]}")
    return problems


def run_digest(run_dir: Path) -> str:
    """sha256 over every file's relative path and bytes, except run_meta.json."""
    digest = hashlib.sha256()
    for path in sorted(run_dir.rglob("*")):
        if path.is_file() and path.name != "run_meta.json":
            digest.update(str(path.relative_to(run_dir)).encode("utf-8") + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def tree_size(directory: Path) -> tuple[int, int]:
    """(bytes, files) under ``directory``."""
    sizes = [path.stat().st_size for path in directory.rglob("*") if path.is_file()]
    return sum(sizes), len(sizes)


def l1_mismatches(run_dir: Path) -> tuple[int, int]:
    """(records whose score differs from score_l1 of their own checks and
    state, records read).  Informational: a known defect, not a gate."""
    mismatched = read = 0
    for directory in _metric_dirs(run_dir):
        for obj in _jsonl(directory / "records.jsonl"):
            record = SampleRecord.from_json(obj)
            vector = AtomicCheckVector(dimension=record.dimension, checks=record.checks)
            expected = score_l1(vector, record.l2_state, valid=record.valid).value
            mismatched += expected != record.score
            read += 1
    return mismatched, read
