"""Shared builders and the reference trajectory values used across tests.

``REPLAY_TRAJECTORY`` / ``REPLAY_MIXTURES`` mirror the shipped replay
fixture: a six-point search trace (base plus five rounds) whose
non-dominated set is {base, round 2, round 4}.
"""
import json
from pathlib import Path

from hypothesis import settings

from mixsearch.backend import SurfaceParams, synthetic_checks
from mixsearch.corpus import Pool, PoolManifest, load_pool
from mixsearch.orchestrator import LoopConfig
from mixsearch.profiles import MetricVector
from mixsearch.rubric import scored_record

settings.register_profile("package", deadline=None, max_examples=100)
settings.load_profile("package")


REPLAY_TRAJECTORY: dict[str, tuple[float, float, float]] = {
    "base": (2.7600, 4.6667, 3.4300),
    "0": (3.2267, 3.6433, 3.5300),
    "1": (3.3867, 3.8033, 3.5700),
    "2": (4.4567, 4.3300, 3.7033),
    "3": (3.9700, 4.2967, 3.5767),
    "4": (4.6700, 4.4067, 3.6533),
}

REPLAY_MIXTURES: dict[str, tuple[float, float, float]] = {
    "0": (0.50, 0.30, 0.20),
    "1": (0.40, 0.40, 0.20),
    "2": (0.35, 0.45, 0.20),
    "3": (0.35, 0.45, 0.20),
    "4": (0.35, 0.45, 0.20),
}

REPLAY_FRONTIER = ("base", "2", "4")


def trajectory_vector(label: str) -> MetricVector:
    safe, benign, if_score = REPLAY_TRAJECTORY[label]
    return MetricVector(safe=safe, benign=benign, if_score=if_score)


def make_pool(
    root: Path,
    layout: dict[str, dict[str, list[int | tuple[int, dict[str, str]]]]],
    window_length: int = 4096,
    stride: int | None = None,
) -> Pool:
    """Write a synthetic metadata-only pool under ``root`` and load it.

    ``layout`` maps dataset name -> bucket id -> document token counts;
    a ``(token_count, tags)`` pair gives the document its own tags.
    Each bucket's slice descriptor is ``{"tier": bucket_id}`` so focus
    criteria in tests can match on the ``tier`` tag.
    """
    datasets = []
    for dataset_value, buckets in layout.items():
        rows = []
        bucket_entries = []
        for bucket_id, token_counts in buckets.items():
            bucket_entries.append({"id": bucket_id, "slice": {"tier": bucket_id}})
            for index, count in enumerate(token_counts):
                row = {"id": f"{dataset_value.lower()}-{bucket_id}-{index}", "bucket": bucket_id}
                if isinstance(count, tuple):
                    count, row["tags"] = count
                row["token_count"] = count
                rows.append(row)
        record_path = root / f"{dataset_value.lower()}.jsonl"
        with open(record_path, "w", encoding="utf-8") as handle:
            for row in rows:
                handle.write(json.dumps(row) + "\n")
        datasets.append(
            {
                "id": dataset_value,
                "path": record_path.name,
                "enumerations": {"tier": sorted(buckets)},
                "buckets": bucket_entries,
            }
        )
    manifest: dict = {"window_length": window_length, "datasets": datasets}
    if stride is not None:
        manifest["stride"] = stride
    manifest_path = root / "manifest.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    return load_pool(PoolManifest.from_file(manifest_path))


FLAT_SURFACE = {
    "gain": {"SAFE": 0.0, "BENIGN": 0.0, "IF": 0.0},
    "interference": {},
    "noise_sigma": 0.0,
}


def tree_bytes(path: Path, exclude: tuple[str, ...] = ("run_meta.json",)) -> dict[str, bytes]:
    """Map of relative file path -> raw bytes, for whole-tree comparisons."""
    return {
        str(p.relative_to(path)): p.read_bytes()
        for p in sorted(path.rglob("*"))
        if p.is_file() and p.name not in exclude
    }


def write_eval_sets(root: Path, repeats: int = 2) -> tuple[Path, Path, Path]:
    """Three small eval files the default taxonomy can annotate."""
    xguard = [
        {"id": f"xg-{i}", "dataset": "XGUARD", "tags": {"pressure": p, "concealment": c}}
        for i, (p, c) in enumerate(
            [("LOW", "NONE"), ("MED", "NONE"), ("HIGH", "NONE"), ("HIGH", "NESTED")] * repeats
        )
    ]
    orbench = [
        {"id": f"ob-{i}", "dataset": "ORBENCH", "tags": {"category": cat, "proximity": prox}}
        for i, (cat, prox) in enumerate(
            [("privacy", "NEAR"), ("legal", "FAR"), ("medical", "EDGE"), ("security", "EDGE")]
            * repeats
        )
    ]
    if_rows = [
        {"id": f"if-{i}", "dataset": "IF", "tags": {"family": fam, "complexity": cx}}
        for i, (fam, cx) in enumerate(
            [("FORMAT", "1"), ("LENGTH", "2"), ("EXCLUSION", "3"), ("STRUCTURE", "2")] * repeats
        )
    ]
    paths = []
    for name, rows in (("safe", xguard), ("benign", orbench), ("if", if_rows)):
        path = root / f"eval_{name}.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for row in rows:
                handle.write(json.dumps(row) + "\n")
        paths.append(path)
    return tuple(paths)


def simulate_config(
    root: Path,
    *,
    rounds: int = 2,
    seed: int = 7,
    surface: dict | SurfaceParams = FLAT_SURFACE,
    budget: int = 2_000,
    eval_repeats: int = 2,
) -> LoopConfig:
    """A ready-to-run simulate config over a synthetic 10-token pool."""
    root.mkdir(parents=True, exist_ok=True)
    layout = {ds: {"a": [10] * 12, "b": [10] * 12} for ds in ("XGUARD", "ORBENCH", "IF")}
    make_pool(root, layout, window_length=10)
    eval_paths = write_eval_sets(root, repeats=eval_repeats)
    if not isinstance(surface, SurfaceParams):
        surface = SurfaceParams.from_json(surface)
    return LoopConfig(
        budget_tokens=budget,
        rounds=rounds,
        master_seed=seed,
        backend_kind="simulate",
        surface=surface,
        pool_manifest_path=root / "manifest.json",
        eval_set_paths=eval_paths,
    )


def scored_one_by_one(records) -> list:
    """Each sample of a backend's ``RoundRecords`` scored on its own:
    ``scored_record`` of the synthetic checks for its template's score,
    with the sample's own id and annotation, in record order.  It shares
    nothing with the round's templates or the record writer."""
    return [
        scored_record(
            synthetic_checks(run.dimension, run.table.scores[template]),
            sample_id=sample_id,
            valid=annotation.valid,
            slice_label=annotation.slice_label,
            weight=annotation.weight,
            invalid_reason=annotation.reason,
            synthetic=True,
        )
        for run in records.runs
        for sample_id, annotation, template in zip(run.sample_ids, run.annotations, run.templates)
    ]
