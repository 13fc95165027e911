"""Shared builders and the reference trajectory values used across tests.

``REPLAY_TRAJECTORY`` / ``REPLAY_MIXTURES`` mirror the shipped replay
fixture: a six-point search trace (base plus five rounds) whose
non-dominated set is {base, round 2, round 4}.
"""
import itertools
import json
import random
from pathlib import Path
from typing import Sequence

from hypothesis import settings

from mixsearch.backend import BackendRequest, SimulatorBackend, SurfaceParams, synthetic_checks
from mixsearch.corpus import Pool, PoolManifest, load_pool
from mixsearch.orchestrator import LoopConfig
from mixsearch.profiles import MetricVector, metric_vector
from mixsearch.records import (
    DATASET_FOR_DIMENSION,
    PromptAnnotation,
    RecordRun,
    RoundRecords,
    SampleRecord,
    TemplateColumns,
    _record_lines,
    child_seed,
)
from mixsearch.rubric import AtomicCheckVector, score_checks
from mixsearch.sampler import DataAction, DrawnWindows, draw_budgeted, effective_distribution

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


def scored_record(
    vector: AtomicCheckVector,
    *,
    sample_id: str,
    valid: bool,
    slice_label: str,
    weight: float,
    invalid_reason: str | None = None,
    synthetic: bool = False,
) -> SampleRecord:
    """A record with the state and score ``score_checks`` gives its checks:
    one sample scored on its own, the reference the round's shared
    templates are compared with."""
    state, score = score_checks(vector, valid=valid)
    return SampleRecord(
        sample_id=sample_id,
        dimension=vector.dimension,
        valid=valid,
        slice_label=slice_label,
        weight=weight,
        checks=vector.checks,
        l2_state=state,
        score=score,
        invalid_reason=invalid_reason,
        synthetic=synthetic,
    )


def columns_of(records: Sequence[SampleRecord]) -> RoundRecords:
    """``records`` as the columns a round carries, in their order: a run
    per stretch of one dimension, and each record its own template, with
    an annotation of its own.  The writer marks every line ``synthetic``,
    so every record must be."""
    runs = []
    for dimension, group in itertools.groupby(records, key=lambda record: record.dimension):
        group = list(group)
        if not all(record.synthetic is True for record in group):
            raise ValueError("every record a round writes is synthetic")
        table = TemplateColumns(dimension)
        runs.append(RecordRun(
            dimension,
            [record.sample_id for record in group],
            [
                PromptAnnotation(
                    DATASET_FOR_DIMENSION[dimension], record.valid, record.slice_label,
                    record.weight, record.invalid_reason,
                )
                for record in group
            ],
            [table.add(record.checks, record.l2_state, record.score) for record in group],
            table,
        ))
    return RoundRecords(runs)


def read_back(records: RoundRecords) -> list[SampleRecord]:
    """Each sample's record as its line in ``records.jsonl`` reads back,
    checked by the ``SampleRecord`` constructor, in record order."""
    return [SampleRecord.from_json(json.loads(line)) for line in _record_lines(records)]


def drawn_rows(drawn: DrawnWindows) -> list[dict]:
    """Each window a draw accepted, in draw order, as its row in
    ``manifest.jsonl``."""
    rows = []
    for position, index in zip(drawn.positions, drawn.indices):
        (dataset, bucket_id), (ids, lengths, _) = drawn.support[position]
        rows.append({
            "window_id": ids[index],
            "dataset": dataset.value,
            "bucket": bucket_id,
            "token_count": lengths[index],
        })
    return rows


def static_mixture(master_seed: int, k: int) -> tuple[float, float, float]:
    """Static mixture ``k`` of a run with master seed ``master_seed``: a
    point drawn uniformly on the (XGUARD, ORBENCH, IF) simplex, as the
    gaps between two uniforms from ``child_seed(master_seed, "static", k)``."""
    rng = random.Random(child_seed(master_seed, "static", k))
    low, high = sorted((rng.random(), rng.random()))
    return (low, high - low, 1.0 - high)


def round_metric(runtime, action: DataAction, index: int) -> MetricVector:
    """The metric round ``index`` of a simulated run gives, had it taken
    ``action``.

    ``runtime`` is ``orchestrator._load_runtime(config)``.  The round
    draws with that round's draw seed and runs the backend with its
    backend seed, as ``orchestrator.run`` does.  Each round is a fresh
    fine-tuning from the same base, so no earlier round enters: a run
    whose round ``index`` takes ``action`` reports this metric.
    """
    config = runtime.config
    seeds = {p: child_seed(config.master_seed, "round", index, p) for p in ("draw", "backend")}
    distribution = effective_distribution(action, runtime.pool, config.budget_tokens)
    manifest = draw_budgeted(
        distribution, runtime.pool, config.budget_tokens, seeds["draw"], action.focus_criteria
    )
    request = BackendRequest(index, manifest, runtime.eval_sets, seeds["backend"])
    return metric_vector(SimulatorBackend(config.surface).run_round(request))
