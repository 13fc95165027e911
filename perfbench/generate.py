"""Seeded workload generator: scales the shipped demo pool and eval sets.

``generate(workload, seed, root, out)`` writes a pool manifest, its
record files, three eval sets and a loop config under ``out`` and
returns the config path.  The same (workload, seed) always yields the
same bytes.  Nothing is downloaded: every pool document is a demo
document drawn by the seed, kept as metadata only (a jittered token
count) under a fresh id; the eval sets repeat the demo eval rows.  Files
are streamed to disk so generation stays small in memory and does not
inflate the measured peak RSS.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

DEMO_FILES = {"XGUARD": "xguard.jsonl", "ORBENCH": "orbench.jsonl", "IF": "if.jsonl"}
EVAL_FILES = ("eval_safe.jsonl", "eval_benign.jsonl", "eval_if.jsonl")

# The sizes and knobs of each workload; the rationale lives in
# BENCHMARK.json and README.md.
WORKLOADS = {
    "scale": {
        "documents": 150_000,
        "eval_repeat": 167,
        "slice_buckets": False,
        "config": {"budget_tokens": 5_000_000, "rounds": 5},
    },
    "draw-heavy": {
        "documents": 150_000,
        "eval_repeat": 10,
        # Every unclipped score fails, so fail mass follows slice size times
        # weight.  Doubling one IF slice makes it the worst IF slice, and so
        # a focus criterion, for every seed (the demo's IF slices are all the
        # same size, so the worst one would otherwise be picked by the seed's
        # noise).  Its bucket, if_exclusion_1, sorts first in the draw's
        # support, and its documents are all one full window long: once the
        # cap binds, every window of the bucket is blocked, so each cap
        # rejection scans the whole bucket (the slow case of the sampler's
        # search for an acceptable window), at the same strength every seed.
        "eval_doubled": {"family": "EXCLUSION", "complexity": "1"},
        "full_window_bucket": "if_exclusion_1",
        "slice_buckets": True,
        "config": {
            "budget_tokens": 2_000_000,
            "rounds": 5,
            "fail_threshold": 5.0,
            # No score moves by 5, so the regression guard never fires: both
            # focus criteria stay on in every round and for every seed.
            "policy_overrides": {"focus_cap": 0.02, "regression_guard": 5.0},
        },
    },
}


def demo_dir(root: Path) -> Path:
    return root / "src" / "mixsearch" / "data" / "demo"


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _token_count(row: dict) -> int:
    return int(row["token_count"]) if "token_count" in row else len(row["text"].split())


def _slice_buckets(enumerations: dict[str, list[str]], dataset: str) -> list[dict]:
    """One bucket per taxonomy slice: 3 for XGUARD, 15 each for ORBENCH and IF."""
    if dataset == "XGUARD":
        return [{"id": f"xg_{v.lower()}", "slice": {"complexity": v}}
                for v in enumerations["complexity"]]
    first, second = ("category", "proximity") if dataset == "ORBENCH" else ("family", "complexity")
    return [
        {"id": f"{dataset.lower()}_{a.lower()}_{b.lower()}", "slice": {first: a, second: b}}
        for a in enumerations[first]
        for b in enumerations[second]
    ]


def _write_pool(spec: dict, rng: random.Random, demo: Path, out: Path) -> Path:
    manifest = json.loads((demo / "pool_manifest.json").read_text("utf-8"))
    demo_rows = {ds: _read_jsonl(demo / name) for ds, name in DEMO_FILES.items()}
    demo_total = sum(len(rows) for rows in demo_rows.values())
    full_window = manifest["window_length"]
    for entry in manifest["datasets"]:
        dataset = entry["id"]
        rows = demo_rows[dataset]
        if spec["slice_buckets"]:
            entry["buckets"] = _slice_buckets(entry["enumerations"], dataset)
        bucket_ids = [bucket["id"] for bucket in entry["buckets"]]
        count = round(spec["documents"] * len(rows) / demo_total)
        path = out / f"pool_{dataset.lower()}.jsonl"
        entry["path"] = path.name
        with open(path, "w", encoding="utf-8") as handle:
            for index in range(count):
                source = rows[rng.randrange(len(rows))]
                bucket = (
                    bucket_ids[rng.randrange(len(bucket_ids))]
                    if spec["slice_buckets"] else source["bucket"]
                )
                if bucket == spec.get("full_window_bucket"):
                    tokens = full_window
                else:
                    tokens = max(1, round(_token_count(source) * rng.uniform(0.95, 1.25)))
                row = {"id": f"{dataset.lower()}-{index:06d}", "bucket": bucket, "token_count": tokens}
                handle.write(json.dumps(row) + "\n")
    path = out / "pool_manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return path


def _write_eval_sets(spec: dict, demo: Path, out: Path) -> list[Path]:
    """Each demo eval row ``eval_repeat`` times, rows tagged with every
    ``eval_doubled`` item twice as often: slice sizes do not depend on the seed."""
    doubled = spec.get("eval_doubled", {})
    paths = []
    for name in EVAL_FILES:
        rows = _read_jsonl(demo / name)
        path = out / name
        with open(path, "w", encoding="utf-8") as handle:
            for copy in range(spec["eval_repeat"]):
                for row in rows:
                    tags = row.get("tags", {})
                    extra = bool(doubled) and all(tags.get(k) == v for k, v in doubled.items())
                    for twin in range(1 + extra):
                        handle.write(json.dumps(dict(row, id=f"{row['id']}-{copy}-{twin}")) + "\n")
        paths.append(path)
    return paths


def generate(workload: str, seed: int, root: Path, out: Path) -> Path:
    """Write the inputs of ``workload`` for ``seed`` into ``out``; return the config path."""
    spec = WORKLOADS[workload]
    demo = demo_dir(root)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    pool_path = _write_pool(spec, rng, demo, out)
    eval_paths = _write_eval_sets(spec, demo, out)
    config = json.loads((demo / "config.json").read_text("utf-8"))
    overrides = dict(spec["config"])
    config["policy"].update(overrides.pop("policy_overrides", {}))
    config.update(overrides)
    config["master_seed"] = seed
    config["pool_manifest"] = pool_path.name
    config["eval_sets"] = [path.name for path in eval_paths]
    path = out / "config.json"
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return path
