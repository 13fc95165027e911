import json

import pytest

import generate
from conftest import ROOT


def _tree(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("workload", sorted(generate.WORKLOADS))
def test_same_seed_same_bytes(tmp_path, workload):
    generate.generate(workload, 3, ROOT, tmp_path / "a")
    generate.generate(workload, 3, ROOT, tmp_path / "b")
    generate.generate(workload, 4, ROOT, tmp_path / "c")
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")


def test_draw_heavy_has_a_bucket_per_slice(tmp_path):
    config = generate.generate("draw-heavy", 1, ROOT, tmp_path)
    manifest = json.loads((tmp_path / "pool_manifest.json").read_text("utf-8"))
    assert [len(d["buckets"]) for d in manifest["datasets"]] == [3, 15, 15]
    loop = json.loads(config.read_text("utf-8"))
    assert loop["master_seed"] == 1 and loop["fail_threshold"] == 5.0
    rows = [json.loads(line) for line in (tmp_path / "pool_if.jsonl").read_text("utf-8").splitlines()]
    focused = {row["token_count"] for row in rows if row["bucket"] == "if_exclusion_1"}
    assert focused == {manifest["window_length"]}
