import json
import shutil

import pytest

import verify
from mixsearch import cli
from mixsearch.fixtures import default_fixture_path, demo_config_path


@pytest.fixture(scope="module")
def demo_runs(tmp_path_factory):
    """A demo run directory and a replay directory, made once."""
    root = tmp_path_factory.mktemp("demo")
    config = demo_config_path()
    budget = json.loads(config.read_text("utf-8"))["budget_tokens"]
    assert cli.main(["run", "--config", str(config), "--out", str(root / "run")]) == 0
    assert cli.main(["replay", "--out", str(root / "replay")]) == 0
    return root, budget


@pytest.fixture
def copy(demo_runs, tmp_path):
    root, budget = demo_runs
    shutil.copytree(root / "run", tmp_path / "run")
    shutil.copytree(root / "replay", tmp_path / "replay")
    return tmp_path / "run", tmp_path / "replay", budget


def _edit_json(path, **changes):
    obj = json.loads(path.read_text("utf-8"))
    obj.update(changes)
    path.write_text(json.dumps(obj), encoding="utf-8")


def test_untouched_directories_pass(copy):
    run_dir, replay_dir, budget = copy
    assert verify.check_run(run_dir, budget) == []
    assert verify.check_replay(replay_dir, default_fixture_path()) == []


def test_tampered_metric_is_rejected(copy):
    run_dir, _, budget = copy
    metric = run_dir / "round-002" / "metric.json"
    _edit_json(metric, safe=json.loads(metric.read_text("utf-8"))["safe"] + 1e-6)
    assert any("round-002" in p for p in verify.check_metrics(run_dir))


def test_manifest_over_budget_is_rejected(copy):
    run_dir, _, budget = copy
    assert verify.check_budget(run_dir, budget - 1)
    manifest = run_dir / "round-000" / "manifest.jsonl"
    rows = manifest.read_text("utf-8").splitlines()
    first = json.loads(rows[0])
    first["token_count"] += budget
    manifest.write_text("\n".join([json.dumps(first)] + rows[1:]) + "\n", encoding="utf-8")
    assert len(verify.check_budget(run_dir, budget)) == 2


def test_frontier_must_match_the_oracle(copy):
    run_dir, _, _ = copy
    archive = run_dir / "archive.jsonl"
    rows = [json.loads(line) for line in archive.read_text("utf-8").splitlines()]
    rows[-1]["labels"] = rows[-1]["labels"][:-1]
    archive.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    assert verify.check_frontier(run_dir)


def test_replay_must_reproduce_the_fixture(copy):
    _, replay_dir, _ = copy
    _edit_json(replay_dir / "round-003" / "metric.json", benign=4.3)
    assert any("round-003" in p for p in verify.check_replay(replay_dir, default_fixture_path()))


def test_digest_ignores_run_meta_only(copy):
    run_dir, _, _ = copy
    before = verify.run_digest(run_dir)
    (run_dir / "run_meta.json").write_text("{}", encoding="utf-8")
    assert verify.run_digest(run_dir) == before
    (run_dir / "report.txt").write_text("changed", encoding="utf-8")
    assert verify.run_digest(run_dir) != before

