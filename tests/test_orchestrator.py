"""Closed-loop orchestrator: runs, resume, artifacts, and reports."""
import builtins
import dataclasses
import io
import json
import os

import pytest

import mixsearch.orchestrator as orchestrator
from mixsearch.backend import ReplayBackend
from mixsearch.cli import main
from mixsearch.errors import BackendError, ConfigError, DataError
from mixsearch.fixtures import demo_config_path
from mixsearch.orchestrator import (
    BASE_LABEL,
    LoopConfig,
    RunDirectory,
    report,
    round_dir_name,
    run,
)
from mixsearch.records import SampleRecord

from conftest import (
    REPLAY_FRONTIER,
    REPLAY_MIXTURES,
    REPLAY_TRAJECTORY,
    read_back,
    scored_one_by_one,
    simulate_config,
    tree_bytes,
)


def replay_config(rounds=5):
    return LoopConfig(rounds=rounds, backend_kind="replay")


class TestLoopConfig:
    def test_defaults(self):
        config = replay_config()
        assert config.budget_tokens == 1_000_000
        assert config.initial_mixture == (0.50, 0.30, 0.20)

    def test_simulate_needs_pool_and_eval_sets(self):
        with pytest.raises(ConfigError, match="pool_manifest"):
            LoopConfig(backend_kind="simulate")

    def test_bad_bounds(self):
        with pytest.raises(ConfigError, match="budget_tokens"):
            LoopConfig(budget_tokens=0, backend_kind="replay")
        with pytest.raises(ConfigError, match="rounds"):
            LoopConfig(rounds=0, backend_kind="replay")
        with pytest.raises(ConfigError, match="backend"):
            LoopConfig(backend_kind="quantum")

    def test_from_file_resolves_relative_paths(self, tmp_path):
        (tmp_path / "nested").mkdir()
        config_path = tmp_path / "nested" / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "backend": {"kind": "replay", "fixture": "trace.jsonl"},
                    "rounds": 3,
                }
            ),
            encoding="utf-8",
        )
        config = LoopConfig.from_file(config_path)
        assert config.fixture_path == tmp_path / "nested" / "trace.jsonl"
        assert config.rounds == 3

    def test_unknown_backend_kind(self):
        with pytest.raises(ConfigError, match="unknown backend kind 'quantum'"):
            LoopConfig.from_json({"backend": {"kind": "quantum"}})

    @pytest.mark.parametrize(
        "eval_sets", [{"SAFE": "eval_safe.jsonl"}, [None, "eval_if.jsonl"], "eval_if.jsonl"]
    )
    def test_eval_sets_must_be_a_list_of_paths(self, eval_sets):
        with pytest.raises(ConfigError, match="eval_sets"):
            LoopConfig.from_json({"backend": {"kind": "replay"}, "eval_sets": eval_sets})

    def test_from_file_missing(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            LoopConfig.from_file(tmp_path / "absent.json")

    def test_from_file_bad_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{broken", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            LoopConfig.from_file(path)

    @pytest.mark.parametrize(
        "key, value", [("budget_tokens", 1000.0), ("rounds", True), ("master_seed", False)]
    )
    def test_integer_fields_take_only_json_integers(self, key, value):
        with pytest.raises(ConfigError, match=f"config.{key} must be an integer"):
            LoopConfig.from_json({"backend": {"kind": "replay"}, key: value})

    def test_initial_mixture_arity(self):
        with pytest.raises(ConfigError, match="initial_mixture"):
            LoopConfig.from_json({"backend": {"kind": "replay"}, "initial_mixture": [0.5, 0.5]})

    def test_normalized_is_json_stable(self):
        config = replay_config()
        assert json.loads(json.dumps(config.normalized())) == config.normalized()


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("replay-run")
    return run(replay_config(), out)


class TestReplayRun:
    def test_trajectory_matches_recorded_rows(self, run_dir):
        base = run_dir.load_base_metric()
        assert tuple(round(v, 4) for v in base.as_tuple()) == REPLAY_TRAJECTORY["base"]
        for index in range(5):
            metric = run_dir.load_round_metric(index)
            expected = REPLAY_TRAJECTORY[str(index)]
            assert tuple(round(v, 4) for v in metric.as_tuple()) == expected

    def test_actions_replay_recorded_mixtures(self, run_dir):
        for index in range(5):
            action, rationale, source = run_dir.load_round_action(index)
            assert source == "fixture"
            assert action.dataset_mixture == pytest.approx(REPLAY_MIXTURES[str(index)])
            assert rationale

    def test_frontier_labels(self, run_dir):
        labels = {label for label, _ in run_dir.frontier()}
        assert labels == {"base", "round-2", "round-4"}

    def test_rounds_capped_by_fixture_length(self, tmp_path):
        out = tmp_path / "long"
        run_directory = run(replay_config(rounds=10), out)
        assert run_directory.round_indices() == [0, 1, 2, 3, 4]

    def test_report_flags_micro_only_rounds(self, run_dir):
        text = report(run_dir)["report.txt"]
        assert "rounds 2-4 share mixture 0.35 / 0.45 / 0.20" in text
        noted = [line for line in text.splitlines() if line.endswith("micro-only change")]
        assert [line.split()[0] for line in noted] == ["2", "3", "4"]
        assert "non-dominated archive:" in text

    def test_report_csv_written(self, run_dir):
        for name in ("trajectory.csv", "archive.csv", "slices.csv"):
            assert (run_dir.path / name).exists(), name
        before = tree_bytes(run_dir.path)
        out = report(run_dir)["trajectory.csv"]
        assert out.splitlines()[0] == "round,safe,benign,if,mixture,note"
        assert out == (run_dir.path / "trajectory.csv").read_text("utf-8")
        assert tree_bytes(run_dir.path) == before
        assert not (run_dir.path / "report.csv").exists()

    def test_cursor_marks_completion(self, run_dir):
        # The committed round directories are the run's only record of progress.
        assert not (run_dir.path / "cursor.json").exists()
        assert not list(run_dir.path.rglob("*.tmp"))
        assert run_dir.round_indices() == [0, 1, 2, 3, 4]

    def test_round_directories_zero_padded(self, run_dir):
        names = sorted(p.name for p in run_dir.path.iterdir() if p.name.startswith("round-"))
        assert names == [f"round-{i:03d}" for i in range(5)]


class TestSimulateRun:
    def test_flat_surface_round_equals_base(self, tmp_path):
        config = simulate_config(tmp_path / "in", rounds=1)
        run_directory = run(config, tmp_path / "out")
        base = run_directory.load_base_metric()
        round0 = run_directory.load_round_metric(0)
        assert base.as_tuple() == pytest.approx((2.8, 4.7, 3.4))
        assert round0.as_tuple() == pytest.approx((2.8, 4.7, 3.4))

    def test_round_artifacts_complete(self, tmp_path):
        config = simulate_config(tmp_path / "in", rounds=1)
        run_directory = run(config, tmp_path / "out")
        round_dir = run_directory.path / "round-000"
        for name in (
            "action.json",
            "manifest.jsonl",
            "manifest_summary.json",
            "records.jsonl",
            "metric.json",
            "profiles.jsonl",
        ):
            assert (round_dir / name).exists(), name
        assert not (round_dir / "archive.jsonl").exists()
        summary = json.loads((round_dir / "manifest_summary.json").read_text("utf-8"))
        assert summary["total_tokens"] <= config.budget_tokens
        assert summary["manifest_digest"]

    def test_identical_runs_identical_bytes(self, tmp_path):
        first = run(simulate_config(tmp_path / "in-a", seed=13), tmp_path / "out-a")
        second = run(simulate_config(tmp_path / "in-b", seed=13), tmp_path / "out-b")
        a = tree_bytes(first.path)
        b = tree_bytes(second.path)
        # Input paths differ between the two configs, so compare everything
        # except the config dump, then the config dumps modulo paths.
        a_config, b_config = a.pop("config.json"), b.pop("config.json")
        assert a == b
        normalize = lambda raw: json.dumps(
            {
                k: v
                for k, v in json.loads(raw).items()
                if k not in ("pool_manifest", "eval_sets", "taxonomy")
            },
            sort_keys=True,
        )
        assert normalize(a_config) == normalize(b_config)

    def test_run_meta_is_the_only_timestamped_file(self, tmp_path):
        run_directory = run(simulate_config(tmp_path / "in", rounds=1), tmp_path / "out")
        meta = json.loads((run_directory.path / "run_meta.json").read_text("utf-8"))
        assert "created_at" in meta

    def test_resume_completes_like_an_uninterrupted_run(self, tmp_path):
        # Stop after two rounds, then rerun asking for four.
        partial = simulate_config(tmp_path / "in", rounds=2, seed=3)
        out = tmp_path / "out"
        assert run(partial, out).round_indices() == [0, 1]

        full_config = simulate_config(tmp_path / "in2", rounds=4, seed=3)
        resumed = run(dataclasses.replace(partial, rounds=4), out)
        fresh = run(full_config, tmp_path / "fresh")
        resumed_tree = tree_bytes(resumed.path, exclude=("run_meta.json", "config.json"))
        fresh_tree = tree_bytes(fresh.path, exclude=("run_meta.json", "config.json"))
        assert resumed_tree == fresh_tree

    def test_resume_rejects_a_different_config(self, tmp_path):
        config = simulate_config(tmp_path / "in", rounds=1, seed=3)
        out = tmp_path / "out"
        run(config, out)
        changed = dataclasses.replace(config, master_seed=99)
        with pytest.raises(ConfigError, match="different config"):
            run(changed, out)

    def test_eval_set_without_valid_samples_rejected(self, tmp_path):
        root = tmp_path / "in"
        config = simulate_config(root, rounds=1)
        # Rewrite the BENIGN set so every sample is invalid.
        bad = [
            {
                "id": f"ob-{i}",
                "dataset": "ORBENCH",
                "tags": {"category": "privacy", "proximity": "NEAR", "answerable": "false"},
            }
            for i in range(4)
        ]
        with open(root / "eval_benign.jsonl", "w", encoding="utf-8") as handle:
            for row in bad:
                handle.write(json.dumps(row) + "\n")
        with pytest.raises(DataError, match="BENIGN"):
            run(config, tmp_path / "out")


class Killed(BaseException):
    """Stands for a kill: no handler in the package catches it."""


def _kill_at(monkeypatch, out, kill_at):
    """Count the write points of a run into ``out``, each file opened for
    writing and each rename, and kill the run at point ``kill_at`` (never
    when it is None): that file is cut off halfway when it is closed, or
    that rename is not made.  Returns the list of points passed."""
    points = []
    real_open, real_replace = io.open, os.replace

    def reached(path):
        points.append(str(path))
        return len(points) - 1 == kill_at

    class CutOff:
        def __init__(self, handle, path):
            self.handle, self.path = handle, path

        def __getattr__(self, name):
            return getattr(self.handle, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.close()

        def close(self):
            self.handle.close()
            with real_open(self.path, "r+b") as handle:
                handle.truncate(os.path.getsize(self.path) // 2)
            raise Killed

    def open_(file, mode="r", *args, **kwargs):
        handle = real_open(file, mode, *args, **kwargs)
        if "w" in mode and str(file).startswith(str(out)) and reached(file):
            return CutOff(handle, file)
        return handle

    def replace(src, dst):
        if reached(dst):
            raise Killed
        real_replace(src, dst)

    monkeypatch.setattr(builtins, "open", open_)
    monkeypatch.setattr(io, "open", open_)
    monkeypatch.setattr(os, "replace", replace)
    return points


# run -> its write points: the config, run_meta.json, each point's files and
# rename, archive.jsonl and the four report files
WRITE_POINTS = {"demo": 25, "replay": 36}


def _kill_config(kind):
    if kind == "demo":
        return dataclasses.replace(LoopConfig.from_file(demo_config_path()), rounds=2)
    return replay_config()


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    trees = {}
    for kind, count in WRITE_POINTS.items():
        out = tmp_path_factory.mktemp(f"uninterrupted-{kind}")
        with pytest.MonkeyPatch.context() as monkeypatch:
            points = _kill_at(monkeypatch, out, None)
            run(_kill_config(kind), out)
        assert len(points) == count, points
        trees[kind] = tree_bytes(out)
    return trees


@pytest.mark.parametrize(
    "kind,kill_at", [(kind, k) for kind, count in WRITE_POINTS.items() for k in range(count)]
)
def test_resume_after_a_kill_at_any_write_point(
    kind, kill_at, uninterrupted, tmp_path, monkeypatch
):
    """A kill at any write point leaves only whole committed points, and
    the resumed run has the bytes of an uninterrupted one."""
    config, out = _kill_config(kind), tmp_path / "out"
    _kill_at(monkeypatch, out, kill_at)
    with pytest.raises(Killed):
        run(config, out)
    monkeypatch.undo()

    expected = uninterrupted[kind]
    committed = [round_dir_name(index) for index in RunDirectory(out).round_indices()]
    if (out / BASE_LABEL).is_dir():
        committed.append(BASE_LABEL)
    for name in committed:
        files = {f"{name}/{key}": data for key, data in tree_bytes(out / name).items()}
        assert files == {key: data for key, data in expected.items() if key.startswith(name + "/")}

    run(config, out)
    assert tree_bytes(out) == expected
    assert not list(out.rglob("*.tmp"))


def test_a_killed_extension_leaves_no_stale_archive(tmp_path, monkeypatch, capsys):
    """Extending a finished run removes its archive and reports before the
    first new round is committed, so a kill cannot leave a report of the
    shorter run; the next resume finishes the bytes of an uninterrupted run."""
    config, out = LoopConfig.from_file(demo_config_path()), tmp_path / "out"
    run(dataclasses.replace(config, rounds=2), out)
    real_replace = os.replace

    def replace(src, dst):
        real_replace(src, dst)
        if os.path.basename(dst) == round_dir_name(2):
            raise Killed

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(Killed):
        run(config, out)
    monkeypatch.undo()

    assert RunDirectory(out).round_indices() == [0, 1, 2]
    for command in ("report", "pareto"):
        assert main([command, "--in", str(out)]) == 3
        assert "archive.jsonl" in capsys.readouterr().err
    run(config, out)
    fresh = run(config, tmp_path / "fresh")
    exclude = ("run_meta.json", "config.json")
    assert tree_bytes(out, exclude=exclude) == tree_bytes(fresh.path, exclude=exclude)


def test_resuming_a_finished_run_removes_nothing(tmp_path, monkeypatch):
    out = run(replay_config(rounds=2), tmp_path / "out").path
    before = tree_bytes(out)
    removed = []
    monkeypatch.setattr(os, "unlink", lambda path, *a, **k: removed.append(path))
    run(replay_config(rounds=2), out)
    assert removed == []
    assert tree_bytes(out) == before


def test_a_failed_round_keeps_the_rounds_before_it(tmp_path, monkeypatch):
    real_run_round = ReplayBackend.run_round

    def run_round(self, request):
        if request.round_index == 1:
            raise BackendError("round 1 failed")
        return real_run_round(self, request)

    monkeypatch.setattr(ReplayBackend, "run_round", run_round)
    with pytest.raises(BackendError, match="round 1"):
        run(replay_config(), tmp_path / "out")
    assert RunDirectory(tmp_path / "out").round_indices() == [0]


class TestRunDirectory:
    def test_missing_artifacts_reported(self, tmp_path):
        empty = RunDirectory(tmp_path)
        with pytest.raises(DataError, match="archive.jsonl"):
            empty.frontier()
        with pytest.raises(DataError, match="base/metric.json"):
            empty.load_base_metric()


def test_round_records_iterate_as_their_lines_read_back(tmp_path, monkeypatch):
    """Each line of a point's records.jsonl is ``json.dumps`` of the
    sample's record scored on its own, and the point's columns iterate as
    those records: base and round 0 of a demo run, and a replay's base
    and rounds."""
    written = {}
    write_records = orchestrator.write_records

    def kept(path, records):
        written[path.parent] = records
        return write_records(path, records)

    monkeypatch.setattr(orchestrator, "write_records", kept)
    demo = LoopConfig.from_file(demo_config_path())
    run(dataclasses.replace(demo, rounds=1), tmp_path / "demo")
    run(replay_config(), tmp_path / "replay")
    points = {(run_dir, point) for run_dir in ("demo", "replay") for point in ("base", "round-000")}
    points |= {("replay", round_dir_name(index)) for index in range(1, 5)}
    assert {(path.parent.name, path.name.removesuffix(".tmp")) for path in written} == points
    for temp, records in written.items():
        committed = temp.with_name(temp.name.removesuffix(".tmp")) / "records.jsonl"
        lines = committed.read_text(encoding="utf-8").split("\n")[:-1]
        own = scored_one_by_one(records)
        assert lines == [
            json.dumps(record.to_json(), ensure_ascii=False, separators=(",", ":"))
            for record in own
        ]
        assert read_back(records) == own
        assert [SampleRecord.from_json(json.loads(line)) for line in lines] == own
        assert len(records) == len(lines)
