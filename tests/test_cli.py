"""Command-line interface: subcommands, exit codes, and output."""
import hashlib
import json
import math
import os
import shutil

import pytest

import mixsearch.orchestrator as orchestrator
from mixsearch.cli import main
from mixsearch.corpus import PoolManifest, load_pool
from mixsearch.errors import MixSearchError
from mixsearch.fixtures import (
    default_fixture_path,
    default_taxonomy_path,
    demo_config_path,
    row_check,
)
from mixsearch.records import DIMENSION_FOR_DATASET, DIMENSION_ORDER
from mixsearch.rubric import SliceTaxonomy, annotate_prompt, load_eval_set

from conftest import REPLAY_FRONTIER, REPLAY_TRAJECTORY, tree_bytes


@pytest.fixture(scope="module")
def replay_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-replay")
    assert main(["replay", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def demo_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-demo")
    config = str(demo_config_path())
    assert main(["run", "--config", config, "--rounds", "2", "--out", str(out)]) == 0
    return out


class TestReplay:
    def test_report_prints_the_recorded_trajectory(self, replay_out, capsys):
        main(["replay", "--out", str(replay_out)])  # idempotent rerun
        captured = capsys.readouterr().out
        for label, (safe, benign, if_score) in REPLAY_TRAJECTORY.items():
            row = f"{label:<8}{safe:>9.4f}{benign:>9.4f}{if_score:>9.4f}"
            assert row in captured
        assert "0.35 / 0.45 / 0.20" in captured

    def test_validate_only(self, capsys):
        assert main(["replay", "--validate-only"]) == 0
        out = capsys.readouterr().out
        assert "fixture ok: 6 rows" in out
        for label in REPLAY_FRONTIER:
            assert label in out

    def test_replay_without_out_is_a_usage_error(self, capsys):
        assert main(["replay"]) == 2
        assert "--out" in capsys.readouterr().err

    def test_missing_fixture_is_a_data_problem(self, tmp_path, capsys):
        code = main(
            ["replay", "--fixture", str(tmp_path / "absent.jsonl"), "--out", str(tmp_path / "o")]
        )
        assert code == 3
        assert "error:" in capsys.readouterr().err


class TestReportAndPareto:
    def test_report_text(self, replay_out, capsys):
        assert main(["report", "--in", str(replay_out)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("mixture search report")
        assert "rounds 2-4 share mixture" in out

    def test_report_csv(self, replay_out, capsys):
        assert main(["report", "--in", str(replay_out), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "round,safe,benign,if,mixture,note"
        assert len(lines) == 7  # header + base + five rounds

    def test_run_alias_for_in(self, replay_out, capsys):
        assert main(["report", "--run", str(replay_out)]) == 0
        assert capsys.readouterr().out.startswith("mixture search report")

    def test_pareto_table(self, replay_out, capsys):
        assert main(["pareto", "--in", str(replay_out)]) == 0
        out = capsys.readouterr().out
        for label in ("base", "round-2", "round-4"):
            assert label in out
        assert "round-0" not in out

    def test_pareto_json(self, replay_out, capsys):
        assert main(["pareto", "--in", str(replay_out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {entry["label"] for entry in payload} == {"base", "round-2", "round-4"}
        by_label = {entry["label"]: entry["metric"] for entry in payload}
        assert by_label["base"]["safe"] == pytest.approx(2.76)

    def test_report_on_empty_directory_is_a_data_problem(self, tmp_path, capsys):
        assert main(["report", "--in", str(tmp_path)]) == 3
        assert "error:" in capsys.readouterr().err

    def test_read_only_commands_write_nothing(self, replay_out, capsys):
        def snapshot():
            return {
                str(path.relative_to(replay_out)): (
                    path.stat().st_size,
                    hashlib.sha256(path.read_bytes()).hexdigest(),
                    path.stat().st_mtime_ns,
                )
                for path in sorted(replay_out.rglob("*"))
                if path.is_file()
            }

        before = snapshot()
        for args in (
            ["report", "--in", str(replay_out)],
            ["report", "--in", str(replay_out), "--format", "csv"],
            ["pareto", "--in", str(replay_out)],
            ["pareto", "--in", str(replay_out), "--json"],
        ):
            assert main(args) == 0, args
        capsys.readouterr()
        assert snapshot() == before


@pytest.fixture(scope="module")
def one_round_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-one-round")
    config = str(demo_config_path())
    assert main(["run", "--config", config, "--rounds", "1", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("stray", ["round-1", "round--1"])
@pytest.mark.parametrize("command", ["report", "pareto"])
def test_a_stray_round_name_is_not_a_round(command, stray, one_round_out, tmp_path, capsys):
    """Only a directory named as the run names its rounds (round-000, ...)
    is a committed round; a stray ``round-1/`` or ``round--1/`` beside
    ``round-000/`` changes nothing that ``report`` or ``pareto`` prints."""
    run = tmp_path / "run"
    shutil.copytree(one_round_out, run)
    (run / stray).mkdir()
    capsys.readouterr()
    assert main([command, "--in", str(run)]) == 0
    out = capsys.readouterr().out
    if command == "report":
        frontier = out.split("non-dominated archive:\n", 1)[1].split("\n\n", 1)[0]
        assert [line.split()[0] for line in frontier.splitlines()] == ["base", "round-0"]
        assert out == (one_round_out / "report.txt").read_text(encoding="utf-8")
    else:
        assert [line.split()[0] for line in out.splitlines()[1:]] == ["base", "round-0"]


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


# case -> (command up to the run directory argument, damage done to a finished run).
# A "run" command resumes a 2-round demo run to 3 rounds; every other command
# reads a finished replay run.
DAMAGE = {
    "missing-metric": (
        ["report", "--in"],
        lambda run: (run / "round-002" / "metric.json").unlink(),
    ),
    "truncated-metric": (
        ["report", "--in"],
        lambda run: _truncate(run / "round-001" / "metric.json"),
    ),
    "truncated-config": (["replay", "--out"], lambda run: _truncate(run / "config.json")),
    "missing-base": (["replay", "--out"], lambda run: shutil.rmtree(run / "base")),
    "round-gap": (["report", "--in"], lambda run: shutil.rmtree(run / "round-002")),
    "non-json-archive": (
        ["pareto", "--in"],
        lambda run: (run / "archive.jsonl").write_text("not json\n", encoding="utf-8"),
    ),
    # A focus test is a string tag "eq" a string value.
    "action-focus-op-ge": (
        ["replay", "--out"],
        lambda run: _edit_action(run, "focus_criteria", 0, "tests", 0, "op", value="ge"),
    ),
    "action-focus-value-number": (
        ["replay", "--out"],
        lambda run: _edit_action(run, "focus_criteria", 0, "tests", 0, "value", value=2),
    ),
    # Numbers and counts in artifacts are checked, not coerced.
    "action-focus-boost-bool": (
        ["replay", "--out"],
        lambda run: _edit_action(run, "focus_criteria", 0, "boost", value=True),
    ),
    "action-bucket-weight-string": (
        ["run", "--config", str(demo_config_path()), "--rounds", "3", "--out"],
        lambda run: _edit_action(run, "bucket_weights", "ORBENCH", "or_legal_far", value="0.25"),
    ),
    # An action.json holds the action, a list of rationale strings and a
    # source string, and no other key.
    "action-rationale-string": (
        ["report", "--in"],
        lambda run: _edit_action_document(run, "rationale", value="abc"),
    ),
    "action-source-number": (
        ["run", "--config", str(demo_config_path()), "--rounds", "3", "--out"],
        lambda run: _edit_action_document(run, "source", value=5),
    ),
    "action-unknown-key": (
        ["report", "--in"],
        lambda run: _edit_action_document(run, "extra", value="policy"),
    ),
    # A committed point's records must match the digest in its metric.json.
    "truncated-records-extension": (
        ["run", "--config", str(demo_config_path()), "--rounds", "3", "--out"],
        lambda run: _truncate(run / "round-001" / "records.jsonl"),
    ),
    "edited-base-records-replay": (
        ["replay", "--out"],
        lambda run: _edit_line(0, lambda row: _set(row, "score", value=1.0))(
            run / "base" / "records.jsonl"
        ),
    ),
    "profiles-breakdown-string": (
        ["replay", "--out"],
        lambda run: _edit_line(0, lambda row: _set(row, "breakdown", value={"c1": "3"}))(
            run / "round-001" / "profiles.jsonl"
        ),
    ),
    # A mean is a JSON number: true is not 1.0.
    "metric-mean-bool-report": (
        ["report", "--in"],
        lambda run: _edit_document(lambda obj: _set(obj, "safe", value=True))(
            run / "round-001" / "metric.json"
        ),
    ),
    "archive-mean-bool-pareto": (
        ["pareto", "--in"],
        lambda run: _edit_line(0, lambda row: _set(row, "metric", "safe", value=True))(
            run / "archive.jsonl"
        ),
    ),
    "metric-mean-bool-extension": (
        ["run", "--config", str(demo_config_path()), "--rounds", "3", "--out"],
        lambda run: _edit_document(lambda obj: _set(obj, "safe", value=True))(
            run / "round-001" / "metric.json"
        ),
    ),
}


def _edit_action(run, *keys, value):
    """Replace the value at the key path ``keys`` in round 1's action."""
    path = run / "round-001" / "action.json"
    obj = json.loads(path.read_text("utf-8"))
    _set(obj["action"], *keys, value=value)
    path.write_text(json.dumps(obj), encoding="utf-8")


def _edit_action_document(run, key, *, value):
    """Set ``key`` of round 1's ``action.json`` document to ``value``."""
    _edit_document(lambda obj: _set(obj, key, value=value))(run / "round-001" / "action.json")


@pytest.mark.parametrize("case", sorted(DAMAGE))
def test_damaged_run_directory_exits_three(case, request, tmp_path, capsys):
    command, damage = DAMAGE[case]
    damaged = tmp_path / "run"
    source = "demo_out" if command[0] == "run" else "replay_out"
    shutil.copytree(request.getfixturevalue(source), damaged)
    damage(damaged)
    assert main(command + [str(damaged)]) == 3
    assert capsys.readouterr().err.startswith("error:")


def _make_directory(path):
    path.unlink()
    path.mkdir()


def _not_utf8(path):
    path.write_bytes(b"\xff" + path.read_bytes())


def _edit_document(edit):
    def damage(path):
        obj = json.loads(path.read_text("utf-8"))
        path.write_text(json.dumps(edit(obj)), encoding="utf-8")

    return damage


def _edit_line(index, edit):
    def damage(path):
        lines = path.read_text("utf-8").splitlines()
        lines[index] = json.dumps(edit(json.loads(lines[index])))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    return damage


def _overflowing(damage):
    """``damage``, with each infinity it writes spelled ``1e999``: a
    number literal that overflows a float."""

    def overflow(path):
        damage(path)
        path.write_text(path.read_text("utf-8").replace("Infinity", "1e999"), encoding="utf-8")

    return overflow


def _set(obj, *keys, value):
    """``obj`` with the value at the key path ``keys`` replaced."""
    target = obj
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    return obj


def _sealed(edit):
    """``edit`` of a replay fixture row, with the row's ``check`` digest
    recomputed, so the self-check passes and only the edit is wrong."""

    def seal(row):
        row = edit(row)
        row["check"] = row_check(row)
        return row

    return seal


def _edit_lines(edit):
    def damage(path):
        lines = path.read_text("utf-8").splitlines()
        path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")

    return damage


# Integrity faults of the shipped replay fixture, whose line 0 is the base
# row, lines 1-5 rounds 0-4 and line 6 the frontier row.  Loading the
# fixture checks them all, so each fails `replay --validate-only` and
# `replay --out` alike.
FIXTURE_INTEGRITY_FAULTS = {
    "self-check-mismatch": _edit_line(3, lambda row: _set(row, "safe", value=4.4568)),
    "missing-base": _edit_lines(lambda lines: lines[1:]),
    "round-gap": _edit_lines(lambda lines: lines[:2] + lines[3:]),
    "duplicate-row": _edit_lines(lambda lines: lines[:4] + lines[3:]),
    "mixture-not-simplex": _edit_line(
        1, _sealed(lambda row: _set(row, "mixture", value=[0.5, 0.3, 0.1]))
    ),
    "mixture-missing": _edit_line(
        1, _sealed(lambda row: {key: value for key, value in row.items() if key != "mixture"})
    ),
    "frontier-mismatch": _edit_line(
        -1, lambda row: _set(row, "frontier", value=["base", "1", "4"])
    ),
}


# case -> (command, damaged file relative to the inputs or the run, damage, exit code).
# "run" runs the copied demo config, "replay" and "validate" the copied replay
# fixture, "report" a copy of a finished replay run.
FAULTS = {
    "config-directory": ("run", "config.json", _make_directory, 2),
    "config-not-utf8": ("run", "config.json", _not_utf8, 2),
    "config-not-json": ("run", "config.json", lambda p: p.write_text("{broken"), 2),
    "config-list": ("run", "config.json", _edit_document(lambda obj: [obj]), 2),
    "config-nested-too-deep": (
        "run", "config.json", lambda p: p.write_text("[" * 100_000 + "]" * 100_000), 2
    ),
    "config-rounds-string": (
        "run", "config.json", _edit_document(lambda obj: _set(obj, "rounds", value="five")), 2
    ),
    "config-null-eval-set": (
        "run",
        "config.json",
        _edit_document(lambda obj: _set(obj, "eval_sets", value=[None, "eval_if.jsonl"])),
        2,
    ),
    "config-budget-overflow": (
        "run",
        "config.json",
        _overflowing(_edit_document(lambda obj: _set(obj, "budget_tokens", value=math.inf))),
        2,
    ),
    "config-budget-fraction": (
        "run",
        "config.json",
        _edit_document(lambda obj: _set(obj, "budget_tokens", value=1000.7)),
        2,
    ),
    "config-seed-fraction": (
        "run", "config.json", _edit_document(lambda obj: _set(obj, "master_seed", value=1.5)), 2
    ),
    "config-rounds-bool": (
        "run", "config.json", _edit_document(lambda obj: _set(obj, "rounds", value=True)), 2
    ),
    "config-mixture-strings": (
        "run",
        "config.json",
        _edit_document(lambda obj: _set(obj, "initial_mixture", value=["0.5", "0.3", "0.2"])),
        2,
    ),
    "config-mixture-not-simplex": (
        "run",
        "config.json",
        _edit_document(lambda obj: _set(obj, "initial_mixture", value=[0.5, 0.5, 0.5])),
        2,
    ),
    "config-mixture-negative": (
        "run",
        "config.json",
        _edit_document(lambda obj: _set(obj, "initial_mixture", value=[1.2, -0.2, 0.0])),
        2,
    ),
    "config-policy-list": (
        "run", "config.json", _edit_document(lambda obj: _set(obj, "policy", value=[1])), 2
    ),
    "config-unknown-key": (
        "run", "config.json", _edit_document(lambda obj: _set(obj, "budget_tokenz", value=1000)), 2
    ),
    "config-policy-unknown-key": (
        "run",
        "config.json",
        _edit_document(lambda obj: _set(obj, "policy", "focus_capp", value=0.1)),
        2,
    ),
    "config-surface-unknown-key": (
        "run",
        "config.json",
        _edit_document(lambda obj: _set(obj, "backend", "surface", value={"noise_sigmaa": 0.1})),
        2,
    ),
    "config-unknown-target": (
        "run",
        "config.json",
        _edit_document(lambda obj: _set(obj, "policy", "targets", value={"FOO": 4.5})),
        2,
    ),
    "manifest-directory": ("run", "pool_manifest.json", _make_directory, 3),
    "manifest-not-utf8": ("run", "pool_manifest.json", _not_utf8, 3),
    "manifest-list": ("run", "pool_manifest.json", _edit_document(lambda obj: [obj]), 3),
    "manifest-bucket-without-slice": (
        "run",
        "pool_manifest.json",
        _edit_document(lambda obj: _set(obj, "datasets", 0, "buckets", 0, value={"id": "b"})),
        3,
    ),
    "manifest-window-length-string": (
        "run",
        "pool_manifest.json",
        _edit_document(lambda obj: _set(obj, "window_length", value="wide")),
        3,
    ),
    "manifest-stride-fraction": (
        "run", "pool_manifest.json", _edit_document(lambda obj: _set(obj, "stride", value=100.5)), 3
    ),
    "manifest-window-length-fraction": (
        "run",
        "pool_manifest.json",
        _edit_document(lambda obj: _set(obj, "window_length", value=512.9)),
        3,
    ),
    "manifest-window-length-too-large": (
        "run",
        "pool_manifest.json",
        _edit_document(lambda obj: _set(obj, "window_length", value=2**32)),
        3,
    ),
    "manifest-unknown-key": (
        "run", "pool_manifest.json", _edit_document(lambda obj: _set(obj, "strid", value=100)), 3
    ),
    "manifest-dataset-unknown-key": (
        "run",
        "pool_manifest.json",
        _edit_document(lambda obj: _set(obj, "datasets", 0, "pathh", value="xguard.jsonl")),
        3,
    ),
    "manifest-bucket-unknown-key": (
        "run",
        "pool_manifest.json",
        _edit_document(lambda obj: _set(obj, "datasets", 0, "buckets", 0, "weight", value=1)),
        3,
    ),
    "manifest-slice-number": (
        "run",
        "pool_manifest.json",
        _edit_document(
            lambda obj: _set(
                _set(obj, "datasets", 0, "enumerations", "complexity", value=[1, "MED", "HIGH"]),
                "datasets", 0, "buckets", 0, "slice", "complexity", value=1,
            )
        ),
        3,
    ),
    "records-directory": ("run", "xguard.jsonl", _make_directory, 3),
    "records-not-utf8": ("run", "xguard.jsonl", _not_utf8, 3),
    "records-row-list": ("run", "xguard.jsonl", _edit_line(0, lambda row: [row]), 3),
    "records-token-count-string": (
        "run", "xguard.jsonl", _edit_line(0, lambda row: _set(row, "token_count", value="x")), 3
    ),
    "records-token-count-fraction": (
        "run", "xguard.jsonl", _edit_line(0, lambda row: _set(row, "token_count", value=10.9)), 3
    ),
    "records-token-count-bool": (
        "run", "xguard.jsonl", _edit_line(0, lambda row: _set(row, "token_count", value=True)), 3
    ),
    "records-id-number": (
        "run", "xguard.jsonl", _edit_line(0, lambda row: _set(row, "id", value=5)), 3
    ),
    "records-tag-number": (
        "run",
        "xguard.jsonl",
        _edit_line(0, lambda row: _set(row, "tags", value={"complexity": 1})),
        3,
    ),
    # With 512-token windows, xg-001 (943 tokens) has the window ids xg-001:w0
    # and xg-001:w1, and xg-003 (404) and xg-004 (238) one window each.
    "records-duplicate-id": (
        "run", "xguard.jsonl", _edit_line(3, lambda row: _set(row, "id", value="xg-003")), 3
    ),
    "records-id-is-a-window-id": (
        "run", "xguard.jsonl", _edit_line(2, lambda row: _set(row, "id", value="xg-001:w1")), 3
    ),
    "records-token-count-overflow": (
        "run",
        "xguard.jsonl",
        _overflowing(_edit_line(0, lambda row: _set(row, "token_count", value=math.inf))),
        3,
    ),
    "eval-set-directory": ("run", "eval_if.jsonl", _make_directory, 3),
    "eval-set-not-json": (
        "run", "eval_if.jsonl", lambda p: p.write_text(p.read_text("utf-8") + "{broken\n"), 3
    ),
    "eval-set-row-list": ("run", "eval_if.jsonl", _edit_line(0, lambda row: [row]), 3),
    "eval-set-tags-list": (
        "run", "eval_if.jsonl", _edit_line(0, lambda row: _set(row, "tags", value=["x"])), 3
    ),
    "eval-set-id-number": (
        "run", "eval_if.jsonl", _edit_line(0, lambda row: _set(row, "id", value=5)), 3
    ),
    "eval-set-tag-number": (
        "run",
        "eval_if.jsonl",
        _edit_line(0, lambda row: _set(row, "tags", "complexity", value=1)),
        3,
    ),
    # A sample id is unique across every eval set of a run: eval_if.jsonl's
    # third row is if-eval-002, and eval_safe.jsonl, an earlier eval set,
    # starts with xg-eval-000.
    "eval-id-repeated-in-file": (
        "run", "eval_if.jsonl", _edit_line(5, lambda row: _set(row, "id", value="if-eval-002")), 3
    ),
    "eval-id-repeated-across-sets": (
        "run", "eval_if.jsonl", _edit_line(0, lambda row: _set(row, "id", value="xg-eval-000")), 3
    ),
    "taxonomy-not-utf8": ("run", "taxonomy.json", _not_utf8, 3),
    "taxonomy-list": ("run", "taxonomy.json", _edit_document(lambda obj: list(obj)), 3),
    "taxonomy-section-list": (
        "run", "taxonomy.json", _edit_document(lambda obj: _set(obj, "IF", value=[])), 3
    ),
    "taxonomy-level-number": (
        "run",
        "taxonomy.json",
        _edit_document(lambda obj: _set(obj, "XGUARD", "levels", "pressure", value=5)),
        3,
    ),
    "taxonomy-missing-axis": (
        "run",
        "taxonomy.json",
        _edit_document(
            lambda obj: _set(obj, "XGUARD", "levels", value={"pressure": ["LOW", "MED", "HIGH"]})
        ),
        3,
    ),
    "taxonomy-concealment-longer-than-pressure": (
        "run",
        "taxonomy.json",
        _edit_document(
            lambda obj: _set(
                obj,
                "XGUARD",
                "levels",
                "concealment",
                value=["CLEAR", "NONE", "OBFUSCATED", "NESTED"],
            )
        ),
        3,
    ),
    "taxonomy-required-tags-number": (
        "run",
        "taxonomy.json",
        _edit_document(lambda obj: _set(obj, "IF", "required_tags", value=5)),
        3,
    ),
    "taxonomy-families-number": (
        "run", "taxonomy.json", _edit_document(lambda obj: _set(obj, "IF", "families", value=5)), 3
    ),
    "taxonomy-weight-string": (
        "run",
        "taxonomy.json",
        _edit_document(lambda obj: _set(obj, "XGUARD", "weights", "complexity=HIGH", value="x")),
        3,
    ),
    "taxonomy-default-weight-string": (
        "run",
        "taxonomy.json",
        _edit_document(lambda obj: _set(obj, "IF", "default_weight", value="x")),
        3,
    ),
    "taxonomy-weight-zero": (
        "run",
        "taxonomy.json",
        _edit_document(lambda obj: _set(obj, "IF", "default_weight", value=0)),
        3,
    ),
    "taxonomy-weight-infinite": (
        "run",
        "taxonomy.json",
        _edit_document(lambda obj: _set(obj, "ORBENCH", "default_weight", value=math.inf)),
        3,
    ),
    "fixture-directory": ("replay", "fixture.jsonl", _make_directory, 3),
    "fixture-not-utf8": ("replay", "fixture.jsonl", _not_utf8, 3),
    "fixture-row-number": ("validate", "fixture.jsonl", _edit_line(0, lambda row: 5), 3),
    "fixture-frontier-number": (
        "validate",
        "fixture.jsonl",
        _edit_line(-1, lambda row: _set(row, "frontier", value=5)),
        3,
    ),
    # Line 1 is round 0, line 2 round 1 with one focus descriptor.
    "fixture-mixture-strings": (
        "replay",
        "fixture.jsonl",
        _edit_line(1, _sealed(lambda row: _set(row, "mixture", value=["0.5", "0.3", "0.2"]))),
        3,
    ),
    "fixture-boost-string": (
        "replay",
        "fixture.jsonl",
        _edit_line(2, _sealed(lambda row: _set(row, "focus", 0, "boost", value="3"))),
        3,
    ),
    "fixture-cap-fraction-bool": (
        "replay",
        "fixture.jsonl",
        _edit_line(2, _sealed(lambda row: _set(row, "focus", 0, "cap_fraction", value=True))),
        3,
    ),
    "fixture-boost-below-one": (
        "replay",
        "fixture.jsonl",
        _edit_line(2, _sealed(lambda row: _set(row, "focus", 0, "boost", value=0.5))),
        3,
    ),
    "fixture-focus-slice-malformed": (
        "replay",
        "fixture.jsonl",
        _edit_line(2, _sealed(lambda row: _set(row, "focus", 0, "slice", value="garbage"))),
        3,
    ),
    "fixture-round-word": (
        "validate",
        "fixture.jsonl",
        _edit_line(2, _sealed(lambda row: _set(row, "round", value="one"))),
        3,
    ),
    "artifact-directory": ("report", "round-001/metric.json", _make_directory, 3),
    **{
        f"fixture-{case}-{command}": (command, "fixture.jsonl", damage, 3)
        for case, damage in FIXTURE_INTEGRITY_FAULTS.items()
        for command in ("validate", "replay")
    },
}


@pytest.fixture
def fault_inputs(tmp_path):
    """A copy of the demo inputs whose config names a copy of the shipped
    taxonomy, plus a copy of the shipped replay fixture."""
    inputs = tmp_path / "inputs"
    shutil.copytree(demo_config_path().parent, inputs)
    shutil.copy(default_taxonomy_path(), inputs / "taxonomy.json")
    shutil.copy(default_fixture_path(), inputs / "fixture.jsonl")
    config = inputs / "config.json"
    config.write_text(
        json.dumps(dict(json.loads(config.read_text("utf-8")), taxonomy="taxonomy.json")),
        encoding="utf-8",
    )
    return inputs


@pytest.mark.parametrize("case", sorted(FAULTS))
def test_bad_input_exits_with_one_error_line(case, fault_inputs, replay_out, tmp_path, capsys):
    command, name, damage, code = FAULTS[case]
    out = tmp_path / "out"
    root = fault_inputs
    if command == "report":
        root = tmp_path / "run"
        shutil.copytree(replay_out, root)
    damage(root / name)
    argv = {
        "run": ["run", "--config", str(fault_inputs / "config.json"), "--out", str(out)],
        "replay": ["replay", "--fixture", str(fault_inputs / "fixture.jsonl"), "--out", str(out)],
        "validate": ["replay", "--fixture", str(fault_inputs / "fixture.jsonl"), "--validate-only"],
        "report": ["report", "--in", str(root)],
    }[command]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert str(root / name) in err
    assert not out.exists()  # inputs are loaded before the run directory is made


def _annotated_one_by_one(config):
    """The ``(sample id, annotation)`` pairs of ``_load_runtime(config)``'s
    eval sets, with ``annotate_prompt`` called on every sample, inputs
    loaded in the same order."""
    taxonomy = (
        SliceTaxonomy.from_file(config.taxonomy_path)
        if config.taxonomy_path
        else SliceTaxonomy.default()
    )
    load_pool(PoolManifest.from_file(config.pool_manifest_path))
    pairs = [
        (sample.sample_id, annotate_prompt(sample, taxonomy))
        for path in config.eval_set_paths
        for sample in load_eval_set(path)
    ]
    return [pair for dim in DIMENSION_ORDER for pair in pairs if pair[1].dimension is dim]


def _annotated(config):
    eval_sets = orchestrator._load_runtime(config).eval_sets
    return [pair for dim in DIMENSION_ORDER for pair in zip(*eval_sets[dim], strict=True)]


def _outcome(annotate, config):
    try:
        return annotate(config)
    except MixSearchError as exc:
        return type(exc), str(exc)


def _append_rows(rows):
    def damage(path):
        with open(path, "a", encoding="utf-8") as handle:
            handle.writelines(json.dumps(row) + "\n" for row in rows)

    return damage


def _eval_row(index, dataset, tags):
    return {"id": f"extra-{index}", "dataset": dataset, "tags": tags}


# Tag sets that annotate to every outcome: each reason a sample is
# invalid, a valid sample, the same tags in another key order, an extra
# tag, the values of a demo sample under another tag, and an IF sample's
# tags in another dataset.  Each row comes twice, so the second copy is
# annotated from the first.
TAG_VARIETY = [
    ("eval_safe.jsonl", "XGUARD", {"pressure": "HIGH"}),
    ("eval_safe.jsonl", "XGUARD", {"pressure": "LOW", "other": "NONE"}),
    ("eval_safe.jsonl", "XGUARD", {"family": "FORMAT", "complexity": "1"}),
    ("eval_safe.jsonl", "XGUARD", {"pressure": "EXTREME", "concealment": "NONE"}),
    ("eval_safe.jsonl", "XGUARD", {"pressure": "LOW", "concealment": "HIDDEN"}),
    ("eval_safe.jsonl", "XGUARD", {"concealment": "NESTED", "pressure": "LOW"}),
    ("eval_safe.jsonl", "XGUARD", {"pressure": "LOW", "concealment": "NESTED", "x": "y"}),
    ("eval_benign.jsonl", "ORBENCH", {"category": "gardening", "proximity": "FAR"}),
    ("eval_benign.jsonl", "ORBENCH", {"category": "legal", "proximity": "INSIDE"}),
    ("eval_benign.jsonl", "ORBENCH", {"category": "legal", "proximity": "FAR", "answerable": "no"}),
    (
        "eval_benign.jsonl", "ORBENCH",
        {"category": "legal", "proximity": "FAR", "answerable": "false"},
    ),
    ("eval_benign.jsonl", "ORBENCH", {"proximity": "EDGE", "category": "security"}),
    ("eval_if.jsonl", "IF", {"family": "POETRY", "complexity": "1"}),
    ("eval_if.jsonl", "IF", {"family": "FORMAT", "complexity": "9"}),
    ("eval_if.jsonl", "IF", {"complexity": "2"}),
]
# Edits of eval-row keys that nothing reads: a recorded verdict, a
# constraint's `hard` and family, and a response, each of a type or value
# no scorer would accept.
IGNORED_EVAL_EDITS = {
    "eval-set-verdict-string": (
        "eval_safe.jsonl",
        _edit_line(0, lambda row: _set(row, "judge_verdicts", "refusal_quality", value="false")),
    ),
    "eval-set-hard-string": (
        "eval_if.jsonl",
        _edit_line(0, lambda row: _set(row, "constraints", 0, "hard", value="false")),
    ),
    "eval-set-unknown-constraint-family": (
        "eval_if.jsonl",
        _edit_line(0, lambda row: _set(row, "constraints", 0, "family", value="FOO")),
    ),
    "eval-set-response-number": (
        "eval_if.jsonl", _edit_line(0, lambda row: _set(row, "response_text", value=5))
    ),
}
ANNOTATION_CASES = {
    "demo": None,
    **IGNORED_EVAL_EDITS,
    **{
        f"tag-variety-{name}": (name, _append_rows(
            [_eval_row(i, dataset, tags)
             for i, (file, dataset, tags) in enumerate(TAG_VARIETY * 2) if file == name]
        ))
        for name in ("eval_safe.jsonl", "eval_benign.jsonl", "eval_if.jsonl")
    },
    **{
        case: FAULTS[case][1:3]
        for case in FAULTS
        if FAULTS[case][0] == "run" and ("tag" in case or case.startswith(("taxonomy", "eval-set")))
    },
}


@pytest.mark.parametrize("case", sorted(ANNOTATION_CASES))
def test_eval_annotations_equal_one_by_one_annotation(case, fault_inputs):
    """``_load_runtime`` annotates each distinct (dataset, tags) pair once;
    every annotation, reason included, and every error equal those of
    annotating each sample on its own."""
    if ANNOTATION_CASES[case] is not None:
        name, damage = ANNOTATION_CASES[case]
        damage(fault_inputs / name)
    config = orchestrator.LoopConfig.from_file(fault_inputs / "config.json")
    expected = _outcome(_annotated_one_by_one, config)
    assert _outcome(_annotated, config) == expected
    if case.startswith("tag-variety"):
        assert len({a.reason for _, a in expected}) >= 4


@pytest.mark.parametrize("case", ["demo", *(c for c in ANNOTATION_CASES if "variety" in c)])
def test_eval_samples_with_one_tag_set_share_one_annotation(case, fault_inputs):
    """A loaded run holds one ``PromptAnnotation`` object per distinct
    (dataset, tags), whatever the order of the tags."""
    if ANNOTATION_CASES[case] is not None:
        name, damage = ANNOTATION_CASES[case]
        damage(fault_inputs / name)
    config = orchestrator.LoopConfig.from_file(fault_inputs / "config.json")
    eval_sets = orchestrator._load_runtime(config).eval_sets
    samples = [sample for path in config.eval_set_paths for sample in load_eval_set(path)]
    objects = {}  # (dataset, tags) -> ids of the annotation objects its samples hold
    for dim in DIMENSION_ORDER:
        sample_ids, annotations = eval_sets[dim]
        ours = [s for s in samples if DIMENSION_FOR_DATASET[s.dataset] is dim]
        assert sample_ids == [s.sample_id for s in ours]
        for sample, annotation in zip(ours, annotations, strict=True):
            key = (sample.dataset, frozenset(sample.tags.items()))
            objects.setdefault(key, set()).add(id(annotation))
    assert all(len(ids) == 1 for ids in objects.values())
    assert len(set().union(*objects.values())) == len(objects)


def test_eval_rows_other_keys_are_ignored(fault_inputs, tmp_path, capsys):
    """An eval row is its id, dataset and tags: editing its other keys
    changes no byte of the run beyond the recorded input digests."""
    config = str(fault_inputs / "config.json")
    assert main(["run", "--config", config, "--out", str(tmp_path / "plain")]) == 0
    for name, edit in IGNORED_EVAL_EDITS.values():
        edit(fault_inputs / name)
    assert main(["run", "--config", config, "--out", str(tmp_path / "edited")]) == 0
    capsys.readouterr()
    digests = [
        json.loads((tmp_path / run / "config.json").read_text("utf-8"))["inputs"]
        for run in ("plain", "edited")
    ]
    assert {k for k in digests[0] if digests[0][k] != digests[1][k]} == {
        "eval_sets[0]", "eval_sets[2]"
    }
    skip = ("run_meta.json", "config.json")
    assert tree_bytes(tmp_path / "edited", skip) == tree_bytes(tmp_path / "plain", skip)


@pytest.mark.parametrize("command", ["run", "replay"])
def test_out_naming_a_file_exits_two(command, tmp_path, capsys):
    out = tmp_path / "plain-file"
    out.write_text("not a run directory\n", encoding="utf-8")
    config = ["--config", str(demo_config_path())] if command == "run" else []
    assert main([command, *config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(out) in err
    assert out.read_text(encoding="utf-8") == "not a run directory\n"


@pytest.fixture
def demo_inputs(tmp_path):
    inputs = tmp_path / "demo-inputs"
    shutil.copytree(demo_config_path().parent, inputs)
    return inputs


class TestRun:
    def test_external_backend_is_an_unknown_kind(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"backend": {"kind": "external"}}), encoding="utf-8")
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err
        assert str(config_path) in err and "unknown backend kind 'external'" in err
        assert not (tmp_path / "out").exists()

    def test_replay_config_loads_only_its_fixture(self, demo_inputs, tmp_path, monkeypatch):
        config_path = tmp_path / "config.json"
        demo = json.loads((demo_inputs / "config.json").read_text("utf-8"))
        config = {
            "backend": {"kind": "replay", "fixture": str(default_fixture_path())},
            "pool_manifest": str(demo_inputs / demo["pool_manifest"]),
            "eval_sets": [str(demo_inputs / path) for path in demo["eval_sets"]],
            "taxonomy": str(default_taxonomy_path()),
        }
        config_path.write_text(json.dumps(config), encoding="utf-8")

        def unexpected(*args, **kwargs):
            raise AssertionError("a replay loaded an input it does not read")

        monkeypatch.setattr(orchestrator, "load_pool", unexpected)
        monkeypatch.setattr(orchestrator, "load_eval_set", unexpected)
        monkeypatch.setattr(SliceTaxonomy, "from_file", unexpected)
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "run")]) == 0
        assert main(["replay", "--out", str(tmp_path / "replay")]) == 0
        skip = ("run_meta.json", "config.json")
        assert tree_bytes(tmp_path / "run", skip) == tree_bytes(tmp_path / "replay", skip)

    def test_resume_accepts_another_spelling_of_the_config(
        self, demo_inputs, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        relative = ["run", "--config", "demo-inputs/config.json", "--out", "out"]
        assert main(relative + ["--rounds", "2"]) == 0
        absolute = str(demo_inputs / "config.json")
        assert main(["run", "--config", absolute, "--out", "out", "--rounds", "3"]) == 0
        assert main(["run", "--config", absolute, "--out", "fresh", "--rounds", "3"]) == 0
        capsys.readouterr()
        # config.json keeps the round count of the run that created the directory
        skip = ("run_meta.json", "config.json")
        assert tree_bytes(tmp_path / "out", skip) == tree_bytes(tmp_path / "fresh", skip)

    def test_resume_rejects_a_tampered_manifest(self, demo_inputs, tmp_path, capsys):
        def args(out, rounds):
            config = str(demo_inputs / "config.json")
            return ["run", "--config", config, "--out", str(out), "--rounds", str(rounds)]

        for out in ("tampered", "untouched"):
            assert main(args(tmp_path / out, 2)) == 0
        manifest = tmp_path / "tampered" / "round-001" / "manifest.jsonl"
        data = bytearray(manifest.read_bytes())
        data[len(data) // 2] ^= 1
        manifest.write_bytes(bytes(data))
        before = tree_bytes(tmp_path / "tampered")
        capsys.readouterr()
        assert main(args(tmp_path / "tampered", 3)) == 3
        assert "manifest.jsonl" in capsys.readouterr().err
        assert tree_bytes(tmp_path / "tampered") == before
        assert main(args(tmp_path / "untouched", 3)) == 0
        assert main(args(tmp_path / "fresh", 3)) == 0
        skip = ("run_meta.json", "config.json")  # config.json keeps the first round count
        assert tree_bytes(tmp_path / "untouched", skip) == tree_bytes(tmp_path / "fresh", skip)

    def test_an_initial_action_the_pool_cannot_serve_exits_before_out(
        self, demo_inputs, tmp_path, capsys
    ):
        _edit_document(
            lambda obj: _set(obj, "datasets", value=[d for d in obj["datasets"] if d["id"] != "IF"])
        )(demo_inputs / "pool_manifest.json")
        out = tmp_path / "out"
        assert main(["run", "--config", str(demo_inputs / "config.json"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err
        assert "mixture mass on IF, which the pool lacks" in err
        assert not out.exists()

    def test_missing_config_exits_two(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_replay_config_via_run_command(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"backend": {"kind": "replay"}}), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--out", str(out), "--rounds", "2"]) == 0
        captured = capsys.readouterr().out
        assert "run complete" in captured
        assert (out / "round-001").exists()
        assert not (out / "round-002").exists()

    def test_seed_override_lands_in_config_dump(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"backend": {"kind": "replay"}}), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--out", str(out), "--seed", "42"]) == 0
        dumped = json.loads((out / "config.json").read_text("utf-8"))
        assert dumped["master_seed"] == 42


def _no_input(*args, **kwargs):
    raise AssertionError("a resume with no point left loaded an input")


def test_a_finished_resume_loads_no_input(demo_inputs, tmp_path, monkeypatch, capsys):
    config = str(demo_inputs / "config.json")
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    assert main(["run", "--config", config, "--out", str(out)]) == 0
    before = tree_bytes(out, exclude=())
    removed = []
    with monkeypatch.context() as patch:
        patch.setattr(orchestrator, "load_pool", _no_input)
        patch.setattr(orchestrator, "load_eval_set", _no_input)
        patch.setattr(SliceTaxonomy, "from_file", _no_input)
        patch.setattr(os, "unlink", lambda path, *a, **k: removed.append(path))
        assert main(["run", "--config", config, "--out", str(out)]) == 0
    assert removed == []
    assert tree_bytes(out, exclude=()) == before
    # An extension has a round left to evaluate, so it loads the inputs.
    assert main(["run", "--config", config, "--out", str(out), "--rounds", "6"]) == 0
    assert main(["run", "--config", config, "--out", str(fresh), "--rounds", "6"]) == 0
    capsys.readouterr()
    skip = ("run_meta.json", "config.json")  # config.json keeps the first round count
    assert tree_bytes(out, skip) == tree_bytes(fresh, skip)


@pytest.fixture
def resume_inputs(fault_inputs):
    """``fault_inputs`` plus ``replay.json``, a config that replays the
    fixture copy."""
    replay = {"backend": {"kind": "replay", "fixture": "fixture.jsonl"}}
    (fault_inputs / "replay.json").write_text(json.dumps(replay), encoding="utf-8")
    return fault_inputs


def _run_args(inputs, config, out, rounds):
    return ["run", "--config", str(inputs / config), "--out", str(out), "--rounds", str(rounds)]


def _refused(argv, out, capsys, *names):
    """Run ``argv``, a resume of ``out``: it exits 2 with one error line
    that holds every one of ``names``, and leaves ``out`` as it was."""
    before = tree_bytes(out, exclude=())
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    for name in names:
        assert name in err, (name, err)
    assert tree_bytes(out, exclude=()) == before


# input role -> (config the run is made with, the file of that role)
INPUT_ROLES = {
    "pool_manifest": ("config.json", "pool_manifest.json"),
    "records.XGUARD": ("config.json", "xguard.jsonl"),
    "records.ORBENCH": ("config.json", "orbench.jsonl"),
    "records.IF": ("config.json", "if.jsonl"),
    "eval_sets[0]": ("config.json", "eval_safe.jsonl"),
    "eval_sets[1]": ("config.json", "eval_benign.jsonl"),
    "eval_sets[2]": ("config.json", "eval_if.jsonl"),
    "taxonomy": ("config.json", "taxonomy.json"),
    "fixture": ("replay.json", "fixture.jsonl"),
}


def _flip_byte(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 1
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("rounds", [2, 3], ids=["finished", "extension"])
@pytest.mark.parametrize("role", sorted(INPUT_ROLES))
def test_resume_refuses_a_changed_input(role, rounds, resume_inputs, tmp_path, capsys):
    config, name = INPUT_ROLES[role]
    out = tmp_path / "out"
    assert main(_run_args(resume_inputs, config, out, 2)) == 0
    recorded = json.loads((out / "config.json").read_text("utf-8"))["inputs"]
    assert set(recorded) == {r for r, (c, _) in INPUT_ROLES.items() if c == config}
    _flip_byte(resume_inputs / name)
    argv = _run_args(resume_inputs, config, out, rounds)
    _refused(argv, out, capsys, str(resume_inputs / name), role)


@pytest.mark.parametrize("rounds", [2, 3], ids=["finished", "extension"])
def test_resume_refuses_a_missing_input(rounds, resume_inputs, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(_run_args(resume_inputs, "config.json", out, 2)) == 0
    (resume_inputs / "orbench.jsonl").unlink()
    argv = _run_args(resume_inputs, "config.json", out, rounds)
    _refused(argv, out, capsys, str(resume_inputs / "orbench.jsonl"))


def test_resume_refuses_an_input_the_config_does_not_read(resume_inputs, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(_run_args(resume_inputs, "config.json", out, 2)) == 0
    path = out / "config.json"
    recorded = json.loads(path.read_text("utf-8"))
    recorded["inputs"]["eval_sets[3]"] = "0" * 64
    path.write_text(json.dumps(recorded), encoding="utf-8")
    argv = _run_args(resume_inputs, "config.json", out, 3)
    _refused(argv, out, capsys, str(path), "eval_sets[3]")


@pytest.mark.parametrize("rounds", [2, 3], ids=["finished", "extension"])
def test_resume_refuses_a_config_json_without_input_digests(
    rounds, resume_inputs, tmp_path, capsys
):
    out = tmp_path / "out"
    assert main(_run_args(resume_inputs, "config.json", out, 2)) == 0
    path = out / "config.json"
    recorded = json.loads(path.read_text("utf-8"))
    del recorded["inputs"]
    path.write_text(json.dumps(recorded, indent=2) + "\n", encoding="utf-8")
    argv = _run_args(resume_inputs, "config.json", out, rounds)
    _refused(argv, out, capsys, str(path), "no input digests")


def test_editing_rounds_in_the_config_file_extends_the_run(resume_inputs, tmp_path, capsys):
    config = resume_inputs / "config.json"

    def set_rounds(rounds):
        raw = json.loads(config.read_text("utf-8"))
        config.write_text(json.dumps(dict(raw, rounds=rounds)), encoding="utf-8")

    out, fresh = tmp_path / "out", tmp_path / "fresh"
    set_rounds(2)
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    set_rounds(3)
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert main(["run", "--config", str(config), "--out", str(fresh)]) == 0
    capsys.readouterr()
    assert orchestrator.RunDirectory(out).round_indices() == [0, 1, 2]
    skip = ("run_meta.json", "config.json")  # config.json keeps the first round count
    assert tree_bytes(out, skip) == tree_bytes(fresh, skip)


def _wrap_in_list(path):
    if path.suffix == ".jsonl":
        _edit_line(0, lambda row: [row])(path)
    else:
        _edit_document(lambda obj: [obj])(path)


# Every file a resume of a finished 2-round demo run reads, and the damage done to it.
RESUME_READS = [
    "config.json",
    "base/metric.json",
    *(
        f"{round_dir}/{name}"
        for round_dir in ("round-000", "round-001")
        for name in (
            "action.json",
            "metric.json",
            "profiles.jsonl",
            "manifest_summary.json",
            "manifest.jsonl",
            "records.jsonl",
        )
    ),
    "base/records.jsonl",
]
RESUME_DAMAGE = {
    "truncated": _truncate,
    "missing": lambda path: path.unlink(),
    "not-json": lambda path: path.write_text("not json\n", encoding="utf-8"),
    "list-for-object": _wrap_in_list,
}


@pytest.mark.parametrize("damage", sorted(RESUME_DAMAGE))
@pytest.mark.parametrize("name", RESUME_READS)
def test_a_damaged_artifact_stops_a_finished_resume(name, damage, demo_out, tmp_path, capsys):
    damaged = tmp_path / "run"
    shutil.copytree(demo_out, damaged)
    RESUME_DAMAGE[damage](damaged / name)
    before = tree_bytes(damaged, exclude=())
    capsys.readouterr()
    argv = ["run", "--config", str(demo_config_path()), "--rounds", "2", "--out", str(damaged)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert name in err, err
    assert tree_bytes(damaged, exclude=()) == before


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["tune"])
        assert excinfo.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["report"])
        assert excinfo.value.code == 2

    def test_unknown_report_format(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "--in", str(tmp_path), "--format", "pdf"])
        assert excinfo.value.code == 2
        assert "--format" in capsys.readouterr().err


class TestLogging:
    def test_log_level_env_var(self, tmp_path, monkeypatch, capsys):
        import logging

        monkeypatch.setenv("MIXSEARCH_LOG", "INFO")
        root = logging.getLogger()
        old_level, old_handlers = root.level, root.handlers[:]
        root.handlers.clear()
        try:
            assert main(["replay", "--out", str(tmp_path / "out")]) == 0
            assert root.level == logging.INFO
        finally:
            root.level = old_level
            root.handlers = old_handlers
