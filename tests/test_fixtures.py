"""Replay fixture loading: parsing, self-checks, and frontier recomputation."""
import hashlib
import json

import pytest

from mixsearch.errors import FixtureError
from mixsearch.fixtures import (
    load_replay_fixture,
    data_path,
    default_fixture_path,
    default_taxonomy_path,
    demo_config_path,
    row_check,
)

from conftest import REPLAY_FRONTIER, REPLAY_MIXTURES, REPLAY_TRAJECTORY

# Shipped trajectory file, pinned byte-for-byte.  A hash change means the
# recorded trajectory changed, which invalidates every replay expectation.
FIXTURE_SHA256 = "82bbe049eb69b145b6e05fa4c5de114253bba635f83e72474b8b87bb3316e91c"


def rewrite(tmp_path, mutate=None, frontier=REPLAY_FRONTIER, reseal=False, drop=None):
    """Copy the shipped fixture with targeted edits, returning the new path."""
    lines = default_fixture_path().read_text(encoding="utf-8").splitlines()
    rows = [json.loads(line) for line in lines]
    data_rows = [row for row in rows if "frontier" not in row]
    if drop is not None:
        data_rows = [row for row in data_rows if str(row["round"]) != drop]
    if mutate:
        for row in data_rows:
            mutate(row)
    if reseal:
        for row in data_rows:
            row["check"] = row_check(row)
    path = tmp_path / "fixture.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for row in data_rows:
            handle.write(json.dumps(row) + "\n")
        handle.write(json.dumps({"frontier": list(frontier)}) + "\n")
    return path


class TestShippedFixture:
    def test_bytes_are_pinned(self):
        digest = hashlib.sha256(default_fixture_path().read_bytes()).hexdigest()
        assert digest == FIXTURE_SHA256

    def test_validates_clean(self):
        fixture = load_replay_fixture(default_fixture_path())
        assert len(fixture.rounds) == 5
        assert fixture.frontier == tuple(sorted(REPLAY_FRONTIER))

    def test_rows_carry_the_reference_trajectory(self):
        fixture = load_replay_fixture(default_fixture_path())
        assert tuple(round(v, 4) for v in fixture.base.as_tuple()) == REPLAY_TRAJECTORY["base"]
        for index, row in enumerate(fixture.rounds):
            label = str(index)
            assert tuple(round(v, 4) for v in row.metrics.as_tuple()) == REPLAY_TRAJECTORY[label]
            assert row.action.dataset_mixture == pytest.approx(REPLAY_MIXTURES[label])

    def test_late_rounds_share_a_mixture(self):
        # The shipped trace freezes the macro ratios after round 1; only
        # micro levers move.  This is a property of the trace, not a rule
        # for fixtures in general.
        fixture = load_replay_fixture(default_fixture_path())
        late = {fixture.rounds[index].action.dataset_mixture for index in (2, 3, 4)}
        assert len(late) == 1

    def test_row_lookup_by_round_index(self, tmp_path):
        # Round i is rounds[i], whatever the order of the file's rows.
        lines = default_fixture_path().read_text(encoding="utf-8").splitlines()
        reversed_path = tmp_path / "reversed.jsonl"
        reversed_path.write_text("\n".join(lines[::-1]) + "\n", encoding="utf-8")
        fixture = load_replay_fixture(default_fixture_path())
        reversed_fixture = load_replay_fixture(reversed_path)
        assert fixture.base.as_tuple() == REPLAY_TRAJECTORY["base"]
        assert fixture.rounds[3].metrics.as_tuple() == REPLAY_TRAJECTORY["3"]
        assert fixture.rounds[3].action.focus_criteria[0].cap_fraction == 0.4
        assert reversed_fixture == fixture

    def test_row_check_is_stable(self):
        # The digest covers the canonical JSON of everything but "check".
        row = {"round": "base", "safe": 2.76, "benign": 4.6667, "if": 3.43}
        assert row_check(row) == "b34a1cbd"
        assert row_check({**row, "check": "ignored"}) == "b34a1cbd"


class TestValidationFailures:
    """Loading checks the fixture's integrity; each failure names the file."""

    def test_corrupted_metric_fails_the_row_self_check(self, tmp_path):
        def bump(row):
            if str(row["round"]) == "2":
                row["safe"] = 4.4568  # one digit off

        path = rewrite(tmp_path, mutate=bump)
        with pytest.raises(FixtureError, match="row '2' failed its self-check"):
            load_replay_fixture(path)

    def test_resealed_corruption_is_caught_by_the_frontier(self, tmp_path):
        # A forger who also fixes the digest still has to beat dominance
        # recomputation: collapsing round 4 removes it from the frontier.
        def sink(row):
            if str(row["round"]) == "4":
                row["safe"], row["benign"], row["if"] = 2.0, 2.0, 2.0

        path = rewrite(tmp_path, mutate=sink, reseal=True)
        with pytest.raises(FixtureError, match="frontier mismatch"):
            load_replay_fixture(path)

    def test_deleted_round_breaks_contiguity(self, tmp_path):
        path = rewrite(tmp_path, drop="1")
        with pytest.raises(FixtureError, match="round 1 is missing"):
            load_replay_fixture(path)

    def test_duplicated_round(self, tmp_path):
        path = rewrite(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:3] + lines[2:]), encoding="utf-8")
        with pytest.raises(FixtureError, match="row '1' appears more than once"):
            load_replay_fixture(path)

    def test_a_round_has_one_label_however_written(self, tmp_path):
        path = rewrite(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        copy = json.loads(lines[2])
        copy["round"] = "01"
        copy["check"] = row_check(copy)
        path.write_text("".join(lines[:3] + [json.dumps(copy) + "\n"] + lines[3:]), "utf-8")
        with pytest.raises(FixtureError, match="row '1' appears more than once"):
            load_replay_fixture(path)

    def test_deleted_base_row(self, tmp_path):
        path = rewrite(tmp_path, drop="base")
        with pytest.raises(FixtureError, match="'base' is missing"):
            load_replay_fixture(path)

    def test_mixture_must_sum_to_one(self, tmp_path):
        def break_simplex(row):
            if str(row["round"]) == "0":
                row["mixture"] = [0.5, 0.3, 0.1]

        path = rewrite(tmp_path, mutate=break_simplex, reseal=True)
        with pytest.raises(FixtureError, match="must sum to 1"):
            load_replay_fixture(path)

    def test_a_base_mixture_meets_the_action_rule(self, tmp_path):
        # A base row needs no mixture, but one it has is checked as an
        # action's: three shares, each >= 0, summing to 1.
        def two_shares(row):
            if row["round"] == "base":
                row["mixture"] = [0.6, 0.4]

        path = rewrite(tmp_path, mutate=two_shares, reseal=True)
        with pytest.raises(FixtureError, match=r"fixture.jsonl:1 .*needs 3 entries"):
            load_replay_fixture(path)

    def test_numbered_round_needs_a_mixture(self, tmp_path):
        def strip(row):
            if str(row["round"]) == "0":
                row.pop("mixture")

        path = rewrite(tmp_path, mutate=strip, reseal=True)
        with pytest.raises(FixtureError, match="lacks a mixture"):
            load_replay_fixture(path)

    def test_wrong_declared_frontier(self, tmp_path):
        path = rewrite(tmp_path, frontier=("base", "1", "4"))
        with pytest.raises(FixtureError, match="frontier mismatch"):
            load_replay_fixture(path)


class TestLoadingFailures:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FixtureError, match="not found"):
            load_replay_fixture(tmp_path / "absent.jsonl")

    def test_missing_frontier_row(self, tmp_path):
        path = tmp_path / "fixture.jsonl"
        lines = [
            line
            for line in default_fixture_path().read_text(encoding="utf-8").splitlines()
            if "frontier" not in line
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(FixtureError, match="lacks a frontier row"):
            load_replay_fixture(path)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "fixture.jsonl"
        path.write_text('{"round": 0, "safe": 3.0}\n', encoding="utf-8")
        with pytest.raises(FixtureError, match="malformed row"):
            load_replay_fixture(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "fixture.jsonl"
        path.write_text("{not json\n", encoding="utf-8")
        with pytest.raises(FixtureError):
            load_replay_fixture(path)


class TestShippedPaths:
    def test_all_data_files_present(self):
        assert default_fixture_path().is_file()
        assert default_taxonomy_path().is_file()
        assert demo_config_path().is_file()
        for name in ("pool_manifest.json", "eval_safe.jsonl", "eval_benign.jsonl", "eval_if.jsonl"):
            assert data_path("demo", name).is_file()
