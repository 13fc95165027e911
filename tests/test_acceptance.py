"""Acceptance suite: one test per release criterion.

Each test exercises one criterion end to end at its stated tolerance
and prints a ``criterion N: PASS`` line with the measured numbers.  The
last test checks the three-layer scoring invariant over every record a
simulated and a replayed run write, with the independent record-line
oracle.
Run ``pytest tests/test_acceptance.py -v`` for one verdict line per
criterion (add ``-s`` to see the measurement lines as they print).
"""
import hashlib
import itertools
import json
import random
import time
from collections import Counter
from pathlib import Path

import pytest

from mixsearch.backend import SurfaceParams
from mixsearch.cli import main
from mixsearch.fixtures import demo_config_path
from mixsearch.oracles import record_lines
from mixsearch.oracles.naive_checker import naive_verdict
from mixsearch.orchestrator import LoopConfig, round_dir_name, run
from mixsearch.pareto import ParetoArchive, dominates
from mixsearch.profiles import build_failure_profiles
from mixsearch.proposer import PolicyConfig
from mixsearch.records import (
    CheckResult,
    Dataset,
    Dimension,
    MIXTURE_ORDER,
    FLOOR_STATES,
    SampleRecord,
)
from mixsearch.rubric import (
    AtomicCheckVector,
    ConstraintFamily,
    ConstraintSpec,
    aggregate_l2,
    score_l1,
    verify_constraints,
    BENIGN_CHECKS,
    SAFE_CHECKS,
)
from mixsearch.sampler import (
    DataAction,
    FocusCriterion,
    draw_budgeted,
    effective_distribution,
    uniform_bucket_weights,
)

from conftest import (
    REPLAY_FRONTIER,
    REPLAY_MIXTURES,
    REPLAY_TRAJECTORY,
    columns_of,
    make_pool,
    simulate_config,
    trajectory_vector,
    tree_bytes,
)


def announce(number: int, detail: str) -> None:
    print(f"criterion {number}: PASS — {detail}")


# ---------------------------------------------------------------------------
# 1. The archive is insertion-order independent on the reference trace.


def test_criterion_1_frontier_stable_under_insertion_order():
    labels = list(REPLAY_TRAJECTORY)
    started = time.perf_counter()
    for order in itertools.permutations(labels):
        archive = ParetoArchive()
        for label in order:
            archive.insert(label, trajectory_vector(label))
        assert set(archive.labels()) == set(REPLAY_FRONTIER), f"order {order}"
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"720 insertion orders took {elapsed:.3f}s"
    announce(1, f"all 720 insertion orders end at {{base, 2, 4}} in {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 2. Dominance spot checks on the reference trace.


def test_criterion_2_dominance_spot_checks():
    assert dominates(trajectory_vector("1"), trajectory_vector("0"))
    assert not dominates(trajectory_vector("base"), trajectory_vector("2"))
    assert not dominates(trajectory_vector("2"), trajectory_vector("base"))
    assert dominates(trajectory_vector("4"), trajectory_vector("3"))
    announce(2, "1 beats 0; base and 2 trade off both ways; 4 beats 3")


# ---------------------------------------------------------------------------
# 3. Replaying the shipped trace reproduces its table end to end.


def test_criterion_3_replay_report_matches_reference_table(tmp_path):
    run_dir = run(LoopConfig(rounds=5, backend_kind="replay"), tmp_path)
    lines = (run_dir.path / "trajectory.csv").read_text("utf-8").splitlines()
    assert lines[0] == "round,safe,benign,if,mixture,note"
    rows = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in rows] == ["base", "0", "1", "2", "3", "4"]
    for label, safe, benign, if_score, mixture, note in rows:
        expected = REPLAY_TRAJECTORY[label]
        assert (safe, benign, if_score) == tuple(f"{v:.4f}" for v in expected), label
        if label == "base":
            assert mixture == "-"
        else:
            shares = REPLAY_MIXTURES[label]
            assert mixture == " / ".join(f"{s:.2f}" for s in shares), label
        assert (note == "micro-only change") == (label in ("2", "3", "4")), label
    text = (run_dir.path / "report.txt").read_text("utf-8")
    assert "rounds 2-4 share mixture 0.35 / 0.45 / 0.20" in text
    announce(3, "replayed table matches at 4 decimals; micro-only flag on rounds 2-4")


# ---------------------------------------------------------------------------
# 4. Budgeted draws never overspend and never stop while a draw still fits.


def test_criterion_4_budget_discipline(tmp_path):
    started = time.perf_counter()
    layout = {
        "XGUARD": {"a": [7, 10, 23, 40], "b": [12, 30, 55]},
        "ORBENCH": {"a": [9, 18, 33], "b": [11, 26, 61]},
        "IF": {"a": [8, 15, 29], "b": [13, 21, 47]},
    }
    (tmp_path / "mixed").mkdir()
    pool = make_pool(tmp_path / "mixed", layout, window_length=64)
    token_of = {
        window_id: length
        for dataset in pool.datasets
        for bucket in pool.bucket_ids(dataset)
        for window_id, length, _ in zip(*pool.windows(dataset, bucket))
    }
    weights = uniform_bucket_weights(pool)
    hot = FocusCriterion(
        pairs=(("tier", "a"),),
        boost=2.0,
        cap_fraction=0.3,
        label="tier=a",
    )
    rng = random.Random(20260819)
    for trial in range(1_000):
        budget = rng.randint(70, 900)
        raw = [rng.uniform(0.15, 1.0) for _ in MIXTURE_ORDER]
        total = sum(raw)
        action = DataAction(
            dataset_mixture=tuple(value / total for value in raw),
            bucket_weights=weights,
            focus_criteria=(hot,) if trial % 2 else (),
        )
        manifest = draw_budgeted(
            effective_distribution(action, pool),
            pool,
            budget,
            seed=trial,
            focus=action.focus_criteria,
        )
        assert manifest.total_tokens <= budget, f"trial {trial} overspent"
        remaining = budget - manifest.total_tokens
        for window_id, reason in manifest.rejections:
            if reason != "cap":
                assert reason == "budget"
                assert token_of[window_id] > remaining, (
                    f"trial {trial}: window {window_id} "
                    f"({token_of[window_id]} tokens) fit the remaining {remaining}"
                )

    # Realized-mixture fidelity at a 100k-token budget with 10-token
    # windows.  One draw is 10,000 multinomial picks, so any single seed
    # carries ~0.01 of sampling noise; the deviation that matters is the
    # mean over a handful of fixed seeds.
    flat_layout = {ds: {"a": [10] * 20, "b": [10] * 20} for ds in ("XGUARD", "ORBENCH", "IF")}
    (tmp_path / "flat").mkdir()
    flat = make_pool(tmp_path / "flat", flat_layout, window_length=10)
    mixture = (0.35, 0.45, 0.20)
    action = DataAction(dataset_mixture=mixture, bucket_weights=uniform_bucket_weights(flat))
    distribution = effective_distribution(action, flat)
    deviations = []
    for seed in range(5):
        manifest = draw_budgeted(distribution, flat, 100_000, seed=seed)
        shares = manifest.dataset_token_shares()
        deviations.append(
            sum(abs(shares[dataset] - target) for dataset, target in zip(MIXTURE_ORDER, mixture))
        )
    mean_l1 = sum(deviations) / len(deviations)
    assert mean_l1 <= 0.02, f"realized-mixture L1 {mean_l1:.4f} over seeds 0-4"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"budget discipline checks took {elapsed:.1f}s"
    announce(
        4,
        f"1,000 draws within budget, no fitting window refused; mean L1 at 100k tokens "
        f"{mean_l1:.4f} (worst single seed {max(deviations):.4f}) in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. The constraint checker agrees with the brute-force oracle.

_WORD_POOL = (
    "cat", "dog", "fish", "alpha", "beta", "concatenate",
    "catalog", "x0", "zz_9", "delta", "cat dog",
)


def _random_text(rng: random.Random) -> str:
    lines = []
    for _ in range(rng.randint(1, 8)):
        words = " ".join(rng.choice(_WORD_POOL) for _ in range(rng.randint(1, 6)))
        roll = rng.random()
        if roll < 0.45:
            lines.append(words)
        elif roll < 0.65:
            lines.append(rng.choice(("- ", "* ")) + words)
        elif roll < 0.80:
            lines.append(f"{rng.randint(1, 12)}{rng.choice('.)')} {words}")
        elif roll < 0.90:
            lines.append("#" * rng.randint(1, 3) + " " + words)
        else:
            lines.append(json.dumps({"key": words}))
    return "\n".join(lines)


def _random_case(rng: random.Random, family: ConstraintFamily) -> tuple[str, ConstraintSpec]:
    if family is ConstraintFamily.LENGTH:
        parameters = {}
        if rng.random() < 0.7:
            parameters["min_words"] = rng.randint(0, 20)
        if rng.random() < 0.7 or not parameters:
            parameters["max_words"] = rng.randint(0, 25)
        return _random_text(rng), ConstraintSpec(family, parameters)
    if family in (ConstraintFamily.INCLUSION, ConstraintFamily.EXCLUSION):
        keywords = [
            rng.choice(_WORD_POOL).upper() if rng.random() < 0.3 else rng.choice(_WORD_POOL)
            for _ in range(rng.randint(1, 3))
        ]
        return _random_text(rng), ConstraintSpec(family, {"keywords": keywords})
    if family is ConstraintFamily.FORMAT:
        kind = rng.choice(("json", "bullet_list", "numbered_list"))
        if rng.random() < 0.5:
            text = _random_text(rng)
        elif kind == "json":
            text = json.dumps({"words": rng.choice(_WORD_POOL), "n": rng.randint(0, 9)})
        elif kind == "bullet_list":
            text = "\n".join(f"- {rng.choice(_WORD_POOL)}" for _ in range(rng.randint(1, 4)))
        else:
            text = "\n".join(f"{i}. {rng.choice(_WORD_POOL)}" for i in range(1, rng.randint(2, 5)))
        return text, ConstraintSpec(family, {"kind": kind})
    parameters = {}
    if rng.random() < 0.7:
        parameters["min_count"] = rng.randint(0, 5)
    if rng.random() < 0.7 or not parameters:
        parameters["max_count"] = rng.randint(0, 6)
    parameters["unit"] = rng.choice(("sections", "bullets"))
    return _random_text(rng), ConstraintSpec(ConstraintFamily.STRUCTURE, parameters)


def test_criterion_5_checker_matches_oracle():
    rng = random.Random(55_055)
    mismatches = []
    for family in ConstraintFamily:
        for case in range(100):
            text, spec = _random_case(rng, family)
            produced = verify_constraints(text, [spec]).checks[0].passed
            expected = naive_verdict(text, spec.family.value, spec.parameters)
            if produced != expected:
                mismatches.append((family.value, case, text, spec.parameters))
    assert not mismatches, f"checker disagreed with oracle on {mismatches[:3]}"
    announce(5, "500 randomized constraint cases (100 per family), zero oracle mismatches")


# ---------------------------------------------------------------------------
# 6. Scoring stays in range, rewards progress, and floors hard failures.

_IF_FAMILIES = tuple(family.value for family in ConstraintFamily)


def _random_check_vector(rng: random.Random) -> AtomicCheckVector:
    dimension = rng.choice((Dimension.SAFE, Dimension.BENIGN, Dimension.IF))
    if dimension is Dimension.IF:
        checks = tuple(
            CheckResult(
                check_id=f"c{index}",
                passed=rng.random() < 0.65,
                family=rng.choice(_IF_FAMILIES),
                hard=rng.random() < 0.25,
                weight=rng.choice((0.5, 1.0, 1.5, 2.0)),
            )
            for index in range(1, rng.randint(2, 9))
        )
    else:
        table = SAFE_CHECKS if dimension is Dimension.SAFE else BENIGN_CHECKS
        checks = tuple(
            CheckResult(
                check_id=check_id,
                passed=rng.random() < 0.65,
                hard=hard,
                weight=rng.choice((0.5, 1.0, 2.0)),
            )
            for check_id, hard in table
        )
    return AtomicCheckVector(dimension=dimension, checks=checks)


def test_criterion_6_scoring_properties_on_random_vectors():
    rng = random.Random(66_066)
    floored = 0
    for _ in range(10_000):
        vector = _random_check_vector(rng)
        state = aggregate_l2(vector)
        score = score_l1(vector, state).value
        assert 1.0 <= score <= 5.0
        if state in FLOOR_STATES:
            floored += 1
            assert score == 1.0, f"floor state {state} scored {score}"
        failing = [i for i, check in enumerate(vector.checks) if not check.passed]
        if not failing:
            continue
        flip = rng.choice(failing)
        repaired = AtomicCheckVector(
            dimension=vector.dimension,
            checks=tuple(
                CheckResult(
                    check_id=check.check_id,
                    passed=True if i == flip else check.passed,
                    family=check.family,
                    hard=check.hard,
                    weight=check.weight,
                )
                for i, check in enumerate(vector.checks)
            ),
        )
        new_score = score_l1(repaired, aggregate_l2(repaired)).value
        assert new_score >= score, (
            f"fixing one failed check dropped the score {score} -> {new_score}"
        )
    assert floored > 0, "random vectors never hit a floor state"
    announce(
        6,
        f"10,000 random vectors: scores in [1, 5], single-fix monotone, "
        f"{floored} floor states all scored exactly 1.0",
    )


# ---------------------------------------------------------------------------
# 7. The simulated closed loop shows the trade-off and then beats round 0.


@pytest.fixture(scope="module")
def simulated_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance-sim")
    config = simulate_config(
        root / "inputs",
        rounds=5,
        seed=2026,
        surface=SurfaceParams.from_json({}),
        budget=100_000,
    )
    started = time.perf_counter()
    run_dir = run(config, root / "out")
    return run_dir, time.perf_counter() - started


def test_criterion_7_simulated_loop_recovers_from_the_tradeoff(simulated_run):
    run_dir, elapsed = simulated_run
    penalty = SurfaceParams.from_json({}).to_json()["interference"]["BENIGN"]["SAFE"]
    assert penalty > 0, "default surface must penalize BENIGN as SAFE data grows"

    base = run_dir.load_base_metric()
    round0 = run_dir.load_round_metric(0)
    assert round0.safe > base.safe, f"round 0 SAFE {round0.safe} vs base {base.safe}"
    assert round0.benign < base.benign, f"round 0 BENIGN {round0.benign} vs base {base.benign}"

    assert any(dominates(metric, round0) for _, metric in run_dir.frontier()), (
        "no archived point dominates round 0"
    )

    floor = PolicyConfig().dataset_floor
    for index in run_dir.round_indices():
        action, _, _ = run_dir.load_round_action(index)
        assert abs(sum(action.dataset_mixture) - 1.0) <= 1e-9, f"round {index}"
        assert all(share >= floor - 1e-9 for share in action.dataset_mixture), f"round {index}"

    assert elapsed < 60.0, f"simulated loop took {elapsed:.1f}s"
    announce(
        7,
        f"round 0 trades BENIGN for SAFE, a later point dominates it, all 5 actions "
        f"respect the simplex and the {floor} floor ({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 8. Identical configs reproduce byte-identical runs.


def test_criterion_8_reruns_are_byte_identical(tmp_path):
    config = simulate_config(
        tmp_path / "inputs",
        rounds=3,
        seed=11,
        surface=SurfaceParams.from_json({}),
        budget=20_000,
    )
    first = run(config, tmp_path / "first")
    second = run(config, tmp_path / "second")
    left = tree_bytes(first.path)
    right = tree_bytes(second.path)
    assert left.keys() == right.keys()
    different = [name for name in left if left[name] != right[name]]
    assert not different, f"artifacts differ between identical runs: {different}"
    announce(
        8,
        f"two identical runs match byte for byte across {len(left)} artifacts "
        "(only run_meta.json carries a timestamp)",
    )


def test_artifact_bytes_match_the_committed_digests(tmp_path, capsys):
    """The demo run and ``mixsearch replay`` write, file by file, the
    bytes whose sha256 ``artifact_digests.json`` records.  ``config.json``
    (it names the checkout's input paths) and ``run_meta.json`` (timings)
    are left out.  A change that alters artifact bytes on purpose rewrites
    the table with the digests computed here."""
    demo, replay = tmp_path / "demo", tmp_path / "replay"
    assert main(["run", "--config", str(demo_config_path()), "--out", str(demo)]) == 0
    assert main(["replay", "--out", str(replay)]) == 0
    capsys.readouterr()
    actual = {
        kind: {
            name: hashlib.sha256(data).hexdigest()
            for name, data in tree_bytes(path, exclude=("config.json", "run_meta.json")).items()
        }
        for kind, path in (("demo", demo), ("replay", replay))
    }
    table = Path(__file__).with_name("artifact_digests.json")
    expected = json.loads(table.read_text(encoding="utf-8"))
    for kind in ("demo", "replay"):
        assert actual[kind].keys() == expected[kind].keys(), kind
        changed = [name for name in expected[kind] if actual[kind][name] != expected[kind][name]]
        assert not changed, f"{kind} artifacts differ from {table.name}: {changed}"


# ---------------------------------------------------------------------------
# 9. Failure profiles partition the records and reconstruct the metric.


def test_criterion_9_profiles_partition_and_reconstruct_metric(simulated_run):
    run_dir, _ = simulated_run
    evaluations = [
        (
            "base",
            _records(run_dir, "base"),
            run_dir.load_base_metric(),
            None,
        )
    ]
    for index in run_dir.round_indices():
        evaluations.append(
            (
                f"round {index}",
                _records(run_dir, round_dir_name(index)),
                run_dir.load_round_metric(index),
                run_dir.load_round_profiles(index),
            )
        )
    checked = 0
    for label, records, metric, profiles in evaluations:
        if profiles is None:
            profiles = build_failure_profiles(columns_of(records))
        valid = [record for record in records if record.valid]
        assert sum(p.sample_count for p in profiles) == len(valid), label
        counts = Counter(record.dimension for record in valid)
        for dimension in Dimension:
            members = [p for p in profiles if p.dimension is dimension]
            assert sum(p.sample_count for p in members) == counts[dimension], (
                f"{label}: {dimension.value} slice counts do not partition its records"
            )
            reconstructed = sum(p.mean_score * p.sample_count for p in members) / counts[
                dimension
            ]
            assert abs(reconstructed - metric.get(dimension)) <= 1e-9, (
                f"{label}: {dimension.value} slice means reconstruct "
                f"{reconstructed}, metric says {metric.get(dimension)}"
            )
            checked += 1
    announce(
        9,
        f"{checked} (evaluation, dimension) pairs: slices partition the valid records "
        "and count-weighted slice means match the metric within 1e-9",
    )


# ---------------------------------------------------------------------------
# Every record a run writes is scored by layer 1 from its own checks, as
# the independent record-line oracle works them out.


def _records(run_dir, point):
    return run_dir.read(
        f"{point}/records.jsonl",
        lambda rows: [SampleRecord.from_json(row) for row in rows],
        lines=True,
    )


def test_every_written_record_is_scored_from_its_own_checks(simulated_run, tmp_path):
    replayed = run(LoopConfig(rounds=5, backend_kind="replay"), tmp_path)
    counts = []
    for run_dir in (simulated_run[0], replayed):
        points = ["base"] + [round_dir_name(index) for index in run_dir.round_indices()]
        read = 0
        for point in points:
            path = run_dir.path / point / "records.jsonl"
            with open(path, encoding="utf-8") as handle:
                point_read, found = record_lines.mismatches(handle)
            assert point_read, path
            assert not found, f"{path}: {found[:5]}"
            read += point_read
        counts.append(read)
    print(
        f"three-layer invariant: PASS — {counts[0]} simulated and {counts[1]} replayed "
        "records all carry the state and score the record-line oracle gives their own checks"
    )
