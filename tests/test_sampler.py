"""Data actions, effective distributions, and token-budgeted drawing."""
import dataclasses
import json
import math
import random
import tempfile
from array import array
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from mixsearch.errors import ConfigError
from mixsearch.oracles.draw_enum import draw as oracle_draw
from mixsearch.records import Dataset, read_json
from mixsearch.sampler import (
    DataAction,
    FocusCriterion,
    draw_budgeted,
    effective_distribution,
    uniform_bucket_weights,
    DrawnWindows,
    SampleManifest,
    slice_pairs,
    write_manifest,
)

from conftest import drawn_rows, make_pool


@pytest.fixture
def flat_pool(tmp_path):
    """One bucket per dataset, forty 10-token windows each."""
    layout = {ds.value: {"b": [10] * 40} for ds in Dataset}
    return make_pool(tmp_path, layout, window_length=10)


def flat_action(mixture=(0.35, 0.45, 0.20), focus=()):
    return DataAction(
        dataset_mixture=mixture,
        bucket_weights={ds: {"b": 1.0} for ds in Dataset},
        focus_criteria=tuple(focus),
    )


def tier_focus(tier, boost=2.0, cap_fraction=0.25, label=""):
    return FocusCriterion(
        pairs=(("tier", tier),),
        boost=boost,
        cap_fraction=cap_fraction,
        label=label,
    )


# ---------------------------------------------------------------------------
# FocusCriterion / DataAction validation


class TestFocusCriterion:
    def test_eq_matches_string(self):
        assert tier_focus("hot").matches({"tier": "hot"})
        assert not tier_focus("hot").matches({"tier": "cold"})

    def test_missing_tag_never_matches(self):
        assert not tier_focus("hot").matches({})
        assert not tier_focus("hot").matches({"grade": "hot"})

    def test_requires_tests(self):
        with pytest.raises(ValueError, match="pair"):
            FocusCriterion(pairs=(), boost=2.0, cap_fraction=0.25)

    def test_boost_below_one_rejected(self):
        with pytest.raises(ValueError, match="boost"):
            tier_focus("a", boost=0.5)

    @pytest.mark.parametrize("cap", [0.0, -0.1, 1.5])
    def test_cap_fraction_bounds(self, cap):
        with pytest.raises(ValueError, match="cap_fraction"):
            tier_focus("a", cap_fraction=cap)

    def test_conjunction_over_tests(self):
        criterion = FocusCriterion(
            pairs=(("grade", "x"), ("tier", "a")), boost=2.0, cap_fraction=0.5
        )
        assert criterion.matches({"tier": "a", "grade": "x", "topic": "y"})
        assert not criterion.matches({"tier": "a", "grade": "y"})
        assert not criterion.matches({"tier": "b", "grade": "x"})
        assert not criterion.matches({"tier": "a"})

    def test_json_roundtrip(self):
        criterion = tier_focus("a", label="SAFE:tier=a:c1")
        assert FocusCriterion.from_json(criterion.to_json()) == criterion

    def test_to_json_writes_eq_rows(self):
        """The ``action.json`` rows of a focus criterion, as earlier
        versions wrote them, so run directories on disk still resume."""
        criterion = FocusCriterion(
            pairs=slice_pairs("proximity=EDGE|category=medical"),
            boost=2.0,
            cap_fraction=0.25,
            label="BENIGN:category=medical|proximity=EDGE:c1",
        )
        rows = {
            "tests": [
                {"tag": "category", "op": "eq", "value": "medical"},
                {"tag": "proximity", "op": "eq", "value": "EDGE"},
            ],
            "boost": 2.0,
            "cap_fraction": 0.25,
            "label": "BENIGN:category=medical|proximity=EDGE:c1",
        }
        assert criterion.to_json() == rows
        assert FocusCriterion.from_json(rows) == criterion

    def test_from_json_takes_only_eq_on_strings(self):
        for test in (
            {"tag": "difficulty", "op": "ge", "value": "2"},
            {"tag": "difficulty", "op": "eq", "value": 2},
            {"tag": 5, "op": "eq", "value": "2"},
        ):
            with pytest.raises(ValueError, match="focus test"):
                FocusCriterion.from_json({"tests": [test], "boost": 2.0, "cap_fraction": 0.5})


class TestDataAction:
    def test_simplex_enforced(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            DataAction(dataset_mixture=(0.5, 0.3, 0.1))

    def test_negative_share_rejected(self):
        with pytest.raises(ConfigError):
            DataAction(dataset_mixture=(1.1, -0.1, 0.0))

    def test_wrong_arity_rejected(self):
        with pytest.raises(ConfigError, match="entries"):
            DataAction(dataset_mixture=(0.5, 0.5))

    def test_bucket_weights_must_be_simplex_too(self):
        with pytest.raises(ConfigError, match="bucket weights"):
            DataAction(
                dataset_mixture=(1.0, 0.0, 0.0),
                bucket_weights={Dataset.XGUARD: {"a": 0.9, "b": 0.2}},
            )

    def test_share_lookup_follows_mixture_order(self):
        action = DataAction(dataset_mixture=(0.5, 0.3, 0.2))
        assert action.share(Dataset.XGUARD) == 0.5
        assert action.share(Dataset.ORBENCH) == 0.3
        assert action.share(Dataset.IF) == 0.2

    def test_unknown_bucket_flagged_against_pool(self, flat_pool):
        action = DataAction(
            dataset_mixture=(1.0, 0.0, 0.0),
            bucket_weights={Dataset.XGUARD: {"zz": 1.0}},
        )
        with pytest.raises(ConfigError, match="zz"):
            action.validate_against(flat_pool)

    def test_json_roundtrip(self, flat_pool):
        action = flat_action(focus=[tier_focus("b", label="SAFE:tier=b:mode")])
        assert DataAction.from_json(action.to_json()) == action


# ---------------------------------------------------------------------------
# Effective distribution


class TestEffectiveDistribution:
    def test_mixture_times_uniform_weights(self, flat_pool):
        distribution = effective_distribution(flat_action(), flat_pool)
        assert distribution == {
            (Dataset.XGUARD, "b"): pytest.approx(0.35),
            (Dataset.ORBENCH, "b"): pytest.approx(0.45),
            (Dataset.IF, "b"): pytest.approx(0.20),
        }

    def test_boost_three_renormalizes_to_three_quarters(self, tmp_path):
        pool = make_pool(
            tmp_path, {"XGUARD": {"a": [10] * 4, "b": [10] * 4}}, window_length=10
        )
        action = DataAction(
            dataset_mixture=(1.0, 0.0, 0.0),
            bucket_weights={Dataset.XGUARD: {"a": 0.5, "b": 0.5}},
            focus_criteria=(tier_focus("a", boost=3.0),),
        )
        distribution = effective_distribution(action, pool)
        assert distribution[(Dataset.XGUARD, "a")] == pytest.approx(0.75)
        assert distribution[(Dataset.XGUARD, "b")] == pytest.approx(0.25)

    def test_zero_share_dataset_excluded(self, tmp_path):
        pool = make_pool(
            tmp_path,
            {"XGUARD": {"a": [10]}, "ORBENCH": {"a": [10]}, "IF": {"a": [10]}},
            window_length=10,
        )
        action = DataAction(
            dataset_mixture=(1.0, 0.0, 0.0),
            bucket_weights={Dataset.XGUARD: {"a": 1.0}},
        )
        distribution = effective_distribution(action, pool)
        assert set(distribution) == {(Dataset.XGUARD, "a")}

    def test_share_on_missing_dataset_rejected(self, tmp_path):
        pool = make_pool(tmp_path, {"XGUARD": {"a": [10]}}, window_length=10)
        action = DataAction(
            dataset_mixture=(0.5, 0.5, 0.0),
            bucket_weights={Dataset.XGUARD: {"a": 1.0}, Dataset.ORBENCH: {"a": 1.0}},
        )
        with pytest.raises(ConfigError, match="pool lacks"):
            effective_distribution(action, pool)

    def test_share_without_bucket_weights_rejected(self, flat_pool):
        action = DataAction(
            dataset_mixture=(0.5, 0.5, 0.0),
            bucket_weights={Dataset.XGUARD: {"b": 1.0}},
        )
        with pytest.raises(ConfigError, match="no bucket weights"):
            effective_distribution(action, flat_pool)

    def test_share_with_only_empty_buckets_is_infeasible(self, tmp_path):
        pool = make_pool(
            tmp_path,
            {"XGUARD": {"a": [10], "empty": []}},
            window_length=10,
        )
        action = DataAction(
            dataset_mixture=(1.0, 0.0, 0.0),
            bucket_weights={Dataset.XGUARD: {"empty": 1.0, "a": 0.0}},
        )
        with pytest.raises(ConfigError, match="infeasible"):
            effective_distribution(action, pool)

    def test_uniform_bucket_weights_cover_pool(self, tmp_path):
        pool = make_pool(
            tmp_path,
            {"XGUARD": {"a": [10], "b": [10], "c": [10], "d": [10]}},
            window_length=10,
        )
        weights = uniform_bucket_weights(pool)
        assert weights[Dataset.XGUARD] == {
            bucket: pytest.approx(0.25) for bucket in ("a", "b", "c", "d")
        }

    @given(
        shares=st.lists(st.integers(0, 10), min_size=3, max_size=3).filter(
            lambda raw: sum(raw) > 0
        ),
        boost=st.floats(1.0, 8.0, allow_nan=False),
    )
    def test_result_is_simplex(self, tmp_path_factory, shares, boost):
        tmp_path = tmp_path_factory.mktemp("dist")
        layout = {ds.value: {"b": [10] * 3, "c": [10] * 3} for ds in Dataset}
        pool = make_pool(tmp_path, layout, window_length=10)
        total = sum(shares)
        mixture = tuple(share / total for share in shares)
        action = DataAction(
            dataset_mixture=mixture,
            bucket_weights={ds: {"b": 0.5, "c": 0.5} for ds in Dataset},
            focus_criteria=(tier_focus("b", boost=boost, cap_fraction=1.0),),
        )
        distribution = effective_distribution(action, pool)
        assert all(probability > 0 for probability in distribution.values())
        assert math.fsum(distribution.values()) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Budgeted drawing


class TestDrawBudgeted:
    def test_stops_before_overflowing(self, flat_pool):
        distribution = effective_distribution(flat_action(), flat_pool)
        manifest = draw_budgeted(distribution, flat_pool, budget_tokens=25, seed=1)
        assert manifest.total_tokens == 20
        assert len(manifest.entries) == 2
        assert manifest.rejections[-1][1] == "budget"
        assert manifest.stop_reason == "budget"

    def test_exact_fit_consumes_whole_budget(self, flat_pool):
        distribution = effective_distribution(flat_action(), flat_pool)
        manifest = draw_budgeted(distribution, flat_pool, budget_tokens=40, seed=1)
        assert manifest.total_tokens == 40
        assert len(manifest.entries) == 4

    def test_deterministic_in_seed(self, flat_pool):
        distribution = effective_distribution(flat_action(), flat_pool)
        first = draw_budgeted(distribution, flat_pool, budget_tokens=200, seed=9)
        second = draw_budgeted(distribution, flat_pool, budget_tokens=200, seed=9)
        assert drawn_rows(first.entries) == drawn_rows(second.entries)
        assert dataclasses.replace(first, entries=()) == dataclasses.replace(second, entries=())

    def test_different_seeds_diverge(self, flat_pool):
        distribution = effective_distribution(flat_action(), flat_pool)
        ids = {
            seed: [
                row["window_id"]
                for row in drawn_rows(draw_budgeted(distribution, flat_pool, 200, seed).entries)
            ]
            for seed in (0, 1)
        }
        assert ids[0] != ids[1]

    def test_budget_smaller_than_every_window_rejected(self, flat_pool):
        distribution = effective_distribution(flat_action(), flat_pool)
        with pytest.raises(ConfigError, match="smaller than every window"):
            draw_budgeted(distribution, flat_pool, budget_tokens=9, seed=0)

    def test_nonpositive_budget_rejected(self, flat_pool):
        distribution = effective_distribution(flat_action(), flat_pool)
        with pytest.raises(ConfigError, match="budget_tokens"):
            draw_budgeted(distribution, flat_pool, budget_tokens=0, seed=0)

    def test_empty_distribution_rejected(self, flat_pool):
        with pytest.raises(ConfigError, match="non-empty"):
            draw_budgeted({}, flat_pool, budget_tokens=100, seed=0)

    def test_focus_cap_limits_matching_tokens(self, tmp_path):
        pool = make_pool(
            tmp_path, {"XGUARD": {"hot": [10] * 8, "cold": [10] * 8}}, window_length=10
        )
        focus = tier_focus("hot", boost=4.0, cap_fraction=0.3)
        action = DataAction(
            dataset_mixture=(1.0, 0.0, 0.0),
            bucket_weights={Dataset.XGUARD: {"hot": 0.5, "cold": 0.5}},
            focus_criteria=(focus,),
        )
        distribution = effective_distribution(action, pool)
        manifest = draw_budgeted(distribution, pool, budget_tokens=100, seed=3, focus=[focus])
        hot_tokens = sum(
            row["token_count"] for row in drawn_rows(manifest.entries) if row["bucket"] == "hot"
        )
        assert hot_tokens <= 30  # cap_fraction * budget
        assert manifest.total_tokens <= 100

    def test_cap_exhaustion_stops_the_draw(self, tmp_path):
        pool = make_pool(tmp_path, {"XGUARD": {"hot": [10] * 8}}, window_length=10)
        focus = tier_focus("hot", boost=2.0, cap_fraction=0.3)
        action = DataAction(
            dataset_mixture=(1.0, 0.0, 0.0),
            bucket_weights={Dataset.XGUARD: {"hot": 1.0}},
            focus_criteria=(focus,),
        )
        distribution = effective_distribution(action, pool)
        manifest = draw_budgeted(distribution, pool, budget_tokens=100, seed=3, focus=[focus])
        assert manifest.stop_reason == "cap_exhausted"
        assert manifest.total_tokens == 30
        assert manifest.rejections[-1][1] == "cap"

    def test_bucket_frequencies_match_distribution(self, flat_pool):
        distribution = effective_distribution(flat_action(), flat_pool)
        manifest = draw_budgeted(distribution, flat_pool, budget_tokens=50_000, seed=11)
        counts = {}
        for row in drawn_rows(manifest.entries):
            counts[row["dataset"]] = counts.get(row["dataset"], 0) + 1
        observed = [counts[ds.value] for ds in (Dataset.XGUARD, Dataset.ORBENCH, Dataset.IF)]
        total = sum(observed)
        expected = [0.35 * total, 0.45 * total, 0.20 * total]
        result = stats.chisquare(observed, expected)
        assert result.pvalue > 0.001

    def test_token_shares_near_mixture(self, flat_pool):
        distribution = effective_distribution(flat_action(), flat_pool)
        manifest = draw_budgeted(distribution, flat_pool, budget_tokens=100_000, seed=5)
        shares = manifest.dataset_token_shares()
        l1 = (
            abs(shares[Dataset.XGUARD] - 0.35)
            + abs(shares[Dataset.ORBENCH] - 0.45)
            + abs(shares[Dataset.IF] - 0.20)
        )
        assert l1 <= 0.02

    def test_mixed_window_sizes_never_overshoot(self, tmp_path):
        layout = {"XGUARD": {"a": [7, 13, 31, 97, 251]}}
        pool = make_pool(tmp_path, layout, window_length=251)
        action = DataAction(
            dataset_mixture=(1.0, 0.0, 0.0), bucket_weights={Dataset.XGUARD: {"a": 1.0}}
        )
        distribution = effective_distribution(action, pool)
        for seed in range(25):
            manifest = draw_budgeted(distribution, pool, budget_tokens=500, seed=seed)
            assert manifest.total_tokens <= 500


def random_tags(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return None  # the bucket's slice tags only
    if kind == 1:
        return {"difficulty": rng.choice(["1", "2", "3", "hard"])}
    if kind == 2:
        return {"difficulty": rng.choice(["1", "3"]), "topic": rng.choice("xy")}
    tags = {"doc": str(rng.randrange(10**6))}  # distinct per record
    if rng.random() < 0.5:
        tags["tier"] = rng.choice("ab")  # overrides the bucket's tier
    return tags


def random_pair(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return ("tier", rng.choice("ab"))
    if kind == 1:
        return ("topic", rng.choice("xy"))
    return ("difficulty", rng.choice(["1", "2", "3", "hard"]))


def random_draw_case(rng, root):
    """A random pool, distribution, budget and criteria under ``root``."""
    window_length = rng.randint(4, 60)
    # A whole number of full windows, so exact fits are common.
    budget = window_length * rng.randint(2, 15)
    layout = {}
    for dataset in rng.sample([ds.value for ds in Dataset], rng.randint(1, 3)):
        layout[dataset] = {}
        for bucket_id in rng.sample("abc", rng.randint(1, 2)):
            documents = []
            for _ in range(rng.randint(1, 12)):
                count = rng.randint(1, 2 * window_length)
                tags = random_tags(rng)
                documents.append(count if tags is None else (count, tags))
            layout[dataset][bucket_id] = documents
    pool = make_pool(root, layout, window_length=window_length)
    distribution = {
        (Dataset(dataset), bucket_id): rng.choice([0.0, rng.random()])
        for dataset, buckets in layout.items()
        for bucket_id in buckets
    }
    if not any(distribution.values()):
        distribution[next(iter(distribution))] = 1.0
    focus_pairs = [[random_pair(rng)] for _ in range(rng.randint(0, 3))]
    for pairs in focus_pairs[1:]:
        if rng.random() < 0.5:
            pairs.append(random_pair(rng))  # a conjunction
    if focus_pairs and rng.random() < 0.6:
        # Focus one tier and draw only from buckets of that tier, so the
        # caps can cover the whole support.
        focused = rng.choice(sorted({key[1] for key in distribution}))
        focus_pairs[0] = [("tier", focused)]
        for key in distribution:
            distribution[key] = rng.random() + 0.01 if key[1] == focused else 0.0
    focus = [
        FocusCriterion(
            pairs=tuple(pairs),
            boost=2.0,
            cap_fraction=rng.choice([rng.uniform(0.05, 1.0), rng.randint(1, 20) / 20]),
        )
        for pairs in focus_pairs
    ]
    return pool, distribution, budget, focus


def as_plain_data(pool, distribution, budget, seed, focus):
    return {
        "budget_tokens": budget,
        "seed": seed,
        "buckets": [
            {
                "dataset": dataset.value,
                "bucket": bucket_id,
                "probability": probability,
                "windows": [
                    {"window_id": window_id, "token_count": length, "tags": dict(tags)}
                    for window_id, length, tags in zip(*pool.windows(dataset, bucket_id))
                ],
            }
            for (dataset, bucket_id), probability in distribution.items()
        ],
        "focus": [criterion.to_json() for criterion in focus],
    }


class TestDrawOracle:
    def test_matches_rescanning_oracle_on_random_pools(self, tmp_path):
        rng = random.Random(20261017)
        outcomes = {"budget": 0, "cap_exhausted": 0}
        for trial in range(300):
            root = tmp_path / str(trial)
            root.mkdir()
            pool, distribution, budget, focus = random_draw_case(rng, root)
            seed = rng.randrange(2**31)
            expected = oracle_draw(as_plain_data(pool, distribution, budget, seed, focus))
            manifest = draw_budgeted(distribution, pool, budget, seed, focus=focus)
            entries = [
                [row["dataset"], row["bucket"], row["window_id"], row["token_count"]]
                for row in drawn_rows(manifest.entries)
            ]
            assert entries == expected["entries"], f"trial {trial}"
            assert [list(r) for r in manifest.rejections] == expected["rejections"]
            assert manifest.stop_reason == expected["stop_reason"]
            assert manifest.total_tokens == expected["total_tokens"]
            outcomes[manifest.stop_reason] += 1
        assert outcomes["cap_exhausted"] >= 30, outcomes
        assert outcomes["budget"] >= 30, outcomes

    def test_cap_rejections_cost_per_tag_mapping_not_per_window(self, tmp_path, monkeypatch):
        """The slow shape: the capped bucket sorts first on the support,
        holds only full windows, and its cap binds after two windows, so
        most of the draw is cap rejections."""
        original = FocusCriterion.matches
        calls = []

        def counting(self, tags):
            calls.append(1)
            return original(self, tags)

        monkeypatch.setattr(FocusCriterion, "matches", counting)
        counts = {}
        for size in (40, 400):
            root = tmp_path / str(size)
            root.mkdir()
            pool = make_pool(
                root,
                {"IF": {"a": [16] * size, "b": [16] * size}, "XGUARD": {"c": [16] * size}},
                window_length=16,
            )
            focus = (tier_focus("a", boost=4.0, cap_fraction=0.02), tier_focus("c"))
            action = DataAction(
                dataset_mixture=(0.5, 0.0, 0.5),
                bucket_weights={
                    Dataset.IF: {"a": 0.5, "b": 0.5},
                    Dataset.XGUARD: {"c": 1.0},
                },
                focus_criteria=focus,
            )
            calls.clear()
            distribution = effective_distribution(action, pool)
            manifest = draw_budgeted(distribution, pool, 2000, seed=1, focus=focus)
            cap_rejections = sum(1 for _, why in manifest.rejections if why == "cap")
            assert cap_rejections >= 20
            mappings = sum(len(pool.tag_groups(*key)) for key in distribution)
            draws = len(manifest.entries) + len(manifest.rejections)
            # The boost test and the draw each run every criterion once
            # per mapping; nothing may scale with the windows in a bucket.
            assert len(calls) <= 2 * mappings * len(focus) + draws
            counts[size] = len(calls)
        assert counts[40] == counts[400]


class TestManifest:
    def test_summary_shape(self, flat_pool):
        distribution = effective_distribution(flat_action(), flat_pool)
        manifest = draw_budgeted(distribution, flat_pool, budget_tokens=100, seed=2)
        summary = manifest.summary()
        assert summary["budget_tokens"] == 100
        assert summary["total_tokens"] == manifest.total_tokens
        assert summary["window_count"] == len(manifest.entries)
        assert summary["seed"] == 2
        assert summary["stop_reason"] == "budget"
        assert set(summary["distribution"]) == {"XGUARD/b", "ORBENCH/b", "IF/b"}

    def test_summary_counts_rejections_and_lists_the_first_ten(self):
        rejections = tuple((f"w{i}", "budget" if i == 24 else "cap") for i in range(25))
        manifest = SampleManifest(
            entries=(),
            total_tokens=0,
            budget_tokens=100,
            seed=0,
            distribution={},
            rejections=rejections,
        )
        summary = manifest.summary()
        assert summary["rejection_counts"] == {"budget": 1, "cap": 24}
        assert summary["first_rejections"] == [
            {"window_id": f"w{i}", "reason": "cap"} for i in range(10)
        ]
        assert "rejections" not in summary

    def test_total_above_budget_rejected(self):
        entry = ((Dataset.XGUARD, "b"), (["w"], array("I", [50]), [{}]))
        drawn = DrawnWindows([entry], array("I", [0]), array("I", [0]), {Dataset.XGUARD: 50})
        with pytest.raises(ValueError, match="exceeds budget"):
            SampleManifest(
                entries=drawn, total_tokens=50, budget_tokens=40, seed=0, distribution={}
            )

    def test_file_roundtrip(self, tmp_path, flat_pool):
        distribution = effective_distribution(flat_action(), flat_pool)
        manifest = draw_budgeted(distribution, flat_pool, budget_tokens=100, seed=2)
        path = tmp_path / "manifest.jsonl"
        write_manifest(path, manifest)
        rows = read_json(path, lines=True, what="manifest")
        assert rows == drawn_rows(manifest.entries)


# Ids with the characters JSON escapes or passes through unescaped; no
# lone surrogates, which a UTF-8 file cannot hold.
_ids = st.text(
    st.one_of(
        st.sampled_from('"\\/\n\t\x00\x1f\x7f\u2028é漢🙂'),
        st.characters(exclude_categories=("Cs",)),
    ),
    max_size=8,
)


@st.composite
def _drawn_windows(draw):
    """Hand-built draw columns: a few buckets, each with a few windows, and
    a draw order over them."""
    support = []
    for _ in range(draw(st.integers(1, 4))):
        key = (draw(st.sampled_from(list(Dataset))), draw(_ids))
        lengths = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
        ids = [draw(_ids) for _ in lengths]
        support.append((key, (ids, array("I", lengths), [{} for _ in lengths])))
    picks = draw(st.lists(
        st.integers(0, len(support) - 1).flatmap(
            lambda position: st.tuples(
                st.just(position), st.integers(0, len(support[position][1][0]) - 1)
            )
        ),
        max_size=12,
    ))
    totals = dict.fromkeys(Dataset, 0)
    for position, index in picks:
        totals[support[position][0][0]] += support[position][1][1][index]
    return DrawnWindows(
        support,
        array("I", [position for position, _ in picks]),
        array("I", [index for _, index in picks]),
        totals,
    )


class TestManifestLines:
    @given(_drawn_windows())
    def test_each_line_is_json_dumps_of_its_row(self, drawn):
        total = sum(drawn.dataset_tokens.values())
        manifest = SampleManifest(
            entries=drawn, total_tokens=total, budget_tokens=total, seed=0, distribution={}
        )
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "manifest.jsonl"
            write_manifest(path, manifest)
            lines = path.read_bytes().decode("utf-8").split("\n")
        rows = [
            {
                "window_id": ids[index],
                "dataset": dataset.value,
                "bucket": bucket_id,
                "token_count": lengths[index],
            }
            for position, index in zip(drawn.positions, drawn.indices)
            for (dataset, bucket_id), (ids, lengths, _) in [drawn.support[position]]
        ]
        assert [line + "\n" for line in lines[:-1]] == [
            json.dumps(row, ensure_ascii=False) + "\n" for row in rows
        ]
        assert lines[-1] == ""
        assert drawn_rows(drawn) == rows


def test_token_shares_equal_the_written_manifest(tmp_path):
    """On criterion 4's mixed pool, the shares a draw reports are the ones
    its manifest.jsonl sums to."""
    layout = {
        "XGUARD": {"a": [7, 10, 23, 40], "b": [12, 30, 55]},
        "ORBENCH": {"a": [9, 18, 33], "b": [11, 26, 61]},
        "IF": {"a": [8, 15, 29], "b": [13, 21, 47]},
    }
    pool = make_pool(tmp_path, layout, window_length=64)
    hot = tier_focus("a", boost=2.0, cap_fraction=0.3, label="tier=a")
    rng = random.Random(20261019)
    for trial in range(40):
        raw = [rng.uniform(0.15, 1.0) for _ in Dataset]
        action = DataAction(
            dataset_mixture=tuple(value / sum(raw) for value in raw),
            bucket_weights=uniform_bucket_weights(pool),
            focus_criteria=(hot,) if trial % 2 else (),
        )
        manifest = draw_budgeted(
            effective_distribution(action, pool), pool, rng.randint(70, 900), seed=trial,
            focus=action.focus_criteria,
        )
        path = tmp_path / f"manifest-{trial}.jsonl"
        write_manifest(path, manifest)
        tokens = dict.fromkeys(Dataset, 0)
        for row in read_json(path, lines=True, what="manifest"):
            tokens[Dataset(row["dataset"])] += row["token_count"]
        assert sum(tokens.values()) == manifest.total_tokens
        assert manifest.dataset_token_shares() == {
            dataset: count / manifest.total_tokens for dataset, count in tokens.items()
        }
