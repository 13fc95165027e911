"""Rule-based proposer: regression repair, deficit moves, bucket
reweighting, and focus refresh."""
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixsearch.errors import ConfigError
from mixsearch.fixtures import default_fixture_path, load_replay_fixture
from mixsearch.profiles import FailureProfile, MetricVector
from mixsearch.proposer import PolicyConfig, RoundHistory, RoundRecord, propose_explained
from mixsearch.records import Dataset, Dimension
from mixsearch.sampler import DataAction

BUCKET_SLICES = {
    Dataset.XGUARD: {"hot": "tier=hot", "cold": "tier=cold"},
    Dataset.ORBENCH: {"edge": "tier=edge"},
    Dataset.IF: {"fmt": "tier=fmt"},
}


def metric(safe, benign, if_score):
    return MetricVector(safe=safe, benign=benign, if_score=if_score)


def profile(dimension, slice_label, fail_rate, weight_mass, breakdown=None, mean=2.0):
    return FailureProfile(
        dimension=dimension,
        slice_label=slice_label,
        mean_score=mean,
        fail_rate=fail_rate,
        breakdown=dict(breakdown or {}),
        sample_count=4,
        weight_mass=weight_mass,
    )


def action(mixture, focus=()):
    return DataAction(
        dataset_mixture=mixture,
        bucket_weights={
            Dataset.XGUARD: {"hot": 0.5, "cold": 0.5},
            Dataset.ORBENCH: {"edge": 1.0},
            Dataset.IF: {"fmt": 1.0},
        },
        focus_criteria=tuple(focus),
    )


def history(base, rounds):
    built = RoundHistory(base_metric=base, bucket_slices=BUCKET_SLICES)
    for index, (act, met, profiles) in enumerate(rounds):
        built.append(
            RoundRecord(round_index=index, action=act, metric=met, profiles=tuple(profiles))
        )
    return built


AT_TARGET = metric(4.6, 4.6, 4.6)


class TestHistory:
    def test_round_indices_must_be_contiguous(self):
        built = RoundHistory(base_metric=AT_TARGET)
        record = RoundRecord(1, action((0.5, 0.3, 0.2)), AT_TARGET, ())
        with pytest.raises(ValueError, match="contiguous"):
            built.append(record)

    def test_latest_requires_a_round(self):
        with pytest.raises(ValueError, match="no completed rounds"):
            RoundHistory().latest

    def test_empty_history_cannot_propose(self):
        with pytest.raises(ValueError, match="empty history"):
            propose_explained(RoundHistory(base_metric=AT_TARGET), PolicyConfig())


class TestPolicyConfig:
    def test_defaults_are_valid(self):
        config = PolicyConfig()
        assert config.max_ratio_step == 0.10
        assert config.dataset_floor == 0.10

    def test_target_bounds(self):
        with pytest.raises(ConfigError, match="target"):
            PolicyConfig(targets={dim: 5.5 for dim in Dimension})

    def test_missing_target_rejected(self):
        with pytest.raises(ConfigError, match="target"):
            PolicyConfig(targets={Dimension.SAFE: 4.5})

    def test_infeasible_floor(self):
        with pytest.raises(ConfigError, match="floor"):
            PolicyConfig(dataset_floor=0.4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_ratio_step": 0.0},
            {"focus_cap": 1.5},
            {"regression_guard": 0.0},
        ],
    )
    def test_other_bounds(self, kwargs):
        with pytest.raises(ConfigError):
            PolicyConfig(**kwargs)

    def test_an_empty_policy_is_the_default_one(self):
        assert PolicyConfig.from_json({}) == PolicyConfig()

    def test_from_json_partial_override(self):
        config = PolicyConfig.from_json({"max_ratio_step": 0.05})
        assert config.max_ratio_step == 0.05
        assert config.dataset_floor == 0.10  # untouched default

    @pytest.mark.parametrize(
        "obj, where",
        [
            ({"focus_cap": "0.3"}, "policy.focus_cap"),
            ({"targets": {"SAFE": True}}, "policy.targets.SAFE"),
            ({"targets": [4.5]}, "policy.targets"),
        ],
    )
    def test_from_json_rejects_wrong_json_types(self, obj, where):
        with pytest.raises(ConfigError, match=where):
            PolicyConfig.from_json(obj)

    def test_json_roundtrip(self):
        config = PolicyConfig(max_ratio_step=0.08, focus_cap=0.3)
        assert PolicyConfig.from_json(config.to_json()) == config


class TestMacroRules:
    def test_all_at_target_keeps_mixture(self):
        built = history(AT_TARGET, [(action((0.5, 0.3, 0.2)), AT_TARGET, [])])
        proposed, rationale = propose_explained(built, PolicyConfig())
        assert proposed.dataset_mixture == pytest.approx((0.5, 0.3, 0.2))
        assert proposed.focus_criteria == ()
        assert any("at or above target" in line for line in rationale)

    def test_deficit_move_steps_toward_worst_dimension(self):
        third = 1.0 / 3.0
        built = history(
            metric(3.4, 4.6, 4.6),
            [(action((third, third, third)), metric(3.5, 4.6, 4.6), [])],
        )
        proposed, rationale = propose_explained(built, PolicyConfig())
        assert proposed.share(Dataset.XGUARD) == pytest.approx(third + 0.10)
        assert proposed.share(Dataset.ORBENCH) == pytest.approx(third - 0.05)
        assert proposed.share(Dataset.IF) == pytest.approx(third - 0.05)
        assert any("deficit move: SAFE" in line for line in rationale)

    def test_deficit_tie_prefers_earlier_dimension(self):
        built = history(
            metric(3.4, 3.4, 4.6),
            [(action((0.4, 0.4, 0.2)), metric(3.5, 3.5, 4.6), [])],
        )
        _, rationale = propose_explained(built, PolicyConfig())
        assert any("deficit move: SAFE" in line for line in rationale)

    def test_donors_contribute_in_proportion_to_surplus(self):
        built = history(
            metric(4.6, 3.4, 4.6),
            [(action((0.5, 0.3, 0.2)), metric(4.6, 3.5, 4.6), [])],
        )
        proposed, _ = propose_explained(built, PolicyConfig())
        # Surpluses above the 0.10 floor: XGUARD 0.40, IF 0.10 -> 4:1 split.
        assert proposed.share(Dataset.XGUARD) == pytest.approx(0.42)
        assert proposed.share(Dataset.ORBENCH) == pytest.approx(0.40)
        assert proposed.share(Dataset.IF) == pytest.approx(0.18)

    def test_donors_at_floor_cannot_give(self):
        built = history(
            metric(3.4, 4.6, 4.6),
            [(action((0.8, 0.1, 0.1)), metric(3.5, 4.6, 4.6), [])],
        )
        proposed, rationale = propose_explained(built, PolicyConfig())
        assert proposed.dataset_mixture == pytest.approx((0.8, 0.1, 0.1))
        assert any("stepped 0.0000" in line for line in rationale)

    def test_first_round_regression_steps_toward_hurt_dimension(self):
        # BENIGN collapsed versus base; there is no earlier action to undo,
        # so the repair moves mass toward ORBENCH and skips the deficit move.
        base = metric(2.76, 4.6667, 3.43)
        built = history(
            base,
            [(action((0.5, 0.3, 0.2)), metric(3.2267, 3.6433, 3.53), [])],
        )
        proposed, rationale = propose_explained(built, PolicyConfig())
        assert proposed.share(Dataset.XGUARD) == pytest.approx(0.42)
        assert proposed.share(Dataset.ORBENCH) == pytest.approx(0.40)
        assert proposed.share(Dataset.IF) == pytest.approx(0.18)
        assert any("regression guard: BENIGN" in line for line in rationale)
        assert not any("deficit move" in line for line in rationale)

    def test_later_regression_restores_half_the_move(self):
        built = history(
            metric(4.0, 4.0, 4.0),
            [
                (action((0.5, 0.3, 0.2)), metric(4.0, 4.0, 4.0), []),
                (action((0.4, 0.4, 0.2)), metric(3.5, 4.2, 4.0), []),
            ],
        )
        proposed, rationale = propose_explained(built, PolicyConfig())
        assert proposed.share(Dataset.XGUARD) == pytest.approx(0.45)
        assert proposed.share(Dataset.ORBENCH) == pytest.approx(0.35)
        assert proposed.share(Dataset.IF) == pytest.approx(0.20)
        assert any("restored half" in line for line in rationale)

    def test_small_dip_does_not_trip_the_guard(self):
        built = history(
            metric(4.0, 4.6, 4.6),
            [(action((0.5, 0.3, 0.2)), metric(3.9, 4.6, 4.6), [])],
        )
        _, rationale = propose_explained(built, PolicyConfig())
        assert not any("regression guard" in line for line in rationale)
        assert any("deficit move: SAFE" in line for line in rationale)


class TestBucketReweighting:
    def test_weights_follow_fail_mass_with_smoothing(self):
        profiles = [
            profile(Dimension.SAFE, "tier=hot", 0.75, 4.0, {"c1": 3}),
            profile(Dimension.SAFE, "tier=cold", 0.25, 4.0, {"c1": 1}),
        ]
        built = history(AT_TARGET, [(action((0.5, 0.3, 0.2)), AT_TARGET, profiles)])
        proposed, _ = propose_explained(built, PolicyConfig())
        weights = proposed.bucket_weights[Dataset.XGUARD]
        # Fail masses 3.0 and 1.0; smoothing 0.01 * 4.0 = 0.04 per bucket.
        assert weights["hot"] == pytest.approx(3.04 / 4.08)
        assert weights["cold"] == pytest.approx(1.04 / 4.08)

    def test_clean_dataset_gets_uniform_weights(self):
        built = history(AT_TARGET, [(action((0.5, 0.3, 0.2)), AT_TARGET, [])])
        proposed, rationale = propose_explained(built, PolicyConfig())
        assert proposed.bucket_weights[Dataset.XGUARD] == {"hot": 0.5, "cold": 0.5}
        assert any("uniform" in line for line in rationale)

    def test_unmapped_bucket_keeps_smoothing_share(self):
        # Only "hot" maps to a failing slice; "cold" survives on smoothing.
        profiles = [profile(Dimension.SAFE, "tier=hot", 1.0, 2.0, {"c1": 2})]
        built = history(AT_TARGET, [(action((0.5, 0.3, 0.2)), AT_TARGET, profiles)])
        proposed, _ = propose_explained(built, PolicyConfig())
        weights = proposed.bucket_weights[Dataset.XGUARD]
        assert weights["cold"] > 0
        assert weights["hot"] > weights["cold"]
        assert math.fsum(weights.values()) == pytest.approx(1.0)


class TestFocusRefresh:
    def _failing(self):
        return [
            profile(Dimension.SAFE, "tier=hot", 0.75, 4.0, {"HARD_NO": 3, "c2": 1}),
            profile(Dimension.SAFE, "tier=cold", 0.25, 1.0, {"c2": 1}),
        ]

    def test_below_target_dimension_gets_one_criterion(self):
        built = history(
            metric(3.4, 4.6, 4.6),
            [(action((0.5, 0.3, 0.2)), metric(3.5, 4.6, 4.6), self._failing())],
        )
        proposed, _ = propose_explained(built, PolicyConfig())
        (criterion,) = proposed.focus_criteria
        assert criterion.label == "SAFE:tier=hot:HARD_NO"
        assert criterion.boost == 2.0
        assert criterion.cap_fraction == PolicyConfig().focus_cap
        assert criterion.pairs == (("tier", "hot"),)

    def test_multi_field_slice_becomes_conjunction(self):
        profiles = [
            profile(Dimension.BENIGN, "category=security|proximity=EDGE", 1.0, 3.0, {"c1": 3})
        ]
        built = history(
            metric(4.6, 3.4, 4.6),
            [(action((0.5, 0.3, 0.2)), metric(4.6, 3.5, 4.6), profiles)],
        )
        proposed, _ = propose_explained(built, PolicyConfig())
        (criterion,) = proposed.focus_criteria
        assert criterion.pairs == (("category", "security"), ("proximity", "EDGE"))

    def test_at_target_dimension_gets_no_criterion(self):
        built = history(
            AT_TARGET,
            [(action((0.5, 0.3, 0.2)), AT_TARGET, self._failing())],
        )
        proposed, _ = propose_explained(built, PolicyConfig())
        assert proposed.focus_criteria == ()

    def test_criterion_not_repeated_after_its_dimension_regressed(self):
        stale = history(
            AT_TARGET,
            [
                (action((0.5, 0.3, 0.2)), metric(4.4, 4.6, 4.6), self._failing()),
                (
                    action(
                        (0.5, 0.3, 0.2),
                        focus=propose_explained(
                            history(
                                AT_TARGET,
                                [
                                    (
                                        action((0.5, 0.3, 0.2)),
                                        metric(4.4, 4.6, 4.6),
                                        self._failing(),
                                    )
                                ],
                            ),
                            PolicyConfig(),
                        )[0].focus_criteria,
                    ),
                    metric(3.5, 4.6, 4.6),
                    self._failing(),
                ),
            ],
        )
        proposed, rationale = propose_explained(stale, PolicyConfig())
        assert proposed.focus_criteria == ()
        assert any("dropping focus" in line for line in rationale)

    def test_fresh_label_survives_a_regression(self):
        # SAFE regressed but the criterion aims at a slice that was not
        # focused before, so it still ships.
        built = history(
            AT_TARGET,
            [
                (action((0.5, 0.3, 0.2)), metric(4.4, 4.6, 4.6), []),
                (action((0.5, 0.3, 0.2)), metric(3.5, 4.6, 4.6), self._failing()),
            ],
        )
        proposed, _ = propose_explained(built, PolicyConfig())
        assert len(proposed.focus_criteria) == 1


class TestDeterminismAndInvariants:
    def _example(self):
        return history(
            metric(2.76, 4.6667, 3.43),
            [
                (
                    action((0.5, 0.3, 0.2)),
                    metric(3.2267, 3.6433, 3.53),
                    [profile(Dimension.SAFE, "tier=hot", 0.5, 2.0, {"c1": 1})],
                )
            ],
        )

    def test_identical_histories_identical_actions(self):
        first = propose_explained(self._example(), PolicyConfig())[0]
        second = propose_explained(self._example(), PolicyConfig())[0]
        assert first == second

    def test_rationale_narrates_every_stage(self):
        _, rationale = propose_explained(self._example(), PolicyConfig())
        assert rationale[0].startswith("after round 0")
        assert len(rationale) >= 2

    shares = st.lists(
        st.integers(1, 8), min_size=3, max_size=3
    ).map(lambda raw: tuple(0.1 + 0.7 * (x / sum(raw)) / 1.0 for x in raw))
    means = st.floats(1.0, 5.0, allow_nan=False).map(lambda value: round(value, 4))

    @given(
        first=shares,
        second=shares,
        m1=st.tuples(means, means, means),
        m2=st.tuples(means, means, means),
        base=st.tuples(means, means, means),
    )
    def test_proposals_stay_on_the_floored_simplex(self, first, second, m1, m2, base):
        def normalize(mixture):
            total = math.fsum(mixture)
            return tuple(share / total for share in mixture)

        floor = PolicyConfig().dataset_floor
        first, second = normalize(first), normalize(second)
        built = history(
            metric(*base),
            [
                (action(first), metric(*m1), []),
                (action(second), metric(*m2), []),
            ],
        )
        proposed = propose_explained(built, PolicyConfig())[0]
        assert math.fsum(proposed.dataset_mixture) == pytest.approx(1.0)
        for share in proposed.dataset_mixture:
            assert share >= floor - 1e-9


def test_distance_to_the_paper_next_mixture():
    """Fed the replay fixture's points one round at a time (no profiles,
    since the fixture records none), the proposer's mixture after round i
    is this far in L1 from the mixture the paper chose for round i + 1."""
    fixture = load_replay_fixture(default_fixture_path())
    built = RoundHistory(base_metric=fixture.base)
    distances = []
    for index, point in enumerate(fixture.rounds[:-1]):
        built.append(RoundRecord(index, point.action, point.metrics, ()))
        proposed = propose_explained(built, PolicyConfig())[0].dataset_mixture
        chosen = fixture.rounds[index + 1].action.dataset_mixture
        distances.append(round(math.fsum(abs(a - b) for a, b in zip(proposed, chosen)), 2))
    print("L1 to the paper's next mixture, after rounds 0-3:", distances)
    assert distances == [0.04, 0.30, 0.20, 0.00]
