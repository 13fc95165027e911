"""Rule-based action proposer.

Given the observed history, the proposer runs a fixed decision
procedure, so identical histories always yield identical actions:

1. Regression repair.  If the latest round dropped any dimension by
   more than ``regression_guard`` versus the round before it (or versus
   the base point for the first round), corrective macro action comes
   first: when the regressing round itself moved mixture mass, restore
   half of that move; when it moved nothing (or there is no earlier
   action to diff against), step toward the worst-regressed dimension's
   dataset instead.  The deficit move is skipped that round.
2. Deficit move.  Otherwise, move up to ``max_ratio_step`` of mixture
   mass toward the dataset of the largest positive deficit
   (target minus latest mean), taken from the other datasets in
   proportion to their share above the floor.
3. Bucket reweighting.  Within each dataset, bucket weights follow the
   latest failure profiles: weight proportional to slice fail mass plus
   a smoothing constant of 0.01 times the dataset's total fail mass, so
   clean buckets keep nonzero coverage.
4. Focus refresh.  Each below-target dimension with failing slices gets
   one focus criterion aimed at the worst slice's top breakdown mode
   (boost 2, capped), except that a criterion never repeats immediately
   after its own dimension regressed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError
from .profiles import FailureProfile, MetricVector, rank_slices
from .records import (
    DATASET_FOR_DIMENSION,
    DIMENSION_FOR_DATASET,
    DIMENSION_ORDER,
    Dataset,
    Dimension,
    MIXTURE_ORDER,
    config_fields,
)
from .sampler import DataAction, FocusCriterion

DEFAULT_TARGET = 4.5
FOCUS_BOOST = 2.0
SMOOTHING_RATE = 0.01
DEFICIT_EPSILON = 1e-9
# The policy's numeric keys, each a JSON number and a ``PolicyConfig`` field.
_POLICY_NUMBERS = ("max_ratio_step", "dataset_floor", "focus_cap", "regression_guard")


@dataclass(frozen=True)
class PolicyConfig:
    targets: dict[Dimension, float] = field(
        default_factory=lambda: {dim: DEFAULT_TARGET for dim in DIMENSION_ORDER}
    )
    max_ratio_step: float = 0.10
    dataset_floor: float = 0.10
    focus_cap: float = 0.25
    regression_guard: float = 0.15

    def __post_init__(self) -> None:
        for dimension in DIMENSION_ORDER:
            target = self.targets.get(dimension)
            if target is None or not 1.0 <= target <= 5.0:
                raise ConfigError(f"target for {dimension.value} must be in [1, 5], got {target}")
        if not 0.0 < self.max_ratio_step <= 1.0:
            raise ConfigError(f"max_ratio_step must be in (0, 1], got {self.max_ratio_step}")
        if self.dataset_floor < 0 or self.dataset_floor * len(MIXTURE_ORDER) > 1.0:
            raise ConfigError(
                f"dataset_floor {self.dataset_floor} is infeasible for "
                f"{len(MIXTURE_ORDER)} datasets"
            )
        if not 0.0 < self.focus_cap <= 1.0:
            raise ConfigError(f"focus_cap must be in (0, 1], got {self.focus_cap}")
        if self.regression_guard <= 0:
            raise ConfigError(f"regression_guard must be > 0, got {self.regression_guard}")

    def to_json(self) -> dict:
        return {
            "targets": {dim.value: self.targets[dim] for dim in DIMENSION_ORDER},
            **{key: getattr(self, key) for key in _POLICY_NUMBERS},
        }

    @staticmethod
    def from_json(obj: dict) -> "PolicyConfig":
        config_fields(obj, "policy", {"targets": dict, **dict.fromkeys(_POLICY_NUMBERS, float)})
        kwargs: dict = {key: float(obj[key]) for key in _POLICY_NUMBERS if key in obj}
        if "targets" in obj:
            targets = config_fields(
                obj["targets"], "policy.targets", {dim.value: float for dim in DIMENSION_ORDER}
            )
            kwargs["targets"] = {Dimension(k): float(v) for k, v in targets.items()}
        return PolicyConfig(**kwargs)


@dataclass(frozen=True)
class RoundRecord:
    """Everything the policy may look at from one completed round."""

    round_index: int
    action: DataAction
    metric: MetricVector
    profiles: tuple[FailureProfile, ...]


@dataclass
class RoundHistory:
    """Observed trajectory: the untuned base point plus completed rounds.

    ``bucket_slices`` carries the pool's bucket -> slice-label map so the
    policy can connect failure profiles (keyed by slice) to bucket
    weights (keyed by bucket) without touching the pool itself.
    """

    base_metric: MetricVector | None = None
    records: list[RoundRecord] = field(default_factory=list)
    bucket_slices: dict[Dataset, dict[str, str]] = field(default_factory=dict)

    def append(self, record: RoundRecord) -> None:
        expected = self.records[-1].round_index + 1 if self.records else 0
        if record.round_index != expected:
            raise ValueError(
                f"round indices must be contiguous from 0: expected {expected}, "
                f"got {record.round_index}"
            )
        self.records.append(record)

    @property
    def latest(self) -> RoundRecord:
        if not self.records:
            raise ValueError("history has no completed rounds")
        return self.records[-1]


def _mixture_dict(action: DataAction) -> dict[Dataset, float]:
    return {dataset: action.share(dataset) for dataset in MIXTURE_ORDER}


def _as_tuple(mixture: dict[Dataset, float]) -> tuple[float, float, float]:
    values = tuple(mixture[dataset] for dataset in MIXTURE_ORDER)
    total = math.fsum(values)
    return tuple(value / total for value in values)  # type: ignore[return-value]


def _step_toward(
    mixture: dict[Dataset, float], target: Dataset, step: float, floor: float
) -> tuple[dict[Dataset, float], float]:
    """Move up to ``step`` mass toward ``target``, drawn from the other
    datasets in proportion to their share above the floor."""
    donors = {
        dataset: share - floor
        for dataset, share in mixture.items()
        if dataset is not target and share - floor > DEFICIT_EPSILON
    }
    available = math.fsum(donors.values())
    move = min(step, available)
    if move <= DEFICIT_EPSILON:
        return dict(mixture), 0.0
    result = dict(mixture)
    for dataset, surplus in donors.items():
        result[dataset] -= move * (surplus / available)
    result[target] += move
    return result, move


def _regressions(
    previous: MetricVector | None, latest: MetricVector, guard: float
) -> dict[Dimension, float]:
    if previous is None:
        return {}
    drops = {}
    for dimension in DIMENSION_ORDER:
        drop = previous.get(dimension) - latest.get(dimension)
        if drop > guard:
            drops[dimension] = drop
    return drops


def _bucket_weights(
    latest: RoundRecord, bucket_slices: dict[Dataset, dict[str, str]]
) -> tuple[dict[Dataset, dict[str, float]], list[str]]:
    notes = []
    weights: dict[Dataset, dict[str, float]] = {}
    for dataset in MIXTURE_ORDER:
        current = latest.action.bucket_weights.get(dataset)
        if not current:
            continue
        bucket_ids = sorted(current)
        dimension = DIMENSION_FOR_DATASET[dataset]
        by_slice = {
            profile.slice_label: profile.fail_mass
            for profile in latest.profiles
            if profile.dimension is dimension
        }
        total_fail_mass = math.fsum(by_slice.values())
        smoothing = SMOOTHING_RATE * total_fail_mass
        slice_of = bucket_slices.get(dataset, {})
        raw = {
            bucket_id: by_slice.get(slice_of.get(bucket_id, ""), 0.0) + smoothing
            for bucket_id in bucket_ids
        }
        mass = math.fsum(raw.values())
        if mass <= 0:
            weights[dataset] = {bucket_id: 1.0 / len(bucket_ids) for bucket_id in bucket_ids}
            notes.append(f"{dataset.value}: no failing slices, bucket weights uniform")
        else:
            weights[dataset] = {bucket_id: raw[bucket_id] / mass for bucket_id in bucket_ids}
            notes.append(
                f"{dataset.value}: bucket weights follow fail mass "
                f"(total {total_fail_mass:.4f}, smoothing {smoothing:.4f})"
            )
    return weights, notes


def _focus_criteria(
    latest: RoundRecord,
    deficits: dict[Dimension, float],
    regressed: dict[Dimension, float],
    config: PolicyConfig,
) -> tuple[tuple[FocusCriterion, ...], list[str]]:
    previous_labels = {criterion.label for criterion in latest.action.focus_criteria}
    criteria = []
    notes = []
    for dimension in DIMENSION_ORDER:
        if deficits.get(dimension, 0.0) <= DEFICIT_EPSILON:
            continue
        failing = [
            profile
            for profile in latest.profiles
            if profile.dimension is dimension and profile.fail_mass > 0
        ]
        if not failing:
            continue
        worst = rank_slices(failing)[0]
        mode = (worst.top_modes(1) or ["unscored"])[0]
        criterion = FocusCriterion.on_slice(
            dimension.value, worst.slice_label, mode, FOCUS_BOOST, config.focus_cap
        )
        if dimension in regressed and criterion.label in previous_labels:
            notes.append(
                f"{dimension.value}: dropping focus {criterion.label!r}; it was active while "
                "the dimension regressed"
            )
            continue
        criteria.append(criterion)
        notes.append(
            f"{dimension.value}: focus on worst slice {worst.slice_label!r} "
            f"(fail_mass {worst.fail_mass:.4f}, top mode {mode})"
        )
    return tuple(criteria), notes


def propose_explained(
    history: RoundHistory, config: PolicyConfig
) -> tuple[DataAction, list[str]]:
    """Run the decision procedure and narrate which rules fired."""
    if not history.records:
        raise ValueError("cannot propose from an empty history")
    latest = history.latest
    previous_metric = (
        history.records[-2].metric if len(history.records) >= 2 else history.base_metric
    )
    mixture = _mixture_dict(latest.action)
    rationale = [
        f"after round {latest.round_index}: metric "
        f"{latest.metric:.4f}, mixture {' / '.join(f'{mixture[d]:.2f}' for d in MIXTURE_ORDER)}"
    ]

    deficits = {
        dimension: config.targets[dimension] - latest.metric.get(dimension)
        for dimension in DIMENSION_ORDER
    }
    regressed = _regressions(previous_metric, latest.metric, config.regression_guard)

    if regressed:
        worst_dimension = max(regressed.items(), key=lambda item: item[1])[0]
        if len(history.records) >= 2:
            earlier = _mixture_dict(history.records[-2].action)
            moved = {
                dataset: mixture[dataset] - earlier[dataset] for dataset in MIXTURE_ORDER
            }
            mixture = {
                dataset: mixture[dataset] - 0.5 * moved[dataset] for dataset in MIXTURE_ORDER
            }
            moved_mass = math.fsum(abs(v) for v in moved.values()) / 2
            rationale.append(
                f"regression guard: {worst_dimension.value} dropped "
                f"{regressed[worst_dimension]:.4f} > {config.regression_guard}; restored half "
                f"of the {moved_mass:.4f} mass the round moved"
            )
        else:
            target_dataset = DATASET_FOR_DIMENSION[worst_dimension]
            mixture, moved = _step_toward(
                mixture, target_dataset, config.max_ratio_step, config.dataset_floor
            )
            rationale.append(
                f"regression guard: {worst_dimension.value} dropped "
                f"{regressed[worst_dimension]:.4f} > {config.regression_guard} with no earlier "
                f"move to undo; stepped {moved:.4f} toward {target_dataset.value}"
            )
    else:
        positive = {
            dimension: deficit
            for dimension, deficit in deficits.items()
            if deficit > DEFICIT_EPSILON
        }
        if positive:
            worst_dimension = max(
                positive.items(), key=lambda item: (item[1], -DIMENSION_ORDER.index(item[0]))
            )[0]
            target_dataset = DATASET_FOR_DIMENSION[worst_dimension]
            mixture, moved = _step_toward(
                mixture, target_dataset, config.max_ratio_step, config.dataset_floor
            )
            rationale.append(
                f"deficit move: {worst_dimension.value} is {positive[worst_dimension]:.4f} "
                f"below target; stepped {moved:.4f} toward {target_dataset.value}"
            )
        else:
            rationale.append("all dimensions at or above target; mixture unchanged")

    bucket_weights, bucket_notes = _bucket_weights(latest, history.bucket_slices)
    rationale.extend(bucket_notes)
    criteria, focus_notes = _focus_criteria(latest, deficits, regressed, config)
    rationale.extend(focus_notes)

    action = DataAction(
        dataset_mixture=_as_tuple(mixture),
        bucket_weights=bucket_weights,
        focus_criteria=criteria,
    )
    return action, rationale
