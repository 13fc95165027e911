"""Data actions and token-budgeted sampling.

An action is a dataset mixture over (XGUARD, ORBENCH, IF), per-dataset
bucket weights, and optional focus criteria; a focus criterion matches
the windows whose tags equal every field of one slice label.  The
effective bucket distribution multiplies mixture share by bucket
weight, applies focus boosts to buckets whose windows all satisfy a
criterion, and renormalizes.  Drawing is i.i.d. with replacement: pick a bucket from
the distribution, pick a window uniformly inside it, and stop the first
time a drawn window would overflow the token budget, discarding that
draw.  Focus criteria additionally cap the share of the budget their
matching windows may occupy; cap rejections do not stop the draw.
"""
from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from .corpus import Pool, WindowColumns
from .errors import ConfigError
from .records import (
    Dataset,
    MIXTURE_ORDER,
    _encode_str,
    _write_lines,
    config_fields,
    parse_slice_key,
)

SIMPLEX_TOLERANCE = 1e-9
SUMMARY_REJECTIONS = 10  # rejections a manifest summary lists, in draw order

BucketKey = tuple[Dataset, str]


def bucket_key_str(key: BucketKey) -> str:
    return f"{key[0].value}/{key[1]}"


def slice_pairs(label: str) -> tuple[tuple[str, str], ...]:
    """The ``(tag, value)`` pairs of a slice label's fields, sorted by tag."""
    return tuple(sorted(parse_slice_key(label).items()))


@dataclass(frozen=True)
class FocusCriterion:
    """The windows whose tags equal every ``(tag, value)`` pair of one
    slice label, with an over-sampling boost and a token-share cap."""

    pairs: tuple[tuple[str, str], ...]
    boost: float
    cap_fraction: float
    label: str = ""

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ValueError("focus criterion needs at least one (tag, value) pair")
        if self.boost < 1.0:
            raise ValueError(f"boost must be >= 1, got {self.boost}")
        if not 0.0 < self.cap_fraction <= 1.0:
            raise ValueError(f"cap_fraction must be in (0, 1], got {self.cap_fraction}")

    @staticmethod
    def on_slice(
        dimension: str, slice_label: str, mode: str, boost: float, cap_fraction: float
    ) -> "FocusCriterion":
        """The criterion on slice ``slice_label``'s windows, labeled
        ``DIMENSION:slice:mode``."""
        label = f"{dimension}:{slice_label}:{mode}"
        return FocusCriterion(slice_pairs(slice_label), boost, cap_fraction, label)

    def matches(self, tags: Mapping[str, str]) -> bool:
        return all(tags.get(tag) == value for tag, value in self.pairs)

    def to_json(self) -> dict:
        return {
            "tests": [{"tag": tag, "op": "eq", "value": value} for tag, value in self.pairs],
            "boost": self.boost,
            "cap_fraction": self.cap_fraction,
            "label": self.label,
        }

    @staticmethod
    def from_json(obj: dict) -> "FocusCriterion":
        fields = {"tests": [dict], "boost": float, "cap_fraction": float, "label": str}
        pairs = []
        for test in config_fields(obj, "focus criterion", fields)["tests"]:
            tag, value = test["tag"], test["value"]
            if test["op"] != "eq" or not isinstance(tag, str) or not isinstance(value, str):
                raise ValueError(
                    f"focus test needs a string tag, op 'eq' and a string value: {test!r}"
                )
            pairs.append((tag, value))
        return FocusCriterion(
            pairs=tuple(pairs),
            boost=obj["boost"],
            cap_fraction=obj["cap_fraction"],
            label=obj.get("label", ""),
        )


@dataclass(frozen=True)
class DataAction:
    """One executable mixture decision."""

    dataset_mixture: tuple[float, float, float]  # (XGUARD, ORBENCH, IF)
    bucket_weights: dict[Dataset, dict[str, float]] = field(default_factory=dict)
    focus_criteria: tuple[FocusCriterion, ...] = ()

    def __post_init__(self) -> None:
        if len(self.dataset_mixture) != len(MIXTURE_ORDER):
            raise ConfigError(
                f"dataset_mixture needs {len(MIXTURE_ORDER)} entries, got "
                f"{len(self.dataset_mixture)}"
            )
        if any(share < 0 for share in self.dataset_mixture):
            raise ConfigError(f"mixture shares must be >= 0: {self.dataset_mixture}")
        if abs(math.fsum(self.dataset_mixture) - 1.0) > SIMPLEX_TOLERANCE:
            raise ConfigError(
                f"dataset_mixture must sum to 1 within {SIMPLEX_TOLERANCE}: "
                f"{self.dataset_mixture}"
            )
        for dataset, weights in self.bucket_weights.items():
            if not weights:
                continue
            if any(weight < 0 for weight in weights.values()):
                raise ConfigError(f"bucket weights for {dataset.value} must be >= 0")
            if abs(math.fsum(weights.values()) - 1.0) > SIMPLEX_TOLERANCE:
                raise ConfigError(
                    f"bucket weights for {dataset.value} must sum to 1 within "
                    f"{SIMPLEX_TOLERANCE}"
                )

    def share(self, dataset: Dataset) -> float:
        return self.dataset_mixture[MIXTURE_ORDER.index(dataset)]

    def validate_against(self, pool: Pool) -> None:
        """Check bucket references against a concrete pool.

        Datasets the pool does not carry are skipped here; putting
        mixture share on one is rejected by ``effective_distribution``.
        """
        for dataset, weights in self.bucket_weights.items():
            if dataset not in pool.datasets:
                continue
            known = set(pool.bucket_ids(dataset))
            unknown = sorted(set(weights) - known)
            if unknown:
                raise ConfigError(
                    f"action references unknown {dataset.value} buckets: {unknown}"
                )

    def to_json(self) -> dict:
        return {
            "dataset_mixture": list(self.dataset_mixture),
            "bucket_weights": {
                dataset.value: dict(weights)
                for dataset, weights in sorted(
                    self.bucket_weights.items(), key=lambda item: item[0].value
                )
            },
            "focus_criteria": [criterion.to_json() for criterion in self.focus_criteria],
        }

    @staticmethod
    def from_json(obj: dict) -> "DataAction":
        fields = {"dataset_mixture": [float], "bucket_weights": dict, "focus_criteria": [dict]}
        config_fields(obj, "action", fields)
        bucket_weights = obj.get("bucket_weights", {})
        for dataset, weights in bucket_weights.items():
            config_fields(weights, f"{dataset} bucket weights", dict.fromkeys(weights, float))
        return DataAction(
            dataset_mixture=tuple(obj["dataset_mixture"]),
            bucket_weights={
                Dataset(dataset): {b: float(w) for b, w in weights.items()}
                for dataset, weights in bucket_weights.items()
            },
            focus_criteria=tuple(
                FocusCriterion.from_json(c) for c in obj.get("focus_criteria", [])
            ),
        )


def uniform_bucket_weights(pool: Pool) -> dict[Dataset, dict[str, float]]:
    weights = {}
    for dataset in pool.datasets:
        bucket_ids = pool.bucket_ids(dataset)
        weights[dataset] = {bucket_id: 1.0 / len(bucket_ids) for bucket_id in bucket_ids}
    return weights


def effective_distribution(
    action: DataAction, pool: Pool, budget_tokens: int | None = None
) -> dict[BucketKey, float]:
    """Bucket-level sampling distribution an action induces on a pool.

    Empty buckets contribute nothing; a dataset with positive mixture
    share but no sampleable windows makes the action infeasible, and so
    does a ``budget_tokens`` smaller than every window on the support,
    whose draw would be empty.
    """
    action.validate_against(pool)
    raw: dict[BucketKey, float] = {}
    for dataset in MIXTURE_ORDER:
        share = action.share(dataset)
        if share <= 0:
            continue
        if dataset not in pool.datasets:
            raise ConfigError(
                f"action puts mixture mass on {dataset.value}, which the pool lacks"
            )
        weights = action.bucket_weights.get(dataset)
        if not weights:
            raise ConfigError(
                f"action puts mixture mass on {dataset.value} but has no bucket weights "
                "for it"
            )
        dataset_mass = 0.0
        for bucket_id in pool.bucket_ids(dataset):
            weight = weights.get(bucket_id, 0.0)
            if weight <= 0:
                continue
            groups = pool.tag_groups(dataset, bucket_id)
            if not groups:
                continue
            probability = share * weight
            for criterion in action.focus_criteria:
                if all(criterion.matches(tags) for tags, _ in groups):
                    probability *= criterion.boost
            raw[(dataset, bucket_id)] = probability
            dataset_mass += probability
        if dataset_mass <= 0:
            raise ConfigError(
                f"action is infeasible: dataset {dataset.value} has positive mixture "
                "share but no sampleable windows under its bucket weights"
            )
    if budget_tokens is not None:
        shortest = min(length for key in raw for _, length in pool.tag_groups(*key))
        if shortest > budget_tokens:
            raise ConfigError(
                f"budget {budget_tokens} is smaller than every window on the support "
                f"(the shortest has {shortest} tokens); the manifest would be empty"
            )
    total = math.fsum(raw.values())
    return {key: value / total for key, value in raw.items()}


class DrawnWindows:
    """The windows one draw accepted, in draw order, as columns.

    Window ``i`` is window ``indices[i]`` of the bucket at
    ``support[positions[i]]``, the draw's ``(bucket key, window
    columns)`` list.  ``dataset_tokens`` holds the tokens drawn from each
    dataset.  ``write_manifest`` writes a line per window from these
    columns; no object per window is made.
    """

    __slots__ = ("support", "positions", "indices", "dataset_tokens")

    def __init__(
        self,
        support: Sequence[tuple[BucketKey, WindowColumns]],
        positions: array,
        indices: array,
        dataset_tokens: Mapping[Dataset, int],
    ) -> None:
        self.support = support
        self.positions = positions
        self.indices = indices
        self.dataset_tokens = dataset_tokens

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class SampleManifest:
    """The ordered outcome of one budgeted draw."""

    entries: DrawnWindows
    total_tokens: int
    budget_tokens: int
    seed: int
    distribution: dict[str, float]  # bucket key string -> probability
    rejections: tuple[tuple[str, str], ...] = ()  # (window_id, "budget" | "cap")
    stop_reason: str = "budget"  # "budget" | "cap_exhausted"

    def __post_init__(self) -> None:
        if self.total_tokens > self.budget_tokens:
            raise ValueError(
                f"manifest total {self.total_tokens} exceeds budget {self.budget_tokens}"
            )

    def dataset_token_shares(self) -> dict[Dataset, float]:
        if self.total_tokens == 0:
            return {dataset: 0.0 for dataset in Dataset}
        totals = self.entries.dataset_tokens
        return {dataset: totals[dataset] / self.total_tokens for dataset in Dataset}

    def summary(self) -> dict:
        return {
            "budget_tokens": self.budget_tokens,
            "total_tokens": self.total_tokens,
            "window_count": len(self.entries),
            "seed": self.seed,
            "distribution": self.distribution,
            "stop_reason": self.stop_reason,
            "rejection_counts": {
                reason: sum(1 for _, why in self.rejections if why == reason)
                for reason in ("budget", "cap")
            },
            "first_rejections": [
                {"window_id": window_id, "reason": reason}
                for window_id, reason in self.rejections[:SUMMARY_REJECTIONS]
            ],
        }


def draw_budgeted(
    distribution: Mapping[BucketKey, float],
    pool: Pool,
    budget_tokens: int,
    seed: int,
    focus: Sequence[FocusCriterion] = (),
) -> SampleManifest:
    """Draw windows i.i.d. until the budget is exhausted.

    Deterministic in (distribution, pool, seed).  A budget smaller than
    every window on the support draws nothing: ``effective_distribution``
    given the budget rejects such an action.
    """
    if budget_tokens < 1:
        raise ConfigError(f"budget_tokens must be >= 1, got {budget_tokens}")
    if not distribution:
        raise ConfigError("draw_budgeted needs a non-empty distribution")
    keys = sorted(distribution, key=lambda key: (key[0].value, key[1]))
    support: list[tuple[BucketKey, WindowColumns]] = []
    cumulative: list[float] = []
    running = 0.0
    for key in keys:
        probability = distribution[key]
        if probability < 0:
            raise ConfigError(f"negative probability for bucket {bucket_key_str(key)}")
        if probability == 0:
            continue
        columns = pool.windows(*key)
        if not columns[0]:
            raise ConfigError(f"distribution references empty bucket {bucket_key_str(key)}")
        support.append((key, columns))
        running += probability
        cumulative.append(running)
    if not support:
        raise ConfigError("distribution has no positive-probability buckets")

    # A window's match signature is the tuple of focus criteria its tags
    # satisfy.  Criteria run once per distinct tag mapping, and cap
    # exhaustion is decided from the shortest window of each signature.
    signatures: dict[int, tuple[int, ...]] = {}  # id(tag mapping) -> signature

    def signature(tags: Mapping[str, str]) -> tuple[int, ...]:
        matched = signatures.get(id(tags))
        if matched is None:
            matched = tuple(
                index for index, criterion in enumerate(focus) if criterion.matches(tags)
            )
            signatures[id(tags)] = matched
        return matched

    shortest: dict[tuple[int, ...], int] = {}  # signature -> shortest window on the support
    for key, _ in support:
        for tags, length in pool.tag_groups(*key):
            matched = signature(tags)
            if length < shortest.get(matched, length + 1):
                shortest[matched] = length

    rng = random.Random(seed)
    caps = [int(criterion.cap_fraction * budget_tokens) for criterion in focus]
    focus_tokens = [0 for _ in focus]

    def cap_blocked(matched: tuple[int, ...], length: int) -> bool:
        return any(focus_tokens[index] + length > caps[index] for index in matched)

    def any_acceptable(remaining: int) -> bool:
        """True iff some window on the support fits ``remaining`` and no cap."""
        return any(
            length <= remaining and not cap_blocked(matched, length)
            for matched, length in shortest.items()
        )

    positions, indices = array("I"), array("I")
    support_tokens = [0] * len(support)
    rejections: list[tuple[str, str]] = []
    total = 0
    stop_reason = "budget"
    while True:
        position = bisect_right(cumulative, rng.random() * running)
        position = min(position, len(support) - 1)
        ids, lengths, tags = support[position][1]
        drawn = rng.randrange(len(ids))
        length = lengths[drawn]
        if total + length > budget_tokens:
            rejections.append((ids[drawn], "budget"))
            break
        matched = signature(tags[drawn])
        if cap_blocked(matched, length):
            rejections.append((ids[drawn], "cap"))
            if not any_acceptable(budget_tokens - total):
                stop_reason = "cap_exhausted"
                break
            continue
        positions.append(position)
        indices.append(drawn)
        support_tokens[position] += length
        total += length
        for index in matched:
            focus_tokens[index] += length
    dataset_tokens = dict.fromkeys(Dataset, 0)
    for ((dataset, _), _), tokens in zip(support, support_tokens):
        dataset_tokens[dataset] += tokens
    return SampleManifest(
        entries=DrawnWindows(support, positions, indices, dataset_tokens),
        total_tokens=total,
        budget_tokens=budget_tokens,
        seed=seed,
        distribution={bucket_key_str(key): distribution[key] for key in keys},
        rejections=tuple(rejections),
        stop_reason=stop_reason,
    )


def write_manifest(path: Path, manifest: SampleManifest) -> str:
    """Write one line per window the manifest's draw accepted, in draw
    order, to ``path`` and return the sha256 of the bytes written.  A
    window's line is ``json.dumps(row, ensure_ascii=False) + "\\n"`` for
    its row ``{"window_id": id, "dataset": dataset.value, "bucket":
    bucket id, "token_count": length}``.  The text after a window's id
    is encoded once per bucket on the support, and each line splices in
    the window's id and token count."""
    drawn = manifest.entries
    buckets = [
        (
            ids,
            lengths,
            f', "dataset": {_encode_str(dataset.value)}, "bucket": {_encode_str(bucket_id)}, '
            '"token_count": ',
        )
        for (dataset, bucket_id), (ids, lengths, _) in drawn.support
    ]

    def lines() -> Iterator[str]:
        for position, index in zip(drawn.positions, drawn.indices):
            ids, lengths, bucket = buckets[position]
            yield f'{{"window_id": {_encode_str(ids[index])}{bucket}{lengths[index]}}}\n'

    return _write_lines(path, lines())
