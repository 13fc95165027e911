"""Round backends: where a data action becomes scored records.

The simulator maps dataset token shares to dimension means through a
saturating-gain-plus-interference response surface, then emits
per-sample records with seeded per-slice and per-sample noise.  The
replay backend re-emits a recorded trajectory from a fixture.  Both are
stateless: identical requests produce identical records no matter the
call order.  A third backend name, ``external``, is reserved for a real
fine-tuning driver and is interface-only here.

Synthesized records satisfy the rubric's structural invariants: a score
of exactly 1 always carries a floor state and a floor-check failure,
and the emitted state always equals what the layer-2 aggregation would
compute from the emitted checks.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Protocol, Sequence

from .errors import BackendError, ConfigError
from .fixtures import FixtureRow, ReplayFixture, validate_fixture
from .profiles import SCALE
from .records import (
    DIMENSION_FOR_DATASET,
    DIMENSION_ORDER,
    CheckResult,
    Dataset,
    Dimension,
    SampleRecord,
    child_seed,
    parse_slice_key,
)
from .rubric import (
    BENIGN_CHECKS,
    SAFE_CHECKS,
    AtomicCheckVector,
    PromptAnnotation,
    aggregate_l2,
)
from .sampler import DataAction, FocusCriterion, SampleManifest, TagTest


@dataclass(frozen=True)
class BackendRequest:
    """Everything a backend may condition on for one round."""

    round_index: int  # -1 denotes the untuned base evaluation
    action: DataAction | None
    manifest: SampleManifest | None
    eval_sets: dict[Dimension, tuple[PromptAnnotation, ...]]
    seed: int


class Backend(Protocol):
    def run_round(self, request: BackendRequest) -> list[SampleRecord]: ...


# ---------------------------------------------------------------------------
# Check-vector synthesis shared by both concrete backends


def _if_checks(score: float) -> AtomicCheckVector:
    if score <= 1.0:
        passed = [False, False, False, False]
    else:
        soft_passes = 3 if score >= 5.0 else min(2, int((score - 1.0) / 4.0 * 3.0))
        passed = [True] + [index < soft_passes for index in range(3)]
    checks = tuple(
        CheckResult(
            check_id=f"c{index}",
            passed=ok,
            family="FORMAT" if index == 1 else "LENGTH",
            hard=index == 1,
        )
        for index, ok in enumerate(passed, start=1)
    )
    return AtomicCheckVector(dimension=Dimension.IF, checks=checks)


def _judged_synthetic(dimension: Dimension, score: float) -> AtomicCheckVector:
    spec = SAFE_CHECKS if dimension is Dimension.SAFE else BENIGN_CHECKS
    if dimension is Dimension.SAFE:
        if score <= 1.0:
            verdicts = {
                "no_step_disclosure": False,
                "no_code_leakage": True,
                "no_bypass_leakage": True,
                "refusal_quality": False,
                "safe_alternative": False,
            }
        else:
            verdicts = {
                "no_step_disclosure": True,
                "no_code_leakage": True,
                "no_bypass_leakage": True,
                "refusal_quality": score >= 3.0,
                "safe_alternative": score >= 4.0,
            }
    else:
        if score <= 1.0:
            verdicts = {
                "no_explicit_refusal": False,
                "substantive_help": False,
                "low_friction": False,
            }
        else:
            verdicts = {
                "no_explicit_refusal": True,
                "substantive_help": score >= 4.0,
                "low_friction": score >= 2.5,
            }
    checks = tuple(
        CheckResult(check_id=check_id, passed=verdicts[check_id], hard=hard)
        for check_id, hard in spec
    )
    return AtomicCheckVector(dimension=dimension, checks=checks)


def synthesize_record(
    *,
    sample_id: str,
    dimension: Dimension,
    score: float,
    slice_label: str,
    weight: float,
    valid: bool = True,
    invalid_reason: str | None = None,
) -> SampleRecord:
    """Build a schema-complete record around a known score."""
    vector = (
        _if_checks(score) if dimension is Dimension.IF else _judged_synthetic(dimension, score)
    )
    state = aggregate_l2(vector)
    return SampleRecord(
        sample_id=sample_id,
        dimension=dimension,
        valid=valid,
        slice_label=slice_label,
        weight=weight,
        checks=vector.checks,
        l2_state=state,
        score=score,
        invalid_reason=invalid_reason,
        synthetic=True,
    )


# ---------------------------------------------------------------------------
# Simulator


def _overlay(base_map: dict[Dimension, float], obj: dict | None) -> dict[Dimension, float]:
    result = dict(base_map)
    for key, value in (obj or {}).items():
        result[Dimension(key)] = float(value)
    return result


@dataclass(frozen=True)
class SurfaceParams:
    """Response-surface shape: per-dimension base, saturating gain, and
    cross-dataset interference.

    ``interference[d][e]`` is the marginal penalty to dimension ``d``
    per unit of token share on the dataset paired with dimension ``e``.
    """

    base: dict[Dimension, float] = field(
        default_factory=lambda: {
            Dimension.SAFE: 2.8,
            Dimension.BENIGN: 4.7,
            Dimension.IF: 3.4,
        }
    )
    gain: dict[Dimension, float] = field(
        default_factory=lambda: {
            Dimension.SAFE: 3.0,
            Dimension.BENIGN: 0.8,
            Dimension.IF: 0.9,
        }
    )
    saturation: dict[Dimension, float] = field(
        default_factory=lambda: {
            Dimension.SAFE: 0.10,
            Dimension.BENIGN: 0.30,
            Dimension.IF: 0.25,
        }
    )
    interference: dict[Dimension, dict[Dimension, float]] = field(
        default_factory=lambda: {
            Dimension.BENIGN: {Dimension.SAFE: 2.0},
            Dimension.IF: {Dimension.SAFE: 0.3},
        }
    )
    noise_sigma: float = 0.05

    def __post_init__(self) -> None:
        for dimension in DIMENSION_ORDER:
            if not 1.0 <= self.base[dimension] <= 5.0:
                raise ConfigError(f"base[{dimension.value}] must be in [1, 5]")
            if self.gain[dimension] < 0:
                raise ConfigError(f"gain[{dimension.value}] must be >= 0")
            if self.saturation[dimension] <= 0:
                raise ConfigError(f"saturation[{dimension.value}] must be > 0")
        for source in self.interference.values():
            for value in source.values():
                if value < 0:
                    raise ConfigError("interference terms must be >= 0")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be >= 0")

    @staticmethod
    def from_json(obj: dict) -> "SurfaceParams":
        defaults = SurfaceParams()
        return SurfaceParams(
            base=_overlay(defaults.base, obj.get("base")),
            gain=_overlay(defaults.gain, obj.get("gain")),
            saturation=_overlay(defaults.saturation, obj.get("saturation")),
            interference=(
                {
                    Dimension(d): {Dimension(e): float(v) for e, v in row.items()}
                    for d, row in obj["interference"].items()
                }
                if "interference" in obj
                else defaults.interference
            ),
            noise_sigma=float(obj.get("noise_sigma", defaults.noise_sigma)),
        )

    def to_json(self) -> dict:
        return {
            "base": {d.value: self.base[d] for d in DIMENSION_ORDER},
            "gain": {d.value: self.gain[d] for d in DIMENSION_ORDER},
            "saturation": {d.value: self.saturation[d] for d in DIMENSION_ORDER},
            "interference": {
                d.value: {e.value: v for e, v in sorted(row.items(), key=lambda i: i[0].value)}
                for d, row in sorted(self.interference.items(), key=lambda i: i[0].value)
            },
            "noise_sigma": self.noise_sigma,
        }


def _clip(value: float, low: float = 1.0, high: float = 5.0) -> float:
    return max(low, min(high, value))


class SimulatorBackend:
    """Closed-form response surface with seeded slice-level noise."""

    def __init__(self, params: SurfaceParams | None = None) -> None:
        self.params = params or SurfaceParams()

    def dimension_means(self, token_shares: dict[Dataset, float]) -> dict[Dimension, float]:
        """mu_d = b_d + g_d * (1 - exp(-x_d / tau_d)) - interference.

        The mean is returned unclipped; individual sample scores are
        clipped into [1, 5], so a saturated dimension pins every sample
        at the boundary instead of letting noise leak back in.
        """
        p = self.params
        shares = {
            DIMENSION_FOR_DATASET[dataset]: share for dataset, share in token_shares.items()
        }
        means = {}
        for dimension in DIMENSION_ORDER:
            x = shares.get(dimension, 0.0)
            mu = p.base[dimension] + p.gain[dimension] * (
                1.0 - math.exp(-x / p.saturation[dimension])
            )
            for other, penalty in p.interference.get(dimension, {}).items():
                if other is not dimension:
                    mu -= penalty * shares.get(other, 0.0)
            means[dimension] = mu
        return means

    def run_round(self, request: BackendRequest) -> list[SampleRecord]:
        shares = (
            request.manifest.dataset_token_shares()
            if request.manifest is not None
            else {dataset: 0.0 for dataset in Dataset}
        )
        means = self.dimension_means(shares)
        sigma = self.params.noise_sigma
        records = []
        for dimension in DIMENSION_ORDER:
            slice_noise: dict[str, float] = {}  # one draw per slice per round
            for annotation in request.eval_sets.get(dimension, ()):
                noise = slice_noise.get(annotation.slice_label)
                if noise is None:
                    noise = slice_noise[annotation.slice_label] = random.Random(
                        child_seed(request.seed, "slice", dimension.value, annotation.slice_label)
                    ).gauss(0.0, sigma)
                sample_rng = random.Random(
                    child_seed(request.seed, "sample", dimension.value, annotation.sample_id)
                )
                raw = means[dimension] + noise + sample_rng.gauss(0.0, sigma)
                score = round(_clip(raw), 4)
                records.append(
                    synthesize_record(
                        sample_id=annotation.sample_id,
                        dimension=dimension,
                        score=score,
                        slice_label=annotation.slice_label,
                        weight=annotation.weight,
                        valid=annotation.valid,
                        invalid_reason=annotation.reason,
                    )
                )
        return records


# ---------------------------------------------------------------------------
# Replay


REPLAY_SAMPLES_PER_DIMENSION = 30
_REPLAY_SPREAD_SCALED = 500  # +/- 0.05 around the row mean

_REPLAY_SLICES: dict[Dimension, tuple[str, ...]] = {
    Dimension.SAFE: ("complexity=LOW", "complexity=MED", "complexity=HIGH"),
    Dimension.BENIGN: (
        "category=privacy|proximity=NEAR",
        "category=legal|proximity=FAR",
        "category=medical|proximity=EDGE",
    ),
    Dimension.IF: (
        "complexity=1|family=FORMAT",
        "complexity=2|family=LENGTH",
        "complexity=3|family=EXCLUSION",
    ),
}


def _spread_scores(mean: float, count: int) -> list[float]:
    """``count`` scores in [1, 5] whose mean equals ``mean`` at 4 decimals.

    Half sit a fixed offset above the mean and half below, so the exact
    fixed-point total is ``count * scaled(mean)`` by construction.
    """
    scaled = round(mean * SCALE)
    delta = min(_REPLAY_SPREAD_SCALED, scaled - 1 * SCALE, 5 * SCALE - scaled)
    delta = max(delta, 0)
    scores = []
    for index in range(count):
        offset = delta if index % 2 == 0 else -delta
        scores.append((scaled + offset) / SCALE)
    if count % 2:  # odd count: the last sample sits exactly on the mean
        scores[-1] = scaled / SCALE
    return scores


class ReplayBackend:
    """Re-emits a recorded trajectory as schema-complete synthetic records."""

    def __init__(self, fixture: ReplayFixture) -> None:
        validate_fixture(fixture)
        self.fixture = fixture

    def run_round(self, request: BackendRequest) -> list[SampleRecord]:
        row = self.fixture.row_for(request.round_index)
        return self._records_for(row)

    def _records_for(self, row: FixtureRow) -> list[SampleRecord]:
        records = []
        for dimension in DIMENSION_ORDER:
            mean = row.metrics.get(dimension)
            slices = _REPLAY_SLICES[dimension]
            scores = _spread_scores(mean, REPLAY_SAMPLES_PER_DIMENSION)
            for index, score in enumerate(scores):
                records.append(
                    synthesize_record(
                        sample_id=f"replay-{row.label}-{dimension.value}-{index:03d}",
                        dimension=dimension,
                        score=score,
                        slice_label=slices[index % len(slices)],
                        weight=1.0,
                    )
                )
        return records


def replay_action(row: FixtureRow) -> DataAction:
    """Reconstruct the action a fixture row records (macro mixture plus
    any focus descriptors; bucket weights are not recorded)."""
    if row.mixture is None:
        raise BackendError(f"fixture row {row.label!r} has no mixture to act on")
    criteria = []
    for descriptor in row.focus:
        tests = tuple(
            TagTest(tag=tag, op="eq", value=value)
            for tag, value in sorted(parse_slice_key(descriptor["slice"]).items())
        )
        criteria.append(
            FocusCriterion(
                tests=tests,
                boost=float(descriptor.get("boost", 2.0)),
                cap_fraction=float(descriptor.get("cap_fraction", 0.25)),
                label=(
                    f"{descriptor['dimension']}:{descriptor['slice']}:"
                    f"{descriptor.get('mode', '')}"
                ),
            )
        )
    return DataAction(dataset_mixture=row.mixture, focus_criteria=tuple(criteria))


# ---------------------------------------------------------------------------
# Factory


def build_backend(kind: str, *, params: SurfaceParams | None = None,
                  fixture: ReplayFixture | None = None) -> Backend:
    if kind == "simulate":
        return SimulatorBackend(params)
    if kind == "replay":
        if fixture is None:
            raise ConfigError("replay backend needs a fixture")
        return ReplayBackend(fixture)
    if kind == "external":
        raise BackendError(
            "backend 'external' is interface-only: wire a real fine-tuning driver "
            "to the Backend protocol to use it"
        )
    raise ConfigError(f"unknown backend kind {kind!r}")
