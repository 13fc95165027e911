"""Round backends: where a data action becomes scored records.

The simulator maps dataset token shares to dimension means through a
saturating-gain-plus-interference response surface, then emits
per-sample records with per-slice and per-sample Gaussian noise.  Each
draw is a Box-Muller transform of the blake2b digest of its seed path,
``(round seed, "slice" or "sample", dimension, slice or sample id)``,
so a sample's score depends on that path alone, not on the other
samples or their order.  A dimension's sample draws share one hash
state that has absorbed the path up to the id; each draw continues a
copy of it with the id, which gives the digest of the whole path.  The
replay backend re-emits a recorded trajectory from a fixture.  Both
are stateless: identical requests produce identical records no matter
the call order.

Synthesized records are scored like real ones: the backend picks a
check vector whose layer-1 score is the target score, and
``rubric.score_checks`` assigns the state and the score from those
checks.  A score of exactly 1 always carries a floor state and a
floor-check failure.  A round comes back as columns
(``records.RoundRecords``): per dimension, the eval set's sample ids
and annotations, and each sample's template number.  A template is
made once for each distinct (dimension, score, validity) in the round:
its checks, state and score go straight into the run's template table
(``records.TemplateColumns``), and no record is built for it.  No
sample is scored on its own: its record is its line, which
``records.write_records`` builds from the columns and marks
``synthetic``.
"""
from __future__ import annotations

import hashlib
import math
import struct
from array import array
from dataclasses import dataclass, field
from typing import Protocol

from .errors import BackendError, ConfigError
from .fixtures import FixtureRow, ReplayFixture
from .records import (
    DATASET_FOR_DIMENSION,
    DIMENSION_FOR_DATASET,
    DIMENSION_ORDER,
    CheckResult,
    Dataset,
    Dimension,
    PromptAnnotation,
    RecordRun,
    RoundRecords,
    SCALE,
    TemplateColumns,
    SCORE_DECIMALS,
    config_fields,
    seed_text,
)
from .rubric import (
    BENIGN_CHECKS,
    SAFE_CHECKS,
    AtomicCheckVector,
    EvalColumns,
    score_checks,
)
from .sampler import DataAction, SampleManifest


@dataclass(frozen=True)
class BackendRequest:
    """Everything a backend may condition on for one round."""

    round_index: int  # -1 denotes the untuned base evaluation
    manifest: SampleManifest | None
    eval_sets: dict[Dimension, EvalColumns]
    seed: int


class Backend(Protocol):
    def run_round(self, request: BackendRequest) -> RoundRecords: ...


# ---------------------------------------------------------------------------
# Check-vector synthesis shared by both concrete backends


# Every dimension's synthetic check list: its hard checks, then exactly
# two soft checks, all passing at weight 1 (the checks of a score of 5).
_TOP_CHECKS: dict[Dimension, tuple[CheckResult, ...]] = {
    Dimension.SAFE: tuple(
        CheckResult(check_id, True, hard=hard) for check_id, hard in SAFE_CHECKS
    ),
    Dimension.BENIGN: tuple(
        CheckResult(check_id, True, hard=hard) for check_id, hard in BENIGN_CHECKS
    ),
    Dimension.IF: (
        CheckResult("c1", True, family="FORMAT", hard=True),
        CheckResult("c2", True, family="LENGTH"),
        CheckResult("c3", True, family="LENGTH"),
    ),
}


def _failed(check: CheckResult, weight: float = 1.0) -> CheckResult:
    return CheckResult(check.check_id, False, check.family, check.hard, weight)


_TOP = {
    dimension: AtomicCheckVector(dimension, checks) for dimension, checks in _TOP_CHECKS.items()
}
_FLOOR = {
    dimension: AtomicCheckVector(
        dimension,
        (_failed(checks[0]),) + checks[1:-2] + (_failed(checks[-2]), _failed(checks[-1])),
    )
    for dimension, checks in _TOP_CHECKS.items()
}
# Per dimension: the checks before the two soft ones, and the two soft checks.
_SOFT = {dimension: (checks[:-2], *checks[-2:]) for dimension, checks in _TOP_CHECKS.items()}


def synthetic_checks(dimension: Dimension, score: float) -> AtomicCheckVector:
    """Checks that layer 1 scores at ``score`` (at 4 decimals).

    At a score of 1 the first hard check and both soft checks fail; at 5
    every check passes.  In between every hard check passes, the first
    soft check passes with weight ``ticks - SCALE`` and the second fails
    with weight ``5 * SCALE - ticks``, so layer 1's weighted pass
    fraction is ``(score - 1) / 4``.  Only those two checks are new
    objects; the ones before them are the dimension's shared checks.
    """
    ticks = round(score * SCALE)
    if ticks <= SCALE:
        return _FLOOR[dimension]
    if ticks >= 5 * SCALE:
        return _TOP[dimension]
    prefix, passing, failing = _SOFT[dimension]
    return AtomicCheckVector(
        dimension,
        prefix + (
            CheckResult(passing.check_id, True, passing.family, weight=ticks - SCALE),
            CheckResult(failing.check_id, False, failing.family, weight=5 * SCALE - ticks),
        ),
    )


class _Templates(dict):
    """The template numbers of one dimension of one ``run_round`` call,
    and their ``table``.

    A sample's key is its score, negated when the sample is invalid: a
    score is at least 1, so one float holds both, where a tuple key
    would hold an object per template.  Looking up a key that has no template yet makes it: its
    checks are ``synthetic_checks(dimension, score)``, their state and
    score are what ``score_checks`` gives them, and ``table`` gets its
    columns.  Every later sample with that key shares that template.
    The numbers live only as long as the round, so no call can reuse
    another's work.
    """

    def __init__(self, dimension: Dimension) -> None:
        super().__init__()
        self.table = TemplateColumns(dimension)

    def __missing__(self, key: float) -> int:
        score, valid = abs(key), key > 0
        vector = synthetic_checks(self.table.dimension, score)
        state, scored = score_checks(vector, valid=valid)
        number = self[key] = self.table.add(vector.checks, state, scored)
        return number


# ---------------------------------------------------------------------------
# Simulator


_DIMENSION_KEYS = tuple(dimension.value for dimension in DIMENSION_ORDER)


def _overlay(
    base_map: dict[Dimension, float], obj: dict | None, section: str
) -> dict[Dimension, float]:
    result = dict(base_map)
    fields = dict.fromkeys(_DIMENSION_KEYS, float)
    for key, value in config_fields(obj or {}, section, fields).items():
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
        section = "backend.surface"
        maps = ("base", "gain", "saturation", "interference")
        config_fields(obj, section, {**dict.fromkeys(maps, dict), "noise_sigma": float})
        defaults = SurfaceParams()
        interference = defaults.interference
        if "interference" in obj:
            where = f"{section}.interference"
            rows = config_fields(obj["interference"], where, dict.fromkeys(_DIMENSION_KEYS, dict))
            interference = {
                Dimension(d): _overlay({}, row, f"{where}.{d}") for d, row in rows.items()
            }
        return SurfaceParams(
            base=_overlay(defaults.base, obj.get("base"), f"{section}.base"),
            gain=_overlay(defaults.gain, obj.get("gain"), f"{section}.gain"),
            saturation=_overlay(
                defaults.saturation, obj.get("saturation"), f"{section}.saturation"
            ),
            interference=interference,
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


_UINT64_PAIR = struct.Struct(">QQ").unpack
_TWO_PI = 2.0 * math.pi


def _deviate(digest: bytes) -> float:
    """The standard normal deviate of a 16-byte digest.

    The digest gives two 64-bit words; the top 53 bits of each make
    uniforms ``u1`` and ``u2`` in [0, 1), and the Box-Muller transform
    returns ``cos(2 pi u1) * sqrt(-2 ln(1 - u2))``.
    """
    high, low = _UINT64_PAIR(digest)
    u1, u2 = (high >> 11) * 2.0**-53, (low >> 11) * 2.0**-53
    return math.cos(_TWO_PI * u1) * math.sqrt(-2.0 * math.log(1.0 - u2))


def _hash_state(text: str):
    """A blake2b state, 16-byte digest, that has absorbed ``text``."""
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16)


def _standard_normal(text: str) -> float:
    """A standard normal deviate that is a function of ``text`` alone:
    the ``_deviate`` of the blake2b digest of ``text``."""
    return _deviate(_hash_state(text).digest())


class SimulatorBackend:
    """Closed-form response surface with slice-level and sample-level
    noise drawn from the round seed."""

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

    def run_round(self, request: BackendRequest) -> RoundRecords:
        shares = (
            request.manifest.dataset_token_shares()
            if request.manifest is not None
            else {dataset: 0.0 for dataset in Dataset}
        )
        means = self.dimension_means(shares)
        sigma = self.params.noise_sigma
        runs = []
        for dimension in DIMENSION_ORDER:
            mean = means[dimension]
            # A draw hashes the text child_seed would hash for its path; a
            # sample's draw continues a copy of the state that has hashed
            # the path up to its id.
            slice_text = seed_text(request.seed, "slice", dimension.value, "")
            sample_draw = _hash_state(seed_text(request.seed, "sample", dimension.value, "")).copy
            slice_noise: dict[str, float] = {}  # one draw per slice per round
            numbers = _Templates(dimension)
            templates = array("I")
            sample_ids, annotations = request.eval_sets.get(dimension, ((), ()))
            for sample_id, annotation in zip(sample_ids, annotations):
                label = annotation.slice_label
                noise = slice_noise.get(label)
                if noise is None:
                    noise = slice_noise[label] = sigma * _standard_normal(slice_text + label)
                draw = sample_draw()
                draw.update(sample_id.encode("utf-8"))
                score = mean + noise + sigma * _deviate(draw.digest())
                score = round(1.0 if score < 1.0 else 5.0 if score > 5.0 else score, SCORE_DECIMALS)
                templates.append(numbers[score if annotation.valid else -score])
            runs.append(RecordRun(dimension, sample_ids, annotations, templates, numbers.table))
        return RoundRecords(runs)


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
        self.fixture = fixture

    def run_round(self, request: BackendRequest) -> RoundRecords:
        row = self.fixture.row_for(request.round_index)
        runs = []
        for dimension in DIMENSION_ORDER:
            dataset = DATASET_FOR_DIMENSION[dimension]
            slices = [
                PromptAnnotation(dataset, valid=True, slice_label=label, weight=1.0)
                for label in _REPLAY_SLICES[dimension]
            ]
            numbers = _Templates(dimension)
            scores = _spread_scores(row.metrics.get(dimension), REPLAY_SAMPLES_PER_DIMENSION)
            sample_ids = [
                f"replay-{row.label}-{dimension.value}-{index:03d}" for index in range(len(scores))
            ]
            annotations = [slices[index % len(slices)] for index in range(len(scores))]
            templates = [numbers[score] for score in scores]  # every sample is valid
            runs.append(RecordRun(dimension, sample_ids, annotations, templates, numbers.table))
        return RoundRecords(runs)


def replay_action(row: FixtureRow) -> DataAction:
    """Reconstruct the action a fixture row records (macro mixture plus
    any focus criteria; bucket weights are not recorded)."""
    if row.mixture is None:
        raise BackendError(f"fixture row {row.label!r} has no mixture to act on")
    return DataAction(dataset_mixture=row.mixture, focus_criteria=row.focus)
