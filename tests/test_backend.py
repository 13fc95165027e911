"""Simulated and replay backends."""
import dataclasses
import gc
import hashlib
import math
import random
import statistics
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import mixsearch.backend as backend_module
from mixsearch.backend import (
    BackendRequest,
    ReplayBackend,
    SimulatorBackend,
    SurfaceParams,
    synthetic_checks,
)
from mixsearch.errors import ConfigError
from mixsearch.fixtures import default_fixture_path, load_replay_fixture
from mixsearch.profiles import MetricVector, metric_vector
from mixsearch.records import (
    DIMENSION_FOR_DATASET,
    DIMENSION_ORDER,
    Dataset,
    Dimension,
    L2State,
    SampleRecord,
    TemplateColumns,
    seed_text,
    write_records,
)
from mixsearch.rubric import (
    AtomicCheckVector,
    PromptAnnotation,
    aggregate_l2,
    score_checks,
    score_l1,
)

from conftest import (
    REPLAY_MIXTURES,
    REPLAY_TRAJECTORY,
    read_back,
    scored_one_by_one,
    scored_record,
)


def flat_surface(**overrides):
    """No gain, no interference, no noise: means equal the base points."""
    params = {
        "gain": {d.value: 0.0 for d in Dimension},
        "interference": {},
        "noise_sigma": 0.0,
    }
    params.update(overrides)
    return SurfaceParams.from_json(params)


def columns(pairs):
    """An eval set's columns from its ``(sample id, annotation)`` pairs."""
    pairs = list(pairs)
    return [sample_id for sample_id, _ in pairs], [annotation for _, annotation in pairs]


def annotations(dataset, count, slice_label="tier=a"):
    """``count`` samples of ``dataset`` that share one annotation."""
    shared = PromptAnnotation(dataset=dataset, valid=True, slice_label=slice_label, weight=1.0)
    return columns((f"{dataset.value.lower()}-{index}", shared) for index in range(count))


def eval_sets(count=10):
    return {
        Dimension.SAFE: annotations(Dataset.XGUARD, count),
        Dimension.BENIGN: annotations(Dataset.ORBENCH, count),
        Dimension.IF: annotations(Dataset.IF, count),
    }


def request_for(shares=None, seed=0, sets=None):
    manifest = None
    if shares is not None:
        # A fake manifest is overkill; dimension_means is exercised directly
        # where shares matter.  run_round tests pass manifest=None instead.
        raise AssertionError("use dimension_means for share-dependent tests")
    return BackendRequest(
        round_index=-1, manifest=manifest, eval_sets=sets or eval_sets(), seed=seed
    )


class TestSurfaceParams:
    def test_from_json_overlays_partial_maps(self):
        params = SurfaceParams.from_json({"base": {"SAFE": 3.1}})
        assert params.base[Dimension.SAFE] == 3.1
        assert params.base[Dimension.BENIGN] == 4.7  # default retained
        assert params.gain[Dimension.SAFE] == 3.0

    def test_json_roundtrip(self):
        params = SurfaceParams.from_json({"noise_sigma": 0.02, "gain": {"IF": 1.3}})
        assert SurfaceParams.from_json(params.to_json()) == params

    def test_an_empty_surface_is_the_default_one(self):
        assert SurfaceParams.from_json({}) == SurfaceParams()

    def test_interference_replaces_the_default_rows(self):
        params = SurfaceParams.from_json({"interference": {"IF": {"BENIGN": 0.5}}})
        assert params.interference == {Dimension.IF: {Dimension.BENIGN: 0.5}}

    def test_validation(self):
        with pytest.raises(ConfigError, match="base"):
            SurfaceParams.from_json({"base": {"SAFE": 0.5}})
        with pytest.raises(ConfigError, match="saturation"):
            SurfaceParams.from_json({"saturation": {"IF": 0.0}})
        with pytest.raises(ConfigError, match="noise_sigma"):
            SurfaceParams.from_json({"noise_sigma": -0.1})
        with pytest.raises(ConfigError, match="interference"):
            SurfaceParams.from_json({"interference": {"BENIGN": {"SAFE": -1.0}}})

    @pytest.mark.parametrize(
        "obj, where",
        [
            ({"base": {"SAFE": "3.1"}}, "backend.surface.base.SAFE"),
            ({"gain": {"FOO": 1.0}}, "backend.surface.gain"),
            ({"interference": {"BENIGN": {"SAFE": True}}}, "interference.BENIGN.SAFE"),
            ({"interference": {"BENIGN": [2.0]}}, "interference.BENIGN"),
            ({"noise_sigma": "0.1"}, "noise_sigma"),
        ],
    )
    def test_wrong_json_types_and_unknown_keys(self, obj, where):
        with pytest.raises(ConfigError, match=where):
            SurfaceParams.from_json(obj)


class TestSimulatorMeans:
    def test_flat_surface_returns_base_points(self):
        backend = SimulatorBackend(flat_surface())
        means = backend.dimension_means({Dataset.XGUARD: 0.5, Dataset.ORBENCH: 0.5})
        assert means == {
            Dimension.SAFE: pytest.approx(2.8),
            Dimension.BENIGN: pytest.approx(4.7),
            Dimension.IF: pytest.approx(3.4),
        }

    def test_share_equal_to_saturation_hits_closed_form(self):
        backend = SimulatorBackend()
        tau = backend.params.saturation[Dimension.IF]
        means = backend.dimension_means({Dataset.IF: tau})
        expected = 3.4 + 0.9 * (1.0 - math.exp(-1.0))
        assert means[Dimension.IF] == pytest.approx(expected)

    def test_zero_share_keeps_base_point(self):
        backend = SimulatorBackend()
        means = backend.dimension_means({Dataset.ORBENCH: 1.0})
        # SAFE keeps its base; BENIGN pays no interference without XGUARD share.
        assert means[Dimension.SAFE] == pytest.approx(2.8)

    def test_interference_pulls_benign_down(self):
        backend = SimulatorBackend()
        low = backend.dimension_means({Dataset.XGUARD: 0.2, Dataset.ORBENCH: 0.8})
        high = backend.dimension_means({Dataset.XGUARD: 0.8, Dataset.ORBENCH: 0.2})
        assert high[Dimension.SAFE] > low[Dimension.SAFE]
        assert high[Dimension.BENIGN] < low[Dimension.BENIGN]

    def test_means_come_back_unclipped(self):
        backend = SimulatorBackend()
        means = backend.dimension_means({Dataset.XGUARD: 1.0})
        assert means[Dimension.SAFE] > 5.0  # 2.8 + 3.0 * (1 - e^-10)

    @given(
        x=st.floats(0.0, 1.0, allow_nan=False),
        y=st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_safe_mean_is_monotone_in_its_own_share(self, x, y):
        backend = SimulatorBackend()
        lo, hi = sorted((x, y))
        means_lo = backend.dimension_means({Dataset.XGUARD: lo})
        means_hi = backend.dimension_means({Dataset.XGUARD: hi})
        assert means_hi[Dimension.SAFE] >= means_lo[Dimension.SAFE]


class TestSimulatorRounds:
    def test_all_scores_clipped_into_range(self):
        backend = SimulatorBackend(SurfaceParams.from_json({"noise_sigma": 2.0}))
        records = backend.run_round(request_for(seed=3))
        assert records
        for record in read_back(records):
            assert 1.0 <= record.score <= 5.0

    def test_saturated_dimension_pins_samples_at_the_boundary(self, tmp_path):
        from mixsearch.sampler import DataAction, draw_budgeted, effective_distribution

        from conftest import make_pool

        pool = make_pool(tmp_path, {"XGUARD": {"b": [10] * 20}}, window_length=10)
        action = DataAction(
            dataset_mixture=(1.0, 0.0, 0.0), bucket_weights={Dataset.XGUARD: {"b": 1.0}}
        )
        manifest = draw_budgeted(
            effective_distribution(action, pool), pool, budget_tokens=200, seed=0
        )
        backend = SimulatorBackend()
        request = BackendRequest(
            round_index=0, manifest=manifest, eval_sets=eval_sets(), seed=5
        )
        safe_scores = {
            record.score
            for record in read_back(backend.run_round(request))
            if record.dimension is Dimension.SAFE
        }
        assert safe_scores == {5.0}

    def test_stateless_across_interleaved_calls(self):
        backend = SimulatorBackend()
        first = backend.run_round(request_for(seed=1))
        backend.run_round(request_for(seed=99))  # unrelated call in between
        second = backend.run_round(request_for(seed=1))
        assert read_back(first) == read_back(second)

    def test_two_backends_agree(self):
        assert read_back(SimulatorBackend().run_round(request_for(seed=4))) == read_back(
            SimulatorBackend().run_round(request_for(seed=4))
        )

    def test_different_seeds_differ(self):
        scores = {
            seed: [r.score for r in read_back(SimulatorBackend().run_round(request_for(seed=seed)))]
            for seed in (0, 1)
        }
        assert scores[0] != scores[1]

    def test_slice_noise_shared_within_slice(self):
        sets = {
            Dimension.SAFE: annotations(Dataset.XGUARD, 40, slice_label="tier=shared"),
            Dimension.BENIGN: annotations(Dataset.ORBENCH, 2),
            Dimension.IF: annotations(Dataset.IF, 2),
        }
        backend = SimulatorBackend(
            SurfaceParams.from_json({"noise_sigma": 0.3, "gain": {d.value: 0.0 for d in Dimension}, "interference": {}})
        )
        records = [
            r for r in read_back(backend.run_round(request_for(seed=7, sets=sets)))
            if r.dimension is Dimension.SAFE
        ]
        mean = sum(r.score for r in records) / len(records)
        # The shared slice offset moves the whole group; per-sample noise
        # averages out around it.
        assert abs(mean - 2.8) > 0.01

    def test_invalid_annotations_flow_through(self):
        sets = eval_sets(4)
        sample_ids, annotations_ = sets[Dimension.BENIGN]
        tagged = [
            PromptAnnotation(
                dataset=a.dataset,
                valid=False,
                slice_label="invalid",
                weight=a.weight,
                reason="unanswerable",
            )
            for a in annotations_
        ]
        sets[Dimension.BENIGN] = (sample_ids, tagged)
        records = read_back(SimulatorBackend().run_round(request_for(seed=2, sets=sets)))
        benign = [r for r in records if r.dimension is Dimension.BENIGN]
        assert all(not r.valid and r.invalid_reason == "unanswerable" for r in benign)


class TestNoise:
    """Slice and sample noise are functions of their seed paths alone."""

    def _scores(self, sets, seed=21):
        backend = SimulatorBackend(flat_surface(noise_sigma=0.05))
        return {
            record.sample_id: record.score
            for record in read_back(backend.run_round(request_for(seed=seed, sets=sets)))
        }

    def test_a_score_ignores_the_other_samples_and_their_order(self):
        sets = {
            DIMENSION_FOR_DATASET[dataset]: columns(
                (f"{dataset.value}-{index}",
                 PromptAnnotation(dataset, True, f"tier={'abc'[index % 3]}", 1.0))
                for index in range(30)
            )
            for dataset in Dataset
        }
        scores = self._scores(sets)
        shuffled = {}
        for dimension, (sample_ids, annotations_) in sets.items():
            kept = [
                pair for index, pair in enumerate(zip(sample_ids, annotations_)) if index % 4 != 1
            ]
            random.Random(5).shuffle(kept)
            shuffled[dimension] = columns(kept)
        fewer = self._scores(shuffled)
        assert len(fewer) < len(scores)
        assert fewer == {sample_id: scores[sample_id] for sample_id in fewer}

    def test_a_slice_has_one_draw_shared_by_its_samples(self):
        sigma, seed = 0.05, 8
        sets = {
            DIMENSION_FOR_DATASET[dataset]: columns(
                (f"{dataset.value}-{index}",
                 PromptAnnotation(dataset, True, f"tier={'ab'[index % 2]}", 1.0))
                for index in range(40)
            )
            for dataset in Dataset
        }
        # Means mid-range, so no score is clipped.
        backend = SimulatorBackend(
            flat_surface(base={"SAFE": 3.0, "BENIGN": 3.0, "IF": 3.0}, noise_sigma=sigma)
        )
        base = backend.params.base
        slice_draws = {}
        for record in read_back(backend.run_round(request_for(seed=seed, sets=sets))):
            dimension = record.dimension.value
            sample = sigma * backend_module._standard_normal(
                seed_text(seed, "sample", dimension, record.sample_id)
            )
            residual = record.score - base[record.dimension] - sample
            expected = sigma * backend_module._standard_normal(
                seed_text(seed, "slice", dimension, record.slice_label)
            )
            assert residual == pytest.approx(expected, abs=6e-5)  # scores keep 4 decimals
            slice_draws[(dimension, record.slice_label)] = expected
        assert len(set(slice_draws.values())) == len(slice_draws) == 6

    def test_a_score_is_its_clipped_rounded_draw_exactly(self):
        sigma, seed = 0.5, 13
        sample_ids = ["é-1", "数据-2", "emoji-🙂-3", "pipe|4"] + [f"s-{i}" for i in range(12)]
        sets = {
            DIMENSION_FOR_DATASET[dataset]: columns(
                (sample_id, PromptAnnotation(dataset, True, f"tier={'ab'[index % 2]}", 1.0))
                for index, sample_id in enumerate(sample_ids)
            )
            for dataset in Dataset
        }
        # Means on both bounds and wide noise: scores clip to 1 and to 5.
        backend = SimulatorBackend(
            flat_surface(base={"SAFE": 1.0, "BENIGN": 5.0, "IF": 3.0}, noise_sigma=sigma)
        )
        means = backend.dimension_means({dataset: 0.0 for dataset in Dataset})
        records = read_back(backend.run_round(request_for(seed=seed, sets=sets)))
        assert len(records) == 3 * len(sample_ids)
        for record in records:
            dimension = record.dimension.value
            draw = (
                means[record.dimension]
                + sigma * backend_module._standard_normal(
                    seed_text(seed, "slice", dimension, record.slice_label)
                )
                + sigma * backend_module._standard_normal(
                    seed_text(seed, "sample", dimension, record.sample_id)
                )
            )
            assert record.score == round(min(5, max(1, draw)), 4), record.sample_id
        scores = {record.score for record in records}
        assert {1.0, 5.0} < scores

    def test_the_draw_is_a_standard_normal(self):
        draws = [
            backend_module._standard_normal(seed_text(1, "sample", "SAFE", f"id-{index}"))
            for index in range(20_000)
        ]
        assert abs(statistics.fmean(draws)) < 0.05
        assert abs(statistics.pstdev(draws) - 1.0) < 0.05


def synthetic_record(dimension, score, valid=True):
    return scored_record(
        synthetic_checks(dimension, score),
        sample_id="s",
        valid=valid,
        slice_label="tier=a",
        weight=1.0,
        synthetic=True,
    )


class TestSynthesizedRecords:
    @given(
        score=st.integers(10_000, 50_000).map(lambda ticks: ticks / 10_000),
        dimension=st.sampled_from(list(Dimension)),
        valid=st.booleans(),
    )
    def test_state_matches_recomputed_aggregation(self, score, dimension, valid):
        record = synthetic_record(dimension, score, valid)
        vector = AtomicCheckVector(dimension=record.dimension, checks=record.checks)
        assert aggregate_l2(vector) is record.l2_state
        assert record.score == score_l1(vector, record.l2_state, valid=valid).value
        assert score_checks(vector, valid=valid) == (record.l2_state, record.score)
        assert record.score == score

    @pytest.mark.parametrize("dimension", list(Dimension))
    def test_floor_scores_carry_floor_states(self, dimension):
        record = synthetic_record(dimension, 1.0)
        assert record.l2_state in (
            L2State.LEAKAGE,
            L2State.EXPLICIT_REFUSAL,
            L2State.HARD_FAIL,
        )
        assert _failed_check_ids(record)

    @pytest.mark.parametrize("dimension", list(Dimension))
    def test_top_scores_pass_everything(self, dimension):
        record = synthetic_record(dimension, 5.0)
        assert _failed_check_ids(record) == ()
        assert record.synthetic


def _failed_check_ids(record):
    return tuple(check.check_id for check in record.checks if not check.passed)


def _template_row(table, template):
    return table.scores[template], table.modes[template], table.middles[template]


def _own_and_shared(records):
    """Each sample's template columns as its record scored on its own
    gives them, and as the round shares them, in record order."""
    own = []
    for record in scored_one_by_one(records):
        table = TemplateColumns(record.dimension)
        number = table.add(record.checks, record.l2_state, record.score)
        own.append(_template_row(table, number))
    shared = [_template_row(run.table, t) for run in records.runs for t in run.templates]
    return own, shared


def _template_count(records):
    return sum(len(run.table.scores) for run in records.runs)


class TestRecordTemplates:
    """One scored template per (dimension, score, valid) gives the records
    that scoring every sample on its own gives."""

    def test_simulated_round_matches_unmemoized_records(self):
        sets = {
            DIMENSION_FOR_DATASET[dataset]: columns(
                (
                    f"{dataset.value.lower()}-{index}",
                    PromptAnnotation(
                        dataset=dataset,
                        valid=index % 3 != 0,
                        slice_label=f"tier={'abc'[index % 3]}",
                        weight=(1.0, 2.5)[index % 2],
                        reason=None if index % 3 else f"unanswerable-{index}",
                    ),
                )
                for index in range(60)
            )
            for dataset in Dataset
        }
        # Bases on both bounds and narrow noise: scores clip to 1 and 5, and
        # the unclipped ones repeat.
        backend = SimulatorBackend(
            flat_surface(base={"SAFE": 1.0, "BENIGN": 5.0, "IF": 3.0}, noise_sigma=0.0005)
        )
        records = backend.run_round(request_for(seed=11, sets=sets))
        assert len(records) == 180
        own, shared = _own_and_shared(records)
        assert shared == own
        assert read_back(records) == scored_one_by_one(records)
        assert {1.0, 5.0} <= {record.score for record in read_back(records)}
        assert {record.valid for record in read_back(records)} == {True, False}
        assert _template_count(records) < len(records)

    def test_a_shared_template_yields_the_record_its_fields_construct(self):
        shared = PromptAnnotation(Dataset.ORBENCH, True, "tier=a", 1.0)
        other = PromptAnnotation(Dataset.ORBENCH, True, "tier=b", 2.5, reason="unanswerable")
        records = SimulatorBackend(flat_surface()).run_round(
            request_for(sets={
                Dimension.SAFE: annotations(Dataset.XGUARD, 1),
                Dimension.BENIGN: (["a", "b"], [shared, other]),
                Dimension.IF: annotations(Dataset.IF, 1),
            })
        )
        assert list(records.runs[1].templates) == [0, 0]
        template = synthetic_record(Dimension.BENIGN, 4.7)
        constructed = SampleRecord(
            sample_id="b",
            dimension=Dimension.BENIGN,
            valid=True,
            slice_label="tier=b",
            weight=2.5,
            checks=template.checks,
            l2_state=template.l2_state,
            score=template.score,
            invalid_reason="unanswerable",
            synthetic=True,
        )
        yielded = [
            record for record in read_back(records) if record.dimension is Dimension.BENIGN
        ]
        assert all(type(record) is SampleRecord for record in yielded)
        assert yielded == [
            dataclasses.replace(
                constructed, sample_id="a", slice_label="tier=a", weight=1.0, invalid_reason=None
            ),
            constructed,
        ]

    def test_replay_round_matches_unmemoized_records(self, fixture):
        backend = ReplayBackend(fixture)
        records = backend.run_round(
            BackendRequest(round_index=2, manifest=None, eval_sets={}, seed=0)
        )
        assert len(records) == 3 * 30
        own, shared = _own_and_shared(records)
        assert shared == own
        assert read_back(records) == scored_one_by_one(records)
        assert _template_count(records) < len(records)

    def test_columns_hold_no_object_per_sample(self):
        """Without noise each dimension has one template, and holding a
        round's result adds fewer than 100 tracked objects, for 200
        samples per dimension as for 20,000.  Round over round, the
        templates the backend carries add none."""
        backend = SimulatorBackend(flat_surface())
        added, held = {}, []
        for count in (200, 20_000):
            request = request_for(sets=eval_sets(count))
            gc.collect()
            before = len(gc.get_objects())
            held.append(backend.run_round(request))
            gc.collect()
            added[count] = len(gc.get_objects()) - before
            assert len(held[-1]) == 3 * count
        assert max(added.values()) < 100, added
        assert [_template_count(records) for records in held] == [3, 3]
        held.clear()
        tracked = []
        for seed in range(5):
            backend.run_round(request)
            gc.collect()
            tracked.append(len(gc.get_objects()))
        assert max(tracked) <= tracked[0], tracked


class _Shares:
    """A manifest stand-in: the simulator reads only its token shares."""

    def __init__(self, shares):
        self.shares = shares

    def dataset_token_shares(self):
        return dict(self.shares)


def mixed_sets(slices=3, per_slice=40):
    """Per dimension, ``per_slice`` samples in each of ``slices`` slices,
    every third sample invalid."""
    return {
        DIMENSION_FOR_DATASET[dataset]: columns(
            (
                f"{dataset.value.lower()}-{index}",
                PromptAnnotation(
                    dataset, index % 3 != 0, f"tier={index % slices}", 1.0 + index % 2
                ),
            )
            for index in range(slices * per_slice)
        )
        for dataset in Dataset
    }


def _table_columns(table):
    return table.dimension, table.scores, table.modes, table.middles


# Bases on both bounds and narrow noise: keys repeat from round to round.
CARRY_SURFACE = flat_surface(base={"SAFE": 5.0, "BENIGN": 1.0, "IF": 3.0}, noise_sigma=0.002)


class TestTemplateCarry:
    """A round copies the templates its backend's last round holds, and
    gives the records a fresh backend gives."""

    def _round(self, backend, seed):
        return backend.run_round(
            BackendRequest(round_index=0, manifest=None, eval_sets=mixed_sets(), seed=seed)
        )

    @pytest.mark.parametrize(
        "earlier_surface",
        [CARRY_SURFACE,
         flat_surface(base={"SAFE": 4.999, "BENIGN": 1.002, "IF": 3.001}, noise_sigma=0.003)],
        ids=["same-surface", "other-surface"],
    )
    def test_a_round_after_another_equals_a_fresh_backend_round(self, earlier_surface, tmp_path):
        backend = SimulatorBackend(earlier_surface)
        earlier = self._round(backend, seed=1)
        backend.params = CARRY_SURFACE
        carried = self._round(backend, seed=2)
        fresh = self._round(SimulatorBackend(CARRY_SURFACE), seed=2)
        assert [list(run.templates) for run in carried.runs] == [
            list(run.templates) for run in fresh.runs
        ]
        assert [_table_columns(run.table) for run in carried.runs] == [
            _table_columns(run.table) for run in fresh.runs
        ]
        write_records(tmp_path / "carried.jsonl", carried)
        write_records(tmp_path / "fresh.jsonl", fresh)
        assert (tmp_path / "carried.jsonl").read_bytes() == (tmp_path / "fresh.jsonl").read_bytes()
        # Some templates are the earlier round's objects, and some are new.
        for before, after in zip(earlier.runs, carried.runs):
            earlier_middles = {id(middle) for middle in before.table.middles}
            copied = sum(id(middle) in earlier_middles for middle in after.table.middles)
            assert 0 < copied < len(after.table.middles), after.dimension

    def test_the_backend_holds_one_earlier_table_per_dimension(self):
        backend = SimulatorBackend(CARRY_SURFACE)
        for seed in range(3):
            records = self._round(backend, seed)
        held = backend._last_round
        assert list(held) == list(DIMENSION_ORDER)
        for run in records.runs:
            assert held[run.dimension].table is run.table
            assert held[run.dimension].previous is None


class TestClipShortcut:
    """A slice whose every sample clips to a bound draws no sample noise,
    and its samples get the scores their draws would give."""

    def test_no_deviate_exceeds_the_largest(self):
        extreme_low = b"\xff" * 8
        assert backend_module._deviate(bytes(8) + extreme_low) == backend_module._MAX_DEVIATE
        assert backend_module._deviate(
            (2**63).to_bytes(8, "big") + extreme_low
        ) == -backend_module._MAX_DEVIATE

    def test_the_largest_noise_allowed_keeps_every_score_in_range(self):
        """The largest ``noise_sigma`` whose reach is a finite float runs a
        round: centres and draws overflow to infinities, never to NaN, and
        every score clips into [1, 5].  The next float up is refused."""
        reach = backend_module._MAX_DEVIATE
        sigma = sys.float_info.max / reach
        while not math.isfinite(sigma * reach):
            sigma = math.nextafter(sigma, 0.0)
        while math.isfinite(math.nextafter(sigma, math.inf) * reach):
            sigma = math.nextafter(sigma, math.inf)
        with pytest.raises(ConfigError, match="noise_sigma must be below"):
            SurfaceParams.from_json({"noise_sigma": math.nextafter(sigma, math.inf)})
        backend = SimulatorBackend(SurfaceParams.from_json({"noise_sigma": sigma}))
        records = backend.run_round(
            BackendRequest(round_index=0, manifest=None, eval_sets=mixed_sets(), seed=27)
        )
        scores = {run.table.scores[template] for run in records.runs for template in run.templates}
        assert scores == {1.0, 5.0}

    def test_every_score_is_its_seed_path_draw(self, monkeypatch):
        deviate = backend_module._deviate
        drawn = set()

        def recording(digest):
            drawn.add(digest)
            return deviate(digest)

        monkeypatch.setattr(backend_module, "_deviate", recording)

        def digest(*path):
            return hashlib.blake2b(seed_text(*path).encode("utf-8"), digest_size=16).digest()

        # All tokens on XGUARD: SAFE's mean is base + gain, BENIGN's is its
        # base less its interference, and IF's is its base.
        shares = _Shares({Dataset.XGUARD: 1.0, Dataset.ORBENCH: 0.0, Dataset.IF: 0.0})
        sets = mixed_sets(slices=8, per_slice=6)
        rng = random.Random(26)
        paths = set()
        for trial in range(40):
            sigma = 0.0 if trial % 4 == 0 else rng.uniform(0.01, 0.4)
            reach = sigma * 8.57  # about the largest sample noise
            # Slice centres on both sides of 5 + reach and of 1 - reach, or
            # between the bound and that.
            if trial % 2:
                safe_offset, benign_offset = (
                    reach + rng.uniform(-2.0, 2.0) * (sigma or 0.01) for _ in "ab"
                )
            else:
                safe_offset, benign_offset = (rng.uniform(0.0, reach) for _ in "ab")
            safe, benign = 5.0 + safe_offset, 1.0 - benign_offset
            backend = SimulatorBackend(SurfaceParams.from_json({
                "base": {"SAFE": 4.0, "BENIGN": 5.0, "IF": rng.uniform(1.0, 5.0)},
                "gain": {"SAFE": safe - 4.0, "BENIGN": 0.0, "IF": 0.0},
                "saturation": {"SAFE": 1e-6},
                "interference": {"BENIGN": {"SAFE": 5.0 - benign}},
                "noise_sigma": sigma,
            }))
            seed = rng.randrange(2**32)
            drawn.clear()
            records = backend.run_round(
                BackendRequest(round_index=0, manifest=shares, eval_sets=sets, seed=seed)
            )
            means = backend.dimension_means(shares.dataset_token_shares())
            for run in records.runs:
                dimension = run.dimension.value
                for sample_id, annotation, template in zip(
                    run.sample_ids, run.annotations, run.templates
                ):
                    sample = digest(seed, "sample", dimension, sample_id)
                    slice_ = digest(seed, "slice", dimension, annotation.slice_label)
                    score = means[run.dimension] + sigma * deviate(slice_) + sigma * deviate(sample)
                    expected = round(min(5.0, max(1.0, score)), 4)
                    assert run.table.scores[template] == expected, (trial, sample_id)
                    paths.add((sample in drawn, expected if expected in (1.0, 5.0) else None))
        assert paths == {
            (False, 1.0), (False, 5.0), (True, 1.0), (True, 5.0), (True, None)
        }


@pytest.fixture(scope="module")
def fixture():
    return load_replay_fixture(default_fixture_path())


class TestReplayBackend:
    @pytest.mark.parametrize("label", list(REPLAY_TRAJECTORY))
    def test_round_means_match_recorded_trajectory(self, fixture, label):
        backend = ReplayBackend(fixture)
        round_index = -1 if label == "base" else int(label)
        request = BackendRequest(
            round_index=round_index, manifest=None, eval_sets={}, seed=0
        )
        records = backend.run_round(request)
        metric = metric_vector(records)
        expected = REPLAY_TRAJECTORY[label]
        assert tuple(round(v, 4) for v in metric.as_tuple()) == expected

    def test_a_point_replays_its_own_fixture_row(self, fixture):
        # Round i replays fixture.rounds[i] and the base point fixture.base;
        # each sample id names the row it came from.
        backend = ReplayBackend(fixture)
        for round_index, point, metrics in [
            (-1, "base", fixture.base),
            *((index, str(index), row.metrics) for index, row in enumerate(fixture.rounds)),
        ]:
            records = backend.run_round(
                BackendRequest(round_index=round_index, manifest=None, eval_sets={}, seed=0)
            )
            assert metric_vector(records).as_tuple() == pytest.approx(metrics.as_tuple())
            ids = [record.sample_id for record in read_back(records)]
            assert all(sample_id.startswith(f"replay-{point}-") for sample_id in ids)

    def test_round_action_carries_mixture_and_focus(self, fixture):
        action = fixture.rounds[2].action
        assert action.dataset_mixture == pytest.approx(REPLAY_MIXTURES["2"])
        assert action.bucket_weights == {}  # the fixture records none
        assert [criterion.label for criterion in action.focus_criteria] == [
            "SAFE:complexity=HIGH:no_step_disclosure"
        ]
        assert [len(fixture.rounds[index].action.focus_criteria) for index in range(5)] == [
            0, 1, 1, 1, 2
        ]

    def test_base_row_has_no_action(self, fixture):
        # The base point is its metrics alone; only numbered rows are rounds.
        assert isinstance(fixture.base, MetricVector)
        assert len(fixture.rounds) == len(REPLAY_MIXTURES)

    def test_scores_stay_in_range_for_extreme_rows(self, fixture):
        backend = ReplayBackend(fixture)
        for round_index in (-1, 0, 1, 2, 3, 4):
            request = BackendRequest(
                round_index=round_index, manifest=None, eval_sets={}, seed=0
            )
            for record in read_back(backend.run_round(request)):
                assert 1.0 <= record.score <= 5.0

