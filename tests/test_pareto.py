"""Dominance relation and non-dominated archive semantics."""
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixsearch.pareto import ParetoArchive, dominates
from mixsearch.profiles import MetricVector
from mixsearch.oracles.dominance_enum import non_dominated, strictly_better

from conftest import REPLAY_FRONTIER, REPLAY_TRAJECTORY, trajectory_vector

scores = st.floats(min_value=1.0, max_value=5.0).map(lambda v: round(v, 4))
vectors = st.builds(
    MetricVector, safe=scores, benign=scores, if_score=scores
)


class TestDominates:
    def test_round_1_dominates_round_0(self):
        assert dominates(trajectory_vector("1"), trajectory_vector("0"))

    def test_base_and_round_2_incomparable(self):
        assert not dominates(trajectory_vector("base"), trajectory_vector("2"))
        assert not dominates(trajectory_vector("2"), trajectory_vector("base"))

    def test_round_4_dominates_round_3(self):
        assert dominates(trajectory_vector("4"), trajectory_vector("3"))

    def test_identical_vectors_do_not_dominate(self):
        v = trajectory_vector("2")
        assert not dominates(v, v)

    def test_exact_on_fourth_decimal(self):
        a = MetricVector(3.0001, 3.0, 3.0)
        b = MetricVector(3.0000, 3.0, 3.0)
        assert dominates(a, b)
        assert not dominates(b, a)

    @given(vectors, vectors)
    def test_matches_enumeration_oracle(self, a, b):
        assert dominates(a, b) == strictly_better(a.as_tuple(), b.as_tuple())

    @given(vectors, vectors)
    def test_antisymmetry(self, a, b):
        assert not (dominates(a, b) and dominates(b, a))

    @given(vectors)
    def test_irreflexivity(self, v):
        assert not dominates(v, v)

    @given(vectors, vectors, vectors)
    def test_transitivity(self, a, b, c):
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)


class TestArchive:
    def test_insert_into_empty_accepts(self):
        archive = ParetoArchive()
        verdict = archive.insert("base", trajectory_vector("base"))
        assert verdict.status == "ACCEPTED"
        assert archive.labels() == ("base",)

    def test_trajectory_in_round_order(self):
        archive = ParetoArchive()
        for label in REPLAY_TRAJECTORY:
            archive.insert(label, trajectory_vector(label))
        assert sorted(archive.labels()) == sorted(REPLAY_FRONTIER)

    def test_dominated_insert_leaves_archive_unchanged(self):
        archive = ParetoArchive()
        archive.insert("1", trajectory_vector("1"))
        before = archive.labels()
        verdict = archive.insert("0", trajectory_vector("0"))
        assert verdict.status == "DOMINATED"
        assert archive.labels() == before

    def test_replacement_reports_displaced_labels(self):
        archive = ParetoArchive()
        archive.insert("0", trajectory_vector("0"))
        verdict = archive.insert("1", trajectory_vector("1"))
        assert verdict.status == "REPLACES"
        assert verdict.replaced == ("0",)
        assert archive.labels() == ("1",)

    def test_duplicate_label_rejected(self):
        archive = ParetoArchive()
        archive.insert("x", trajectory_vector("0"))
        with pytest.raises(ValueError, match="label"):
            archive.insert("x", trajectory_vector("1"))

    def test_permutation_stability_all_orders(self):
        labeled = [(label, trajectory_vector(label)) for label in REPLAY_TRAJECTORY]
        expected = None
        for order in itertools.permutations(labeled):
            archive = ParetoArchive()
            for label, vector in order:
                archive.insert(label, vector)
            result = tuple(sorted(archive.labels()))
            expected = expected or result
            assert result == expected
        assert expected == tuple(sorted(REPLAY_FRONTIER))

    @given(st.lists(vectors, min_size=1, max_size=8))
    def test_matches_naive_non_dominated_filter(self, vs):
        archive = ParetoArchive()
        for index, vector in enumerate(vs):
            archive.insert(str(index), vector)
        kept = {vs[int(label)].as_tuple() for label in archive.labels()}
        oracle_labels = non_dominated(
            {str(index): v.as_tuple() for index, v in enumerate(vs)}
        )
        oracle = {vs[int(label)].as_tuple() for label in oracle_labels}
        assert kept == oracle

    @given(st.lists(vectors, min_size=1, max_size=8))
    def test_no_entry_dominates_another(self, vs):
        archive = ParetoArchive()
        for index, vector in enumerate(vs):
            archive.insert(str(index), vector)
        for a, b in itertools.permutations(archive.labels(), 2):
            assert not dominates(vs[int(a)], vs[int(b)])

    def test_snapshot_rows_carry_events_and_frontier(self):
        archive = ParetoArchive()
        for label in REPLAY_TRAJECTORY:
            archive.insert(label, trajectory_vector(label))
        rows = archive.snapshot_rows()
        kinds = [row["kind"] for row in rows]
        assert kinds.count("insert") == 6
        assert kinds[-1] == "frontier"
        assert sorted(rows[-1]["labels"]) == sorted(REPLAY_FRONTIER)
