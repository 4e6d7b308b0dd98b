"""Progressive KD-Tree: budgets, phases, deterministic convergence."""

import numpy as np
import pytest

from repro import (
    AverageKDTree,
    CostModel,
    InvalidParameterError,
    MachineProfile,
    ProgressiveKDTree,
    RangeQuery,
    Table,
)
from repro.core.progressive_kdtree import CONVERGED, CREATION, REFINEMENT
from tests.conftest import assert_correct, make_queries, make_uniform_table


def drive_to_convergence(index, queries, max_rounds=200):
    """Replay queries (cycling) until the index converges."""
    count = 0
    while not index.converged:
        index.query(queries[count % len(queries)])
        count += 1
        assert count < max_rounds, "index failed to converge"
    return count


class TestCorrectness:
    @pytest.mark.parametrize("delta", [0.05, 0.2, 0.5, 1.0])
    def test_correct_at_every_stage(self, small_table, small_queries, delta):
        index = ProgressiveKDTree(small_table, delta=delta, size_threshold=64)
        assert_correct(index, small_table, small_queries)

    def test_correct_on_duplicates(self, duplicate_table):
        queries = make_queries(duplicate_table, 30, width_fraction=0.3, seed=2)
        index = ProgressiveKDTree(duplicate_table, delta=0.15, size_threshold=32)
        assert_correct(index, duplicate_table, queries)

    def test_correct_on_constant_column(self, constant_column_table):
        queries = [
            RangeQuery([10.0, 40.0, 10.0], [60.0, 50.0, 60.0]),
            RangeQuery([5.0, 0.0, 5.0], [95.0, 41.9, 95.0]),
        ] * 10
        index = ProgressiveKDTree(
            constant_column_table, delta=0.2, size_threshold=32
        )
        assert_correct(index, constant_column_table, queries)

    def test_correct_when_first_column_constant(self):
        rng = np.random.default_rng(5)
        table = Table([np.full(1_000, 3.0), rng.random(1_000) * 100])
        queries = [
            RangeQuery([2.0, 10.0 + i], [4.0, 30.0 + i]) for i in range(25)
        ]
        index = ProgressiveKDTree(table, delta=0.3, size_threshold=32)
        assert_correct(index, table, queries)

    def test_correct_after_convergence(self, small_table, small_queries):
        index = ProgressiveKDTree(small_table, delta=0.5, size_threshold=64)
        drive_to_convergence(index, small_queries)
        assert_correct(index, small_table, small_queries)


class TestPhases:
    def test_starts_in_creation(self, small_table):
        index = ProgressiveKDTree(small_table, delta=0.25, size_threshold=64)
        assert index.phase == CREATION

    def test_creation_copies_delta_fraction_per_query(self, small_table):
        index = ProgressiveKDTree(small_table, delta=0.25, size_threshold=64)
        queries = make_queries(small_table, 6, seed=3)
        expected = int(round(0.25 * small_table.n_rows))
        for i in range(3):
            index.query(queries[i])
            assert index.rows_copied == min((i + 1) * expected, small_table.n_rows)

    def test_creation_finishes_after_ceil_inverse_delta_queries(self, small_table):
        index = ProgressiveKDTree(small_table, delta=0.34, size_threshold=64)
        queries = make_queries(small_table, 5, seed=4)
        for i in range(3):
            assert index.phase == CREATION
            index.query(queries[i])
        assert index.phase in (REFINEMENT, CONVERGED)

    def test_each_base_row_copied_exactly_once(self, small_table):
        index = ProgressiveKDTree(small_table, delta=0.4, size_threshold=64)
        queries = make_queries(small_table, 4, seed=5)
        for i in range(3):
            index.query(queries[i])
        rowids = np.sort(index.index_table.rowids)
        assert np.array_equal(rowids, np.arange(small_table.n_rows))

    def test_delta_one_finishes_creation_in_one_query(self, small_table):
        index = ProgressiveKDTree(small_table, delta=1.0, size_threshold=64)
        index.query(make_queries(small_table, 1, seed=6)[0])
        assert index.rows_copied == small_table.n_rows
        assert index.phase in (REFINEMENT, CONVERGED)

    def test_first_query_cost_scales_with_delta(self, small_table):
        query = make_queries(small_table, 1, seed=7)[0]
        small = ProgressiveKDTree(small_table, delta=0.1, size_threshold=64)
        large = ProgressiveKDTree(small_table, delta=1.0, size_threshold=64)
        work_small = small.query(query).stats.indexing_work
        work_large = large.query(query).stats.indexing_work
        assert work_large > 5 * work_small

    def test_refinement_budget_bounded(self, small_table, small_queries):
        delta = 0.2
        index = ProgressiveKDTree(small_table, delta=delta, size_threshold=64)
        budget_rows = delta * small_table.n_rows
        d = small_table.n_columns
        for query in small_queries * 5:
            stats = index.query(query).stats
            if index.converged:
                break
            # swapped counts element visits across d+1 arrays; allow the
            # one-row overshoot the partitioner needs for progress.
            assert stats.swapped <= (budget_rows + len(small_queries)) * (d + 1) * 1.2

    def test_no_indexing_after_convergence(self, small_table, small_queries):
        index = ProgressiveKDTree(small_table, delta=0.5, size_threshold=64)
        drive_to_convergence(index, small_queries)
        stats = index.query(small_queries[0]).stats
        assert stats.indexing_work == 0
        assert stats.nodes_created == 0
        assert stats.delta_used is None  # the converged reader spends nothing


class TestConvergence:
    def test_converges(self, small_table, small_queries):
        index = ProgressiveKDTree(small_table, delta=0.3, size_threshold=64)
        drive_to_convergence(index, small_queries)
        assert index.phase == CONVERGED
        assert index.converged

    def test_all_leaves_below_threshold(self, small_table, small_queries):
        index = ProgressiveKDTree(small_table, delta=0.3, size_threshold=64)
        drive_to_convergence(index, small_queries)
        for leaf in index.tree.iter_leaves():
            assert leaf.size <= 64 or leaf.converged

    def test_tree_validates_throughout(self, small_table, small_queries):
        index = ProgressiveKDTree(small_table, delta=0.15, size_threshold=64)
        for query in small_queries * 3:
            index.query(query)
            if index.tree is not None:
                index.tree.validate(index.index_table.columns)
            if index.converged:
                break

    def test_smaller_delta_converges_later(self, small_table, small_queries):
        fast = ProgressiveKDTree(small_table, delta=0.5, size_threshold=64)
        slow = ProgressiveKDTree(small_table, delta=0.1, size_threshold=64)
        fast_queries = drive_to_convergence(fast, small_queries)
        slow_queries = drive_to_convergence(slow, small_queries, max_rounds=500)
        assert slow_queries > fast_queries

    def test_number_of_creation_queries_independent_of_dims(self):
        # delta fixes a fraction of N per query, so dimensionality must not
        # change how many queries the creation phase takes.
        for d in (2, 4):
            table = make_uniform_table(2_000, d, seed=d)
            index = ProgressiveKDTree(table, delta=0.25, size_threshold=64)
            queries = make_queries(table, 10, seed=d + 1)
            count = 0
            while index.phase == CREATION:
                index.query(queries[count % len(queries)])
                count += 1
            assert count == 4

    def test_converged_structure_matches_average_kdtree(self):
        # On integer-valued data, sums are exact, so the progressive
        # mean-pivot refinement must produce the same pieces as AvgKD.
        rng = np.random.default_rng(11)
        table = Table.from_matrix(
            rng.integers(0, 1_000, size=(2_000, 2)).astype(float)
        )
        queries = make_queries(table, 10, width_fraction=0.2, seed=12)
        progressive = ProgressiveKDTree(table, delta=0.5, size_threshold=64)
        drive_to_convergence(progressive, queries)
        eager = AverageKDTree(table, size_threshold=64)
        eager.query(queries[0])
        progressive_pieces = sorted(
            (leaf.start, leaf.end) for leaf in progressive.tree.iter_leaves()
        )
        eager_pieces = sorted(
            (leaf.start, leaf.end) for leaf in eager.tree.iter_leaves()
        )
        assert progressive_pieces == eager_pieces

    def test_constant_table_converges_immediately_after_creation(self):
        table = Table([np.full(500, 1.0), np.full(500, 2.0)])
        index = ProgressiveKDTree(table, delta=0.5, size_threshold=64)
        queries = [RangeQuery([0.0, 0.0], [5.0, 5.0])] * 20
        drive_to_convergence(index, queries, max_rounds=30)


class TestInteractivityThreshold:
    def test_tau_caps_delta_when_scan_fits(self):
        table = make_uniform_table(10_000, 2, seed=13)
        model = CostModel(MachineProfile.deterministic(), table.n_rows, 2)
        tau = model.full_scan_seconds() * 1.2  # little headroom
        index = ProgressiveKDTree(
            table, delta=0.9, size_threshold=64, tau=tau, cost_model=model
        )
        stats = index.query(make_queries(table, 1, seed=14)[0]).stats
        assert stats.delta_used < 0.9  # capped below the user delta

    def test_tau_ignored_while_scan_exceeds_it(self):
        table = make_uniform_table(10_000, 2, seed=15)
        model = CostModel(MachineProfile.deterministic(), table.n_rows, 2)
        tau = model.full_scan_seconds() / 10
        index = ProgressiveKDTree(
            table, delta=0.3, size_threshold=64, tau=tau, cost_model=model
        )
        stats = index.query(make_queries(table, 1, seed=16)[0]).stats
        assert stats.delta_used == pytest.approx(0.3, rel=0.01)


class TestValidation:
    def test_invalid_delta(self, small_table):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(InvalidParameterError):
                ProgressiveKDTree(small_table, delta=bad)

    def test_invalid_threshold(self, small_table):
        with pytest.raises(InvalidParameterError):
            ProgressiveKDTree(small_table, size_threshold=0)

    def test_invalid_tau(self, small_table):
        with pytest.raises(InvalidParameterError):
            ProgressiveKDTree(small_table, tau=0.0)
