"""Adaptive KD-Tree: cracking behaviour, minimal refinement, tau handling."""

import numpy as np
import pytest

from repro import (
    AdaptiveKDTree,
    CostModel,
    FullScan,
    InvalidParameterError,
    MachineProfile,
    RangeQuery,
)
from repro.workloads.patterns import sequential_queries, uniform_queries
from tests.conftest import assert_correct, make_queries, make_uniform_table


def internal_nodes(tree):
    """``(dim, key, size)`` of every internal node, read off the arena."""
    arena = tree.arena
    return [
        (dim, arena.keys[node], arena.his[node] - arena.los[node])
        for node, dim in enumerate(arena.dims)
        if dim >= 0
    ]


class TestCorrectness:
    def test_uniform(self, small_table, small_queries):
        index = AdaptiveKDTree(small_table, size_threshold=64)
        assert_correct(index, small_table, small_queries)

    def test_duplicates(self, duplicate_table):
        queries = make_queries(duplicate_table, 20, width_fraction=0.3, seed=1)
        index = AdaptiveKDTree(duplicate_table, size_threshold=32)
        assert_correct(index, duplicate_table, queries)

    def test_constant_column(self, constant_column_table):
        queries = [
            RangeQuery([10.0, 40.0, 10.0], [60.0, 50.0, 60.0]),
            RangeQuery([0.0, 42.0, 0.0], [99.0, 99.0, 99.0]),  # low == value
            RangeQuery([0.0, 0.0, 0.0], [99.0, 41.0, 99.0]),  # excludes all
        ]
        index = AdaptiveKDTree(constant_column_table, size_threshold=32)
        assert_correct(index, constant_column_table, queries)

    def test_repeated_identical_query(self, small_table, small_queries):
        index = AdaptiveKDTree(small_table, size_threshold=64)
        first = np.sort(index.query(small_queries[0]).row_ids)
        for _ in range(3):
            again = np.sort(index.query(small_queries[0]).row_ids)
            assert np.array_equal(first, again)

    def test_tree_validates_after_every_query(self, small_table, small_queries):
        index = AdaptiveKDTree(small_table, size_threshold=64)
        for query in small_queries[:8]:
            index.query(query)
            index.tree.validate(index.index_table.columns)

    def test_tiny_table(self):
        table = make_uniform_table(10, 2, seed=0)
        queries = make_queries(table, 5, width_fraction=0.5, seed=1)
        assert_correct(AdaptiveKDTree(table, size_threshold=4), table, queries)


class TestAdaptationBehaviour:
    def test_initializes_on_first_query(self, small_table, small_queries):
        index = AdaptiveKDTree(small_table, size_threshold=64)
        assert index.index_table is None
        stats = index.query(small_queries[0]).stats
        assert index.index_table is not None
        assert stats.phase_seconds["initialization"] > 0.0
        # Initialization copies the whole table (d columns + rowids).
        assert stats.copied >= small_table.n_rows * small_table.n_columns

    def test_adaptation_uses_predicates_as_pivots(self, small_table):
        index = AdaptiveKDTree(small_table, size_threshold=64)
        query = RangeQuery([100.0, 200.0, 300.0], [900.0, 800.0, 700.0])
        index.query(query)
        keys = {(dim, key) for dim, key, _ in internal_nodes(index.tree)}
        # All first-query pivots come from the query bounds.
        expected = {(d, v) for d, v in query.adaptation_pairs()}
        assert keys <= expected
        assert keys  # and some adaptation happened

    def test_minimal_indexing_leaves_cold_regions_coarse(self, small_table):
        # Only pieces that may answer the query get refined: a second
        # query far away from the first forces fresh adaptation.
        index = AdaptiveKDTree(small_table, size_threshold=16)
        span = small_table.n_rows
        low_query = RangeQuery([0.0] * 3, [span * 0.05] * 3)
        high_query = RangeQuery([span * 0.9] * 3, [span * 0.95] * 3)
        index.query(low_query)
        nodes_after_first = index.node_count
        stats = index.query(high_query).stats
        assert stats.nodes_created > 0
        assert index.node_count > nodes_after_first

    def test_size_threshold_respected(self, small_table, small_queries):
        index = AdaptiveKDTree(small_table, size_threshold=256)
        for query in small_queries:
            index.query(query)
        # No split may produce pieces from a parent at or below threshold,
        # i.e. every internal node's range was above the threshold.
        for _, __, size in internal_nodes(index.tree):
            assert size > 256

    def test_never_converges_flag_without_full_refinement(
        self, small_table, small_queries
    ):
        index = AdaptiveKDTree(small_table, size_threshold=64)
        for query in small_queries[:3]:
            index.query(query)
        assert not index.converged

    def test_sequential_workload_degenerates_tree(self):
        # The paper's AKD worst case: the KD-Tree approaches a linked list.
        table = make_uniform_table(4_000, 2, seed=20)
        queries = sequential_queries(table, 40, 0.0005, seed=21)
        index = AdaptiveKDTree(table, size_threshold=16)
        for query in queries:
            index.query(query)
        height = index.tree.height()
        assert height > 25  # close to one level per query bound

    def test_uniform_workload_stays_shallow(self):
        table = make_uniform_table(4_000, 2, seed=22)
        queries = uniform_queries(table, 40, 0.01, seed=23)
        index = AdaptiveKDTree(table, size_threshold=16)
        for query in queries:
            index.query(query)
        assert index.tree.height() < 40

    def test_adaptation_work_shrinks_over_time(self, small_table):
        queries = make_queries(small_table, 40, width_fraction=0.1, seed=30)
        index = AdaptiveKDTree(small_table, size_threshold=64)
        works = [index.query(q).stats.indexing_work for q in queries]
        assert sum(works[20:]) < sum(works[:20])


class TestInteractivityThreshold:
    def _model(self, table):
        return CostModel(
            MachineProfile.deterministic(), table.n_rows, table.n_columns
        )

    def test_preprocesses_when_scan_exceeds_tau(self):
        table = make_uniform_table(20_000, 3, seed=31)
        model = self._model(table)
        tau = model.full_scan_seconds() / 4
        index = AdaptiveKDTree(table, size_threshold=64, tau=tau, cost_model=model)
        queries = make_queries(table, 5, seed=32)
        first = index.query(queries[0]).stats
        assert first.nodes_created > 0
        # After pre-processing, every piece scans under tau.
        for leaf in index.tree.iter_leaves():
            assert model.scan_seconds(leaf.size * table.n_columns) <= tau

    def test_no_preprocessing_when_scan_fits(self):
        table = make_uniform_table(2_000, 3, seed=33)
        model = self._model(table)
        tau = model.full_scan_seconds() * 10
        index = AdaptiveKDTree(table, size_threshold=64, tau=tau, cost_model=model)
        query = RangeQuery([0.0] * 3, [1.0] * 3)
        stats = index.query(query).stats
        # Only the query's own pivots (if any) — no mean-pivot pre-build.
        keys_from_query = {v for _, v in query.adaptation_pairs()}
        for _, key, __ in internal_nodes(index.tree):
            assert key in keys_from_query

    def test_correct_with_preprocessing(self):
        table = make_uniform_table(5_000, 2, seed=34)
        model = self._model(table)
        index = AdaptiveKDTree(
            table,
            size_threshold=32,
            tau=model.full_scan_seconds() / 8,
            cost_model=model,
        )
        assert_correct(index, table, make_queries(table, 10, seed=35))

    def test_invalid_parameters(self, small_table):
        with pytest.raises(InvalidParameterError):
            AdaptiveKDTree(small_table, size_threshold=0)
        with pytest.raises(InvalidParameterError):
            AdaptiveKDTree(small_table, tau=-1.0)


class TestVsFullScan:
    def test_total_work_beats_fullscan_on_repetitive_workload(self):
        table = make_uniform_table(8_000, 2, seed=40)
        rng_queries = make_queries(table, 60, width_fraction=0.05, seed=41)
        akd = AdaptiveKDTree(table, size_threshold=64)
        fs = FullScan(table)
        akd_work = sum(akd.query(q).stats.work for q in rng_queries)
        fs_work = sum(fs.query(q).stats.work for q in rng_queries)
        assert akd_work < fs_work


class TestHighDimensional:
    def test_sixteen_dims(self):
        table = make_uniform_table(800, 16, seed=7)
        queries = make_queries(table, 6, width_fraction=0.6, seed=8)
        assert_correct(AdaptiveKDTree(table, size_threshold=64), table, queries)

    def test_adaptation_pairs_cover_all_dims(self):
        table = make_uniform_table(1_000, 5, seed=9)
        index = AdaptiveKDTree(table, size_threshold=16)
        query = make_queries(table, 1, width_fraction=0.5, seed=10)[0]
        index.query(query)
        dims_split = {dim for dim, _, __ in internal_nodes(index.tree)}
        assert dims_split == set(range(5))
