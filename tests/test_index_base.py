"""BaseIndex plumbing: QueryResult, IndexTable, validation."""

import numpy as np
import pytest

from repro import (
    AdaptiveKDTree,
    FullScan,
    IndexTable,
    InvalidQueryError,
    RangeQuery,
    Table,
)
from repro.core.kdtree import KDTree
from repro.core.metrics import QueryStats
from tests.conftest import make_queries, make_uniform_table


class TestQueryResult:
    def test_count_and_checksum(self, small_table, small_queries):
        result = FullScan(small_table).query(small_queries[0])
        assert result.count == result.row_ids.size
        assert result.checksum() == int(result.row_ids.sum())

    def test_empty_checksum(self, small_table):
        query = RangeQuery([0.0] * 3, [0.0] * 3)
        result = FullScan(small_table).query(query)
        assert result.count == 0
        assert result.checksum() == 0

    def test_sorted_ids(self, small_table, small_queries):
        result = AdaptiveKDTree(small_table, size_threshold=64).query(
            small_queries[0]
        )
        ids = result.sorted_ids()
        assert np.array_equal(ids, np.sort(ids))

    def test_stats_result_count_synced(self, small_table, small_queries):
        result = FullScan(small_table).query(small_queries[0])
        assert result.stats.result_count == result.count

    def test_repr(self, small_table, small_queries):
        assert "rows" in repr(FullScan(small_table).query(small_queries[0]))


class TestIndexTable:
    def test_copy_of_counts_work(self, small_table):
        stats = QueryStats()
        index_table = IndexTable.copy_of(small_table, stats)
        assert stats.copied == small_table.n_rows * 4  # 3 cols + rowids
        assert index_table.n_rows == small_table.n_rows

    def test_copy_is_independent(self, small_table):
        index_table = IndexTable.copy_of(small_table)
        index_table.columns[0][0] = -1.0
        assert small_table.column(0)[0] != -1.0

    def test_allocate_shapes(self):
        index_table = IndexTable.allocate(100, 3)
        assert len(index_table.columns) == 3
        assert index_table.rowids.shape == (100,)

    def test_all_arrays_includes_rowids(self, small_table):
        index_table = IndexTable.copy_of(small_table)
        arrays = index_table.all_arrays
        assert len(arrays) == 4
        assert arrays[-1] is index_table.rowids

    def test_scan_piece_maps_rowids(self, small_table):
        from repro.core.kdtree import PieceMatch
        from repro.core.node import Piece

        index_table = IndexTable.copy_of(small_table)
        # Shuffle rows to make the mapping non-trivial.
        rng = np.random.default_rng(0)
        order = rng.permutation(small_table.n_rows)
        for position, column in enumerate(index_table.columns):
            index_table.columns[position] = column[order]
        index_table.rowids = index_table.rowids[order]
        piece = Piece(0, small_table.n_rows)
        match = PieceMatch(
            piece, np.ones(3, dtype=bool), np.ones(3, dtype=bool)
        )
        query = make_queries(small_table, 1, seed=9)[0]
        stats = QueryStats()
        got = np.sort(index_table.scan_piece(match, query, stats))
        from tests.conftest import reference_answer

        assert np.array_equal(got, reference_answer(small_table, query))


class TestBaseIndexContract:
    def test_query_counts_queries(self, small_table, small_queries):
        index = FullScan(small_table)
        for query in small_queries[:3]:
            index.query(query)
        assert index.queries_executed == 3

    def test_seconds_populated(self, small_table, small_queries):
        result = FullScan(small_table).query(small_queries[0])
        assert result.stats.seconds > 0

    def test_wrong_arity_rejected_before_execution(self, small_table):
        index = AdaptiveKDTree(small_table, size_threshold=64)
        with pytest.raises(InvalidQueryError):
            index.query(RangeQuery([0.0, 0.0], [1.0, 1.0]))
        assert index.index_table is None  # nothing happened

    def test_repr(self, small_table):
        assert "N=2000" in repr(FullScan(small_table))


class TestDegenerateTables:
    def test_single_row_table(self):
        table = Table([np.array([5.0]), np.array([7.0])])
        index = AdaptiveKDTree(table, size_threshold=4)
        hit = index.query(RangeQuery([4.0, 6.0], [6.0, 8.0]))
        assert hit.count == 1
        miss = index.query(RangeQuery([5.0, 6.0], [6.0, 8.0]))
        assert miss.count == 0  # low bound is exclusive

    def test_two_identical_rows(self):
        table = Table([np.array([1.0, 1.0])])
        index = AdaptiveKDTree(table, size_threshold=1)
        result = index.query(RangeQuery([0.0], [1.0]))
        assert result.count == 2

    def test_boundary_values_half_open(self):
        table = Table([np.array([1.0, 2.0, 3.0])])
        index = FullScan(table)
        assert index.query(RangeQuery([1.0], [2.0])).count == 1  # only 2.0
        assert index.query(RangeQuery([0.0], [3.0])).count == 3

    def test_all_indexes_agree_on_single_column(self):
        from repro import AverageKDTree, ProgressiveKDTree, Quasii

        table = make_uniform_table(500, 1, seed=60)
        queries = make_queries(table, 8, width_fraction=0.2, seed=61)
        reference = FullScan(table)
        answers = [np.sort(reference.query(q).row_ids) for q in queries]
        for cls in (AdaptiveKDTree, ProgressiveKDTree, AverageKDTree, Quasii):
            index = cls(table, size_threshold=16) if cls is not ProgressiveKDTree else cls(
                table, delta=0.4, size_threshold=16
            )
            for query, want in zip(queries, answers):
                assert np.array_equal(np.sort(index.query(query).row_ids), want)


class TestRead:
    """``BaseIndex.read``: the snapshot reader answers from the current
    piece set at every point of construction and never refines."""

    @pytest.mark.parametrize(
        "technique", ["adaptive", "progressive", "greedy", "quasii", "scan"]
    )
    @pytest.mark.parametrize("shards", [1, 3])
    def test_read_answers_like_a_full_scan_and_changes_nothing(
        self, technique, shards
    ):
        from types import SimpleNamespace

        from repro.core import ShardedIndex
        from repro.core.progressive_kdtree import CREATION
        from repro.session import TECHNIQUES
        from tests.conftest import reference_answer

        table = make_uniform_table(3_000, 2, seed=8)
        settings = SimpleNamespace(size_threshold=64, delta=0.25, tau=None)
        factory = lambda t: TECHNIQUES[technique](t, settings)  # noqa: E731
        index = factory(table) if shards == 1 else ShardedIndex(
            table, factory, shards
        )
        phases = set()
        for query in make_queries(table, 12, seed=9):
            for probe in (query, make_queries(table, 1, seed=10)[0]):
                nodes = index.node_count
                stats = QueryStats()
                got = np.sort(index.read(probe, stats))
                assert np.array_equal(got, reference_answer(table, probe))
                assert index.node_count == nodes
                assert stats.swapped == stats.copied == 0
            phases.add(getattr(index, "phase", None))
            index.query(query)
        if technique in ("progressive", "greedy"):
            assert CREATION in phases and len(phases) > 1

    def test_converged_read_charges_the_converged_reader(self):
        index = AdaptiveKDTree(make_uniform_table(2_000, 2), size_threshold=64)
        queries = make_queries(index.table, 40, seed=4)
        for query in queries:
            index.query(query)
        read_stats = QueryStats()
        index.read(queries[0], read_stats)
        assert read_stats.lookup_nodes > 0
        assert read_stats.scanned < index.n_rows
