"""Appends, deletes, and merges on the Adaptive KD-Tree."""

import numpy as np
import pytest

from repro import InvalidParameterError, InvalidTableError, RangeQuery
from repro.core.updates import AppendableAdaptiveKDTree
from tests.conftest import make_queries, make_uniform_table


def logical_answer(columns, deleted, query):
    """Ground truth over the logical table (per-column arrays + tombstones)."""
    keep = np.ones(columns[0].shape[0], dtype=bool)
    for dim in range(len(columns)):
        keep &= (columns[dim] > query.lows[dim]) & (
            columns[dim] <= query.highs[dim]
        )
    hits = np.flatnonzero(keep)
    return np.array([h for h in hits if h not in deleted], dtype=np.int64)


class Mirror:
    """A growing logical table mirrored next to the index under test."""

    def __init__(self, table):
        self.columns = [column.copy() for column in table.columns()]
        self.deleted = set()

    def append(self, rows):
        for dim in range(len(self.columns)):
            self.columns[dim] = np.concatenate([self.columns[dim], rows[:, dim]])

    def check(self, index, query):
        got = np.sort(index.query(query).row_ids)
        want = logical_answer(self.columns, self.deleted, query)
        assert np.array_equal(got, want), (got.size, want.size)


@pytest.fixture
def setup():
    table = make_uniform_table(2_000, 2, seed=21)
    index = AppendableAdaptiveKDTree(
        table, size_threshold=64, merge_fraction=0.1
    )
    return table, index, Mirror(table)


class TestAppend:
    def test_appended_rows_visible_immediately(self, setup):
        table, index, mirror = setup
        queries = make_queries(table, 5, width_fraction=0.3, seed=22)
        index.query(queries[0])
        rng = np.random.default_rng(23)
        rows = rng.random((50, 2)) * table.n_rows
        ids = index.append(rows)
        mirror.append(rows)
        assert ids[0] == table.n_rows
        for query in queries:
            mirror.check(index, query)

    def test_append_single_row(self, setup):
        table, index, mirror = setup
        row = np.array([10.0, 10.0])
        ids = index.append(row)
        mirror.append(row.reshape(1, 2))
        assert ids.shape == (1,)
        query = RangeQuery([9.0, 9.0], [11.0, 11.0])
        mirror.check(index, query)

    def test_append_shape_validated(self, setup):
        _, index, _ = setup
        with pytest.raises(InvalidTableError):
            index.append(np.ones((3, 5)))

    def test_interleaved_appends_and_queries(self, setup):
        table, index, mirror = setup
        rng = np.random.default_rng(24)
        queries = make_queries(table, 20, width_fraction=0.3, seed=25)
        for i, query in enumerate(queries):
            if i % 3 == 0:
                rows = rng.random((30, 2)) * table.n_rows
                index.append(rows)
                mirror.append(rows)
            mirror.check(index, query)


class TestDelete:
    def test_deleted_rows_disappear(self, setup):
        table, index, mirror = setup
        query = make_queries(table, 1, width_fraction=0.5, seed=26)[0]
        first = index.query(query)
        victims = first.row_ids[:10]
        assert index.delete(victims) == 10
        mirror.deleted.update(int(v) for v in victims)
        mirror.check(index, query)

    def test_delete_is_idempotent(self, setup):
        _, index, _ = setup
        assert index.delete([5, 5, 5]) == 1
        assert index.delete([5]) == 0

    def test_delete_pending_row(self, setup):
        table, index, mirror = setup
        rows = np.array([[50.0, 50.0]])
        ids = index.append(rows)
        mirror.append(rows)
        index.delete(ids)
        mirror.deleted.update(int(v) for v in ids)
        query = RangeQuery([49.0, 49.0], [51.0, 51.0])
        mirror.check(index, query)

    def test_out_of_range_ids_ignored(self, setup):
        _, index, _ = setup
        assert index.delete([10**9, -4]) == 0


class TestConvergedReads:
    def test_query_batch_sees_appends_and_deletes(self):
        """A converged tree with pending rows or tombstones is not a
        converged index: the batched tail must not skip the pending scan
        and the tombstone filter that a scalar query applies."""
        table = make_uniform_table(4_000, 2, seed=31)
        index = AppendableAdaptiveKDTree(table, size_threshold=64)
        for query in make_queries(table, 2_000, width_fraction=0.1, seed=32):
            if index.converged:
                break
            index.query(query)
        assert index.converged
        mirror = Mirror(table)
        rows = np.array([[1.0, 1.0], [2.0, 2.0]])
        new_ids = index.append(rows)
        mirror.append(rows)
        index.delete(np.arange(10))
        mirror.deleted.update(range(10))
        full = RangeQuery([-np.inf, -np.inf], [np.inf, np.inf])
        scalar = np.sort(index.query(full).row_ids)
        assert scalar.size == 3_992
        assert np.isin(new_ids, scalar).all()
        for result in index.query_batch([full, full, full]):
            assert np.array_equal(np.sort(result.row_ids), scalar)
        for query in make_queries(table, 8, width_fraction=0.2, seed=33):
            want = logical_answer(mirror.columns, mirror.deleted, query)
            for result in index.query_batch([query, query]):
                assert np.array_equal(np.sort(result.row_ids), want)
        assert not index.converged


class TestMerge:
    def test_merge_triggered_by_fraction(self, setup):
        table, index, mirror = setup
        rng = np.random.default_rng(27)
        queries = make_queries(table, 3, width_fraction=0.3, seed=28)
        index.query(queries[0])
        rows = rng.random((300, 2)) * table.n_rows  # > 10% of 2000
        index.append(rows)
        mirror.append(rows)
        index.query(queries[1])
        assert index.merges_performed >= 1
        assert index.n_pending == 0
        for query in queries:
            mirror.check(index, query)

    def test_merge_preserves_refinement(self, setup):
        table, index, mirror = setup
        queries = make_queries(table, 8, width_fraction=0.3, seed=29)
        for query in queries:
            index.query(query)
        nodes_before = index.node_count
        rng = np.random.default_rng(30)
        rows = rng.random((250, 2)) * table.n_rows
        index.append(rows)
        mirror.append(rows)
        index.merge_pending()
        # Re-cracking along the old pivots keeps most of the structure.
        assert index.node_count >= nodes_before // 2
        for query in queries:
            mirror.check(index, query)

    def test_merge_compacts_tombstones(self, setup):
        table, index, mirror = setup
        query = make_queries(table, 1, width_fraction=0.6, seed=31)[0]
        result = index.query(query)
        victims = result.row_ids[:50]
        index.delete(victims)
        mirror.deleted.update(int(v) for v in victims)
        index.merge_pending()
        assert index.n_deleted == 0
        assert index.index_table.n_rows == table.n_rows - 50
        mirror.check(index, query)

    def test_logical_rows_accounting(self, setup):
        table, index, mirror = setup
        assert index.logical_rows == table.n_rows
        rows = np.ones((10, 2))
        index.append(rows)
        assert index.logical_rows == table.n_rows + 10
        index.delete([0, 1])
        assert index.logical_rows == table.n_rows + 8

    def test_merge_before_any_query(self, setup):
        table, index, mirror = setup
        rows = np.random.default_rng(32).random((20, 2)) * table.n_rows
        index.append(rows)
        mirror.append(rows)
        index.merge_pending()
        query = make_queries(table, 1, width_fraction=0.4, seed=33)[0]
        mirror.check(index, query)

    def test_stress_mixed_workload(self, setup):
        table, index, mirror = setup
        rng = np.random.default_rng(34)
        queries = make_queries(table, 30, width_fraction=0.25, seed=35)
        for i, query in enumerate(queries):
            action = i % 4
            if action == 1:
                rows = rng.random((40, 2)) * table.n_rows
                index.append(rows)
                mirror.append(rows)
            elif action == 2 and mirror.columns[0].shape[0] > 100:
                victim = int(rng.integers(0, mirror.columns[0].shape[0]))
                index.delete([victim])
                mirror.deleted.add(victim)
            mirror.check(index, query)

    def test_invalid_merge_fraction(self):
        table = make_uniform_table(100, 2)
        with pytest.raises(InvalidParameterError):
            AppendableAdaptiveKDTree(table, merge_fraction=0.0)
