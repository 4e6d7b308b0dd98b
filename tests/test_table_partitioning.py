"""Table partitioning: range sharding plus Adaptive Table Partitioning."""

import numpy as np
import pytest

from repro import (
    AdaptiveKDTree,
    AdaptiveTablePartitioner,
    InvalidParameterError,
    InvalidTableError,
    RangeQuery,
    Table,
)
from repro.core import ShardedIndex, ShardedTable
from repro.core.metrics import QueryStats
from repro.fuzz import BACKENDS, FuzzCase, build_workload, make_backend
from repro.invariants import shard_errors, structural_errors
from repro.parallel import config as par_config
from tests.conftest import make_queries, make_uniform_table, reference_answer


@pytest.fixture
def table_with_payload():
    rng = np.random.default_rng(6)
    n = 2_500
    dims = [rng.random(n) * 100 for _ in range(2)]
    payloads = [rng.random(n) * 10, np.arange(n, dtype=float)]
    return Table(dims + payloads, names=["x", "y", "weight", "serial"])


def dim_queries(table, n, seed=7):
    projected = table.project([0, 1])
    return make_queries(projected, n, width_fraction=0.25, seed=seed)


class TestCorrectness:
    def test_answers_match_reference(self, table_with_payload):
        partitioner = AdaptiveTablePartitioner(
            table_with_payload, dimension_positions=[0, 1], size_threshold=32
        )
        projected = table_with_payload.project([0, 1])
        for query in dim_queries(table_with_payload, 15):
            got = np.sort(partitioner.query(query).row_ids)
            want = reference_answer(projected, query)
            assert np.array_equal(got, want)

    def test_all_columns_as_dimensions(self):
        table = make_uniform_table(1_500, 3, seed=8)
        partitioner = AdaptiveTablePartitioner(table, size_threshold=32)
        for query in make_queries(table, 10, seed=9):
            got = np.sort(partitioner.query(query).row_ids)
            want = reference_answer(table, query)
            assert np.array_equal(got, want)

    def test_tree_validates(self, table_with_payload):
        partitioner = AdaptiveTablePartitioner(
            table_with_payload, dimension_positions=[0, 1], size_threshold=32
        )
        for query in dim_queries(table_with_payload, 8):
            partitioner.query(query)
        partitioner.tree.validate(
            [partitioner.storage(0), partitioner.storage(1)]
        )


class TestPayloadCoherence:
    def test_rows_stay_aligned(self, table_with_payload):
        partitioner = AdaptiveTablePartitioner(
            table_with_payload, dimension_positions=[0, 1], size_threshold=32
        )
        for query in dim_queries(table_with_payload, 10):
            partitioner.query(query)
        # The 'serial' payload equals the original row position, so after
        # any amount of reorganisation storage[serial] must equal rowids.
        serial = partitioner.storage(3)
        assert np.array_equal(serial.astype(int), partitioner.row_ids_in_order())

    def test_fetch_reads_partitioned_payload(self, table_with_payload):
        partitioner = AdaptiveTablePartitioner(
            table_with_payload, dimension_positions=[0, 1], size_threshold=32
        )
        query = dim_queries(table_with_payload, 1)[0]
        result = partitioner.partitioned_query(query)
        direct = result.fetch(2)
        via_rowids = table_with_payload.column(2)[result.row_ids]
        assert np.allclose(np.sort(direct), np.sort(via_rowids))

    def test_payload_movement_is_charged(self, table_with_payload):
        wide = AdaptiveTablePartitioner(
            table_with_payload, dimension_positions=[0, 1], size_threshold=32
        )
        narrow = AdaptiveKDTree(
            table_with_payload.project([0, 1]), size_threshold=32
        )
        query = dim_queries(table_with_payload, 1)[0]
        wide_cost = wide.query(query).stats.copied
        narrow_cost = narrow.query(query).stats.copied
        assert wide_cost > narrow_cost  # payload columns move too


class TestResultRuns:
    def test_runs_compress_contiguous_positions(self, table_with_payload):
        partitioner = AdaptiveTablePartitioner(
            table_with_payload, dimension_positions=[0, 1], size_threshold=32
        )
        queries = dim_queries(table_with_payload, 6)
        for query in queries:
            partitioner.query(query)
        result = partitioner.partitioned_query(queries[0])
        runs = partitioner.result_runs(result.positions)
        covered = sum(end - start for start, end in runs)
        assert covered == result.count
        for (s0, e0), (s1, e1) in zip(runs, runs[1:]):
            assert e0 < s1  # disjoint, ordered

    def test_empty_runs(self, table_with_payload):
        partitioner = AdaptiveTablePartitioner(
            table_with_payload, dimension_positions=[0, 1]
        )
        assert partitioner.result_runs(np.empty(0, dtype=np.int64)) == []

    def test_partitioning_increases_contiguity(self):
        # After adaptation, a repeated query's answer occupies fewer runs
        # than the same answer over the unorganised table would.
        table = make_uniform_table(4_000, 2, seed=10)
        partitioner = AdaptiveTablePartitioner(table, size_threshold=64)
        query = make_queries(table, 1, width_fraction=0.2, seed=11)[0]
        result = partitioner.partitioned_query(query)
        runs = partitioner.result_runs(result.positions)
        assert len(runs) < max(1, result.count // 2)


class TestValidation:
    def test_rejects_bad_dimension_positions(self, table_with_payload):
        with pytest.raises(InvalidTableError):
            AdaptiveTablePartitioner(table_with_payload, dimension_positions=[0, 9])
        with pytest.raises(InvalidTableError):
            AdaptiveTablePartitioner(table_with_payload, dimension_positions=[0, 0])
        with pytest.raises(InvalidTableError):
            AdaptiveTablePartitioner(table_with_payload, dimension_positions=[])

    def test_rejects_bad_threshold(self, table_with_payload):
        with pytest.raises(InvalidParameterError):
            AdaptiveTablePartitioner(table_with_payload, size_threshold=0)

    def test_storage_before_query_rejected(self, table_with_payload):
        partitioner = AdaptiveTablePartitioner(table_with_payload)
        with pytest.raises(InvalidTableError):
            partitioner.storage(0)

    def test_query_dimension_arity(self, table_with_payload):
        partitioner = AdaptiveTablePartitioner(
            table_with_payload, dimension_positions=[0, 1]
        )
        from repro import InvalidQueryError

        with pytest.raises(InvalidQueryError):
            partitioner.query(RangeQuery([0.0], [1.0]))


# ------------------------------------------------------------------ sharding

def gpkd_factory(size_threshold=64, delta=0.25):
    from repro.core import GreedyProgressiveKDTree

    return lambda table: GreedyProgressiveKDTree(
        table, delta=delta, size_threshold=size_threshold
    )


@pytest.fixture(autouse=True)
def thread_reset():
    workers = par_config.get_workers()
    yield
    par_config.set_workers(workers)


class TestShardBoundaries:
    def test_balanced_contiguous_complete(self):
        table = make_uniform_table(1_003, 2, seed=3)
        sharded = ShardedTable(table, 4)
        sizes = [shard.n_rows for shard in sharded.shards]
        assert sum(sizes) == table.n_rows
        assert max(sizes) - min(sizes) <= 1
        cursor = 0
        covered = []
        for shard in sharded.shards:
            assert shard.row_offset == cursor
            covered.extend(
                range(shard.row_offset, shard.row_offset + shard.n_rows)
            )
            cursor += shard.n_rows
        assert covered == list(range(table.n_rows))  # disjoint + complete

    def test_shard_views_are_zero_copy(self):
        table = make_uniform_table(400, 2, seed=4)
        sharded = ShardedTable(table, 3)
        for shard in sharded.shards:
            for dim in range(table.n_columns):
                view = shard.table.column(dim)
                assert view.base is not None
                assert np.shares_memory(view, table.column(dim))

    def test_shard_count_clamped_to_rows(self):
        table = make_uniform_table(3, 2, seed=5)
        assert ShardedTable(table, 10).n_shards == 3

    def test_rejects_nonpositive_shards(self):
        table = make_uniform_table(100, 2, seed=5)
        with pytest.raises(InvalidParameterError):
            ShardedTable(table, 0)

    def test_zone_maps_are_tight(self):
        table = make_uniform_table(900, 2, seed=6)
        sharded = ShardedTable(table, 3)
        for shard in sharded.shards:
            for dim in range(table.n_columns):
                column = shard.table.column(dim)
                assert shard.zone_lo[dim] == column.min()
                assert shard.zone_hi[dim] == column.max()

    def test_sorted_data_tightens_shard_zones(self):
        # On x-sorted data the shard zone boxes partition the x range,
        # so each shard's box is strictly narrower than the global one.
        n = 900
        x = np.sort(np.random.default_rng(7).random(n) * 1000)
        y = np.random.default_rng(8).random(n)
        sharded = ShardedTable(Table([x, y]), 3)
        global_span = x.max() - x.min()
        for shard in sharded.shards:
            assert shard.zone_hi[0] - shard.zone_lo[0] < global_span / 2


class TestZonePruning:
    def make_sorted_sharded(self, n=1_200, shards=4):
        rng = np.random.default_rng(9)
        x = np.sort(rng.random(n) * 1000)
        y = rng.random(n) * 1000
        table = Table([x, y])
        index = ShardedIndex(table, gpkd_factory(), shards)
        return table, index

    def test_prune_skips_non_intersecting_shards(self):
        table, index = self.make_sorted_sharded()
        # A query inside shard 0's x-span cannot touch shards 1..3.
        hi = index.shards[0].zone_hi[0]
        lo = index.shards[0].zone_lo[0]
        query = RangeQuery([lo, 0.0], [(lo + hi) / 2, 1000.0])
        survivors, pruned = index.sharded.prune(query)
        assert pruned == 3
        assert [shard.shard_id for shard in survivors] == [0]
        stats = QueryStats()
        got = np.sort(index._execute(query, stats))
        assert stats.pruned == 3
        assert np.array_equal(got, reference_answer(table, query))

    def test_all_shards_survive_a_full_probe(self):
        _table, index = self.make_sorted_sharded()
        probe = RangeQuery([-np.inf] * 2, [np.inf] * 2)
        survivors, pruned = index.sharded.prune(probe)
        assert pruned == 0
        assert len(survivors) == index.sharded.n_shards


class TestShardedAnswers:
    """Scatter-gather answers are bit-identical to the unsharded serial
    index for every backend (the acceptance claim)."""

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_backend_matches_unsharded(self, backend):
        case = FuzzCase(
            seed=4, kind="duplicate", n_rows=1000, n_dims=2,
            n_queries=12, size_threshold=64, delta=0.25,
        )
        table, queries = build_workload(case)
        plain = make_backend(backend, table, case)
        sharded = ShardedIndex(
            table, lambda t: make_backend(backend, t, case), 3
        )
        for query in queries:
            want = np.sort(plain.query(query).row_ids)
            got = np.sort(sharded.query(query).row_ids)
            assert np.array_equal(got, want), backend
        assert shard_errors(sharded) == []

    def test_thread_scatter_matches_serial_scatter(self):
        case = FuzzCase(
            seed=5, kind="uniform", n_rows=2000, n_dims=2,
            n_queries=10, size_threshold=64, delta=0.25,
        )
        table, queries = build_workload(case)

        def run(workers):
            par_config.set_workers(workers)
            index = ShardedIndex(table, gpkd_factory(), 4)
            outs = []
            for query in queries:
                result = index.query(query)
                # Array order (not just set) must match: merge is in
                # shard order regardless of completion order.
                outs.append(tuple(result.row_ids.tolist()))
            return outs

        assert run(1) == run(4)

    def test_structural_errors_drives_shard_sweep(self):
        table = make_uniform_table(600, 2, seed=11)
        index = ShardedIndex(table, gpkd_factory(), 3)
        index.query(make_queries(table, 1, seed=12)[0])
        assert structural_errors(index) == []


class TestShardedRefinement:
    def drive(self, index, probe, limit=400):
        spins = 0
        while not index.converged and spins < limit:
            index.query(probe)
            spins += 1
        return spins

    def test_refine_step_splits_budget_across_shards(self):
        table = make_uniform_table(4_000, 2, seed=13)
        index = ShardedIndex(table, gpkd_factory(size_threshold=128), 4)
        probe = RangeQuery([-np.inf] * 2, [np.inf] * 2)
        # Finish creation so shards sit in the refinement phase.
        from repro.core.progressive_kdtree import REFINEMENT

        while index.phase != REFINEMENT and not index.converged:
            index.query(probe)
        refining = [
            inner for inner in index.indexes
            if getattr(inner, "phase", None) == REFINEMENT
        ]
        assert len(refining) > 1
        used = index._refine_step(2_000, probe, QueryStats())
        assert used > 0
        # Budget reached more than one shard.
        assert (
            sum(
                1 for inner in refining
                if inner.converged or inner.open_piece_count is not None
            )
            >= 2
        )
        self.drive(index, probe)
        assert index.converged
        assert shard_errors(index) == []

    def test_scheduler_converges_sharded_index(self):
        from repro.parallel.locks import PieceSnapshotLock
        from repro.parallel.scheduler import RefinementScheduler

        table = make_uniform_table(3_000, 2, seed=14)
        index = ShardedIndex(table, gpkd_factory(size_threshold=128), 3)
        probe = RangeQuery([-np.inf] * 2, [np.inf] * 2)
        # Queries drive creation; the scheduler only refines indexes in
        # the refinement phase (mirroring the serve layer, where shards
        # finish creation through the queries that touch them).
        from repro.core.progressive_kdtree import REFINEMENT

        while index.phase != REFINEMENT and not index.converged:
            index.query(probe)
        scheduler = RefinementScheduler(slice_rows=4_096, idle_seconds=0.005)
        try:
            assert scheduler._refinable(index) or index.converged
            scheduler.register("t", "k", index, PieceSnapshotLock(name="k"))
            import time

            deadline = time.time() + 30.0
            while not index.converged and time.time() < deadline:
                scheduler.poke()
                time.sleep(0.01)
        finally:
            scheduler.close()
        assert index.converged
        assert scheduler.slices_run > 0
        assert shard_errors(index) == []
        got = np.sort(index.query(probe).row_ids)
        assert np.array_equal(got, np.arange(table.n_rows))


class TestShardInvariants:
    """I10: tampering with the shard partition is detected."""

    def make_index(self):
        table = make_uniform_table(600, 2, seed=15)
        return ShardedIndex(table, gpkd_factory(), 3)

    def test_clean_index_has_no_errors(self):
        assert shard_errors(self.make_index()) == []

    def test_non_sharded_index_is_skipped(self):
        table = make_uniform_table(100, 2, seed=16)
        assert shard_errors(AdaptiveKDTree(table, size_threshold=32)) == []

    def test_offset_tamper_detected(self):
        index = self.make_index()
        index.shards[1].row_offset += 7
        problems = shard_errors(index)
        assert any("tile" in problem for problem in problems)

    def test_zone_tamper_detected(self):
        index = self.make_index()
        shard = index.shards[0]
        shard.zone_hi = tuple(value / 2 for value in shard.zone_hi)
        problems = shard_errors(index)
        assert any("zone" in problem for problem in problems)

    def test_column_desync_detected(self):
        index = self.make_index()
        # Replace a shard view with different values: the shard no
        # longer holds its base row range.
        shard = index.shards[2]
        columns = shard.table.columns()
        columns[0] = columns[0] + 1.0
        shard.table._columns = columns
        problems = shard_errors(index)
        assert any("does not hold base rows" in problem for problem in problems)

    def test_inner_breach_is_attributed_to_its_shard(self):
        index = self.make_index()
        probe = RangeQuery([-np.inf] * 2, [np.inf] * 2)
        index.query(probe)
        inner = index.indexes[1]
        # Corrupt the inner index table so alignment (I5) breaks.
        inner.index_table.rowids[:5] = 0
        problems = shard_errors(index)
        assert problems
        assert all(problem.startswith("shard 1:") for problem in problems)

    def test_self_check_raises_on_breach(self):
        from repro.errors import InvariantViolationError

        index = self.make_index()
        index.shards[1].row_offset += 3
        with pytest.raises(InvariantViolationError):
            index.self_check()
