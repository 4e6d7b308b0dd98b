"""The KD-tree arena and vectorized batch execution.

Two contracts:

* **Arena structure** — split for split the arena passes the structural
  check (I2), keeps the ``right == left + 1`` adjacency, and its scalar
  and batched descents agree with each other node for node; a corrupted
  path box is caught by the fuzzer.
* **Batch execution** — ``query_batch`` answers exactly like the
  equivalent sequential loop (any backend, any phase), also after a
  zone map was tightened behind a cached snapshot, and the session
  layer's ``run_batch`` preserves per-query order across column groups.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import MedianKDTree
from repro.core import GreedyProgressiveKDTree, ProgressiveKDTree, RangeQuery
from repro.core.arena import Arena
from repro.core.kdtree import KDTree
from repro.core.metrics import QueryStats
from repro.errors import IndexStateError
from repro.fuzz import (
    BACKENDS,
    FuzzCase,
    build_workload,
    make_backend,
    run_backend_case,
)
from repro.invariants import assert_invariants
from tests.conftest import make_queries, make_uniform_table, reference_answer

ALL_BACKENDS = sorted(BACKENDS)

#: Deterministic per-query counters (time fields excluded on purpose).
COUNTER_FIELDS = (
    "scanned", "copied", "swapped", "lookup_nodes", "nodes_created",
    "result_count", "pruned", "contained", "delta_used", "converged",
)


def _case(kind: str = "uniform", queries: int = 25, rows: int = 1_500):
    return FuzzCase(
        seed=11, kind=kind, n_rows=rows, n_dims=2, n_queries=queries,
        size_threshold=64, delta=0.25,
    )


def _counters(stats: QueryStats) -> dict:
    return {name: getattr(stats, name) for name in COUNTER_FIELDS}


# ------------------------------------------------------------ arena structure


class TestArenaStructure:
    def _converged_tree(self, rows: int = 3_000):
        table = make_uniform_table(rows, 2, seed=21)
        index = MedianKDTree(table, size_threshold=64)
        index.query(RangeQuery([0.0, 0.0], [1.0, 1.0]))  # triggers build
        return table, index

    def test_incremental_mirror_is_consistent(self):
        table, index = self._converged_tree()
        tree = index.tree
        assert tree.structural_errors(index.index_table.columns) == []
        assert len(tree.arena) == tree.node_count + tree.leaf_count

    def test_right_child_is_always_left_plus_one(self):
        _, index = self._converged_tree()
        arena = index.tree.arena
        for slot, dim in enumerate(arena.dims):
            if dim >= 0:
                left = arena.lefts[slot]
                assert arena.los[left + 1] == arena.splits[slot]
                assert arena.his[left] == arena.splits[slot]

    def test_search_batch_matches_scalar_search(self):
        table, index = self._converged_tree()
        arena = index.tree.arena
        queries = make_queries(table, 16, width_fraction=0.15, seed=23)
        # One half-open query and one empty-range query join the batch.
        queries.append(RangeQuery([-np.inf, 50.0], [800.0, np.inf]))
        queries.append(RangeQuery([10.0, 10.0], [10.0, 10.0]))
        batched = arena.search_batch(queries)
        assert len(batched) == len(queries)
        for query, (matches, visited) in zip(queries, batched):
            stats = QueryStats()
            expected = arena.search(query, stats)
            assert visited == stats.lookup_nodes
            assert [m.piece for m in matches] == [m.piece for m in expected]
            for got, want in zip(matches, expected):
                assert np.array_equal(got.check_low, want.check_low)
                assert np.array_equal(got.check_high, want.check_high)

    def test_search_batch_empty(self):
        _, index = self._converged_tree()
        assert index.tree.arena.search_batch([]) == []

    def test_split_of_foreign_piece_is_rejected(self):
        from repro.core.node import Piece

        _, index = self._converged_tree()
        stray = Piece(0, 10)
        with pytest.raises(IndexStateError):
            index.tree.arena.apply_split(
                stray, 0, 5.0, 5, Piece(0, 5), Piece(5, 10)
            )

    def test_snapshot_is_generation_cached(self):
        _, index = self._converged_tree()
        arena = index.tree.arena
        assert arena.as_arrays() is arena.as_arrays()

    def test_fuzzer_catches_a_corrupted_path_bound(self, monkeypatch):
        """Loosen one child's stored low bound to -inf at every split:
        answers stay right (the residual checks only grow), so the
        structural check (I2) is the one that must see it."""
        real = Arena.apply_split

        def loosening(self, piece, dim, key, split, left, right):
            real(self, piece, dim, key, split, left, right)
            self.path_lo[right.arena_id] = (-np.inf,) * self.n_dims

        monkeypatch.setattr(Arena, "apply_split", loosening)
        case = FuzzCase(
            seed=11, kind="uniform", n_rows=1_500, n_dims=2, n_queries=10,
            size_threshold=32, delta=0.25,
        )
        table, queries = build_workload(case)
        for backend in ("medkd", "akd", "pkd", "gpkd"):
            position, problems = run_backend_case(backend, table, queries, case)
            assert position is not None, f"{backend}: corruption went unnoticed"
            assert any("path bounds diverge" in p for p in problems), problems


# ----------------------------------------------------------- batch execution


class TestQueryBatch:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_batch_matches_sequential(self, backend):
        case = _case(queries=30)
        table, queries = build_workload(case)
        sequential = make_backend(backend, table, case)
        expected = [np.sort(sequential.query(q).row_ids) for q in queries]
        batched = make_backend(backend, table, case)
        answers = batched.query_batch(queries)
        assert len(answers) == len(queries)
        for got, want in zip(answers, expected):
            assert np.array_equal(np.sort(got.row_ids), want)
        assert_invariants(batched)
        seq_tree = getattr(sequential, "tree", None)
        if isinstance(seq_tree, KDTree):
            assert (
                batched.tree.preorder_signature()
                == seq_tree.preorder_signature()
            )

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_batch_counters_match_sequential_when_converged(self, backend):
        case = _case(queries=25)
        table, queries = build_workload(case)
        first = make_backend(backend, table, case)
        second = make_backend(backend, table, case)
        for query in queries:  # converge both the same way
            first.query(query)
            second.query(query)
        probes = make_queries(table, 12, width_fraction=0.2, seed=31)
        want = [_counters(first.query(q).stats) for q in probes]
        got = [_counters(r.stats) for r in second.query_batch(probes)]
        assert got == want

    def test_zone_tightened_after_a_snapshot_reaches_the_batch(self):
        """Refinement tightens zones outside splits (the pivot pass);
        the batch snapshot copies them, so a tightening must invalidate
        it or the batch would prune and short-cut from stale boxes."""
        table = make_uniform_table(3_000, 2, seed=35)
        index = ProgressiveKDTree(table, delta=1.0, size_threshold=64)
        for query in make_queries(table, 40, width_fraction=0.2, seed=36):
            index.query(query)
        assert index.converged
        probes = make_queries(table, 12, width_fraction=0.2, seed=37)
        index.query_batch(probes)  # caches the arena snapshot
        leaves = list(index.tree.iter_leaves())
        before = [(leaf.zone_lo, leaf.zone_hi) for leaf in leaves]
        for leaf in leaves:
            index._choose_split(leaf, QueryStats())
        assert [(leaf.zone_lo, leaf.zone_hi) for leaf in leaves] != before
        want = [_counters(index.query(q).stats) for q in probes]
        got = [_counters(r.stats) for r in index.query_batch(probes)]
        assert got == want

    def test_batch_on_empty_list(self):
        case = _case()
        table, _ = build_workload(case)
        index = make_backend("gpkd", table, case)
        assert index.query_batch([]) == []

    def test_batch_mid_refinement_drains_sequentially(self):
        """A batch issued before convergence must still adapt per query."""
        case = _case(queries=40)
        table, queries = build_workload(case)
        index = make_backend("pkd", table, case)
        answers = index.query_batch(queries)
        for query, answer in zip(queries, answers):
            assert np.array_equal(
                np.sort(answer.row_ids), reference_answer(table, query)
            )
        twin = make_backend("pkd", table, case)
        for query in queries:
            twin.query(query)
        assert (
            index.tree.preorder_signature() == twin.tree.preorder_signature()
        )

    def test_batch_seconds_share_elapsed(self):
        table = make_uniform_table(2_000, 2, seed=33)
        index = GreedyProgressiveKDTree(table, delta=0.25, size_threshold=64)
        queries = make_queries(table, 8, width_fraction=0.2, seed=34)
        for query in queries:
            index.query(query)
        answers = index.query_batch(queries)
        shares = {round(a.stats.seconds, 12) for a in answers if a.stats.converged}
        assert len(shares) <= 2  # converged tail shares one per-batch cost


class TestSessionRunBatch:
    def test_run_batch_matches_query_across_groups(self):
        from repro.session import ExplorationSession

        rng = np.random.default_rng(41)
        columns = {
            "x": rng.random(2_000) * 100,
            "y": rng.random(2_000) * 100,
            "z": rng.random(2_000) * 100,
        }
        with ExplorationSession(technique="greedy", size_threshold=128) as ref:
            ref.register("t", columns)
            with ExplorationSession(
                technique="greedy", size_threshold=128
            ) as session:
                session.register("t", columns)
                bounds_list = []
                for step in range(12):
                    lo = float(rng.uniform(0, 60))
                    if step % 3 == 0:
                        bounds_list.append({"x": (lo, lo + 30)})
                    elif step % 3 == 1:
                        bounds_list.append(
                            {"y": (lo, lo + 25), "z": (lo, lo + 25)}
                        )
                    else:
                        bounds_list.append({"x": (lo, lo + 20), "y": (lo, lo + 20)})
                want = [
                    np.sort(ref.query("t", **bounds).row_ids)
                    for bounds in bounds_list
                ]
                got = session.run_batch("t", bounds_list)
                assert len(got) == len(bounds_list)
                for result, expected in zip(got, want):
                    assert np.array_equal(np.sort(result.row_ids), expected)

    def test_run_batch_empty(self):
        from repro.session import ExplorationSession

        with ExplorationSession() as session:
            session.register("t", {"x": np.arange(100.0)})
            assert session.run_batch("t", []) == []


class TestServeBatch:
    def test_batch_op_over_tcp(self):
        from repro.serve import IndexServer, ServeClient, ServerThread, TableSpec
        from tests.test_serve import oracle_answer

        spec = TableSpec("wire", "uniform", 4_000, 2, seed=9)
        with ServerThread(IndexServer(size_threshold=256)) as handle:
            with ServeClient(handle.host, handle.port) as client:
                client.register_spec(spec)
                session = client.open_session("tenant-b")
                rng = np.random.default_rng(51)
                bounds_list = []
                for _ in range(6):
                    low = rng.uniform(0, 60, size=2)
                    high = low + rng.uniform(5, 30, size=2)
                    bounds_list.append({
                        f"c{d}": (float(low[d]), float(high[d]))
                        for d in range(2)
                    })
                response = client.batch(session, "wire", bounds_list)
                assert response["batch"] == len(bounds_list)
                results = response["results"]
                assert len(results) == len(bounds_list)
                for bounds, payload in zip(bounds_list, results):
                    want_count, want_checksum = oracle_answer(spec, bounds)
                    assert payload["count"] == want_count
                    assert payload["checksum"] == want_checksum
                stats = client.stats()
                assert stats["queries_total"] == len(bounds_list)
                client.shutdown()
