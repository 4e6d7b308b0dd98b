"""Index snapshots: save, load, and query equivalence."""

import numpy as np
import pytest

from repro import AdaptiveKDTree, AverageKDTree, IndexStateError, ProgressiveKDTree
from repro.core.serialize import (
    FrozenKDIndex,
    load_index,
    save_index,
    snapshot_index,
)
from repro.fuzz import FuzzCase, build_workload, make_backend
from tests.conftest import make_queries, make_uniform_table
from tests.test_arena import COUNTER_FIELDS


def counters(stats):
    return {name: getattr(stats, name) for name in COUNTER_FIELDS}


def warmed_index(cls, n_queries=10, **kwargs):
    table = make_uniform_table(2_000, 2, seed=50)
    queries = make_queries(table, n_queries, width_fraction=0.2, seed=51)
    index = cls(table, size_threshold=64, **kwargs)
    for query in queries:
        index.query(query)
    return table, queries, index


class TestRoundTrip:
    @pytest.mark.parametrize(
        "cls,kwargs",
        [
            (AdaptiveKDTree, {}),
            (AverageKDTree, {}),
            (ProgressiveKDTree, {"delta": 1.0}),
        ],
    )
    def test_answers_survive_roundtrip(self, cls, kwargs, tmp_path):
        table, queries, index = warmed_index(cls, **kwargs)
        path = str(tmp_path / "index.npz")
        save_index(index, path)
        frozen = load_index(path)
        for query in queries:
            original = np.sort(index.query(query).row_ids)
            reloaded = np.sort(frozen.query(query).row_ids)
            assert np.array_equal(original, reloaded)

    def test_structure_preserved(self, tmp_path):
        _, __, index = warmed_index(AdaptiveKDTree)
        path = str(tmp_path / "index.npz")
        save_index(index, path)
        frozen = load_index(path)
        assert frozen.node_count == index.node_count
        assert frozen.tree.height() == index.tree.height()
        assert frozen.converged

    def test_frozen_does_not_adapt(self, tmp_path):
        table, queries, index = warmed_index(AdaptiveKDTree, n_queries=2)
        path = str(tmp_path / "index.npz")
        save_index(index, path)
        frozen = load_index(path)
        nodes = frozen.node_count
        fresh = make_queries(table, 5, width_fraction=0.1, seed=52)
        for query in fresh:
            stats = frozen.query(query).stats
            assert stats.nodes_created == 0
            assert stats.indexing_work == 0
        assert frozen.node_count == nodes

    def test_frozen_answers_fresh_queries_correctly(self, tmp_path):
        from tests.conftest import reference_answer

        table, _, index = warmed_index(AdaptiveKDTree)
        path = str(tmp_path / "index.npz")
        save_index(index, path)
        frozen = load_index(path)
        for query in make_queries(table, 10, width_fraction=0.3, seed=53):
            got = np.sort(frozen.query(query).row_ids)
            assert np.array_equal(got, reference_answer(table, query))


class TestSnapshotValidation:
    def test_snapshot_before_first_query_rejected(self):
        table = make_uniform_table(100, 2)
        with pytest.raises(IndexStateError):
            snapshot_index(AdaptiveKDTree(table))

    def test_corrupt_split_rejected(self, tmp_path):
        _, __, index = warmed_index(AdaptiveKDTree)
        payload = snapshot_index(index)
        payload["tree_splits"] = payload["tree_splits"].copy()
        internal = np.flatnonzero(payload["tree_dims"] >= 0)
        if internal.size:
            payload["tree_splits"][internal[0]] = 10**9
        with pytest.raises(IndexStateError):
            FrozenKDIndex.from_snapshot(payload)

    def test_truncated_encoding_rejected(self):
        _, __, index = warmed_index(AdaptiveKDTree)
        payload = snapshot_index(index)
        payload["tree_dims"] = payload["tree_dims"][:-1]
        payload["tree_keys"] = payload["tree_keys"][:-1]
        payload["tree_splits"] = payload["tree_splits"][:-1]
        with pytest.raises(IndexStateError):
            FrozenKDIndex.from_snapshot(payload)

    def test_column_length_mismatch_rejected(self):
        _, __, index = warmed_index(AdaptiveKDTree)
        payload = snapshot_index(index)
        payload["column_0"] = payload["column_0"][:-1]
        with pytest.raises(IndexStateError):
            FrozenKDIndex.from_snapshot(payload)

    def test_snapshot_contains_all_columns(self):
        _, __, index = warmed_index(AdaptiveKDTree)
        payload = snapshot_index(index)
        assert "column_0" in payload and "column_1" in payload
        assert payload["rowids"].shape[0] == 2_000


class TestPartialProgressiveRoundTrip:
    """A snapshot taken mid-refinement must reproduce the index exactly.

    Regression guard: the progressive KD-Tree spends most of its life
    between "creation done" and "converged" — half-refined pieces, paused
    partition jobs — and a snapshot taken there must capture the tree
    byte-for-byte (same preorder signature, same :class:`TreeSummary`)
    and answer every query identically.
    """

    def partially_built_pkd(self):
        from tests.conftest import make_queries, make_uniform_table

        table = make_uniform_table(3_000, 2, seed=70)
        queries = make_queries(table, 40, width_fraction=0.15, seed=71)
        index = ProgressiveKDTree(table, delta=0.1, size_threshold=64)
        for query in queries:
            index.query(query)
            if index.phase == "refinement" and index.node_count >= 3:
                break
        assert index.phase == "refinement" and not index.converged
        return table, index

    def test_partial_pkd_summary_and_signature_survive(self, tmp_path):
        from repro import summarize_tree

        _, index = self.partially_built_pkd()
        path = str(tmp_path / "partial.npz")
        save_index(index, path)
        frozen = load_index(path)
        assert summarize_tree(frozen.tree) == summarize_tree(index.tree)
        assert (
            frozen.tree.preorder_signature()
            == index.tree.preorder_signature()
        )
        assert np.array_equal(frozen.index_table.rowids, index.index_table.rowids)

    def test_partial_pkd_answers_survive(self, tmp_path):
        from tests.conftest import make_queries, reference_answer

        table, index = self.partially_built_pkd()
        path = str(tmp_path / "partial.npz")
        save_index(index, path)
        frozen = load_index(path)
        for query in make_queries(table, 15, width_fraction=0.25, seed=72):
            got = np.sort(frozen.query(query).row_ids)
            assert np.array_equal(got, reference_answer(table, query))

    def test_partial_pkd_frozen_passes_invariants(self, tmp_path):
        from repro.invariants import assert_invariants

        _, index = self.partially_built_pkd()
        path = str(tmp_path / "partial.npz")
        save_index(index, path)
        frozen = load_index(path)
        assert_invariants(frozen)


class TestZoneMapRoundTrip:
    """Zone maps (I7/I8 metadata) and leaf levels survive the snapshot,
    so a reloaded index prunes identically, and the arena the decoder
    rebuilds passes the structural check."""

    def _leaves(self, tree):
        return [piece for piece, _, __ in tree.iter_leaves_with_bounds()]

    def test_zone_maps_survive(self, tmp_path):
        _, __, index = warmed_index(AdaptiveKDTree)
        path = str(tmp_path / "index.npz")
        save_index(index, path)
        frozen = load_index(path)
        original = self._leaves(index.tree)
        reloaded = self._leaves(frozen.tree)
        assert len(original) == len(reloaded)
        zoned = 0
        for want, got in zip(original, reloaded):
            assert (got.start, got.end) == (want.start, want.end)
            assert got.level == want.level
            assert got.zone_lo == want.zone_lo
            assert got.zone_hi == want.zone_hi
            zoned += want.zone_lo is not None
        assert zoned > 0  # the fixture actually exercises zone payloads

    def test_pruning_counters_survive(self, tmp_path):
        """Same zones => same pruned/contained shortcut counters.

        (Full up-front build: the original must not adapt between the
        two measurements or the comparison is meaningless.)"""
        table, _, index = warmed_index(AverageKDTree)
        path = str(tmp_path / "index.npz")
        save_index(index, path)
        frozen = load_index(path)
        for query in make_queries(table, 10, width_fraction=0.3, seed=54):
            want = index.query(query).stats
            got = frozen.query(query).stats
            assert (got.pruned, got.contained) == (want.pruned, want.contained)
            assert got.scanned == want.scanned

    def test_frozen_counters_are_exact(self, tmp_path):
        _, __, index = warmed_index(AdaptiveKDTree)
        path = str(tmp_path / "index.npz")
        save_index(index, path)
        frozen = load_index(path)
        assert frozen.tree.leaf_count == index.tree.leaf_count
        assert frozen.tree.node_count == index.tree.node_count

    def test_arena_attached_and_consistent(self, tmp_path):
        _, __, index = warmed_index(AdaptiveKDTree)
        path = str(tmp_path / "index.npz")
        save_index(index, path)
        frozen = load_index(path)
        tree = frozen.tree
        assert tree.structural_errors(frozen.index_table.columns) == []
        assert len(tree.arena) == len(index.tree.arena)
        assert tree.preorder_signature() == index.tree.preorder_signature()

    def test_old_snapshot_without_zones_still_loads(self, tmp_path):
        """Backward compat: pre-zone payloads decode (zones just absent)."""
        from tests.conftest import reference_answer

        table, _, index = warmed_index(AdaptiveKDTree)
        payload = snapshot_index(index)
        payload.pop("tree_zone_lo")
        payload.pop("tree_zone_hi")
        frozen = FrozenKDIndex.from_snapshot(payload)
        assert all(p.zone_lo is None for p in self._leaves(frozen.tree))
        for query in make_queries(table, 5, width_fraction=0.3, seed=55):
            got = np.sort(frozen.query(query).row_ids)
            assert np.array_equal(got, reference_answer(table, query))


class TestOneReadPath:
    """A converged KD index answers through the one converged reader,
    whatever built it: the live index and its reloaded snapshot give
    identical answers and identical counters, scalar and batched."""

    @pytest.mark.parametrize("backend", ["avgkd", "medkd", "akd", "pkd", "gpkd"])
    def test_converged_index_reads_like_its_snapshot(self, backend):
        case = FuzzCase(
            seed=11, kind="uniform", n_rows=1_500, n_dims=2, n_queries=40,
            size_threshold=64, delta=0.25,
        )
        table, queries = build_workload(case)
        index = make_backend(backend, table, case)
        extra = make_queries(table, 400, width_fraction=0.1, seed=52)
        for query in queries + extra:
            if index.converged:
                break
            index.query(query)
        assert index.converged
        frozen = FrozenKDIndex.from_snapshot(snapshot_index(index))
        for query in queries:
            live = index.query(query)
            reloaded = frozen.query(query)
            assert np.array_equal(live.row_ids, reloaded.row_ids)
            assert counters(live.stats) == counters(reloaded.stats)
            assert live.stats.delta_used is None
        for live, reloaded in zip(
            index.query_batch(queries), frozen.query_batch(queries)
        ):
            assert np.array_equal(live.row_ids, reloaded.row_ids)
            assert counters(live.stats) == counters(reloaded.stats)
