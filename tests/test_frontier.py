"""The open-piece frontier (:mod:`repro.core.frontier`).

Two halves, like the invariant tests.  The first is a *differential*:
the walk-based target selection the frontier replaced — a full
``tree.search`` plus ``max`` over the open work-list per piece picked,
a reachable-leaf generator walk per AKD predicate bound — lives on here
as the reference oracle, and whole workloads driven through the oracle
and through the frontier must agree on every per-query work counter,
``delta_used``, answer checksum and the final tree signature.  The
second half injects frontier corruption and asserts invariant I12 (and
the fuzzer, which runs it after every query) reports it.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import (
    AdaptiveKDTree,
    GreedyProgressiveKDTree,
    ProgressiveKDTree,
    RangeQuery,
    Table,
)
from repro.core.arena import Arena
from repro.core.cost_model import CostModel, MachineProfile
from repro.core.frontier import Frontier
from repro.core.metrics import QueryStats
from repro.core.partition import IncrementalPartition, stable_partition
from repro.core.serialize import FrozenKDIndex, snapshot_index
from repro.core.updates import AppendableAdaptiveKDTree
from repro.fuzz import FuzzCase, build_workload, run_backend_case
from repro.invariants import structural_errors
from repro.parallel import config as par_config
from repro.workloads import patterns

from .conftest import make_uniform_table

COUNTER_FIELDS = (
    "scanned", "copied", "swapped", "lookup_nodes", "nodes_created",
    "pruned", "contained", "delta_used",
)


@pytest.fixture(autouse=True)
def ambient_reset():
    """Restore the worker count after each test."""
    workers = par_config.get_workers()
    par_config.reset_ownership_log()
    yield
    par_config.set_workers(workers)
    par_config.reset_ownership_log()


# ----------------------------------------------------- the walk oracles

class WalkPick:
    """The walk-based piece pick, verbatim from before the frontier.

    Keeps its own append-ordered ``_open`` work-list (maintained by
    hooking the tree's ``split_leaf`` and the unsplittable drop) and
    selects by a fresh ``tree.search`` per pick; nothing here reads the
    frontier.  Mixed in front of PKD / GPKD.
    """

    def _finish_creation(self, stats):
        super()._finish_creation(stats)
        self._open = [
            leaf for leaf in self._tree.iter_leaves() if not leaf.converged
        ]
        self.picks = []
        split_leaf = self._tree.split_leaf

        def tracking_split(piece, dim, key, split):
            left, right = split_leaf(piece, dim, key, split)
            self._open.remove(piece)
            for child in (left, right):
                if child.size > self.size_threshold:
                    self._open.append(child)
            return left, right

        self._tree.split_leaf = tracking_split

    def _drop_open(self, piece):
        if piece in self._open:
            self._open.remove(piece)
        super()._drop_open(piece)

    def _pick_piece(self, query, stats):
        if self._active is not None and not self._active.converged:
            return self._active
        open_set = {id(piece) for piece in self._open}
        needed = [
            match.piece
            for match in self._tree.search(query, stats)
            if id(match.piece) in open_set
        ]
        if needed:
            chosen = max(needed, key=lambda piece: piece.size)
        else:
            chosen = max(self._open, key=lambda piece: piece.size)
        self._active = chosen
        self.picks.append((chosen.start, chosen.end))
        return chosen

    def _pick_pieces(self, query, stats, limit):
        chosen = []
        seen = set()

        def consider(piece):
            if id(piece) in seen or piece.converged:
                return False
            seen.add(id(piece))
            if piece.job is None:
                if piece.split_dim is None and not self._choose_split(
                    piece, stats
                ):
                    self._drop_open(piece)
                    return False
                piece.job = IncrementalPartition(
                    self._index.all_arrays,
                    piece.start,
                    piece.end,
                    piece.split_dim,
                    piece.pivot,
                )
            chosen.append(piece)
            return len(chosen) >= limit

        in_progress = [piece for piece in self._open if piece.job is not None]
        for piece in sorted(in_progress, key=lambda piece: piece.start):
            if consider(piece):
                return chosen
        open_ids = {id(piece) for piece in self._open}
        needed = [
            match.piece
            for match in self._tree.search(query, stats)
            if id(match.piece) in open_ids
        ]
        for piece in sorted(needed, key=lambda p: (-p.size, p.start)):
            if consider(piece):
                return chosen
        for piece in sorted(self._open, key=lambda p: (-p.size, p.start)):
            if consider(piece):
                return chosen
        return chosen


class WalkPKD(WalkPick, ProgressiveKDTree):
    pass


class WalkGPKD(WalkPick, GreedyProgressiveKDTree):
    pass


class LoggedPick:
    """Records the frontier-based picks for choice-by-choice comparison."""

    def _finish_creation(self, stats):
        super()._finish_creation(stats)
        self.picks = []

    def _pick_piece(self, query, stats):
        fresh = self._active is None or self._active.converged
        chosen = super()._pick_piece(query, stats)
        if fresh:
            self.picks.append((chosen.start, chosen.end))
        return chosen


class LoggedGPKD(LoggedPick, GreedyProgressiveKDTree):
    pass


class WalkAdapt:
    """The per-pair reachable-leaf walk AKD's adaptation used to run."""

    def _adapt(self, query, stats):
        arrays = self._index.all_arrays
        for dim, value in query.adaptation_pairs():
            targets = [
                (piece, lob, hib)
                for piece, lob, hib in self._tree.iter_leaves_with_bounds(query)
                if piece.size > self.size_threshold
            ]
            for piece, lob, hib in targets:
                if not (lob[dim] < value < hib[dim]):
                    continue
                split = stable_partition(
                    arrays, piece.start, piece.end, dim, value
                )
                stats.copied += piece.size * (self.n_dims + 1)
                if split == piece.start or split == piece.end:
                    continue
                self._split(piece, dim, value, split, stats)


class WalkAKD(WalkAdapt, AdaptiveKDTree):
    pass


class WalkAppendable(WalkAdapt, AppendableAdaptiveKDTree):
    pass


# -------------------------------------------------------------- helpers

def digest(row_ids: np.ndarray) -> str:
    return hashlib.sha1(np.sort(row_ids).tobytes()).hexdigest()


def trace_of(index, queries):
    """Per-query (counters..., checksum, converged) rows for a workload,
    cut five queries after the index converges."""
    rows = []
    remaining = None
    for query in queries:
        result = index.query(query)
        stats = result.stats
        rows.append(
            tuple(getattr(stats, field) for field in COUNTER_FIELDS)
            + (digest(result.row_ids), stats.converged)
        )
        if stats.converged and remaining is None:
            remaining = 5
        if remaining is not None:
            remaining -= 1
            if remaining < 0:
                break
    return rows


def assert_same_run(oracle, index, queries):
    want = trace_of(oracle, queries)
    got = trace_of(index, queries)
    assert len(got) == len(want)
    for position, (expected, actual) in enumerate(zip(want, got)):
        assert actual == expected, (
            f"query {position}: frontier run {actual} != walk oracle "
            f"{expected}"
        )
    assert index.node_count == oracle.node_count
    assert (
        index.tree.preorder_signature() == oracle.tree.preorder_signature()
    )
    assert structural_errors(index) == []


def uniform_table() -> Table:
    return make_uniform_table(6_000, 3, seed=31)


def duplicate_table() -> Table:
    rng = np.random.default_rng(33)
    return Table.from_matrix(rng.integers(0, 3, size=(5_000, 3)).astype(float))


def constant_column_table() -> Table:
    rng = np.random.default_rng(34)
    n = 5_000
    return Table(
        [
            rng.integers(0, 4, n).astype(float),
            np.full(n, 42.0),
            rng.integers(0, 3, n).astype(float),
        ]
    )


def wide_queries(table: Table, n_queries: int, seed: int):
    """Windows over (and a little beyond) the domain — usable on tables
    with constant columns, where the workload generators refuse."""
    rng = np.random.default_rng(seed)
    low = table.minimums() - 1.0
    span = table.maximums() - table.minimums() + 2.0
    queries = []
    for _ in range(n_queries):
        start = low + rng.random(table.n_columns) * span
        width = span * (0.2 + 0.6 * rng.random(table.n_columns))
        queries.append(RangeQuery(start, start + width))
    return queries


WORKLOADS = {
    "uniform": lambda table: patterns.uniform_queries(table, 60, 0.01, seed=5),
    "sequential": lambda table: patterns.sequential_queries(table, 60, 0.01),
    "zoom": lambda table: patterns.zoom_queries(table, 60, 0.01),
}


def long_workload(table: Table):
    """Enough queries for PKD at delta = 0.1 to converge (~190)."""
    return (
        WORKLOADS["zoom"](table)[:20]
        + patterns.uniform_queries(table, 230, 0.01, seed=6)
    )


# ------------------------------------------- differential: PKD and GPKD

@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("delta", [0.1, 0.2, 1.0])
@pytest.mark.parametrize(
    "oracle_cls, index_cls",
    [(WalkPKD, ProgressiveKDTree), (WalkGPKD, GreedyProgressiveKDTree)],
    ids=["pkd", "gpkd"],
)
def test_progressive_runs_match_walk_oracle(oracle_cls, index_cls, delta, workers):
    """Serial pick (workers=1) and round-based ``_pick_pieces``
    (workers=2); GPKD's reactive phase makes most queries multi-step."""
    par_config.set_workers(workers)
    table = uniform_table()
    index = index_cls(table, delta=delta, size_threshold=64)
    assert_same_run(
        oracle_cls(table, delta=delta, size_threshold=64),
        index,
        long_workload(table),
    )
    assert index.converged


@pytest.mark.parametrize("mode", ["tau_above", "tau_below", "query_limit"])
def test_interactivity_modes_match_walk_oracle(mode):
    # The serial schedule, whatever the ambient worker count: the
    # round-based refiner spends tau's throttled budget differently and
    # need not reach the node count asserted below.
    par_config.set_workers(1)
    table = uniform_table()
    full_scan = CostModel(
        MachineProfile.deterministic(), table.n_rows, table.n_columns
    ).full_scan_seconds()
    kwargs = {
        "tau_above": {"tau": full_scan * 2.0},
        "tau_below": {"tau": full_scan * 0.5},
        "query_limit": {"tau": full_scan * 0.5, "query_limit": 10},
    }[mode]
    queries = long_workload(table)
    index = GreedyProgressiveKDTree(table, delta=0.2, size_threshold=64, **kwargs)
    assert_same_run(
        WalkGPKD(table, delta=0.2, size_threshold=64, **kwargs), index, queries
    )
    # tau throttles the budget by design; getting well into refinement
    # is what this run is for.
    assert index.node_count >= 8
    if mode != "query_limit":
        assert_same_run(
            WalkPKD(table, delta=0.2, size_threshold=64, **kwargs),
            ProgressiveKDTree(table, delta=0.2, size_threshold=64, **kwargs),
            queries,
        )


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "make_table", [duplicate_table, constant_column_table],
    ids=["duplicates", "constant-column"],
)
def test_unsplittable_pieces_match_walk_oracle(make_table, workers):
    """Pieces dropped as unsplittable mid-query leave the frontier and
    the memo exactly when the work-list lost them."""
    par_config.set_workers(workers)
    table = make_table()
    queries = wide_queries(table, 80, seed=35)
    for oracle_cls, index_cls in (
        (WalkPKD, ProgressiveKDTree),
        (WalkGPKD, GreedyProgressiveKDTree),
    ):
        oracle = oracle_cls(table, delta=0.25, size_threshold=32)
        index = index_cls(table, delta=0.25, size_threshold=32)
        assert_same_run(oracle, index, queries)
        assert index.converged
        assert any(
            leaf.size > 32 for leaf in index.tree.iter_leaves()
        ), "no piece was dropped as unsplittable"
    assert_same_run(
        WalkAKD(table, size_threshold=32),
        AdaptiveKDTree(table, size_threshold=32),
        queries,
    )


# --------------------------------------------------- differential: AKD

@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_adaptive_runs_match_walk_oracle(workload):
    table = uniform_table()
    queries = WORKLOADS[workload](table)
    assert_same_run(
        WalkAKD(table, size_threshold=64),
        AdaptiveKDTree(table, size_threshold=64),
        queries,
    )


def test_adaptive_tau_preprocessing_matches_walk_oracle():
    table = uniform_table()
    tau = 0.1 * CostModel(
        MachineProfile.deterministic(), table.n_rows, table.n_columns
    ).full_scan_seconds()
    assert_same_run(
        WalkAKD(table, size_threshold=64, tau=tau),
        AdaptiveKDTree(table, size_threshold=64, tau=tau),
        WORKLOADS["uniform"](table),
    )


def test_adaptation_walks_no_leaves_inside_queries(monkeypatch):
    """One descent per query replaces the 2*d generator walks."""
    from repro.core.kdtree import KDTree

    table = uniform_table()
    index = AdaptiveKDTree(table, size_threshold=64)
    queries = WORKLOADS["sequential"](table)
    index.query(queries[0])  # builds the tree (and its frontier walk)

    def forbidden(self, query=None):
        raise AssertionError("iter_leaves_with_bounds called inside a query")

    monkeypatch.setattr(KDTree, "iter_leaves_with_bounds", forbidden)
    for query in queries[1:]:
        index.query(query)


# ------------------------------------ merge path and serialize round trip

def test_merge_path_matches_walk_oracle_and_recracks_every_pivot():
    table = uniform_table()
    queries = WORKLOADS["uniform"](table)
    oracle = WalkAppendable(table, size_threshold=64, merge_fraction=0.05)
    index = AppendableAdaptiveKDTree(
        table, size_threshold=64, merge_fraction=0.05
    )
    rows = []
    for candidate in (oracle, index):
        rng = np.random.default_rng(36)
        trace = []
        for position, query in enumerate(queries):
            if position % 5 == 0:
                candidate.append(rng.random((300, 3)) * table.n_rows)
            if position % 7 == 0:
                candidate.delete(rng.integers(0, table.n_rows, 40))
            merges_before = candidate.merges_performed
            pivots = candidate._collect_pivots()
            result = candidate.query(query)
            stats = result.stats
            trace.append(
                (stats.scanned, stats.copied, stats.lookup_nodes,
                 stats.nodes_created, digest(result.row_ids))
            )
            if candidate is index:
                assert candidate.tree.frontier.consistency_errors() == []
                if candidate.merges_performed > merges_before:
                    assert_recracked(candidate, pivots, query)
        rows.append(trace)
    assert index.merges_performed >= 2
    assert rows[0] == rows[1]
    assert (
        index.tree.preorder_signature() == oracle.tree.preorder_signature()
    )


def assert_recracked(index, pivots, query):
    """The merge's re-crack contract, checked by a real walk: no old
    pivot still lies strictly inside an above-threshold leaf's box while
    both of its sides are populated (the query that triggered the merge
    may have cracked further, never less)."""
    columns = index.index_table.columns
    for leaf, lob, hib in index.tree.iter_leaves_with_bounds():
        if leaf.size <= index.size_threshold:
            continue
        for dim, key in pivots:
            if lob[dim] < key < hib[dim]:
                values = columns[dim][leaf.start : leaf.end]
                assert (values <= key).all() or (values > key).all(), (
                    f"pivot ({dim}, {key}) still splits {leaf!r}"
                )


def test_frontier_rebuilds_over_a_tree_decoded_mid_refinement():
    table = uniform_table()
    index = ProgressiveKDTree(table, delta=0.1, size_threshold=64)
    queries = long_workload(table)
    for query in queries[:160]:
        index.query(query)
    assert index.phase == "refinement"
    live = index.tree.frontier
    assert len(live) > 3
    assert any(leaf.converged for leaf in index.tree.iter_leaves())
    frozen = FrozenKDIndex.from_snapshot(snapshot_index(index))
    assert frozen.tree.frontier is None  # a frozen index schedules nothing
    rebuilt = frozen.tree.open_frontier(index.size_threshold)
    assert rebuilt.consistency_errors() == []
    key = lambda piece: (piece.start, piece.end)  # noqa: E731
    assert sorted(map(key, rebuilt.pieces())) == sorted(
        map(key, live.pieces())
    )
    live_boxes = {key(piece): live.box(piece) for piece in live.pieces()}
    for piece in rebuilt.pieces():
        assert rebuilt.box(piece) == live_boxes[key(piece)]
    assert rebuilt.largest().size == live.largest().size
    for query in queries[160:166]:
        reach = rebuilt.reach(query)
        fresh = QueryStats()
        frozen.tree.search(query, fresh)
        assert reach.visited == fresh.lookup_nodes
        assert digest(frozen.query(query).row_ids) == digest(
            index.query(query).row_ids
        )
        assert structural_errors(index) == []


# ------------------------------------------ shared indexes: stale memos

def unbounded_probe(n_dims: int) -> RangeQuery:
    return RangeQuery(np.full(n_dims, -np.inf), np.full(n_dims, np.inf))


def test_scheduler_slices_interleaved_with_queries_match_walk_oracle():
    """The think-time scheduler reuses *one* probe object per index
    across slices while queries refine the same tree in between:
    choices and counters must still equal the walk oracle's.  The
    scheduler's own slice routine runs here on the test thread."""
    from repro.parallel.locks import PieceSnapshotLock
    from repro.parallel.scheduler import RefinementScheduler, _Entry

    table = uniform_table()
    queries = WORKLOADS["uniform"](table)
    runs = []
    scheduler = RefinementScheduler(slice_rows=1_500)
    scheduler.close()  # no thread: slices run synchronously below
    for cls in (WalkGPKD, LoggedGPKD):
        index = cls(table, delta=0.2, size_threshold=64)
        entry = _Entry("t", "k", index, PieceSnapshotLock(), 1.0)
        slice_stats = entry.stats
        trace = []
        for query in queries:
            result = index.query(query)
            trace.append(
                tuple(getattr(result.stats, f) for f in COUNTER_FIELDS)
                + (digest(result.row_ids),)
            )
            for _ in range(2):
                if index.phase != "refinement":
                    break
                rows_before = entry.rows
                scheduler._slice(entry)
                trace.append(
                    ("slice", entry.rows - rows_before,
                     slice_stats.lookup_nodes, slice_stats.scanned,
                     slice_stats.swapped)
                )
                if cls is LoggedGPKD:
                    assert structural_errors(index) == []
        assert index.converged
        runs.append((trace, index.picks, index.tree.preorder_signature()))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]
    assert runs[0][2] == runs[1][2]


def test_unbounded_probe_never_searches_the_tree(monkeypatch):
    """Scheduler slices hold the index's write lock: the all-infinite
    probe must not descend, let alone build a match per leaf."""
    table = uniform_table()
    index = GreedyProgressiveKDTree(table, delta=0.2, size_threshold=64)
    queries = WORKLOADS["uniform"](table)
    position = 0
    while index.phase != "refinement":
        index.query(queries[position])
        position += 1
    tree = index.tree

    def forbidden(*args, **kwargs):
        raise AssertionError("descent under the unbounded probe")

    monkeypatch.setattr(tree, "search", forbidden)
    monkeypatch.setattr(Arena, "search", forbidden)
    monkeypatch.setattr(Arena, "probe", forbidden)
    probe = unbounded_probe(table.n_columns)
    stats = QueryStats()
    slices = 0
    while index.phase == "refinement":
        assert index._refine_step(2_000, probe, stats) > 0
        slices += 1
    assert slices > 3 and index.converged
    # Every pick still charged the whole-tree lookup the walk paid.
    assert stats.lookup_nodes > tree.node_count


def test_memo_is_keyed_by_generation_not_query_identity_alone():
    table = uniform_table()
    index = ProgressiveKDTree(table, delta=0.3, size_threshold=64)
    queries = WORKLOADS["uniform"](table)
    for query in queries[:5]:
        index.query(query)
    assert index.phase == "refinement"
    frontier = index.tree.frontier
    reach = frontier.reach(queries[5])
    assert frontier.reach(queries[5]) is reach  # same object, same tree
    # A structural change the frontier was not told how to patch (here:
    # simulated by the bare generation bump) must not be served stale.
    frontier.generation += 1
    recomputed = frontier.reach(queries[5])
    assert recomputed is not reach
    assert recomputed.generation == frontier.generation
    # A patched split keeps the memo current instead of dropping it.
    index.query(queries[5])
    assert frontier.consistency_errors() == []


# ------------------------------------------------- injected corruption

def _refining_index():
    table = uniform_table()
    index = ProgressiveKDTree(table, delta=0.1, size_threshold=64)
    for query in long_workload(table)[:160]:
        index.query(query)
    assert index.phase == "refinement" and len(index.tree.frontier) > 3
    assert any(leaf.converged for leaf in index.tree.iter_leaves())
    assert structural_errors(index) == []
    return index


def test_lost_frontier_entry_is_caught():
    index = _refining_index()
    frontier = index.tree.frontier
    del frontier._open[frontier.pieces()[1]]
    assert any(
        "missing from the frontier" in p for p in structural_errors(index)
    )


def test_converged_leaf_in_frontier_is_caught():
    index = _refining_index()
    frontier = index.tree.frontier
    leaf = next(l for l in index.tree.iter_leaves() if l.converged)
    frontier._add(leaf)
    assert any("is not an open leaf" in p for p in structural_errors(index))


def test_tampered_frontier_box_is_caught():
    """A frontier box is the arena's stored path box: tampering with it
    is caught by the recomputation from the root (I2)."""
    index = _refining_index()
    frontier = index.tree.frontier
    piece = frontier.pieces()[0]
    lo, hi = frontier.box(piece)
    index.tree.arena.path_hi[piece.arena_id] = (hi[0] - 1.0,) + hi[1:]
    assert frontier.box(piece)[1][0] == hi[0] - 1.0
    assert any("diverge from its path" in p for p in structural_errors(index))


def test_stale_heap_top_is_caught():
    index = _refining_index()
    frontier = index.tree.frontier
    largest = frontier.largest()
    frontier._heap = [entry for entry in frontier._heap if entry[2] is not largest]
    assert any("frontier heap" in p for p in structural_errors(index))


def test_drifted_memo_is_caught():
    index = _refining_index()
    reach = index.tree.frontier._reach
    assert reach is not None
    reach.visited += 1
    assert any("node visits" in p for p in structural_errors(index))
    reach.visited -= 1
    reach.pieces.pop(next(iter(reach.pieces)))
    assert any("reach memo holds" in p for p in structural_errors(index))


def test_fuzzer_catches_a_frontier_that_forgets_a_child(monkeypatch):
    """PR 1 pattern: break the maintenance, the fuzzer's per-query
    sweep must fail the run (answers stay right — only I12 can see it)."""
    real = Frontier.on_split

    def forgetful(self, piece, dim, key, left, right):
        open_before = len(self._open)
        real(self, piece, dim, key, left, right)
        if right in self._open and open_before > 2:
            del self._open[right]
            if self._reach is not None:
                self._reach.pieces.pop(right, None)

    monkeypatch.setattr(Frontier, "on_split", forgetful)
    case = FuzzCase(
        seed=11, kind="uniform", n_rows=1_500, n_dims=2, n_queries=20,
        size_threshold=32, delta=0.25,
    )
    table, queries = build_workload(case)
    for backend in ("akd", "pkd", "gpkd"):
        position, problems = run_backend_case(backend, table, queries, case)
        assert position is not None, f"{backend}: breakage went unnoticed"
        assert any("frontier" in p for p in problems), problems


def test_clean_fuzz_case_exercises_the_frontier_invariant(monkeypatch):
    calls = []
    real = Frontier.consistency_errors

    def counting(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(Frontier, "consistency_errors", counting)
    case = FuzzCase(
        seed=12, kind="duplicate", n_rows=1_200, n_dims=2, n_queries=15,
        size_threshold=32, delta=0.25,
    )
    table, queries = build_workload(case)
    for backend in ("akd", "pkd", "gpkd"):
        position, problems = run_backend_case(backend, table, queries, case)
        assert position is None, problems
    assert len(calls) >= 3 * 15 - 6


# -------------------------------------------------- creation-step kernel

@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_creation_step_is_an_order_preserving_two_way_pivot(dtype):
    """Content check of the gather kernel against the boolean-mask
    formulation it replaced."""
    rng = np.random.default_rng(37)
    matrix = rng.random((3_000, 3)) * 100
    table = Table.from_matrix(matrix, dtype=dtype)
    index = ProgressiveKDTree(table, delta=0.3, size_threshold=64)
    stats = QueryStats()
    index._ensure_initialized(stats)
    pivot = index._pivot0
    copied = 0
    for budget in (700, 1, 1_299, 5_000):
        copied += index._creation_step(budget, stats)
        columns = [table.column(d)[:copied] for d in range(3)]
        mask = columns[0] <= pivot
        ids = np.arange(copied, dtype=np.int64)
        n_top = int(mask.sum())
        n_bottom = copied - n_top
        # Bottom rows are written chunk by chunk from the end, each
        # chunk in base order, so compare as sets of (id -> values).
        assert index._top_write == n_top
        assert np.array_equal(index._index.rowids[:n_top], ids[mask])
        bottom_ids = index._index.rowids[table.n_rows - n_bottom :]
        assert np.array_equal(np.sort(bottom_ids), ids[~mask])
        for dim in range(3):
            assert np.array_equal(
                index._index.columns[dim][:n_top], columns[dim][mask]
            )
            assert np.array_equal(
                index._index.columns[dim][table.n_rows - n_bottom :],
                table.column(dim)[bottom_ids],
            )
    assert copied == table.n_rows and index.phase != "creation"
    assert stats.copied == table.n_rows * 4
