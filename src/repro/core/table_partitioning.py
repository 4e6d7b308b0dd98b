"""Table partitioning: physical sharding plus adaptive in-place cracking.

Two layers share this module:

**Sharding** (:class:`ShardedTable` / :class:`ShardedIndex`) splits a
registered table into contiguous, balanced row-range shards, each with
its own per-column min/max zone map and its own independently-built
inner index.  A query is answered scatter-gather: the zone maps prune
shards whose box cannot intersect the query (the same data-free test
PR-2's leaf zone maps perform, one level up), the survivors execute
against their inner indexes — serially, across the thread pool, or with
each shard's scans fanning out over the process tier
(:mod:`repro.parallel.procpool`) — and the per-shard answers and
``QueryStats`` merge in shard order, so the result is bit-identical to
the serial loop.  Shard-local rowids map back through the shard's
``row_offset``; sharding is invisible in the answer.  Refinement also
decomposes: :meth:`ShardedIndex._refine_step` splits a budget across
the shards still refining, which is what lets the think-time
:class:`~repro.parallel.scheduler.RefinementScheduler` converge shards
in parallel.  Invariant I10 (:func:`repro.invariants.shard_errors`)
checks disjoint complete coverage and zone soundness, and sweeps I1–I9
over every inner index.

**Adaptive table partitioning** (:class:`AdaptiveTablePartitioner`) is
the paper's Section V future-work idea:

    "A similar reorganization strategy can be extended for the original
    table's data instead of creating a secondary index structure.  This
    would increase the usability of the data reorganization since the
    multidimensional indexes will suffer from tuple reconstruction costs
    when accessing non-indexed tuples."

It applies the Adaptive KD-Tree's cracking strategy to the *whole*
table — payload columns are physically reorganised together with the
dimension columns.  Queries therefore return (mostly) contiguous row
runs, and payload access is a direct slice of the partitioned storage
instead of a rowid-gather through a secondary index (:meth:`fetch` vs.
the ``rowids[...]`` hop every secondary index pays).  The trade-off the
paper predicts is measurable here: reorganisation moves ``d + p + 1``
arrays per pivot instead of ``d + 1``, so adaptation costs grow with
the payload width while reads shrink.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import InvalidParameterError, InvalidTableError
from ..obs import metrics as obs_metrics
from .frontier import left_to_right
from .index_base import BaseIndex
from .kdtree import KDTree
from .metrics import PhaseTimer, QueryStats
from .partition import stable_partition
from .progressive_kdtree import CONVERGED, CREATION, REFINEMENT
from .query import RangeQuery
from .scan import range_scan
from .table import Table

__all__ = [
    "Shard",
    "ShardedTable",
    "ShardedIndex",
    "AdaptiveTablePartitioner",
    "PartitionedResult",
]


class Shard:
    """One contiguous row-range shard of a sharded table.

    ``table`` holds zero-copy column views ``base[start:end)``;
    ``row_offset`` (= ``start``) maps shard-local rowids back to base
    rowids; ``zone_lo``/``zone_hi`` are the per-column min/max of the
    shard's rows, computed once at sharding time (the base table is
    read-only, so they never go stale).
    """

    __slots__ = ("shard_id", "row_offset", "n_rows", "table", "zone_lo", "zone_hi")

    def __init__(
        self, shard_id: int, row_offset: int, table: Table
    ) -> None:
        self.shard_id = shard_id
        self.row_offset = row_offset
        self.n_rows = table.n_rows
        self.table = table
        self.zone_lo = tuple(float(v) for v in table.minimums())
        self.zone_hi = tuple(float(v) for v in table.maximums())

    def intersects(self, query: RangeQuery) -> bool:
        """Data-free zone test: can any shard row satisfy the query?

        Same half-open semantics as the leaf zone maps: ``low < x <=
        high`` cannot hold anywhere in ``[zlo, zhi]`` when ``high < zlo``
        or ``low >= zhi``.
        """
        lows = query.lows_f
        highs = query.highs_f
        for dim in range(query.n_dims):
            if highs[dim] < self.zone_lo[dim] or lows[dim] >= self.zone_hi[dim]:
                return False
        return True

    def __repr__(self) -> str:
        return (
            f"Shard({self.shard_id}: rows [{self.row_offset}, "
            f"{self.row_offset + self.n_rows}))"
        )


class ShardedTable:
    """A table split into contiguous, balanced row-range shards.

    Shard boundaries follow the balanced split ``n_rows // n_shards``
    with the remainder spread over the first shards, so sizes differ by
    at most one row.  Column views are registered with the shared-memory
    layer when the base columns are shm-backed
    (:meth:`~repro.core.table.Table.share`), which lets each shard's
    scans fan out over the process pool independently.
    """

    def __init__(self, table: Table, n_shards: int) -> None:
        n_shards = int(n_shards)
        if n_shards < 1:
            raise InvalidParameterError(
                f"shard count must be >= 1, got {n_shards}"
            )
        n_shards = min(n_shards, max(1, table.n_rows))
        self.table = table
        self.shards: List[Shard] = []
        base_columns = table.columns()
        names = table.names
        size, extra = divmod(table.n_rows, n_shards)
        start = 0
        for shard_id in range(n_shards):
            end = start + size + (1 if shard_id < extra else 0)
            views = [column[start:end] for column in base_columns]
            self._register_views(views, base_columns)
            shard_table = Table(views, names, dtype=base_columns[0].dtype)
            self.shards.append(Shard(shard_id, start, shard_table))
            start = end
        assert start == table.n_rows

    @staticmethod
    def _register_views(
        views: Sequence[np.ndarray], bases: Sequence[np.ndarray]
    ) -> None:
        from ..parallel import shm as parallel_shm

        for view, base in zip(views, bases):
            parallel_shm.register_view(view, base)

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def prune(self, query: RangeQuery) -> Tuple[List[Shard], int]:
        """Shards whose zone box intersects the query, plus pruned count."""
        survivors = [shard for shard in self.shards if shard.intersects(query)]
        return survivors, len(self.shards) - len(survivors)


class ShardedIndex(BaseIndex):
    """Scatter-gather index: one independent inner index per shard.

    Parameters
    ----------
    table:
        The (projected) base table to shard.
    factory:
        ``factory(shard_table) -> BaseIndex`` building the inner index
        of one shard — e.g. a technique lambda from
        :data:`repro.session.TECHNIQUES` partially applied to the
        session settings.
    n_shards:
        Number of contiguous row-range shards.

    Answers are bit-identical to the unsharded index as row-id *sets*
    (each shard returns its own rows, offset back to base rowids) and
    bit-identical to the sharded serial loop as arrays: shards always
    merge in shard order, whether they executed serially, across the
    thread pool, or with per-shard process fan-out.
    """

    name = "Sharded"

    def __init__(
        self,
        table: Table,
        factory: Callable[[Table], BaseIndex],
        n_shards: int,
    ) -> None:
        super().__init__(table)
        self.sharded = ShardedTable(table, n_shards)
        self.shards = self.sharded.shards
        self.indexes: List[BaseIndex] = [
            factory(shard.table) for shard in self.shards
        ]
        inner = self.indexes[0].name
        self.name = f"Sharded[{inner}x{len(self.shards)}]"
        #: Generation-keyed cache of per-shard labeled instrument handles
        #: (same pattern as the kernel and serve layers): one registry
        #: lookup per shard per reset, not per query.
        self._shard_metric_handles: Optional[Tuple[int, List[dict]]] = None
        self.size_threshold = getattr(self.indexes[0], "size_threshold", None)
        # The scheduler prices refinement slices through the index's cost
        # model; per-row prices barely vary across same-width shards, so
        # the first shard's model prices the whole group.
        self.cost_model = getattr(self.indexes[0], "cost_model", None)

    # -- telemetry -----------------------------------------------------------

    def _shard_metrics(self) -> Optional[List[dict]]:
        """Per-shard labeled instrument handles, or ``None`` while the
        metrics plane is off.  Entries align with ``self.shards``."""
        if not obs_metrics.ENABLED:
            return None
        registry = obs_metrics.REGISTRY
        cached = self._shard_metric_handles
        if cached is not None and cached[0] == registry.generation:
            return cached[1]
        handles: List[dict] = []
        for shard in self.shards:
            labels = {"index": self.name, "shard": shard.shard_id}
            handles.append(
                {
                    "scans": registry.counter("shard.scans", **labels),
                    "pruned": registry.counter("shard.zone_pruned", **labels),
                    "refine_slices": registry.counter(
                        "shard.refine_slices", **labels
                    ),
                    "refine_rows": registry.counter(
                        "shard.refine_rows", **labels
                    ),
                    "rows_to_converge": registry.gauge(
                        "shard.rows_to_converge", **labels
                    ),
                    "open_pieces": registry.gauge(
                        "shard.open_pieces", **labels
                    ),
                    "converged": registry.gauge("shard.converged", **labels),
                }
            )
        self._shard_metric_handles = (registry.generation, handles)
        return handles

    def _publish_shard_progress(self, handles: List[dict]) -> None:
        """Refresh the per-shard convergence gauges from inner-index state."""
        for position, index in enumerate(self.indexes):
            gauges = handles[position]
            estimate = index.convergence_rows_estimate
            if estimate is not None:
                gauges["rows_to_converge"].set(estimate)
            open_pieces = index.open_piece_count
            if open_pieces is not None:
                gauges["open_pieces"].set(open_pieces)
            gauges["converged"].set(int(index.converged))

    # -- query ---------------------------------------------------------------

    def _execute(self, query: RangeQuery, stats: QueryStats) -> np.ndarray:
        from ..parallel import config as parallel_config
        from ..parallel import procpool

        handles = self._shard_metrics()
        survivors: List[Tuple[Shard, BaseIndex]] = []
        for position, (shard, index) in enumerate(
            zip(self.shards, self.indexes)
        ):
            if shard.intersects(query):
                survivors.append((shard, index))
                if handles is not None:
                    handles[position]["scans"].inc()
            else:
                stats.pruned += 1
                if handles is not None:
                    handles[position]["pruned"].inc()
        if not survivors:
            return np.empty(0, dtype=np.int64)
        workers = parallel_config.get_workers()
        procs = procpool.get_process_workers()
        # Scatter shards over the thread pool only when the process tier
        # is idle: with REPRO_PROCS active, each shard's own scans fan
        # out over the process pool instead, and running shards serially
        # here keeps the two tiers from competing for the same cores.
        scatter = (
            workers > 1
            and len(survivors) > 1
            and procs <= 1
            and not parallel_config.in_worker()
            and not procpool.in_proc_worker()
        )
        if scatter:
            outcomes = self._scatter(survivors, query)
        else:
            outcomes = []
            for shard, index in survivors:
                shard_stats = QueryStats()
                outcomes.append(
                    (shard, index._route_query(query, shard_stats), shard_stats)
                )
        parts: List[np.ndarray] = []
        for shard, local_ids, shard_stats in outcomes:
            stats.merge(shard_stats)
            if local_ids.size:
                parts.append(local_ids + shard.row_offset)
        if handles is not None:
            self._publish_shard_progress(handles)
        if not parts:
            return np.empty(0, dtype=np.int64)
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts)

    def read(self, query: RangeQuery, stats: QueryStats) -> np.ndarray:
        """Snapshot read: every shard the zone boxes keep reads its own
        piece set (:meth:`BaseIndex.read`), merged in shard order."""
        parts: List[np.ndarray] = []
        for shard, index in zip(self.shards, self.indexes):
            if not shard.intersects(query):
                stats.pruned += 1
                continue
            local_ids = index.read(query, stats)
            if local_ids.size:
                parts.append(local_ids + shard.row_offset)
        if not parts:
            return np.empty(0, dtype=np.int64)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    @staticmethod
    def _scatter(
        survivors: List[Tuple[Shard, BaseIndex]], query: RangeQuery
    ) -> List[Tuple[Shard, np.ndarray, QueryStats]]:
        """Run surviving shards concurrently; results in shard order."""
        from .. import kernels
        from ..parallel import config as parallel_config

        backend_name = kernels.current_backend().name
        futures = [
            parallel_config.pool().submit(
                _shard_execute_task, backend_name, index, query
            )
            for _shard, index in survivors
        ]
        return [
            (shard, *future.result())
            for (shard, _index), future in zip(survivors, futures)
        ]

    # -- refinement ----------------------------------------------------------

    def _refine_step(
        self, budget_rows: int, query: RangeQuery, stats: QueryStats
    ) -> int:
        """Split a refinement budget across the shards still refining.

        Equal shares with the remainder on the first refinable shard —
        the same deterministic split :meth:`ProgressiveKDTree.
        _refine_step_parallel` uses across pieces, one level up.  Only
        shards in the refinement phase participate (a shard mid-creation
        finishes creation through its own queries).
        """
        refinable = [
            (position, index)
            for position, index in enumerate(self.indexes)
            if getattr(index, "phase", None) == REFINEMENT
        ]
        if not refinable or budget_rows <= 0:
            return 0
        handles = self._shard_metrics()
        share, remainder = divmod(int(budget_rows), len(refinable))
        used = 0
        for slot, (position, index) in enumerate(refinable):
            grant = share + (remainder if slot == 0 else 0)
            if grant > 0:
                step_used = index._refine_step(grant, query, stats)
                used += step_used
                if handles is not None:
                    handles[position]["refine_slices"].inc()
                    if step_used:
                        handles[position]["refine_rows"].inc(step_used)
        if handles is not None:
            self._publish_shard_progress(handles)
        return used

    # -- aggregate state -----------------------------------------------------

    @property
    def phase(self) -> Optional[str]:
        phases = [getattr(index, "phase", None) for index in self.indexes]
        if any(phase == REFINEMENT for phase in phases):
            return REFINEMENT
        if any(phase == CREATION for phase in phases):
            return CREATION
        if phases and all(phase == CONVERGED for phase in phases):
            return CONVERGED
        return None

    @property
    def converged(self) -> bool:
        return all(index.converged for index in self.indexes)

    @property
    def node_count(self) -> int:
        return sum(index.node_count for index in self.indexes)

    @property
    def open_piece_count(self) -> Optional[int]:
        counts = [index.open_piece_count for index in self.indexes]
        known = [count for count in counts if count is not None]
        return sum(known) if known else None

    @property
    def convergence_rows_estimate(self) -> Optional[int]:
        estimates = [
            index.convergence_rows_estimate for index in self.indexes
        ]
        known = [estimate for estimate in estimates if estimate is not None]
        return sum(known) if known else None

    def shard_signatures(self) -> List[object]:
        """Per-shard tree preorder signatures (determinism tests)."""
        signatures: List[object] = []
        for index in self.indexes:
            tree = getattr(index, "tree", None)
            signatures.append(
                tree.preorder_signature() if tree is not None else None
            )
        return signatures

    # -- debug introspection ---------------------------------------------------

    def self_check(self) -> None:
        from ..errors import InvariantViolationError
        from ..invariants import shard_errors

        problems = shard_errors(self)
        if problems:
            raise InvariantViolationError(self.name, problems)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({len(self.shards)} shards, "
            f"N={self.n_rows}, d={self.n_dims})"
        )


def _shard_execute_task(
    backend_name: str, index: BaseIndex, query: RangeQuery
) -> Tuple[np.ndarray, QueryStats]:
    """One shard's scatter task: private stats, thread-private backend,
    nested fan-outs suppressed (the shard already *is* the work unit)."""
    from .. import kernels
    from ..parallel import config as parallel_config

    parallel_config.enter_worker()
    try:
        shard_stats = QueryStats()
        backend = kernels.thread_instance(backend_name)
        with kernels.pinned(backend):
            local_ids = index._route_query(query, shard_stats)
        return local_ids, shard_stats
    finally:
        parallel_config.exit_worker()


class PartitionedResult:
    """Answer of a partitioned-table query.

    ``positions`` index the *current physical order* of the partitioned
    table; ``row_ids`` map them back to the original load order (kept for
    validation and stable external references).
    """

    __slots__ = ("positions", "row_ids", "stats", "_partitioner")

    def __init__(
        self,
        positions: np.ndarray,
        row_ids: np.ndarray,
        stats: QueryStats,
        partitioner: "AdaptiveTablePartitioner",
    ) -> None:
        self.positions = positions
        self.row_ids = row_ids
        self.stats = stats
        self._partitioner = partitioner
        stats.result_count = int(positions.size)

    @property
    def count(self) -> int:
        return int(self.positions.size)

    def fetch(self, column_position: int) -> np.ndarray:
        """Values of any column (dimension or payload) for the result rows,
        read directly from the partitioned storage — no rowid indirection."""
        return self._partitioner.storage(column_position)[self.positions]

    def __repr__(self) -> str:
        return f"PartitionedResult({self.count} rows)"


class AdaptiveTablePartitioner(BaseIndex):
    """Adaptive KD-Tree cracking applied to the base table in place.

    Parameters
    ----------
    table:
        The full table: dimension columns plus payload columns.
    dimension_positions:
        Which columns are query dimensions (defaults to all).  The rest
        are payload, physically reorganised alongside.
    size_threshold:
        As for the Adaptive KD-Tree.
    """

    name = "ATP"

    def __init__(
        self,
        table: Table,
        dimension_positions: Optional[Sequence[int]] = None,
        size_threshold: int = 1024,
    ) -> None:
        super().__init__(table)
        if size_threshold < 1:
            raise InvalidParameterError(
                f"size_threshold must be >= 1, got {size_threshold}"
            )
        if dimension_positions is None:
            dimension_positions = list(range(table.n_columns))
        if not dimension_positions:
            raise InvalidTableError("need at least one dimension column")
        seen = set()
        for position in dimension_positions:
            if not (0 <= position < table.n_columns) or position in seen:
                raise InvalidTableError(
                    f"bad dimension column position {position}"
                )
            seen.add(position)
        self.dimension_positions = list(dimension_positions)
        self.payload_positions = [
            position
            for position in range(table.n_columns)
            if position not in seen
        ]
        self.size_threshold = size_threshold
        # n_dims for the query interface is the dimension count, not the
        # full column count.
        self.n_dims = len(self.dimension_positions)
        self._storage: Optional[List[np.ndarray]] = None
        self._rowids: Optional[np.ndarray] = None
        self._tree: Optional[KDTree] = None

    # -- storage access -----------------------------------------------------------

    def storage(self, column_position: int) -> np.ndarray:
        """The partitioned physical column (original schema position)."""
        if self._storage is None:
            raise InvalidTableError("table not materialised yet; run a query")
        return self._storage[column_position]

    def row_ids_in_order(self) -> np.ndarray:
        """Original row id of every physical position (a permutation)."""
        return self._rowids

    @property
    def _dimension_arrays(self) -> List[np.ndarray]:
        return [self._storage[p] for p in self.dimension_positions]

    # -- lifecycle ------------------------------------------------------------------

    def _materialise(self, stats: QueryStats) -> None:
        self._storage = self.table.copy_columns()
        self._rowids = np.arange(self.table.n_rows, dtype=np.int64)
        self._tree = KDTree(self.table.n_rows, self.n_dims)
        self._tree.open_frontier(self.size_threshold)
        stats.copied += self.table.n_rows * (self.table.n_columns + 1)

    def _adapt(self, query: RangeQuery, stats: QueryStats) -> None:
        all_arrays = self._storage + [self._rowids]
        width = len(all_arrays)
        frontier = self._tree.frontier
        if not frontier:
            return
        # One uncharged descent per query; the frontier keeps the reached
        # set current across the pairs (see AdaptiveKDTree._adapt).
        reached = frontier.reach(query).pieces
        for dim, value in query.adaptation_pairs():
            key_index = self.dimension_positions[dim]
            for piece in left_to_right(reached):
                lob, hib = frontier.box(piece)
                if not (lob[dim] < value < hib[dim]):
                    continue
                split = stable_partition(
                    all_arrays, piece.start, piece.end, key_index, value
                )
                # Payload columns move too: that is the cost side of the
                # table-partitioning trade-off.
                stats.copied += piece.size * width
                if split == piece.start or split == piece.end:
                    continue
                self._tree.split_leaf(piece, dim, value, split)
                stats.nodes_created += 1

    # -- query -------------------------------------------------------------------------

    def _answer(self, query: RangeQuery, stats: QueryStats) -> np.ndarray:
        """Shared query path: adapt, search, scan; returns positions."""
        if self._storage is None:
            with PhaseTimer(stats, "initialization"):
                self._materialise(stats)
        with PhaseTimer(stats, "adaptation"):
            self._adapt(query, stats)
        with PhaseTimer(stats, "index_search"):
            matches = self._tree.search(query, stats)
        dims = self._dimension_arrays
        parts: List[np.ndarray] = []
        with PhaseTimer(stats, "scan"):
            for match in matches:
                parts.append(
                    range_scan(
                        dims,
                        match.piece.start,
                        match.piece.end,
                        query,
                        stats,
                        check_low=match.check_low,
                        check_high=match.check_high,
                    )
                )
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)

    def _execute(self, query: RangeQuery, stats: QueryStats) -> np.ndarray:
        positions = self._answer(query, stats)  # materialises on first call
        return self._rowids[positions]

    def partitioned_query(self, query: RangeQuery) -> PartitionedResult:
        """Answer ``query`` returning physical positions and a direct
        payload accessor."""
        import time

        stats = QueryStats()
        begin = time.perf_counter()
        positions = self._answer(query, stats)
        stats.seconds = time.perf_counter() - begin
        stats.converged = self.converged
        self.queries_executed += 1
        return PartitionedResult(positions, self._rowids[positions], stats, self)

    def result_runs(self, positions: np.ndarray) -> List[Tuple[int, int]]:
        """Compress result positions into contiguous ``[start, end)`` runs —
        the pay-off of partitioning the table itself."""
        if positions.size == 0:
            return []
        ordered = np.sort(positions)
        breaks = np.flatnonzero(np.diff(ordered) > 1)
        starts = np.concatenate(([0], breaks + 1))
        ends = np.concatenate((breaks, [ordered.size - 1]))
        return [
            (int(ordered[s]), int(ordered[e]) + 1) for s, e in zip(starts, ends)
        ]

    @property
    def node_count(self) -> int:
        return 0 if self._tree is None else self._tree.node_count

    @property
    def tree(self) -> Optional[KDTree]:
        return self._tree
