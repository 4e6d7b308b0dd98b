"""The Progressive KD-Tree (Section III-B) — fixed-budget progressive index.

Each query spends (at most) a fixed indexing budget of ``delta * N`` rows,
independent of the query predicates, so the first-query penalty is bounded
and convergence is deterministic.  Two phases:

*Creation phase* — queries copy the next ``delta * N`` rows of the base
table into the index table, two-way pivoted around the arithmetic mean of
the first dimension (computed at load time).  Queries are answered by
scanning the relevant indexed side(s) plus the not-yet-copied tail of the
base table.

*Refinement phase* — once all rows are copied, queries keep splitting
pieces (round-robin dimension per level, mean pivots) using a *pausable*
in-place partition, prioritising pieces the running query needs, then the
largest piece, until every piece is below ``size_threshold``.  A fully
converged Progressive KD-Tree has the same structure as an up-front
mean-pivot KD-Tree (tested).

Deviation note: the paper derives child pivots from sums tracked during
the parent's partitioning; we compute the child's mean with one extra
vectorised pass when the child is first scheduled.  The asymptotic work is
identical and is attributed to the refinement phase, but it is not charged
against the per-query budget (matching the paper, where the sums are free
by-products).
"""

from __future__ import annotations

from heapq import heapify, heappop
from typing import Iterable, Iterator, List, Optional

import numpy as np

from ..errors import InvalidParameterError
from .cost_model import CostModel, MachineProfile
from .index_base import BaseIndex, IndexDebugState, IndexTable
from .kdtree import KDTree
from .metrics import PhaseTimer, QueryStats
from ..parallel import config as parallel_config
from ..parallel import executor as parallel_executor
from .node import Piece
from .partition import IncrementalPartition
from .query import RangeQuery
from .table import Table

__all__ = ["ProgressiveKDTree"]

#: Index lifecycle phases.
CREATION, REFINEMENT, CONVERGED = "creation", "refinement", "converged"


class ProgressiveKDTree(BaseIndex):
    """Progressive KD-Tree (PKD) with a fixed per-query budget ``delta``.

    Parameters
    ----------
    table:
        Base table to index.
    delta:
        Fraction of ``N`` indexed per query, in ``(0, 1]``.
    size_threshold:
        Convergence piece size.
    tau:
        Optional interactivity threshold in seconds; when supplied, the
        budget is capped (Section III-B, "Interactivity Threshold"):
        if a full scan fits under ``tau`` a ``delta'`` is derived from the
        cost model so no query exceeds ``tau``; otherwise the user delta
        is used until per-query scan cost drops below ``tau``.
    cost_model:
        Used only for ``tau`` handling; deterministic profile by default.
    """

    name = "PKD"

    def __init__(
        self,
        table: Table,
        delta: float = 0.2,
        size_threshold: int = 1024,
        tau: Optional[float] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        super().__init__(table)
        if not (0.0 < delta <= 1.0):
            raise InvalidParameterError(f"delta must be in (0, 1], got {delta}")
        if size_threshold < 1:
            raise InvalidParameterError(
                f"size_threshold must be >= 1, got {size_threshold}"
            )
        if tau is not None and tau <= 0:
            raise InvalidParameterError(f"tau must be positive, got {tau}")
        self.delta = delta
        self.size_threshold = size_threshold
        self.tau = tau
        self.cost_model = cost_model or CostModel(
            MachineProfile.deterministic(), table.n_rows, table.n_columns
        )
        self.phase = CREATION
        self._index: Optional[IndexTable] = None
        self._tree: Optional[KDTree] = None
        self._pivot0: Optional[float] = None
        self._rows_copied = 0
        self._top_write = 0  # next free slot from the top
        self._bottom_write = table.n_rows - 1  # next free slot from the bottom
        self._active: Optional[Piece] = None  # piece with an in-progress job
        self._capped_budget_seconds: Optional[float] = None  # tau cap
        self._last_scan_seconds: Optional[float] = None  # measured net cost

    # ------------------------------------------------------------------ budgets

    def _budget_rows(self) -> int:
        """Per-query indexing budget in rows, honouring ``tau`` if set.

        The user's ``delta`` defines a *time* budget — the time it takes to
        copy/pivot a ``delta`` fraction during creation (the paper's
        ``t_budget``).  During refinement the same time budget buys fewer
        row visits because swaps are dearer than sequential copies, exactly
        as the paper's two per-phase delta derivations prescribe
        (Section III-C: creation delta vs. refinement delta).
        """
        model = self.cost_model
        budget_seconds = self.delta * self.n_rows * model.creation_row_seconds()
        if self.tau is not None:
            if self._capped_budget_seconds is None:
                scan_estimate = model.full_scan_seconds()
                if scan_estimate <= self.tau:
                    # Situation (1): cap the budget so the very first query
                    # (scan + indexing) stays under tau.
                    self._capped_budget_seconds = max(
                        0.0, self.tau - scan_estimate
                    )
                elif self._estimated_scan_seconds() < self.tau:
                    # Situation (2): the index is now built enough; derive
                    # the budget for the remaining refinement work.
                    self._capped_budget_seconds = max(
                        0.0, self.tau - self._estimated_scan_seconds()
                    )
            if self._capped_budget_seconds is not None:
                budget_seconds = min(budget_seconds, self._capped_budget_seconds)
        if self.phase == REFINEMENT:
            rows = model.rows_for_refinement_budget(budget_seconds)
        else:
            rows = model.rows_for_creation_budget(budget_seconds)
        return max(1, rows)

    def _estimated_scan_seconds(self) -> float:
        """Net scan cost of the next query given the index state.

        Once queries are flowing, the best predictor is the *measured*
        (model-priced) scan cost of the previous query — the paper's
        situation-2 switch fires when "the scan cost per query drops
        below tau", which is an observation, not a bound.  Before any
        query has scanned, fall back to a coarse state-based estimate.
        """
        if self._last_scan_seconds is not None:
            return self._last_scan_seconds
        d_factor = 1.0 + 0.5 * (self.n_dims - 1)
        if self.phase == CREATION:
            unindexed = self.n_rows - self._rows_copied
            indexed_touch = 0.5 * self._rows_copied
            return self.cost_model.scan_seconds(
                int((unindexed + indexed_touch) * d_factor)
            )
        largest = self._tree.max_leaf_size() if self._tree is not None else 0
        return self.cost_model.scan_seconds(int(largest * d_factor))

    # --------------------------------------------------------------- creation

    def _ensure_initialized(self, stats: QueryStats) -> None:
        if self._index is not None:
            return
        with PhaseTimer(stats, "initialization"):
            self._index = IndexTable.allocate(
                self.n_rows, self.n_dims, dtype=self.table.column(0).dtype
            )
            # The paper computes the first pivot during data loading; it is
            # therefore not charged to any query's budget or counters.
            self._pivot0 = float(self.table.column(0).mean())

    def _creation_step(self, budget_rows: int, stats: QueryStats) -> int:
        """Copy and pivot the next ``budget_rows`` base rows into the index.

        Returns the number of rows actually copied.
        """
        n_copy = min(budget_rows, self.n_rows - self._rows_copied)
        if n_copy <= 0:
            return 0
        begin = self._rows_copied
        end = begin + n_copy
        mask = self.table.column(0)[begin:end] <= self._pivot0
        # One ascending index list per side, gathered straight into the
        # index table: order-preserving like the boolean masks it
        # replaces, without their per-column temporaries.  mode="clip"
        # only skips take's bounce buffer — the indices are in range.
        top = np.flatnonzero(mask)
        bottom = np.flatnonzero(~mask)
        n_top = top.shape[0]
        n_bottom = n_copy - n_top
        top_slice = slice(self._top_write, self._top_write + n_top)
        bottom_slice = slice(self._bottom_write - n_bottom + 1, self._bottom_write + 1)
        for dim in range(self.n_dims):
            chunk = self.table.column(dim)[begin:end]
            column = self._index.columns[dim]
            np.take(chunk, top, out=column[top_slice], mode="clip")
            np.take(chunk, bottom, out=column[bottom_slice], mode="clip")
        np.add(top, begin, out=self._index.rowids[top_slice])
        np.add(bottom, begin, out=self._index.rowids[bottom_slice])
        self._top_write += n_top
        self._bottom_write -= n_bottom
        self._rows_copied = end
        stats.copied += n_copy * (self.n_dims + 1)
        if self._rows_copied == self.n_rows:
            self._finish_creation(stats)
        return n_copy

    def _finish_creation(self, stats: QueryStats) -> None:
        """Turn the pivoted index table into the initial one-node KD-Tree."""
        self._tree = KDTree(self.n_rows, self.n_dims)
        frontier = self._tree.open_frontier(self.size_threshold)
        # Seed the root zone map before the pivot-0 split so both initial
        # children inherit it.  Uncharged, like the pivot itself (the
        # paper computes both during data loading).
        if self.n_rows > 0:
            self._tree.seed_root_zone(
                self.table.minimums(), self.table.maximums()
            )
        split = self._top_write
        root = self._tree.arena.pieces[0]
        if 0 < split < self.n_rows:
            left, right = self._tree.split_leaf(root, 0, self._pivot0, split)
            stats.nodes_created += 1
            children = [left, right]
        else:
            # Degenerate: the first column is constant; refinement will
            # rotate to the next dimension.
            root.dims_tried = 1
            children = [root]
        for child in children:
            if child.size <= self.size_threshold:
                child.converged = True
        self.phase = REFINEMENT if frontier else CONVERGED

    def _creation_scan(self, query: RangeQuery, stats: QueryStats) -> np.ndarray:
        """Answer a creation-phase query: indexed side(s) + base-table tail."""
        scanned_before = stats.scanned
        nodes_before = stats.lookup_nodes
        parts: List[np.ndarray] = []
        pivot = self._pivot0
        check_low = np.ones(self.n_dims, dtype=bool)
        check_high = np.ones(self.n_dims, dtype=bool)
        if self._top_write > 0 and query.lows[0] < pivot:
            top_high = check_high.copy()
            top_high[0] = pivot > query.highs[0]  # piece implies x0 <= pivot
            positions = parallel_executor.scan_range(
                self._index.columns,
                0,
                self._top_write,
                query,
                stats,
                check_low=check_low,
                check_high=top_high,
            )
            parts.append(self._index.rowids[positions])
        if self._bottom_write < self.n_rows - 1 and query.highs[0] > pivot:
            bottom_low = check_low.copy()
            bottom_low[0] = pivot < query.lows[0]  # piece implies x0 > pivot
            positions = parallel_executor.scan_range(
                self._index.columns,
                self._bottom_write + 1,
                self.n_rows,
                query,
                stats,
                check_low=bottom_low,
                check_high=check_high,
            )
            parts.append(self._index.rowids[positions])
        if self._rows_copied < self.n_rows:
            positions = parallel_executor.scan_range(
                self.table.columns(), self._rows_copied, self.n_rows, query, stats
            )
            parts.append(positions.astype(np.int64))
        self._record_scan_cost(stats, scanned_before, nodes_before)
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)

    # -------------------------------------------------------------- refinement

    def _choose_split(self, piece: Piece, stats: QueryStats) -> bool:
        """Pick the split dimension and mean pivot for ``piece``.

        Returns False (and marks the piece converged) when the piece is
        constant on every dimension and cannot be split.
        """
        while piece.dims_tried < self.n_dims:
            dim = (piece.level + piece.dims_tried) % self.n_dims
            values = self._index.columns[dim][piece.start : piece.end]
            stats.scanned += piece.size  # pivot derivation pass (see module note)
            low = float(values.min())
            high = float(values.max())
            if piece.zone_lo is not None:
                # The pivot pass computed this dimension's true extent;
                # tighten the zone map for free.
                piece.zone_lo = tuple(
                    max(bound, low) if d == dim else bound
                    for d, bound in enumerate(piece.zone_lo)
                )
                piece.zone_hi = tuple(
                    min(bound, high) if d == dim else bound
                    for d, bound in enumerate(piece.zone_hi)
                )
                self._tree.arena.sync_zone(piece)
            if low < high:
                pivot = float(values.mean())
                if pivot >= high:
                    # Float rounding pushed the mean onto the maximum; fall
                    # back to the minimum, which always yields a two-sided
                    # split when low < high.
                    pivot = low
                piece.split_dim = dim
                piece.pivot = pivot
                return True
            piece.dims_tried += 1
        piece.converged = True
        return False

    def _refine_step(
        self, budget_rows: int, query: RangeQuery, stats: QueryStats
    ) -> int:
        """Spend up to ``budget_rows`` of refinement; returns rows used.

        Scheduling overhead (piece lookups and pivot-derivation passes) is
        converted to its row-visit equivalent and charged against the
        budget, so the per-query gross cost stays bounded by the budget
        regardless of how many pieces get scheduled.

        With parallel workers configured (:mod:`repro.parallel`) and more
        than one open piece, the budget fans out across disjoint pieces
        per round instead (:meth:`_refine_step_parallel`); ``workers ==
        1`` always takes the serial loop below, unchanged.
        """
        frontier = self._tree.frontier
        if (
            parallel_config.fanout_workers() > 1
            and len(frontier) > 1
            and not parallel_config.in_worker()
        ):
            return self._refine_step_parallel(budget_rows, query, stats)
        model = self.cost_model
        row_seconds = model.refinement_row_seconds()
        used_total = 0
        while budget_rows > 0 and frontier:
            before = model.seconds_of(stats)
            piece = self._pick_piece(query, stats)
            if piece.job is None:
                if piece.split_dim is None and not self._choose_split(piece, stats):
                    self._drop_open(piece)
                    budget_rows -= int((model.seconds_of(stats) - before) / row_seconds)
                    continue
                piece.job = IncrementalPartition(
                    self._index.all_arrays,
                    piece.start,
                    piece.end,
                    piece.split_dim,
                    piece.pivot,
                )
            budget_rows -= int((model.seconds_of(stats) - before) / row_seconds)
            if budget_rows <= 0:
                break
            used = piece.job.advance(budget_rows)
            stats.swapped += used * (self.n_dims + 1)
            used_total += used
            budget_rows -= used
            if piece.job.done:
                self._complete_piece(piece, stats)
        if not frontier:
            self.phase = CONVERGED
        return used_total

    def _complete_piece(self, piece: Piece, stats: QueryStats) -> None:
        job = piece.job
        piece.job = None
        if self._active is piece:
            self._active = None
        split = job.split
        if split == piece.start or split == piece.end:
            # The mean failed to separate (constant column up to float
            # rounding): rotate to the next dimension and retry later.
            piece.split_dim = None
            piece.pivot = None
            piece.dims_tried += 1
            if piece.dims_tried >= self.n_dims:
                piece.converged = True
                self._drop_open(piece)
            return
        left, right = self._tree.split_leaf(
            piece, piece.split_dim, piece.pivot, split
        )
        stats.nodes_created += 1
        for child in (left, right):
            if child.size <= self.size_threshold:
                child.converged = True

    def _drop_open(self, piece: Piece) -> None:
        """Retire an unsplittable piece from the frontier."""
        self._tree.frontier.drop(piece)
        if self._active is piece:
            self._active = None

    def _pick_piece(self, query: RangeQuery, stats: QueryStats) -> Piece:
        """Refinement priority: pieces the query needs, then the largest.

        An in-progress partition job is finished before a new one starts
        (half-partitioned pieces would otherwise pile up).
        """
        if self._active is not None and not self._active.converged:
            return self._active
        frontier = self._tree.frontier
        reach = frontier.reach(query)
        # The lookup a fresh descent would pay, charged per pick.
        stats.lookup_nodes += reach.visited
        chosen = reach.largest()
        if chosen is None:
            chosen = frontier.largest()
        self._active = chosen
        return chosen

    def _pick_pieces(
        self, query: RangeQuery, stats: QueryStats, limit: int
    ) -> List[Piece]:
        """Up to ``limit`` disjoint pieces to refine this round, each with
        a scheduled partition job.

        Deterministic generalisation of :meth:`_pick_piece`'s priority:
        pieces with an in-progress job first (finish before starting new
        ones, ordered by start), then pieces the query needs (largest
        first, start as tie-break), then the remaining open pieces
        likewise.  Scheduling work (pivot derivation, job creation) is
        charged to ``stats`` exactly as the serial path charges it;
        unsplittable pieces are dropped from the open set on the spot.
        """
        chosen: List[Piece] = []
        seen = set()

        def consider(piece: Piece) -> bool:
            """Schedule ``piece`` if possible; True once ``limit`` is hit."""
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

        frontier = self._tree.frontier
        in_progress = [
            piece for piece in frontier.pieces() if piece.job is not None
        ]
        for piece in sorted(in_progress, key=lambda piece: piece.start):
            if consider(piece):
                return chosen
        reach = frontier.reach(query)
        stats.lookup_nodes += reach.visited
        for piece in _largest_first(reach.pieces):
            if consider(piece):
                return chosen
        for piece in _largest_first(frontier.pieces()):
            if consider(piece):
                return chosen
        return chosen

    def _refine_step_parallel(
        self, budget_rows: int, query: RangeQuery, stats: QueryStats
    ) -> int:
        """Round-based parallel refinement: split the budget over up to
        ``workers`` disjoint pieces per round and advance their partition
        jobs concurrently (:func:`repro.parallel.executor.advance_jobs`).

        Budget accounting stays centralised and deterministic: grants are
        computed here (equal shares, remainder to the first piece), each
        job's ``advance`` is internally deterministic for a given grant,
        and completions are applied in piece order after the round — so
        for a fixed worker count the resulting tree is reproducible.
        Pieces are disjoint leaf ranges, which is what makes concurrent
        in-place partitioning of the shared index arrays safe.
        """
        model = self.cost_model
        row_seconds = model.refinement_row_seconds()
        workers = parallel_config.fanout_workers()
        frontier = self._tree.frontier
        used_total = 0
        while budget_rows > 0 and frontier:
            before = model.seconds_of(stats)
            ready = self._pick_pieces(query, stats, workers)
            budget_rows -= int((model.seconds_of(stats) - before) / row_seconds)
            if budget_rows <= 0:
                break
            if not ready:
                continue  # everything picked proved unsplittable; re-pick
            share = budget_rows // len(ready)
            if share <= 0:
                # Budget smaller than the fan-out: grant it all to the
                # first piece so the round always makes progress.
                pairs = [(ready[0], budget_rows)]
            else:
                remainder = budget_rows - share * len(ready)
                pairs = [
                    (piece, share + (remainder if position == 0 else 0))
                    for position, piece in enumerate(ready)
                ]
            used_each = parallel_executor.advance_jobs(pairs)
            for (piece, _), used in zip(pairs, used_each):
                stats.swapped += used * (self.n_dims + 1)
                used_total += used
                budget_rows -= used
            for piece, _ in pairs:
                if piece.job is not None and piece.job.done:
                    self._complete_piece(piece, stats)
        if not frontier:
            self.phase = CONVERGED
        return used_total

    def _refined_scan(self, query: RangeQuery, stats: QueryStats) -> np.ndarray:
        scanned_before = stats.scanned
        nodes_before = stats.lookup_nodes
        matches = self._tree.search(query, stats)
        parts = self._index.scan_pieces(matches, query, stats)
        self._record_scan_cost(stats, scanned_before, nodes_before)
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)

    def _record_scan_cost(
        self, stats: QueryStats, scanned_before: int, nodes_before: int
    ) -> None:
        profile = self.cost_model.profile
        self._last_scan_seconds = (
            (stats.scanned - scanned_before) * profile.seq_read
            + (stats.lookup_nodes - nodes_before) * profile.random_access
        )

    # ------------------------------------------------------------------- query

    def _execute(self, query: RangeQuery, stats: QueryStats) -> np.ndarray:
        self._ensure_initialized(stats)
        budget = self._budget_rows()
        stats.delta_used = budget / self.n_rows
        if self.phase == CREATION:
            with PhaseTimer(stats, "adaptation"):
                copied = self._creation_step(budget, stats)
                leftover = budget - copied
                if leftover > 0 and self.phase == REFINEMENT:
                    # Convert leftover creation rows into their refinement
                    # equivalent: same time budget, dearer row visits.
                    leftover = self.cost_model.rows_for_refinement_budget(
                        leftover * self.cost_model.creation_row_seconds()
                    )
                    if leftover > 0:
                        self._refine_step(leftover, query, stats)
        elif self.phase == REFINEMENT:
            with PhaseTimer(stats, "adaptation"):
                self._refine_step(budget, query, stats)
        if self.phase == CREATION:
            with PhaseTimer(stats, "scan"):
                return self._creation_scan(query, stats)
        with PhaseTimer(stats, "scan"):
            return self._refined_scan(query, stats)

    # ---------------------------------------------------------------- metadata

    @property
    def converged(self) -> bool:
        return self.phase == CONVERGED

    def _pieces_readable(self) -> bool:
        # Mid-creation, the uncopied rows live only in the base table.
        return self.phase != CREATION and super()._pieces_readable()

    @property
    def node_count(self) -> int:
        return 0 if self._tree is None else self._tree.node_count

    @property
    def open_piece_count(self) -> Optional[int]:
        """Unconverged pieces in the refinement work-list.

        ``None`` while the creation phase is still copying rows — the
        tree (and therefore the notion of an open piece) does not exist
        yet; 0 once converged.
        """
        if self.phase == CREATION:
            return None
        return len(self._tree.frontier)

    @property
    def convergence_rows_estimate(self) -> Optional[int]:
        """Cost-model rows left to convergence (telemetry gauge).

        During creation: the rows still to copy plus the model's full
        refinement estimate for the whole table (the tree does not exist
        yet, so the open-piece work list is the table itself).  During
        refinement: the priced work list.  ``frontier.pieces()`` snapshots
        the work list so a concurrent refinement slice (the serve-layer
        scheduler runs on its own thread) cannot mutate it mid-walk —
        the estimate may be one slice stale, never torn.
        """
        if self.phase == CONVERGED:
            return 0
        model = self.cost_model
        if self.phase == CREATION:
            remaining_copy = self.n_rows - self._rows_copied
            return remaining_copy + model.rows_to_converge(
                (self.n_rows,), self.size_threshold
            )
        return model.rows_to_converge(
            (piece.size for piece in self._tree.frontier.pieces()),
            self.size_threshold,
        )

    @property
    def tree(self) -> Optional[KDTree]:
        return self._tree

    @property
    def index_table(self) -> Optional[IndexTable]:
        return self._index

    @property
    def rows_copied(self) -> int:
        """Rows moved into the index table so far (creation progress)."""
        return self._rows_copied

    def debug_state(self) -> IndexDebugState:
        """Full internal state for the invariant checkers.

        During the creation phase only the top/bottom write regions of the
        index table hold valid rows; ``filled_ranges`` narrows the
        alignment checks accordingly, and the creation cursors plus the
        first pivot go into ``extras`` so the phase-specific creation
        invariant (top side ``<= pivot0``, bottom side ``> pivot0``, both
        sides together holding exactly the copied base prefix) can be
        verified.
        """
        if self.phase == CREATION and self._index is not None:
            filled = [
                span
                for span in (
                    (0, self._top_write),
                    (self._bottom_write + 1, self.n_rows),
                )
                if span[0] < span[1]
            ]
        else:
            filled = None
        return IndexDebugState(
            index=self,
            tree=self._tree,
            index_table=self._index,
            size_threshold=self.size_threshold,
            filled_ranges=filled,
            open_pieces=(
                [] if self._tree is None else self._tree.frontier.pieces()
            ),
            phase=self.phase,
            extras={
                "pivot0": self._pivot0,
                "rows_copied": self._rows_copied,
                "top_write": self._top_write,
                "bottom_write": self._bottom_write,
                "active_piece": self._active,
            },
        )


def _largest_first(pieces: Iterable[Piece]) -> Iterator[Piece]:
    """``pieces`` by ``(-size, start)``, sorted only as far as consumed."""
    heap = [(-piece.size, piece.start, piece) for piece in pieces]
    heapify(heap)
    while heap:
        yield heappop(heap)[2]
