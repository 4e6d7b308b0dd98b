"""The Adaptive KD-Tree (Section III-A) — the paper's first contribution.

Cracking philosophy applied to a KD-Tree: query predicate bounds become
pivots, and only pieces that can still contain answers for the running
query are physically reorganised.  Two canonical phases per query:

* *initialization* (first query only): copy the base table into the index
  table;
* *adaptation*: for the pairs ``(dim, low_bound)...`` then
  ``(dim, high_bound)...`` in schema order, partition every
  query-intersecting piece larger than ``size_threshold`` around the pair.

If the user supplies an interactivity threshold ``tau`` and a full scan
already exceeds it, the first query additionally runs a pre-processing
step that builds a partial KD-Tree with arithmetic-mean pivots until every
piece scans under ``tau`` (Section III-A, "Interactivity Threshold").
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..errors import InvalidParameterError
from .cost_model import CostModel, MachineProfile
from .frontier import left_to_right
from .index_base import BaseIndex, IndexDebugState, IndexTable
from .kdtree import KDTree
from .metrics import PhaseTimer, QueryStats
from .node import Piece
from .partition import stable_partition
from .query import RangeQuery
from .table import Table

__all__ = ["AdaptiveKDTree"]


class AdaptiveKDTree(BaseIndex):
    """Adaptive KD-Tree (AKD).

    Parameters
    ----------
    table:
        The base table to index.
    size_threshold:
        Pieces at or below this size are never partitioned further; chosen
        "such that the extra effort of indexing would not outperform a
        simple scan".
    tau:
        Optional interactivity threshold in seconds.  When the estimated
        full-scan cost exceeds it, the first query pre-builds a partial
        mean-pivot KD-Tree until piece scans fit under ``tau``.
    cost_model:
        Cost model used only for the ``tau`` estimate; a deterministic one
        is created when omitted.
    """

    name = "AKD"

    def __init__(
        self,
        table: Table,
        size_threshold: int = 1024,
        tau: Optional[float] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        super().__init__(table)
        if size_threshold < 1:
            raise InvalidParameterError(
                f"size_threshold must be >= 1, got {size_threshold}"
            )
        if tau is not None and tau <= 0:
            raise InvalidParameterError(f"tau must be positive, got {tau}")
        self.size_threshold = size_threshold
        self.tau = tau
        self.cost_model = cost_model or CostModel(
            MachineProfile.deterministic(), table.n_rows, table.n_columns
        )
        self._index: Optional[IndexTable] = None
        self._tree: Optional[KDTree] = None

    # -- phases -------------------------------------------------------------------

    def _initialize(self, stats: QueryStats) -> None:
        self._index = IndexTable.copy_of(self.table, stats)
        self._tree = KDTree(self.n_rows, self.n_dims)
        self._tree.open_frontier(self.size_threshold)
        # Seed the root zone map from the column min/max; splits tighten
        # it so piece scans can skip or short-circuit via the synopsis.
        # Uncharged like the pivot statistics: metadata, not data movement.
        if self.n_rows > 0:
            self._tree.seed_root_zone(
                self.table.minimums(), self.table.maximums()
            )
        if self.tau is not None:
            scan_estimate = self.cost_model.full_scan_seconds()
            if scan_estimate > self.tau:
                self._preprocess(stats)

    def _preprocess(self, stats: QueryStats) -> None:
        """Mean-pivot pre-partitioning until piece scans fit under tau."""
        arrays = self._index.all_arrays
        queue: List[Piece] = list(self._tree.iter_leaves())
        while queue:
            piece = queue.pop()
            scan_cost = self.cost_model.scan_seconds(piece.size * self.n_dims)
            if scan_cost <= self.tau or piece.size <= self.size_threshold:
                continue
            dim = piece.level % self.n_dims
            values = self._index.columns[dim][piece.start : piece.end]
            pivot = float(values.mean())
            split = stable_partition(arrays, piece.start, piece.end, dim, pivot)
            stats.copied += piece.size * (self.n_dims + 1)
            if split == piece.start or split == piece.end:
                continue  # constant column; cannot be narrowed further
            left, right = self._split(piece, dim, pivot, split, stats)
            queue.append(left)
            queue.append(right)

    def _split(
        self, piece: Piece, dim: int, key: float, split: int, stats: QueryStats
    ) -> tuple:
        left, right = self._tree.split_leaf(piece, dim, key, split)
        stats.nodes_created += 1
        return left, right

    def _adapt(self, query: RangeQuery, stats: QueryStats) -> None:
        """Insert every predicate bound as a pivot into the pieces that are
        relevant to the query (Section III-A, "Adaptation phase")."""
        arrays = self._index.all_arrays
        frontier = self._tree.frontier
        if not frontier:
            return
        # The above-threshold leaves the query reaches: found by one
        # (uncharged) descent, then kept current by the frontier as the
        # pairs below split them.
        reached = frontier.reach(query).pieces
        for dim, value in query.adaptation_pairs():
            # A snapshot: splitting mutates the reached set.
            for piece in left_to_right(reached):
                lob, hib = frontier.box(piece)
                if not (lob[dim] < value < hib[dim]):
                    continue  # pivot cannot split this piece's key range
                split = stable_partition(arrays, piece.start, piece.end, dim, value)
                stats.copied += piece.size * (self.n_dims + 1)
                if split == piece.start or split == piece.end:
                    continue  # all rows on one side; no node worth creating
                self._split(piece, dim, value, split, stats)

    # -- query ----------------------------------------------------------------------

    def _execute(self, query: RangeQuery, stats: QueryStats) -> np.ndarray:
        if self._index is None:
            with PhaseTimer(stats, "initialization"):
                self._initialize(stats)
        with PhaseTimer(stats, "adaptation"):
            self._adapt(query, stats)
        return self._search_and_scan(query, stats)

    # -- introspection -----------------------------------------------------------------

    @property
    def converged(self) -> bool:
        """True when no piece above the size threshold remains.

        The Adaptive KD-Tree has no convergence *guarantee* (it only
        refines where queries land), but a workload may happen to refine
        everything; the harness uses this flag either way.
        """
        return self._tree is not None and not self._tree.frontier

    @property
    def node_count(self) -> int:
        return 0 if self._tree is None else self._tree.node_count

    @property
    def open_piece_count(self) -> Optional[int]:
        """Above-threshold leaves, from the incrementally-kept frontier."""
        if self._tree is None:
            return 1 if self.n_rows > self.size_threshold else 0
        return len(self._tree.frontier)

    @property
    def tree(self) -> Optional[KDTree]:
        return self._tree

    @property
    def index_table(self) -> Optional[IndexTable]:
        return self._index

    def debug_state(self) -> IndexDebugState:
        """Generic KD state plus the open-piece count.

        The count comes from the incrementally maintained frontier;
        exposing it lets the invariant checkers cross-validate it
        against an actual count of above-threshold leaves (a drifting
        frontier would silently corrupt :attr:`converged`).
        """
        state = super().debug_state()
        state.extras["open_pieces"] = self.open_piece_count
        return state
