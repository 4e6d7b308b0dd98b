"""Appends and deletes for the Adaptive KD-Tree.

The paper's techniques (like the adaptive-indexing literature they build
on) assume a static table; Section II notes KD-Trees get expensive to
maintain under updates.  This module adds the standard cracking answer to
that problem — *pending deltas with periodic merges* (cf. Idreos et al.,
"Updating a cracked database"):

* appended rows accumulate in an unindexed **pending buffer**; queries
  scan it with full predicates in addition to the index lookup, so answers
  are always up to date;
* deletes are **tombstones** filtered from every answer;
* when the pending buffer exceeds ``merge_fraction * N``, a **merge**
  folds it into the index table and re-cracks the merged data along the
  tree's existing pivots, preserving the refinement the workload has paid
  for (deleted rows are compacted away at the same time).

The master invariant still holds at every moment: answers equal a full
scan of the *logical* table (original + appends - deletes), which the
tests check after every operation.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Set, Tuple

import numpy as np

from ..errors import InvalidParameterError, InvalidTableError
from .adaptive_kdtree import AdaptiveKDTree
from .frontier import left_to_right
from .kdtree import KDTree
from .metrics import PhaseTimer, QueryStats
from .partition import stable_partition
from .query import RangeQuery
from .scan import range_scan
from .table import Table

__all__ = ["AppendableAdaptiveKDTree"]


class AppendableAdaptiveKDTree(AdaptiveKDTree):
    """Adaptive KD-Tree with append/delete support via pending deltas.

    Parameters
    ----------
    table:
        Initial table contents.
    merge_fraction:
        Merge the pending buffer into the index once it exceeds this
        fraction of the indexed row count.
    """

    name = "AKD+u"

    def __init__(
        self,
        table: Table,
        size_threshold: int = 1024,
        merge_fraction: float = 0.1,
        **kwargs,
    ) -> None:
        super().__init__(table, size_threshold=size_threshold, **kwargs)
        if not (0.0 < merge_fraction <= 1.0):
            raise InvalidParameterError(
                f"merge_fraction must be in (0, 1], got {merge_fraction}"
            )
        self.merge_fraction = merge_fraction
        self._pending: List[np.ndarray] = [
            np.empty(0, dtype=np.float64) for _ in range(table.n_columns)
        ]
        self._pending_ids = np.empty(0, dtype=np.int64)
        self._next_rowid = table.n_rows
        self._deleted: Set[int] = set()
        self.merges_performed = 0

    # -- logical-table bookkeeping ---------------------------------------------------

    @property
    def n_pending(self) -> int:
        return int(self._pending_ids.shape[0])

    @property
    def n_deleted(self) -> int:
        return len(self._deleted)

    @property
    def converged(self) -> bool:
        """True when the tree is converged *and* no pending row or
        tombstone remains: until then the next query may merge and
        re-crack, and answers need the pending scan and the tombstone
        filter of :meth:`_execute`."""
        return super().converged and not self.n_pending and not self._deleted

    @property
    def logical_rows(self) -> int:
        """Rows currently visible to queries."""
        base = self.n_rows if self._index is None else self._index.n_rows
        return base + self.n_pending - self.n_deleted

    # -- updates ------------------------------------------------------------------------

    def append(self, rows: np.ndarray) -> np.ndarray:
        """Append ``rows`` (shape ``(k, d)``); returns their new row ids."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim == 1:
            rows = rows.reshape(1, -1)
        if rows.ndim != 2 or rows.shape[1] != self.n_dims:
            raise InvalidTableError(
                f"appended rows must be (k, {self.n_dims}), got {rows.shape}"
            )
        new_ids = np.arange(
            self._next_rowid, self._next_rowid + rows.shape[0], dtype=np.int64
        )
        self._next_rowid += rows.shape[0]
        for dim in range(self.n_dims):
            self._pending[dim] = np.concatenate(
                [self._pending[dim], rows[:, dim]]
            )
        self._pending_ids = np.concatenate([self._pending_ids, new_ids])
        return new_ids

    def delete(self, row_ids) -> int:
        """Tombstone the given row ids; returns how many were newly deleted."""
        before = len(self._deleted)
        for row_id in np.asarray(row_ids, dtype=np.int64).ravel():
            if 0 <= row_id < self._next_rowid:
                self._deleted.add(int(row_id))
        return len(self._deleted) - before

    # -- merge ----------------------------------------------------------------------------

    def _collect_pivots(self) -> List[Tuple[int, float]]:
        """The tree's pivots in BFS order (top-down re-crack order)."""
        pivots: List[Tuple[int, float]] = []
        if self._tree is None:
            return pivots
        arena = self._tree.arena
        queue = deque([0])
        while queue:
            node = queue.popleft()
            dim = arena.dims[node]
            if dim >= 0:
                pivots.append((dim, arena.keys[node]))
                child = arena.lefts[node]
                queue.append(child)
                queue.append(child + 1)
        return pivots

    def merge_pending(self, stats: Optional[QueryStats] = None) -> None:
        """Fold pending rows into the index and compact tombstones.

        The merged table is re-cracked along the pivots the old tree had
        accumulated (deduplicated), so the refinement investment survives
        the merge.
        """
        if stats is None:
            stats = QueryStats()
        if self._index is None:
            # Nothing indexed yet: initialization will pick the pending
            # rows up through the merged base table below.
            self._initialize(stats)
        pivots = []
        seen = set()
        for dim, key in self._collect_pivots():
            if (dim, key) not in seen:
                seen.add((dim, key))
                pivots.append((dim, key))
        # Build the merged physical table: surviving indexed rows + pending.
        if self._deleted:
            tombstones = np.fromiter(
                self._deleted, dtype=np.int64, count=len(self._deleted)
            )
            keep = ~np.isin(self._index.rowids, tombstones)
            pending_keep = ~np.isin(self._pending_ids, tombstones)
        else:
            keep = np.ones(self._index.rowids.shape[0], dtype=bool)
            pending_keep = np.ones(self._pending_ids.shape[0], dtype=bool)
        merged_columns = []
        for dim in range(self.n_dims):
            merged_columns.append(
                np.concatenate(
                    [
                        self._index.columns[dim][keep],
                        self._pending[dim][pending_keep],
                    ]
                )
            )
        merged_ids = np.concatenate(
            [self._index.rowids[keep], self._pending_ids[pending_keep]]
        )
        n_merged = int(merged_ids.shape[0])
        stats.copied += n_merged * (self.n_dims + 1)
        self._index.columns = merged_columns
        self._index.rowids = merged_ids
        self._tree = KDTree(n_merged, self.n_dims)
        if n_merged > 0:
            # Fresh zone seed over the merged data (pending rows may lie
            # outside the old table's min/max).
            self._tree.seed_root_zone(
                [float(column.min()) for column in merged_columns],
                [float(column.max()) for column in merged_columns],
            )
        frontier = self._tree.open_frontier(self.size_threshold)
        # Re-crack along the old pivots, skipping ones that no longer split.
        arrays = self._index.all_arrays
        for dim, key in pivots:
            for piece in left_to_right(frontier.pieces()):
                lob, hib = frontier.box(piece)
                if not (lob[dim] < key < hib[dim]):
                    continue
                split = stable_partition(arrays, piece.start, piece.end, dim, key)
                stats.copied += piece.size * (self.n_dims + 1)
                if split == piece.start or split == piece.end:
                    continue
                self._split(piece, dim, key, split, stats)
        self._pending = [
            np.empty(0, dtype=np.float64) for _ in range(self.n_dims)
        ]
        self._pending_ids = np.empty(0, dtype=np.int64)
        self._deleted.clear()
        self.merges_performed += 1

    def _maybe_merge(self, stats: QueryStats) -> None:
        indexed = self.n_rows if self._index is None else self._index.n_rows
        threshold = max(1, int(self.merge_fraction * max(1, indexed)))
        if self.n_pending > threshold or self.n_deleted > threshold:
            self.merge_pending(stats)

    # -- query ------------------------------------------------------------------------------

    def _execute(self, query: RangeQuery, stats: QueryStats) -> np.ndarray:
        with PhaseTimer(stats, "adaptation"):
            self._maybe_merge(stats)
        answer = super()._execute(query, stats)
        if self.n_pending:
            with PhaseTimer(stats, "scan"):
                positions = range_scan(
                    self._pending, 0, self.n_pending, query, stats
                )
                answer = np.concatenate([answer, self._pending_ids[positions]])
        if self._deleted:
            tombstones = np.fromiter(
                self._deleted, dtype=np.int64, count=len(self._deleted)
            )
            answer = answer[~np.isin(answer, tombstones)]
        return answer
