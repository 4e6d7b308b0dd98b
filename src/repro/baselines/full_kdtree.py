"""Up-front full KD-Tree baselines (AvgKD and MedKD in the paper).

Both build the complete KD-Tree when the first query arrives ("they create
a full index when we query a group of columns for the first time",
Section IV-C), then answer every query with a pure lookup + piece scan.
They differ only in pivot choice:

* :class:`AverageKDTree` — arithmetic mean of the piece (cheap to compute,
  reasonably balanced on non-pathological data);
* :class:`MedianKDTree` — exact median (perfectly balanced, but "finding
  the median of a piece is more costly than finding the average value").

Dimensions rotate round-robin per level in the table's schema order
("built using the attribute order given by the table schema").
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.index_base import BaseIndex, IndexTable
from ..core.kdtree import KDTree
from ..core.metrics import PhaseTimer, QueryStats
from ..core.node import Piece
from ..core.partition import stable_partition
from ..core.query import RangeQuery
from ..core.table import Table
from ..errors import InvalidParameterError

__all__ = ["FullKDTree", "AverageKDTree", "MedianKDTree"]


class FullKDTree(BaseIndex):
    """Common machinery for the two eagerly-built KD-Tree baselines."""

    #: "mean" or "median"; fixed by the concrete subclass.
    pivot_strategy = "mean"

    def __init__(self, table: Table, size_threshold: int = 1024) -> None:
        super().__init__(table)
        if size_threshold < 1:
            raise InvalidParameterError(
                f"size_threshold must be >= 1, got {size_threshold}"
            )
        self.size_threshold = size_threshold
        self._index: Optional[IndexTable] = None
        self._tree: Optional[KDTree] = None

    # -- building --------------------------------------------------------------

    def _pivot(self, values: np.ndarray) -> float:
        if self.pivot_strategy == "mean":
            return float(values.mean())
        return float(np.median(values))

    def _build(self, stats: QueryStats) -> None:
        self._index = IndexTable.copy_of(self.table, stats)
        self._tree = KDTree(self.n_rows, self.n_dims)
        if self.n_rows > 0:
            self._tree.seed_root_zone(
                self.table.minimums(), self.table.maximums()
            )
        arrays = self._index.all_arrays
        queue: List[Piece] = [leaf for leaf in self._tree.iter_leaves()]
        while queue:
            piece = queue.pop()
            if piece.size <= self.size_threshold:
                continue
            dim = piece.level % self.n_dims
            values = self._index.columns[dim][piece.start : piece.end]
            pivot = self._pivot(values)
            split = stable_partition(arrays, piece.start, piece.end, dim, pivot)
            stats.copied += piece.size * (self.n_dims + 1)
            if split == piece.start or split == piece.end:
                # Constant column within the piece (mean/median == max);
                # a split would be empty-sided, so this piece stays a leaf.
                continue
            left, right = self._tree.split_leaf(piece, dim, pivot, split)
            stats.nodes_created += 1
            queue.append(left)
            queue.append(right)

    # -- querying ----------------------------------------------------------------

    def _execute(self, query: RangeQuery, stats: QueryStats) -> np.ndarray:
        if self._tree is None:
            with PhaseTimer(stats, "initialization"):
                self._build(stats)
        return self._search_and_scan(query, stats)

    @property
    def converged(self) -> bool:
        return self._tree is not None

    @property
    def node_count(self) -> int:
        return 0 if self._tree is None else self._tree.node_count

    @property
    def tree(self) -> Optional[KDTree]:
        """The underlying KD-Tree (None before the first query)."""
        return self._tree

    @property
    def index_table(self) -> Optional[IndexTable]:
        return self._index


class AverageKDTree(FullKDTree):
    """Full KD-Tree with arithmetic-mean pivots (AvgKD)."""

    name = "AvgKD"
    pivot_strategy = "mean"


class MedianKDTree(FullKDTree):
    """Full KD-Tree with exact-median pivots (MedKD)."""

    name = "MedKD"
    pivot_strategy = "median"
