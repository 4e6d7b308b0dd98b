"""Aggregate pushdown over KD-based indexes.

A refined KD-Tree proves more than piece *membership*: when a lookup
returns a piece with no residual predicates (every bound implied by the
tree path), every row in it qualifies.  For aggregates that is enough to
answer from piece metadata without touching the rows:

* ``COUNT`` — the piece size;
* ``SUM`` / ``MIN`` / ``MAX`` over a measure column — a per-piece
  aggregate computed once and cached (the "small materialized aggregates"
  idea from analytic systems, adapted to pieces that refine over time).

Caches key on piece object identity: refinement replaces split pieces with
new children, so stale entries simply become unreachable and new pieces
get fresh aggregates on first use.  Partially-covered pieces fall back to
scanning only the qualifying rows.

These helpers work on any index exposing ``tree`` and ``index_table``
(Adaptive, Progressive, Greedy Progressive, AvgKD/MedKD, frozen
snapshots).  They perform **no indexing** — call them between or instead
of ``query()`` when only the aggregate matters.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..errors import IndexStateError
from .index_base import BaseIndex
from .metrics import QueryStats
from .query import RangeQuery
from .scan import range_scan

__all__ = ["AggregateReader"]


class AggregateReader:
    """Aggregate evaluator bound to one KD-based index.

    Results are always exact; the index's current refinement level only
    determines how much can be answered from metadata instead of scans.
    """

    def __init__(self, index: BaseIndex) -> None:
        tree = getattr(index, "tree", None)
        index_table = getattr(index, "index_table", None)
        if tree is None or index_table is None:
            raise IndexStateError(
                f"{type(index).__name__} exposes no KD-Tree state "
                "(run at least one query first)"
            )
        self.index = index
        # piece id -> (sum, minimum, maximum) per measure column position.
        self._piece_stats: Dict[Tuple[int, int], Tuple[float, float, float]] = {}

    # -- internals ---------------------------------------------------------------

    def _tree(self):
        return self.index.tree

    def _table(self):
        return self.index.index_table

    def _piece_aggregate(self, piece, column: int) -> Tuple[float, float, float]:
        key = (id(piece), column)
        cached = self._piece_stats.get(key)
        if cached is None:
            values = self._table().columns[column][piece.start : piece.end]
            cached = (float(values.sum()), float(values.min()), float(values.max()))
            self._piece_stats[key] = cached
        return cached

    def _matches(self, query: RangeQuery, stats: QueryStats):
        for match in self._tree().search(query, stats):
            covered = not any(match.check_low) and not any(match.check_high)
            yield match, covered

    def _qualifying_positions(self, match, query, stats) -> np.ndarray:
        return range_scan(
            self._table().columns,
            match.piece.start,
            match.piece.end,
            query,
            stats,
            check_low=match.check_low,
            check_high=match.check_high,
        )

    # -- aggregates ---------------------------------------------------------------

    def count(self, query: RangeQuery) -> Tuple[int, QueryStats]:
        """Exact ``COUNT(*)`` for the query; covered pieces are free."""
        stats = QueryStats()
        total = 0
        for match, covered in self._matches(query, stats):
            if covered:
                total += match.piece.size
            else:
                total += int(self._qualifying_positions(match, query, stats).size)
        stats.result_count = total
        return total, stats

    def sum(self, query: RangeQuery, column: int) -> Tuple[float, QueryStats]:
        """Exact ``SUM(column)``; covered pieces use cached piece sums."""
        stats = QueryStats()
        total = 0.0
        columns = self._table().columns
        for match, covered in self._matches(query, stats):
            if covered:
                piece_sum, _, _ = self._piece_aggregate(match.piece, column)
                total += piece_sum
            else:
                positions = self._qualifying_positions(match, query, stats)
                if positions.size:
                    stats.scanned += int(positions.size)
                    total += float(columns[column][positions].sum())
        return total, stats

    def minimum(self, query: RangeQuery, column: int):
        """Exact ``MIN(column)`` (None on empty results)."""
        return self._extreme(query, column, want_min=True)

    def maximum(self, query: RangeQuery, column: int):
        """Exact ``MAX(column)`` (None on empty results)."""
        return self._extreme(query, column, want_min=False)

    def _extreme(self, query: RangeQuery, column: int, want_min: bool):
        stats = QueryStats()
        best = None
        columns = self._table().columns
        for match, covered in self._matches(query, stats):
            if covered:
                _, piece_min, piece_max = self._piece_aggregate(
                    match.piece, column
                )
                candidate = piece_min if want_min else piece_max
            else:
                positions = self._qualifying_positions(match, query, stats)
                if positions.size == 0:
                    continue
                stats.scanned += int(positions.size)
                values = columns[column][positions]
                candidate = float(values.min() if want_min else values.max())
            if best is None:
                best = candidate
            else:
                best = min(best, candidate) if want_min else max(best, candidate)
        return best, stats

    def average(self, query: RangeQuery, column: int):
        """Exact ``AVG(column)`` (None on empty results)."""
        total, sum_stats = self.sum(query, column)
        count, count_stats = self.count(query)
        sum_stats.merge(count_stats)
        if count == 0:
            return None, sum_stats
        return total / count, sum_stats
