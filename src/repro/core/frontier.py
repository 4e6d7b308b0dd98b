"""The open-piece frontier: refinement scheduling without walking the tree.

Every incremental KD index keeps asking the same question — *which
still-open leaves does this query reach, and which is the largest* —
and its answer only changes where a leaf was just split.  A
:class:`Frontier` therefore keeps that answer as a work queue instead
of re-deriving it by descent:

* the **open set**: every leaf above the size threshold that is not
  flagged converged (a piece's path box is read off the tree's arena);
* a lazy-deletion **heap** over the open set for "largest open piece,
  earliest-inserted on ties";
* one :class:`Reach` memo: the open pieces a query's descent reaches
  and the node count that descent visits, computed by one real search
  and then *patched in place* whenever a reached piece splits, so it
  always equals what a fresh search would report.

The frontier is owned by the tree (:meth:`KDTree.open_frontier
<repro.core.kdtree.KDTree.open_frontier>`), built by one walk — which
is also how it is rebuilt over a decoded or re-cracked tree — and
from then on updated only by :meth:`KDTree.split_leaf
<repro.core.kdtree.KDTree.split_leaf>` and :meth:`drop`.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from .metrics import QueryStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .kdtree import KDTree
    from .node import Piece
    from .query import RangeQuery

__all__ = ["Frontier", "Reach", "left_to_right"]

Bounds = Tuple[float, ...]


def left_to_right(pieces: Iterable["Piece"]) -> List["Piece"]:
    """``pieces`` as a list in storage order — the order a tree walk
    meets them, and a snapshot the caller may split while iterating."""
    return sorted(pieces, key=attrgetter("start"))


class Reach:
    """The open pieces one query's descent reaches, kept current.

    ``visited`` is the node count a fresh ``tree.search(query)`` would
    charge right now; ``pieces`` holds the reached open leaves (dict
    keys, for O(1) membership and removal).  :meth:`largest` replays
    ``max(matches, key=size)`` over the search's match order — matches
    come back in descending start order, so ties go to the higher
    start.
    """

    __slots__ = ("query", "generation", "visited", "pieces", "_heap")

    def __init__(
        self,
        query: "RangeQuery",
        generation: int,
        visited: int,
        pieces: Dict["Piece", None],
    ) -> None:
        self.query = query
        self.generation = generation
        self.visited = visited
        self.pieces = pieces
        self._heap = [(-piece.size, -piece.start, piece) for piece in pieces]
        heapify(self._heap)

    def _add(self, piece: "Piece") -> None:
        self.pieces[piece] = None
        heappush(self._heap, (-piece.size, -piece.start, piece))

    def largest(self) -> Optional["Piece"]:
        """The largest reached open piece, or ``None`` when there is none."""
        heap = self._heap
        pieces = self.pieces
        while heap and heap[0][2] not in pieces:
            heappop(heap)
        return heap[0][2] if heap else None


class Frontier:
    """Incrementally maintained set of a tree's open leaves."""

    __slots__ = (
        "tree",
        "size_threshold",
        "generation",
        "_open",
        "_heap",
        "_inserted",
        "_reach",
        "_unbounded",
    )

    def __init__(self, tree: "KDTree", size_threshold: int) -> None:
        self.tree = tree
        self.size_threshold = size_threshold
        #: Bumped on every split or drop.  The reach memo is only served
        #: while its own generation matches, so a structural change the
        #: frontier could not patch it for invalidates it.
        self.generation = 0
        #: The open pieces in insertion order (dict keys; values unused).
        self._open: Dict["Piece", None] = {}
        self._heap: List[Tuple[int, int, "Piece"]] = []
        self._inserted = 0
        self._reach: Optional[Reach] = None
        infinity = float("inf")
        self._unbounded = (
            (-infinity,) * tree.n_dims,
            (infinity,) * tree.n_dims,
        )
        for leaf in tree.iter_leaves():
            if self._is_open(leaf):
                self._add(leaf)

    def _is_open(self, piece: "Piece") -> bool:
        return piece.size > self.size_threshold and not piece.converged

    def _add(self, piece: "Piece") -> None:
        self._open[piece] = None
        heappush(self._heap, (-piece.size, self._inserted, piece))
        self._inserted += 1

    # ---------------------------------------------------------------- reads

    def __len__(self) -> int:
        return len(self._open)

    def pieces(self) -> List["Piece"]:
        """Snapshot of the open pieces in insertion order.

        ``list(dict)`` runs under the GIL in one step, so a telemetry
        thread may call this while a refinement slice mutates the
        frontier: the result may be one split stale, never torn.
        """
        return list(self._open)

    def box(self, piece: "Piece") -> Tuple[Bounds, Bounds]:
        """The ``(lo, hi)`` path bounds of a leaf, from the tree's arena."""
        arena = self.tree.arena
        node = piece.arena_id
        return arena.path_lo[node], arena.path_hi[node]

    def largest(self) -> "Piece":
        """The largest open piece (earliest-inserted on ties).

        Exactly ``max(open_list, key=size)`` over an append-ordered work
        list.  The frontier must not be empty.
        """
        heap = self._heap
        open_pieces = self._open
        while heap[0][2] not in open_pieces:
            heappop(heap)
        return heap[0][2]

    def reach(self, query: "RangeQuery") -> Reach:
        """The open pieces ``query`` reaches and its descent's node count.

        Served from the memo while it belongs to this very query object
        and no unpatched structural change happened since; otherwise one
        real ``tree.search`` recomputes it.  A query unbounded on every
        side reaches every node by definition, so it costs no descent
        and materialises no per-leaf matches — the refinement scheduler
        and the background refiner drive their slices with exactly that
        probe while holding the index's write lock.
        """
        reach = self._reach
        if (
            reach is not None
            and reach.query is query
            and reach.generation == self.generation
        ):
            return reach
        open_pieces = self._open
        if (query.lows_f, query.highs_f) == self._unbounded:
            visited = self.tree.node_count + self.tree.leaf_count
            pieces = dict.fromkeys(open_pieces)
        else:
            scratch = QueryStats()
            pieces = {
                match.piece: None
                for match in self.tree.search(query, scratch)
                if match.piece in open_pieces
            }
            visited = scratch.lookup_nodes
        reach = self._reach = Reach(query, self.generation, visited, pieces)
        return reach

    # -------------------------------------------------------------- updates

    def on_split(
        self, piece: "Piece", dim: int, key: float, left: "Piece", right: "Piece"
    ) -> None:
        """Replace a split leaf by its open children; patch the memo.

        A fresh descent pops the former leaf's slot as before and then
        each child the query's bounds admit, so the memoised node count
        grows by ``[low < key] + [high > key]`` when the piece was
        reached and not at all otherwise (an open piece is reached iff
        it is in the memo).
        """
        if piece not in self._open:
            # Below the threshold already (PKD's pivot-0 split of a tiny
            # table): the children cannot be open either, and a memo that
            # reached the piece cannot be patched — leave it behind.
            self.generation += 1
            return
        del self._open[piece]
        reach = self._advance()
        key = float(key)
        threshold = self.size_threshold
        left_open = left.size > threshold
        right_open = right.size > threshold
        if left_open:
            self._add(left)
        if right_open:
            self._add(right)
        if reach is None or piece not in reach.pieces:
            return
        del reach.pieces[piece]
        if reach.query.highs_f[dim] > key:
            reach.visited += 1
            if right_open:
                reach._add(right)
        if reach.query.lows_f[dim] < key:
            reach.visited += 1
            if left_open:
                reach._add(left)

    def drop(self, piece: "Piece") -> None:
        """Remove a piece that turned out to be unsplittable."""
        self._open.pop(piece, None)
        reach = self._advance()
        if reach is not None:
            reach.pieces.pop(piece, None)

    def _advance(self) -> Optional[Reach]:
        """Bump the generation and take a current memo along with it;
        returns that memo for the caller to patch (``None`` if stale)."""
        reach = self._reach
        current = reach is not None and reach.generation == self.generation
        self.generation += 1
        if not current:
            return None
        reach.generation = self.generation
        return reach

    # ----------------------------------------------------------- validation

    def consistency_errors(self) -> List[str]:
        """Invariant I12: the frontier equals what a real walk finds.

        Membership against the open leaves of a full walk, the heap top
        against the true largest size, and a current reach memo against
        a fresh search (node count, reached open pieces, largest pick).
        The boxes need no check of their own: they are the arena's path
        bounds, which the structural check (I2) recomputes from the root.
        """
        problems: List[str] = []
        open_pieces = self._open
        expected = {
            leaf for leaf in self.tree.iter_leaves() if self._is_open(leaf)
        }
        for leaf in expected:
            if leaf not in open_pieces:
                problems.append(f"open {leaf!r} is missing from the frontier")
        for piece in open_pieces:
            if piece not in expected:
                problems.append(f"frontier entry {piece!r} is not an open leaf")
        if open_pieces:
            largest = max(piece.size for piece in open_pieces)
            live = [entry for entry in self._heap if entry[2] in open_pieces]
            if len(live) != len(open_pieces):
                problems.append(
                    f"frontier heap tracks {len(live)} of "
                    f"{len(open_pieces)} open pieces"
                )
            elif self.largest().size != largest:
                problems.append(
                    f"frontier heap top {self.largest()!r} is smaller than "
                    f"the largest open piece ({largest} rows)"
                )
        reach = self._reach
        if reach is None or reach.generation != self.generation:
            return problems
        fresh = QueryStats()
        needed = [
            match.piece
            for match in self.tree.search(reach.query, fresh)
            if match.piece in expected
        ]
        if fresh.lookup_nodes != reach.visited:
            problems.append(
                f"reach memo charges {reach.visited} node visits, a fresh "
                f"descent visits {fresh.lookup_nodes}"
            )
        if set(needed) != set(reach.pieces):
            problems.append(
                f"reach memo holds {len(reach.pieces)} pieces, a fresh "
                f"descent reaches {len(needed)} open ones"
            )
        elif needed and reach.largest() is not max(
            needed, key=lambda piece: piece.size
        ):
            problems.append(
                "reach memo's largest piece differs from a fresh descent's"
            )
        return problems
