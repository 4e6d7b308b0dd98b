"""The KD-Tree shared by all KD-based indexes.

This module provides the structure and traversals; the *policies* (what to
use as pivots, when to split, how much work to spend) live in the index
classes.  The tree starts as a single root :class:`Piece` covering
``[0, n_rows)`` and grows by splitting leaves in place in its arena
(:class:`~repro.core.arena.Arena`), exactly mirroring how the paper's
adaptation/refinement phases incrementally partition the index table.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import IndexStateError
from ..obs import trace as obs_trace
from .arena import Arena
from .frontier import Frontier
from .metrics import QueryStats
from .node import Piece
from .query import RangeQuery

__all__ = ["KDTree", "PieceMatch"]


class PieceMatch:
    """A leaf piece returned by an index lookup.

    ``check_low`` / ``check_high`` flag, per dimension, which predicate
    sides the tree path does *not* already imply and therefore still need
    to be tested while scanning the piece.  Slotted: a broad range query
    materialises one instance per candidate leaf on every lookup.
    """

    __slots__ = ("piece", "check_low", "check_high")

    def __init__(
        self,
        piece: Piece,
        check_low: Tuple[bool, ...],
        check_high: Tuple[bool, ...],
    ) -> None:
        self.piece = piece
        self.check_low = check_low
        self.check_high = check_high

    def __repr__(self) -> str:
        return f"PieceMatch({self.piece!r})"


class KDTree:
    """A KD-Tree over the row range ``[0, n_rows)`` of an index table.

    The nodes live in one :class:`~repro.core.arena.Arena`: every
    :meth:`split_leaf` patches it in place, and every descent and walk
    reads its columns.
    """

    def __init__(self, n_rows: int, n_dims: int) -> None:
        if n_rows < 0:
            raise IndexStateError(f"negative table size {n_rows}")
        if n_dims <= 0:
            raise IndexStateError(f"need at least one dimension, got {n_dims}")
        self.n_rows = n_rows
        self.n_dims = n_dims
        self.node_count = 0  # internal nodes
        self.leaf_count = 1
        self.arena = Arena(n_dims)
        self.arena.register_root(Piece(0, n_rows, level=0))
        #: Open-piece work queue of the incremental indexes; ``None``
        #: until :meth:`open_frontier` asks for one.
        self.frontier: Optional[Frontier] = None

    def open_frontier(self, size_threshold: int) -> Frontier:
        """(Re)build the open-piece frontier by one walk of the tree.

        Leaves above ``size_threshold`` that are not flagged converged
        enter it, left to right; from here on every
        :meth:`split_leaf` keeps it current.  Works on any tree — fresh,
        decoded from a snapshot, or re-cracked after a merge.
        """
        self.frontier = Frontier(self, size_threshold)
        return self.frontier

    # -- structural edits ----------------------------------------------------

    def split_leaf(
        self, piece: Piece, dim: int, key: float, split: int
    ) -> Tuple[Piece, Piece]:
        """Turn leaf ``piece`` into an internal node splitting it at ``split``.

        The caller must already have physically partitioned the rows of the
        piece so that ``[start, split)`` holds keys ``<= key`` and
        ``[split, end)`` keys ``> key``.  Returns the two child pieces.
        """
        if not (piece.start < split < piece.end):
            raise IndexStateError(
                f"split {split} outside piece ({piece.start}, {piece.end}); "
                "degenerate splits must be filtered by the caller"
            )
        left = Piece(piece.start, split, piece.level + 1)
        right = Piece(split, piece.end, piece.level + 1)
        if piece.zone_lo is not None and piece.zone_hi is not None:
            # Children inherit the zone map, tightened along the split
            # dimension: left rows satisfy value <= key, right rows
            # value > key (key itself stays a valid inclusive lower
            # bound for the right side).
            left.zone_lo = piece.zone_lo
            left.zone_hi = tuple(
                min(bound, key) if d == dim else bound
                for d, bound in enumerate(piece.zone_hi)
            )
            right.zone_lo = tuple(
                max(bound, key) if d == dim else bound
                for d, bound in enumerate(piece.zone_lo)
            )
            right.zone_hi = piece.zone_hi
        self.arena.apply_split(piece, dim, key, split, left, right)
        self.node_count += 1
        self.leaf_count += 1
        if self.frontier is not None:
            self.frontier.on_split(piece, dim, key, left, right)
        if obs_trace.ENABLED:
            obs_trace.TRACER.event(
                "split",
                dim=dim,
                pivot=key,
                start=piece.start,
                end=piece.end,
                split=split,
                left_size=left.size,
                right_size=right.size,
                level=piece.level,
            )
        return left, right

    def seed_root_zone(
        self, zone_lo: Sequence[float], zone_hi: Sequence[float]
    ) -> None:
        """Attach a zone map to an unsplit root piece.

        ``zone_lo`` / ``zone_hi`` are inclusive per-dimension value bounds
        over the whole table (typically its column minima/maxima); every
        later :meth:`split_leaf` propagates and tightens them.  Must be
        called before the first split; a zero-row tree is left untouched
        (there is nothing to bound).
        """
        if self.n_rows == 0:
            return
        root = self.arena.pieces[0]
        if root is None:
            raise IndexStateError("root zone must be seeded before any split")
        root.zone_lo = tuple(float(b) for b in zone_lo)
        root.zone_hi = tuple(float(b) for b in zone_hi)
        self.arena.sync_zone(root)

    # -- traversals ----------------------------------------------------------

    def search(self, query: RangeQuery, stats: QueryStats) -> List[PieceMatch]:
        """Index lookup: all leaf pieces that may contain query answers.

        Implements the recursive descent of Section III-A ("Index Lookup")
        over the arena (:meth:`Arena.search
        <repro.core.arena.Arena.search>`): subtrees the query cannot reach
        are pruned, and each returned piece records which predicate sides
        its path does not already imply.
        """
        return self.arena.search(query, stats)

    def preorder(self, query: Optional[RangeQuery] = None) -> Iterator[int]:
        """Arena slots in preorder, leaves left to right.

        With a ``query``, subtrees it cannot reach are pruned exactly as
        :meth:`search` prunes them (empty leaves are still yielded).
        """
        arena = self.arena
        dims = arena.dims
        keys = arena.keys
        lefts = arena.lefts
        stack = [0]
        while stack:
            node = stack.pop()
            yield node
            dim = dims[node]
            if dim < 0:
                continue
            key = keys[node]
            child = lefts[node]
            if query is None or query.highs_f[dim] > key:
                stack.append(child + 1)
            if query is None or query.lows_f[dim] < key:
                stack.append(child)

    def iter_leaves(self) -> Iterator[Piece]:
        """All leaf pieces, left to right."""
        pieces = self.arena.pieces
        for node in self.preorder():
            piece = pieces[node]
            if piece is not None:
                yield piece

    def iter_leaves_with_bounds(
        self, query: Optional[RangeQuery] = None
    ) -> Iterator[Tuple[Piece, Tuple[float, ...], Tuple[float, ...]]]:
        """Leaves (optionally restricted to query-reachable ones) with the
        exclusive-low / inclusive-high value bounds their path implies."""
        arena = self.arena
        pieces = arena.pieces
        for node in self.preorder(query):
            piece = pieces[node]
            if piece is not None:
                yield piece, arena.path_lo[node], arena.path_hi[node]

    def height(self) -> int:
        """Longest root-to-leaf path (a single piece has height 0)."""
        return max(leaf.level for leaf in self.iter_leaves())

    def max_leaf_size(self) -> int:
        arena = self.arena
        return max(
            (
                hi - lo
                for dim, lo, hi in zip(arena.dims, arena.los, arena.his)
                if dim < 0
            ),
            default=0,
        )

    def preorder_signature(self) -> List[Tuple[int, float, int]]:
        """Preorder ``(dim, key, split)`` triples; leaves are ``(-1, 0, 0)``.

        Two trees over the same table are structurally identical iff their
        signatures are equal — the comparison behind the PKD/GPKD
        determinism invariant (a converged progressive tree must match the
        up-front mean-pivot KD-Tree) and the serialize round-trip test.
        """
        arena = self.arena
        dims = arena.dims
        keys = arena.keys
        splits = arena.splits
        return [
            (-1, 0.0, 0) if dims[node] < 0
            else (dims[node], keys[node], splits[node])
            for node in self.preorder()
        ]

    # -- validation (used heavily by the test suite) --------------------------

    def structural_errors(self, columns: Sequence[np.ndarray]) -> List[str]:
        """All structural invariant breaches, as human-readable strings.

        Checked invariants:

        * leaf ranges tile ``[0, n_rows)`` exactly, in order;
        * every internal node's split lies strictly inside its range and
          matches its children's ranges;
        * every row of every leaf satisfies all path bounds;
        * the arena is self-consistent: children are appended after
          their parent and adjacent (the right child is ``left + 1``),
          every slot is reached exactly once from the root (no orphans),
          each leaf slot holds a live piece whose ``arena_id`` and row
          range point back at it, and every stored path box equals the
          one recomputed from the root — the residual-check flags of
          every descent are derived from these boxes.

        Unlike :meth:`validate` this collects *every* breach, so the
        invariant tooling can report the full picture in one shot.
        """
        problems: List[str] = []
        arena = self.arena
        dims = arena.dims
        keys = arena.keys
        splits = arena.splits
        lefts = arena.lefts
        los = arena.los
        his = arena.his
        path_lo = arena.path_lo
        path_hi = arena.path_hi
        n_slots = len(arena)
        unbounded = (-np.inf,) * self.n_dims, (np.inf,) * self.n_dims
        if (path_lo[0], path_hi[0]) != unbounded:
            problems.append("arena root carries finite path bounds")
        reached = bytearray(n_slots)
        reached[0] = 1
        expected_start = 0
        stack = [0]
        while stack:
            node = stack.pop()
            piece = arena.pieces[node]
            dim = dims[node]
            if dim < 0:
                if piece is None:
                    problems.append(f"arena leaf {node} holds no piece")
                    continue
                if piece.arena_id != node:
                    problems.append(
                        f"{piece!r} in arena slot {node} has arena_id "
                        f"{piece.arena_id}"
                    )
                if (los[node], his[node]) != (piece.start, piece.end):
                    problems.append(
                        f"arena leaf {node} range [{los[node]},{his[node]}) "
                        f"!= its piece [{piece.start},{piece.end})"
                    )
                if piece.start != expected_start:
                    problems.append(
                        f"leaf gap: expected start {expected_start}, "
                        f"got {piece.start}"
                    )
                expected_start = piece.end
                problems.extend(
                    self._bound_errors(
                        columns, piece, path_lo[node], path_hi[node]
                    )
                )
                continue
            split = splits[node]
            if piece is not None:
                problems.append(f"internal node {node} still holds {piece!r}")
            if not (los[node] < split < his[node]):
                problems.append(
                    f"bad split {split} in node {node} [{los[node]},{his[node]})"
                )
            left = lefts[node]
            right = left + 1
            if not (node < left and right < n_slots):
                problems.append(f"node {node} has bad children {left}, {right}")
                continue
            if reached[left] or reached[right]:
                problems.append(f"node {node} shares children with another node")
                continue
            reached[left] = reached[right] = 1
            if los[left] != los[node] or his[left] != split:
                problems.append(f"left child range mismatch under node {node}")
            if los[right] != split or his[right] != his[node]:
                problems.append(f"right child range mismatch under node {node}")
            lo, hi = path_lo[node], path_hi[node]
            key = keys[node]
            if path_lo[left] != lo or path_hi[left] != tuple(
                min(bound, key) if d == dim else bound
                for d, bound in enumerate(hi)
            ):
                problems.append(
                    f"left child {left} path bounds diverge from its path "
                    f"under node {node}"
                )
            if path_hi[right] != hi or path_lo[right] != tuple(
                max(bound, key) if d == dim else bound
                for d, bound in enumerate(lo)
            ):
                problems.append(
                    f"right child {right} path bounds diverge from its path "
                    f"under node {node}"
                )
            stack.append(right)
            stack.append(left)
        if expected_start != self.n_rows:
            problems.append(
                f"leaves cover [0, {expected_start}), table has {self.n_rows} rows"
            )
        orphans = n_slots - sum(reached)
        if orphans:
            problems.append(f"{orphans} arena slots are unreachable from the root")
        return problems

    def _bound_errors(
        self,
        columns: Sequence[np.ndarray],
        leaf: Piece,
        lob: Tuple[float, ...],
        hib: Tuple[float, ...],
    ) -> List[str]:
        """Rows of ``leaf`` outside its path box (exclusive low, inclusive high)."""
        problems: List[str] = []
        for dim in range(self.n_dims):
            values = columns[dim][leaf.start : leaf.end]
            if np.isfinite(lob[dim]) and not (values > lob[dim]).all():
                problems.append(
                    f"leaf [{leaf.start},{leaf.end}) violates lower bound "
                    f"{lob[dim]} on dim {dim}"
                )
            if np.isfinite(hib[dim]) and not (values <= hib[dim]).all():
                problems.append(
                    f"leaf [{leaf.start},{leaf.end}) violates upper bound "
                    f"{hib[dim]} on dim {dim}"
                )
        return problems

    def validate(self, columns: Sequence[np.ndarray]) -> None:
        """Check all structural invariants; raises IndexStateError on breach.

        See :meth:`structural_errors` for the invariant catalogue.
        """
        problems = self.structural_errors(columns)
        if problems:
            raise IndexStateError("; ".join(problems))
