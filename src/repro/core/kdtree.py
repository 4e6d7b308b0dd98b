"""The KD-Tree shell shared by all KD-based indexes.

This module provides the structure and traversals; the *policies* (what to
use as pivots, when to split, how much work to spend) live in the index
classes.  The tree starts as a single root :class:`Piece` covering
``[0, n_rows)`` and grows by splitting leaves into :class:`KDNode` internal
nodes, exactly mirroring how the paper's adaptation/refinement phases
incrementally partition the index table.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import IndexStateError
from ..obs import trace as obs_trace
from . import arena as arena_mod
from .frontier import Frontier
from .metrics import QueryStats
from .node import AnyNode, KDNode, Piece
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
        check_low: np.ndarray,  # bool, shape (d,)
        check_high: np.ndarray,  # bool, shape (d,)
    ) -> None:
        self.piece = piece
        self.check_low = check_low
        self.check_high = check_high

    def __repr__(self) -> str:
        return f"PieceMatch({self.piece!r})"


class KDTree:
    """A KD-Tree over the row range ``[0, n_rows)`` of an index table.

    When the arena default is on (:func:`repro.core.arena.arena_default`,
    i.e. unless ``REPRO_ARENA=0``), the tree additionally maintains a
    flat structure-of-arrays mirror (:class:`~repro.core.arena.Arena`):
    every :meth:`split_leaf` patches it in place, and :meth:`search`
    descends the flat arrays instead of the object graph — bit-identical
    matches, residual-check flags, and ``lookup_nodes`` accounting, at a
    fraction of the per-node cost.
    """

    def __init__(
        self, n_rows: int, n_dims: int, use_arena: Optional[bool] = None
    ) -> None:
        if n_rows < 0:
            raise IndexStateError(f"negative table size {n_rows}")
        if n_dims <= 0:
            raise IndexStateError(f"need at least one dimension, got {n_dims}")
        self.n_rows = n_rows
        self.n_dims = n_dims
        self.root: AnyNode = Piece(0, n_rows, level=0)
        self.node_count = 0  # internal nodes
        self.leaf_count = 1
        if use_arena is None:
            use_arena = arena_mod.arena_default()
        self.arena: Optional[arena_mod.Arena] = None
        if use_arena:
            self.arena = arena_mod.Arena(n_dims)
            self.arena.register_root(self.root)
        #: Open-piece work queue of the incremental indexes; ``None``
        #: until :meth:`open_frontier` asks for one.
        self.frontier: Optional[Frontier] = None

    def attach_arena(self) -> arena_mod.Arena:
        """(Re)build the flat arena mirror from the current object graph.

        Used by the snapshot decoder (which assembles the object graph
        bottom-up, bypassing :meth:`split_leaf`) and by tests that flip
        the arena on for an existing tree.
        """
        self.arena = arena_mod.Arena.from_tree(self)
        return self.arena

    def open_frontier(self, size_threshold: int) -> Frontier:
        """(Re)build the open-piece frontier by one walk of the tree.

        Leaves above ``size_threshold`` that are not flagged converged
        enter it with their path boxes; from here on every
        :meth:`split_leaf` keeps it current.  Works on any tree — fresh,
        decoded from a snapshot, or re-cracked after a merge.
        """
        self.frontier = Frontier(self, size_threshold)
        return self.frontier

    # -- structural edits ----------------------------------------------------

    def split_leaf(
        self, piece: Piece, dim: int, key: float, split: int
    ) -> Tuple[Piece, Piece]:
        """Replace ``piece`` with an internal node splitting it at ``split``.

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
        node = KDNode(dim, key, piece.start, split, piece.end, left, right)
        self._replace(piece, node)
        self.node_count += 1
        self.leaf_count += 1
        if self.arena is not None:
            self.arena.apply_split(piece, dim, key, split, left, right)
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
        if not self.root.is_leaf():
            raise IndexStateError("root zone must be seeded before any split")
        self.root.zone_lo = tuple(float(b) for b in zone_lo)
        self.root.zone_hi = tuple(float(b) for b in zone_hi)
        if self.arena is not None:
            self.arena.sync_zone(self.root)

    def _replace(self, old: AnyNode, new: AnyNode) -> None:
        parent = old.parent
        new.parent = parent
        if parent is None:
            if self.root is not old:
                raise IndexStateError("node to replace is not in this tree")
            self.root = new
        elif parent.left is old:
            parent.left = new
        elif parent.right is old:
            parent.right = new
        else:
            raise IndexStateError("node is not a child of its recorded parent")

    # -- traversals ----------------------------------------------------------

    def search(self, query: RangeQuery, stats: QueryStats) -> List[PieceMatch]:
        """Index lookup: all leaf pieces that may contain query answers.

        Implements the recursive descent of Section III-A ("Index Lookup"),
        pruning subtrees the query cannot reach and recording which
        predicate sides remain unchecked for each returned piece.

        With an arena attached the descent runs over the flat arrays
        (:meth:`Arena.search <repro.core.arena.Arena.search>`), which is
        bit-identical — same match order (right subtree first), same
        residual-check flags, same ``lookup_nodes`` charge — without the
        per-node bound-vector copies below.
        """
        if self.arena is not None:
            return self.arena.search(query, stats)
        matches: List[PieceMatch] = []
        neg_inf = np.full(self.n_dims, -np.inf)
        pos_inf = np.full(self.n_dims, np.inf)
        stack: List[Tuple[AnyNode, np.ndarray, np.ndarray]] = [
            (self.root, neg_inf, pos_inf)
        ]
        lows = query.lows
        highs = query.highs
        while stack:
            node, lob, hib = stack.pop()
            stats.lookup_nodes += 1
            if node.is_leaf():
                if node.size == 0:
                    continue
                check_low = lows > lob  # path does not already imply x > low
                check_high = highs < hib  # nor x <= high
                matches.append(PieceMatch(node, check_low, check_high))
                continue
            dim, key = node.dim, node.key
            if lows[dim] < key:  # interval (low, key] non-empty
                child_hib = hib.copy()
                if key < child_hib[dim]:
                    child_hib[dim] = key
                stack.append((node.left, lob, child_hib))
            if highs[dim] > key:  # interval (key, high] non-empty
                child_lob = lob.copy()
                if key > child_lob[dim]:
                    child_lob[dim] = key
                stack.append((node.right, child_lob, hib))
        return matches

    def iter_leaves(self) -> Iterator[Piece]:
        """All leaf pieces, left to right."""
        stack: List[AnyNode] = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf():
                yield node
            else:
                stack.append(node.right)
                stack.append(node.left)

    def iter_leaves_with_bounds(
        self, query: Optional[RangeQuery] = None
    ) -> Iterator[Tuple[Piece, np.ndarray, np.ndarray]]:
        """Leaves (optionally restricted to query-reachable ones) with the
        exclusive-low / inclusive-high value bounds their path implies."""
        neg_inf = np.full(self.n_dims, -np.inf)
        pos_inf = np.full(self.n_dims, np.inf)
        stack: List[Tuple[AnyNode, np.ndarray, np.ndarray]] = [
            (self.root, neg_inf, pos_inf)
        ]
        while stack:
            node, lob, hib = stack.pop()
            if node.is_leaf():
                yield node, lob, hib
                continue
            dim, key = node.dim, node.key
            if query is None or query.highs[dim] > key:
                child_lob = lob.copy()
                if key > child_lob[dim]:
                    child_lob[dim] = key
                stack.append((node.right, child_lob, hib))
            if query is None or query.lows[dim] < key:
                child_hib = hib.copy()
                if key < child_hib[dim]:
                    child_hib[dim] = key
                stack.append((node.left, lob, child_hib))

    def height(self) -> int:
        """Longest root-to-leaf path (a single piece has height 0)."""
        best = 0
        stack: List[Tuple[AnyNode, int]] = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            if node.is_leaf():
                best = max(best, depth)
            else:
                stack.append((node.left, depth + 1))
                stack.append((node.right, depth + 1))
        return best

    def max_leaf_size(self) -> int:
        return max((leaf.size for leaf in self.iter_leaves()), default=0)

    def preorder_signature(self) -> List[Tuple[int, float, int]]:
        """Preorder ``(dim, key, split)`` triples; leaves are ``(-1, 0, 0)``.

        Two trees over the same table are structurally identical iff their
        signatures are equal — the comparison behind the PKD/GPKD
        determinism invariant (a converged progressive tree must match the
        up-front mean-pivot KD-Tree) and the serialize round-trip test.
        """
        signature: List[Tuple[int, float, int]] = []
        stack: List[AnyNode] = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf():
                signature.append((-1, 0.0, 0))
            else:
                signature.append((node.dim, node.key, node.split))
                stack.append(node.right)
                stack.append(node.left)
        return signature

    # -- validation (used heavily by the test suite) --------------------------

    def structural_errors(self, columns: Sequence[np.ndarray]) -> List[str]:
        """All structural invariant breaches, as human-readable strings.

        Checked invariants:

        * leaf ranges tile ``[0, n_rows)`` exactly, in order;
        * every internal node's split lies strictly inside its range and
          matches its children's ranges;
        * every row of every leaf satisfies all path bounds — except rows
          inside an unfinished incremental-partition window, which are by
          definition not yet classified against the piece's own pivot (the
          *path* bounds must still hold for them).

        Unlike :meth:`validate` this collects *every* breach, so the
        invariant tooling can report the full picture in one shot.
        """
        problems: List[str] = []
        expected_start = 0
        for leaf, lob, hib in self.iter_leaves_with_bounds():
            if leaf.start != expected_start:
                problems.append(
                    f"leaf gap: expected start {expected_start}, got {leaf.start}"
                )
            expected_start = leaf.end
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
        if expected_start != self.n_rows:
            problems.append(
                f"leaves cover [0, {expected_start}), table has {self.n_rows} rows"
            )
        self._internal_errors(self.root, problems)
        return problems

    def validate(self, columns: Sequence[np.ndarray]) -> None:
        """Check all structural invariants; raises IndexStateError on breach.

        See :meth:`structural_errors` for the invariant catalogue.
        """
        problems = self.structural_errors(columns)
        if problems:
            raise IndexStateError("; ".join(problems))

    def _internal_errors(self, node: AnyNode, problems: List[str]) -> None:
        if node.is_leaf():
            return
        if not (node.start < node.split < node.end):
            problems.append(f"bad split in {node!r}")
        if node.left.start != node.start or node.left.end != node.split:
            problems.append(f"left child range mismatch under {node!r}")
        if node.right.start != node.split or node.right.end != node.end:
            problems.append(f"right child range mismatch under {node!r}")
        self._internal_errors(node.left, problems)
        self._internal_errors(node.right, problems)
