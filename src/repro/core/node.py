"""KD-Tree leaf pieces.

The KD-Tree is a *secondary* index over the index table (Section III-A,
"Data Structures"): internal nodes carry a discriminator dimension, a key,
and the position offset that separates the two children's row ranges —
they are nothing but columns of the tree's arena
(:class:`~repro.core.arena.Arena`); leaves ("pieces") are contiguous row
ranges of the index table that have not been split (further).

Progressive leaves additionally carry the state needed to resume work
across queries: the pivot chosen for their eventual split, the pausable
partition job, and a convergence flag.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .partition import IncrementalPartition

__all__ = ["Piece"]


class Piece:
    """A leaf piece: an unsplit contiguous row range ``[start, end)``.

    Attributes
    ----------
    level:
        Depth in the tree; progressive indexes derive the split dimension
        from it round-robin (``dim = level % d``).
    split_dim, pivot:
        The split the progressive refinement will apply to this piece
        (pivot is the arithmetic mean of ``split_dim`` within the piece).
        ``None`` until the piece is scheduled for refinement.
    job:
        The in-progress :class:`IncrementalPartition`, if refinement of
        this piece has started but not finished.
    converged:
        True once the piece is at or below the size threshold (or cannot
        be split further) — no more refinement will touch it.
    dims_tried:
        How many dimensions have been tried and found constant while
        looking for a split of this piece (guards degenerate data).
    zone_lo, zone_hi:
        Optional zone map: per-dimension inclusive value bounds
        (``zone_lo[j] <= column[j] <= zone_hi[j]`` for every row of the
        piece) kept as tuples of Python floats.  Maintained incrementally
        on splits; may be conservative (wider than the true min/max) but
        never narrower.  ``None`` on both means the piece carries no
        synopsis and scans proceed as before.
    arena_id:
        This leaf's slot in its tree's arena
        (:class:`~repro.core.arena.Arena`); ``None`` once the piece was
        split and retired.
    """

    __slots__ = (
        "start",
        "end",
        "level",
        "split_dim",
        "pivot",
        "job",
        "converged",
        "dims_tried",
        "zone_lo",
        "zone_hi",
        "arena_id",
    )

    def __init__(self, start: int, end: int, level: int = 0) -> None:
        self.start = start
        self.end = end
        self.level = level
        self.split_dim: Optional[int] = None
        self.pivot: Optional[float] = None
        self.job: Optional[IncrementalPartition] = None
        self.converged = False
        self.dims_tried = 0
        self.zone_lo: Optional[Tuple[float, ...]] = None
        self.zone_hi: Optional[Tuple[float, ...]] = None
        self.arena_id: Optional[int] = None

    @property
    def size(self) -> int:
        return self.end - self.start

    def job_window(self) -> Optional[Tuple[int, int]]:
        """The unclassified row window ``[lo, hi)`` of a paused partition.

        ``None`` when no refinement job is attached or the job already ran
        to completion.  Rows inside the window are not yet classified
        against the piece's own pivot; the invariant checkers exempt
        exactly this window from the paused-partition side checks.
        """
        if self.job is None or self.job.done:
            return None
        return self.job.lo, self.job.hi

    def __repr__(self) -> str:
        state = "converged" if self.converged else "open"
        return f"Piece([{self.start},{self.end}), level={self.level}, {state})"
