"""The reference NumPy kernels and the backend interface.

:class:`ReferenceBackend` holds the original, straight-line
implementations of the two hot loops — the per-dimension candidate-list
scan of Section III-A ("option 2") and the mask-based stable partition.
They are deliberately simple: every other backend must produce
bit-identical scan positions, identical
:class:`~repro.core.metrics.QueryStats` counters, and the same partition
output, and this module is the yardstick those equivalences are measured
against (property suites, fuzzer oracle, micro-benchmarks).

:class:`KernelBackend` doubles as the interface definition and the home
of the shared incremental-partition primitives
(:meth:`~KernelBackend.chunk_misplaced` / :meth:`~KernelBackend.swap_rows`),
which :class:`repro.core.partition.IncrementalPartition` drives from its
backend-independent budget loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.metrics import QueryStats
    from ..core.query import RangeQuery

__all__ = ["KernelBackend", "ReferenceBackend", "build_mask"]


def build_mask(
    values: np.ndarray, low: float, high: float, need_low: bool, need_high: bool
) -> Optional[np.ndarray]:
    """Boolean mask for ``low < values <= high``, honouring skip flags.

    Returns ``None`` when neither bound needs checking, so callers can
    skip the dimension entirely.
    """
    check_low = need_low and np.isfinite(low)
    check_high = need_high and np.isfinite(high)
    if check_low and check_high:
        return (values > low) & (values <= high)
    if check_low:
        return values > low
    if check_high:
        return values <= high
    return None


class KernelBackend:
    """Interface every kernel backend implements.

    The two abstract kernels (:meth:`range_scan`,
    :meth:`stable_partition`) carry the full behavioural contract; the
    two incremental-partition primitives have NumPy defaults that a
    backend may override.  All index code reaches these methods only
    through the :mod:`repro.kernels` dispatch functions.
    """

    #: Registry name; doubles as the ``REPRO_KERNELS`` value.
    name = "?"

    def range_scan(
        self,
        columns: Sequence[np.ndarray],
        start: int,
        end: int,
        query: "RangeQuery",
        stats: "QueryStats",
        check_low: Optional[Sequence[bool]] = None,
        check_high: Optional[Sequence[bool]] = None,
    ) -> np.ndarray:
        """Candidate-list (option 2) scan of rows ``[start, end)``.

        ``check_low`` / ``check_high`` say, per dimension, whether that
        side of the predicate still needs testing (KD piece scans pass
        the sides the tree path already implies as ``False``).  Returns
        the qualifying positions as absolute ascending indices into the
        columns; ``stats.scanned`` is charged ``window`` for the first
        checked dimension and the candidate count for each later one.
        """
        raise NotImplementedError

    def stable_partition(
        self,
        arrays: Sequence[np.ndarray],
        start: int,
        end: int,
        key_index: int,
        pivot: float,
    ) -> int:
        """Partition rows ``[start, end)`` so keys ``<= pivot`` come
        first, stably (each side preserves relative order), moving all
        parallel arrays in lock-step.  Returns the split position."""
        raise NotImplementedError

    # -- incremental-partition primitives (chunk classify + swap) ---------

    def chunk_misplaced(
        self,
        keys: np.ndarray,
        left_base: int,
        n_left: int,
        right_base: int,
        hi: int,
        pivot: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Misplaced rows of one incremental-partition chunk.

        Returns ``(misplaced_left, misplaced_right)`` — ascending
        positions *relative to* ``left_base`` of rows ``> pivot`` within
        ``[left_base, left_base + n_left)``, and relative to
        ``right_base`` of rows ``<= pivot`` within ``[right_base, hi)``.
        """
        misplaced_left = np.flatnonzero(
            keys[left_base : left_base + n_left] > pivot
        )
        misplaced_right = np.flatnonzero(keys[right_base:hi] <= pivot)
        return misplaced_left, misplaced_right

    def swap_rows(
        self,
        arrays: Sequence[np.ndarray],
        left_rows: np.ndarray,
        right_rows: np.ndarray,
    ) -> None:
        """Exchange rows ``left_rows[i]`` and ``right_rows[i]`` across
        all parallel arrays."""
        for array in arrays:
            held = array[left_rows]  # fancy indexing materialises a copy,
            array[left_rows] = array[right_rows]  # so these writes are safe
            array[right_rows] = held

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class ReferenceBackend(KernelBackend):
    """The original straight-line kernels (the trusted baseline)."""

    name = "reference"

    def range_scan(
        self,
        columns: Sequence[np.ndarray],
        start: int,
        end: int,
        query: "RangeQuery",
        stats: "QueryStats",
        check_low: Optional[Sequence[bool]] = None,
        check_high: Optional[Sequence[bool]] = None,
    ) -> np.ndarray:
        n_dims = query.n_dims
        if end <= start:
            return np.empty(0, dtype=np.int64)
        lows = query.lows_f
        highs = query.highs_f
        candidates: Optional[np.ndarray] = None
        for dim in range(n_dims):
            need_low = True if check_low is None else bool(check_low[dim])
            need_high = True if check_high is None else bool(check_high[dim])
            low = lows[dim]
            high = highs[dim]
            column = columns[dim]
            if candidates is None:
                mask = build_mask(column[start:end], low, high, need_low, need_high)
                if mask is None:
                    continue
                stats.scanned += end - start
                candidates = np.flatnonzero(mask)
            else:
                if candidates.size == 0:
                    return candidates
                mask = build_mask(
                    column[start + candidates], low, high, need_low, need_high
                )
                if mask is None:
                    continue
                stats.scanned += int(candidates.size)
                candidates = candidates[mask]
        if candidates is None:
            # No predicate needed checking: the whole piece qualifies.
            candidates = np.arange(end - start, dtype=np.int64)
        return start + candidates

    def stable_partition(
        self,
        arrays: Sequence[np.ndarray],
        start: int,
        end: int,
        key_index: int,
        pivot: float,
    ) -> int:
        if end <= start:
            return start
        mask = arrays[key_index][start:end] <= pivot
        n_left = int(np.count_nonzero(mask))
        split = start + n_left
        if n_left == 0 or n_left == end - start:
            return split  # already one-sided; nothing moves
        inverse = ~mask
        for array in arrays:
            window = array[start:end]
            left = window[mask]  # fancy indexing materialises copies,
            right = window[inverse]  # so the writes below are safe
            array[start:split] = left
            array[split:end] = right
        return split
