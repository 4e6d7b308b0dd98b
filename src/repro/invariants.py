"""Structural invariant checkers for every index backend.

The fuzzer (:mod:`repro.fuzz`) checks that indexes *answer* like a full
scan; this module checks that the *structures* behind those answers are
sound.  The distinction matters because incremental indexes spend most
of their life in intermediate states — a half-copied index table, a
paused Hoare partition, a tree whose newest split is one row off — where
a structural bug can hide behind accidentally-correct answers for many
queries before surfacing.  The checkers here make those states directly
inspectable.

Invariant catalogue (see DESIGN.md for the full rationale):

I1  **Leaf partition** — KD-Tree leaf ranges tile ``[0, N)`` exactly, in
    order, and every internal node's split matches its children's ranges.
I2  **Path bounds** — every row of every leaf satisfies all ancestor
    pivot bounds (exclusive low / inclusive high, matching the paper's
    ``low < x <= high`` semantics), and the tree's arena
    (:mod:`repro.core.arena`) is self-consistent: adjacent children, no
    orphan slots, leaf pieces back-linked via ``arena_id``, and every
    stored path box equal to the one recomputed from the root — the
    residual-check flags of every descent derive from those boxes.
I3  **Rowid alignment** — across the DSM arrays, position ``i`` of the
    index table holds exactly row ``rowids[i]`` of the base table, for
    every dimension column; rowids are unique (and a full permutation of
    ``[0, N)`` once the index table is fully populated).
I4  **Paused partitions** — an in-progress :class:`IncrementalPartition`
    attached to a piece covers exactly that piece, agrees with the
    piece's scheduled ``(split_dim, pivot)``, operates on the index
    table's own arrays, and its classified side regions are correctly
    classified.
I5  **Convergence** — a piece flagged converged is at/below the size
    threshold or provably unsplittable (constant on every dimension);
    the open-piece work-list and the converged flags agree; convergence
    is *monotone* across queries (converged pieces never reopen or
    split, node counts never shrink; see :class:`InvariantMonitor`).
I6  **Determinism** — a fully converged Progressive (or Greedy
    Progressive) KD-Tree has the same structure as the up-front
    mean-pivot KD-Tree over the same table
    (:func:`convergence_determinism_errors`; exact on integer-valued
    data, where mean pivots carry no float-summation rounding).
I7  **Zone soundness** — every row of a zoned leaf lies inside the
    leaf's zone box: ``zone_lo[d] <= column[d] <= zone_hi[d]`` for every
    dimension.  Zone boxes may be conservative (wider than the true
    min/max) but never narrower; within-piece permutation (paused
    partitions included) cannot invalidate them.
I8  **Zone/path consistency** — a zone box is at least as tight as the
    path bounds (``zone_lo >= lob`` and ``zone_hi <= hib`` wherever the
    path bound is finite), internally ordered (``zone_lo <= zone_hi``),
    and zoning is all-or-nothing per tree: either every leaf carries a
    zone map (the root was seeded before the first split) or none does.
I9  **Refinement ownership** — while refinement work is fanned out
    (:mod:`repro.parallel`), no piece is ever owned by two workers: the
    ownership registry's sticky violation log stays empty, no piece of
    this index is still claimed when the index is observed at rest, and
    no think-time scheduler (:mod:`repro.parallel.scheduler`) is
    mid-slice on the index whenever invariants are checked.
I10 **Shard partition** — a :class:`~repro.core.table_partitioning.
    ShardedIndex`'s shards tile ``[0, N)`` disjointly and completely in
    shard order, each shard's column views alias exactly its base-table
    row range, every shard's zone box contains all of its rows, and
    every inner index passes the full I1–I9 sweep over its own shard.
I11 *Retired* (it compared the arena with an object-graph twin that no
    longer exists; its self-consistency half moved into I2).
I12 **Open-piece frontier** — when a KD-Tree carries a frontier
    (:mod:`repro.core.frontier`), it agrees with a real walk: its
    members are exactly the unconverged above-threshold leaves, the
    heap top is a largest open piece, and a current reach memo reports
    the node count, the reached open pieces and the largest pick of a
    fresh descent.

Backends whose structure is not a KD-Tree participate through
:meth:`BaseIndex.self_check` (QUASII hierarchy, cracker columns).

Everything here is debug-only: nothing is invoked from the query hot
path, and the checkers only *read* index state via
:meth:`BaseIndex.debug_state`.
"""

from __future__ import annotations

from typing import List, Set, Tuple

import numpy as np

from .core.index_base import BaseIndex, IndexDebugState
from .core.progressive_kdtree import CONVERGED, CREATION, ProgressiveKDTree
from .core.query import RangeQuery
from .errors import InvariantViolationError

__all__ = [
    "structural_errors",
    "assert_invariants",
    "alignment_errors",
    "partition_job_errors",
    "convergence_errors",
    "creation_state_errors",
    "zone_map_errors",
    "ownership_errors",
    "shard_errors",
    "convergence_determinism_errors",
    "InvariantMonitor",
]


# --------------------------------------------------------------------- I3

def alignment_errors(state: IndexDebugState) -> List[str]:
    """Rowid/column alignment breaches (invariant I3).

    Checks the filled ranges of the index table: rowids in range and
    unique, and every dimension column equal to the base column gathered
    through the rowids.  When the filled ranges cover the whole table the
    rowids must additionally form a permutation of ``[0, N)`` (uniqueness
    plus full coverage imply it).
    """
    index_table = state.index_table
    if index_table is None:
        return []
    base = state.index.table
    problems: List[str] = []
    ranges = (
        state.filled_ranges
        if state.filled_ranges is not None
        else [(0, index_table.n_rows)]
    )
    chunks = [index_table.rowids[start:end] for start, end in ranges]
    if not chunks:
        return problems
    rowids = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    if rowids.size == 0:
        return problems
    if rowids.min() < 0 or rowids.max() >= base.n_rows:
        problems.append(
            f"rowids outside [0, {base.n_rows}): "
            f"min {rowids.min()}, max {rowids.max()}"
        )
        return problems
    if np.unique(rowids).size != rowids.size:
        problems.append(
            f"duplicate rowids in the index table "
            f"({rowids.size - np.unique(rowids).size} repeats)"
        )
    for dim in range(base.n_columns):
        base_column = base.column(dim)
        for (start, end), ids in zip(ranges, chunks):
            if not np.array_equal(
                index_table.columns[dim][start:end], base_column[ids]
            ):
                bad = int(
                    np.argmax(
                        index_table.columns[dim][start:end] != base_column[ids]
                    )
                )
                problems.append(
                    f"column {dim} misaligned at index position {start + bad}: "
                    f"holds {index_table.columns[dim][start + bad]!r}, rowid "
                    f"{ids[bad]} maps to {base_column[ids[bad]]!r}"
                )
                break
    return problems


# --------------------------------------------------------------------- I4

def partition_job_errors(state: IndexDebugState) -> List[str]:
    """Paused-partition breaches (invariant I4)."""
    tree = state.tree
    if tree is None or state.index_table is None:
        return []
    problems: List[str] = []
    arrays = state.index_table.all_arrays
    for leaf in tree.iter_leaves():
        job = getattr(leaf, "job", None)
        if job is None:
            continue
        if job.done:
            problems.append(f"{leaf!r} still holds a completed partition job")
        if job.start != leaf.start or job.end != leaf.end:
            problems.append(
                f"job range [{job.start},{job.end}) does not cover {leaf!r}"
            )
        if leaf.split_dim is None or job.key_index != leaf.split_dim:
            problems.append(
                f"job key dim {job.key_index} disagrees with scheduled "
                f"split_dim {leaf.split_dim} on {leaf!r}"
            )
        if leaf.pivot is None or job.pivot != leaf.pivot:
            problems.append(
                f"job pivot {job.pivot} disagrees with scheduled pivot "
                f"{leaf.pivot} on {leaf!r}"
            )
        if leaf.converged:
            problems.append(f"converged {leaf!r} has an active partition job")
        if len(job.arrays) != len(arrays) or any(
            job_array is not index_array
            for job_array, index_array in zip(job.arrays, arrays)
        ):
            problems.append(
                f"job on {leaf!r} partitions arrays that are not the index "
                "table's own columns"
            )
        problems.extend(job.invariant_errors())
    return problems


# --------------------------------------------------------------------- I5

def convergence_errors(state: IndexDebugState) -> List[str]:
    """Convergence-flag and work-list breaches (invariant I5)."""
    tree = state.tree
    if tree is None:
        return []
    problems: List[str] = []
    threshold = state.size_threshold
    n_dims = state.index.n_dims
    leaf_ids: Set[int] = set()
    open_count = 0
    for leaf in tree.iter_leaves():
        leaf_ids.add(id(leaf))
        converged = getattr(leaf, "converged", False)
        dims_tried = getattr(leaf, "dims_tried", 0)
        if threshold is not None and leaf.size > threshold:
            open_count += 1
        if (
            converged
            and threshold is not None
            and leaf.size > threshold
            and dims_tried < n_dims
        ):
            problems.append(
                f"{leaf!r} is flagged converged at size {leaf.size} > "
                f"threshold {threshold} with only {dims_tried} dims tried"
            )
    if state.open_pieces is not None:
        open_ids = set()
        for piece in state.open_pieces:
            open_ids.add(id(piece))
            if id(piece) not in leaf_ids:
                problems.append(f"open work-list entry {piece!r} is not a leaf")
            if getattr(piece, "converged", False):
                problems.append(f"open work-list entry {piece!r} is converged")
            if threshold is not None and piece.size <= threshold:
                problems.append(
                    f"open work-list entry {piece!r} is already below the "
                    f"size threshold {threshold}"
                )
        for leaf in tree.iter_leaves():
            if not getattr(leaf, "converged", False) and id(leaf) not in open_ids:
                problems.append(
                    f"unconverged {leaf!r} is missing from the open work-list"
                )
        if state.phase == CONVERGED and state.open_pieces:
            problems.append(
                f"phase is 'converged' with {len(state.open_pieces)} open pieces"
            )
    counter = state.extras.get("open_pieces")
    if counter is not None and counter != open_count:
        problems.append(
            f"open-piece counter {counter} disagrees with the actual "
            f"{open_count} above-threshold leaves"
        )
    active = state.extras.get("active_piece")
    if active is not None and id(active) not in leaf_ids:
        problems.append(f"active piece {active!r} is not a current leaf")
    return problems


# -------------------------------------------------- PKD creation phase

def creation_state_errors(state: IndexDebugState) -> List[str]:
    """Creation-phase breaches of the Progressive KD-Tree.

    During creation the index table fills from both ends, two-way
    pivoted on the first dimension's mean: the top region must hold only
    ``<= pivot0`` rows, the bottom region only ``> pivot0`` rows, and
    together they must contain exactly the copied base-table prefix.
    """
    if state.phase != CREATION or state.index_table is None:
        return []
    pivot0 = state.extras.get("pivot0")
    if pivot0 is None:
        return []
    problems: List[str] = []
    top_write = state.extras["top_write"]
    bottom_write = state.extras["bottom_write"]
    rows_copied = state.extras["rows_copied"]
    n_rows = state.index_table.n_rows
    first = state.index_table.columns[0]
    top = first[:top_write]
    if top.size and not (top <= pivot0).all():
        problems.append(
            f"creation top region [0,{top_write}) holds rows > pivot0 {pivot0}"
        )
    bottom = first[bottom_write + 1 :]
    if bottom.size and not (bottom > pivot0).all():
        problems.append(
            f"creation bottom region [{bottom_write + 1},{n_rows}) holds "
            f"rows <= pivot0 {pivot0}"
        )
    if top_write + (n_rows - 1 - bottom_write) != rows_copied:
        problems.append(
            f"creation cursors account for "
            f"{top_write + (n_rows - 1 - bottom_write)} rows, "
            f"{rows_copied} were copied"
        )
    copied_ids = np.sort(
        np.concatenate(
            [
                state.index_table.rowids[:top_write],
                state.index_table.rowids[bottom_write + 1 :],
            ]
        )
    )
    if not np.array_equal(
        copied_ids, np.arange(rows_copied, dtype=np.int64)
    ):
        problems.append(
            f"creation regions do not hold exactly the first {rows_copied} "
            "base rows"
        )
    return problems


# ----------------------------------------------------------------- I7 / I8

def zone_map_errors(state: IndexDebugState) -> List[str]:
    """Zone-map breaches (invariants I7 and I8).

    I7: every row of a zoned leaf lies inside the leaf's zone box.
    I8: zone boxes are internally ordered, at least as tight as the
    finite path bounds, and zoning is all-or-nothing across the tree.
    """
    tree = state.tree
    if tree is None or state.index_table is None:
        return []
    problems: List[str] = []
    columns = state.index_table.columns
    n_dims = state.index.n_dims
    zoned = 0
    unzoned = 0
    for leaf, lob, hib in tree.iter_leaves_with_bounds():
        zone_lo = getattr(leaf, "zone_lo", None)
        zone_hi = getattr(leaf, "zone_hi", None)
        if (zone_lo is None) != (zone_hi is None):
            problems.append(
                f"{leaf!r} has only one of zone_lo/zone_hi set"
            )
            continue
        if zone_lo is None:
            unzoned += 1
            continue
        zoned += 1
        if len(zone_lo) != n_dims or len(zone_hi) != n_dims:
            problems.append(
                f"{leaf!r} zone map covers {len(zone_lo)}/{len(zone_hi)} "
                f"dims, index has {n_dims}"
            )
            continue
        for dim in range(n_dims):
            zlo = zone_lo[dim]
            zhi = zone_hi[dim]
            if zlo > zhi:
                problems.append(
                    f"{leaf!r} zone inverted on dim {dim}: "
                    f"lo {zlo} > hi {zhi}"
                )
                continue
            if np.isfinite(lob[dim]) and zlo < lob[dim]:
                problems.append(
                    f"{leaf!r} zone lo {zlo} on dim {dim} is looser than "
                    f"the path bound {lob[dim]}"
                )
            if np.isfinite(hib[dim]) and zhi > hib[dim]:
                problems.append(
                    f"{leaf!r} zone hi {zhi} on dim {dim} is looser than "
                    f"the path bound {hib[dim]}"
                )
            if leaf.size > 0:
                values = columns[dim][leaf.start : leaf.end]
                actual_lo = float(values.min())
                actual_hi = float(values.max())
                if actual_lo < zlo or actual_hi > zhi:
                    problems.append(
                        f"{leaf!r} holds values [{actual_lo}, {actual_hi}] "
                        f"outside its zone [{zlo}, {zhi}] on dim {dim}"
                    )
    if zoned and unzoned:
        problems.append(
            f"mixed zoning: {zoned} zoned leaves next to {unzoned} "
            "unzoned ones (must be all-or-nothing per tree)"
        )
    return problems


# --------------------------------------------------------------------- I9

def ownership_errors(index: BaseIndex, state: IndexDebugState) -> List[str]:
    """Refinement-ownership breaches (invariant I9).

    Three checks against the parallel layer's ownership registry
    (:mod:`repro.parallel.config`):

    * the *sticky* violation log is empty — a double claim or a
      mismatched release anywhere since the last reset is a breach even
      if ownership has since been handed back;
    * no leaf of this index's tree is still claimed — the checkers only
      run on an index at rest, so a lingering claim means a worker
      leaked ownership (a missed ``release_piece`` on some code path);
    * no refinement scheduler is mid-slice on this index (callers hold
      the index's writer lock around the check, making this a
      guarantee).
    """
    from .parallel import config as parallel_config
    from .parallel import scheduler

    problems: List[str] = list(parallel_config.ownership_violations())
    held = parallel_config.owned_pieces()
    if held and state.tree is not None:
        leaf_ids = {id(leaf) for leaf in state.tree.iter_leaves()}
        for owner, piece in held:
            if id(piece) in leaf_ids:
                problems.append(
                    f"piece [{piece.start}, {piece.end}) of this index is "
                    f"still owned by {owner!r} while the index is at rest"
                )
    if scheduler.mid_slice(index):
        problems.append(
            "a refinement scheduler is mid-slice during an invariant check "
            "(the writer-lock handoff was skipped)"
        )
    return problems


# -------------------------------------------------------------------- I10

def shard_errors(index: BaseIndex) -> List[str]:
    """Shard-partition breaches (invariant I10) of a ShardedIndex.

    Checks that the shards tile ``[0, N)`` disjointly and completely in
    shard order, that each shard's columns are views of exactly its base
    row range (zero-copy aliasing, same values), that every shard zone
    box bounds its rows, and then sweeps the full I1–I9 suite over every
    inner index (each inner index is an ordinary index over its shard's
    table, so every existing checker applies unchanged).
    """
    shards = getattr(index, "shards", None)
    inner = getattr(index, "indexes", None)
    if shards is None or inner is None:
        return []
    problems: List[str] = []
    base = index.table
    cursor = 0
    for shard in shards:
        if shard.row_offset != cursor:
            problems.append(
                f"{shard!r} starts at {shard.row_offset}, expected {cursor} "
                "(shards must tile the table contiguously in order)"
            )
        cursor = shard.row_offset + shard.n_rows
        for dim in range(base.n_columns):
            view = shard.table.column(dim)
            segment = base.column(dim)[
                shard.row_offset : shard.row_offset + shard.n_rows
            ]
            if view.shape != segment.shape or not np.array_equal(view, segment):
                problems.append(
                    f"{shard!r} column {dim} does not hold base rows "
                    f"[{shard.row_offset}, {shard.row_offset + shard.n_rows})"
                )
                continue
            if shard.n_rows:
                lo = float(view.min())
                hi = float(view.max())
                if lo < shard.zone_lo[dim] or hi > shard.zone_hi[dim]:
                    problems.append(
                        f"{shard!r} holds values [{lo}, {hi}] outside its "
                        f"zone [{shard.zone_lo[dim]}, {shard.zone_hi[dim]}] "
                        f"on dim {dim}"
                    )
    if cursor != base.n_rows:
        problems.append(
            f"shards cover [0, {cursor}), table has {base.n_rows} rows"
        )
    if len(inner) != len(shards):
        problems.append(
            f"{len(inner)} inner indexes for {len(shards)} shards"
        )
    for shard, shard_index in zip(shards, inner):
        for problem in structural_errors(shard_index):
            problems.append(f"shard {shard.shard_id}: {problem}")
    return problems


# --------------------------------------------------------------------- I6

def convergence_determinism_errors(index: BaseIndex) -> List[str]:
    """Determinism breaches (invariant I6) for a converged PKD/GPKD.

    Builds a fresh up-front mean-pivot KD-Tree over the same table and
    compares leaf ranges and the preorder ``(dim, key, split)``
    signature.  Only meaningful once ``index.converged`` is True, and
    only *exact* on data where mean pivots are rounding-free (integer
    values) and no piece is constant in its round-robin dimension — the
    callers (tests, fuzzer) pick such data.
    """
    from .baselines.full_kdtree import AverageKDTree

    if not isinstance(index, ProgressiveKDTree):
        return []
    if not index.converged or index.tree is None:
        return []
    eager = AverageKDTree(index.table, size_threshold=index.size_threshold)
    unbounded = RangeQuery(
        np.full(index.n_dims, -np.inf), np.full(index.n_dims, np.inf)
    )
    eager.query(unbounded)
    progressive_leaves = sorted(
        (leaf.start, leaf.end) for leaf in index.tree.iter_leaves()
    )
    eager_leaves = sorted(
        (leaf.start, leaf.end) for leaf in eager.tree.iter_leaves()
    )
    problems: List[str] = []
    if progressive_leaves != eager_leaves:
        problems.append(
            f"converged {index.name} has {len(progressive_leaves)} pieces "
            f"that differ from the {len(eager_leaves)} mean-pivot KD-Tree "
            "pieces"
        )
    elif index.tree.preorder_signature() != eager.tree.preorder_signature():
        problems.append(
            f"converged {index.name} pieces match the mean-pivot KD-Tree "
            "but the split keys/dims differ"
        )
    return problems


# ----------------------------------------------------------------- driver

def structural_errors(index: BaseIndex) -> List[str]:
    """Run every applicable structural checker; returns all breaches.

    The per-query workhorse: tree invariants (I1/I2) when a KD-Tree is
    materialised, alignment (I3), paused partitions (I4), convergence
    flags (I5), zone maps (I7/I8), refinement ownership (I9), the
    open-piece frontier (I12) when the tree carries one, the PKD
    creation-phase contract, and the backend's own
    :meth:`~repro.core.index_base.BaseIndex.self_check`.  Cross-query
    monotonicity and determinism need state or convergence and live in
    :class:`InvariantMonitor` / :func:`convergence_determinism_errors`.
    """
    state = index.debug_state()
    problems: List[str] = []
    problems.extend(ownership_errors(index, state))
    if state.tree is not None and state.index_table is not None:
        problems.extend(state.tree.structural_errors(state.index_table.columns))
        problems.extend(partition_job_errors(state))
        problems.extend(convergence_errors(state))
        problems.extend(zone_map_errors(state))
        frontier = getattr(state.tree, "frontier", None)
        if frontier is not None:  # I12
            problems.extend(frontier.consistency_errors())
    if state.extras.get("skip_alignment") is not True:
        problems.extend(alignment_errors(state))
    problems.extend(creation_state_errors(state))
    try:
        index.self_check()
    except Exception as error:  # noqa: BLE001 - reported, not hidden
        problems.append(f"self-check failed: {error}")
    return problems


def assert_invariants(index: BaseIndex) -> None:
    """Raise :class:`InvariantViolationError` on any structural breach."""
    problems = structural_errors(index)
    if problems:
        raise InvariantViolationError(
            getattr(index, "name", type(index).__name__), problems
        )


class InvariantMonitor:
    """Per-query invariant watchdog with cross-query monotonicity checks.

    Call :meth:`observe` after every query.  On top of the full
    per-state suite (:func:`structural_errors`) it enforces the monotone
    half of invariant I5, which no single snapshot can see:

    * node counts never decrease;
    * the converged flag of the index latches (once True, always True);
    * converged pieces never vanish or split — the set of converged
      ``(start, end)`` leaf ranges only grows.
    """

    def __init__(self, index: BaseIndex) -> None:
        self.index = index
        self.observations = 0
        self._last_node_count = index.node_count
        self._was_converged = False
        self._converged_ranges: Set[Tuple[int, int]] = set()

    def observe(self) -> List[str]:
        """Run all checks; returns breaches and updates the history."""
        problems = structural_errors(self.index)
        node_count = self.index.node_count
        if node_count < self._last_node_count:
            problems.append(
                f"node count shrank from {self._last_node_count} to "
                f"{node_count}"
            )
        converged = self.index.converged
        if self._was_converged and not converged:
            problems.append("index reverted from converged to unconverged")
        state = self.index.debug_state()
        if state.tree is not None:
            current = {
                (leaf.start, leaf.end)
                for leaf in state.tree.iter_leaves()
                if getattr(leaf, "converged", False)
            }
            lost = self._converged_ranges - current
            if lost:
                sample = sorted(lost)[:3]
                problems.append(
                    f"{len(lost)} converged piece(s) vanished or split, "
                    f"e.g. {sample}"
                )
            self._converged_ranges = current
        self._last_node_count = node_count
        self._was_converged = converged
        self.observations += 1
        return problems

    def assert_ok(self) -> None:
        """:meth:`observe`, raising on any breach."""
        problems = self.observe()
        if problems:
            raise InvariantViolationError(
                getattr(self.index, "name", type(self.index).__name__),
                problems,
            )
