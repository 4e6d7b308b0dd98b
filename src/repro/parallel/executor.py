"""Morsel-driven fan-out of scans and refinement over threads or processes.

Four entry points, mirroring the kinds of physical work the indexes
perform:

:func:`scan_range`
    One contiguous row range (a full scan, or a creation-phase region
    scan) split into fixed-size morsels of :data:`~.config.MORSEL_ROWS`
    rows each.
:func:`scan_pieces`
    A per-query leaf/candidate list (:class:`~repro.core.kdtree.PieceMatch`
    objects) split into contiguous, size-balanced chunks of whole
    pieces.  Pieces are never split internally: by the time piece scans
    dominate, the tree has refined the data into many below-threshold
    pieces and whole-piece chunking already yields far more work units
    than workers.
:func:`scan_match_sets`
    The same chunking over a whole batch of queries' candidate lists, so
    a batch pays one fan-out rather than one per query.
:func:`advance_jobs`
    Disjoint, already-scheduled :class:`~repro.core.partition.
    IncrementalPartition` jobs advanced concurrently, each under an
    exclusive piece-ownership claim (invariant I9).

Each entry point owns its gate — which rows count, which floor they
must clear, when the process tier is tried — and past it only says how
its work becomes tasks, what one task runs and how results merge.
Everything else happens once, in :func:`_fan_out`, for both tiers.

Determinism
-----------
Every fan-out is bit-identical to the serial path it replaces:

* *results* — each morsel/chunk produces the same positions the serial
  kernel would produce for that sub-range (row membership is a pointwise
  predicate), each part is ascending, and parts are concatenated in
  submission order, which is range order — so the concatenation equals
  the serial output array element for element;
* *stats* — workers accumulate into private ``QueryStats`` records that
  are merged into the caller's in submission order.  All merged fields
  are additive counters whose per-range charges do not depend on how the
  range was chunked (the fused backend's hybrid-scan accounting charges
  the full window for the first checked dimension and the pre-check
  candidate count for each later one — both additive over sub-ranges),
  so the totals match the serial numbers exactly;
* *timing-free* — no merged field derives from wall clock; worker
  ``seconds`` stay zero and the caller's own timer covers the fan-out.

Workers pin a private instance of the caller's kernel backend
(snapshotted once per fan-out — the per-query pin of
:meth:`BaseIndex.query` makes that snapshot stable), because the fused
backend's scratch buffers must not be shared across threads.

Failure
-------
A task that raises does not cut the fan-out short: every submitted task
is waited for, every piece claim released and every process task
settled in the pool's ledger before the first failure, in submission
order, propagates to the caller.
"""

from __future__ import annotations

from concurrent.futures import wait
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import kernels
from ..obs import metrics as obs_metrics
from ..obs import procbridge
from ..obs import trace as obs_trace
from . import config, procpool, shm

__all__ = ["scan_range", "scan_pieces", "scan_match_sets", "advance_jobs"]

_THREADS = "threads"
_PROCS = "procs"


def _tiers() -> Tuple[int, int]:
    """``(thread workers, process workers)`` a fan-out from here may use.

    Process workers read 0 while the process tier is off or this is one
    of its workers; on a thread-pool worker both tiers are off, because
    fan-outs never nest.
    """
    if config.in_worker():
        return 1, 0
    procs = procpool.get_process_workers()
    if procs <= 1 or procpool.in_proc_worker():
        procs = 0
    return config.get_workers(), procs


def batch_scan_serial() -> bool:
    """True when :func:`scan_match_sets` would take its serial fused path
    regardless of the job list — no workers, no process tier, or already
    inside a pool worker.  Lets converged batch callers skip the
    object-graph job assembly and run the array-native shortcut instead;
    when this is False the caller builds real matches and the fan-out
    logic decides per batch.
    """
    workers, procs = _tiers()
    return workers <= 1 and not procs


def _morsel_ranges(start: int, end: int, morsel_rows: int) -> List[Tuple[int, int]]:
    """Split ``[start, end)`` into consecutive ``morsel_rows``-sized ranges."""
    return [
        (position, min(position + morsel_rows, end))
        for position in range(start, end, morsel_rows)
    ]


def _parent_span_id() -> Optional[int]:
    """The dispatching thread's current span id (worker spans parent
    under it explicitly; implicit nesting cannot cross threads)."""
    if obs_trace.ENABLED:
        span = obs_trace.TRACER.current_span
        if span is not None:
            return span.span_id
    return None


def _note_fanout(op: str, tasks: int, workers: int) -> None:
    if obs_metrics.ENABLED:
        registry = obs_metrics.REGISTRY
        registry.counter("parallel.fanouts", op=op).inc()
        registry.counter("parallel.tasks", op=op).inc(tasks)
        registry.gauge("parallel.workers").set(workers)
        # Pool utilisation: tasks per worker this fan-out — < 1 means
        # idle workers, >> 1 means good load-balancing slack.
        registry.histogram("parallel.tasks_per_worker", op=op).observe(
            tasks / workers
        )


def _concat(parts: Sequence[np.ndarray]) -> np.ndarray:
    filled = [part for part in parts if part.size]
    if not filled:
        return np.empty(0, dtype=np.int64)
    if len(filled) == 1:
        return filled[0]
    return np.concatenate(filled)


# ------------------------------------------------------ the fan-out itself

def _fan_out(op, tier, workers, body, tasks, spans=None, claims=None) -> list:
    """Run ``body`` once per argument tuple in ``tasks`` on ``tier``'s
    pool of ``workers``; returns the results in submission order.

    * threads — ``body(*args)`` runs on a pool thread marked as a worker
      and pinned to a thread-private instance of the caller's kernel
      backend, inside a ``morsel`` span with ``spans[i]`` as attributes
      when tracing is live;
    * procs — ``body`` is a :mod:`.procpool` task, called as
      ``body(backend_name, *args, telemetry)``; the telemetry payload it
      appends is absorbed under the caller's span and stripped.

    ``op`` labels the metrics (``proc_``-prefixed on the process tier).
    ``claims`` lists one piece per task, held (invariant I9) from before
    the task is submitted until every task has settled.  See the module
    docstring for the failure rule.
    """
    on_procs = tier == _PROCS
    label = "proc_" + op if on_procs else op
    backend_name = kernels.current_backend().name
    parent = _parent_span_id()
    if on_procs:
        telemetry = procbridge.request()
        pool = procpool.proc_pool()
    else:
        pool = config.pool()
    _note_fanout(label, len(tasks), workers)
    held = []
    futures = []
    try:
        for position, args in enumerate(tasks):
            if claims is not None:
                owner = f"{op}-{'proc' if on_procs else 'worker'}-{position}"
                config.claim_piece(claims[position], owner)
                held.append((claims[position], owner))
            if on_procs:
                futures.append(pool.submit(body, backend_name, *args, telemetry))
                procpool.note_submitted()
            else:
                span = spans[position] if spans is not None else None
                futures.append(
                    pool.submit(
                        _thread_task, backend_name, parent, op, span, body, args
                    )
                )
    finally:
        for future in futures:
            wait((future,))
            if on_procs:
                procpool.note_done()
        for piece, owner in held:
            config.release_piece(piece, owner)
        if on_procs and obs_metrics.ENABLED:
            procpool.publish_health()
    results = []
    for future in futures:
        result = future.result()
        if on_procs and telemetry is not None:
            procbridge.absorb(result[-1], parent, op=label)
            result = result[:-1]
        results.append(result)
    return results


def _thread_task(backend_name, parent, op, span, body, args):
    config.enter_worker()
    try:
        with kernels.pinned(kernels.thread_instance(backend_name)):
            if span is not None and obs_trace.ENABLED:
                with obs_trace.TRACER.span("morsel", parent=parent, op=op, **span):
                    return body(*args)
            return body(*args)
    finally:
        config.exit_worker()


# ------------------------------------------------------------- range scans

def scan_range(
    columns: Sequence[np.ndarray],
    start: int,
    end: int,
    query,
    stats,
    check_low=None,
    check_high=None,
) -> np.ndarray:
    """Morsel-parallel option-2 scan of rows ``[start, end)``.

    Falls through to one serial kernel call unless parallelism is on,
    the window is worth splitting, and we are not already on a worker.
    """
    workers, procs = _tiers()
    window = end - start
    if window <= config.MORSEL_ROWS or window < config.MIN_PARALLEL_ROWS:
        workers = procs = 0
    handles = shm.handles_of(columns) if procs else None
    if handles is None and workers <= 1:
        return kernels.range_scan(
            columns, start, end, query, stats, check_low, check_high
        )
    ranges = _morsel_ranges(start, end, config.MORSEL_ROWS)
    if handles is not None:
        results = _fan_out(
            "scan", _PROCS, procs, procpool.scan_range_task,
            [(handles, lo, hi, query, check_low, check_high) for lo, hi in ranges],
        )
    else:
        privates = [type(stats)() for _ in ranges]
        spans = None
        if obs_trace.ENABLED:
            spans = [
                {"stats": private, "start": lo, "rows": hi - lo}
                for (lo, hi), private in zip(ranges, privates)
            ]
        results = _fan_out(
            "scan", _THREADS, workers, _scan_morsel,
            [
                (columns, lo, hi, query, check_low, check_high, private)
                for (lo, hi), private in zip(ranges, privates)
            ],
            spans,
        )
    for _positions, worker_stats in results:
        stats.merge(worker_stats)
    return _concat([positions for positions, _stats in results])


def _scan_morsel(columns, start, end, query, check_low, check_high, stats):
    positions = kernels.range_scan(
        columns, start, end, query, stats, check_low, check_high
    )
    return positions, stats


# ------------------------------------------------------------- piece scans

def scan_pieces(index_table, matches, query, stats) -> List[np.ndarray]:
    """Scan a candidate-piece list across the pool.

    Returns one rowid array per match, in match order — exactly the list
    the serial ``[scan_piece(m) for m in matches]`` loop builds, with
    identical stats totals (zone-map prune/containment shortcuts run
    inside :meth:`~repro.core.index_base.IndexTable.scan_piece` on the
    worker and merge back as additive counters).  The fan-out is a
    one-query :func:`scan_match_sets`; the serial path stays the plain
    per-piece loop, which beats the fused batch pass on one query.
    """
    parts = _scan_jobs("piece_scan", index_table, [(matches, query, stats)])
    if parts is None:
        return [index_table.scan_piece(match, query, stats) for match in matches]
    return parts[0]


def scan_match_sets(index_table, jobs) -> List[List[np.ndarray]]:
    """Scan many queries' candidate-piece lists in one shared fan-out.

    ``jobs`` is a sequence of ``(matches, query, stats)`` triples — one
    per query of a batch (:meth:`BaseIndex.query_batch
    <repro.core.index_base.BaseIndex.query_batch>`).  Returns one
    parts-list per job, in job order, with each parts-list identical to
    the serial ``[scan_piece(m) for m in matches]`` loop for that query
    and each job's stats receiving exactly its own query's additive
    charges.  The whole batch shares a single chunking/dispatch round —
    the point of batching: B queries pay one fan-out, not B.
    """
    parts = _scan_jobs("batch_scan", index_table, jobs)
    if parts is None:
        return _scan_match_sets_fused(index_table, jobs)
    return parts


def _scan_jobs(op, index_table, jobs) -> Optional[List[List[np.ndarray]]]:
    """Chunked fan-out of every job's matches, or ``None`` when the gate
    keeps the scan serial: fewer than two matches, fewer than
    :data:`~.config.MIN_PARALLEL_ROWS` rows in all, or fewer than two
    chunks on every tier that is on.  The process tier is tried first and
    needs the index table shm-backed.
    """
    workers, procs = _tiers()
    if workers <= 1 and not procs:
        return None
    tagged = [
        (job_index, match)
        for job_index, (matches, _query, _stats) in enumerate(jobs)
        for match in matches
    ]
    if len(tagged) < 2:
        return None
    total_rows = sum(match.piece.size for _job_index, match in tagged)
    if total_rows < config.MIN_PARALLEL_ROWS:
        return None
    queries = [query for _matches, query, _stats in jobs]
    handles = shm.handles_of(index_table.all_arrays) if procs else None
    chunks = _chunk_tagged(tagged, total_rows, procs) if handles is not None else []
    if len(chunks) >= 2:
        results = _fan_out(
            op, _PROCS, procs, procpool.scan_match_sets_task,
            [
                (
                    handles,
                    [
                        (job_index, procpool.piece_spec(match))
                        for job_index, match in chunk
                    ],
                    queries,
                    op,
                )
                for chunk in chunks
            ],
        )
    else:
        if workers <= 1:
            return None
        chunks = _chunk_tagged(tagged, total_rows, workers)
        if len(chunks) < 2:
            return None
        stats_cls = type(jobs[0][2])
        privates = [
            {job_index: stats_cls() for job_index, _match in chunk}
            for chunk in chunks
        ]
        spans = None
        if obs_trace.ENABLED and len(jobs) == 1:
            spans = [
                {
                    "stats": private[0],
                    "pieces": len(chunk),
                    "rows": sum(match.piece.size for _job_index, match in chunk),
                }
                for chunk, private in zip(chunks, privates)
            ]
        results = _fan_out(
            op, _THREADS, workers, _scan_chunk,
            [
                (index_table, chunk, queries, private)
                for chunk, private in zip(chunks, privates)
            ],
            spans,
        )
    parts_per_job: List[List[np.ndarray]] = [[] for _ in jobs]
    for tagged_parts, per_job_stats in results:
        for job_index, part in tagged_parts:
            parts_per_job[job_index].append(part)
        for job_index, worker_stats in per_job_stats:
            jobs[job_index][2].merge(worker_stats)
    return parts_per_job


def _chunk_tagged(tagged, total_rows: int, workers: int) -> List[list]:
    """Contiguous size-balanced chunks of tagged ``(job, match)`` items.

    Targets ~4 chunks per worker so one slow chunk (a zone-contained
    run next to a dense one) cannot serialise the tail, while keeping
    per-chunk row volume high enough to amortise dispatch.  Chunks may
    span job boundaries — the tags route every part and stat back to its
    query.  Determinism does not depend on the chunking — only merge
    order matters, and that is fixed — so this is pure scheduling policy.
    """
    target = max(1, total_rows // (workers * 4))
    chunks: List[list] = []
    current: list = []
    current_rows = 0
    for item in tagged:
        current.append(item)
        current_rows += item[1].piece.size
        if current_rows >= target:
            chunks.append(current)
            current = []
            current_rows = 0
    if current:
        chunks.append(current)
    return chunks


def _scan_chunk(index_table, chunk, queries, per_job):
    """Scan one chunk of ``(job, match)`` items into the chunk's private
    per-job stats; returns tagged parts plus ``(job, stats)`` pairs."""
    tagged_parts = [
        (job_index, index_table.scan_piece(match, queries[job_index], per_job[job_index]))
        for job_index, match in chunk
    ]
    return tagged_parts, sorted(per_job.items())


def _scan_match_sets_fused(index_table, jobs) -> List[List[np.ndarray]]:
    """Serial batch scan with one vectorized pass over all residual pieces.

    Bit-identical to the per-query ``[scan_piece(m) for m in matches]``
    loop — same parts, same per-query counter charges — but instead of
    one kernel call per (query, piece) pair (whose fixed NumPy overhead
    dominates converged point lookups over <=threshold-sized pieces),
    every pair the zone shortcuts cannot settle joins a single
    concatenated window and the whole batch pays ~one set of vector
    operations.
    """
    parts_per_job: List[List[np.ndarray]] = []
    pending: List[tuple] = []  # (match, query, stats, parts, slot)
    for matches, query, stats in jobs:
        parts: List[np.ndarray] = []
        for match in matches:
            shortcut = index_table.zone_shortcut(match, query, stats)
            if shortcut is None:
                pending.append((match, query, stats, parts, len(parts)))
                parts.append(_EMPTY_IDS)  # placeholder, filled below
            else:
                parts.append(shortcut)
        parts_per_job.append(parts)
    if len(pending) > 1:
        for part, (_m, _q, _s, parts, slot) in zip(
            _scan_pairs(index_table, pending), pending
        ):
            parts[slot] = part
    elif pending:
        match, query, stats, parts, slot = pending[0]
        positions = kernels.range_scan(
            index_table.columns,
            match.piece.start,
            match.piece.end,
            query,
            stats,
            match.check_low,
            match.check_high,
        )
        parts[slot] = index_table.rowids[positions]
    return parts_per_job


_EMPTY_IDS = np.empty(0, dtype=np.int64)


def _scan_pairs(index_table, pairs) -> List[np.ndarray]:
    """One vectorized residual scan over many (query, piece) pairs.

    Replicates the per-pair kernel scan exactly:

    * **results** — each pair's qualifying rowids, in piece order.  A
      residual bound the tree path already implies (check flag False) or
      an infinite query bound is replaced by ``±inf``, which every value
      passes — the same rows the per-pair scan's skip-the-dimension rule
      admits.
    * **counters** — ``stats.scanned`` per pair charges the full window
      for the pair's first checked dimension and the pre-filter survivor
      count for each later checked one, with survivors-zero dimensions
      charging nothing; exactly the accounting every kernel backend
      applies (it is backend-invariant by design), so batch-vs-serial
      comparisons stay bit-identical.

    The first dimension is evaluated across the full concatenated
    window; later dimensions only touch the surviving candidate list —
    the vector twin of the kernels' density switch.
    """
    n_pairs = len(pairs)
    n_dims = pairs[0][1].n_dims
    pieces = [pair[0].piece for pair in pairs]
    starts = np.fromiter((piece.start for piece in pieces), np.int64, n_pairs)
    lens = np.fromiter((piece.size for piece in pieces), np.int64, n_pairs)

    all_checked = (True,) * n_dims
    check_low = np.array(
        [
            pair[0].check_low if pair[0].check_low is not None else all_checked
            for pair in pairs
        ],
        dtype=bool,
    )
    check_high = np.array(
        [
            pair[0].check_high
            if pair[0].check_high is not None
            else all_checked
            for pair in pairs
        ],
        dtype=bool,
    )
    lows2d = np.array([pair[1].lows_f for pair in pairs])
    highs2d = np.array([pair[1].highs_f for pair in pairs])
    need_low = check_low & np.array(
        [pair[1].finite_lows for pair in pairs], dtype=bool
    )
    need_high = check_high & np.array(
        [pair[1].finite_highs for pair in pairs], dtype=bool
    )
    checked = (need_low | need_high).T  # (n_dims, n_pairs)
    eff_lo = np.where(need_low, lows2d, -np.inf).T
    eff_hi = np.where(need_high, highs2d, np.inf).T

    ids, bounds, scanned = scan_windows(
        index_table.columns, index_table.rowids, starts, lens,
        checked, eff_lo, eff_hi,
    )
    for (_match, _query, stats, _parts, _slot), charge in zip(pairs, scanned):
        stats.scanned += int(charge)
    return [
        ids[bounds[position] : bounds[position + 1]]
        for position in range(n_pairs)
    ]


def scan_windows(
    columns, rowids, starts, lens, checked, eff_lo, eff_hi
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vector core shared by :func:`_scan_pairs` and the arena batch path.

    Scans ``n_pairs`` row windows (``starts[i] : starts[i] + lens[i]``)
    against per-window effective bounds ``(eff_lo, eff_hi)`` of shape
    ``(n_dims, n_pairs)``; a side the caller does not need checked must
    hold ``±inf``.  Returns ``(ids, bounds, scanned)``: qualifying
    rowids for all windows back to back in window order,
    ``bounds[i]:bounds[i+1]`` slicing window ``i``'s ids, and the
    per-window ``stats.scanned`` charge under the kernel accounting
    rules (full window for the first checked dimension, pre-filter
    survivor count for each later checked one).
    """
    n_pairs = starts.size
    n_dims = checked.shape[0]
    cat_end = np.cumsum(lens)
    scanned = np.where(checked[0], lens, 0)
    column0 = columns[0]
    starts_list = starts.tolist()
    values = np.concatenate(
        [
            column0[start : start + length]
            for start, length in zip(starts_list, lens.tolist())
        ]
    )
    bounds0 = np.repeat(np.vstack((eff_lo[0], eff_hi[0])), lens, axis=1)
    keep = values > bounds0[0]
    keep &= values <= bounds0[1]
    survivors_cat = np.flatnonzero(keep)
    cand_pair = np.searchsorted(cat_end, survivors_cat, side="right")
    # Concatenated index -> absolute row position, per surviving row.
    cand_pos = survivors_cat + (starts - cat_end + lens).take(cand_pair)
    for dim in range(1, n_dims):
        if checked[dim].any():
            survivors = np.bincount(cand_pair, minlength=n_pairs)
            scanned += np.where(checked[dim], survivors, 0)
        values = columns[dim].take(cand_pos)
        keep = values > eff_lo[dim].take(cand_pair)
        keep &= values <= eff_hi[dim].take(cand_pair)
        cand_pos = cand_pos[keep]
        cand_pair = cand_pair[keep]
    ids = rowids.take(cand_pos)
    bounds = np.zeros(n_pairs + 1, dtype=np.int64)
    np.cumsum(np.bincount(cand_pair, minlength=n_pairs), out=bounds[1:])
    return ids, bounds, scanned


# ----------------------------------------------------- refinement advances

def advance_jobs(pairs: Sequence[Tuple[object, int]]) -> List[int]:
    """Advance ``(piece, grant_rows)`` partition jobs, possibly in parallel.

    Every piece must carry a scheduled ``piece.job`` and the pieces must
    be disjoint leaf ranges (they are: KD-Tree leaves tile ``[0, N)``).
    Each task claims exclusive ownership of its piece for the duration
    of the fan-out — invariant I9's checkable protocol.  Returns rows
    actually visited per pair, in pair order.

    The process tier only dispatches when the round's total granted rows
    reach :data:`~.config.MIN_PARALLEL_ROWS` — below that the fixed IPC
    cost dwarfs the partition work — and every job's arrays are
    shm-backed; otherwise threads/serial apply.  A process worker swaps
    rows in shared memory and ships back only ``(used, lo, hi, done)``,
    which is applied here to the parent's job — deterministic because
    each advance is a pure function of (arrays, pointers, grant) and the
    pieces are disjoint.
    """
    if not pairs:
        return []
    workers, procs = _tiers()
    if len(pairs) == 1 or (workers <= 1 and not procs):
        return [piece.job.advance(grant) for piece, grant in pairs]
    handles = None
    if procs and (
        sum(min(grant, piece.job.remaining_rows) for piece, grant in pairs)
        >= config.MIN_PARALLEL_ROWS
    ):
        handles = [shm.handles_of(piece.job.arrays) for piece, _grant in pairs]
        if any(job_handles is None for job_handles in handles):
            handles = None
    pieces = [piece for piece, _grant in pairs]
    if handles is not None:
        results = _fan_out(
            "refine", _PROCS, procs, procpool.advance_task,
            [
                (
                    job_handles, piece.job.start, piece.job.end,
                    piece.job.key_index, piece.job.pivot, piece.job.lo,
                    piece.job.hi, grant,
                )
                for (piece, grant), job_handles in zip(pairs, handles)
            ],
            claims=pieces,
        )
    elif workers > 1:
        spans = None
        if obs_trace.ENABLED:
            spans = [
                {"start": piece.start, "rows": min(grant, piece.job.remaining_rows)}
                for piece, grant in pairs
            ]
        results = _fan_out(
            "refine", _THREADS, workers, _advance,
            [(piece.job, grant) for piece, grant in pairs],
            spans,
            claims=pieces,
        )
    else:
        return [piece.job.advance(grant) for piece, grant in pairs]
    for piece, (used, lo, hi, done) in zip(pieces, results):
        if used:  # the same update advance() makes, if it ran elsewhere
            job = piece.job
            job.lo = lo
            job.hi = hi
            job.done = done
            job._paused = not done
    return [used for used, _lo, _hi, _done in results]


def _advance(job, grant: int):
    used = job.advance(grant)
    return used, job.lo, job.hi, job.done
