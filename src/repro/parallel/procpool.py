"""Process-parallel execution: escape the GIL via a persistent pool.

The morsel layer (:mod:`.executor`) fans work out over threads, which
only buys parallelism while the kernels are inside NumPy (the GIL is
released there, but the pure-Python piece bookkeeping around the kernels
is not).  This module adds the second tier: a persistent
:class:`~concurrent.futures.ProcessPoolExecutor` whose workers map the
table columns through :mod:`.shm` and run the *same* task bodies —
range-scan morsels, whole-piece chunks, refinement advances — with no
interpreter lock shared with the parent.

Selection mirrors the thread tier exactly:

* environment: ``REPRO_PROCS=<n>`` (or ``auto``), read once at import;
* programmatic: :func:`set_process_workers`, or the ``procs=`` option of
  :class:`repro.session.ExplorationSession` and ``python -m repro.fuzz
  --procs``.

``procs == 1`` (the default) is free: the executor checks one integer
before considering this module at all, and the thread path — or plain
serial — runs untouched.

Start method
------------
Workers are started with the ``spawn`` method (override via
``REPRO_PROCS_START``): the serve layer and background refiners keep
live threads, and forking a threaded parent can deadlock the child in
a held lock.  Spawned workers import :mod:`repro` fresh — a visible
one-off warm-up per pool, which is why the pool is persistent and
re-used across queries.  Each worker's initializer pins it to strictly
serial execution (thread workers = 1, process workers = 1, marked via
:func:`in_proc_worker`) so inherited ``REPRO_*`` environment can never
nest pools inside pools.

Determinism
-----------
Identical to the thread tier's contract: workers return positions for
their sub-range plus a private :class:`~repro.core.metrics.QueryStats`,
the parent merges both in submission order, and refinement advances ship
back ``(used, lo, hi, done)`` partition state that the parent applies to
its own job object — the row swaps themselves happened in shared memory
and are already visible.  Answers and stats are bit-identical to serial.
"""

from __future__ import annotations

import atexit
import os
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence

from ..errors import InvalidParameterError
from . import shm

__all__ = [
    "set_process_workers",
    "get_process_workers",
    "proc_pool",
    "shutdown_procs",
    "in_proc_worker",
    "warm_up",
    "health_snapshot",
    "publish_health",
    "note_submitted",
    "note_done",
]

_LOCK = threading.RLock()
_PROCS = 1
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_PROCS = 0

# Lifetime task accounting (parent side), fed by the executor around
# every proc fan-out: pending = submitted - done is the task-queue
# depth the health surface and the SLO watchdog's worker_stalled
# detector read.
_COUNT_LOCK = threading.Lock()
_SUBMITTED = 0
_DONE = 0

#: True in a pool worker *process* (set by the initializer).  Unlike the
#: thread-tier flag this is process-wide: the whole child exists to run
#: one task at a time, so nothing in it may fan out again.
_IN_PROC_WORKER = False


def set_process_workers(n: int) -> int:
    """Set the process-global process-worker count; returns it.

    ``n`` must be a positive integer; ``1`` restores thread/serial
    execution (an existing pool is left warm until :func:`shutdown_procs`
    or a resize replaces it).
    """
    try:
        n = int(n)
    except (TypeError, ValueError):
        raise InvalidParameterError(
            f"process worker count must be an integer, got {n!r}"
        ) from None
    if n < 1:
        raise InvalidParameterError(
            f"process worker count must be >= 1, got {n}"
        )
    global _PROCS
    with _LOCK:
        _PROCS = n
    return n


def get_process_workers() -> int:
    """The process-global process-worker count (1 = no process tier)."""
    return _PROCS


def in_proc_worker() -> bool:
    """True when running inside a pool worker process."""
    return _IN_PROC_WORKER


def _worker_init() -> None:
    """Runs once in every spawned worker, before any task.

    Neutralises inherited parallelism (the child imported this package
    with the parent's ``REPRO_PARALLEL`` / ``REPRO_PROCS`` environment)
    and marks the process as a worker so every fan-out gate in the
    executor falls through to serial.
    """
    global _IN_PROC_WORKER
    _IN_PROC_WORKER = True
    from . import config
    from ..obs import procbridge

    config.set_workers(1)
    set_process_workers(1)
    # Pin this worker's telemetry collector (and with it the
    # pid-namespaced span-id counter) before the first task arrives.
    procbridge.install_worker_collector()


def _start_context():
    import multiprocessing

    method = os.environ.get("REPRO_PROCS_START", "spawn")
    return multiprocessing.get_context(method)


def proc_pool() -> ProcessPoolExecutor:
    """The shared process pool, created lazily, re-created on resize."""
    global _POOL, _POOL_PROCS
    with _LOCK:
        procs = _PROCS
        if _POOL is None or _POOL_PROCS != procs:
            if _POOL is not None:
                _POOL.shutdown(wait=True)
            _POOL = ProcessPoolExecutor(
                max_workers=procs,
                mp_context=_start_context(),
                initializer=_worker_init,
            )
            _POOL_PROCS = procs
        return _POOL


def shutdown_procs() -> None:
    """Tear down the process pool (tests / atexit; workers are joined, so
    no zombies survive this call)."""
    global _POOL, _POOL_PROCS
    with _LOCK:
        if _POOL is not None:
            _POOL.shutdown(wait=True)
        _POOL = None
        _POOL_PROCS = 0


def warm_up() -> List[int]:
    """Force every worker to finish importing; returns their pids.

    Spawned workers pay the :mod:`repro` import on first use; calling
    this once up front (sessions do, at ``procs=`` setup) moves that
    cost out of the first query.
    """
    pool = proc_pool()
    with _LOCK:
        procs = _POOL_PROCS
    futures = [pool.submit(_warm_task) for _ in range(procs)]
    return sorted({future.result() for future in futures})


def _warm_task() -> int:
    return os.getpid()


def note_submitted(n: int = 1) -> None:
    """Record ``n`` proc tasks handed to the pool (executor fan-outs)."""
    global _SUBMITTED
    with _COUNT_LOCK:
        _SUBMITTED += n


def note_done(n: int = 1) -> None:
    """Record ``n`` proc-task results received back."""
    global _DONE
    with _COUNT_LOCK:
        _DONE += n


def health_snapshot() -> dict:
    """Point-in-time pool health: configured/expected/alive worker
    counts plus lifetime task accounting.

    ``alive`` inspects the pool's worker processes (0 while no pool is
    materialised — the pool is lazy); ``pending`` is the submitted-but-
    unreturned task depth.  Read by the metrics surface
    (:func:`publish_health`), the serve watchdog probe, and tests.
    """
    with _LOCK:
        pool = _POOL
        expected = _POOL_PROCS
    alive = 0
    if pool is not None:
        processes = getattr(pool, "_processes", None) or {}
        alive = sum(
            1 for process in list(processes.values()) if process.is_alive()
        )
    with _COUNT_LOCK:
        submitted, done = _SUBMITTED, _DONE
    return {
        "procs": _PROCS,
        "expected": expected,
        "alive": alive,
        "submitted": submitted,
        "done": done,
        "pending": max(0, submitted - done),
    }


def publish_health() -> dict:
    """Snapshot pool health and (when metrics are live) publish it as
    gauges; returns the snapshot either way."""
    health = health_snapshot()
    from ..obs import metrics as obs_metrics

    if obs_metrics.ENABLED:
        registry = obs_metrics.REGISTRY
        registry.gauge("parallel.proc_workers_expected").set(health["expected"])
        registry.gauge("parallel.proc_workers_alive").set(health["alive"])
        registry.gauge("parallel.proc_tasks_inflight").set(health["pending"])
    return health


atexit.register(shutdown_procs)


# ------------------------------------------------------------ worker tasks
#
# Module-level functions (picklable by reference), submitted by the
# executor's fan-out as ``task(backend_name, *args, telemetry)``.  Each
# attaches the shm handles it was shipped and runs the same code the
# serial path runs inside :func:`_run_task`; results travel back with
# private QueryStats for the parent's submission-order merge.

def _run_task(backend_name, telemetry, work, op, stats=None, **attrs) -> tuple:
    """The frame every task body runs in: ``work()`` under a pinned
    process-private instance of the caller's kernel backend, with this
    task's telemetry captured when the parent asked for it.  Returns
    ``work()``'s result tuple, plus the telemetry payload when requested.
    """
    from .. import kernels
    from ..obs.procbridge import WorkerCapture

    capture = WorkerCapture(telemetry, op=op, stats=stats, **attrs)
    capture.begin()
    try:
        with kernels.pinned(kernels.thread_instance(backend_name)):
            result = work()
    finally:
        payload = capture.finish()
    if telemetry is None:
        return result
    return result + (payload,)


def piece_spec(match) -> tuple:
    """The picklable projection of one PieceMatch a worker needs."""
    piece = match.piece
    return (
        int(piece.start),
        int(piece.end),
        piece.zone_lo,
        piece.zone_hi,
        match.check_low,
        match.check_high,
    )


def _match_of(spec: tuple):
    """Rebuild a :func:`piece_spec` as a PieceMatch over a bare Piece."""
    from ..core.kdtree import PieceMatch
    from ..core.node import Piece

    start, end, zone_lo, zone_hi, check_low, check_high = spec
    piece = Piece(start, end)
    piece.zone_lo = zone_lo
    piece.zone_hi = zone_hi
    return PieceMatch(piece, check_low, check_high)


def scan_range_task(
    backend_name: str,
    handles: Sequence[shm.ArrayHandle],
    start: int,
    end: int,
    query,
    check_low,
    check_high,
    telemetry=None,
):
    """Scan rows ``[start, end)``; returns ``(positions, stats)``."""
    from .. import kernels
    from ..core.metrics import QueryStats

    columns = [shm.attach(handle) for handle in handles]
    stats = QueryStats()

    def scan():
        positions = kernels.range_scan(
            columns, start, end, query, stats, check_low, check_high
        )
        return positions, stats

    return _run_task(
        backend_name, telemetry, scan, op="scan", stats=stats,
        start=start, rows=end - start,
    )


def scan_match_sets_task(
    backend_name: str,
    handles: Sequence[shm.ArrayHandle],
    tagged_specs: Sequence[tuple],
    queries: Sequence[object],
    op: str,
    telemetry=None,
):
    """Scan a chunk of ``(job_index, piece-spec)`` items over the index
    table whose columns + rowids ``handles`` name.  Returns tagged parts
    plus ``(job_index, stats)`` pairs in job order."""
    from ..core.index_base import IndexTable
    from ..core.metrics import QueryStats

    arrays = [shm.attach(handle) for handle in handles]
    index_table = IndexTable(arrays[:-1], arrays[-1])
    chunk = [(job_index, _match_of(spec)) for job_index, spec in tagged_specs]
    per_job = {job_index: QueryStats() for job_index, _match in chunk}

    def scan():
        tagged_parts = [
            (
                job_index,
                index_table.scan_piece(
                    match, queries[job_index], per_job[job_index]
                ),
            )
            for job_index, match in chunk
        ]
        return tagged_parts, sorted(per_job.items())

    return _run_task(
        backend_name, telemetry, scan, op=op,
        stats=per_job[chunk[0][0]] if len(per_job) == 1 else None,
        pieces=len(chunk),
        rows=sum(match.piece.size for _job_index, match in chunk),
    )


def advance_task(
    backend_name: str,
    handles: Sequence[shm.ArrayHandle],
    start: int,
    end: int,
    key_index: int,
    pivot: float,
    lo: int,
    hi: int,
    grant: int,
    telemetry=None,
):
    """Advance a paused IncrementalPartition over the shared arrays.

    The swaps mutate shared memory directly; only the pointer state
    ``(used, lo, hi, done)`` travels back for the parent to apply to its
    own job object.
    """
    from ..core.partition import IncrementalPartition

    arrays = [shm.attach(handle) for handle in handles]
    # Built before the capture starts: the parent already traced this
    # job's partition.start when it scheduled the piece.
    job = IncrementalPartition(arrays, start, end, key_index, pivot)
    job.lo = lo
    job.hi = hi
    job.done = lo >= hi

    def advance():
        used = job.advance(grant)
        return used, job.lo, job.hi, job.done

    return _run_task(
        backend_name, telemetry, advance, op="refine", start=start, grant=grant
    )


# --------------------------------------------------------------- env setup

def _procs_from_env() -> int:
    requested = os.environ.get("REPRO_PROCS")
    if requested is None or requested == "":
        return 1
    if requested.strip().lower() == "auto":
        return max(1, os.cpu_count() or 1)
    try:
        value = int(requested)
        if value < 1:
            raise ValueError
    except ValueError:
        warnings.warn(
            f"REPRO_PROCS={requested!r} is not a positive integer or "
            f"'auto'; not using process workers",
            stacklevel=2,
        )
        return 1
    return value


set_process_workers(_procs_from_env())
