"""Morsel-driven parallel execution layer.

Sits between the index implementations and the kernel dispatch
(:mod:`repro.kernels`): indexes describe *what* to scan or partition,
this package decides whether to run it on the calling thread or to split
it into morsels across a shared, process-wide thread pool.  NumPy
kernels release the GIL for the duration of their C loops, so plain OS
threads give real scan parallelism without any new dependency.

Three capabilities (see DESIGN.md §5.3):

* **parallel scans** — :func:`~repro.parallel.executor.scan_range`
  splits contiguous row windows (full scans, creation-phase region
  scans) into fixed-size morsels; :func:`~repro.parallel.executor.
  scan_pieces` splits per-query candidate-piece lists into balanced
  chunks of whole pieces.  Results and ``QueryStats`` merge in
  submission order and are bit-identical to the serial path.
* **parallel refinement** — :func:`~repro.parallel.executor.
  advance_jobs` advances disjoint paused-partition jobs concurrently,
  each under an exclusive per-piece ownership claim (invariant I9),
  while budget accounting stays centralised in the index.
* **think-time refinement** —
  :class:`~repro.parallel.scheduler.RefinementScheduler` spends the
  time between queries continuing refinement, one slice at a time
  under each index's :class:`~repro.parallel.locks.PieceSnapshotLock`
  writer side; sessions and the server both use it.

Configuration mirrors the kernel layer: the ``REPRO_PARALLEL``
environment variable (worker count, or ``auto`` for the CPU count) is
read once at import; programmatic control via :func:`set_workers`, the
``parallel=`` option of :class:`repro.session.ExplorationSession` and
:func:`repro.bench.harness.run_workload`, and ``python -m repro.fuzz
--parallel N``.  ``workers == 1`` (the default) compiles to the
unchanged serial path — no pool, no task objects, no overhead.

A second, process-based tier (DESIGN.md §5.6) escapes the GIL entirely:
:mod:`~repro.parallel.shm` places columns in shared-memory segments and
:mod:`~repro.parallel.procpool` runs the same morsel/piece/refinement
task bodies on a persistent spawn-based process pool, selected via
``REPRO_PROCS`` / :func:`set_process_workers` /
``ExplorationSession(procs=)``.  The executor prefers the process tier
when it is enabled *and* the arrays in question are shm-backed, and
falls back to threads (then serial) otherwise — same answers and stats
bit-for-bit on every path.
"""

from .config import (
    MIN_PARALLEL_ROWS,
    MORSEL_ROWS,
    claim_piece,
    fanout_workers,
    get_workers,
    in_worker,
    owned_pieces,
    ownership_violations,
    pool,
    release_piece,
    reset_ownership_log,
    set_workers,
    shutdown_pool,
)
from .executor import advance_jobs, scan_pieces, scan_range
from .procpool import (
    get_process_workers,
    in_proc_worker,
    proc_pool,
    set_process_workers,
    shutdown_procs,
)

__all__ = [
    "MIN_PARALLEL_ROWS",
    "MORSEL_ROWS",
    "advance_jobs",
    "claim_piece",
    "fanout_workers",
    "get_process_workers",
    "get_workers",
    "in_proc_worker",
    "in_worker",
    "owned_pieces",
    "ownership_violations",
    "pool",
    "proc_pool",
    "release_piece",
    "reset_ownership_log",
    "scan_pieces",
    "scan_range",
    "set_process_workers",
    "set_workers",
    "shutdown_pool",
    "shutdown_procs",
]
