"""Think-time refinement: the cost model as a fairness policy.

The paper's progressive indexes refine only inside queries.
:class:`RefinementScheduler` also spends the think time between them:
one daemon thread advances registered progressive indexes in small
slices.  It is the package's only think-time refiner: a background-
refining :class:`~repro.session.ExplorationSession` registers its
indexes as one tenant of weight 1, the server (:mod:`repro.serve`)
registers every tenant's.

* each slice goes to the registered index whose tenant has consumed the
  least *model-priced* refinement seconds per unit weight (weighted
  fair queueing: rows advanced x the cost model's per-row refinement
  price), so a chatty tenant cannot converge its indexes at everyone
  else's expense, across tables of any width and size;
* a slice only runs while holding the index's
  :class:`~repro.parallel.locks.PieceSnapshotLock` writer side, acquired
  with a short timeout — a busy index (readers mid-snapshot, a query in
  flight) forfeits the slice to the next-neediest tenant instead of
  blocking the thread;
* slice work is charged to the entry's own
  :class:`~repro.core.metrics.QueryStats`, never to a query's.

Invariant I9 asks :func:`mid_slice` whether an index is being sliced
while its invariants are checked; the checkers' callers hold the writer
lock, so the answer must be no.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Set

import numpy as np

from .. import kernels
from ..core.cost_model import CostModel, MachineProfile
from ..core.metrics import QueryStats
from ..core.progressive_kdtree import REFINEMENT
from ..core.query import RangeQuery
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .locks import PieceSnapshotLock

__all__ = ["RefinementScheduler", "SLICE_ROWS", "mid_slice"]

#: Rows of refinement budget per scheduler slice: small enough that a
#: query arriving mid-slice waits at most one slice for the writer lock.
SLICE_ROWS = 1 << 15

#: How long a slice will wait for a busy index before the scheduler
#: spends it on another tenant instead.
WRITE_TIMEOUT_SECONDS = 0.02

#: Idle re-check period when no poke arrives.
IDLE_SECONDS = 0.005

#: ``id()`` of every index some scheduler in this process is slicing.
_SLICING: Set[int] = set()


def mid_slice(index: object) -> bool:
    """Whether some scheduler is refining ``index`` right now."""
    return id(index) in _SLICING


class _Entry:
    """One registered (tenant, index) pair with its fair-share ledger."""

    __slots__ = (
        "tenant",
        "key",
        "index",
        "lock",
        "weight",
        "rows",
        "slices",
        "model_seconds",
        "skipped",
        "stats",
        "probe",
        "row_price",
    )

    def __init__(self, tenant, key, index, lock, weight) -> None:
        self.tenant = tenant
        self.key = key
        self.index = index
        self.lock = lock
        self.weight = float(weight)
        self.rows = 0
        self.slices = 0
        self.model_seconds = 0.0
        self.skipped = 0
        self.stats = QueryStats()
        self.probe: Optional[RangeQuery] = None
        model = getattr(index, "cost_model", None) or CostModel(
            MachineProfile.deterministic(), index.n_rows, index.n_dims
        )
        self.row_price = model.refinement_row_seconds()


class RefinementScheduler:
    """One daemon thread allocating refinement slices across tenants."""

    def __init__(
        self,
        slice_rows: int = SLICE_ROWS,
        idle_seconds: float = IDLE_SECONDS,
        write_timeout: float = WRITE_TIMEOUT_SECONDS,
    ) -> None:
        self._slice_rows = int(slice_rows)
        self._idle_seconds = float(idle_seconds)
        self._write_timeout = float(write_timeout)
        self._lock = threading.Lock()
        self._entries: List[_Entry] = []
        # One-slot "who funded the next slice" hand-off: the query that
        # poked last donates its root span id, and the next slice's span
        # parents under it — the end-to-end trace's query->refinement link.
        self._funding: Optional[int] = None
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._pause = threading.RLock()
        #: The index a slice is refining right now, or ``None``.
        self.slicing: Optional[object] = None
        self.slices_run = 0
        self._thread = threading.Thread(
            target=self._run, name="repro-refine-scheduler", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------- registry

    def register(
        self,
        tenant: str,
        key: str,
        index: object,
        lock: PieceSnapshotLock,
        weight: float = 1.0,
    ) -> None:
        """Put ``index`` under scheduler maintenance for ``tenant``."""
        with self._lock:
            self._entries.append(_Entry(tenant, key, index, lock, weight))
        self._wake.set()

    def unregister(self, index: object) -> None:
        with self._lock:
            self._entries = [e for e in self._entries if e.index is not index]

    def unregister_tenant(self, tenant: str, keys: Optional[set] = None) -> None:
        """Drop a tenant's entries (all of them, or just ``keys``)."""
        with self._lock:
            self._entries = [
                e
                for e in self._entries
                if not (e.tenant == tenant and (keys is None or e.key in keys))
            ]

    # ------------------------------------------------------------- protocol

    def poke(self, funding: Optional[int] = None) -> None:
        """Nudge the worker (called whenever a query finishes).

        ``funding`` is the poking query's root span id; the next slice
        records it as its trace parent, crediting the refinement to the
        request whose think-time paid for it (last poke wins).
        """
        if funding is not None:
            with self._lock:
                self._funding = funding
        self._wake.set()

    def paused(self) -> threading.RLock:
        """Global quiescence lock: while held, no slice is running
        anywhere.  Per-index exclusion normally comes from the piece
        snapshot locks; this is the big hammer for full invariant sweeps
        and teardown."""
        return self._pause

    @property
    def quiescent(self) -> bool:
        return self.slicing is None

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()

    def close(self, timeout: Optional[float] = 5.0) -> None:
        """Stop the worker and wait for it to exit.  Idempotent."""
        self._stop.set()
        self._wake.set()
        self._thread.join(timeout=timeout)

    # ----------------------------------------------------------- accounting

    def allocations(self) -> Dict[str, Dict[str, object]]:
        """Per-tenant refinement ledger for the stats op / soak report."""
        with self._lock:
            per_tenant: Dict[str, Dict[str, object]] = {}
            total_seconds = 0.0
            for entry in self._entries:
                bucket = per_tenant.setdefault(
                    entry.tenant,
                    {
                        "rows": 0,
                        "slices": 0,
                        "model_seconds": 0.0,
                        "skipped": 0,
                        "weight": entry.weight,
                        "indexes": 0,
                        "converged": 0,
                    },
                )
                bucket["rows"] += entry.rows
                bucket["slices"] += entry.slices
                bucket["model_seconds"] += entry.model_seconds
                bucket["skipped"] += entry.skipped
                bucket["indexes"] += 1
                bucket["converged"] += int(bool(entry.index.converged))
                total_seconds += entry.model_seconds
        for bucket in per_tenant.values():
            bucket["share"] = (
                bucket["model_seconds"] / total_seconds if total_seconds else 0.0
            )
        return per_tenant

    # --------------------------------------------------------------- worker

    @staticmethod
    def _refinable(index: object) -> bool:
        return getattr(index, "phase", None) == REFINEMENT

    def _pick(self) -> Optional[_Entry]:
        """Weighted fair pick: least model-priced seconds per weight."""
        with self._lock:
            candidates = [e for e in self._entries if self._refinable(e.index)]
            if not candidates:
                return None
            return min(candidates, key=lambda e: e.model_seconds / e.weight)

    def _run(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(timeout=self._idle_seconds)
            self._wake.clear()
            if self._stop.is_set():
                return
            with self._pause:
                if self._stop.is_set():
                    return
                entry = self._pick()
                if entry is None:
                    continue
                if not entry.lock.acquire_write(timeout=self._write_timeout):
                    entry.skipped += 1
                    self._wake.set()  # try the next-neediest immediately
                    continue
                try:
                    if not self._refinable(entry.index):
                        continue
                    self.slicing = entry.index
                    _SLICING.add(id(entry.index))
                    try:
                        self._slice(entry)
                    finally:
                        _SLICING.discard(id(entry.index))
                        self.slicing = None
                finally:
                    entry.lock.release_write()
                # More work may remain; keep draining without idling.
                self._wake.set()

    def _slice(self, entry: _Entry) -> None:
        if entry.probe is None:
            n_dims = entry.index.n_dims
            entry.probe = RangeQuery(
                np.full(n_dims, -np.inf), np.full(n_dims, np.inf)
            )
        span = None
        if obs_trace.ENABLED:
            funding = None
            with self._lock:
                funding, self._funding = self._funding, None
            # A span (not an instant event) so the refinement work this
            # slice did nests under the query that funded it.
            span = obs_trace.TRACER.span(
                "scheduler.slice",
                parent=funding,
                tenant=entry.tenant,
                index=entry.key,
            )
            span.__enter__()
        used = 0
        try:
            # Refinement partitions/scans through the kernel layer; pin a
            # scheduler-thread-private backend instance so the fused
            # backend's scratch buffers are never shared with the executor
            # threads running queries.
            with kernels.pinned(kernels.thread_instance(kernels.active_name())):
                used = entry.index._refine_step(
                    self._slice_rows, entry.probe, entry.stats
                )
        finally:
            if span is not None:
                span.attrs["rows"] = int(used)
                span.__exit__(None, None, None)
        model_seconds = int(used) * entry.row_price
        entry.rows += int(used)
        entry.slices += 1
        entry.model_seconds += model_seconds
        self.slices_run += 1
        if obs_metrics.ENABLED:
            registry = obs_metrics.REGISTRY
            registry.counter("scheduler.slices", tenant=entry.tenant).inc()
            registry.counter("scheduler.rows", tenant=entry.tenant).inc(
                int(used)
            )
            registry.counter(
                "scheduler.model_seconds", tenant=entry.tenant
            ).inc(model_seconds)
            remaining = getattr(
                entry.index, "convergence_rows_estimate", None
            )
            if remaining is not None:
                registry.gauge(
                    "serve.rows_to_converge",
                    tenant=entry.tenant,
                    index=entry.key,
                ).set(remaining)
            open_pieces = getattr(entry.index, "open_piece_count", None)
            if open_pieces is not None:
                registry.gauge(
                    "serve.open_pieces",
                    tenant=entry.tenant,
                    index=entry.key,
                ).set(open_pieces)
            registry.gauge(
                "serve.index_converged",
                tenant=entry.tenant,
                index=entry.key,
            ).set(int(bool(entry.index.converged)))

    def __repr__(self) -> str:
        with self._lock:
            entries = len(self._entries)
        return (
            f"RefinementScheduler(entries={entries}, "
            f"slices_run={self.slices_run}, alive={self.alive})"
        )
