"""Per-query measurement machinery.

Every index in this package reports, for each query, both wall-clock times
and deterministic *work counters*.  The paper (Fig. 6c) breaks query time
into four phases — initialization, adaptation, index search, and scan — and
we mirror that breakdown.  Work counters (elements scanned / copied /
swapped, tree nodes touched and created) make the small-scale Python
reproduction noise-free: variance and convergence measures can be computed
on work units as well as on seconds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..obs import trace as obs_trace

__all__ = ["QueryStats", "PhaseTimer", "PHASES"]

#: The four cost phases of Fig. 6c, in presentation order.
PHASES = ("initialization", "adaptation", "index_search", "scan")


@dataclass
class QueryStats:
    """Measurements for one query against one index.

    Attributes
    ----------
    seconds:
        Total wall-clock time of :meth:`BaseIndex.query`.
    phase_seconds:
        Wall-clock seconds per phase (keys are :data:`PHASES`).
    scanned:
        Elements read while scanning data (base table or index pieces),
        including candidate-list re-checks.
    copied:
        Elements moved by sequential, out-of-place work: copying data into
        the index (initialization, progressive creation) and stable
        partitioning (adaptation, full builds, QUASII cracking).
    swapped:
        Elements visited by *in-place* incremental partitioning (the
        progressive refinement phase's pausable swaps).
    lookup_nodes:
        KD-Tree nodes visited during index search.
    nodes_created:
        Index nodes created while answering this query.
    result_count:
        Number of qualifying rows returned.
    pruned:
        Leaf pieces skipped without reading any data because their zone
        map proved the query cannot match (zone box disjoint from the
        query box).
    contained:
        Leaf pieces answered without reading any data because their zone
        map proved *every* row matches (zone box fully inside the query
        box); the piece's whole rowid range is returned directly.
    delta_used:
        Indexing budget actually spent by progressive indexes, as a
        fraction of N (``None`` for non-progressive indexes, and for
        queries answered by the converged reader, which index nothing).
    converged:
        Whether the index is fully converged after this query.
    """

    seconds: float = 0.0
    phase_seconds: Dict[str, float] = field(
        default_factory=lambda: {phase: 0.0 for phase in PHASES}
    )
    scanned: int = 0
    copied: int = 0
    swapped: int = 0
    lookup_nodes: int = 0
    nodes_created: int = 0
    result_count: int = 0
    pruned: int = 0
    contained: int = 0
    delta_used: Optional[float] = None
    converged: bool = False

    @property
    def work(self) -> int:
        """Total deterministic work units for this query."""
        return self.scanned + self.copied + self.swapped + self.lookup_nodes

    @property
    def indexing_work(self) -> int:
        """Work spent building the index rather than answering the query."""
        return self.copied + self.swapped

    def merge(self, other: "QueryStats") -> None:
        """Accumulate another stats record into this one (for totals).

        ``converged`` is carried through as a logical OR: once any merged
        record saw the index converged, the total reports converged.
        ``delta_used`` accumulates the progressive indexing budget; it
        stays ``None`` only when *both* sides are ``None`` (neither side
        was progressive), otherwise a missing side counts as 0.
        """
        self.seconds += other.seconds
        for phase in PHASES:
            self.phase_seconds[phase] += other.phase_seconds[phase]
        self.scanned += other.scanned
        self.copied += other.copied
        self.swapped += other.swapped
        self.lookup_nodes += other.lookup_nodes
        self.nodes_created += other.nodes_created
        self.result_count += other.result_count
        self.pruned += other.pruned
        self.contained += other.contained
        self.converged = self.converged or other.converged
        if self.delta_used is not None or other.delta_used is not None:
            self.delta_used = (self.delta_used or 0.0) + (other.delta_used or 0.0)

    def __repr__(self) -> str:
        phases = ", ".join(
            f"{phase}={self.phase_seconds[phase]:.6f}s" for phase in PHASES
        )
        return (
            f"QueryStats({self.seconds:.6f}s, {phases}, "
            f"scanned={self.scanned}, copied={self.copied}, "
            f"swapped={self.swapped}, nodes+={self.nodes_created}, "
            f"rows={self.result_count})"
        )


class PhaseTimer:
    """Accumulates wall-clock time into one phase of a :class:`QueryStats`.

    Usage::

        with PhaseTimer(stats, "adaptation"):
            ...  # work attributed to the adaptation phase

    Time is accumulated even when the body raises (the ``with`` protocol
    guarantees ``__exit__`` runs), so a failed query still reports where
    its time went.  Re-entering an already-active timer instance raises:
    nested activations of the same instance would overwrite ``_start``
    and silently lose the outer activation's time.  Sequential reuse of
    one instance is fine and accumulates.

    When tracing is enabled (:mod:`repro.obs.trace`), every activation
    additionally emits a ``phase`` span carrying the work-counter deltas
    accumulated during the phase — this is the single choke point that
    gives every index backend its per-phase spans for free.
    """

    __slots__ = ("_stats", "_phase", "_start", "_active", "_span")

    def __init__(self, stats: QueryStats, phase: str) -> None:
        if phase not in stats.phase_seconds:
            raise KeyError(f"unknown phase {phase!r}; expected one of {PHASES}")
        self._stats = stats
        self._phase = phase
        self._start = 0.0
        self._active = False
        self._span = None

    def __enter__(self) -> "PhaseTimer":
        if self._active:
            raise RuntimeError(
                f"PhaseTimer for phase {self._phase!r} is already active; "
                "a timer instance cannot be re-entered — create a new "
                "PhaseTimer (or exit the active one) instead"
            )
        self._active = True
        if obs_trace.ENABLED:
            self._span = obs_trace.TRACER.span(
                "phase", stats=self._stats, phase=self._phase
            )
            self._span.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stats.phase_seconds[self._phase] += time.perf_counter() - self._start
        self._active = False
        span, self._span = self._span, None
        if span is not None:
            span.__exit__(*exc_info)
