"""Multi-session index serving layer.

This package turns the single-user :class:`~repro.session.ExplorationSession`
into a long-lived server multiplexing many concurrent tenants over shared
registered tables — the ROADMAP's "serve heavy traffic" north star:

* :mod:`.protocol` — newline-delimited JSON frames and deterministic
  :class:`TableSpec` table definitions (both ends can rebuild the data
  bit-identically, enabling checksum-only answer verification).
* :mod:`.admission` — per-tenant and global session/in-flight caps with
  retryable rejections.
* :mod:`.server` — :class:`IndexServer` (the blocking core + asyncio
  request layer) and :class:`ServerThread` (in-process deployment).
* :mod:`.client` — :class:`ServeClient`, the blocking socket client.
* :mod:`.loadgen` / :mod:`.report` — the deterministic many-client
  soak harness and its verdict-style ``STRESS_TEST_REPORT.md``.

The per-index readers–writer lock (:class:`PieceSnapshotLock`) and the
weighted-fair think-time refiner (:class:`RefinementScheduler`) live in
:mod:`repro.parallel`, shared with
:class:`~repro.session.ExplorationSession`; ``repro.serve.locks`` still
names the lock module.

Run a server with ``python -m repro.serve --table soak:uniform:40000:3``
and drive it with ``python -m repro.serve.loadgen``.
"""

from ..parallel import locks  # keeps ``from repro.serve import locks`` working
from ..parallel.locks import PieceSnapshotLock
from ..parallel.scheduler import RefinementScheduler
from .admission import AdmissionCaps, AdmissionControl, AdmissionError
from .client import AdmissionRejected, ServeClient, ServeClientError
from .protocol import PROTOCOL_VERSION, TableSpec, answer_checksum
from .report import (
    CheckpointOutcome,
    ClientOutcome,
    SoakReport,
    render_report,
)
from .server import IndexServer, ServerThread, TenantSession

#: Loadgen names resolve lazily (PEP 562): importing them here eagerly
#: would pre-load ``repro.serve.loadgen`` and trip runpy's double-import
#: warning under ``python -m repro.serve.loadgen``.
_LAZY_LOADGEN = ("PATTERNS", "Oracle", "SoakConfig", "run_soak")


def __getattr__(name: str):
    if name in _LAZY_LOADGEN:
        from . import loadgen

        return getattr(loadgen, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AdmissionCaps",
    "AdmissionControl",
    "AdmissionError",
    "AdmissionRejected",
    "CheckpointOutcome",
    "ClientOutcome",
    "IndexServer",
    "Oracle",
    "PATTERNS",
    "PROTOCOL_VERSION",
    "PieceSnapshotLock",
    "RefinementScheduler",
    "ServeClient",
    "ServeClientError",
    "ServerThread",
    "SoakConfig",
    "SoakReport",
    "TableSpec",
    "TenantSession",
    "answer_checksum",
    "render_report",
    "run_soak",
]
