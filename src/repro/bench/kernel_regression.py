"""Kernel-backend performance baseline: record once, compare in CI.

Unlike :mod:`repro.bench.regression` (deterministic work counters,
compared exactly), these numbers are wall-clock timings and therefore
machine-dependent.  The baseline stores two kinds of facts and the
comparison treats them differently:

* **relative** — the fused backend's speedup over the ``reference``
  backend on the same machine in the same run.  This ratio is portable:
  if fusion stops paying off, it drops everywhere.  ``compare`` enforces
  a floor on it.
* **absolute** — elements/second per (backend, op).  Only compared with
  a deliberately generous slowdown ratio, as a canary against order-of-
  magnitude regressions (an accidental O(n^2), a lost vectorisation),
  not as a precise gate.

The ``record-parallel`` / ``compare-parallel`` pair does the same for
the morsel executor (:mod:`repro.parallel`): wall time of the same scan
under 1/2/4/8 workers.  Its portable facts are (a) ``parallel=1`` stays
within a small overhead of the pre-existing serial path and (b) fanning
out never costs more than a bounded overhead over serial even on a
single core; the absolute speedups are recorded for the README but only
gated when the machine actually has cores to scale on.

Usage::

    python -m repro.bench.kernel_regression record BENCH_kernels.json
    python -m repro.bench.kernel_regression compare BENCH_kernels.json \
        --n 200000 --min-speedup 1.1 --slowdown 10
    python -m repro.bench.kernel_regression record-parallel BENCH_parallel.json
    python -m repro.bench.kernel_regression compare-parallel BENCH_parallel.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .. import kernels
from ..core.metrics import QueryStats
from ..core.partition import IncrementalPartition
from ..core.query import RangeQuery
from ..errors import ReproError
from ..workloads import make_synthetic_workload
from .harness import run_workload

__all__ = [
    "kernel_metrics",
    "parallel_metrics",
    "record",
    "compare",
    "record_parallel",
    "compare_parallel",
    "BaselineProvenanceError",
    "PerfDrift",
    "OPS",
    "GATE",
    "PARALLEL_WORKERS",
    "PARALLEL_PROCS",
]


class BaselineProvenanceError(ReproError):
    """Refusing to overwrite a baseline with worse-provenance numbers."""

#: Micro-benchmark operations, timed per backend.  The three scan
#: selectivities cover the backend's regimes: *selective* (~1% total)
#: runs mostly on the candidate list where both backends are cheap and
#: near parity; *moderate* (12.5%) and *dense* (~73%) keep the fused
#: backend in mask mode — the shape of an early-adaptation scan over a
#: large piece, where fusion is designed to pay off.
OPS = (
    "piece_scan_selective",
    "piece_scan_moderate",
    "piece_scan_dense",
    "stable_partition",
    "incremental_partition",
)

#: Per-dim width giving ~1% total selectivity over 3 uniform dims.
_SELECTIVE_WIDTH = 0.01 ** (1.0 / 3.0)

#: The (backend/op) speedup key whose floor ``compare`` enforces.
GATE = "numpy/piece_scan_moderate"


def _timed(fn: Callable[[], object]) -> float:
    begin = time.perf_counter()
    fn()
    return time.perf_counter() - begin


def _op_thunks(
    name: str, n: int, columns, arrays
) -> Dict[str, Callable[[], object]]:
    """One zero-argument runner per op for one backend."""
    backend = kernels.get_backend(name)
    selective = RangeQuery([0.3] * 3, [0.3 + _SELECTIVE_WIDTH] * 3)
    moderate = RangeQuery([0.25] * 3, [0.75] * 3)
    dense = RangeQuery([0.05] * 3, [0.95] * 3)
    stats = QueryStats()

    def run_incremental():
        previous = kernels.active_name()
        try:
            kernels.use(name)
            job = IncrementalPartition(
                [a.copy() for a in arrays], 0, n, 0, 0.5
            )
            while not job.done:
                job.advance(max(1, n // 50))
        finally:
            kernels.use(previous)

    return {
        "piece_scan_selective": lambda: backend.range_scan(
            columns, 0, n, selective, stats
        ),
        "piece_scan_moderate": lambda: backend.range_scan(
            columns, 0, n, moderate, stats
        ),
        "piece_scan_dense": lambda: backend.range_scan(
            columns, 0, n, dense, stats
        ),
        "stable_partition": lambda: backend.stable_partition(
            [a.copy() for a in arrays], 0, n, 0, 0.5
        ),
        "incremental_partition": run_incremental,
    }


def _time_backends(
    backends: Sequence[str], n: int, repeats: int, rng: np.random.Generator
) -> Dict[str, Dict[str, float]]:
    """Best-of-``repeats`` seconds per (backend, op).

    Backends are timed *interleaved within each repeat*, not one after
    the other: wall-clock drifts monotonically on shared/thermally
    throttled machines, and timing backend A's whole block before
    backend B's would silently bias every A-vs-B ratio.
    """
    columns = [rng.random(n) for _ in range(3)]
    arrays = [rng.random(n), rng.random(n), np.arange(n, dtype=np.int64)]
    thunks = {
        name: _op_thunks(name, n, columns, arrays) for name in backends
    }
    # Untimed warm-up round: scratch-buffer allocation (fused),
    # page-faulting the inputs.
    for name in backends:
        for op in OPS:
            thunks[name][op]()
    seconds = {name: {op: float("inf") for op in OPS} for name in backends}
    for _ in range(repeats):
        for op in OPS:
            for name in backends:
                seconds[name][op] = min(
                    seconds[name][op], _timed(thunks[name][op])
                )
    return seconds


def _time_end_to_end(
    backends: Sequence[str], n_rows: int, repeats: int
) -> Dict[str, float]:
    """Seconds for one PKD run over a uniform workload, per backend."""
    workload = make_synthetic_workload("uniform", n_rows, 3, 30, 0.01, seed=42)

    def run(name):
        run_workload(
            "PKD", workload, size_threshold=1024, delta=0.25, kernels=name
        )

    previous = kernels.active_name()
    seconds = {name: float("inf") for name in backends}
    try:
        for name in backends:
            run(name)  # warm-up
        for _ in range(repeats):
            for name in backends:
                seconds[name] = min(
                    seconds[name], _timed(lambda: run(name))
                )
    finally:
        kernels.use(previous)
    return seconds


def kernel_metrics(
    n: int = 1_000_000,
    repeats: int = 3,
    end_to_end_rows: int = 100_000,
    backends: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """Measure every available backend; returns the baseline document.

    ``speedup`` entries are ``reference_seconds / backend_seconds`` from
    the same run — >1 means the backend beats the pure-NumPy reference.
    """
    if backends is None:
        backends = kernels.available_backends()
    backends = list(dict.fromkeys(["reference", *backends]))
    rng = np.random.default_rng(0)
    doc: Dict[str, object] = {
        "meta": {
            "n": n,
            "repeats": repeats,
            "end_to_end_rows": end_to_end_rows,
            "backends": backends,
        },
        "seconds": _time_backends(backends, n, repeats, rng),
        "end_to_end_seconds": _time_end_to_end(
            backends, end_to_end_rows, repeats
        ),
    }
    reference = doc["seconds"]["reference"]
    doc["speedup"] = {
        f"{name}/{op}": reference[op] / doc["seconds"][name][op]
        for name in backends
        if name != "reference"
        for op in OPS
    }
    return doc


#: Worker counts the parallel baseline sweeps (1 == the serial path).
PARALLEL_WORKERS = (1, 2, 4, 8)

#: Process-pool worker counts the baseline sweeps (1 == no pool).
PARALLEL_PROCS = (1, 2, 4)


def parallel_metrics(
    n: int = 4_000_000,
    repeats: int = 3,
    workers: Sequence[int] = PARALLEL_WORKERS,
    procs: Sequence[int] = PARALLEL_PROCS,
) -> Dict[str, object]:
    """Wall time of one moderate-selectivity full scan per worker count.

    The scan goes through :func:`repro.core.scan.full_scan`, i.e. the
    exact code path queries take, so ``workers=1`` times the serial
    fall-through (one extra integer comparison) and ``workers>1`` times
    the real morsel fan-out including submit/merge overhead.

    The ``procs`` sweep times the same scan on the process pool: the
    columns are moved into shared-memory segments first (as
    :meth:`repro.core.table.Table.share` does), so each count includes
    the real dispatch cost — pickle of the morsel descriptors, a
    zero-copy attach in each worker, and the submission-order merge —
    but not segment creation or pool warm-up.
    """
    from ..core.scan import full_scan
    from ..parallel import config as parallel_config
    from ..parallel import procpool, shm

    rng = np.random.default_rng(0)
    columns = [rng.random(n) for _ in range(3)]
    moderate = RangeQuery([0.25] * 3, [0.75] * 3)

    def run() -> None:
        full_scan(columns, moderate, QueryStats())

    previous = parallel_config.get_workers()
    seconds: Dict[str, float] = {}
    try:
        for count in workers:
            parallel_config.set_workers(count)
            run()  # warm-up: pool creation, page faults
            seconds[str(count)] = min(_timed(run) for _ in range(repeats))
    finally:
        parallel_config.set_workers(previous)
        parallel_config.shutdown_pool()
    serial = seconds[str(workers[0])]

    previous_procs = procpool.get_process_workers()
    block = shm.share_arrays(columns)
    columns = list(block.arrays)
    proc_seconds: Dict[str, float] = {}
    try:
        for count in procs:
            procpool.set_process_workers(count)
            if count > 1:
                procpool.warm_up()
            run()  # warm-up: worker attach, page faults
            proc_seconds[str(count)] = min(_timed(run) for _ in range(repeats))
    finally:
        procpool.set_process_workers(previous_procs)
        procpool.shutdown_procs()
        block.release()
    proc_serial = proc_seconds[str(procs[0])]

    return {
        # cpu_count rides at top level, not buried in meta: every number
        # below is meaningless without knowing how many cores produced it
        # (an 8-worker "speedup" on one core is pure overhead).
        "cpu_count": os.cpu_count(),
        "meta": {
            "n": n,
            "repeats": repeats,
            "workers": list(workers),
            "procs": list(procs),
            "cpu_count": os.cpu_count(),
        },
        "scan_seconds": seconds,
        "speedup": {
            count: serial / elapsed for count, elapsed in seconds.items()
        },
        "proc_scan_seconds": proc_seconds,
        "proc_speedup": {
            count: proc_serial / elapsed
            for count, elapsed in proc_seconds.items()
        },
    }


@dataclass
class PerfDrift:
    """Problems found when comparing a fresh run against the baseline."""

    problems: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    label: str = "kernel"

    @property
    def ok(self) -> bool:
        return not self.problems

    def __str__(self) -> str:
        if self.ok:
            return f"{self.label} perf baseline: OK" + (
                f" ({'; '.join(self.notes)})" if self.notes else ""
            )
        return f"{self.label} perf drift — " + "; ".join(self.problems)


def record(
    path: str, n: int = 1_000_000, repeats: int = 3,
    end_to_end_rows: int = 100_000,
) -> Dict[str, object]:
    """Measure and persist the baseline; returns the document."""
    doc = kernel_metrics(n, repeats, end_to_end_rows)
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
    return doc


def compare(
    path: str,
    n: int = 200_000,
    repeats: int = 3,
    end_to_end_rows: int = 50_000,
    min_speedup: float = 1.1,
    slowdown: float = 10.0,
) -> PerfDrift:
    """Re-measure (typically at smaller ``n``) and diff the baseline.

    Enforces (a) the fused backend still beats the reference scan by
    ``min_speedup`` on the selective piece scan, and (b) per-op
    throughput has not collapsed below ``baseline / slowdown`` —
    ``slowdown`` should stay generous, CI machines differ.
    """
    with open(path) as handle:
        stored = json.load(handle)
    current = kernel_metrics(n, repeats, end_to_end_rows)
    drift = PerfDrift()

    fused = current["speedup"].get(GATE, 0.0)
    if fused < min_speedup:
        drift.problems.append(
            f"fused piece scan ({GATE}) speedup {fused:.2f}x over "
            f"reference is below the {min_speedup:.2f}x floor"
        )
    else:
        drift.notes.append(f"fused piece scan {fused:.2f}x over reference")

    stored_n = stored["meta"]["n"]
    for name, ops in stored["seconds"].items():
        if name not in current["seconds"]:
            # A probed backend may be unavailable on this machine.
            drift.notes.append(f"backend {name!r} unavailable here, skipped")
            continue
        for op, baseline_seconds in ops.items():
            baseline_rate = stored_n / baseline_seconds
            rate = n / current["seconds"][name][op]
            if rate < baseline_rate / slowdown:
                drift.problems.append(
                    f"{name}/{op}: {rate:,.0f} rows/s vs baseline "
                    f"{baseline_rate:,.0f} (>{slowdown:g}x slower)"
                )
    stored_rows = stored["meta"].get("end_to_end_rows", end_to_end_rows)
    for name, baseline_seconds in stored.get("end_to_end_seconds", {}).items():
        if name not in current["end_to_end_seconds"]:
            continue
        baseline_rate = stored_rows / baseline_seconds
        rate = end_to_end_rows / current["end_to_end_seconds"][name]
        if rate < baseline_rate / slowdown:
            drift.problems.append(
                f"end-to-end PKD on {name}: {rate:,.0f} rows/s vs baseline "
                f"{baseline_rate:,.0f} (>{slowdown:g}x slower)"
            )
    return drift


def record_parallel(
    path: str, n: int = 4_000_000, repeats: int = 3, force: bool = False
) -> Dict[str, object]:
    """Measure and persist the parallel-scan baseline.

    Refuses to overwrite an existing baseline recorded on a machine
    with *more* CPUs than this one unless ``force`` is set: a laptop
    re-record would silently replace multi-core CI provenance with
    numbers that cannot show scaling, and every later ``compare-parallel``
    would grade against a ceiling of pure overhead.
    """
    if not force and os.path.exists(path):
        try:
            with open(path) as handle:
                stored = json.load(handle)
        except (OSError, ValueError):
            stored = None
        if stored is not None:
            stored_cpus = stored.get(
                "cpu_count", stored.get("meta", {}).get("cpu_count")
            )
            current_cpus = os.cpu_count() or 1
            if stored_cpus is not None and current_cpus < stored_cpus:
                raise BaselineProvenanceError(
                    f"{path} was recorded on {stored_cpus} CPU(s); this "
                    f"machine has {current_cpus}. Overwriting would "
                    f"downgrade the baseline's scaling provenance — "
                    f"re-record on a machine with >= {stored_cpus} CPUs, "
                    f"or pass --force to overwrite anyway."
                )
    doc = parallel_metrics(n, repeats)
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
    return doc


def compare_parallel(
    path: str,
    n: int = 1_000_000,
    repeats: int = 3,
    overhead: float = 1.5,
    slowdown: float = 10.0,
    min_speedup: float = 2.0,
) -> PerfDrift:
    """Re-measure the worker sweep and check the portable claims.

    Always enforced: the serial (``workers=1``) throughput has not
    collapsed vs the baseline by more than ``slowdown``, and no worker
    count in the current run is more than ``overhead`` times slower than
    serial (fan-out overhead stays bounded even when the machine cannot
    actually scale).  The ``min_speedup`` floor for 4 workers is only
    enforced when this machine has >= 4 CPUs — a single-core CI runner
    cannot show scan scaling, only overhead.
    """
    with open(path) as handle:
        stored = json.load(handle)
    current = parallel_metrics(n, repeats)
    drift = PerfDrift()

    # Core-count provenance: absolute parallel numbers only transfer
    # between machines with the same core count.  A mismatch is a
    # warning, never a gate — the portable claims below still hold.
    stored_cpus = stored.get("cpu_count", stored["meta"].get("cpu_count"))
    current_cpus = os.cpu_count()
    if stored_cpus is not None and stored_cpus != current_cpus:
        note = (
            f"baseline recorded on {stored_cpus} CPU(s), this machine has "
            f"{current_cpus}; absolute speedups are not comparable"
        )
        warnings.warn(note, stacklevel=2)
        drift.notes.append(note)

    stored_n = stored["meta"]["n"]
    baseline_serial = stored["scan_seconds"]["1"]
    serial = current["scan_seconds"]["1"]
    if n / serial < (stored_n / baseline_serial) / slowdown:
        drift.problems.append(
            f"serial scan: {n / serial:,.0f} rows/s vs baseline "
            f"{stored_n / baseline_serial:,.0f} (>{slowdown:g}x slower)"
        )
    for count, elapsed in current["scan_seconds"].items():
        if elapsed > serial * overhead:
            drift.problems.append(
                f"{count} workers: {elapsed:.3f}s is more than "
                f"{overhead:g}x the serial {serial:.3f}s — fan-out "
                f"overhead regressed"
            )
    cpus = os.cpu_count() or 1
    speedup4 = current["speedup"].get("4", 0.0)
    if cpus >= 4:
        if speedup4 < min_speedup:
            drift.problems.append(
                f"4-worker scan speedup {speedup4:.2f}x on a {cpus}-CPU "
                f"machine is below the {min_speedup:.2f}x floor"
            )
        else:
            drift.notes.append(f"4-worker scan {speedup4:.2f}x over serial")
    else:
        drift.notes.append(
            f"only {cpus} CPU(s) here; scaling floor skipped, "
            f"4-worker overhead {1 / speedup4 if speedup4 else 0:.2f}x"
        )

    # Process-pool sweep: same portable claims as the thread sweep.
    # Dispatch rides on pickle + spawn-warmed workers, so its overhead
    # allowance is looser than the in-process thread fan-out's.
    proc_seconds = current.get("proc_scan_seconds", {})
    if proc_seconds:
        proc_serial = proc_seconds["1"]
        proc_overhead = max(overhead, 3.0)
        # Process dispatch has a fixed cost (pickle, IPC round-trip)
        # that cannot amortize on a small --n; grade it against a flat
        # grace on top of the multiplicative allowance so the gate
        # measures regressions, not scan size.
        grace = 0.05
        for count, elapsed in proc_seconds.items():
            if elapsed > proc_serial * proc_overhead + grace:
                drift.problems.append(
                    f"{count} procs: {elapsed:.3f}s is more than "
                    f"{proc_overhead:g}x the serial {proc_serial:.3f}s "
                    f"(+{grace:g}s dispatch grace) — process dispatch "
                    f"overhead regressed"
                )
        proc4 = current.get("proc_speedup", {}).get("4", 0.0)
        if cpus >= 4:
            if proc4 < min_speedup:
                drift.problems.append(
                    f"4-proc scan speedup {proc4:.2f}x on a {cpus}-CPU "
                    f"machine is below the {min_speedup:.2f}x floor"
                )
            else:
                drift.notes.append(f"4-proc scan {proc4:.2f}x over serial")
        else:
            drift.notes.append(
                f"proc scaling floor skipped on {cpus} CPU(s), "
                f"4-proc overhead {1 / proc4 if proc4 else 0:.2f}x"
            )
    return drift


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.kernel_regression",
        description="Record or check the kernel-backend perf baseline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="measure and write the baseline")
    rec.add_argument("path")
    rec.add_argument("--n", type=int, default=1_000_000)
    rec.add_argument("--repeats", type=int, default=3)
    rec.add_argument("--end-to-end-rows", type=int, default=100_000)
    cmp_ = sub.add_parser("compare", help="re-measure and diff the baseline")
    cmp_.add_argument("path")
    cmp_.add_argument("--n", type=int, default=200_000)
    cmp_.add_argument("--repeats", type=int, default=3)
    cmp_.add_argument("--end-to-end-rows", type=int, default=50_000)
    cmp_.add_argument("--min-speedup", type=float, default=1.1)
    cmp_.add_argument("--slowdown", type=float, default=10.0)
    rec_par = sub.add_parser(
        "record-parallel", help="measure and write the worker-sweep baseline"
    )
    rec_par.add_argument("path")
    rec_par.add_argument("--n", type=int, default=4_000_000)
    rec_par.add_argument("--repeats", type=int, default=3)
    rec_par.add_argument(
        "--force",
        action="store_true",
        help="overwrite the baseline even when it was recorded on a "
        "machine with more CPUs than this one",
    )
    cmp_par = sub.add_parser(
        "compare-parallel", help="re-measure and diff the worker sweep"
    )
    cmp_par.add_argument("path")
    cmp_par.add_argument("--n", type=int, default=1_000_000)
    cmp_par.add_argument("--repeats", type=int, default=3)
    cmp_par.add_argument("--overhead", type=float, default=1.5)
    cmp_par.add_argument("--slowdown", type=float, default=10.0)
    cmp_par.add_argument("--min-speedup", type=float, default=2.0)
    args = parser.parse_args(argv)
    if args.command == "record":
        doc = record(args.path, args.n, args.repeats, args.end_to_end_rows)
        for key, value in sorted(doc["speedup"].items()):
            print(f"{key}: {value:.2f}x")
        print(f"baseline written to {args.path}")
        return 0
    if args.command == "record-parallel":
        try:
            doc = record_parallel(
                args.path, args.n, args.repeats, force=args.force
            )
        except BaselineProvenanceError as error:
            print(f"record-parallel refused: {error}")
            return 1
        print(f"cpu_count: {doc['cpu_count']} (provenance for every "
              f"number below)")
        for count, value in sorted(doc["speedup"].items(), key=lambda kv: int(kv[0])):
            print(f"{count} workers: {value:.2f}x over serial")
        for count, value in sorted(
            doc.get("proc_speedup", {}).items(), key=lambda kv: int(kv[0])
        ):
            print(f"{count} procs: {value:.2f}x over serial")
        print(f"baseline written to {args.path}")
        return 0
    if args.command == "compare-parallel":
        drift = compare_parallel(
            args.path,
            n=args.n,
            repeats=args.repeats,
            overhead=args.overhead,
            slowdown=args.slowdown,
            min_speedup=args.min_speedup,
        )
        print(drift)
        return 0 if drift.ok else 1
    drift = compare(
        args.path,
        n=args.n,
        repeats=args.repeats,
        end_to_end_rows=args.end_to_end_rows,
        min_speedup=args.min_speedup,
        slowdown=args.slowdown,
    )
    print(drift)
    return 0 if drift.ok else 1


if __name__ == "__main__":
    sys.exit(main())
