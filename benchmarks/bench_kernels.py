"""Kernel micro-benchmarks: the physical operations every index is built
from, measured in elements/second on this machine.

These are the numbers the calibrated cost model feeds on; printing them
next to the calibrated profile makes the model's inputs inspectable.

The backend-comparison benchmark additionally races every registered
kernel backend (reference vs fused NumPy) over
the same piece-scan and partition inputs and asserts the fused scan's
speedup floor — the claim BENCH_kernels.json records for CI.
"""

import json
import os

import numpy as np
from _bench_utils import emit

from repro import MachineProfile, RangeQuery
from repro.bench.kernel_regression import GATE, OPS, kernel_metrics
from repro.bench.report import format_table
from repro.core.metrics import QueryStats
from repro.core.partition import IncrementalPartition, stable_partition
from repro.core.scan import full_scan

N = 2_000_000
BACKEND_N = 1_000_000


def measure_kernels():
    import time

    rng = np.random.default_rng(0)
    rows = []

    def best_of(fn, repeats=3):
        times = []
        for _ in range(repeats):
            begin = time.perf_counter()
            fn()
            times.append(time.perf_counter() - begin)
        return min(times)

    keys = rng.random(N)
    payload = rng.random(N)
    rowids = np.arange(N, dtype=np.int64)

    def run_stable():
        stable_partition(
            [keys.copy(), payload.copy(), rowids.copy()], 0, N, 0, 0.5
        )

    seconds = best_of(run_stable)
    rows.append(["stable_partition (3 arrays)", seconds, N / seconds])

    def run_incremental():
        job = IncrementalPartition(
            [keys.copy(), payload.copy(), rowids.copy()], 0, N, 0, 0.5
        )
        job.run_to_completion()

    seconds = best_of(run_incremental)
    rows.append(["incremental partition (3 arrays)", seconds, N / seconds])

    def run_incremental_chunked():
        job = IncrementalPartition(
            [keys.copy(), payload.copy(), rowids.copy()], 0, N, 0, 0.5
        )
        while not job.done:
            job.advance(N // 100)

    seconds = best_of(run_incremental_chunked)
    rows.append(["incremental partition (100 pauses)", seconds, N / seconds])

    columns = [rng.random(N) for _ in range(3)]
    query = RangeQuery([0.2] * 3, [0.4] * 3)

    def run_scan():
        full_scan(columns, query, QueryStats())

    seconds = best_of(run_scan)
    rows.append(["candidate-list scan (3 dims)", seconds, N / seconds])
    return rows


def test_kernel_throughput(benchmark, results_dir):
    rows = benchmark.pedantic(measure_kernels, rounds=1, iterations=1)
    profile = MachineProfile.calibrate(n_elements=500_000, repeats=2)
    profile_rows = [
        ["seq_read (s/elem)", profile.seq_read],
        ["seq_write (s/elem)", profile.seq_write],
        ["random_access (s/hop)", profile.random_access],
        ["random_write (s/elem)", profile.random_write],
    ]
    text = (
        format_table(
            f"Kernel throughput over N={N:,} rows",
            ["kernel", "seconds", "rows/s"],
            rows,
        )
        + "\n\n"
        + format_table(
            "Calibrated machine profile", ["parameter", "value"], profile_rows,
            precision=12,
        )
    )
    emit(results_dir, "kernels.txt", text)
    by_name = {row[0]: row for row in rows}
    # Pausing 100 times must not cost more than ~2.5x the one-shot run.
    one_shot = by_name["incremental partition (3 arrays)"][1]
    chunked = by_name["incremental partition (100 pauses)"][1]
    assert chunked < one_shot * 2.5


def test_backend_comparison(benchmark, results_dir):
    """Race every available kernel backend over the same inputs.

    The fused NumPy backend must beat the reference scan by >=1.5x on
    the moderate-selectivity piece scan at N=1e6 — the shape of an
    early-adaptation scan over a large piece, the case the kernel layer
    exists for.  The measured document is also dumped as JSON so a
    known-good run can be promoted to ``BENCH_kernels.json``.
    """
    metrics = benchmark.pedantic(
        lambda: kernel_metrics(n=BACKEND_N, repeats=3),
        rounds=1,
        iterations=1,
    )
    rows = [
        [f"{name}/{op}", seconds, BACKEND_N / seconds]
        for name, ops in sorted(metrics["seconds"].items())
        for op, seconds in sorted(ops.items())
    ]
    speedups = [
        [key, f"{value:.2f}x"]
        for key, value in sorted(metrics["speedup"].items())
    ]
    text = (
        format_table(
            f"Kernel backends over N={BACKEND_N:,} rows",
            ["backend/op", "seconds", "rows/s"],
            rows,
        )
        + "\n\n"
        + format_table(
            "Speedup vs reference backend", ["backend/op", "speedup"],
            speedups,
        )
    )
    emit(results_dir, "kernel_backends.txt", text)
    with open(os.path.join(results_dir, "kernel_backends.json"), "w") as out:
        json.dump(metrics, out, indent=2, sort_keys=True)
    assert set(OPS) <= set(metrics["seconds"]["numpy"])
    assert metrics["speedup"][GATE] >= 1.5
