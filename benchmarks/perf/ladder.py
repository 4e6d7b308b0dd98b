"""Tier ladder probe: each ``parallel.executor`` entry point timed in
isolation at serial / threads / procs on a converged index's own data.

Runs only in traced mode, after ``cold_gpkd_par`` has finished every
timed window, so nothing here touches an end-to-end number.  It is the
evidence ROADMAP item 3 asks for before a tier is kept or deleted: a
speed-up is reported beside its serial base in milliseconds, never
alone.  Pools and shared-memory segments are torn down before it
returns and ``/dev/shm`` is checked for leftovers.
"""

from __future__ import annotations

import os
import statistics
import time
from types import SimpleNamespace
from typing import Callable, Dict, List

import numpy as np

REPEATS = 5
JOBS = 8  # disjoint partition jobs per advance_jobs round


def _median_ms(prepare: Callable[[], object], call: Callable[[object], object]) -> float:
    samples = []
    for _ in range(REPEATS):
        state = prepare()
        begin = time.perf_counter()
        call(state)
        samples.append(time.perf_counter() - begin)
    return statistics.median(samples) * 1e3


def run(index, query, workers: int) -> Dict[str, float]:
    """``index`` is the converged index of the workload's last repetition,
    ``query`` a wide range query over its table."""
    from repro.core.index_base import IndexTable
    from repro.core.metrics import QueryStats
    from repro.core.partition import IncrementalPartition
    from repro.core.table import Table
    from repro.parallel import config, executor, procpool, shm

    base_columns = index.table.columns()
    n_rows = index.table.n_rows
    matches = index.tree.search(query, QueryStats())
    sources = list(base_columns[:2]) + [np.arange(n_rows, dtype=np.int64)]
    span = n_rows // JOBS

    def bench(columns, index_table, arrays) -> Dict[str, float]:
        def fresh_jobs():
            for array, source in zip(arrays, sources):
                array[:] = source
            return [
                (
                    SimpleNamespace(
                        start=job * span, end=(job + 1) * span,
                        job=IncrementalPartition(
                            arrays, job * span, (job + 1) * span, 0, 50.0),
                    ),
                    span,
                )
                for job in range(JOBS)
            ]

        return {
            "scan_range": _median_ms(
                lambda: None,
                lambda _: executor.scan_range(
                    columns, 0, n_rows, query, QueryStats()),
            ),
            "scan_pieces": _median_ms(
                lambda: None,
                lambda _: executor.scan_pieces(
                    index_table, matches, query, QueryStats()),
            ),
            "advance_jobs": _median_ms(fresh_jobs, executor.advance_jobs),
        }

    out: Dict[str, float] = {}
    heap_arrays = [source.copy() for source in sources]
    config.set_workers(1)
    serial = bench(base_columns, index.index_table, heap_arrays)
    config.set_workers(workers)
    threads = bench(base_columns, index.index_table, heap_arrays)
    config.set_workers(1)
    config.shutdown_pool()

    procs: Dict[str, float] = {}
    blocks: List[object] = []
    try:
        shared_table = Table(list(base_columns), names=index.table.names)
        begin = time.perf_counter()
        shared_table.share()
        out["parallel.shm.share_ms"] = (time.perf_counter() - begin) * 1e3
        block = shm.share_arrays(index.index_table.all_arrays)
        blocks.append(block)
        shared_index_table = IndexTable(list(block.arrays[:-1]), block.arrays[-1])
        block = shm.share_arrays(sources)
        blocks.append(block)
        procpool.set_process_workers(workers)
        begin = time.perf_counter()
        procpool.warm_up()
        out["parallel.procpool.warmup_ms"] = (time.perf_counter() - begin) * 1e3
        procs = bench(shared_table.columns(), shared_index_table, block.arrays)
    except OSError:
        procs = {}  # no usable /dev/shm: the proc rungs stay at 0
    finally:
        procpool.set_process_workers(1)
        procpool.shutdown_procs()
        shared_index_table = shared_table = block = None
        for owned in blocks:
            owned.release()
        shm.release_all()
        # shared_memory started multiprocessing's resource tracker; it
        # would only exit after this process does.
        from multiprocessing import resource_tracker

        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()
    leftovers = [
        name for name in (os.listdir("/dev/shm") if os.path.isdir("/dev/shm") else [])
        if name.startswith(f"{shm.SEGMENT_PREFIX}-{os.getpid()}")
    ]
    out["parallel.shm.leaked_segments"] = float(
        len(leftovers) + len(shm.live_segments())
    )
    for fn, base in serial.items():
        out[f"parallel.executor.{fn}.serial_ms"] = base
        out[f"parallel.executor.{fn}.threads_speedup"] = base / threads[fn]
        out[f"parallel.executor.{fn}.procs_speedup"] = (
            base / procs[fn] if fn in procs else 0.0
        )
    return out
