"""Fan-out dispatch decisions and the fan-out failure rule.

The first half pins *which* tier each executor entry point picks — the
``parallel.fanouts{op=...}`` counter that moves, or none — over a grid
of thread workers, process workers, total rows against
``MIN_PARALLEL_ROWS``, one work unit against many, shm-backed against
heap arrays, and calls made on or off a pool worker.  The expected op is
written down as one decision table (:func:`expected_op`), independently
of the executor's own code.

The second half pins what a failed fan-out leaves behind on either tier:
every task has settled, every I9 piece claim is released, the proc-task
ledger is balanced, and the first failure (in submission order)
propagates.
"""

from __future__ import annotations

import gc
import itertools

import numpy as np
import pytest

from repro.core import RangeQuery
from repro.core.index_base import IndexTable
from repro.core.kdtree import PieceMatch
from repro.core.metrics import QueryStats
from repro.core.node import Piece
from repro.core.partition import IncrementalPartition
from repro.obs import metrics as obs_metrics
from repro.parallel import config as par_config
from repro.parallel import executor, procpool, shm

MORSEL = 256
FLOOR = 1024
ROWS = {"below": 768, "above": 4096}
N_DIMS = 2


@pytest.fixture(autouse=True)
def dispatch_reset():
    """Restore worker counts, thresholds, metrics and the ownership log."""
    procs = procpool.get_process_workers()
    workers = par_config.get_workers()
    morsel, floor = par_config.MORSEL_ROWS, par_config.MIN_PARALLEL_ROWS
    metrics_on = obs_metrics.ENABLED
    par_config.reset_ownership_log()
    yield
    procpool.set_process_workers(procs)
    par_config.set_workers(workers)
    par_config.MORSEL_ROWS = morsel
    par_config.MIN_PARALLEL_ROWS = floor
    if not metrics_on:
        obs_metrics.disable()
    par_config.reset_ownership_log()


@pytest.fixture(scope="module", autouse=True)
def pool_lifecycle():
    """Join every process worker at module end; no stray segments."""
    yield
    procpool.set_process_workers(1)
    procpool.shutdown_procs()
    gc.collect()
    assert shm.live_segments() == []


def fanout_counts() -> dict:
    return {
        key: metric.value
        for key, metric in obs_metrics.REGISTRY.items()
        if key.startswith("parallel.fanouts{")
    }


def moved_ops(before: dict, after: dict) -> list:
    return sorted(
        key[len("parallel.fanouts{op="):-1]
        for key, value in after.items()
        if value != before.get(key, 0)
    )


class Arrays:
    """Heap or shm-backed copies of ``sources`` (released on close)."""

    def __init__(self, sources, backing):
        self.block = None
        if backing == "shm":
            self.block = shm.share_arrays(sources)
            self.arrays = list(self.block.arrays)
        else:
            self.arrays = [source.copy() for source in sources]

    def close(self):
        if self.block is not None:
            self.block.release()


def data_sources(n_rows):
    rng = np.random.default_rng(n_rows)
    columns = [rng.random(n_rows) for _ in range(N_DIMS)]
    return columns + [np.arange(n_rows, dtype=np.int64)]


QUERY = RangeQuery([0.1] * N_DIMS, [0.9] * N_DIMS)
ALL_CHECKED = (True,) * N_DIMS


def pieces_of(n_rows, count):
    bounds = np.linspace(0, n_rows, count + 1).astype(int).tolist()
    return [Piece(start, end) for start, end in zip(bounds, bounds[1:])]


def run_scan_range(arrays, n_rows, units):
    par_config.MORSEL_ROWS = MORSEL if units == "many" else 1 << 20
    executor.scan_range(arrays[:N_DIMS], 0, n_rows, QUERY, QueryStats())


def run_scan_pieces(arrays, n_rows, units):
    table = IndexTable(arrays[:N_DIMS], arrays[N_DIMS])
    pieces = pieces_of(n_rows, 8 if units == "many" else 1)
    matches = [PieceMatch(piece, ALL_CHECKED, ALL_CHECKED) for piece in pieces]
    executor.scan_pieces(table, matches, QUERY, QueryStats())


def run_scan_match_sets(arrays, n_rows, units):
    table = IndexTable(arrays[:N_DIMS], arrays[N_DIMS])
    if units == "many":
        pieces = pieces_of(n_rows, 8)
        groups = [pieces[:4], pieces[4:]]
    else:
        groups = [pieces_of(n_rows, 1)]
    jobs = [
        (
            [PieceMatch(piece, ALL_CHECKED, ALL_CHECKED) for piece in group],
            QUERY,
            QueryStats(),
        )
        for group in groups
    ]
    executor.scan_match_sets(table, jobs)


def run_advance_jobs(arrays, n_rows, units):
    pairs = []
    for piece in pieces_of(n_rows, 4 if units == "many" else 1):
        piece.job = IncrementalPartition(
            arrays, piece.start, piece.end, 0, 0.5
        )
        pairs.append((piece, piece.size))
    executor.advance_jobs(pairs)


ENTRY_POINTS = {
    "scan_range": (run_scan_range, "scan"),
    "scan_pieces": (run_scan_pieces, "piece_scan"),
    "scan_match_sets": (run_scan_match_sets, "batch_scan"),
    "advance_jobs": (run_advance_jobs, "refine"),
}


def expected_op(entry, workers, procs, rows, units, backing, inside):
    """The dispatch decision table.

    Every entry point stays serial on a pool worker and with a single
    work unit.  The scans also need ``MIN_PARALLEL_ROWS`` rows in total
    before either tier is tried; refinement asks that only of the
    process tier.  The process tier wins when it is armed and every
    array is shm-backed; otherwise threads run when there are workers.
    """
    op = ENTRY_POINTS[entry][1]
    if inside or units == "one":
        return []
    if rows == "below" and entry != "advance_jobs":
        return []
    if procs > 1 and backing == "shm" and rows == "above":
        return ["proc_" + op]
    if workers > 1:
        return [op]
    return []


GRID = list(
    itertools.product(
        sorted(ENTRY_POINTS), (1, 2), (1, 2), ("below", "above"),
        ("one", "many"), ("heap", "shm"), (False, True),
    )
)


def grid_id(case):
    entry, workers, procs, rows, units, backing, inside = case
    where = "inside" if inside else "outside"
    return f"{entry}-w{workers}-p{procs}-{rows}-{units}-{backing}-{where}"


@pytest.mark.parametrize("case", GRID, ids=[grid_id(case) for case in GRID])
def test_dispatch_decision(case):
    entry, workers, procs, rows, units, backing, inside = case
    par_config.set_workers(workers)
    procpool.set_process_workers(procs)
    par_config.MORSEL_ROWS = MORSEL
    par_config.MIN_PARALLEL_ROWS = FLOOR
    obs_metrics.enable()
    n_rows = ROWS[rows]
    data = Arrays(data_sources(n_rows), backing)
    try:
        before = fanout_counts()
        if inside:
            par_config.enter_worker()
        try:
            ENTRY_POINTS[entry][0](data.arrays, n_rows, units)
        finally:
            if inside:
                par_config.exit_worker()
        after = fanout_counts()
    finally:
        data.close()
    want = expected_op(entry, workers, procs, rows, units, backing, inside)
    assert moved_ops(before, after) == want


# ------------------------------------------------------- the failure rule

def failing_pairs(arrays, n_rows):
    """Four disjoint partition jobs, each granted enough rows to finish;
    job 0 names a column that does not exist, so its advance raises
    ``IndexError`` on whichever tier."""
    pairs = []
    for position, piece in enumerate(pieces_of(n_rows, 4)):
        key_index = 99 if position == 0 else 0
        piece.job = IncrementalPartition(
            arrays, piece.start, piece.end, key_index, 0.5
        )
        pairs.append((piece, 10 * piece.size))
    return pairs


@pytest.mark.parametrize("tier", ["threads", "procs"])
def test_failed_fanout_settles_before_raising(tier):
    par_config.MORSEL_ROWS = MORSEL
    par_config.MIN_PARALLEL_ROWS = FLOOR
    if tier == "threads":
        par_config.set_workers(2)
        procpool.set_process_workers(1)
        backing = "heap"
    else:
        par_config.set_workers(1)
        procpool.set_process_workers(2)
        backing = "shm"
    n_rows = ROWS["above"]
    data = Arrays(data_sources(n_rows), backing)
    try:
        obs_metrics.enable()
        before = fanout_counts()
        violations = par_config.ownership_violations()
        pairs = failing_pairs(data.arrays, n_rows)
        with pytest.raises(IndexError):
            executor.advance_jobs(pairs)
        assert moved_ops(before, fanout_counts()) == [
            "refine" if tier == "threads" else "proc_refine"
        ]
        assert par_config.owned_pieces() == []
        assert par_config.ownership_violations() == violations
        assert procpool.health_snapshot()["pending"] == 0
        if tier == "threads":
            # Every other worker ran to the end before the error surfaced.
            assert all(piece.job.done for piece, _grant in pairs[1:])

        # The same pieces can be claimed again without an I9 breach, and
        # the surviving jobs finish correctly from whatever pointers the
        # parent holds (a process worker's result was never applied, so
        # its job resumes from a wider unclassified window).
        first = pairs[0][0]
        first.job = IncrementalPartition(
            data.arrays, first.start, first.end, 0, 0.5
        )
        executor.advance_jobs(pairs)
        keys = data.arrays[0]
        for piece, _grant in pairs:
            assert piece.job.done
            assert piece.job.invariant_errors() == []
            split = piece.job.split
            assert (keys[piece.start:split] <= 0.5).all()
            assert (keys[split:piece.end] > 0.5).all()
        assert par_config.ownership_violations() == violations
        assert par_config.owned_pieces() == []
    finally:
        data.close()
