"""The process-parallel tier (:mod:`repro.parallel.shm` + procpool).

The contract mirrors the thread tier's (see ``test_parallel.py``) with
one more moving part: table columns live in shared-memory segments,
workers attach zero-copy views, and refinement advances mutate shared
rows directly.  The load-bearing claims are bit-identity of answers and
converged structures against serial for every backend, and leak-free
segment lifecycle (no stray ``/dev/shm`` entries, no zombie workers).

Process-pool runs here keep the pool warm across tests — a spawn per
test would dominate the suite's runtime — and the module teardown joins
all workers and asserts nothing leaked.
"""

from __future__ import annotations

import gc
import os

import numpy as np
import pytest

from repro.core import GreedyProgressiveKDTree, RangeQuery, Table
from repro.core.metrics import QueryStats
from repro.errors import InvalidParameterError
from repro.fuzz import BACKENDS, FuzzCase, build_workload, make_backend
from repro.invariants import InvariantMonitor
from repro.parallel import config as par_config
from repro.parallel import executor, procpool
from repro.parallel import shm
from repro.session import ExplorationSession

COUNTER_FIELDS = (
    "scanned", "copied", "swapped", "lookup_nodes", "nodes_created",
    "pruned", "contained",
)


@pytest.fixture(autouse=True)
def procs_reset():
    """Restore worker counts, thresholds, and the ownership log."""
    procs = procpool.get_process_workers()
    workers = par_config.get_workers()
    morsel, floor = par_config.MORSEL_ROWS, par_config.MIN_PARALLEL_ROWS
    par_config.reset_ownership_log()
    yield
    procpool.set_process_workers(procs)
    par_config.set_workers(workers)
    par_config.MORSEL_ROWS = morsel
    par_config.MIN_PARALLEL_ROWS = floor
    par_config.reset_ownership_log()


@pytest.fixture(scope="module", autouse=True)
def pool_lifecycle():
    """Join every worker at module end; no zombies, no stray segments."""
    yield
    procpool.set_process_workers(1)
    procpool.shutdown_procs()
    gc.collect()  # run block finalizers of dead tables/indexes
    assert shm.live_segments() == []


def lower_thresholds():
    par_config.MORSEL_ROWS = 256
    par_config.MIN_PARALLEL_ROWS = 256


def counters_of(stats: QueryStats) -> tuple:
    return tuple(getattr(stats, field) for field in COUNTER_FIELDS)


# ------------------------------------------------------------- configuration

class TestProcConfig:
    def test_set_process_workers_roundtrip(self):
        assert procpool.set_process_workers(3) == 3
        assert procpool.get_process_workers() == 3
        procpool.set_process_workers(1)
        assert procpool.get_process_workers() == 1

    @pytest.mark.parametrize("bad", [0, -2, "many", None])
    def test_set_process_workers_rejects(self, bad):
        with pytest.raises(InvalidParameterError):
            procpool.set_process_workers(bad)

    def test_env_parsing(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROCS", "4")
        assert procpool._procs_from_env() == 4
        monkeypatch.setenv("REPRO_PROCS", "auto")
        assert procpool._procs_from_env() == max(1, os.cpu_count() or 1)
        monkeypatch.setenv("REPRO_PROCS", "zero")
        with pytest.warns(UserWarning):
            assert procpool._procs_from_env() == 1
        monkeypatch.delenv("REPRO_PROCS")
        assert procpool._procs_from_env() == 1

    def test_parent_is_not_a_worker(self):
        assert not procpool.in_proc_worker()

    def test_fanout_workers_is_max_of_tiers(self):
        par_config.set_workers(2)
        procpool.set_process_workers(3)
        assert par_config.fanout_workers() == 3
        procpool.set_process_workers(1)
        assert par_config.fanout_workers() == 2
        par_config.set_workers(1)
        assert par_config.fanout_workers() == 1

    def test_warm_up_reaches_distinct_processes(self):
        procpool.set_process_workers(2)
        pids = procpool.warm_up()
        assert pids and os.getpid() not in pids

    def test_session_rejects_bad_procs(self):
        with pytest.raises(InvalidParameterError):
            ExplorationSession(procs=0)


# --------------------------------------------------------------------- shm

class TestSharedMemory:
    def test_share_round_trip(self):
        source = [np.arange(100, dtype=np.float64), np.ones(7)]
        block = shm.share_arrays(source)
        try:
            for view, original in zip(block.arrays, source):
                assert np.array_equal(view, original)
                assert view is not original
            handles = shm.handles_of(block.arrays)
            assert handles is not None
            # Attach maps the same physical bytes (same process here).
            attached = shm.attach(handles[0])
            attached[0] = -5.0
            assert block.arrays[0][0] == -5.0
        finally:
            shm.detach_all()
            block.release()
        assert block.shm.name not in shm.live_segments()

    def test_empty_arrays_alignment(self):
        block = shm.empty_arrays([(3, np.float64), (5, np.int64)])
        try:
            for handle in block.handles:
                assert handle.offset % 64 == 0
            block.arrays[1][:] = np.arange(5)
            assert np.array_equal(block.arrays[1], np.arange(5))
        finally:
            block.release()

    def test_release_is_idempotent(self):
        block = shm.share_arrays([np.zeros(4)])
        block.release()
        block.release()
        assert block.shm.name not in shm.live_segments()

    def test_handles_of_rejects_unregistered(self):
        plain = np.zeros(8)
        assert shm.handle_of(plain) is None
        block = shm.share_arrays([np.zeros(8)])
        try:
            assert shm.handles_of([block.arrays[0], plain]) is None
        finally:
            block.release()

    def test_register_view_offset_arithmetic(self):
        base = np.arange(64, dtype=np.float64)
        block = shm.share_arrays([base])
        try:
            shared = block.arrays[0]
            view = shared[16:48]
            handle = shm.register_view(view, shared)
            assert handle is not None
            assert handle.length == 32
            assert handle.offset == shm.handle_of(shared).offset + 16 * 8
            assert np.array_equal(shm.attach(handle), shared[16:48])
        finally:
            shm.detach_all()
            block.release()

    def test_register_view_rejects_copies_and_unshared(self):
        base = np.arange(16, dtype=np.float64)
        assert shm.register_view(base[2:8], base) is None  # base not shared
        block = shm.share_arrays([base])
        try:
            copy = block.arrays[0][2:8].copy()
            assert shm.register_view(copy, block.arrays[0]) is None
        finally:
            block.release()

    def test_adopt_releases_with_owner(self):
        class Owner:
            pass

        owner = Owner()
        block = shm.adopt(owner, shm.share_arrays([np.zeros(16)]))
        name = block.shm.name
        assert name in shm.live_segments()
        del owner
        gc.collect()
        assert name not in shm.live_segments()

    def test_table_share_is_idempotent(self):
        table = Table([np.arange(32, dtype=np.float64)])
        assert table.share()
        first = shm.handles_of(table.columns())
        assert table.share()
        assert shm.handles_of(table.columns()) == first

    def test_no_dev_shm_strays_after_release(self):
        block = shm.share_arrays([np.zeros(1024)])
        name = block.shm.name
        if os.path.isdir("/dev/shm"):
            assert any(name in entry for entry in os.listdir("/dev/shm"))
        block.release()
        if os.path.isdir("/dev/shm"):
            assert not any(name in entry for entry in os.listdir("/dev/shm"))


# ------------------------------------------------------------ proc scan path

class TestProcScanRange:
    def test_proc_scan_is_bit_identical(self):
        rng = np.random.default_rng(5)
        n = 4_000
        block = shm.share_arrays([rng.random(n) for _ in range(2)])
        try:
            columns = block.arrays
            query = RangeQuery([0.2, 0.1], [0.8, 0.9])

            par_config.set_workers(1)
            procpool.set_process_workers(1)
            serial_stats = QueryStats()
            serial = executor.scan_range(columns, 0, n, query, serial_stats)

            lower_thresholds()
            procpool.set_process_workers(2)
            proc_stats = QueryStats()
            positions = executor.scan_range(columns, 0, n, query, proc_stats)

            assert np.array_equal(serial, positions)
            assert counters_of(serial_stats) == counters_of(proc_stats)
        finally:
            block.release()

    def test_unshared_columns_fall_back(self):
        # Plain heap arrays cannot ship to workers: the scan must still
        # answer (serial fall-through), not fail.
        rng = np.random.default_rng(6)
        n = 4_000
        columns = [rng.random(n) for _ in range(2)]
        query = RangeQuery([0.2, 0.1], [0.8, 0.9])
        lower_thresholds()
        par_config.set_workers(1)
        procpool.set_process_workers(2)
        stats = QueryStats()
        positions = executor.scan_range(columns, 0, n, query, stats)
        procpool.set_process_workers(1)
        want = executor.scan_range(columns, 0, n, query, QueryStats())
        assert np.array_equal(positions, want)

    def test_worker_scans_inside_worker_stay_serial(self):
        # The tier read must refuse nested fan-out.
        procpool.set_process_workers(2)
        par_config.enter_worker()
        try:
            assert executor._tiers()[1] == 0
        finally:
            par_config.exit_worker()
        assert executor._tiers()[1] == 2


# --------------------------------------------------------- cross-backend I/O

def run_case_procs(backend, procs, n_queries=12):
    """Answers + counters + converged signature under ``procs`` workers.

    The table is shared and the index built *after* the proc count is
    set, so index tables allocate into shm and the whole query path can
    dispatch to workers.  Same workload discipline as the thread-tier
    ``run_case``: duplicate integer data keeps mean pivots rounding-free,
    and progressive trees are compared only at convergence.
    """
    par_config.set_workers(1)
    procpool.set_process_workers(procs)
    if procs > 1:
        lower_thresholds()
    case = FuzzCase(
        seed=2, kind="duplicate", n_rows=1200, n_dims=2,
        n_queries=n_queries, size_threshold=64, delta=0.25,
    )
    table, queries = build_workload(case)
    table.share()
    index = make_backend(backend, table, case)
    monitor = InvariantMonitor(index)
    answers = []
    trail = []
    for query in queries:
        result = index.query(query)
        answers.append(tuple(np.sort(result.row_ids).tolist()))
        trail.append(counters_of(result.stats))
        problems = monitor.observe()
        assert problems == [], f"{backend} procs={procs}: {problems[:3]}"
    if backend in ("pkd", "gpkd"):
        probe = RangeQuery([-np.inf] * 2, [np.inf] * 2)
        spins = 0
        while not index.converged and spins < 400:
            index.query(probe)
            spins += 1
        assert index.converged, f"{backend} procs={procs} never converged"
    tree = getattr(index, "tree", None)
    signature = tree.preorder_signature() if tree is not None else None
    return answers, trail, signature


class TestBitIdentity:
    """Every backend under 2 process workers: identical answers and
    converged structure vs the serial run (the acceptance claim)."""

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_backend_matches_serial(self, backend):
        serial = run_case_procs(backend, 1)
        parallel = run_case_procs(backend, 2)
        assert serial[0] == parallel[0], "answers diverged"
        if backend not in ("pkd", "gpkd"):
            # Progressive backends schedule several pieces per round
            # when fanning out, shifting per-query charges between
            # queries; their claim is answers + converged structure.
            assert serial[1] == parallel[1], "work counters diverged"
        assert serial[2] == parallel[2], "converged structure diverged"


# ------------------------------------------------------------ proc refinement

class TestProcRefinement:
    def test_gpkd_converges_on_proc_tier(self):
        par_config.set_workers(1)
        lower_thresholds()
        procpool.set_process_workers(2)
        rng = np.random.default_rng(11)
        table = Table(
            [rng.integers(0, 500, 6_000).astype(np.float64) for _ in range(2)]
        )
        table.share()
        index = GreedyProgressiveKDTree(table, delta=0.4, size_threshold=128)
        monitor = InvariantMonitor(index)
        probe = RangeQuery([-np.inf] * 2, [np.inf] * 2)
        spins = 0
        while not index.converged and spins < 400:
            index.query(probe)
            problems = monitor.observe()
            assert problems == [], problems[:3]
            spins += 1
        assert index.converged
        assert par_config.ownership_violations() == []
        assert par_config.owned_pieces() == []

    def test_shared_mutations_visible_in_parent(self):
        # A refinement advance in a worker reorders rows the parent sees.
        block = shm.share_arrays(
            [np.array([5.0, 1.0, 4.0, 2.0, 3.0]),
             np.arange(5, dtype=np.int64).astype(np.float64)]
        )
        try:
            procpool.set_process_workers(2)
            handles = shm.handles_of(block.arrays)
            used, lo, hi, done = procpool.proc_pool().submit(
                procpool.advance_task,
                "numpy", handles, 0, 5, 0, 3.0, 0, 5, 100,
            ).result()
            assert done
            assert used > 0
            key = block.arrays[0]
            split = np.searchsorted(np.sort(key), 3.0, side="right")
            assert (key[:split] <= 3.0).all()
            assert (key[split:] > 3.0).all()
        finally:
            block.release()


# ----------------------------------------------------------------- sessions

class TestSessionProcs:
    def run_session(self, procs, shards=1):
        par_config.set_workers(1)
        lower_thresholds()
        rng = np.random.default_rng(3)
        columns = {
            "x": rng.integers(0, 900, 8_000).astype(np.float64),
            "y": rng.integers(0, 900, 8_000).astype(np.float64),
        }
        session = ExplorationSession(
            technique="greedy", size_threshold=128,
            procs=procs, shards=shards,
        )
        session.register("t", columns)
        answers = []
        query_rng = np.random.default_rng(9)
        for _ in range(12):
            lows = query_rng.random(2) * 600
            result = session.query(
                "t", x=(lows[0], lows[0] + 250), y=(lows[1], lows[1] + 250)
            )
            answers.append(tuple(np.sort(result.row_ids).tolist()))
        return answers

    def test_session_procs_answers_match_serial(self):
        assert self.run_session(procs=1) == self.run_session(procs=2)

    def test_session_procs_and_shards_compose(self):
        plain = self.run_session(procs=1)
        assert plain == self.run_session(procs=2, shards=3)
        assert plain == self.run_session(procs=1, shards=3)
