"""The morsel-driven parallel execution layer (:mod:`repro.parallel`).

The load-bearing property is *bit-identity*: for every backend and any
worker count, parallel execution must return exactly the serial answers
with exactly the serial work counters, and (on integer data, where mean
pivots are rounding-free) leave behind exactly the serial tree.  On top
of that: configuration plumbing, the I9 ownership protocol, thread-safe
kernel pinning, the tracer under concurrency, and think-time refinement
by a session's scheduler under the writer-lock handoff.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro.obs as obs
from repro import kernels
from repro.bench.harness import run_workload
from repro.core import RangeQuery, Table
from repro.core.metrics import QueryStats
from repro.errors import InvalidParameterError
from repro.fuzz import BACKENDS, FuzzCase, build_workload, make_backend
from repro.invariants import InvariantMonitor, structural_errors
from repro.obs import trace as obs_trace
from repro.obs.sink import ListSink
from repro.parallel import config as par_config
from repro.parallel import executor
from repro.parallel.scheduler import RefinementScheduler
from repro.session import ExplorationSession

from .conftest import make_queries, make_uniform_table

COUNTER_FIELDS = (
    "scanned", "copied", "swapped", "lookup_nodes", "nodes_created",
    "pruned", "contained",
)


@pytest.fixture(autouse=True)
def parallel_reset():
    """Each test gets — and leaves behind — the ambient worker count
    (so a whole-suite run under REPRO_PARALLEL=N stays at N), stock
    thresholds, and a clean ownership registry."""
    workers = par_config.get_workers()
    morsel, floor = par_config.MORSEL_ROWS, par_config.MIN_PARALLEL_ROWS
    par_config.reset_ownership_log()
    yield
    par_config.set_workers(workers)
    par_config.MORSEL_ROWS = morsel
    par_config.MIN_PARALLEL_ROWS = floor
    par_config.reset_ownership_log()
    obs.disable()


def lower_thresholds():
    """Make tiny test tables take the fan-out paths."""
    par_config.MORSEL_ROWS = 128
    par_config.MIN_PARALLEL_ROWS = 128


def counters_of(stats: QueryStats) -> tuple:
    return tuple(getattr(stats, field) for field in COUNTER_FIELDS)


# ------------------------------------------------------------- configuration

class TestConfig:
    def test_worker_count_follows_env(self):
        # Import-time selection honoured REPRO_PARALLEL (1 when unset);
        # asserted against the env so the suite itself can run under
        # REPRO_PARALLEL=N in CI.
        assert par_config.get_workers() == par_config._workers_from_env()

    def test_set_workers_roundtrip(self):
        assert par_config.set_workers(4) == 4
        assert par_config.get_workers() == 4

    @pytest.mark.parametrize("bad", [0, -1, "four", None])
    def test_set_workers_rejects(self, bad):
        with pytest.raises(InvalidParameterError):
            par_config.set_workers(bad)

    def test_env_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_PARALLEL", raising=False)
        assert par_config._workers_from_env() == 1
        monkeypatch.setenv("REPRO_PARALLEL", "6")
        assert par_config._workers_from_env() == 6
        monkeypatch.setenv("REPRO_PARALLEL", "auto")
        assert par_config._workers_from_env() >= 1
        monkeypatch.setenv("REPRO_PARALLEL", "zero")
        with pytest.warns(UserWarning):
            assert par_config._workers_from_env() == 1
        monkeypatch.setenv("REPRO_PARALLEL", "-3")
        with pytest.warns(UserWarning):
            assert par_config._workers_from_env() == 1

    def test_pool_resizes_with_workers(self):
        par_config.set_workers(2)
        first = par_config.pool()
        assert par_config.pool() is first  # cached at the same size
        par_config.set_workers(3)
        second = par_config.pool()
        assert second is not first
        par_config.set_workers(1)
        par_config.shutdown_pool()

    def test_session_and_harness_plumbing(self):
        session = ExplorationSession(parallel=2)
        assert session.parallel == 2
        assert par_config.get_workers() == 2
        table = make_uniform_table(400, 2)
        from repro.workloads.base import Workload

        workload = Workload("w", table, make_queries(table, 3))
        run = run_workload("FS", workload, parallel=3)
        assert par_config.get_workers() == 3
        assert run.n_queries == 3


# -------------------------------------------------------- ownership registry

class TestOwnership:
    def test_claim_release_clean(self):
        piece = type("P", (), {"start": 0, "end": 10})()
        par_config.claim_piece(piece, "w0")
        assert par_config.owned_pieces() == [("w0", piece)]
        par_config.release_piece(piece, "w0")
        assert par_config.owned_pieces() == []
        assert par_config.ownership_violations() == []

    def test_double_claim_is_sticky(self):
        piece = type("P", (), {"start": 0, "end": 10})()
        par_config.claim_piece(piece, "w0")
        par_config.claim_piece(piece, "w1")
        par_config.release_piece(piece, "w0")
        violations = par_config.ownership_violations()
        assert len(violations) == 1 and "w1" in violations[0]
        # Sticky: still visible after the piece was released.
        assert par_config.owned_pieces() == []
        assert par_config.ownership_violations() == violations

    def test_release_mismatches_recorded(self):
        piece = type("P", (), {"start": 3, "end": 7})()
        par_config.release_piece(piece, "w0")  # never claimed
        par_config.claim_piece(piece, "w0")
        par_config.release_piece(piece, "w1")  # wrong owner
        assert len(par_config.ownership_violations()) == 2

    def test_i9_surfaces_in_structural_errors(self):
        table = make_uniform_table(300, 2)
        index = make_backend("pkd", table, FuzzCase(0, "uniform", 300, 2, 1))
        for query in make_queries(table, 3):
            index.query(query)
        assert structural_errors(index) == []
        piece = type("P", (), {"start": 0, "end": 10})()
        par_config.claim_piece(piece, "a")
        par_config.claim_piece(piece, "b")
        problems = structural_errors(index)
        assert any("claimed by 'b'" in p for p in problems)
        par_config.reset_ownership_log()
        assert structural_errors(index) == []


# ------------------------------------------------------ kernel thread-safety

class TestKernelPinning:
    def test_pin_snapshot_and_restore(self):
        base = kernels.current_backend()
        other = kernels.get_backend("reference")
        with kernels.pinned(other):
            assert kernels.current_backend() is other
            with kernels.pinned():  # nested: snapshots the current pin
                assert kernels.current_backend() is other
        assert kernels.current_backend() is base

    def test_pin_shields_query_from_global_switch(self):
        active = kernels.active_name()
        with kernels.pinned(kernels.get_backend(active)):
            kernels.use("reference")
            assert kernels.current_backend().name == active
        kernels.use(active)

    def test_thread_instance_is_private_per_thread(self):
        main_instance = kernels.thread_instance("numpy")
        assert kernels.thread_instance("numpy") is main_instance  # cached
        seen = []

        def worker():
            seen.append(kernels.thread_instance("numpy"))

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen[0] is not main_instance
        assert type(seen[0]) is type(main_instance)

    def test_thread_instance_unknown_name(self):
        with pytest.raises(InvalidParameterError):
            kernels.thread_instance("nope")


# ------------------------------------------------------- tracer concurrency

class TestTracerThreads:
    def test_two_threads_trace_without_corruption(self):
        sink = ListSink()
        obs_trace.install(obs_trace.Tracer(sink))
        try:
            barrier = threading.Barrier(2)

            def worker(label):
                barrier.wait()
                for i in range(20):
                    with obs_trace.TRACER.span("outer", who=label, i=i):
                        with obs_trace.TRACER.span("inner", who=label, i=i):
                            pass

            threads = [
                threading.Thread(target=worker, args=(str(t),))
                for t in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            obs_trace.uninstall()
        spans = [r for r in sink.records if r["type"] == "span"]
        assert len(spans) == 80
        ids = [s["id"] for s in spans]
        assert len(set(ids)) == 80  # no duplicate span ids under the lock
        by_id = {s["id"]: s for s in spans}
        for span in spans:
            if span["name"] == "inner":
                parent = by_id[span["parent"]]
                # Thread-local stacks: an inner span's parent is its own
                # thread's outer span, never the other thread's.
                assert parent["name"] == "outer"
                assert parent["attrs"]["who"] == span["attrs"]["who"]
                assert parent["attrs"]["i"] == span["attrs"]["i"]
            else:
                assert span["parent"] is None

    def test_explicit_parent_crosses_threads(self):
        sink = ListSink()
        obs_trace.install(obs_trace.Tracer(sink))
        try:
            with obs_trace.TRACER.span("fanout") as dispatch:
                parent_id = dispatch.span_id

                def worker():
                    with obs_trace.TRACER.span("morsel", parent=parent_id):
                        pass

                thread = threading.Thread(target=worker)
                thread.start()
                thread.join()
        finally:
            obs_trace.uninstall()
        spans = {r["name"]: r for r in sink.records if r["type"] == "span"}
        assert spans["morsel"]["parent"] == spans["fanout"]["id"]


# ------------------------------------------------------------- executor units

class TestScanRange:
    def test_morsel_split_is_bit_identical(self):
        table = make_uniform_table(5000, 3, seed=3)
        query = make_queries(table, 1, width_fraction=0.4)[0]
        serial_stats = QueryStats()
        serial = kernels.range_scan(
            table.columns(), 0, table.n_rows, query, serial_stats, None, None
        )
        par_config.set_workers(4)
        lower_thresholds()
        parallel_stats = QueryStats()
        parallel = executor.scan_range(
            table.columns(), 0, table.n_rows, query, parallel_stats, None, None
        )
        assert np.array_equal(serial, parallel)
        assert counters_of(serial_stats) == counters_of(parallel_stats)

    def test_small_window_falls_through(self):
        par_config.set_workers(4)  # stock thresholds: 600 rows stay serial
        table = make_uniform_table(600, 2)
        query = make_queries(table, 1)[0]
        stats = QueryStats()
        positions = executor.scan_range(
            table.columns(), 0, table.n_rows, query, stats, None, None
        )
        want = kernels.range_scan(
            table.columns(), 0, table.n_rows, query, QueryStats(), None, None
        )
        assert np.array_equal(positions, want)

    def test_morsel_spans_parented_under_fanout(self):
        table = make_uniform_table(4000, 2, seed=5)
        query = make_queries(table, 1, width_fraction=0.5)[0]
        par_config.set_workers(2)
        lower_thresholds()
        sink = ListSink()
        obs_trace.install(obs_trace.Tracer(sink))
        try:
            with obs_trace.TRACER.span("driver") as driver:
                executor.scan_range(
                    table.columns(), 0, table.n_rows, query, QueryStats(),
                    None, None,
                )
                driver_id = driver.span_id
        finally:
            obs_trace.uninstall()
        morsels = [
            r for r in sink.records
            if r["type"] == "span" and r["name"] == "morsel"
        ]
        assert morsels and all(m["parent"] == driver_id for m in morsels)
        assert all(m["attrs"]["op"] == "scan" for m in morsels)


class TestScanPieces:
    def test_piece_chunking_is_bit_identical(self):
        table = make_uniform_table(4000, 2, seed=7)
        case = FuzzCase(0, "uniform", 4000, 2, 0, size_threshold=64)
        index = make_backend("avgkd", table, case)
        index.query(make_queries(table, 1)[0])  # build the tree
        query = make_queries(table, 1, width_fraction=0.6, seed=9)[0]
        matches = index.tree.search(query, QueryStats())
        serial_stats = QueryStats()
        serial = [
            index._index.scan_piece(m, query, serial_stats) for m in matches
        ]
        par_config.set_workers(4)
        lower_thresholds()
        parallel_stats = QueryStats()
        parallel = index._index.scan_pieces(matches, query, parallel_stats)
        assert len(serial) == len(parallel)
        for want, got in zip(serial, parallel):
            assert np.array_equal(want, got)
        assert counters_of(serial_stats) == counters_of(parallel_stats)


class TestAdvanceJobs:
    def test_empty_and_serial_paths(self):
        assert executor.advance_jobs([]) == []

    def test_claims_are_released_after_fanout(self):
        table = make_uniform_table(2000, 2, seed=11)
        case = FuzzCase(0, "uniform", 2000, 2, 0, size_threshold=64, delta=0.1)
        index = make_backend("pkd", table, case)
        queries = make_queries(table, 40, seed=13)
        par_config.set_workers(3)
        lower_thresholds()
        for query in queries:
            index.query(query)
            if index.converged:
                break
        assert par_config.owned_pieces() == []
        assert par_config.ownership_violations() == []


# --------------------------------------------------------- cross-backend I/O

def run_case(backend, kind, workers, n_queries=25):
    """Answers + final structure signature for one backend/worker config."""
    par_config.set_workers(workers)
    if workers > 1:
        lower_thresholds()
    case = FuzzCase(
        seed=2, kind=kind, n_rows=1200, n_dims=2, n_queries=n_queries,
        size_threshold=64, delta=0.25,
    )
    table, queries = build_workload(case)
    index = make_backend(backend, table, case)
    monitor = InvariantMonitor(index)
    answers = []
    stats_trail = []
    for query in queries:
        result = index.query(query)
        answers.append(tuple(np.sort(result.row_ids).tolist()))
        stats_trail.append(counters_of(result.stats))
        problems = monitor.observe()
        assert problems == [], f"{backend}/{kind} x{workers}: {problems[:3]}"
    if backend in ("pkd", "gpkd"):
        # Scheduling order makes mid-flight progressive trees differ by
        # design; the structural identity claim is at convergence.  Spin
        # unbounded probes until the index gets there.  (The other
        # backends never fan refinement out, so their structure is
        # already schedule-independent.)
        n_dims = table.n_columns
        probe = RangeQuery([-np.inf] * n_dims, [np.inf] * n_dims)
        spins = 0
        while not index.converged and spins < 400:
            index.query(probe)
            spins += 1
        assert index.converged, f"{backend}/{kind} x{workers} never converged"
    tree = getattr(index, "tree", None)
    signature = tree.preorder_signature() if tree is not None else None
    return answers, stats_trail, signature


class TestBitIdentity:
    """Every backend, workers in {2, 4, 8}: identical answers, counters,
    and final tree structure vs the serial run.

    ``duplicate`` integer data keeps mean pivots rounding-free, so tree
    signatures must match exactly (the I6 caveat does not apply)."""

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("workers", [2, 4])
    def test_backend_matches_serial(self, backend, workers):
        serial = run_case(backend, "duplicate", 1)
        parallel = run_case(backend, "duplicate", workers)
        assert serial[0] == parallel[0], "answers diverged"
        if backend not in ("pkd", "gpkd"):
            # Progressive refinement schedules several pieces per round
            # when parallel, so per-query scheduling charges land on
            # different queries; the bit-identity claim there is answers
            # plus final structure, not the per-query ledger.
            assert serial[1] == parallel[1], "work counters diverged"
        assert serial[2] == parallel[2], "final tree structure diverged"

    @pytest.mark.parametrize("backend", ["fs", "akd", "pkd", "gpkd"])
    def test_eight_workers_uniform(self, backend):
        serial = run_case(backend, "uniform", 1, n_queries=15)
        parallel = run_case(backend, "uniform", 8, n_queries=15)
        assert serial[0] == parallel[0]
        if backend not in ("pkd", "gpkd"):
            assert serial[1] == parallel[1]

    def test_creation_phase_scans_match(self):
        # Mid-creation PKD exercises the three-region scan_range path.
        serial = run_case("pkd", "uniform", 1, n_queries=3)
        parallel = run_case("pkd", "uniform", 4, n_queries=3)
        assert serial[0] == parallel[0]
        assert serial[1] == parallel[1]


# ------------------------------------------------------ think-time refinement

class TestThinkTimeRefinement:
    def test_think_time_converges_index_between_queries(self):
        rng = np.random.default_rng(17)
        columns = {
            "x": rng.integers(0, 500, 4000),
            "y": rng.integers(0, 500, 4000),
        }
        session = ExplorationSession(
            technique="progressive",
            size_threshold=128,
            delta=0.05,
            background_refine=True,
        )
        session.register("t", columns)
        session.query("t", x=(10, 400), y=(10, 400))
        index = next(iter(session._tables["t"].indexes.values()))
        scheduler = session._scheduler
        assert isinstance(scheduler, RefinementScheduler) and scheduler.alive
        # The scheduler only advances the refinement phase; foreground
        # queries must finish creation first (~1/delta of them).  After
        # that, think time alone must converge the index.
        from repro.core.progressive_kdtree import REFINEMENT

        for _ in range(100):
            if index.phase == REFINEMENT or index.converged:
                break
            session.query("t", x=(10, 400), y=(10, 400))
        deadline = 200
        while not index.converged and deadline > 0:
            scheduler.poke()
            threading.Event().wait(0.02)
            deadline -= 1
        assert index.converged, "background refinement never converged"
        assert scheduler.slices_run > 0
        # Slice work lands in the scheduler entry's own ledger.
        (entry,) = scheduler._entries
        assert entry.stats.swapped > 0
        # Post-convergence queries still answer correctly and invariants
        # (including I9 quiescence) hold.
        result = session.query("t", x=(0, 100), y=(0, 100))
        want = np.flatnonzero(
            (columns["x"] > 0) & (columns["x"] <= 100)
            & (columns["y"] > 0) & (columns["y"] <= 100)
        )
        assert np.array_equal(np.sort(result.row_ids), want)
        findings = session.check("t")
        assert all(not problems for problems in findings.values())
        session.close()
        assert not scheduler.alive

    def test_close_is_idempotent_and_context_manager(self):
        with ExplorationSession(background_refine=True) as session:
            session.register("t", {"x": np.arange(100.0)})
            session.query("t", x=(10, 20))
        session.close()  # second close is a no-op

    def test_non_progressive_backends_get_no_refiner(self):
        for technique, shards in (("scan", 1), ("adaptive", 2)):
            session = ExplorationSession(
                technique=technique, shards=shards, background_refine=True
            )
            session.register("t", {"x": np.arange(50.0)})
            session.query("t", x=(1, 5))
            assert session._scheduler is None
            assert session._tables["t"].locks == {}
            session.close()

    def test_sharded_progressive_indexes_are_refined(self):
        """Registration asks "has a refinement phase", so a sharded
        progressive index joins the scheduler like an unsharded one."""
        rng = np.random.default_rng(3)
        columns = {"x": rng.integers(0, 300, 3000)}
        with ExplorationSession(
            technique="greedy", size_threshold=64, delta=0.5, shards=2,
            background_refine=True,
        ) as session:
            session.register("t", columns)
            while True:
                session.query("t", x=(10, 200))
                index = session._tables["t"].indexes[("x",)]
                if index.phase != "creation":
                    break
            deadline = 500
            while not index.converged and deadline > 0:
                session._scheduler.poke()
                threading.Event().wait(0.01)
                deadline -= 1
            assert index.converged
            assert session._scheduler.allocations()["session"]["rows"] > 0
            assert all(not p for p in session.check().values())

    def test_queries_racing_slices_stay_exact(self):
        """Queries, batches and checks interleave with scheduler slices
        on the same indexes; a tiny switch interval forces the threads
        to trade the interpreter often.  Every answer must equal the
        full scan and every sweep must come back clean."""
        import sys
        import time

        rng = np.random.default_rng(21)
        columns = {"x": rng.random(6000) * 100, "y": rng.random(6000) * 100}
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ExplorationSession(
                technique="greedy", size_threshold=32, delta=0.5,
                background_refine=True,
            ) as session:
                session.register("t", columns)
                deadline = time.monotonic() + 30
                for step in range(60):
                    low = float(rng.random() * 80)
                    bounds = {"x": (low, low + 15), "y": (low, low + 30)}
                    want = np.flatnonzero(
                        (columns["x"] > low) & (columns["x"] <= low + 15)
                        & (columns["y"] > low) & (columns["y"] <= low + 30)
                    )
                    got = session.query("t", **bounds).row_ids
                    assert np.array_equal(np.sort(got), want), step
                    (batched,) = session.run_batch("t", [bounds])
                    assert np.array_equal(np.sort(batched.row_ids), want)
                    if step % 10 == 9:
                        findings = session.check()
                        assert all(not p for p in findings.values())
                    assert time.monotonic() < deadline
                assert session._scheduler.slices_run > 0
        finally:
            sys.setswitchinterval(previous)

    def test_plain_session_starts_no_scheduler(self):
        def schedulers():
            return sum(
                t.name == "repro-refine-scheduler"
                for t in threading.enumerate()
            )

        before = schedulers()
        session = ExplorationSession(technique="greedy")
        session.register("t", {"x": np.arange(500.0)})
        session.query("t", x=(1, 50))
        assert session._scheduler is None
        assert session._tables["t"].locks == {}
        assert schedulers() == before


# ------------------------------------------------------------- fuzz smoke

def test_fuzz_smoke_under_parallel():
    from repro.fuzz import run_fuzz

    par_config.set_workers(4)
    par_config.MORSEL_ROWS = 256
    par_config.MIN_PARALLEL_ROWS = 256
    report = run_fuzz(
        seed=5, queries=8, rows=600,
        kinds=["uniform", "duplicate"], log=lambda line: None,
    )
    assert report.ok, [f.describe() for f in report.failures]
