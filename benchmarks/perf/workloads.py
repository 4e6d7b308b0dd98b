"""The five workloads and the engine that drives them.

Every workload is a closed loop: a caller sends its next query only when
the previous answer is back.  Library workloads have one caller on the
main thread; ``serve_mixed`` has ``min(nproc, 2)`` client threads, each
on its own socket.  All inputs — table, query scripts, snapshot coins —
derive from the ``--seed`` argument here; the program under test only
ever sees the generated columns and bounds.

One run is::

    generate            table, query scripts, snapshot coins: once
    set-up x3           what the program does before it can answer: a fresh
                        session registers the table (serve: a fresh server
                        starts, registers the spec and answers one query
                        of a fresh tenant); ``setup_s`` = generate + the
                        median set-up
    fixed sequence xR   ``n_fixed`` queries on a *fresh* index each time
                        (the sessions the set-ups registered): first-query,
                        convergence and cumulative numbers are medians over
                        R.  A traced run also scans the table ten times
                        before and after each repetition for its pay-off
    warm-up             untimed
    steady window       scalar queries on the last repetition's index until
                        ``steady_share`` of ``--seconds`` (at least
                        ``steady_min``): p50 / p99
    batch window        ``run_batch`` groups of 64 until ``--seconds``
                        (``converged_lookup`` only): throughput
    verification        outside every timer, against the ``reference``
                        kernel backend over the base columns
"""

from __future__ import annotations

import gc
import importlib
import os
import resource
import threading
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from metrics import ClientRun, Rep

_clock = time.perf_counter

TABLE = "t"
DOMAIN = 100.0  # columns are uniform on [0, DOMAIN)
BATCH = 64
FS_PROBE = 10  # full scans before and after each repetition (traced runs)
TRACED_REPS = 3  # repetitions of a traced run; only the last is traced
VERIFY_SAMPLE = 64
MAX_FAILURES = 20
ADMISSION_RETRIES = 8
CPUS = os.cpu_count() or 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "library" | "serve"
    n_rows: int
    n_dims: int
    technique: str
    delta: float
    patterns: Tuple[str, ...]  # one query script per client
    selectivity: float
    n_fixed: int  # queries of the fixed sequence, per client
    script_len: int  # distinct queries per client; the windows wrap around
    reps: int  # repetitions of the fixed sequence, each on a fresh index
    steady_share: float  # share of --seconds at which the steady window ends
    steady_min: int
    warmup: int = 0
    batch_min: int = 0  # > 0: a batched throughput window follows
    workers: int = 1  # thread-tier workers (parallel=)
    setup_passes: int = 3  # program set-ups per run; setup_s takes the median
    snapshot_fraction: float = 0.0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="cold_gpkd",
            why="4e6x4 uniform, 200 random queries sel 1%, GPKD delta=0.2 "
            "serial: the paper's headline run; kernels.range_scan and "
            "core.partition do the work, descent almost none",
            kind="library", n_rows=4_000_000, n_dims=4,
            technique="greedy", delta=0.2, patterns=("uniform",),
            selectivity=1e-2, n_fixed=200, script_len=20_200,
            reps=3, steady_share=1.0, steady_min=1000,
        ),
        Workload(
            name="cold_gpkd_par",
            why="byte-identical inputs to cold_gpkd through "
            "parallel=min(nproc,4) threads: isolates parallel.executor "
            "fan-out; a fan-out win shows here and leaves cold_gpkd unmoved",
            kind="library", n_rows=4_000_000, n_dims=4,
            technique="greedy", delta=0.2, patterns=("uniform",),
            selectivity=1e-2, n_fixed=200, script_len=20_200,
            reps=3, steady_share=1.0, steady_min=600,
            workers=min(CPUS, 4),
        ),
        Workload(
            name="cold_akd_sequential",
            why="1e6x4 uniform, 120-query sequential sweep sel 1% then two "
            "replays, AKD: query-bound cracking (kernels.stable_partition) "
            "and whole-tree leaf walks over a degenerate tree",
            kind="library", n_rows=1_000_000, n_dims=4,
            technique="adaptive", delta=0.2, patterns=("sequential",),
            selectivity=1e-2, n_fixed=120, script_len=120,
            reps=3, steady_share=1.0, steady_min=240,
        ),
        Workload(
            name="converged_lookup",
            why="4e6x4 uniform, GPKD delta=1.0 converges in ~30 queries, "
            "then sel 1e-6 point lookups scalar (p50/p99) and in run_batch "
            "groups of 64 (throughput): core.arena descent and Python "
            "overhead",
            kind="library", n_rows=4_000_000, n_dims=4,
            technique="greedy", delta=1.0, patterns=("uniform",),
            selectivity=1e-6, n_fixed=400, script_len=32_768,
            reps=3, steady_share=0.7, steady_min=20_000,
            warmup=2000, batch_min=20_000 // BATCH * BATCH,
        ),
        Workload(
            name="serve_mixed",
            why="in-process ServerThread, TableSpec 2e6x3, GPKD delta=0.2, "
            "min(nproc,2) socket clients (random, zoom; sel 0.1%, 25% "
            "snapshot reads): protocol, asyncio dispatch, locks, scheduler",
            kind="serve", n_rows=2_000_000, n_dims=3,
            technique="greedy", delta=0.2, patterns=("uniform", "zoom"),
            selectivity=1e-3, n_fixed=1000, script_len=4000,
            reps=1, steady_share=1.0, steady_min=1000,
            snapshot_fraction=0.25,
            # A server start is 0.1 s with one spike to 0.25 s in seven.
            setup_passes=7,
        ),
    )
}


def smoke_sized(workload: Workload) -> Workload:
    """The same workload at 1e5 rows and a tenth of the queries."""
    return replace(
        workload,
        n_rows=100_000,
        n_fixed=max(40, workload.n_fixed // 5),
        script_len=max(40, workload.script_len // 10),
        steady_min=max(64, workload.steady_min // 10),
        warmup=workload.warmup // 10,
        batch_min=workload.batch_min // 10 // BATCH * BATCH,
    )


# ------------------------------------------------------------------- inputs

def make_columns(seed: int, n_rows: int, n_dims: int) -> Dict[str, np.ndarray]:
    rng = np.random.default_rng([seed, 0x7AB1E])
    return {f"c{dim}": rng.random(n_rows) * DOMAIN for dim in range(n_dims)}


def make_windows(
    pattern: str, n_queries: int, n_dims: int, selectivity: float, seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(lows, highs)`` of shape ``(n_queries, n_dims)``: hyper-cubes of
    volume ``selectivity`` clamped inside the domain, placed by the
    paper's Fig. 4 patterns (uniform random, sequential sweep, zoom)."""
    width = DOMAIN * selectivity ** (1.0 / n_dims)
    half = width / 2.0
    steps = np.arange(n_queries, dtype=float)[:, None]
    if pattern == "uniform":
        rng = np.random.default_rng([seed, 0x0E21])
        centres = rng.random((n_queries, n_dims)) * DOMAIN
        # Query 0 is the first-query metric on its own; where it lands
        # must not change with the seed.
        centres[0] = DOMAIN / 2.0
    elif pattern == "sequential":
        stride = (DOMAIN - width) / max(1, n_queries - 1)
        centres = np.repeat(half + steps * stride, n_dims, axis=1)
    elif pattern == "zoom":
        progress = steps / max(1, n_queries - 1)
        fraction = np.where(steps % 2 == 0, progress / 2, 1 - progress / 2)
        centres = np.repeat(fraction * DOMAIN, n_dims, axis=1)
    else:
        raise ValueError(f"unknown pattern {pattern!r}")
    centres = np.clip(centres, half, DOMAIN - half)
    return centres - half, centres + half


def as_bounds(lows: np.ndarray, highs: np.ndarray) -> List[Dict[str, tuple]]:
    names = [f"c{dim}" for dim in range(lows.shape[1])]
    return [
        dict(zip(names, zip(low, high)))
        for low, high in zip(lows.tolist(), highs.tolist())
    ]


# ------------------------------------------------------------------ callers

class CallFailed(Exception):
    """A timed call raised, or was refused after every retry."""


class _LibraryCaller:
    """One fresh ``ExplorationSession`` over the registered columns."""

    def __init__(self, driver: "LibraryDriver", technique: str) -> None:
        from repro import ExplorationSession

        workload = driver.workload
        self.session = ExplorationSession(
            technique=technique,
            delta=workload.delta,
            size_threshold=1024,
            parallel=workload.workers,
        )
        self.session.register(TABLE, driver.columns)
        self.script = driver.script
        self._index = None

    def query(self, position: int):
        return self.session.query(TABLE, **self.script[position])

    def batch(self, position: int):
        return self.session.run_batch(
            TABLE, self.script[position : position + BATCH]
        )

    @staticmethod
    def digest(result) -> Tuple[int, int]:
        row_ids = result.row_ids
        return int(row_ids.size), int(row_ids.sum())

    def index(self):
        """The one index this session built.  ``ExplorationSession`` has
        no public handle on it; its ``stats()`` reports ``converged`` but
        walks the whole tree, which would sit between timed queries."""
        if self._index is None:
            (self._index,) = self.session._lookup(TABLE).indexes.values()
        return self._index

    def converged(self) -> bool:
        return bool(self.index().converged)

    def close(self) -> None:
        self.session.close()


class _ServeCaller:
    """One socket, one tenant session; refusals back off and retry inside
    the timed call, because the user waits through them."""

    def __init__(self, driver: "ServeDriver", client_id: int, label: str,
                 technique: Optional[str] = None) -> None:
        from repro.serve.client import ServeClient

        self.driver = driver
        self.client = ServeClient(driver.handle.host, driver.handle.port)
        self.session = self.client.open_session(
            f"{label}-{client_id}", technique=technique or driver.workload.technique
        )
        self.script = driver.scripts[client_id]
        self.modes = driver.modes[client_id]

    def query(self, position: int):
        from repro.serve.client import AdmissionRejected

        backoff = 0.005
        for _attempt in range(ADMISSION_RETRIES):
            try:
                return self.client.query(
                    self.session, TABLE, self.script[position],
                    self.modes[position],
                )
            except AdmissionRejected:
                time.sleep(backoff)
                backoff = min(backoff * 2, 0.1)
        raise CallFailed("refused after retries")

    @staticmethod
    def digest(response) -> Tuple[int, str]:
        return int(response["count"]), str(response["checksum"])

    def converged(self) -> bool:
        indexes = self.driver.server.stats()["sessions"][self.session]["indexes"]
        return bool(indexes) and all(
            entry["converged"] for entry in indexes.values()
        )

    def close(self) -> None:
        try:
            self.client.close_session(self.session)
        finally:
            self.client.close()


# ------------------------------------------------------------------ drivers

def _touch_pages(n_bytes: int) -> None:
    """Touch and free ``n_bytes`` so the next allocations of that size
    find pages the host has already backed."""
    np.ones(n_bytes, dtype=np.uint8)


def _time_calls(caller, positions) -> List[float]:
    latencies = []
    for position in positions:
        begin = _clock()
        caller.query(position)
        latencies.append(_clock() - begin)
    return latencies


class LibraryDriver:
    clients = 1

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.columns: Dict[str, np.ndarray] = {}
        self.script: List[Dict[str, tuple]] = []
        self.ready: List[_LibraryCaller] = []
        self.scanner: Optional[_LibraryCaller] = None

    def generate(self) -> None:
        w = self.workload
        self.columns = make_columns(self.seed, w.n_rows, w.n_dims)
        self.windows = make_windows(
            w.patterns[0], w.script_len, w.n_dims, w.selectivity, self.seed
        )
        self.script = as_bounds(*self.windows)

    def set_up(self) -> Optional[float]:
        """What the program does before it can answer: a fresh session
        registers the table.  The session is kept for a repetition, whose
        query 0 is then the first query of a fresh index."""
        self.ready.append(_LibraryCaller(self, self.workload.technique))
        return None

    def open_scanner(self) -> None:
        self.scanner = _LibraryCaller(self, "scan")

    def open(self, client_id: int, label: str) -> _LibraryCaller:
        if self.ready:
            return self.ready.pop()
        return _LibraryCaller(self, self.workload.technique)

    def teardown(self) -> None:
        from repro.parallel import config as parallel_config

        for caller in self.ready + [self.scanner]:
            if caller is not None:
                caller.close()
        self.ready, self.scanner = [], None
        parallel_config.set_workers(1)
        parallel_config.shutdown_pool()

    def verify(self, records: Sequence[List[tuple]]) -> Tuple[int, int]:
        """Re-answer a sample of the timed queries with the ``reference``
        backend over the base columns; returns (checked, mismatches)."""
        from repro import kernels
        from repro.core.metrics import QueryStats
        from repro.core.query import RangeQuery

        backend = kernels.get_backend("reference")
        columns = [self.columns[name] for name in sorted(self.columns)]
        lows, highs = self.windows
        checked = mismatches = 0
        for position, count, checksum in _sample(records[0], VERIFY_SAMPLE):
            rows = backend.range_scan(
                columns, 0, self.workload.n_rows,
                RangeQuery(lows[position], highs[position]), QueryStats(),
            )
            checked += 1
            if (int(rows.size), int(rows.sum())) != (count, checksum):
                mismatches += 1
        return checked, mismatches


class ServeDriver:
    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.clients = min(CPUS, 2, len(workload.patterns))
        self.handle = None
        self.server = None
        self.admin = None
        self.scanner: Optional[_ServeCaller] = None

    def generate(self) -> None:
        from repro.serve.protocol import TableSpec

        w = self.workload
        self.spec = TableSpec(TABLE, "uniform", w.n_rows, w.n_dims, seed=self.seed)
        self.windows = [
            make_windows(pattern, w.script_len, w.n_dims, w.selectivity,
                         self.seed + client_id)
            for client_id, pattern in enumerate(w.patterns[: self.clients])
        ]
        self.scripts = [as_bounds(*windows) for windows in self.windows]
        self.modes = [
            np.where(
                np.random.default_rng([self.seed, client_id, 0xC011]).random(
                    w.script_len) < w.snapshot_fraction,
                "snapshot", "adaptive",
            ).tolist()
            for client_id in range(self.clients)
        ]
        for modes in self.modes:
            modes[0] = "adaptive"  # the first query of a fresh index builds it

    def set_up(self) -> Optional[float]:
        """Start a server, register the table spec, and time a fresh
        tenant session's query 0 on the idle server.  The previous pass's
        server is stopped first; the last one serves the run."""
        from repro.serve.client import ServeClient
        from repro.serve.server import IndexServer, ServerThread

        w = self.workload
        self.teardown()
        self.server = IndexServer(
            technique=w.technique, size_threshold=1024, delta=w.delta
        )
        self.handle = ServerThread(self.server).start()
        self.admin = ServeClient(self.handle.host, self.handle.port)
        self.admin.register_spec(self.spec)
        caller = _ServeCaller(self, 0, "probe")
        (latency,) = _time_calls(caller, [0])
        caller.close()
        return latency

    def open_scanner(self) -> None:
        self.scanner = _ServeCaller(self, 0, "scan", technique="scan")

    def open(self, client_id: int, label: str) -> _ServeCaller:
        return _ServeCaller(self, client_id, label)

    def server_stats(self) -> Dict[str, object]:
        return self.admin.stats()

    def teardown(self) -> None:
        for connection in (self.scanner, self.admin):
            if connection is not None:
                connection.close()
        self.scanner = self.admin = None
        if self.handle is not None:
            self.handle.stop()
            self.handle = self.server = None
            gc.collect()  # the server holds cycles; free its table now

    def verify(self, records: Sequence[List[tuple]]) -> Tuple[int, int]:
        """Check a sample of every client's answers with the load
        generator's reference-backend ``Oracle`` over the rebuilt table."""
        from repro.core.query import RangeQuery
        from repro.serve.loadgen import Oracle

        oracle = Oracle(self.spec)
        checked = mismatches = 0
        for client_id, client_records in enumerate(records):
            lows, highs = self.windows[client_id]
            for position, count, checksum in _sample(
                client_records, 2 * VERIFY_SAMPLE
            ):
                want = oracle.answer(RangeQuery(lows[position], highs[position]))
                checked += 1
                if want != (count, checksum):
                    mismatches += 1
        return checked, mismatches


def _sample(records: List[tuple], size: int) -> List[tuple]:
    """First, last and evenly spaced records; converging queries are
    flagged by the engine and always kept."""
    if len(records) <= size:
        return [record[:3] for record in records]
    keep = set(np.linspace(0, len(records) - 1, size).astype(int).tolist())
    return [
        record[:3]
        for slot, record in enumerate(records)
        if slot in keep or record[3]
    ]


# ------------------------------------------------------------------- engine

@dataclass
class Outcome:
    runs: List[ClientRun]
    setup_seconds: float
    first_query_seconds: List[float]
    peak_rss_mb: float
    attempted: int
    failed: int
    verified: int
    measured_seconds: float
    failures: List[str]


class _Client:
    """One caller's loop; the engine runs it inline (one client) or on a
    thread per client."""

    def __init__(self, engine: "Engine", client_id: int) -> None:
        self.engine = engine
        self.client_id = client_id
        self.run = ClientRun()
        self.records: List[tuple] = []  # (script position, count, checksum, keep)
        self.attempted = 0
        self.failures: List[str] = []
        self.caller = None

    def _timed(self, call, position: int):
        """Latency of one public call; the answer is digested and the
        convergence flag read outside the timer by the callers of this."""
        begin = _clock()
        try:
            result = call(position)
        except Exception as error:  # noqa: BLE001 - counted, not hidden
            elapsed = _clock() - begin
            self.failures.append(f"query {position}: {error!r}")
            if len(self.failures) >= MAX_FAILURES:
                raise
            return elapsed, None
        return _clock() - begin, result

    def fixed_sequence(self, caller, traced: bool) -> Rep:
        w = self.engine.workload
        latencies = np.empty(w.n_fixed)
        converged_at = None
        for position in range(w.n_fixed):
            latencies[position], result = self._timed(caller.query, position)
            self.attempted += 1
            converging = False
            if converged_at is None and caller.converged():
                converged_at = position
                converging = True
            if result is not None:
                self.records.append(
                    (position, *caller.digest(result), converging)
                )
        return Rep(latencies, converged_at, traced)

    def repetitions(self) -> None:
        engine = self.engine
        # A traced run is two untraced repetitions (the better one is the
        # base of ``tracing.overhead``; the first alone would be the one
        # on the coldest pages) and then the traced one.
        reps = TRACED_REPS if engine.tracer is not None else engine.workload.reps
        for number in range(reps):
            if self.caller is not None:
                # Free the previous index now, not whenever the cycle
                # collector next runs: the next one reuses its pages.
                self.caller.close()
                self.caller = None
                gc.collect()
            engine.rep_barrier.wait()
            self.caller = engine.driver.open(self.client_id, f"rep{number}")
            traced = engine.tracer is not None and number == reps - 1
            self.run.reps.append(self.fixed_sequence(self.caller, traced))
        engine.rep_barrier.wait()

    def windows(self) -> None:
        engine = self.engine
        w = engine.workload
        caller = self.caller
        tracer = engine.tracer
        position = w.n_fixed % w.script_len
        if w.warmup:
            if tracer is not None:
                tracer.recording = False
            for _ in range(w.warmup):
                caller.query(position)
                position = (position + 1) % w.script_len
            if tracer is not None:
                tracer.recording = True

        fill = tracer is None  # traced runs stop at the minimum counts
        steady_end = engine.origin + w.steady_share * engine.seconds
        latencies: List[float] = []
        while len(latencies) < w.steady_min or (fill and _clock() < steady_end):
            elapsed, result = self._timed(caller.query, position)
            latencies.append(elapsed)
            if result is not None:
                self.records.append((position, *caller.digest(result), False))
            position = (position + 1) % w.script_len
        self.attempted += len(latencies)
        self.run.steady = np.asarray(latencies)
        self.run.window_seconds = float(sum(latencies))
        self.run.throughput = (len(latencies), self.run.window_seconds)

        if w.batch_min:
            batch_end = engine.origin + engine.seconds
            queries = 0
            inside = 0.0
            while queries < w.batch_min or (fill and _clock() < batch_end):
                if position + BATCH > w.script_len:
                    position = 0
                elapsed, results = self._timed(caller.batch, position)
                inside += elapsed
                if results is not None:
                    for offset, result in enumerate(results):
                        self.records.append(
                            (position + offset, *caller.digest(result), False)
                        )
                queries += BATCH
                position += BATCH
            self.attempted += queries
            self.run.throughput = (queries, inside)
            self.run.window_seconds += inside

    def __call__(self) -> None:
        try:
            self.repetitions()
            self.windows()
        except Exception as error:  # noqa: BLE001 - reported by the engine
            self.failures.append(f"client {self.client_id} aborted: {error!r}")
            self.engine.rep_barrier.abort()


class Engine:
    def __init__(self, workload: Workload, seed: int, seconds: float,
                 tracer=None) -> None:
        self.workload = workload
        self.seconds = seconds
        self.tracer = tracer
        driver_type = ServeDriver if workload.kind == "serve" else LibraryDriver
        self.driver = driver_type(workload, seed)
        self.origin = 0.0
        self.clients: List[_Client] = []
        #: full-scan latencies taken at each repetition boundary
        self.scan_probes: List[List[float]] = []
        # Every client parks here before each repetition and after the
        # last; _boundary runs once per boundary while they are parked.
        self.rep_barrier = threading.Barrier(
            self.driver.clients, action=self._boundary
        )

    def _boundary(self) -> None:
        """Between a traced run's repetitions: re-measure the full-scan
        baseline, so each repetition's pay-off is judged against scans
        taken just before and just after it (machine speed drifts by
        several percent over a run), and wrap the layers before the last
        repetition.  Untraced runs report no pay-off and do nothing."""
        tracer = self.tracer
        if tracer is None:
            return
        tracer.recording = False
        self.scan_probes.append(
            _time_calls(self.driver.scanner, range(FS_PROBE))
        )
        if len(self.scan_probes) == TRACED_REPS:
            import tracing

            tracing.install(tracer)
        tracer.recording = len(self.scan_probes) >= TRACED_REPS

    def run(self) -> Outcome:
        driver = self.driver
        w = self.workload
        # Importing the program is process start-up, not its set-up.
        importlib.import_module(
            "repro.serve.server" if w.kind == "serve" else "repro"
        )
        # On the sandbox's VM the first touch of a guest page costs about
        # 22 us until the host has backed it, and freed pages are taken
        # back within about 2 s: set-up would cost 0.2 s or 1.5 s
        # depending on what exited just before this process started.
        # Touch and free what set-up will allocate, so it always finds
        # backed pages.
        table_bytes = w.n_rows * w.n_dims * 8
        _touch_pages((1 + w.setup_passes) * table_bytes)
        # Inputs are made once; the program's own set-up is repeated and
        # its median taken, so that setup_s does not ride on one pass's
        # page-fault luck.
        begin = _clock()
        driver.generate()
        once = _clock() - begin
        passes: List[float] = []
        first_queries: List[float] = []
        for _ in range(w.setup_passes):
            begin = _clock()
            probe = driver.set_up()
            passes.append(_clock() - begin)
            if probe is not None:
                first_queries.append(probe)
        setup_seconds = once + float(np.median(passes))
        if self.tracer is not None:
            driver.open_scanner()
        gc.collect()
        gc.freeze()
        # The first fresh index would otherwise be the only one built on
        # cold pages (later ones reuse the pages of the one before).
        _touch_pages(driver.clients * w.n_rows * (w.n_dims + 1) * 8)

        clients = self.clients = [
            _Client(self, cid) for cid in range(driver.clients)
        ]
        self.origin = _clock()
        if len(clients) == 1:
            clients[0]()
        else:
            threads = [
                threading.Thread(target=client, name=f"perf-client-{cid}")
                for cid, client in enumerate(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        measured = _clock() - self.origin
        if self.tracer is not None:
            self.tracer.recording = False
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        failures = [text for client in clients for text in client.failures]
        for client in clients:
            for number, rep in enumerate(client.run.reps):
                if self.scan_probes:
                    rep.fs_median = float(np.median(
                        self.scan_probes[number] + self.scan_probes[number + 1]
                    ))
                if not rep.traced:  # query 0 of a fresh index
                    first_queries.append(float(rep.latencies[0]))
        verified = mismatches = 0
        if not any("aborted" in text for text in failures):
            verified, mismatches = driver.verify(
                [client.records for client in clients]
            )
            if mismatches:
                failures.append(f"{mismatches} answers differ from the oracle")
        return Outcome(
            runs=[client.run for client in clients],
            setup_seconds=setup_seconds,
            first_query_seconds=first_queries,
            peak_rss_mb=peak_rss_mb,
            attempted=sum(client.attempted for client in clients),
            failed=sum(len(client.failures) for client in clients) + mismatches,
            verified=verified,
            measured_seconds=measured,
            failures=failures,
        )

    def close(self) -> None:
        for client in self.clients:
            if client.caller is not None:
                client.caller.close()
        self.driver.teardown()
