"""Seeded differential fuzzer for all index backends.

``python -m repro.fuzz`` drives randomized workloads through every index
in this package and, after **every single query**, checks both halves of
the correctness contract:

* the *answer* — must equal a full scan of the base table on the
  trusted ``reference`` kernel backend (the paper's master invariant);
* the *structure* — the full invariant suite of :mod:`repro.invariants`,
  including cross-query monotonicity, the open-piece frontier cross-check
  (I12: the refinement work queue against a real walk of the tree) and,
  on integer-valued data, the converged-tree determinism check.

Workload kinds cover the regimes where incremental indexes break:
``uniform`` boxes, ``skewed`` lognormal data with hotspot queries,
``zoom`` sequences converging on a point, ``duplicate``-heavy integer
grids (ties on every pivot), and ``degenerate`` tables with a
single-valued column (unsplittable dimensions).  Query generation mixes
in ±inf half-open sides, bounds equal to existing data values (the
off-by-one surface), and empty ranges.

``--kernels`` pins a kernel backend for the whole sweep; ``--parallel N``
runs it under the morsel executor with ``N`` workers (fan-out thresholds
lowered so the tiny tables actually split), checking that answers,
invariants — including the I9 ownership protocol — and converged
structures survive multi-threaded execution.  ``--procs N`` does the
same over the process pool: index tables land in shared memory and
scans/refinement fan out across worker processes.  Every workload is
driven twice per backend: once query by query, once through
:meth:`~repro.core.index_base.BaseIndex.query_batch` on a fresh index,
checking the batched answers against the same oracle.

Every run is reproducible from its seed.  On failure the fuzzer shrinks
the workload with a delta-debugging pass, saves a JSON repro file, and
prints the exact replay command::

    python -m repro.fuzz --replay fuzz-failure-akd-uniform-seed0.json

Exit status is 0 for a clean run, 1 when any failure survived.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .baselines import (
    AverageKDTree,
    FullScan,
    MedianKDTree,
    Quasii,
    SFCCracking,
)
from .core import (
    AdaptiveKDTree,
    GreedyProgressiveKDTree,
    ProgressiveKDTree,
    RangeQuery,
    Table,
)
from . import kernels
from .core.metrics import QueryStats
from .obs import metrics as obs_metrics
from .invariants import InvariantMonitor, convergence_determinism_errors

__all__ = [
    "BACKENDS",
    "SESSION_TECHNIQUES",
    "WORKLOAD_KINDS",
    "FuzzCase",
    "FuzzFailure",
    "FuzzReport",
    "make_backend",
    "build_workload",
    "run_backend_case",
    "minimize_queries",
    "run_fuzz",
    "run_session_fuzz",
    "replay",
    "main",
]

#: backend name -> factory(table, case); the eight techniques under test.
BACKENDS: Dict[str, Callable[[Table, "FuzzCase"], object]] = {
    "fs": lambda table, case: FullScan(table),
    "avgkd": lambda table, case: AverageKDTree(
        table, size_threshold=case.size_threshold
    ),
    "medkd": lambda table, case: MedianKDTree(
        table, size_threshold=case.size_threshold
    ),
    "akd": lambda table, case: AdaptiveKDTree(
        table, size_threshold=case.size_threshold
    ),
    "pkd": lambda table, case: ProgressiveKDTree(
        table, delta=case.delta, size_threshold=case.size_threshold
    ),
    "gpkd": lambda table, case: GreedyProgressiveKDTree(
        table, delta=case.delta, size_threshold=case.size_threshold
    ),
    "quasii": lambda table, case: Quasii(
        table, size_threshold=case.size_threshold
    ),
    "sfc": lambda table, case: SFCCracking(table),
}

WORKLOAD_KINDS = ["uniform", "skewed", "zoom", "duplicate", "degenerate"]


@dataclass
class FuzzCase:
    """One reproducible workload: everything derives from these scalars."""

    seed: int
    kind: str
    n_rows: int
    n_dims: int
    n_queries: int
    size_threshold: int = 64
    delta: float = 0.25
    #: Drive the workload through ``query_batch`` instead of per-query
    #: ``query`` calls (the sweep's second pass).
    batch: bool = False

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(
            [self.seed, WORKLOAD_KINDS.index(self.kind)]
        )


@dataclass
class FuzzFailure:
    """One backend failure, minimized and replayable."""

    backend: str
    case: FuzzCase
    query_position: int
    problems: List[str]
    query_indices: List[int] = field(default_factory=list)

    def describe(self) -> str:
        label = self.case.kind + ("+batch" if self.case.batch else "")
        head = (
            f"{self.backend}/{label}: FAILED at query "
            f"#{self.query_position} (minimized to "
            f"{len(self.query_indices)} queries)"
        )
        return head + "".join(f"\n    - {p}" for p in self.problems[:5])

    def to_json(self) -> str:
        payload = {"backend": self.backend, "case": asdict(self.case)}
        payload["query_indices"] = self.query_indices
        payload["problems"] = self.problems
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FuzzFailure":
        payload = json.loads(text)
        return cls(
            backend=payload["backend"],
            case=FuzzCase(**payload["case"]),
            query_position=0,
            problems=payload.get("problems", []),
            query_indices=list(payload["query_indices"]),
        )


@dataclass
class FuzzReport:
    """Outcome of one full fuzz run."""

    cases_run: int = 0
    queries_run: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def make_backend(name: str, table: Table, case: FuzzCase):
    try:
        factory = BACKENDS[name]
    except KeyError:
        raise SystemExit(
            f"unknown backend {name!r}; options: all, {', '.join(sorted(BACKENDS))}"
        ) from None
    return factory(table, case)


# ---------------------------------------------------------------- workloads

def _build_table(case: FuzzCase, rng: np.random.Generator) -> Table:
    n, d = case.n_rows, case.n_dims
    if case.kind == "skewed":
        matrix = rng.lognormal(0.0, 2.0, size=(n, d))
    elif case.kind == "duplicate":
        matrix = rng.integers(0, 20, size=(n, d)).astype(np.float64)
    elif case.kind == "degenerate":
        matrix = rng.random((n, d)) * 100.0
        matrix[:, rng.integers(0, d)] = 42.0  # one single-valued column
    else:  # uniform / zoom share uniform data
        matrix = rng.random((n, d)) * 100.0
    return Table.from_matrix(matrix)


def _random_bounds(
    rng: np.random.Generator, column: np.ndarray
) -> Tuple[float, float]:
    """One dimension's ``(low, high)``, biased toward the failure surface."""
    lo_dom = float(column.min())
    hi_dom = float(column.max())
    span = max(hi_dom - lo_dom, 1.0)
    roll = rng.random()
    if roll < 0.10:
        return -np.inf, float(rng.uniform(lo_dom - 0.1 * span, hi_dom + 0.1 * span))
    if roll < 0.20:
        return float(rng.uniform(lo_dom - 0.1 * span, hi_dom + 0.1 * span)), np.inf
    if roll < 0.40:
        # Bounds sitting exactly on data values: the half-open off-by-one
        # surface (a row equal to `low` must be excluded, equal to `high`
        # included).
        low = float(column[rng.integers(0, column.shape[0])])
        high = float(column[rng.integers(0, column.shape[0])])
        if low > high:
            low, high = high, low
        return low, high
    if roll < 0.45:
        value = float(rng.uniform(lo_dom, hi_dom))
        return value, value  # legal but empty range
    a = float(rng.uniform(lo_dom - 0.05 * span, hi_dom + 0.05 * span))
    b = float(rng.uniform(lo_dom - 0.05 * span, hi_dom + 0.05 * span))
    return (a, b) if a <= b else (b, a)


def _zoom_queries(
    rng: np.random.Generator, table: Table, n_queries: int
) -> List[RangeQuery]:
    minimums = table.minimums()
    maximums = table.maximums()
    spans = np.maximum(maximums - minimums, 1e-9)
    target = minimums + rng.random(table.n_columns) * spans
    queries = []
    for position in range(n_queries):
        width = spans * (0.9 ** position) * 0.5
        lows = np.maximum(minimums - 0.01 * spans, target - width)
        highs = np.minimum(maximums + 0.01 * spans, target + width)
        highs = np.maximum(highs, lows)
        queries.append(RangeQuery(lows, highs))
    return queries


def build_workload(case: FuzzCase) -> Tuple[Table, List[RangeQuery]]:
    """Reconstruct the case's table and full query list from its seed."""
    rng = case.rng()
    table = _build_table(case, rng)
    if case.kind == "zoom":
        queries = _zoom_queries(rng, table, case.n_queries)
    elif case.kind == "skewed":
        # Hotspot queries over skewed data: most boxes land in the dense
        # low-value region, a few sweep the long tail.
        queries = []
        for _ in range(case.n_queries):
            bounds = [
                _random_bounds(rng, table.column(dim))
                for dim in range(case.n_dims)
            ]
            if rng.random() < 0.7:
                bounds = [
                    (low, min(high, float(np.median(table.column(dim)) * 2)))
                    if np.isfinite(high)
                    else (low, high)
                    for dim, (low, high) in enumerate(bounds)
                ]
            bounds = [(min(l, h), max(l, h)) for l, h in bounds]
            queries.append(
                RangeQuery([b[0] for b in bounds], [b[1] for b in bounds])
            )
    else:
        queries = [
            RangeQuery(
                *zip(
                    *[
                        _random_bounds(rng, table.column(dim))
                        for dim in range(case.n_dims)
                    ]
                )
            )
            for _ in range(case.n_queries)
        ]
    return table, queries


# ------------------------------------------------------------------ driving

def _reference(table: Table, query: RangeQuery) -> np.ndarray:
    # Pin the trusted reference kernel backend for the oracle: when the
    # fuzzer runs with a fused/JIT backend active, a kernel bug must not
    # be able to corrupt the expected answer the same way it corrupts the
    # index's answer.
    columns = table.columns()
    positions = kernels.get_backend("reference").range_scan(
        columns, 0, int(columns[0].shape[0]), query, QueryStats()
    )
    return np.sort(positions)


def run_backend_case(
    backend: str,
    table: Table,
    queries: Sequence[RangeQuery],
    case: FuzzCase,
) -> Tuple[Optional[int], List[str]]:
    """Drive one backend through one workload with per-query checking.

    Returns ``(failing_query_position, problems)`` — ``(None, [])`` for a
    clean run.  The first query that mis-answers, breaks an invariant, or
    raises ends the run.
    """
    index = make_backend(backend, table, case)
    monitor = InvariantMonitor(index)
    if case.batch:
        return _run_batch_case(index, monitor, table, queries)
    for position, query in enumerate(queries):
        try:
            got = np.sort(index.query(query).row_ids)
        except Exception as error:  # noqa: BLE001 - the fuzzer reports it
            return position, [
                f"query raised {type(error).__name__}: {error}"
            ]
        problems: List[str] = []
        want = _reference(table, query)
        if not np.array_equal(got, want):
            missing = np.setdiff1d(want, got)
            unexpected = np.setdiff1d(got, want)
            problems.append(
                f"answer mismatch: got {got.size} rows, expected {want.size} "
                f"({missing.size} missing, {unexpected.size} unexpected) "
                f"for {query!r}"
            )
        problems.extend(monitor.observe())
        if problems:
            return position, problems
    if case.kind == "duplicate":
        # Integer data: mean pivots are rounding-free, so the converged
        # progressive trees must equal the up-front mean-pivot KD-Tree.
        problems = convergence_determinism_errors(index)
        if problems:
            return len(queries) - 1, problems
    return None, []


def _run_batch_case(
    index,
    monitor: InvariantMonitor,
    table: Table,
    queries: Sequence[RangeQuery],
) -> Tuple[Optional[int], List[str]]:
    """Drive one workload through ``query_batch`` in one call.

    Adaptive backends drain the batch sequentially until converged and
    answer the rest with the shared arena descent, so this exercises the
    mid-refinement hand-off as well as the converged fast path.  The
    invariant sweep runs once at the end (mid-batch state is not
    observable from outside).
    """
    try:
        answers = index.query_batch(list(queries))
    except Exception as error:  # noqa: BLE001 - the fuzzer reports it
        return 0, [f"query_batch raised {type(error).__name__}: {error}"]
    if len(answers) != len(queries):
        return 0, [
            f"query_batch returned {len(answers)} answers "
            f"for {len(queries)} queries"
        ]
    for position, (query, answer) in enumerate(zip(queries, answers)):
        got = np.sort(answer.row_ids)
        want = _reference(table, query)
        if not np.array_equal(got, want):
            missing = np.setdiff1d(want, got)
            unexpected = np.setdiff1d(got, want)
            return position, [
                f"query_batch answer mismatch: got {got.size} rows, "
                f"expected {want.size} ({missing.size} missing, "
                f"{unexpected.size} unexpected) for {query!r}"
            ]
    problems = monitor.observe()
    if problems:
        return len(queries) - 1, problems
    return None, []


def minimize_queries(
    backend: str,
    table: Table,
    queries: Sequence[RangeQuery],
    case: FuzzCase,
    failing_position: int,
    max_probes: int = 150,
) -> List[int]:
    """Delta-debug the failing workload down to a (near-)minimal prefix.

    Returns the indices (into the original query list) still needed to
    reproduce *a* failure.  Block-removal ddmin with a probe budget; the
    result is 1-minimal when the budget suffices.
    """
    probes = [0]

    def still_fails(indices: List[int]) -> bool:
        if probes[0] >= max_probes:
            return False
        probes[0] += 1
        position, _ = run_backend_case(
            backend, table, [queries[i] for i in indices], case
        )
        return position is not None

    kept = list(range(failing_position + 1))
    block = max(1, len(kept) // 2)
    while block >= 1:
        cursor = 0
        while cursor < len(kept) and len(kept) > 1:
            trial = kept[:cursor] + kept[cursor + block :]
            if trial and still_fails(trial):
                kept = trial
            else:
                cursor += block
        block //= 2
    return kept


def run_fuzz(
    seed: int = 0,
    queries: int = 50,
    backends: Optional[Sequence[str]] = None,
    kinds: Optional[Sequence[str]] = None,
    rows: int = 1500,
    dims: Optional[int] = None,
    size_threshold: int = 64,
    delta: float = 0.25,
    save_dir: Optional[str] = None,
    verbose: bool = False,
    log: Callable[[str], None] = print,
) -> FuzzReport:
    """The full differential sweep: every kind x every backend.

    Each (kind, backend) cell runs twice: query by query, then the same
    workload through ``query_batch`` on a fresh index.
    """
    backend_names = list(BACKENDS) if backends is None else list(backends)
    kind_names = WORKLOAD_KINDS if kinds is None else list(kinds)
    for kind in kind_names:
        if kind not in WORKLOAD_KINDS:
            raise SystemExit(
                f"unknown workload kind {kind!r}; "
                f"options: {', '.join(WORKLOAD_KINDS)}"
            )
    report = FuzzReport()
    for kind_position, kind in enumerate(kind_names):
        case_dims = dims if dims is not None else 2 + kind_position % 2
        case = FuzzCase(
            seed=seed,
            kind=kind,
            n_rows=rows,
            n_dims=case_dims,
            n_queries=queries,
            size_threshold=size_threshold,
            delta=delta,
        )
        table, workload = build_workload(case)
        variants = [case, replace(case, batch=True)]
        for backend in backend_names:
            for variant in variants:
                tag = f"{kind}+batch" if variant.batch else kind
                position, problems = run_backend_case(
                    backend, table, workload, variant
                )
                report.cases_run += 1
                report.queries_run += (
                    len(workload) if position is None else position + 1
                )
                if obs_metrics.ENABLED:
                    registry = obs_metrics.REGISTRY
                    registry.counter("fuzz.cases", backend=backend, kind=tag).inc()
                    registry.counter(
                        "fuzz.queries", backend=backend, kind=tag
                    ).inc(len(workload) if position is None else position + 1)
                    if position is not None:
                        registry.counter(
                            "fuzz.failures", backend=backend, kind=tag
                        ).inc()
                if position is None:
                    if verbose:
                        log(f"{backend}/{tag}: OK ({len(workload)} queries)")
                    continue
                indices = minimize_queries(
                    backend, table, workload, variant, position
                )
                failure = FuzzFailure(
                    backend=backend,
                    case=variant,
                    query_position=position,
                    problems=problems,
                    query_indices=indices,
                )
                report.failures.append(failure)
                log(failure.describe())
                if save_dir is not None:
                    suffix = "-batch" if variant.batch else ""
                    path = (
                        f"{save_dir.rstrip('/')}/"
                        f"fuzz-failure-{backend}-{kind}{suffix}-seed{seed}.json"
                    )
                    with open(path, "w") as handle:
                        handle.write(failure.to_json())
                    log(
                        f"    repro saved; replay with: python -m repro.fuzz "
                        f"--replay {path}"
                    )
    return report


#: Techniques the multi-session mode cycles through, one per session.
SESSION_TECHNIQUES = ("greedy", "progressive", "adaptive", "quasii")


def run_session_fuzz(
    seed: int = 0,
    sessions: int = 4,
    steps: int = 120,
    rows: int = 2000,
    dims: int = 3,
    size_threshold: int = 64,
    delta: float = 0.25,
    log: Callable[[str], None] = print,
) -> List[str]:
    """Interleave queries from N sessions over one shared table.

    The multi-session analogue of the differential sweep (the in-process
    little sibling of the ``repro.serve`` soak): every session registers
    the *same* column arrays, each runs a different indexing technique
    (cycling :data:`SESSION_TECHNIQUES`), and a seeded scheduler
    interleaves their queries step by step.  After every step the issuing
    session's answer is checked against the reference oracle and its
    indexes against I1-I9; every ~10 steps (and at the end) *every*
    session gets the full invariant sweep, so one session's index work
    corrupting another's state cannot go unnoticed.  Odd-numbered
    sessions refine in think time (``background_refine=True``), so their
    answers and sweeps race the scheduler's slices; every session is
    closed at the end.

    Returns the list of problems found (empty = clean run).
    """
    from .session import ExplorationSession

    rng = np.random.default_rng([seed, 0x5E55])
    matrix = rng.random((rows, dims)) * 100.0
    shared_columns = {f"c{d}": matrix[:, d].copy() for d in range(dims)}
    names = sorted(shared_columns)

    fleet: List[ExplorationSession] = []
    for position in range(sessions):
        session = ExplorationSession(
            technique=SESSION_TECHNIQUES[position % len(SESSION_TECHNIQUES)],
            size_threshold=size_threshold,
            delta=delta,
            background_refine=position % 2 == 1,
        )
        session.register("shared", shared_columns)
        fleet.append(session)

    reference = kernels.get_backend("reference")
    problems: List[str] = []

    def sweep(step: int, members: Sequence[int]) -> None:
        for position in members:
            findings = fleet[position].check()
            for label, label_problems in findings.items():
                problems.extend(
                    f"step {step}: session {position} "
                    f"({fleet[position].technique}) {label}: {problem}"
                    for problem in label_problems
                )

    for step in range(steps):
        position = int(rng.integers(0, sessions))
        session = fleet[position]
        n_constrained = int(rng.integers(1, dims + 1))
        chosen = sorted(
            rng.choice(dims, size=n_constrained, replace=False).tolist()
        )
        bounds = {
            names[d]: _random_bounds(rng, shared_columns[names[d]])
            for d in chosen
        }
        try:
            got = np.sort(session.query("shared", **bounds).row_ids)
        except Exception as error:  # noqa: BLE001 - the fuzzer reports it
            problems.append(
                f"step {step}: session {position} ({session.technique}) "
                f"raised {type(error).__name__}: {error}"
            )
            break
        group = sorted(bounds)
        columns = [shared_columns[name] for name in group]
        query = RangeQuery(
            [bounds[name][0] for name in group],
            [bounds[name][1] for name in group],
        )
        want = np.sort(
            reference.range_scan(columns, 0, rows, query, QueryStats())
        )
        if not np.array_equal(got, want):
            problems.append(
                f"step {step}: session {position} ({session.technique}) "
                f"answer mismatch: got {got.size} rows, expected {want.size} "
                f"for columns {group}"
            )
        sweep(step, [position])
        if step % 10 == 9:
            sweep(step, range(sessions))
        if problems:
            break
    if not problems:
        sweep(steps, range(sessions))
    for session in fleet:
        session.close()
    for problem in problems[:10]:
        log(f"fuzz --sessions: {problem}")
    return problems


def replay(path: str, log: Callable[[str], None] = print) -> bool:
    """Re-run a saved failure file; returns True when it still fails."""
    with open(path) as handle:
        failure = FuzzFailure.from_json(handle.read())
    table, workload = build_workload(failure.case)
    subset = [workload[i] for i in failure.query_indices]
    position, problems = run_backend_case(
        failure.backend, table, subset, failure.case
    )
    if position is None:
        log(f"{path}: no longer reproduces ({len(subset)} queries clean)")
        return False
    log(
        f"{path}: reproduces at query #{position} "
        f"(original index {failure.query_indices[position]})"
    )
    for problem in problems:
        log(f"    - {problem}")
    return True


# ---------------------------------------------------------------------- CLI

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential + invariant fuzzer for all index backends.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--queries", type=int, default=50, help="queries per (kind, backend) case"
    )
    parser.add_argument(
        "--backends",
        default="all",
        help=f"comma list or 'all' ({', '.join(sorted(BACKENDS))})",
    )
    parser.add_argument(
        "--kinds",
        default="all",
        help=f"comma list or 'all' ({', '.join(WORKLOAD_KINDS)})",
    )
    parser.add_argument("--rows", type=int, default=1500)
    parser.add_argument(
        "--dims", type=int, default=None, help="fix dimensionality (default: vary)"
    )
    parser.add_argument("--size-threshold", type=int, default=64)
    parser.add_argument("--delta", type=float, default=0.25)
    parser.add_argument(
        "--kernels",
        default=None,
        choices=sorted(kernels.registered_backends()),
        help="kernel backend for the run (default: keep the active one; "
        "an unavailable backend falls back to numpy)",
    )
    parser.add_argument(
        "--parallel",
        type=int,
        default=None,
        metavar="N",
        help="morsel-executor worker count for the run (default: keep the "
        "active count; thresholds are lowered so the tiny fuzz tables "
        "actually exercise the parallel paths)",
    )
    parser.add_argument(
        "--procs",
        type=int,
        default=None,
        metavar="N",
        help="process-pool worker count for the run (default: keep the "
        "active count; thresholds are lowered as for --parallel so the "
        "tiny fuzz tables reach the process tier)",
    )
    parser.add_argument(
        "--sessions",
        type=int,
        default=None,
        metavar="N",
        help="multi-session mode: interleave queries from N concurrent "
        "sessions (one technique each) over one shared table, checking "
        "answers and invariants after every step",
    )
    parser.add_argument(
        "--save-dir", default=".", help="where failure repro files go"
    )
    parser.add_argument(
        "--replay", default=None, help="re-run a saved failure file and exit"
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    if args.kernels is not None:
        activated = kernels.use(args.kernels)
        if activated != args.kernels:
            print(
                f"fuzz: kernel backend {args.kernels!r} unavailable, "
                f"running on {activated!r}"
            )

    if args.parallel is not None:
        from .parallel import config as parallel_config

        parallel_config.set_workers(args.parallel)
        # Fuzz tables are deliberately tiny; without lowering the
        # fan-out thresholds every scan would fall through to the serial
        # path and the sweep would not exercise the morsel executor.
        parallel_config.MORSEL_ROWS = 256
        parallel_config.MIN_PARALLEL_ROWS = 256

    if args.procs is not None:
        from .parallel import config as parallel_config
        from .parallel import procpool

        procpool.set_process_workers(args.procs)
        if args.procs > 1:
            procpool.warm_up()
        parallel_config.MORSEL_ROWS = 256
        parallel_config.MIN_PARALLEL_ROWS = 256

    if args.replay is not None:
        try:
            return 1 if replay(args.replay) else 0
        except (OSError, ValueError, KeyError) as error:
            parser.error(f"cannot replay {args.replay!r}: {error}")

    if args.sessions is not None:
        problems = run_session_fuzz(
            seed=args.seed,
            sessions=args.sessions,
            steps=args.queries,
            rows=args.rows,
            dims=args.dims if args.dims is not None else 3,
            size_threshold=args.size_threshold,
            delta=args.delta,
        )
        status = "OK" if not problems else f"{len(problems)} PROBLEM(S)"
        print(
            f"fuzz --sessions {args.sessions}: {status} — "
            f"{args.queries} interleaved steps (seed {args.seed})"
        )
        return 0 if not problems else 1

    backends = (
        None if args.backends == "all" else args.backends.split(",")
    )
    kinds = None if args.kinds == "all" else args.kinds.split(",")
    report = run_fuzz(
        seed=args.seed,
        queries=args.queries,
        backends=backends,
        kinds=kinds,
        rows=args.rows,
        dims=args.dims,
        size_threshold=args.size_threshold,
        delta=args.delta,
        save_dir=args.save_dir,
        verbose=args.verbose,
    )
    status = "OK" if report.ok else f"{len(report.failures)} FAILURE(S)"
    print(
        f"fuzz: {status} — {report.cases_run} cases, "
        f"{report.queries_run} queries checked (seed {args.seed})"
    )
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
