"""Run one workload once, in this process, and print its metrics.

    python3 benchmarks/perf/run.py --workload cold_gpkd --seed 1 \
        --seconds 15 --trace 0

``--trace 0`` measures with nothing wrapped and prints every end-to-end
metric; ``--trace 1`` repeats the workload with timing wrappers
installed from ``tracing.py`` and prints every per-layer metric, the
closure check and the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  A wrong answer, an exception or a refusal that outlived
its retries makes ``correct`` false and the exit code 1.

``suite.py`` runs this file once per (workload, repeat) in a fresh
process and compares recorded run sets.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import metrics  # noqa: E402
import provenance  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _memory_rep(engine: workloads.Engine) -> dict:
    """Bytes the tree representations hold once the fixed sequence has
    built them: a ``tracemalloc`` snapshot of one more repetition (run
    until it converges), filtered by source file.  Untimed — allocation
    tracing slows Python several-fold."""
    import tracemalloc

    tracemalloc.start()
    callers = []
    for client_id in range(engine.driver.clients):
        caller = engine.driver.open(client_id, "mem")
        callers.append(caller)
        for position in range(engine.workload.n_fixed):
            caller.query(position)
            if caller.converged():
                break
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    for caller in callers:
        caller.close()
    return {
        "core.arena.bytes": float(
            tracing.source_bytes(snapshot, ["repro/core/arena.py"])),
        "core.kdtree.bytes": float(tracing.source_bytes(
            snapshot, ["repro/core/kdtree.py", "repro/core/node.py"])),
    }


def _serve_extras(stats: dict) -> dict:
    allocations = stats["scheduler"]["allocations"].values()
    tenants = stats["slo"]["tenants"].values()
    total = sum(tenant["total"] for tenant in tenants)
    return {
        "serve.scheduler.slices": float(stats["scheduler"]["slices_run"]),
        "serve.scheduler.rows": float(sum(a["rows"] for a in allocations)),
        "serve.admission.rejected": float(
            sum(stats["admission"]["rejections"].values())),
        "serve.slo.compliance": (
            sum(tenant["good"] for tenant in tenants) / total if total else 1.0),
    }


def _ladder(engine: workloads.Engine) -> dict:
    import ladder
    from repro.core.query import RangeQuery

    w = engine.workload
    lows, highs = workloads.make_windows("uniform", 1, w.n_dims, 0.1, 0)
    return ladder.run(
        engine.clients[0].caller.index(), RangeQuery(lows[0], highs[0]), w.workers
    )


def traced_metrics(engine, outcome, tracer, meta) -> dict:
    spans = tracer.spans()
    selfs = tracing.self_times(spans)
    table = tracing.aggregate(tracer, spans, selfs)
    wall = sum(
        sum(rep.latencies.sum() for rep in run.reps if rep.traced)
        + run.window_seconds
        for run in outcome.runs
    )
    closure = tracing.closure(tracer, spans, selfs, wall, tracing.ENTRY_POINTS)
    extras = {
        "failed_share": outcome.failed / max(1, outcome.attempted),
    }
    if engine.workload.kind == "serve":
        extras.update(_serve_extras(engine.driver.server_stats()))
    extras.update(_memory_rep(engine))
    if engine.workload.workers > 1:
        extras.update(_ladder(engine))
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracing.write_jsonl(
        tracer, spans, selfs,
        str(out_dir / f"trace-{engine.workload.name}.jsonl"), meta,
    )
    gap = closure["gap_share"]
    print(
        f"closure: wall {closure['wall_ms']:.1f} ms, layers "
        f"{closure['attributed_ms']:.1f} ms, unattributed_ms "
        f"{closure['unattributed_ms']:.1f} ({gap:+.1%})"
        + (f", uncovered caller {closure['uncovered_caller']}"
           if "uncovered_caller" in closure else "")
        + (", worker spans overlap" if gap < -0.10 else ""),
        file=sys.stderr,
    )
    return metrics.per_layer(table, closure, outcome.runs, extras)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="1e5 rows and a tenth of the queries: the benchmark's self-test")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    if args.smoke:
        workload = workloads.smoke_sized(workload)
    tracer = tracing.Tracer() if args.trace else None
    engine = workloads.Engine(workload, args.seed, args.seconds, tracer)
    meta = provenance.collect(args.seed, workload)
    try:
        outcome = engine.run()
        if tracer is not None:
            values = traced_metrics(engine, outcome, tracer, meta)
            units = {name: unit for name, unit, _ in metrics.PER_LAYER}
        else:
            values = metrics.end_to_end(
                outcome.runs, outcome.setup_seconds,
                outcome.first_query_seconds, outcome.peak_rss_mb,
            )
            units = {name: unit for name, unit, _, _ in metrics.END_TO_END}
        failed = outcome.failed + int(
            values.get("parallel.shm.leaked_segments", 0))
    finally:
        if tracer is not None:
            tracer.uninstall()
        engine.close()

    for text in outcome.failures[:10]:
        print(f"FAILED: {text}", file=sys.stderr)
    samples = {
        "repetitions": [len(run.reps) for run in outcome.runs],
        "steady_samples": [int(run.steady.size) for run in outcome.runs],
        "throughput_queries": [run.throughput[0] for run in outcome.runs],
        "first_query_samples": len(outcome.first_query_seconds),
        "verified_answers": outcome.verified,
        "measured_seconds": round(outcome.measured_seconds, 3),
    }
    print(json.dumps({"provenance": meta, "samples": samples}))
    for name, value in values.items():
        print(f"{name:48s} {value:16.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": int(outcome.attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
