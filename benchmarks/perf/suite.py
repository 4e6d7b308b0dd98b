"""Run sets: every workload in fresh processes, spreads, record, compare.

    python3 benchmarks/perf/suite.py run --repeats 10 --vary-seed --out out/set-a.json
    python3 benchmarks/perf/suite.py run --traced --repeats 1
    python3 benchmarks/perf/suite.py compare out/set-a.json out/set-b.json
    python3 benchmarks/perf/suite.py smoke        # self-test, < 20 s
    python3 benchmarks/perf/suite.py manifest     # rewrite BENCHMARK.json

``run`` starts ``run.py`` once per (workload, repeat) — one fresh
process each, so no run inherits another's heap, page cache luck or
thread pools — and prints, per metric, the median, the quartiles and
their distance as a share of the median (the spread the bound has to
cover).  ``compare`` refuses two sets whose provenance differs in
cores, kernel backend or sizes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import provenance  # noqa: E402
import workloads  # noqa: E402

RUN_SECONDS = 15
BOUNDS = {name: bound for name, _unit, _better, bound in metrics.END_TO_END}
BETTER = {name: better for name, _unit, better, _bound in metrics.END_TO_END}


def manifest() -> Dict[str, object]:
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in metrics.END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in metrics.PER_LAYER
        ],
    }


def run_once(workload: str, seed: int, seconds: float, traced: bool,
             smoke: bool) -> Dict[str, object]:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "1" if traced else "0",
    ] + (["--smoke"] if smoke else [])
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(
            f"{workload} seed {seed}: no result (exit {done.returncode})\n"
            f"{done.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    header = next(
        (json.loads(line) for line in lines if line.startswith('{"provenance"')),
        {},
    )
    result.update(header)
    result["exit_code"] = done.returncode
    result["closure"] = [
        line for line in done.stderr.splitlines() if line.startswith("closure:")
    ]
    return result


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def summarise(runs: List[Dict[str, object]]) -> Dict[str, Dict[str, float]]:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        low, mid, high = quartiles(values)
        summary[name] = {
            "median": mid, "q1": low, "q3": high,
            "spread": (high - low) / mid if mid else 0.0,
            "unit": runs[0]["metrics"][name]["unit"],
            "n": len(values),
        }
    return summary


def print_summary(workload: str, summary, traced: bool) -> None:
    print(f"\n== {workload}  (n={next(iter(summary.values()))['n']})")
    for name, row in summary.items():
        if traced and row["median"] == 0 and row["q3"] == 0:
            continue
        bound = BOUNDS.get(name)
        verdict = ""
        if bound is not None and name != "setup_s":
            verdict = (
                f"  bound {bound:.0%}  "
                + ("ok" if row["spread"] <= bound / 3 else
                   "wide" if row["spread"] <= bound else "OVER")
            )
        print(
            f"{name:46s} {row['median']:14.6g} {row['unit']:6s} "
            f"q1 {row['q1']:12.6g} q3 {row['q3']:12.6g} "
            f"spread {row['spread']:6.1%}{verdict}"
        )


def command_run(args) -> int:
    names = args.workloads or list(workloads.WORKLOADS)
    record = {"traced": args.traced, "seconds": args.seconds, "workloads": {}}
    exit_code = 0
    for name in names:
        runs = []
        for repeat in range(args.repeats):
            seed = args.seed + repeat if args.vary_seed else args.seed
            run = run_once(name, seed, args.seconds, args.traced, smoke=False)
            runs.append(run)
            status = "ok" if run["correct"] else "WRONG"
            print(
                f"{name} seed {seed} run {repeat + 1}/{args.repeats}: {status}, "
                f"{run['attempted']} attempted, {run['failed']} failed "
                f"{' '.join(run['closure'])}",
                flush=True,
            )
            if not run["correct"] or run["exit_code"]:
                exit_code = 1
        summary = summarise(runs)
        print_summary(name, summary, args.traced)
        record["workloads"][name] = {
            "provenance": runs[0].get("provenance", {}),
            "seeds": [run.get("provenance", {}).get("seed") for run in runs],
            "samples": [run.get("samples", {}) for run in runs],
            "summary": summary,
            "values": {
                metric: [run["metrics"][metric]["value"] for run in runs]
                for metric in runs[0]["metrics"]
            },
        }
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
        print(f"\nrun set written to {args.out}")
    return exit_code


def command_compare(args) -> int:
    base = json.loads(Path(args.base).read_text())
    other = json.loads(Path(args.other).read_text())
    worse = 0
    for name, left in base["workloads"].items():
        right = other["workloads"].get(name)
        if right is None:
            continue
        try:
            provenance.require_comparable(left["provenance"], right["provenance"])
        except provenance.ProvenanceMismatch as error:
            print(f"{name}: {error}")
            return 2
        print(f"\n== {name}")
        for metric, bound in BOUNDS.items():
            a = left["summary"][metric]["median"]
            b = right["summary"][metric]["median"]
            change = (b - a) / a if BETTER[metric] == "lower" else (a - b) / a
            flag = "WORSE" if change > bound else "ok"
            worse += flag == "WORSE"
            print(
                f"{metric:18s} {a:14.6g} -> {b:14.6g}  "
                f"worse by {change:+7.1%}  bound {bound:.0%}  {flag}"
            )
    return 1 if worse else 0


def command_smoke(args) -> int:
    """Every workload at 1e5 rows, untraced and traced, against the
    contract: result shape, metric names as in BENCHMARK.json, answers
    correct.  ``pyproject`` collects only ``tests/``, so this is the
    benchmark's own test."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if declared != manifest():
        print("BENCHMARK.json differs from `suite.py manifest`")
        return 1
    for traced, key in ((False, "end_to_end"), (True, "per_layer")):
        expected = {entry["name"]: entry["unit"] for entry in declared[key]}
        for name in workloads.WORKLOADS:
            run = run_once(name, 1, 1.0, traced, smoke=True)
            got = {n: m["unit"] for n, m in run["metrics"].items()}
            problems = []
            if got != expected:
                problems.append(f"metric set differs: {set(got) ^ set(expected)}")
            if not run["correct"] or run["failed"] or run["exit_code"]:
                problems.append(f"incorrect: {run['failed']} failed")
            if not traced and any(
                m["value"] <= 0 for m in run["metrics"].values()
            ):
                problems.append("an end-to-end metric is not positive")
            print(f"smoke {name:22s} trace={int(traced)} "
                  f"{'ok' if not problems else problems}")
            if problems:
                return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run")
    run.add_argument("--repeats", type=int, default=3)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--vary-seed", action="store_true",
                     help="repeat i uses seed+i (the driver's spread check)")
    run.add_argument("--seconds", type=float, default=RUN_SECONDS)
    run.add_argument("--traced", action="store_true")
    run.add_argument("--workloads", nargs="*")
    run.add_argument("--out")
    compare = commands.add_parser("compare")
    compare.add_argument("base")
    compare.add_argument("other")
    commands.add_parser("smoke")
    commands.add_parser("manifest")
    args = parser.parse_args(argv)
    if args.command == "run":
        return command_run(args)
    if args.command == "compare":
        return command_compare(args)
    if args.command == "smoke":
        return command_smoke(args)
    (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
