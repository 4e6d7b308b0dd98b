"""The differential fuzzer itself: clean runs, bug detection, shrinking,
and replay files.

The fuzzer is only trustworthy if (a) a healthy tree of backends comes
out clean, and (b) a genuinely buggy backend is detected, minimized to a
small reproducer, saved, and *replayable* — each half is pinned here,
with the same off-by-one injection the invariant tests use.
"""

import json
import os

import numpy as np
import pytest

from repro.core import partition
from repro.fuzz import (
    BACKENDS,
    WORKLOAD_KINDS,
    FuzzCase,
    FuzzFailure,
    build_workload,
    main,
    minimize_queries,
    replay,
    run_backend_case,
    run_fuzz,
)


def small_run(**overrides):
    settings = dict(
        seed=3, queries=10, rows=400, size_threshold=32, verbose=False,
        save_dir=None, log=lambda message: None,
    )
    settings.update(overrides)
    return run_fuzz(**settings)


# ------------------------------------------------------------ clean runs

def test_clean_run_reports_ok():
    report = small_run(backends=["fs", "akd", "pkd"], kinds=["uniform"])
    assert report.ok
    assert report.cases_run == 6  # query by query, then query_batch
    assert report.queries_run == 60


def test_workloads_are_reproducible():
    case = FuzzCase(seed=5, kind="zoom", n_rows=200, n_dims=2, n_queries=8)
    table_a, queries_a = build_workload(case)
    table_b, queries_b = build_workload(case)
    for dim in range(2):
        assert np.array_equal(table_a.column(dim), table_b.column(dim))
    for first, second in zip(queries_a, queries_b):
        assert np.array_equal(first.lows, second.lows)
        assert np.array_equal(first.highs, second.highs)


@pytest.mark.parametrize("kind", WORKLOAD_KINDS)
def test_every_kind_builds_and_runs(kind):
    case = FuzzCase(seed=1, kind=kind, n_rows=200, n_dims=2, n_queries=5)
    table, queries = build_workload(case)
    assert table.n_rows == 200
    assert len(queries) == 5
    position, problems = run_backend_case("akd", table, queries, case)
    assert position is None, problems


def test_degenerate_kind_has_a_constant_column():
    case = FuzzCase(
        seed=2, kind="degenerate", n_rows=150, n_dims=3, n_queries=5
    )
    table, _ = build_workload(case)
    assert any(
        np.unique(table.column(dim)).size == 1 for dim in range(3)
    )


def test_cli_exit_zero_on_clean_run(capsys):
    status = main(
        [
            "--seed", "0", "--queries", "5", "--rows", "300",
            "--backends", "fs,akd", "--kinds", "uniform,duplicate",
        ]
    )
    assert status == 0
    assert "OK" in capsys.readouterr().out


def test_cli_rejects_unknown_backend_and_kind():
    with pytest.raises(SystemExit):
        main(["--queries", "2", "--rows", "100", "--backends", "nope"])
    with pytest.raises(SystemExit):
        main(["--queries", "2", "--rows", "100", "--kinds", "nope"])


# -------------------------------------------------------- bug detection

def _inject_off_by_one(monkeypatch):
    """The same boundary bug the invariant tests use, fuzzer-facing."""
    import repro.core.adaptive_kdtree as akd_module

    real = partition.stable_partition

    def broken(arrays, start, end, key_index, pivot):
        split = real(arrays, start, end, key_index, pivot)
        return split + 1 if start < split + 1 < end else split

    monkeypatch.setattr(akd_module, "stable_partition", broken)


def test_fuzzer_catches_injected_bug_and_saves_replay(
    monkeypatch, tmp_path
):
    """Acceptance criterion end-to-end: injected off-by-one -> failure
    found, minimized, saved; replay file reproduces; minimization
    shrank the workload."""
    _inject_off_by_one(monkeypatch)
    report = small_run(
        backends=["akd"],
        kinds=["uniform"],
        queries=20,
        save_dir=str(tmp_path),
    )
    assert not report.ok
    failure = report.failures[0]
    assert failure.backend == "akd"
    assert failure.problems
    # Shrinking: the reproducer is no larger than the failing prefix,
    # and for this always-hot bug it collapses to very few queries.
    assert 1 <= len(failure.query_indices) <= failure.query_position + 1
    assert len(failure.query_indices) <= 3

    path = str(tmp_path / "fuzz-failure-akd-uniform-seed3.json")
    assert os.path.exists(path)
    payload = json.loads(open(path).read())
    assert payload["backend"] == "akd"
    assert payload["case"]["kind"] == "uniform"

    # Replay, bug still present: reproduces (returns True).
    messages = []
    assert replay(path, log=messages.append)
    assert any("reproduces" in m for m in messages)


def test_replay_reports_fixed_bug_as_non_reproducing(tmp_path):
    """A replay file for a since-fixed bug comes back clean."""
    case = FuzzCase(
        seed=3, kind="uniform", n_rows=400, n_dims=2, n_queries=20,
        size_threshold=32,
    )
    failure = FuzzFailure(
        backend="akd", case=case, query_position=4,
        problems=["stale"], query_indices=[0, 4],
    )
    path = str(tmp_path / "stale.json")
    with open(path, "w") as handle:
        handle.write(failure.to_json())
    messages = []
    assert not replay(path, log=messages.append)
    assert any("no longer reproduces" in m for m in messages)


def test_cli_exit_one_on_injected_bug(monkeypatch, tmp_path, capsys):
    _inject_off_by_one(monkeypatch)
    status = main(
        [
            "--seed", "3", "--queries", "15", "--rows", "400",
            "--backends", "akd", "--kinds", "uniform",
            "--save-dir", str(tmp_path),
        ]
    )
    assert status == 1
    assert "FAILURE" in capsys.readouterr().out


def test_minimizer_preserves_failure(monkeypatch):
    _inject_off_by_one(monkeypatch)
    case = FuzzCase(
        seed=3, kind="uniform", n_rows=400, n_dims=2, n_queries=20,
        size_threshold=32,
    )
    table, queries = build_workload(case)
    position, _ = run_backend_case("akd", table, queries, case)
    assert position is not None
    kept = minimize_queries("akd", table, queries, case, position)
    final_position, problems = run_backend_case(
        "akd", table, [queries[i] for i in kept], case
    )
    assert final_position is not None, "minimized workload must still fail"
    assert problems


def test_answer_mismatch_is_reported_distinctly():
    """A backend returning wrong rows (not just a broken structure) is
    reported as an answer mismatch against the full-scan reference."""

    class LyingFullScan:
        def __init__(self, table):
            self._inner = BACKENDS["fs"](table, None)

        def __getattr__(self, attribute):
            return getattr(self._inner, attribute)

        def query(self, query):
            result = self._inner.query(query)
            result.row_ids = result.row_ids[1:]  # drop one matching row
            return result

    case = FuzzCase(
        seed=4, kind="uniform", n_rows=300, n_dims=2, n_queries=10
    )
    table, queries = build_workload(case)
    BACKENDS["lying"] = lambda table, case: LyingFullScan(table)
    try:
        position, problems = run_backend_case("lying", table, queries, case)
    finally:
        del BACKENDS["lying"]
    assert position is not None
    assert any("answer mismatch" in p for p in problems)


def test_extra_rows_are_reported_as_unexpected():
    """An answer carrying a row the full scan does not return is an
    answer mismatch that names the unexpected row."""

    class PaddedFullScan:
        def __init__(self, table):
            self._inner = BACKENDS["fs"](table, None)

        def __getattr__(self, attribute):
            return getattr(self._inner, attribute)

        def query(self, query):
            result = self._inner.query(query)
            outside = np.setdiff1d(
                np.arange(self._inner.n_rows), result.row_ids
            )
            if outside.size:
                result.row_ids = np.append(result.row_ids, outside[0])
            return result

    case = FuzzCase(
        seed=4, kind="uniform", n_rows=300, n_dims=2, n_queries=10
    )
    table, queries = build_workload(case)
    BACKENDS["padded"] = lambda table, case: PaddedFullScan(table)
    try:
        position, problems = run_backend_case("padded", table, queries, case)
    finally:
        del BACKENDS["padded"]
    assert position == 0
    assert any("1 unexpected" in p for p in problems)


def test_index_table_corrupted_behind_the_tree_is_reported():
    """Overwriting the index table's values after a query breaks the
    structural invariants the per-query sweep checks."""
    from repro.core import AdaptiveKDTree

    class CorruptingAKD(AdaptiveKDTree):
        def query(self, query):
            result = super().query(query)
            self.index_table.columns[0][:] = 0.0
            return result

    case = FuzzCase(
        seed=4, kind="uniform", n_rows=400, n_dims=2, n_queries=6,
        size_threshold=32,
    )
    table, queries = build_workload(case)
    BACKENDS["corrupting"] = lambda table, case: CorruptingAKD(
        table, size_threshold=case.size_threshold
    )
    try:
        position, problems = run_backend_case(
            "corrupting", table, queries, case
        )
    finally:
        del BACKENDS["corrupting"]
    assert position == 0
    assert problems


# --------------------------------------------------- multi-session fuzzing


def test_session_fuzz_clean_run():
    """A fleet of healthy sessions interleaved over one shared table
    comes out with zero answer mismatches and zero invariant problems."""
    from repro.fuzz import run_session_fuzz

    problems = run_session_fuzz(
        seed=1, sessions=4, steps=40, rows=800, dims=2,
        size_threshold=32, log=lambda message: None,
    )
    assert problems == []


def test_session_fuzz_cycles_all_techniques():
    """With >= len(SESSION_TECHNIQUES) sessions every technique gets a
    seat, so cross-technique interference is actually exercised."""
    from repro.fuzz import SESSION_TECHNIQUES, run_session_fuzz

    assert len(set(SESSION_TECHNIQUES)) >= 4
    problems = run_session_fuzz(
        seed=2, sessions=len(SESSION_TECHNIQUES), steps=25, rows=600,
        dims=2, size_threshold=32, log=lambda message: None,
    )
    assert problems == []


def test_session_fuzz_cli_exit_zero(capsys):
    status = main(
        [
            "--sessions", "3", "--queries", "20", "--rows", "500",
            "--seed", "4", "--size-threshold", "32",
        ]
    )
    assert status == 0
    assert "fuzz --sessions 3: OK" in capsys.readouterr().out
