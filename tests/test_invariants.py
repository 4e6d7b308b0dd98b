"""The invariant-checking subsystem: clean runs stay clean, injected
corruption gets caught.

Two halves.  The first drives every backend through every fuzzer
workload kind with the full per-query invariant suite — the paper's
eight techniques must hold I1–I6 at every intermediate state.  The
second half *injects* specific corruptions (an off-by-one partition, a
duplicated rowid, a misaligned column, a tampered partition job, a
non-deterministic converged tree) and asserts the checkers report each
one — a checker that never fires is indistinguishable from no checker.
"""

import numpy as np
import pytest

from repro import (
    AdaptiveKDTree,
    InvariantViolationError,
    ProgressiveKDTree,
    Table,
    assert_invariants,
)
from repro.core import partition
from repro.fuzz import BACKENDS, FuzzCase, build_workload, run_backend_case
from repro.invariants import (
    InvariantMonitor,
    convergence_determinism_errors,
    partition_job_errors,
    structural_errors,
)
from tests.conftest import make_queries, make_uniform_table

KINDS = ["uniform", "skewed", "zoom", "duplicate"]


# ------------------------------------------------------- clean backends

@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("kind", KINDS)
def test_every_backend_passes_per_query_invariants(backend, kind):
    """Acceptance criterion: every backend, every workload kind, the full
    invariant suite after every query — via the fuzzer's own driver, so
    the fuzzer and the tests cannot drift apart."""
    case = FuzzCase(
        seed=7, kind=kind, n_rows=800, n_dims=2, n_queries=20,
        size_threshold=32, delta=0.25,
    )
    table, queries = build_workload(case)
    position, problems = run_backend_case(backend, table, queries, case)
    assert position is None, (
        f"{backend}/{kind} failed at query #{position}: {problems}"
    )


def test_assert_invariants_clean_on_fresh_and_warmed_index():
    table = make_uniform_table(1_000, 2, seed=80)
    index = AdaptiveKDTree(table, size_threshold=64)
    assert_invariants(index)  # nothing materialised yet: trivially clean
    for query in make_queries(table, 10, width_fraction=0.2, seed=81):
        index.query(query)
        assert_invariants(index)


# ------------------------------------------------- injected corruption

def _off_by_one(real):
    """Wrap ``stable_partition`` to return ``split + 1`` when legal —
    the classic boundary bug: one ``> pivot`` row lands in the left
    child."""

    def broken(arrays, start, end, key_index, pivot):
        split = real(arrays, start, end, key_index, pivot)
        return split + 1 if start < split + 1 < end else split

    return broken


def test_injected_off_by_one_partition_is_caught(monkeypatch):
    """Acceptance criterion: a deliberate off-by-one in the adaptive
    KD-Tree's partition call trips the path-bounds checker (I2)."""
    import repro.core.adaptive_kdtree as akd_module

    monkeypatch.setattr(
        akd_module, "stable_partition", _off_by_one(partition.stable_partition)
    )
    table = make_uniform_table(1_000, 2, seed=82)
    index = AdaptiveKDTree(table, size_threshold=32)
    caught = False
    for query in make_queries(table, 10, width_fraction=0.3, seed=83):
        index.query(query)
        problems = structural_errors(index)
        if problems:
            caught = True
            assert any("pivot" in p or "bound" in p for p in problems)
            break
    assert caught, "off-by-one partition was never detected"


def test_injected_off_by_one_in_eager_build_is_caught(monkeypatch):
    """The same bug in the up-front mean-pivot build is caught too."""
    import repro.baselines.full_kdtree as full_module

    monkeypatch.setattr(
        full_module, "stable_partition", _off_by_one(partition.stable_partition)
    )
    from repro import AverageKDTree

    table = make_uniform_table(1_000, 2, seed=84)
    index = AverageKDTree(table, size_threshold=32)
    index.query(next(iter(make_queries(table, 1, seed=85))))
    with pytest.raises(InvariantViolationError):
        assert_invariants(index)


def test_corrupted_rowid_is_caught():
    table = make_uniform_table(500, 2, seed=86)
    index = AdaptiveKDTree(table, size_threshold=32)
    for query in make_queries(table, 5, width_fraction=0.2, seed=87):
        index.query(query)
    assert_invariants(index)
    index.index_table.rowids[0] = index.index_table.rowids[1]  # duplicate
    problems = structural_errors(index)
    assert any("duplicate rowids" in p for p in problems)


def test_misaligned_column_is_caught():
    table = make_uniform_table(500, 2, seed=88)
    index = AdaptiveKDTree(table, size_threshold=32)
    for query in make_queries(table, 5, width_fraction=0.2, seed=89):
        index.query(query)
    index.index_table.columns[1][3] += 1_000.0  # no longer matches its rowid
    problems = structural_errors(index)
    assert any("misaligned" in p for p in problems)


def _pkd_with_paused_job():
    """Drive a PKD until a partition job is paused mid-piece."""
    table = make_uniform_table(4_000, 2, seed=90)
    index = ProgressiveKDTree(table, delta=0.05, size_threshold=64)
    for query in make_queries(table, 60, width_fraction=0.2, seed=91):
        index.query(query)
        if index.phase != "refinement":
            continue
        for leaf in index.tree.iter_leaves():
            job = getattr(leaf, "job", None)
            if job is not None and not job.done and job.lo > job.start:
                return index, leaf, job
    raise AssertionError("never observed a paused partition job")


def test_tampered_partition_job_pivot_is_caught():
    index, leaf, job = _pkd_with_paused_job()
    assert partition_job_errors(index.debug_state()) == []
    job.pivot += 1e6  # job no longer matches the piece's scheduled pivot
    problems = structural_errors(index)
    assert any("disagrees with scheduled pivot" in p for p in problems)


def test_misclassified_row_in_paused_job_is_caught():
    index, leaf, job = _pkd_with_paused_job()
    keys = index.index_table.columns[job.key_index]
    keys[job.start] = job.pivot + 1e6  # violates the classified-left region
    problems = structural_errors(index)
    assert any("classified-left" in p for p in problems)


def test_tampered_converged_tree_fails_determinism():
    rng = np.random.default_rng(92)
    table = Table.from_matrix(
        rng.integers(0, 1_000, size=(1_500, 2)).astype(np.float64)
    )
    index = ProgressiveKDTree(table, delta=1.0, size_threshold=64)
    for query in make_queries(table, 30, width_fraction=0.3, seed=93):
        index.query(query)
    assert index.converged
    assert convergence_determinism_errors(index) == []
    index.tree.arena.keys[0] += 0.5  # converged tree no longer matches eager build
    assert convergence_determinism_errors(index) != []


def test_monitor_catches_node_count_regression():
    table = make_uniform_table(1_000, 2, seed=94)
    index = AdaptiveKDTree(table, size_threshold=32)
    monitor = InvariantMonitor(index)
    for query in make_queries(table, 5, width_fraction=0.3, seed=95):
        index.query(query)
        monitor.assert_ok()
    index.tree.node_count -= 1
    problems = monitor.observe()
    assert any("shrank" in p for p in problems)


def test_monitor_catches_convergence_regression():
    table = make_uniform_table(600, 2, seed=96)
    index = ProgressiveKDTree(table, delta=1.0, size_threshold=64)
    monitor = InvariantMonitor(index)
    for query in make_queries(table, 20, width_fraction=0.3, seed=97):
        index.query(query)
        monitor.assert_ok()
    assert index.converged
    converged_leaf = next(
        leaf for leaf in index.tree.iter_leaves() if leaf.converged
    )
    converged_leaf.converged = False  # a converged piece must never reopen
    problems = monitor.observe()
    assert any("vanished" in p or "reverted" in p for p in problems)


def test_invariant_violation_error_reports_index_and_problems():
    error = InvariantViolationError("PKD", [f"problem {n}" for n in range(12)])
    assert error.index_name == "PKD"
    assert len(error.problems) == 12
    assert "problem 0" in str(error)
    assert "+2 more" in str(error)


# --------------------------------------------------- session integration

def test_session_validate_mode_and_check():
    from repro import ExplorationSession

    rng = np.random.default_rng(98)
    session = ExplorationSession(
        technique="progressive", size_threshold=64, validate=True
    )
    session.register(
        "t", {"x": rng.random(1_000) * 100, "y": rng.random(1_000) * 100}
    )
    for _ in range(10):
        low = float(rng.random() * 80)
        session.query("t", x=(low, low + 10), y=(low, low + 10))
    findings = session.check()
    assert findings == {"t/x,y": []}
