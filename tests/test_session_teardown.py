"""Session teardown under active think-time refinement.

``ExplorationSession.close()`` (and the context-manager exit that calls
it) must stop the :class:`~repro.parallel.scheduler.RefinementScheduler`
thread it started: no leaked threads, the writer-lock handoff genuinely
held whenever invariants are checked, and the session still queryable
afterwards.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.parallel.scheduler import mid_slice
from repro.session import ExplorationSession

THREAD_NAME = "repro-refine-scheduler"


def _refine_thread_names():
    return [t.name for t in threading.enumerate() if t.name == THREAD_NAME]


def _join_refine_threads():
    for refiner_thread in threading.enumerate():
        if refiner_thread.name == THREAD_NAME:
            refiner_thread.join(timeout=5)


def _make_session(**kwargs):
    session = ExplorationSession(
        technique="greedy",
        size_threshold=256,
        background_refine=True,
        **kwargs,
    )
    rng = np.random.default_rng(2)
    session.register(
        "t", {"x": rng.random(6_000) * 100, "y": rng.random(6_000) * 100}
    )
    return session


class TestClose:
    def test_close_stops_refiner_threads(self):
        before = _refine_thread_names()
        session = _make_session()
        session.query("t", x=(10.0, 40.0), y=(10.0, 40.0))
        session.query("t", x=(10.0, 40.0))
        assert len(_refine_thread_names()) == len(before) + 1, (
            "background_refine=True should have started one scheduler "
            "for all of the session's indexes"
        )
        session.close()
        _join_refine_threads()
        assert _refine_thread_names() == before, "refiner thread leaked"

    def test_close_is_idempotent_and_session_stays_usable(self):
        session = _make_session()
        session.query("t", x=(10.0, 40.0))
        session.close()
        session.close()  # second close is a no-op
        result = session.query("t", x=(10.0, 40.0))
        assert result.count >= 0  # still answers (just without maintenance)
        session.query("t", y=(10.0, 40.0))  # a new index starts no thread
        assert not session._scheduler.alive
        assert session.check()  # and still checkable

    def test_context_manager_joins_threads(self):
        before = _refine_thread_names()
        with _make_session() as session:
            session.query("t", x=(5.0, 60.0), y=(5.0, 60.0))
            assert len(_refine_thread_names()) == len(before) + 1
        _join_refine_threads()
        assert _refine_thread_names() == before

    def test_context_manager_closes_on_exception(self):
        before = _refine_thread_names()
        with pytest.raises(RuntimeError):
            with _make_session() as session:
                session.query("t", x=(5.0, 60.0))
                raise RuntimeError("exploration went sideways")
        _join_refine_threads()
        assert _refine_thread_names() == before


class TestQuiescenceDuringChecks:
    def test_final_check_runs_with_refiner_quiescent(self, monkeypatch):
        """While ``session.check()`` inspects an index, no scheduler
        slice may be running on it — the structural sweep observes the
        index at rest (invariant I9's writer-lock handoff)."""
        session = _make_session()
        session.query("t", x=(10.0, 40.0), y=(10.0, 40.0))
        scheduler = session._scheduler
        observed = []

        import repro.invariants as invariants

        real_structural_errors = invariants.structural_errors

        def spying_structural_errors(checked_index):
            observed.append(
                scheduler.slicing is not checked_index
                and not mid_slice(checked_index)
            )
            return real_structural_errors(checked_index)

        # session.check() imports the symbol from repro.invariants at
        # call time, so patching the module attribute intercepts it.
        monkeypatch.setattr(
            invariants, "structural_errors", spying_structural_errors
        )
        findings = session.check()
        assert observed and all(observed), (
            "structural check ran while a refinement slice was mid-flight"
        )
        assert all(not problems for problems in findings.values())
        session.close()

    def test_refiner_made_progress_before_close(self):
        """The teardown tests must be exercising a *live* refiner: give
        it think time and require actual slices before closing."""
        session = _make_session()
        import time

        # Drive the GPKD through creation so think-time slices can run.
        from repro.core.progressive_kdtree import CREATION

        while session._tables["t"].indexes == {} or (
            next(iter(session._tables["t"].indexes.values())).phase
            == CREATION
        ):
            session.query("t", x=(10.0, 40.0), y=(10.0, 40.0))
        scheduler = session._scheduler
        deadline = time.monotonic() + 20
        while scheduler.slices_run == 0 and time.monotonic() < deadline:
            scheduler.poke()
            time.sleep(0.01)
        assert scheduler.slices_run > 0, "scheduler never ran a slice"
        session.close()
        assert not scheduler.alive
        # Post-close invariant sweep: the refiner's final state is clean.
        assert all(not problems for problems in session.check().values())
