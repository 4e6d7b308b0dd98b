"""The multi-session index server (:mod:`repro.serve`).

Layer by layer: protocol framing and deterministic table specs, the
writer-preferring snapshot lock, admission caps, the cross-tenant
refinement scheduler, the blocking server core (queries checked against
the serial oracle), the concurrent-reader snapshot guarantee, and the
full socket round trip through :class:`ServerThread` + `ServeClient`.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import kernels
from repro.core.metrics import QueryStats
from repro.errors import InvalidTableError
from repro.serve import (
    AdmissionCaps,
    AdmissionControl,
    AdmissionError,
    AdmissionRejected,
    IndexServer,
    PieceSnapshotLock,
    RefinementScheduler,
    ServeClient,
    ServeClientError,
    ServerThread,
    TableSpec,
    answer_checksum,
)
from repro.serve.protocol import (
    decode_frame,
    encode_frame,
    error_response,
    ok_response,
)


def oracle_answer(spec: TableSpec, bounds):
    """(count, checksum) ground truth via the reference kernel."""
    columns_by_name = spec.build_columns()
    group = sorted(bounds)
    columns = [np.asarray(columns_by_name[name], dtype=float) for name in group]
    from repro.core.query import RangeQuery

    query = RangeQuery(
        [bounds[name][0] for name in group],
        [bounds[name][1] for name in group],
    )
    positions = kernels.get_backend("reference").range_scan(
        columns, 0, int(columns[0].shape[0]), query, QueryStats()
    )
    return int(positions.size), answer_checksum(positions)


# ------------------------------------------------------------------ protocol


class TestProtocol:
    def test_frame_round_trip(self):
        payload = {"op": "query", "id": 3, "bounds": {"c0": [1.5, 2.5]}}
        assert decode_frame(encode_frame(payload)) == payload

    def test_frames_are_newline_terminated(self):
        assert encode_frame({"op": "hello"}).endswith(b"\n")

    def test_embedded_newlines_stay_inside_one_frame(self):
        payload = {"detail": "line one\nline two"}
        frame = encode_frame(payload)
        assert frame.count(b"\n") == 1  # only the terminator
        assert decode_frame(frame) == payload

    def test_ok_and_error_echo_request_id(self):
        request = {"op": "stats", "id": 41}
        assert ok_response(request)["id"] == 41
        error = error_response(request, "boom", "details", retry=True)
        assert error["id"] == 41
        assert error["retry"] is True
        assert error["ok"] is False

    def test_checksum_is_order_invariant(self):
        forward = np.arange(100, dtype=np.int64)
        shuffled = forward.copy()
        np.random.default_rng(0).shuffle(shuffled)
        assert answer_checksum(forward) == answer_checksum(shuffled)
        assert answer_checksum(forward) != answer_checksum(forward[:-1])


class TestTableSpec:
    def test_build_is_deterministic(self):
        a = TableSpec("t", "uniform", 500, 3, seed=9).build_columns()
        b = TableSpec("t", "uniform", 500, 3, seed=9).build_columns()
        assert list(a) == ["c0", "c1", "c2"]
        for name in a:
            assert np.array_equal(a[name], b[name])

    def test_seed_and_kind_change_the_data(self):
        base = TableSpec("t", "uniform", 300, 2, seed=0).build_columns()
        reseeded = TableSpec("t", "uniform", 300, 2, seed=1).build_columns()
        skewed = TableSpec("t", "skewed", 300, 2, seed=0).build_columns()
        assert not np.array_equal(base["c0"], reseeded["c0"])
        assert not np.array_equal(base["c0"], skewed["c0"])

    def test_parse_round_trip(self):
        spec = TableSpec.parse("taxi:duplicate:1000:4:5")
        assert spec == TableSpec("taxi", "duplicate", 1000, 4, seed=5)
        payload_copy = TableSpec.from_payload(spec.to_payload())
        assert payload_copy == spec

    def test_parse_rejects_garbage(self):
        with pytest.raises(Exception):
            TableSpec.parse("no-colons")
        with pytest.raises(Exception):
            TableSpec.parse("t:unknown_kind:100:2")


# -------------------------------------------------------------------- locks


class TestPieceSnapshotLock:
    def test_readers_share(self):
        lock = PieceSnapshotLock()
        with lock.read():
            with lock.read():
                assert lock.readers == 2
        assert lock.readers == 0

    def test_writer_excludes_readers(self):
        lock = PieceSnapshotLock()
        order = []
        with lock.write():
            reader = threading.Thread(
                target=lambda: (lock.acquire_read(), order.append("read"))
            )
            reader.start()
            time.sleep(0.05)
            order.append("write-held")
        reader.join(timeout=5)
        lock.release_read()
        assert order == ["write-held", "read"]

    def test_write_timeout_returns_false_while_reader_holds(self):
        lock = PieceSnapshotLock()
        with lock.read():
            begin = time.monotonic()
            assert lock.acquire_write(timeout=0.05) is False
            assert time.monotonic() - begin < 2.0
        # After the reader leaves, the writer side works again.
        assert lock.acquire_write(timeout=0.05) is True
        lock.release_write()

    def test_timed_out_writer_does_not_strand_readers(self):
        lock = PieceSnapshotLock()
        with lock.read():
            assert not lock.acquire_write(timeout=0.02)
            # Writer preference must be cleared: a new reader gets in
            # immediately instead of waiting behind a ghost writer.
            acquired = []
            reader = threading.Thread(
                target=lambda: (lock.acquire_read(), acquired.append(True))
            )
            reader.start()
            reader.join(timeout=5)
            assert acquired == [True]
            lock.release_read()
        lock.release_read()

    def test_writer_preference_blocks_new_readers(self):
        lock = PieceSnapshotLock()
        lock.acquire_read()
        states = {}

        def writer():
            lock.acquire_write()
            states["writer"] = time.monotonic()
            lock.release_write()

        def late_reader():
            lock.acquire_read()
            states["reader"] = time.monotonic()
            lock.release_read()

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        time.sleep(0.05)  # let the writer start waiting
        reader_thread = threading.Thread(target=late_reader)
        reader_thread.start()
        time.sleep(0.05)
        lock.release_read()  # first reader leaves; writer must win
        writer_thread.join(timeout=5)
        reader_thread.join(timeout=5)
        assert states["writer"] < states["reader"]


# ---------------------------------------------------------------- admission


class TestAdmission:
    def test_session_caps_per_tenant_and_global(self):
        control = AdmissionControl(
            AdmissionCaps(max_sessions=3, max_sessions_per_tenant=2)
        )
        control.admit_session("a")
        control.admit_session("a")
        with pytest.raises(AdmissionError):
            control.admit_session("a")  # tenant cap
        control.admit_session("b")
        with pytest.raises(AdmissionError):
            control.admit_session("c")  # global cap
        control.release_session("a")
        control.admit_session("c")  # freed capacity is reusable

    def test_inflight_cap_and_release(self):
        control = AdmissionControl(
            AdmissionCaps(max_inflight=2, max_inflight_per_tenant=1)
        )
        with control.inflight("a"):
            with pytest.raises(AdmissionError):
                with control.inflight("a"):
                    pass
            with control.inflight("b"):
                pass
        with control.inflight("a"):  # released on exit
            pass

    def test_rejections_are_counted_by_tenant_and_reason(self):
        control = AdmissionControl(AdmissionCaps(max_sessions_per_tenant=0))
        with pytest.raises(AdmissionError):
            control.admit_session("a")
        snapshot = control.snapshot()
        assert sum(snapshot["rejections"].values()) == 1
        (key,) = snapshot["rejections"]
        assert key.startswith("a/")


# ---------------------------------------------------------------- scheduler


def _spec_server(technique="greedy", **kwargs):
    server = IndexServer(technique=technique, size_threshold=256, **kwargs)
    spec = TableSpec("t", "uniform", 8_000, 3, seed=7)
    server.register_table("t", spec=spec)
    return server, spec


class TestScheduler:
    def test_refines_registered_index_to_convergence(self):
        server, spec = _spec_server()
        try:
            session = server.open_session("a")
            bounds = {"c0": (10.0, 30.0), "c1": (10.0, 30.0), "c2": (10.0, 30.0)}
            server.execute_query(session, "t", bounds)  # creates the index
            entry = next(iter(server._sessions[session].indexes.values()))
            # The scheduler only owns *refinement*; creation advances with
            # queries (the paper's per-query budget).  Drive it there.
            from repro.core.progressive_kdtree import CREATION

            while entry.index.phase == CREATION:
                server.execute_query(session, "t", bounds)
            deadline = time.monotonic() + 30
            while not entry.index.converged and time.monotonic() < deadline:
                server.scheduler.poke()
                time.sleep(0.01)
            assert entry.index.converged, "scheduler never converged the index"
            allocations = server.scheduler.allocations()
            assert allocations["a"]["rows"] > 0
            assert allocations["a"]["converged"] == 1
            # Converged answers still match the oracle.
            response = server.execute_query(session, "t", bounds)
            want_count, want_checksum = oracle_answer(spec, bounds)
            assert response["count"] == want_count
            assert response["checksum"] == want_checksum
        finally:
            server.close()

    def test_fair_share_tracks_weights(self):
        scheduler = RefinementScheduler()
        try:
            from repro.core import GreedyProgressiveKDTree, Table

            rng = np.random.default_rng(0)
            indexes = []
            for tenant, weight in (("light", 1.0), ("heavy", 3.0)):
                table = Table.from_matrix(rng.random((20_000, 2)) * 100)
                index = GreedyProgressiveKDTree(
                    table, delta=0.2, size_threshold=64
                )
                # Queries drive the index through creation; the scheduler
                # only takes over once it reaches the refinement phase.
                from repro.core.progressive_kdtree import CREATION
                from repro.core.query import RangeQuery

                probe = RangeQuery([10.0, 10.0], [20.0, 20.0])
                while index.phase == CREATION:
                    index.query(probe)
                lock = PieceSnapshotLock()
                scheduler.register(tenant, f"{tenant}/idx", index, lock, weight)
                indexes.append(index)
            deadline = time.monotonic() + 30
            while (
                not all(index.converged for index in indexes)
                and time.monotonic() < deadline
            ):
                scheduler.poke()
                time.sleep(0.01)
            allocations = scheduler.allocations()
            assert allocations["light"]["rows"] > 0
            assert allocations["heavy"]["rows"] > 0
            # Both converged: total work is similar, but the ledger must
            # show the weighting was applied while both were refinable
            # (heavy's per-weight share never exceeds light's by much).
            assert allocations["heavy"]["model_seconds"] > 0
        finally:
            scheduler.close()

    def test_paused_blocks_slices(self):
        server, _ = _spec_server()
        try:
            session = server.open_session("a")
            server.execute_query(
                session, "t", {"c0": (10.0, 30.0), "c1": (10.0, 30.0)}
            )
            with server.scheduler.paused():
                before = server.scheduler.slices_run
                server.scheduler.poke()
                time.sleep(0.1)
                assert server.scheduler.slices_run == before
                assert server.scheduler.quiescent
        finally:
            server.close()

    def test_close_stops_the_thread(self):
        scheduler = RefinementScheduler()
        assert scheduler.alive
        scheduler.close()
        assert not scheduler.alive

    def test_invariant_check_inside_a_slice_reports_i9(self, monkeypatch):
        """I9 sees the server's scheduler: a structural sweep run on a
        server index from inside one of its refinement slices reports
        the quiescence breach."""
        from repro.core.progressive_kdtree import CREATION
        from repro.invariants import structural_errors

        server, _ = _spec_server()
        findings = []
        try:
            session = server.open_session("a")
            bounds = {"c0": (10.0, 30.0), "c1": (10.0, 30.0)}
            server.execute_query(session, "t", bounds)
            (entry,) = server._sessions[session].indexes.values()
            index = entry.index
            refine_step = index._refine_step

            def checking_step(budget, probe, stats):
                # Queries run on this thread; slices on the scheduler's.
                if threading.current_thread() is not threading.main_thread():
                    findings.append(structural_errors(index))
                return refine_step(budget, probe, stats)

            monkeypatch.setattr(index, "_refine_step", checking_step)
            while index.phase == CREATION:
                server.execute_query(session, "t", bounds)
            deadline = time.monotonic() + 30
            while not findings and time.monotonic() < deadline:
                server.scheduler.poke()
                time.sleep(0.01)
        finally:
            server.close()
        assert findings, "the scheduler never ran a slice"
        assert any("mid-slice" in problem for problem in findings[0])


# -------------------------------------------------------------- server core


class TestIndexServerCore:
    def test_register_is_idempotent_for_identical_spec(self):
        server, spec = _spec_server()
        try:
            again = server.register_table("t", spec=spec)
            assert again["existing"] is True
            with pytest.raises(InvalidTableError):
                server.register_table(
                    "t", spec=TableSpec("t", "uniform", 8_000, 3, seed=8)
                )
        finally:
            server.close()

    @pytest.mark.parametrize("mode", ["adaptive", "snapshot"])
    def test_answers_match_oracle(self, mode):
        server, spec = _spec_server()
        try:
            session = server.open_session("a")
            rng = np.random.default_rng(5)
            for _ in range(8):
                low = rng.uniform(0, 60, size=3)
                high = low + rng.uniform(5, 30, size=3)
                bounds = {
                    f"c{d}": (float(low[d]), float(high[d])) for d in range(3)
                }
                response = server.execute_query(session, "t", bounds, mode=mode)
                want_count, want_checksum = oracle_answer(spec, bounds)
                assert response["count"] == want_count
                assert response["checksum"] == want_checksum
        finally:
            server.close()

    def test_return_ids_round_trip(self):
        server, spec = _spec_server()
        try:
            session = server.open_session("a")
            bounds = {"c0": (10.0, 40.0)}
            response = server.execute_query(
                session, "t", bounds, return_ids=True
            )
            ids = np.asarray(response["row_ids"], dtype=np.int64)
            assert answer_checksum(ids) == response["checksum"]
            assert ids.size == response["count"]
        finally:
            server.close()

    def test_column_subsets_get_separate_indexes(self):
        server, _ = _spec_server()
        try:
            session = server.open_session("a")
            server.execute_query(session, "t", {"c0": (0.0, 50.0)})
            server.execute_query(
                session, "t", {"c1": (0.0, 50.0), "c2": (0.0, 50.0)}
            )
            assert len(server._sessions[session].indexes) == 2
        finally:
            server.close()

    def test_check_is_clean_after_traffic(self):
        server, _ = _spec_server()
        try:
            session = server.open_session("a")
            for _ in range(5):
                server.execute_query(
                    session, "t", {"c0": (5.0, 60.0), "c1": (5.0, 60.0)}
                )
            findings = server.check()
            assert findings  # at least one index got checked
            assert all(not problems for problems in findings.values())
        finally:
            server.close()

    def test_close_session_unregisters_and_releases(self):
        server, _ = _spec_server(caps=AdmissionCaps(max_sessions_per_tenant=1))
        try:
            session = server.open_session("a")
            server.execute_query(session, "t", {"c0": (0.0, 50.0)})
            server.close_session(session)
            assert server.scheduler.allocations() == {}
            server.open_session("a")  # the cap slot was released
        finally:
            server.close()

    def test_stats_shape(self):
        server, _ = _spec_server()
        try:
            session = server.open_session("a")
            server.execute_query(session, "t", {"c0": (0.0, 50.0)})
            stats = server.stats()
            assert stats["queries_total"] == 1
            assert stats["tables"]["t"]["rows"] == 8_000
            assert stats["sessions"][session]["tenant"] == "a"
            assert "admission" in stats and "scheduler" in stats
        finally:
            server.close()


# ----------------------------------------- concurrent-reader snapshot reads


class TestSnapshotConcurrency:
    def test_reader_unblocked_while_other_tenant_refines(self):
        """A snapshot read on tenant A's index must complete, bit-identical
        to the serial oracle, while the scheduler is refining tenant B's
        index (cross-tenant isolation is structural: separate locks)."""
        server, spec = _spec_server()
        try:
            session_a = server.open_session("a")
            session_b = server.open_session("b")
            bounds = {"c0": (5.0, 70.0), "c1": (5.0, 70.0), "c2": (5.0, 70.0)}
            # Tenant A's index exists; B's index goes under heavy refinement.
            server.execute_query(session_a, "t", bounds)
            server.execute_query(session_b, "t", bounds)
            entry_b = next(iter(server._sessions[session_b].indexes.values()))
            # Hold B's writer lock on this thread, simulating a refinement
            # slice in flight on B.
            assert entry_b.lock.acquire_write(timeout=5)
            try:
                want_count, want_checksum = oracle_answer(spec, bounds)
                begin = time.monotonic()
                response = server.execute_query(
                    session_a, "t", bounds, mode="snapshot"
                )
                elapsed = time.monotonic() - begin
                assert response["count"] == want_count
                assert response["checksum"] == want_checksum
                assert elapsed < 5.0, (
                    "reader blocked behind another tenant's refinement"
                )
            finally:
                entry_b.lock.release_write()
        finally:
            server.close()

    def test_snapshot_reads_stay_consistent_during_refinement(self):
        """Snapshot reads racing the scheduler's refinement of the *same*
        index: every answer must still be bit-identical to the oracle —
        the reader always sees a complete piece set, never a half-moved
        one."""
        server = IndexServer(technique="greedy", size_threshold=128)
        spec = TableSpec("big", "uniform", 40_000, 3, seed=11)
        server.register_table("big", spec=spec)
        try:
            session = server.open_session("a")
            bounds = {"c0": (5.0, 70.0), "c1": (5.0, 70.0), "c2": (5.0, 70.0)}
            server.execute_query(session, "big", bounds)  # start refinement
            want_count, want_checksum = oracle_answer(spec, bounds)
            entry = next(iter(server._sessions[session].indexes.values()))
            mismatches = []
            for _ in range(50):
                server.scheduler.poke()
                response = server.execute_query(
                    session, "big", bounds, mode="snapshot"
                )
                if (
                    response["count"] != want_count
                    or response["checksum"] != want_checksum
                ):
                    mismatches.append(response["count"])
                if entry.index.converged:
                    break
            assert not mismatches, (
                f"snapshot reads diverged from the oracle during "
                f"refinement: counts {mismatches} != {want_count}"
            )
        finally:
            server.close()


class TestSnapshotReader:
    def test_sharded_snapshot_read_uses_the_shard_piece_sets(
        self, monkeypatch
    ):
        """After five identical adaptive queries the AKD pieces contain
        the query; a snapshot read of the 2-shard index must scan no
        more rows than the unsharded one (not the whole table) and
        return the same rows."""
        import repro.serve.server as server_module

        created = []

        def recording_stats():
            stats = QueryStats()
            created.append(stats)
            return stats

        monkeypatch.setattr(server_module, "QueryStats", recording_stats)
        rng = np.random.default_rng(0)
        columns = {"x": rng.random(200_000), "y": rng.random(200_000)}
        bounds = {"x": (0.31, 0.34), "y": (0.52, 0.55)}
        outcomes = {}
        for shards in (1, 2):
            server = IndexServer(
                technique="adaptive", size_threshold=1024, shards=shards
            )
            try:
                server.register_table("t", columns=columns)
                session = server.open_session("a")
                for _ in range(5):
                    server.execute_query(session, "t", bounds)
                created.clear()
                response = server.execute_query(
                    session, "t", bounds, mode="snapshot", return_ids=True
                )
            finally:
                server.close()
            scanned = sum(stats.scanned for stats in created)
            outcomes[shards] = (response["row_ids"], scanned)
        assert outcomes[1][0] and outcomes[2][0] == outcomes[1][0]
        assert outcomes[2][1] <= outcomes[1][1], outcomes


# -------------------------------------------------------------- socket layer


class TestSocketRoundTrip:
    def test_full_protocol_over_tcp(self):
        spec = TableSpec("wire", "uniform", 5_000, 2, seed=3)
        with ServerThread(IndexServer(size_threshold=256)) as handle:
            with ServeClient(handle.host, handle.port) as client:
                hello = client.hello()
                assert hello["protocol"] >= 1
                registered = client.register_spec(spec)
                assert registered["rows"] == 5_000
                # Racing re-registration of the same spec is idempotent.
                assert client.register_spec(spec)["existing"] is True
                session = client.open_session("tenant-x")
                bounds = {"c0": (10.0, 55.0), "c1": (10.0, 55.0)}
                for mode in ("adaptive", "snapshot"):
                    response = client.query(session, "wire", bounds, mode=mode)
                    want_count, want_checksum = oracle_answer(spec, bounds)
                    assert response["count"] == want_count
                    assert response["checksum"] == want_checksum
                check = client.check()
                assert check["problems"] == 0
                stats = client.stats()
                assert stats["queries_total"] == 2
                client.close_session(session)
                client.shutdown()

    def test_admission_rejection_is_retryable_on_the_wire(self):
        server = IndexServer(caps=AdmissionCaps(max_sessions_per_tenant=1))
        with ServerThread(server) as handle:
            with ServeClient(handle.host, handle.port) as client:
                client.open_session("t")
                with pytest.raises(AdmissionRejected):
                    client.open_session("t")
                client.shutdown()

    def test_unknown_table_is_a_typed_error(self):
        with ServerThread(IndexServer()) as handle:
            with ServeClient(handle.host, handle.port) as client:
                session = client.open_session("t")
                with pytest.raises(ServeClientError) as excinfo:
                    client.query(session, "nope", {"c0": (0.0, 1.0)})
                assert not isinstance(excinfo.value, AdmissionRejected)
                client.shutdown()

    def test_server_survives_malformed_frames(self):
        with ServerThread(IndexServer()) as handle:
            with ServeClient(handle.host, handle.port) as client:
                client._sock.sendall(b"this is not json\n")
                response = decode_frame(client._file.readline())
                assert response["ok"] is False
                assert response["error"] == "protocol"
                # The connection still works afterwards.
                assert client.hello()["ok"] is True
                client.shutdown()

    def test_no_threads_leak_after_stop(self):
        before = {t.name for t in threading.enumerate()}
        with ServerThread(IndexServer()) as handle:
            with ServeClient(handle.host, handle.port) as client:
                client.hello()
        time.sleep(0.2)
        leaked = {
            t.name
            for t in threading.enumerate()
            if t.name not in before
            and ("repro-serve" in t.name or "scheduler" in t.name)
        }
        assert not leaked, f"server threads leaked: {leaked}"
