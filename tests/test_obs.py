"""The observability layer: spans, metrics registry, and the hot-path hooks.

Covers the contract of :mod:`repro.obs` end to end:

* the no-op tracer emits nothing and installs no global state;
* every backend produces one ``query`` span per query and one ``phase``
  span per PhaseTimer activation, correctly parented;
* kernel spans are tagged with the active backend name;
* the partition/split instant events fire;
* the metrics registry (counters/gauges/histograms, labels, snapshot and
  diff semantics) behaves, and the instrumented layers feed it.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.obs as obs
from repro import kernels
from repro.bench.harness import INDEX_FACTORIES, make_index
from repro.core.metrics import PHASES, QueryStats
from repro.core.partition import IncrementalPartition
from repro.errors import InvalidParameterError
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry, diff
from repro.obs.sink import ListSink

from .conftest import make_queries, make_uniform_table


@pytest.fixture(autouse=True)
def obs_off():
    """Every test starts and ends with observability fully off."""
    obs.disable()
    obs.REGISTRY.reset()
    yield
    obs.disable()
    obs.REGISTRY.reset()


def spans(records, name=None):
    found = [r for r in records if r["type"] == "span"]
    if name is not None:
        found = [r for r in found if r["name"] == name]
    return found


def events(records, name=None):
    found = [r for r in records if r["type"] == "event"]
    if name is not None:
        found = [r for r in found if r["name"] == name]
    return found


# ---------------------------------------------------------------- no-op path


class TestDisabled:
    def test_flags_default_off(self):
        assert obs_trace.ENABLED is False
        assert obs_trace.TRACER is None
        assert obs_metrics.ENABLED is False
        assert obs.enabled() is False

    def test_queries_emit_nothing_when_disabled(self):
        table = make_uniform_table(500, 2, seed=11)
        index = make_index("AKD", table, size_threshold=64)
        for query in make_queries(table, 5, seed=12):
            index.query(query)
        assert obs_trace.TRACER is None
        assert len(obs.REGISTRY) == 0

    def test_capturing_scopes_the_tracer(self):
        with obs.capturing() as records:
            assert obs_trace.ENABLED is True
        assert obs_trace.ENABLED is False
        assert obs_trace.TRACER is None
        # Nothing was traced, so only the meta header is in the sink.
        assert all(r["type"] == "meta" for r in records)

    def test_enable_disable_idempotent(self):
        obs.enable()
        obs.enable()  # re-enable replaces the tracer, no leak
        assert obs_trace.ENABLED is True
        obs.disable()
        obs.disable()
        assert obs_trace.ENABLED is False


# ------------------------------------------------------------------- spans


class TestSpans:
    def test_meta_record_first(self):
        with obs.capturing(meta={"marker": "xyz"}) as records:
            pass
        assert records[0]["type"] == "meta"
        assert records[0]["version"] == 1
        assert records[0]["meta"]["marker"] == "xyz"
        assert "timestamp" in records[0]["meta"]
        assert "kernels" in records[0]["meta"]

    @pytest.mark.parametrize("name", sorted(INDEX_FACTORIES))
    def test_span_per_phase_per_query_all_backends(self, name):
        table = make_uniform_table(600, 2, seed=21)
        index = make_index(name, table, size_threshold=64)
        queries = make_queries(table, 4, seed=22)
        with obs.capturing(metrics=False) as records:
            for query in queries:
                index.query(query)
        query_spans = spans(records, "query")
        assert len(query_spans) == len(queries)
        for position, span in enumerate(query_spans):
            assert span["attrs"]["index"] == index.name
            assert span["attrs"]["query_number"] == position
            assert span["parent"] is None
            assert "result_count" in span["attrs"]
            assert "converged" in span["attrs"]
        # Every phase span is parented to a query span, its phase is one
        # of the four Fig. 6c phases, and every query owns at least one.
        ids = {span["id"] for span in query_spans}
        phase_spans = spans(records, "phase")
        assert phase_spans, f"{name} emitted no phase spans"
        owners = set()
        for span in phase_spans:
            assert span["attrs"]["phase"] in PHASES
            assert span["parent"] in ids
            owners.add(span["parent"])
        assert owners == ids

    def test_phase_span_durations_match_stats(self):
        table = make_uniform_table(800, 2, seed=23)
        index = make_index("AKD", table, size_threshold=64)
        (query,) = make_queries(table, 1, seed=24)
        with obs.capturing(metrics=False) as records:
            result = index.query(query)
        phase_spans = spans(records, "phase")
        by_phase = {}
        for span in phase_spans:
            phase = span["attrs"]["phase"]
            by_phase[phase] = by_phase.get(phase, 0.0) + span["dur"]
        for phase, total in by_phase.items():
            assert total == pytest.approx(
                result.stats.phase_seconds[phase], rel=0.5, abs=5e-3
            )

    def test_query_span_counter_deltas(self):
        table = make_uniform_table(800, 2, seed=25)
        index = make_index("AKD", table, size_threshold=64)
        (query,) = make_queries(table, 1, seed=26)
        with obs.capturing(metrics=False) as records:
            result = index.query(query)
        (span,) = spans(records, "query")
        counters = span.get("counters", {})
        assert counters.get("scanned", 0) == result.stats.scanned
        assert counters.get("copied", 0) == result.stats.copied

    def test_error_annotated_on_failing_query(self):
        table = make_uniform_table(200, 2, seed=27)
        index = make_index("AKD", table, size_threshold=64)

        def boom(query, stats):
            raise RuntimeError("injected")

        index._execute = boom
        (query,) = make_queries(table, 1, seed=28)
        with obs.capturing(metrics=False) as records:
            with pytest.raises(RuntimeError, match="injected"):
                index.query(query)
        (span,) = spans(records, "query")
        assert span["attrs"]["error"] == "RuntimeError"

    def test_numpy_scalars_coerced_in_attrs(self):
        with obs.capturing(metrics=False) as records:
            with obs_trace.TRACER.span("x", value=np.int64(7)):
                pass
        (span,) = spans(records, "x")
        assert span["attrs"]["value"] == 7
        assert type(span["attrs"]["value"]) is int


class TestKernelSpans:
    @pytest.mark.parametrize("backend", ["numpy", "reference"])
    def test_kernel_spans_tag_active_backend(self, backend):
        previous = kernels.active_name()
        try:
            kernels.use(backend)
            table = make_uniform_table(500, 2, seed=31)
            index = make_index("AKD", table, size_threshold=64)
            queries = make_queries(table, 3, seed=32)
            with obs.capturing(metrics=False) as records:
                for query in queries:
                    index.query(query)
            kernel_spans = spans(records, "kernel")
            assert kernel_spans, "no kernel spans recorded"
            assert {s["attrs"]["backend"] for s in kernel_spans} == {backend}
            assert {s["attrs"]["op"] for s in kernel_spans} <= {
                "range_scan", "stable_partition"
            }
            for span in kernel_spans:
                assert span["parent"] is not None
        finally:
            kernels.use(previous)

    def test_kernel_latency_histogram_fed(self):
        table = make_uniform_table(500, 2, seed=33)
        index = make_index("AKD", table, size_threshold=64)
        (query,) = make_queries(table, 1, seed=34)
        with obs.capturing(metrics=True):
            index.query(query)
        backend = kernels.active_name()
        histogram = obs.REGISTRY.histogram(
            "kernel.range_scan.seconds", backend=backend
        )
        assert histogram.count > 0
        assert histogram.total > 0.0


class TestEvents:
    def test_partition_lifecycle_events(self):
        rng = np.random.default_rng(41)
        keys = rng.random(400)
        arrays = [keys, np.arange(400, dtype=np.int64)]
        with obs.capturing(metrics=False) as records:
            job = IncrementalPartition(arrays, 0, 400, 0, 0.5)
            while not job.done:
                job.advance(50)
        starts = events(records, "partition.start")
        assert len(starts) == 1
        assert starts[0]["attrs"]["rows"] == 400
        assert starts[0]["attrs"]["pivot"] == 0.5
        pauses = events(records, "partition.pause")
        resumes = events(records, "partition.resume")
        completes = events(records, "partition.complete")
        assert len(completes) == 1
        assert completes[0]["attrs"]["split"] == job.split
        # Every pause was answered by a resume before completion.
        assert len(resumes) == len(pauses)

    def test_split_events_match_nodes_created(self):
        table = make_uniform_table(600, 2, seed=42)
        index = make_index("AKD", table, size_threshold=64)
        queries = make_queries(table, 4, seed=43)
        with obs.capturing(metrics=False) as records:
            stats = QueryStats()
            for query in queries:
                stats.merge(index.query(query).stats)
        splits = events(records, "split")
        assert len(splits) == stats.nodes_created
        for event in splits:
            attrs = event["attrs"]
            assert attrs["start"] < attrs["split"] < attrs["end"]
            assert attrs["left_size"] + attrs["right_size"] == (
                attrs["end"] - attrs["start"]
            )


# ------------------------------------------------------------------ metrics


class TestMetricsRegistry:
    def test_counter_get_or_create(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits", index="AKD")
        counter.inc()
        counter.inc(2)
        assert registry.counter("hits", index="AKD") is counter
        assert counter.value == 3
        assert registry.names() == ["hits{index=AKD}"]

    def test_counter_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            MetricsRegistry().counter("hits").inc(-1)

    def test_label_order_is_canonical(self):
        registry = MetricsRegistry()
        a = registry.counter("x", b=1, a=2)
        b = registry.counter("x", a=2, b=1)
        assert a is b
        assert registry.names() == ["x{a=2,b=1}"]

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(InvalidParameterError, match="counter"):
            registry.gauge("m")

    def test_gauge_last_write_wins(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(5)
        gauge.set(2)
        assert gauge.snapshot() == 2

    def test_histogram_buckets_and_stats(self):
        histogram = MetricsRegistry().histogram("lat")
        for value in (5e-7, 5e-4, 5e-4, 100.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["count"] == 4
        assert snap["min"] == 5e-7
        assert snap["max"] == 100.0
        assert snap["buckets"]["+inf"] == 1  # the 100s outlier
        assert snap["buckets"][repr(1e-3)] == 2
        assert histogram.mean == pytest.approx(snap["sum"] / 4)

    def test_snapshot_diff_window(self):
        registry = MetricsRegistry()
        registry.counter("n").inc(5)
        before = registry.snapshot()
        registry.counter("n").inc(3)
        registry.histogram("h").observe(0.5)
        delta = diff(before, registry.snapshot())
        assert delta["n"] == 3
        assert delta["h"]["count"] == 1
        # Unchanged keys are dropped from the window view.
        registry.counter("quiet").inc(0)
        assert "quiet" not in diff(registry.snapshot(), registry.snapshot())

    def test_index_feeds_registry(self):
        table = make_uniform_table(600, 2, seed=51)
        index = make_index("GPKD", table, size_threshold=64, delta=0.3)
        queries = make_queries(table, 5, seed=52)
        obs_metrics.enable()
        try:
            for query in queries:
                index.query(query)
        finally:
            obs_metrics.disable()
        registry = obs.REGISTRY
        assert registry.counter("index.queries", index="GPKD").value == 5
        assert registry.counter("index.scanned", index="GPKD").value > 0
        assert registry.histogram("query.seconds", index="GPKD").count == 5
        assert registry.gauge("index.nodes", index="GPKD").value == index.node_count

    def test_metrics_without_tracing(self):
        """metrics can meter alone — no tracer, no span records."""
        table = make_uniform_table(400, 2, seed=53)
        index = make_index("AKD", table, size_threshold=64)
        obs_metrics.enable()
        try:
            for query in make_queries(table, 2, seed=54):
                index.query(query)
        finally:
            obs_metrics.disable()
        assert obs_trace.TRACER is None
        assert obs.REGISTRY.counter("index.queries", index="AKD").value == 2


class TestSessionAndHarness:
    def test_session_query_span_wraps_index_query(self):
        from repro import ExplorationSession

        rng = np.random.default_rng(61)
        session = ExplorationSession(size_threshold=64)
        session.register("t", {"x": rng.random(500), "y": rng.random(500)})
        with obs.capturing() as records:
            session.query("t", x=(0.1, 0.6), y=(0.2, 0.7))
        (wrapper,) = spans(records, "session.query")
        assert wrapper["attrs"]["table"] == "t"
        assert wrapper["attrs"]["columns"] == "x,y"
        (query_span,) = spans(records, "query")
        assert query_span["parent"] == wrapper["id"]
        assert obs.REGISTRY.counter("session.queries", table="t").value == 1

    def test_run_workload_trace_round_trip(self, tmp_path):
        from repro.bench.harness import run_workload
        from repro.obs.sink import read_trace
        from repro.workloads.patterns import make_synthetic_workload

        workload = make_synthetic_workload(
            "uniform", n_rows=2_000, n_dims=2, n_queries=6, seed=71
        )
        path = tmp_path / "run.jsonl"
        run = run_workload("AKD", workload, size_threshold=64, trace=str(path))
        assert run.n_queries == 6
        # Tracing is off again after the harness returns.
        assert obs_trace.ENABLED is False
        records = read_trace(path)
        assert records[0]["type"] == "meta"
        assert records[0]["meta"]["index"] == "AKD"
        assert records[0]["meta"]["workload"] == workload.name
        assert len(spans(records, "query")) == 6

    def test_fuzz_feeds_registry(self):
        from repro.fuzz import run_fuzz

        obs_metrics.enable()
        try:
            report = run_fuzz(
                seed=3, queries=4, rows=300, backends=["akd"],
                kinds=["uniform"], size_threshold=32,
                log=lambda line: None,
            )
        finally:
            obs_metrics.disable()
        assert report.cases_run == 2  # query by query, then query_batch
        registry = obs.REGISTRY
        assert registry.counter("fuzz.cases", backend="akd", kind="uniform").value == 1
        assert registry.counter("fuzz.queries", backend="akd", kind="uniform").value == 4
