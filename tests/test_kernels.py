"""The kernel backend registry, dispatch, and leaf zone maps.

Covers the pluggable-kernel contract end to end: registry/probe
behaviour (unknown names raise, unavailable backends fall back
silently), the session/harness selection hooks, and the zone-map
shortcuts — pruning and containment must change *work counters only*,
never answers, and containment must hand out an independent copy of the
rowid range (a view would be corrupted by later partitioning).
"""

import numpy as np
import pytest

from repro import ExplorationSession, RangeQuery, kernels
from repro.baselines.full_kdtree import AverageKDTree
from repro.bench.harness import run_workload
from repro.core.adaptive_kdtree import AdaptiveKDTree
from repro.core.metrics import QueryStats
from repro.core.progressive_kdtree import ProgressiveKDTree
from repro.core.table import Table
from repro.errors import InvalidParameterError
from repro.invariants import structural_errors, zone_map_errors
from repro.workloads.data import clustered_table
from repro.workloads.patterns import make_synthetic_workload, zoom_queries


@pytest.fixture
def small_uniform_workload():
    return make_synthetic_workload(
        "uniform", 2000, 3, 15, selectivity=0.02, seed=7
    )


@pytest.fixture(autouse=True)
def _restore_active_backend():
    """The dispatch is process-global; leave it as we found it."""
    previous = kernels.active_name()
    yield
    kernels.use(previous)


# ------------------------------------------------------------------ registry

def test_default_backend_is_fused_numpy():
    assert kernels.DEFAULT_BACKEND == "numpy"
    assert "numpy" in kernels.available_backends()
    assert "reference" in kernels.available_backends()
    assert sorted(kernels.registered_backends()) == ["numpy", "reference"]


def test_unknown_backend_raises():
    with pytest.raises(InvalidParameterError):
        kernels.use("vectorwise")
    with pytest.raises(InvalidParameterError):
        kernels.get_backend("vectorwise")


def test_unavailable_backend_falls_back_silently(monkeypatch):
    """A registered backend whose capability probe fails is listed but
    not available, and selecting it activates the default instead."""
    monkeypatch.setitem(
        kernels._FACTORIES, "absent", kernels.ReferenceBackend
    )
    monkeypatch.setitem(kernels._PROBES, "absent", lambda: False)
    assert "absent" in kernels.registered_backends()
    assert "absent" not in kernels.available_backends()
    kernels.use("reference")
    activated = kernels.use("absent")
    assert activated == kernels.DEFAULT_BACKEND
    assert kernels.active_name() == kernels.DEFAULT_BACKEND
    with pytest.raises(InvalidParameterError):
        kernels.get_backend("absent")


def test_use_returns_and_activates():
    assert kernels.use("reference") == "reference"
    assert kernels.active_name() == "reference"
    assert kernels.active_backend() is kernels.get_backend("reference")


def test_get_backend_caches_instances():
    assert kernels.get_backend("numpy") is kernels.get_backend("numpy")


def test_session_kernels_option():
    session = ExplorationSession(kernels="reference")
    assert session.kernels == "reference"
    assert kernels.active_name() == "reference"
    rng = np.random.default_rng(0)
    session.register("t", {"x": rng.random(500), "y": rng.random(500)})
    result = session.query("t", x=(0.1, 0.6), y=(0.2, 0.9))
    x = session.fetch("t", "x", result.row_ids)
    y = session.fetch("t", "y", result.row_ids)
    assert ((x > 0.1) & (x <= 0.6) & (y > 0.2) & (y <= 0.9)).all()


def test_session_rejects_unknown_kernels():
    with pytest.raises(InvalidParameterError):
        ExplorationSession(kernels="vectorwise")


def test_harness_kernels_option(small_uniform_workload):
    run = run_workload(
        "AKD",
        small_uniform_workload,
        size_threshold=64,
        validate=True,
        kernels="reference",
    )
    assert kernels.active_name() == "reference"
    assert run.n_queries == len(small_uniform_workload.queries)


# ------------------------------------------------------------------ zone maps

def _zoom_setup(n_rows=6000, n_queries=25):
    table = clustered_table(n_rows, 3, seed=11)
    mirror = Table.from_matrix(
        np.column_stack([table.column(dim) for dim in range(3)])
    )
    return table, mirror, zoom_queries(table, n_queries, 0.01)


def _full_scan_reference(mirror, query):
    columns = mirror.columns()
    return np.sort(
        kernels.get_backend("reference").range_scan(
            columns, 0, mirror.n_rows, query, QueryStats()
        )
    )


@pytest.mark.parametrize(
    "factory",
    [
        lambda table: AdaptiveKDTree(table, size_threshold=128),
        lambda table: ProgressiveKDTree(table, size_threshold=128, delta=0.3),
        lambda table: AverageKDTree(table, size_threshold=128),
    ],
    ids=["AKD", "PKD", "AvgKD"],
)
def test_zone_shortcuts_change_counters_not_answers(factory):
    """The Fig. 6 zoom workload over clustered data: the synopsis fires
    (nonzero pruned+contained across the indexes) while every answer
    stays equal to the full-scan reference, and the zone invariants
    (I7/I8) hold after every query."""
    table, mirror, queries = _zoom_setup()
    index = factory(table)
    fired = 0
    for query in queries:
        result = index.query(query)
        assert np.array_equal(
            np.sort(result.row_ids), _full_scan_reference(mirror, query)
        )
        fired += result.stats.pruned + result.stats.contained
        assert result.stats.pruned >= 0 and result.stats.contained >= 0
        assert structural_errors(index) == []
    state = index.debug_state()
    assert zone_map_errors(state) == []
    # Every leaf of a seeded tree carries a zone map.
    leaves = list(state.tree.iter_leaves())
    assert leaves and all(leaf.zone_lo is not None for leaf in leaves)


def test_zoom_workload_fires_zone_shortcuts():
    """At least one index must actually use the synopsis on the zoom
    workload — guards against the shortcuts silently never triggering."""
    table, mirror, queries = _zoom_setup()
    total = 0
    for factory in (
        lambda t: AdaptiveKDTree(t, size_threshold=128),
        lambda t: ProgressiveKDTree(t, size_threshold=128, delta=0.3),
        lambda t: AverageKDTree(t, size_threshold=128),
    ):
        index = factory(table)
        for query in queries:
            stats = index.query(query).stats
            total += stats.pruned + stats.contained
    assert total > 0


def test_containment_returns_an_independent_copy():
    """A contained piece's answer must not alias the index's rowid
    column: later reorganisation would silently rewrite the caller's
    result array."""
    rng = np.random.default_rng(3)
    table = Table.from_matrix(rng.random((4000, 2)))
    index = AdaptiveKDTree(table, size_threshold=256)
    # Whole-domain query: every piece is contained once zones exist.
    everything = RangeQuery([-1.0, -1.0], [2.0, 2.0])
    result = index.query(everything)
    assert result.stats.contained > 0
    assert np.array_equal(np.sort(result.row_ids), np.arange(4000))
    snapshot = result.row_ids.copy()
    # Force heavy reorganisation afterwards.
    for _ in range(5):
        lo = float(rng.random() * 0.8)
        index.query(RangeQuery([lo, lo], [lo + 0.1, lo + 0.1]))
    assert np.array_equal(result.row_ids, snapshot)
    assert not any(
        np.shares_memory(result.row_ids, array)
        for array in index.index_table.all_arrays
    )


def test_zone_maps_survive_splits_and_stay_tight():
    """Zones tighten monotonically down the tree and never lie (I7)."""
    table = clustered_table(5000, 2, seed=4)
    index = AdaptiveKDTree(table, size_threshold=64)
    for query in zoom_queries(table, 15, 0.02):
        index.query(query)
    state = index.debug_state()
    assert zone_map_errors(state) == []
    for leaf in state.tree.iter_leaves():
        if leaf.size == 0:
            continue
        for dim in range(2):
            values = state.index_table.columns[dim][leaf.start : leaf.end]
            assert leaf.zone_lo[dim] <= float(values.min())
            assert float(values.max()) <= leaf.zone_hi[dim]


def test_zone_invariant_checker_flags_a_lying_zone():
    table = clustered_table(2000, 2, seed=9)
    index = AdaptiveKDTree(table, size_threshold=128)
    index.query(RangeQuery([0.2, 0.2], [0.6, 0.6]))
    state = index.debug_state()
    leaf = max(state.tree.iter_leaves(), key=lambda piece: piece.size)
    # Narrow the zone to just below the actual max on dim 0 (without
    # inverting it, which would trip the ordering check first): I7 fires.
    values = state.index_table.columns[0][leaf.start : leaf.end]
    assert float(values.min()) < float(values.max())
    pinched = np.nextafter(float(values.max()), -np.inf)
    leaf.zone_hi = (pinched,) + tuple(leaf.zone_hi[1:])
    assert any("outside its zone" in p for p in zone_map_errors(state))


def test_zone_checker_flags_mixed_zoning():
    table = clustered_table(2000, 2, seed=9)
    index = AdaptiveKDTree(table, size_threshold=128)
    index.query(RangeQuery([0.2, 0.2], [0.6, 0.6]))
    state = index.debug_state()
    leaves = list(state.tree.iter_leaves())
    if len(leaves) < 2:
        pytest.skip("tree did not split")
    leaves[0].zone_lo = None
    leaves[0].zone_hi = None
    assert any("all-or-nothing" in p for p in zone_map_errors(state))


# --------------------------------------------------- dispatch smoke parity

@pytest.mark.parametrize("backend_name", kernels.available_backends())
def test_all_indexes_agree_across_backends(backend_name, small_uniform_workload):
    """One end-to-end pass per backend: identical answers and identical
    deterministic work counters for a mixed adaptive/progressive run."""
    kernels.use("reference")
    want = run_workload(
        "PKD", small_uniform_workload, size_threshold=64, delta=0.3
    )
    kernels.use(backend_name)
    got = run_workload(
        "PKD", small_uniform_workload, size_threshold=64, delta=0.3
    )
    assert [s.scanned for s in got.stats] == [s.scanned for s in want.stats]
    assert [s.swapped for s in got.stats] == [s.swapped for s in want.stats]
    assert [s.result_count for s in got.stats] == [
        s.result_count for s in want.stats
    ]
    assert got.node_counts == want.node_counts
