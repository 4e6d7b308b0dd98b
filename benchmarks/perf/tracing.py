"""Timing wrappers installed around each layer's public functions.

The program is not edited and ``repro.obs`` stays off: every span here
is recorded by a wrapper this file binds over a module attribute or a
class attribute of :mod:`repro`, *on the name the callers resolve*
(``from x import f`` bindings are rebound too, see :func:`_rebind`).

A span is one call of a wrapped function: name ``<layer>.<fn>``, start,
end, the span that caused it.  Spans stay in memory (one list per
thread, no lock on the hot path) and are written as JSONL when the run
ends.  A span's *self time* is its duration minus the part of that
interval its child spans cover: same-thread children are subtracted as
they finish; children running on other threads (pool workers under an
executor fan-out, the server's ``execute_query`` under the client's
round trip) are *adopted* and subtracted afterwards as the union of
their intervals, so two workers scanning at once are not taken off the
parent twice.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

_clock = time.perf_counter

#: span record layout (a tuple, appended once per finished call)
SPAN_ID, PARENT, NAME, THREAD, START, END, BUSY, SELF, ADOPTED, EXTRA = range(10)
#: frame layout (a list, lives on a thread's stack while the call runs)
_F_ID, _F_CHILD_BUSY = 0, 1


class Tracer:
    """Owns the wrappers, the span buffers and the cross-thread links."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.recording = False
        self._name_ids: Dict[str, int] = {}
        self._tls = threading.local()
        self._buffers: List[list] = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        #: frame of the executor fan-out in flight: root spans on pool
        #: worker threads adopt it as their parent.
        self._fanout: Optional[list] = None
        #: serve session id -> frame of that client's request in flight.
        self._inflight: Dict[str, list] = {}
        self._patched: List[tuple] = []

    # ------------------------------------------------------------ recording

    def _state(self):
        tls = self._tls
        try:
            return tls.stack, tls.spans
        except AttributeError:
            tls.stack, tls.spans = [], []
            with self._lock:
                self._buffers.append(tls.spans)
            return tls.stack, tls.spans

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _root_parent(self, adopt, args, kwargs):
        """Cross-thread parent of a span that opens on an empty stack."""
        if adopt is not None:
            return adopt(args, kwargs)
        from repro.parallel import config as parallel_config

        return self._fanout if parallel_config.in_worker() else None

    def wrap(
        self,
        name: str,
        fn: Callable,
        measure: Optional[Callable] = None,
        adopt: Optional[Callable] = None,
        fanout: bool = False,
        inflight_key: Optional[Callable] = None,
    ) -> Callable:
        """The timing wrapper for plain function ``fn``.

        ``measure(args, kwargs, result)`` yields the span's ``extra``
        (rows, pieces, a stats tuple).  ``fanout`` marks executor entry
        points whose pool tasks adopt this span; ``inflight_key`` marks
        the client call that the server-side span of the same session
        adopts (``adopt`` is the matching lookup on the server side).
        """
        name_id = self._name_id(name)
        state = self._state
        ids = self._ids
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack, spans = state()
            adopted = False
            if stack:
                parent = stack[-1]
                parent_id = parent[_F_ID]
            else:
                parent = None
                foster = tracer._root_parent(adopt, args, kwargs)
                parent_id = -1 if foster is None else foster[_F_ID]
                adopted = foster is not None
            frame = [next(ids), 0.0]
            stack.append(frame)
            previous_fanout = None
            if fanout:
                previous_fanout, tracer._fanout = tracer._fanout, frame
            key = None
            if inflight_key is not None:
                key = inflight_key(args, kwargs)
                tracer._inflight[key] = frame
            result = None
            start = _clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = _clock()
                stack.pop()
                if fanout:
                    tracer._fanout = previous_fanout
                if key is not None:
                    tracer._inflight.pop(key, None)
                busy = end - start
                if parent is not None:
                    parent[_F_CHILD_BUSY] += busy
                extra = None
                if measure is not None and result is not None:
                    extra = measure(args, kwargs, result)
                spans.append(
                    (
                        frame[_F_ID], parent_id, name_id,
                        threading.get_ident(), start, end, busy,
                        busy - frame[_F_CHILD_BUSY], adopted, extra,
                    )
                )

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """The wrapper for a generator function: one span per call whose
        busy time is the sum of the intervals the generator was running
        (the consumer's work between two ``next`` calls is not the
        generator's)."""
        name_id = self._name_id(name)
        state = self._state
        ids = self._ids
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                yield from fn(*args, **kwargs)
                return
            stack, spans = state()
            parent = stack[-1] if stack else None
            span_id = next(ids)
            iterator = fn(*args, **kwargs)
            busy = 0.0
            first = last = _clock()
            try:
                while True:
                    begin = _clock()
                    try:
                        value = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        last = _clock()
                        busy += last - begin
                    yield value
            finally:
                if parent is not None:
                    parent[_F_CHILD_BUSY] += busy
                spans.append(
                    (
                        span_id, -1 if parent is None else parent[_F_ID],
                        name_id, threading.get_ident(), first, last, busy,
                        busy, False, None,
                    )
                )

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------- patching

    def _rebind(self, original: Callable, wrapped: Callable) -> None:
        """Bind ``wrapped`` over every ``repro`` module global that is
        ``original`` — the defining module and each ``from x import f``."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._patched.append((module, attr, original))

    def patch_function(self, name: str, original: Callable, **options) -> None:
        self._rebind(original, self.wrap(name, original, **options))

    def patch_method(self, name: str, cls: type, attr: str, **options) -> None:
        original = vars(cls)[attr]
        if inspect.isgeneratorfunction(original):
            wrapped = self.wrap_generator(name, original)
        else:
            wrapped = self.wrap(name, original, **options)
        setattr(cls, attr, wrapped)
        self._patched.append((cls, attr, original))

    def uninstall(self) -> None:
        self.recording = False
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ reporting

    def spans(self) -> List[tuple]:
        with self._lock:
            buffers = list(self._buffers)
        merged: List[tuple] = []
        for buffer in buffers:
            merged.extend(buffer)
        return merged


def _union_length(intervals: List[tuple]) -> float:
    covered = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def self_times(spans: List[tuple]) -> Dict[int, float]:
    """Span id -> self seconds, adopted children taken off their parent."""
    by_parent: Dict[int, list] = defaultdict(list)
    for span in spans:
        if span[ADOPTED]:
            by_parent[span[PARENT]].append((span[START], span[END]))
    selfs = {span[SPAN_ID]: span[SELF] for span in spans}
    bounds = {
        span[SPAN_ID]: (span[START], span[END])
        for span in spans
        if span[SPAN_ID] in by_parent
    }
    for parent_id, intervals in by_parent.items():
        if parent_id not in bounds:
            continue
        low, high = bounds[parent_id]
        clipped = [
            (max(start, low), min(end, high))
            for start, end in intervals
            if end > low and start < high
        ]
        selfs[parent_id] = max(0.0, selfs[parent_id] - _union_length(clipped))
    return selfs


def aggregate(
    tracer: Tracer, spans: List[tuple], selfs: Dict[int, float]
) -> Dict[str, Dict[str, float]]:
    """Per wrapped name: calls, self/wall milliseconds, summed numeric
    ``extra``, longest call, and the list of non-numeric extras.
    ``selfs`` is :func:`self_times` of ``spans``."""
    table: Dict[str, Dict[str, float]] = {
        name: {"calls": 0, "self_ms": 0.0, "wall_ms": 0.0, "extra": 0,
               "max_ms": 0.0, "records": []}
        for name in tracer.names
    }
    for span in spans:
        row = table[tracer.names[span[NAME]]]
        row["calls"] += 1
        row["self_ms"] += selfs[span[SPAN_ID]] * 1e3
        row["wall_ms"] += span[BUSY] * 1e3
        row["max_ms"] = max(row["max_ms"], span[BUSY] * 1e3)
        extra = span[EXTRA]
        if isinstance(extra, (int, float)):
            row["extra"] += extra
        elif extra is not None:
            row["records"].append(extra)
    return table


def closure(
    tracer: Tracer, spans: List[tuple], selfs: Dict[int, float],
    wall_seconds: float, entry_points,
) -> Dict[str, object]:
    """Sum of layer self times under the timed public calls against the
    harness's own clock around those calls.

    The sum runs over every span reachable from a timed entry-point span
    (adopted ones included).  With fan-out the workers' spans overlap,
    so the sum may exceed the wall clock; a shortfall is time between
    the harness timer and the outermost wrapper and is reported with the
    entry point it belongs to, never dropped.
    """
    entry_ids = {tracer._name_ids[name] for name in entry_points
                 if name in tracer._name_ids}
    children: Dict[int, list] = defaultdict(list)
    for span in spans:
        children[span[PARENT]].append(span)
    attributed = 0.0
    pending = [span for span in spans
               if span[NAME] in entry_ids and span[PARENT] == -1]
    top = defaultdict(float)
    while pending:
        span = pending.pop()
        attributed += selfs[span[SPAN_ID]]
        if span[NAME] in entry_ids:
            top[tracer.names[span[NAME]]] += span[BUSY]
        pending.extend(children.get(span[SPAN_ID], ()))
    gap = wall_seconds - attributed
    report = {
        "wall_ms": wall_seconds * 1e3,
        "attributed_ms": attributed * 1e3,
        "unattributed_ms": gap * 1e3,
        "gap_share": gap / wall_seconds if wall_seconds else 0.0,
    }
    if gap > 0.10 * wall_seconds:
        # The only code between the harness clock and the outermost span
        # is the entry point's own call; name the busiest one.
        report["uncovered_caller"] = (
            max(top, key=top.get) if top else "no entry-point span recorded"
        )
    return report


def write_jsonl(
    tracer: Tracer, spans: List[tuple], selfs: Dict[int, float], path: str,
    meta: dict,
) -> None:
    import json

    names = tracer.names
    with open(path, "w") as handle:
        handle.write(json.dumps({"meta": meta, "spans": len(spans)}) + "\n")
        for span in spans:
            handle.write(
                '{"id":%d,"parent":%d,"name":"%s","thread":%d,'
                '"start":%.9f,"end":%.9f,"self":%.9f,"adopted":%s}\n'
                % (
                    span[SPAN_ID], span[PARENT], names[span[NAME]],
                    span[THREAD], span[START], span[END],
                    selfs[span[SPAN_ID]], "true" if span[ADOPTED] else "false",
                )
            )


# ---------------------------------------------------------------- the layers

def _rows_of_window(args, kwargs, result):
    # (columns|arrays, start, end, ...) -> rows in the window
    return int(args[2]) - int(args[1])


def _query_stats(args, kwargs, result):
    stats = result.stats
    phases = stats.phase_seconds
    return (
        stats.lookup_nodes, stats.scanned, stats.result_count,
        phases["initialization"], phases["adaptation"],
        phases["index_search"], phases["scan"],
    )


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer a query crosses."""
    from repro import kernels, session
    from repro.core import arena, cost_model, index_base, kdtree, partition
    from repro.parallel import executor
    from repro.serve import client, locks, protocol, server

    tracer.patch_function(
        "kernels.range_scan", kernels.range_scan, measure=_rows_of_window)
    tracer.patch_function(
        "kernels.stable_partition", kernels.stable_partition,
        measure=_rows_of_window)
    tracer.patch_method(
        "core.partition.advance", partition.IncrementalPartition, "advance",
        measure=lambda args, kwargs, used: int(used))

    tracer.patch_method(
        "core.index_base.scan_pieces", index_base.IndexTable, "scan_pieces",
        measure=lambda args, kwargs, parts: len(args[1]))
    tracer.patch_method(
        "core.index_base.scan_piece", index_base.IndexTable, "scan_piece")
    tracer.patch_method(
        "core.index_base.query", index_base.BaseIndex, "query",
        measure=_query_stats)
    tracer.patch_method(
        "core.index_base.query_batch", index_base.BaseIndex, "query_batch",
        measure=lambda args, kwargs, results: [
            _query_stats(None, None, result) for result in results])

    for attr in ("search", "probe", "search_batch", "search_batch_raw"):
        tracer.patch_method(f"core.arena.{attr}", arena.Arena, attr)
    for attr in ("search", "split_leaf", "iter_leaves_with_bounds"):
        tracer.patch_method(f"core.kdtree.{attr}", kdtree.KDTree, attr)
    for attr, value in list(vars(cost_model.CostModel).items()):
        if not attr.startswith("_") and inspect.isfunction(value):
            tracer.patch_method("core.cost_model", cost_model.CostModel, attr)

    tracer.patch_method("session.query", session.ExplorationSession, "query")
    tracer.patch_method(
        "session.run_batch", session.ExplorationSession, "run_batch")

    for attr in ("scan_range", "scan_pieces", "scan_match_sets",
                 "advance_jobs", "scan_windows"):
        tracer.patch_function(
            f"parallel.executor.{attr}", getattr(executor, attr),
            fanout=attr != "scan_windows")

    tracer.patch_method(
        "serve.client_query", client.ServeClient, "query",
        inflight_key=lambda args, kwargs: args[1])
    tracer.patch_method(
        "serve.execute_query", server.IndexServer, "execute_query",
        adopt=lambda args, kwargs: tracer._inflight.get(
            kwargs["session_id"] if "session_id" in kwargs else args[1]))
    tracer.patch_function("serve.encode_frame", protocol.encode_frame)
    tracer.patch_function("serve.decode_frame", protocol.decode_frame)
    for attr in ("acquire_read", "acquire_write"):
        tracer.patch_method(
            "serve.locks.acquire", locks.PieceSnapshotLock, attr)


#: the public calls the harness puts its own clock around.
ENTRY_POINTS = ("session.query", "session.run_batch", "serve.client_query")


def source_bytes(snapshot, filenames) -> int:
    """Bytes a ``tracemalloc`` snapshot attributes to the given files."""
    import tracemalloc

    filtered = snapshot.filter_traces(
        [tracemalloc.Filter(True, f"*{name}") for name in filenames]
    )
    return sum(stat.size for stat in filtered.statistics("filename"))
