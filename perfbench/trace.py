"""Span tracing for the benchmark's traced mode.

The benchmark wraps the public entry points of each program layer
from here — at the class attribute, or at the module attribute the
caller actually resolves — so the program itself stays untouched.
Every wrapped call records a span: name, start, end, busy time, the
span that was open when it started (its parent), and the id of the
statement it ran under.  The benchmark opens one root span per SQL
statement it sends; spans of one statement share that root's id.

Spans live in compact per-thread arrays while the run goes and are
written out once it ends (:meth:`Tracer.arrays`, :meth:`Tracer.dump`).

A span's *self time* is its busy time minus the busy time of its
direct children.  For a function call busy time is the call's wall
time.  For a returned iterator (``HeapTable.scan``, an AM ``scan``)
one span covers the creating call and every ``next()`` on it, and
busy time is the sum of those intervals, since the consumer's own
work runs between them.  Summed over a statement's tree, self times
telescope to the root's busy time exactly; the root's own self time
is the statement's unattributed remainder.
"""

from __future__ import annotations

import threading
from array import array
from dataclasses import dataclass, field
from time import perf_counter

#: Name of the per-statement root span the benchmark opens.
ROOT = "statement"
#: Wait event the session layer records for statement-lock waits.
LOCK_EVENT = "SessionStatementLock"


class _ThreadSpans:
    """One thread's spans as parallel arrays (index = span id)."""

    __slots__ = ("name", "parent", "stmt", "start", "end", "busy", "count", "stack")

    def __init__(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.stmt = array("i")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")
        #: Items a span handled (rows yielded, paths generated).
        self.count = array("q")
        #: Indices of the open spans, innermost last.
        self.stack: list[int] = []

    def open(self, name_id: int, stmt: int, start: float) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.stmt.append(stmt)
        self.start.append(start)
        self.end.append(start)
        self.busy.append(0.0)
        self.count.append(0)
        return idx


class Tracer:
    """Collects spans from every thread that runs wrapped code."""

    def __init__(self) -> None:
        self._names: dict[str, int] = {}
        self._name_list: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._next_stmt = 1
        #: Kind of each root statement, by statement id.
        self.kinds: dict[int, str] = {}
        #: Rows each root statement returned or changed.
        self.rows: dict[int, int] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = _ThreadSpans()
            self._local.spans = spans
            with self._lock:
                self._threads.append(spans)
        return spans

    def name_id(self, name: str) -> int:
        with self._lock:
            idx = self._names.get(name)
            if idx is None:
                idx = self._names[name] = len(self._name_list)
                self._name_list.append(name)
            return idx

    def _current_stmt(self, spans: _ThreadSpans) -> int:
        return spans.stmt[spans.stack[-1]] if spans.stack else 0

    def next_stmt_id(self) -> int:
        """Id the next root statement will get."""
        with self._lock:
            return self._next_stmt

    def _new_stmt(self, kind: str) -> int:
        with self._lock:
            stmt = self._next_stmt
            self._next_stmt += 1
        self.kinds[stmt] = kind
        return stmt

    def statement(self, kind: str) -> "_RootSpan":
        """Context manager around one SQL statement the benchmark sends."""
        return _RootSpan(self, kind)

    def call(self, name_id: int, fn, args, kwargs, counter=None):
        """Run ``fn`` inside a span; iterators it returns stay in it."""
        spans = self._spans()
        start = perf_counter()
        idx = spans.open(name_id, self._current_stmt(spans), start)
        spans.stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            spans.stack.pop()
            end = perf_counter()
            spans.end[idx] = end
            spans.busy[idx] += end - start
        if counter is not None:
            spans.count[idx] += counter(result)
        if hasattr(result, "__next__"):
            return _TracedIterator(result, spans, idx, counter is not None)
        return result

    def instant(self, name_id: int, elapsed: float) -> None:
        """Record a span that ended now and lasted ``elapsed`` seconds."""
        spans = self._spans()
        end = perf_counter()
        idx = spans.open(name_id, self._current_stmt(spans), end - elapsed)
        spans.end[idx] = end
        spans.busy[idx] = elapsed

    # ------------------------------------------------------------------
    # read-out
    # ------------------------------------------------------------------
    def arrays(self) -> dict:
        """Every span as one NumPy array per field.

        ``thread``, ``name`` (an index into ``names``), ``parent`` (an
        index among the same thread's spans, -1 for none), ``stmt``,
        ``start``, ``end``, ``busy``, ``count``; plus ``kind_stmt`` and
        ``kind``, the kind of each root statement.
        """
        import numpy as np

        fields = ("name", "parent", "stmt", "start", "end", "busy", "count")
        parts: dict[str, list] = {f: [] for f in fields + ("thread",)}
        for t, spans in enumerate(self._threads):
            for f in fields:
                column = getattr(spans, f)
                parts[f].append(np.frombuffer(column, dtype=column.typecode))
            parts["thread"].append(np.full(len(spans.name), t, dtype=np.int32))
        times = ("start", "end", "busy")
        out = {
            f: np.concatenate(p) if p else np.empty(0, np.float64 if f in times else np.int64)
            for f, p in parts.items()
        }
        stmts = sorted(self.kinds)
        out["names"] = np.array(self._name_list, dtype=str)
        out["kind_stmt"] = np.array(stmts, dtype=np.int64)
        out["kind"] = np.array([self.kinds[s] for s in stmts], dtype=str)
        return out

    @staticmethod
    def dump(arrays: dict, path) -> int:
        """Write :meth:`arrays` to a compressed ``.npz``; returns the span count."""
        import numpy as np

        np.savez_compressed(path, **arrays)
        return int(arrays["name"].shape[0])


class _RootSpan:
    __slots__ = ("tracer", "kind", "idx", "spans", "start")

    def __init__(self, tracer: Tracer, kind: str) -> None:
        self.tracer = tracer
        self.kind = kind

    def __enter__(self) -> "_RootSpan":
        tracer = self.tracer
        spans = tracer._spans()
        stmt = tracer._new_stmt(self.kind)
        self.spans = spans
        self.start = perf_counter()
        self.idx = spans.open(tracer.name_id(ROOT), stmt, self.start)
        spans.stack.append(self.idx)
        return self

    def set_rows(self, n: int) -> None:
        self.tracer.rows[self.spans.stmt[self.idx]] = n

    def __exit__(self, *exc) -> None:
        spans = self.spans
        spans.stack.pop()
        end = perf_counter()
        spans.end[self.idx] = end
        spans.busy[self.idx] = end - self.start


class _TracedIterator:
    """Iterator whose ``next()`` calls add to its creator's span."""

    __slots__ = ("_it", "_spans", "_idx", "_count_rows")

    def __init__(self, it, spans: _ThreadSpans, idx: int, count_rows: bool) -> None:
        self._it = it
        self._spans = spans
        self._idx = idx
        self._count_rows = count_rows

    def __iter__(self):
        return self

    def __next__(self):
        spans = self._spans
        idx = self._idx
        start = perf_counter()
        spans.stack.append(idx)
        try:
            item = next(self._it)
        finally:
            spans.stack.pop()
            end = perf_counter()
            spans.end[idx] = end
            spans.busy[idx] += end - start
        if self._count_rows:
            spans.count[idx] += len(item) if isinstance(item, list) else 1
        return item

    def close(self) -> None:
        close = getattr(self._it, "close", None)
        if close is not None:
            close()


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------
@dataclass
class StatementBreakdown:
    """One root statement's traced time split by span name."""

    kind: str
    traced: float
    self_by_name: dict[str, float] = field(default_factory=dict)
    calls_by_name: dict[str, int] = field(default_factory=dict)
    count_by_name: dict[str, int] = field(default_factory=dict)

    @property
    def unattributed(self) -> float:
        return self.self_by_name.get(ROOT, 0.0)


def breakdown(arrays: dict) -> dict[int, StatementBreakdown]:
    """Per-statement self time by span name from :meth:`Tracer.arrays`.

    Self time = busy time minus the busy time of direct children, so
    the values of one statement (root remainder included) sum to the
    root's traced time.
    """
    import numpy as np

    thread, parent = arrays["thread"], arrays["parent"]
    busy, stmt, name = arrays["busy"], arrays["stmt"], arrays["name"]
    names = [str(x) for x in arrays["names"]]
    kinds = dict(zip(arrays["kind_stmt"].tolist(), [str(k) for k in arrays["kind"]]))
    # Each thread's spans are contiguous; parents index within a thread.
    offsets = np.searchsorted(thread, np.arange(int(thread.max()) + 1 if len(thread) else 0))
    has_parent = parent >= 0
    parents = parent[has_parent] + offsets[thread[has_parent]]
    child_busy = np.bincount(parents, weights=busy[has_parent], minlength=len(busy))
    own = busy - child_busy

    in_stmt = stmt > 0
    key = stmt[in_stmt].astype(np.int64) * len(names) + name[in_stmt]
    keys, inverse = np.unique(key, return_inverse=True)
    self_sum = np.bincount(inverse, weights=own[in_stmt])
    calls = np.bincount(inverse)
    counts = np.bincount(inverse, weights=arrays["count"][in_stmt])
    root = names.index(ROOT) if ROOT in names else -1
    is_root = in_stmt & (name == root)
    traced = dict(zip(stmt[is_root].tolist(), busy[is_root].tolist()))

    out: dict[int, StatementBreakdown] = {}
    for k, total, n, c in zip(keys.tolist(), self_sum.tolist(), calls.tolist(), counts.tolist()):
        sid, span_name = divmod(k, len(names))
        entry = out.get(sid)
        if entry is None:
            entry = out[sid] = StatementBreakdown(
                kind=kinds.get(sid, ""), traced=traced.get(sid, 0.0)
            )
        label = names[span_name]
        entry.self_by_name[label] = total
        entry.calls_by_name[label] = n
        entry.count_by_name[label] = int(c)
    return out


# ----------------------------------------------------------------------
# wrapping the program's layer entry points
# ----------------------------------------------------------------------
def _count_len(result) -> int:
    return len(result)


def _layer_targets():
    """``(owner, attribute, span name, counter)`` for every entry point.

    Module attributes are patched where the caller resolves them: the
    session resolves ``parse_sql`` in its own module, the executor
    ``plan_select`` in its module, and so on.
    """
    import repro.common.graph as graph
    import repro.pase.hnsw as pase_hnsw
    import repro.pase.ivf_flat as pase_ivf
    import repro.pgsim.executor as executor
    import repro.pgsim.planner as planner
    import repro.pgsim.session as session
    from repro.pgsim.buffer import BufferManager
    from repro.pgsim.heapam import HeapTable
    from repro.pgsim.stats import StatsCollector
    from repro.pgsim.wal import WriteAheadLog

    targets = [
        (session, "parse_sql", "sql.parse", None),
        (executor, "plan_select", "planner.plan", None),
        (planner, "generate_paths", "planner.paths", _count_len),
        (executor.Executor, "execute_statement", "executor.execute", None),
        (StatsCollector, "begin", "stats.collect", None),
        (StatsCollector, "finish", "stats.collect", None),
        (StatsCollector, "record_statement", "stats.collect", None),
        (pase_ivf, "pase_kmeans", "kmeans.train", None),
        (pase_ivf, "sample_training_rows", "kmeans.sample", None),
        (graph, "search", "graph.search", None),
        (graph, "search_filtered", "graph.search", None),
        (graph, "search_layer", "graph.layer", None),
        (graph, "search_layer_filtered", "graph.layer", None),
        (graph, "greedy_descend", "graph.layer", None),
        (graph, "insert", "graph.insert", None),
        (graph, "repair_after_delete", "graph.repair", None),
        (graph, "_distance_rows", "distance.graph_rows", None),
        (HeapTable, "scan", "heapam.scan", True),
        (HeapTable, "scan_batches", "heapam.scan", True),
        (HeapTable, "insert", "heapam.write", None),
        (HeapTable, "update", "heapam.write", None),
        (HeapTable, "delete", "heapam.write", None),
        (HeapTable, "vacuum", "heapam.vacuum", None),
        (BufferManager, "pin", "buffer.pin", None),
        (WriteAheadLog, "flush", "wal.flush", None),
    ]
    for fetch in (
        "fetch",
        "fetch_column",
        "fetch_many",
        "fetch_column_many",
        "fetch_column_any",
        "fetch_column_many_any",
    ):
        targets.append((HeapTable, fetch, "heapam.fetch", None))
    for am in (pase_ivf.PaseIVFFlat, pase_hnsw.PaseHNSW):
        targets += [
            (am, "build", "am.build", None),
            (am, "insert", "am.insert", None),
            (am, "ambulkdelete", "am.bulkdelete", None),
            (am, "scan", "am.search", None),
            (am, "get_batch", "am.search", None),
            (am, "amrescan_continue", "am.filtered", None),
            (am, "amrescan_continue_batch", "am.filtered", None),
            (am, "amsearch_filtered", "am.filtered", None),
            (am, "amsearch_filtered_batch", "am.filtered", None),
        ]
    return targets, pase_ivf


class Instrumentation:
    """Installs and removes the tracing wrappers."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    @property
    def active(self) -> bool:
        return bool(self._saved)

    def install(self) -> None:
        if self._saved:
            return
        tracer = self.tracer
        targets, pase_ivf = _layer_targets()
        for owner, attr, name, counter in targets:
            original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr)
            if original is None:
                # Inherited method: wrap what the class resolves.
                original = getattr(owner, attr)
                self._saved.append((owner, attr, None))
            else:
                self._saved.append((owner, attr, original))
            count_fn = _count_none if counter is True else counter
            setattr(owner, attr, _wrap(tracer, original, tracer.name_id(name), count_fn))
        # Distance kernels: the IVF AM resolves factories in its module
        # and calls the kernels they return once per candidate/bucket.
        for factory in ("pairwise_kernel", "rows_kernel"):
            original = getattr(pase_ivf, factory)
            self._saved.append((pase_ivf, factory, original))
            setattr(pase_ivf, factory, _wrap_factory(tracer, original, "distance.kernel"))
        # Statement-lock waits are reported to the wait-event
        # accumulator after the fact; turn each into a span.
        from repro.common.obs import WaitEventStats

        original = WaitEventStats.__dict__["record"]
        self._saved.append((WaitEventStats, "record", original))
        lock_id = tracer.name_id("session.lock_wait")

        def record(stats, event, elapsed):
            if event == LOCK_EVENT:
                tracer.instant(lock_id, elapsed)
            return original(stats, event, elapsed)

        WaitEventStats.record = record

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def _count_none(result) -> int:
    # Row counts of scan iterators are added per next(); the call
    # itself handles none.
    return 0


def _wrap(tracer: Tracer, fn, name_id: int, counter):
    call = tracer.call

    def wrapper(*args, **kwargs):
        return call(name_id, fn, args, kwargs, counter)

    wrapper.__name__ = getattr(fn, "__name__", "wrapped")
    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_factory(tracer: Tracer, factory, name: str):
    name_id = tracer.name_id(name)

    def traced_factory(*args, **kwargs):
        return _wrap(tracer, factory(*args, **kwargs), name_id, None)

    return traced_factory
