"""Per-layer metrics from the traced phase's spans and counter deltas.

Times are self times (see :mod:`trace`) summed over the statements of
the kind a metric is normalised by, then divided by their number.
Counts come from the program's own counters (``BufferStats``,
``WalStats``, the index's ``scan_stats``, the wait-event accumulator)
taken around the traced phase.  A layer that a workload does not
reach reads 0.
"""

from __future__ import annotations

from trace import LOCK_EVENT, ROOT, StatementBreakdown

READS = ("knn", "hybrid", "probe")
HYBRIDS = ("hybrid", "probe")
WRITES = ("insert", "update", "delete")


def _per(total: float, n: int) -> float:
    return total / n if n else 0.0


class _Phase:
    """The traced statements, with sums by span-name prefix."""

    def __init__(self, stmts: list[StatementBreakdown]) -> None:
        self.stmts = stmts

    def of(self, kinds) -> list[StatementBreakdown]:
        return [s for s in self.stmts if s.kind in kinds]

    def count(self, kinds) -> int:
        return len(self.of(kinds))

    def self_s(self, prefix: str, kinds=None) -> float:
        stmts = self.stmts if kinds is None else self.of(kinds)
        return float(
            sum(v for s in stmts for k, v in s.self_by_name.items() if k.startswith(prefix))
        )

    def calls(self, prefix: str, kinds=None) -> int:
        stmts = self.stmts if kinds is None else self.of(kinds)
        return sum(v for s in stmts for k, v in s.calls_by_name.items() if k.startswith(prefix))

    def items(self, prefix: str, kinds=None) -> int:
        stmts = self.stmts if kinds is None else self.of(kinds)
        return sum(v for s in stmts for k, v in s.count_by_name.items() if k.startswith(prefix))


def layer_metrics(
    stmts: dict[int, StatementBreakdown],
    rows: dict[int, int],
    first_stmt: int,
    build_first: int,
    counters,
    build_writebacks: int,
    n_rows: int,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as ``{name: (value, unit)}``."""
    phase = _Phase([s for sid, s in stmts.items() if sid >= first_stmt])
    build = _Phase(
        [s for sid, s in stmts.items() if build_first <= sid < first_stmt and s.kind == "build"]
    )
    buf, wal, scans, waits = counters
    n_stmt = len(phase.stmts)
    n_read = phase.count(READS)
    n_hybrid = phase.count(HYBRIDS)
    n_write = phase.count(WRITES)
    n_vacuum = phase.count(("vacuum",))
    rows_returned = sum(
        rows.get(sid, 0) for sid, s in stmts.items() if sid >= first_stmt and s.kind in READS
    )
    rows_touched = sum(rows.get(sid, 0) for sid in stmts if sid >= first_stmt)
    ms = 1e3

    return {
        "sql.parse_ms": (_per(phase.self_s("sql.") * ms, n_stmt), "ms/stmt"),
        "planner.plan_ms": (_per(phase.self_s("planner.") * ms, n_read), "ms/select"),
        "planner.paths": (_per(phase.items("planner.paths"), n_read), "paths/select"),
        "executor.self_ms": (_per(phase.self_s("executor.") * ms, n_stmt), "ms/stmt"),
        "stats.ms": (_per(phase.self_s("stats.") * ms, n_stmt), "ms/stmt"),
        "session.lock_wait_ms": (
            _per(waits.seconds.get(LOCK_EVENT, 0.0) * ms, n_stmt),
            "ms/stmt",
        ),
        "session.lock_waits": (_per(waits.counts.get(LOCK_EVENT, 0), n_stmt), "waits/stmt"),
        "am.search_ms": (_per(phase.self_s("am.search", READS) * ms, n_read), "ms/read"),
        "am.filtered_ms": (_per(phase.self_s("am.filtered") * ms, n_hybrid), "ms/hybrid"),
        "am.candidates": (_per(scans.candidates, n_read), "candidates/read"),
        "am.yield_ratio": (_per(rows_returned, scans.candidates), "rows/candidate"),
        "am.insert_ms": (_per(phase.self_s("am.insert") * ms, n_write), "ms/write"),
        "am.bulkdelete_ms": (_per(phase.self_s("am.bulkdelete") * ms, n_vacuum), "ms/vacuum"),
        "am.build_s": (build.self_s("am.build"), "s"),
        "kmeans.train_s": (build.self_s("kmeans."), "s"),
        "graph.search_ms": (_per(phase.self_s("graph.", READS) * ms, n_read), "ms/read"),
        "graph.insert_ms": (_per(build.self_s("graph.") * ms, n_rows), "ms/node"),
        "distance.ms": (_per(phase.self_s("distance.", READS) * ms, n_read), "ms/read"),
        "distance.calls": (_per(phase.calls("distance.", READS), n_read), "calls/read"),
        "heapam.fetch_ms": (_per(phase.self_s("heapam.fetch", READS) * ms, n_read), "ms/read"),
        "heapam.scan_ms": (_per(phase.self_s("heapam.scan") * ms, n_stmt), "ms/stmt"),
        "heapam.rows_examined": (_per(phase.items("heapam.scan"), rows_touched), "rows/row"),
        "heapam.write_ms": (_per(phase.self_s("heapam.write") * ms, n_write), "ms/write"),
        "heapam.vacuum_ms": (_per(phase.self_s("heapam.vacuum") * ms, n_vacuum), "ms/vacuum"),
        "buffer.pins": (_per(buf.hits + buf.misses, n_read), "pins/read"),
        "buffer.pin_ms": (_per(phase.self_s("buffer.pin") * ms, n_read), "ms/read"),
        "buffer.hit_ratio": (_per(buf.hits, buf.hits + buf.misses), "ratio"),
        "buffer.evictions": (_per(buf.evictions, n_read), "evictions/read"),
        "buffer.dirty_writebacks": (float(build_writebacks), "pages/build"),
        "wal.bytes": (_per(wal.bytes_written, n_write), "bytes/write"),
        "wal.records": (_per(wal.records, n_write), "records/write"),
        "wal.flushes": (_per(wal.flushes, n_write), "flushes/write"),
        "wal.flush_ms": (_per(phase.self_s("wal.flush") * ms, n_write), "ms/write"),
        "trace.unattributed_ms": (_per(phase.self_s(ROOT) * ms, n_stmt), "ms/stmt"),
    }


def check_sums(stmts: dict[int, StatementBreakdown]) -> str | None:
    """Each statement's self times must sum to its traced time."""
    for sid, s in stmts.items():
        total = sum(s.self_by_name.values())
        if abs(total - s.traced) > 1e-9 * max(1.0, len(s.self_by_name)) + 1e-12:
            return f"statement {sid}: self times sum to {total}, traced {s.traced}"
    return None
