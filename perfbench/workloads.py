"""The three workloads, driven only through ``PgSimDatabase``/``Session``.

Each run: build the inputs and the oracles from the seed (untimed),
set the database up several times (timed; the last set-up is kept),
run whole rounds of a fixed statement sequence until the run's time
is up, then verify what the program returned.  Every statement's
answer is checked against the NumPy oracle or the writer model.

``attempted`` counts the statements of the timed rounds, so a fixed
number of failures per round is the same share of it in every run.
The set-up's warm-up reads and the checks after the rounds are
checked too, and any failure among them also fails the run.
"""

from __future__ import annotations

import resource
import statistics
import threading
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from data import (
    A_RANGE,
    K,
    WriterModel,
    brute_topk,
    check_rows,
    close,
    dominates,
    make_dataset,
    mixture,
    probe_queries,
    recall_at_k,
    sq_distances,
)
from trace import Instrumentation, Tracer, breakdown

INSERT_BATCH = 200


@dataclass(frozen=True)
class Config:
    n: int
    dim: int
    am: str
    #: ``WITH (...)`` options of the CREATE INDEX statement.
    index_options: str
    settings: tuple[str, ...]
    pool_pages: int
    n_queries: int
    #: Reader statements of one round, in order: ``None`` is a top-k
    #: KNN statement, an int ``c`` a hybrid ``WHERE a < c`` statement.
    read_round: tuple[int | None, ...]
    #: Writer statements of one round (churn only).
    write_round: tuple[str, ...] = ()
    setups: int = 3
    warmup: int = 20
    exhaustive_probes: int = 0
    #: Recall pass size after the final VACUUM (churn only).
    recall_queries: int = 0
    #: Ids re-read with ``SELECT vec ... WHERE id = x`` at the end.
    sampled_ids: int = 0
    lists: int = 0
    #: Rounds a timed run makes at least, however long they take: enough
    #: for 1 000 KNN and 100 hybrid statements.  Churn reads
    #: ``index_bytes`` and ``peak_rss_mb`` right after this round:
    #: pages VACUUM empties are not reused and the in-memory WAL keeps
    #: every record, so both grow with every round, and a fixed round
    #: keeps them independent of how many rounds the time allowed.
    min_rounds: int = 1
    #: The data's mixture: number of blobs and their spread.
    centers: int = 32
    spread: float = 0.6
    #: Fixed statements that reach the post-filter over-fetch paths
    #: (the re-scan past the first pass, the brute-force fallback),
    #: run once each at the end of every round: indices into the fixed
    #: probe-query stream, each queried with ``WHERE id < probe_cut``.
    #: Corpus, index and queries are the same in every run, so each
    #: one gives the same answer on every seed (see :meth:`Bench.probe`).
    probes: tuple[int, ...] = ()
    probe_cut: int = 0
    #: Rows of a fixed ``probe_items`` table, the first rows of the
    #: corpus under an index of their own, that the probes read
    #: instead of ``items`` (which the churn writer changes).
    probe_rows: int = 0


# Hybrid ``a < c`` cuts per round; c/1000 of the rows match.  The
# weights put each hybrid percentile in the middle of one class with a
# single latency mode.  Post-filter classes have two modes (one pass,
# or a second over-fetch pass when the first found fewer than k
# matches), so neither percentile may land on them.
#
# IVF: 0.1% (pre-filter) x3, 1% (in-filter) x3, 10%, 50%, 90%
# (post-filter) x1.  Sorted by latency the post-filter classes fill the
# lowest third, so the median sits mid in-filter and p90 mid pre-filter.
IVF_CUTS = (1, 10, 100, 1, 10, 500, 1, 10, 900)
# HNSW: 90% (post-filter) x2, 0.1% x2, 1%, 5% (pre-filter).  The median
# sits in the 0.1% class and p90 among 1%/5%.  A seeded 10% class
# cannot be kept: there the planner picks the post-filter with an
# over-fetch wider than ``pase.efs``, the wider re-scan emits closer
# rows after those already returned, and how many of its statements
# come back out of order (1-3%) changes with the seed.  The workload's
# probes run that path on fixed inputs instead.  50% is left out
# because its second-pass mode (about 45% of its statements) is the
# slowest of all and p90 would sit on its edge.
HNSW_CUTS = (900, 1, 10, 900, 1, 50)
# Churn: 90% only.  At least k rows match whatever the writer has done,
# and the only second mode is the statement-lock wait, which p90 falls
# inside.  Its probes force the post-filter at 2.5% on a fixed table,
# where the probed lists run dry and the brute-force fallback answers.
CHURN_CUTS = (900, 900, 900)


def _interleave(knn: int, cuts: tuple[int, ...]) -> tuple[int | None, ...]:
    """``knn`` KNN statements with the hybrid cuts spread evenly between."""
    out: list[int | None] = []
    per = knn // len(cuts)
    for c in cuts:
        out += [None] * per + [c]
    out += [None] * (knn - per * len(cuts))
    return tuple(out)


def _ivf(n: int, dim: int, settings: tuple[str, ...], **kw) -> Config:
    """IVF_FLAT over sqrt(n) lists, trained on about 2 000 rows, with
    one data blob per list so every seed gets similar list sizes."""
    lists = max(2, round(n**0.5))
    ratio = min(1.0, 2000 / n)
    return Config(
        n=n,
        dim=dim,
        am="pase_ivfflat",
        index_options=f"clusters = {lists}, sample_ratio = {ratio:g}, seed = 7",
        settings=("SET pase.nprobe = 8",) + settings,
        lists=lists,
        centers=lists,
        **kw,
    )


CONFIGS: dict[str, dict[str, Config]] = {
    "ivf_read_mix": {
        "full": _ivf(
            8000,
            128,
            ("SET enable_batch_exec = on",),
            pool_pages=16384,
            n_queries=200,
            read_round=_interleave(120, IVF_CUTS),
            setups=5,
            min_rounds=12,
            exhaustive_probes=5,
        ),
        "tiny": _ivf(
            1000,
            16,
            ("SET enable_batch_exec = on",),
            pool_pages=16384,
            n_queries=20,
            read_round=_interleave(18, IVF_CUTS),
            setups=1,
            warmup=2,
            exhaustive_probes=2,
        ),
    },
    "hnsw_small_pool": {
        "full": Config(
            n=1000,
            dim=256,
            am="pase_hnsw",
            index_options="bnn = 16, efb = 40, seed = 7",
            settings=("SET pase.efs = 96",),
            pool_pages=300,
            n_queries=200,
            read_round=_interleave(40, HNSW_CUTS),
            min_rounds=25,
            probes=(45, 53),
            probe_cut=100,
        ),
        "tiny": Config(
            n=200,
            dim=16,
            am="pase_hnsw",
            index_options="bnn = 8, efb = 20, seed = 7",
            settings=("SET pase.efs = 96",),
            pool_pages=24,
            n_queries=20,
            read_round=_interleave(12, HNSW_CUTS),
            setups=1,
            warmup=2,
            probes=(45, 53),
            probe_cut=20,
        ),
    },
    "ivf_churn": {
        "full": _ivf(
            2000,
            128,
            ("SET filtered_search_strategy = 'post-filter'",),
            pool_pages=16384,
            n_queries=200,
            read_round=_interleave(19, CHURN_CUTS),
            write_round=("insert", "update", "delete", "update") * 2,
            setups=7,
            recall_queries=100,
            sampled_ids=20,
            min_rounds=53,
            probes=(0, 1),
            probe_cut=10,
            probe_rows=400,
        ),
        "tiny": _ivf(
            1000,
            16,
            ("SET filtered_search_strategy = 'post-filter'",),
            pool_pages=16384,
            n_queries=20,
            read_round=_interleave(9, CHURN_CUTS),
            write_round=("insert", "update", "delete", "update"),
            setups=1,
            warmup=2,
            recall_queries=10,
            sampled_ids=5,
            min_rounds=2,
            probes=(0, 1),
            probe_cut=10,
            probe_rows=400,
        ),
    },
}

# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class Tally:
    """Latencies by statement kind plus the attempted/failed count."""

    lat: dict[str, list[float]] = field(default_factory=dict)
    recalls: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: Failures of the known out-of-order fault: counted as failed,
    #: but they leave the run correct.
    known: list[str] = field(default_factory=list)
    seconds: float = 0.0
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def add(self, kind: str, seconds: float) -> None:
        with self._lock:
            self.lat.setdefault(kind, []).append(seconds)

    def check(self, reason: str | None, known: str | None = None) -> None:
        with self._lock:
            self.attempted += 1
            if reason is not None:
                self.failures.append(reason)
            elif known is not None:
                self.known.append(known)


def _pct(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
class Bench:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, scale: str):
        self.cfg = CONFIGS[workload][scale]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tracer = Tracer() if trace else None
        self.instr = Instrumentation(self.tracer) if trace else None
        self.tally = Tally()
        self.attempted = 0

    # -- statements -----------------------------------------------------
    def execute(self, session, sql: str, kind: str, tally: Tally | None = None):
        """Send one statement; time it; record its latency under ``kind``."""
        tracer = self.tracer if self.instr is not None and self.instr.active else None
        if tracer is not None:
            with tracer.statement(kind) as root:
                start = perf_counter()
                result = session.execute(sql)
                elapsed = perf_counter() - start
                root.set_rows(_rows_touched(result))
        else:
            start = perf_counter()
            result = session.execute(sql)
            elapsed = perf_counter() - start
        if tally is not None:
            tally.add(kind, elapsed)
        return result, elapsed

    # -- inputs and oracles (untimed) ------------------------------------
    def prepare(self) -> None:
        cfg = self.cfg
        self.data = data = make_dataset(
            self.seed, cfg.n, cfg.dim, cfg.n_queries, cfg.centers, cfg.spread
        )
        self.insert_sql = [f"INSERT INTO items VALUES {rows}" for rows in self._value_lists(cfg.n)]
        cuts = sorted(c for c in set(cfg.read_round) if c is not None)
        self.read_sql = {}
        for qi, lit in enumerate(data.query_literals):
            for cut in [None] + cuts:
                where = "" if cut is None else f"WHERE a < {cut} "
                self.read_sql[(qi, cut)] = (
                    f"SELECT id, a, vec <-> '{lit}'::PASE FROM items {where}"
                    f"ORDER BY vec <-> '{lit}'::PASE LIMIT {K}"
                )
        # Brute-force answers (sorted top-k distances), unfiltered and
        # per cut, over the loaded rows.
        self.matching = {c: int((data.a < c).sum()) for c in cuts}
        self.oracle = {}
        for qi, q in enumerate(data.queries):
            dists = sq_distances(data.vectors, q)
            self.oracle[(qi, None)] = np.sort(dists)[:K]
            for c in cuts:
                self.oracle[(qi, c)] = np.sort(dists[data.a < c])[:K]
        self.probe_vectors, literals = probe_queries(data)
        table = "probe_items" if cfg.probe_rows else "items"
        self.probe_sql = {
            qi: f"SELECT id, a, vec <-> '{literals[qi]}'::PASE FROM {table} "
            f"WHERE id < {cfg.probe_cut} ORDER BY vec <-> '{literals[qi]}'::PASE LIMIT {K}"
            for qi in cfg.probes
        }
        self.probe_oracle = {
            qi: np.sort(sq_distances(data.vectors[: cfg.probe_cut], self.probe_vectors[qi]))[:K]
            for qi in cfg.probes
        }
        self.probe_load_sql = [
            f"INSERT INTO probe_items VALUES {rows}"
            for rows in self._value_lists(min(cfg.probe_rows, cfg.n))
        ]

    def _value_lists(self, n: int) -> list[str]:
        """``VALUES`` lists of the first ``n`` rows, ``INSERT_BATCH`` each."""
        data = self.data
        return [
            ", ".join(
                f"({i}, {int(data.a[i])}, '{data.row_literals[i]}'::PASE)"
                for i in range(start, min(n, start + INSERT_BATCH))
            )
            for start in range(0, n, INSERT_BATCH)
        ]

    # -- set-up (timed) --------------------------------------------------
    def setup_once(self) -> tuple[float, float, object, object]:
        """Create, load, index, ANALYZE and warm one database."""
        from repro.pgsim import PgSimDatabase

        cfg = self.cfg
        start = perf_counter()
        db = PgSimDatabase(buffer_pool_pages=cfg.pool_pages)
        session = db.session("bench")
        self.execute(session, "CREATE TABLE items (id INT4, a INT4, vec FLOAT4[])", "ddl")
        for sql in self.insert_sql:
            self.execute(session, sql, "load")
        writebacks = db.buffer.stats.snapshot()
        __, build = self.execute(
            session,
            f"CREATE INDEX ix ON items USING {cfg.am} (vec) WITH ({cfg.index_options})",
            "build",
        )
        self.build_writebacks = db.buffer.stats.delta(writebacks).dirty_writebacks
        self.execute(session, "ANALYZE items", "ddl")
        if cfg.probe_rows:
            self.execute(session, "CREATE TABLE probe_items (id INT4, a INT4, vec FLOAT4[])", "ddl")
            for sql in self.probe_load_sql:
                self.execute(session, sql, "load")
            self.execute(
                session,
                f"CREATE INDEX probe_ix ON probe_items USING pase_ivfflat (vec) WITH "
                f"(clusters = {round(cfg.probe_rows**0.5)}, sample_ratio = 1, seed = 7)",
                "ddl",
            )
            self.execute(session, "ANALYZE probe_items", "ddl")
        for sql in cfg.settings:
            self.execute(session, sql, "ddl")
        # Warm-up reads are part of set-up; their answers are checked.
        for qi in range(cfg.warmup):
            self.read(session, qi % cfg.n_queries, None, None)
        return perf_counter() - start, build, db, session

    def setup(self) -> None:
        setups, builds = [], []
        for i in range(self.cfg.setups):
            if self.instr is not None and i == self.cfg.setups - 1:
                self.instr.install()
                self.build_first_stmt = self.tracer.next_stmt_id()
            elapsed, build, db, session = self.setup_once()
            if self.instr is not None and self.instr.active:
                self.instr.remove()
            setups.append(elapsed)
            builds.append(build)
            if i + 1 < self.cfg.setups:
                db.close()
        self.db, self.session = db, session
        self.index = db.catalog.table("items").indexes["ix"].am
        self.sample_sizes()
        self.setup_s = statistics.median(setups)
        self.build_s = statistics.median(builds)

    def sample_sizes(self) -> None:
        self.index_bytes = self.index.size_info().allocated_bytes
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- reads -----------------------------------------------------------
    def read(self, session, qi: int, cut: int | None, tally: Tally | None, defer=False):
        """One KNN (``cut`` None) or hybrid statement, checked against
        the loaded rows unless ``defer`` (churn readers are checked
        against the writer model after their round)."""
        kind = "knn" if cut is None else "hybrid"
        result, __ = self.execute(session, self.read_sql[(qi, cut)], kind, tally)
        rows = [(int(r[0]), int(r[1]), float(r[2])) for r in result.rows]
        if defer:
            return rows
        data = self.data
        query = data.queries[qi]
        expected = K if cut is None else min(K, self.matching[cut])
        reason = check_rows(
            rows,
            expected,
            cut,
            lambda rid: int(data.a[rid]) if 0 <= rid < len(data.a) else None,
            lambda rid, d: 0 <= rid < len(data.a)
            and close(d, sq_distances(data.vectors[rid : rid + 1], query)[0]),
        )
        if reason is None and not dominates([d for *__, d in rows], self.oracle[(qi, cut)]):
            reason = f"query {qi} cut {cut}: a distance beats the brute-force answer"
        target = tally if tally is not None else self.tally
        target.check(reason)
        if cut is None and tally is not None:
            tally.recalls.append(recall_at_k([d for *__, d in rows], self.oracle[(qi, None)]))
        return rows

    def probe(self, session, qi: int, tally: Tally) -> None:
        """One fixed statement on a post-filter over-fetch path.

        Checked like a hybrid statement, on its rows sorted by
        distance: exact-k, the predicate ``id < probe_cut``, true
        distances, never beating brute force.  A failure there fails
        the run.  Rows that pass all of that but came back out of
        distance order are the known fault of these paths (the wider
        re-scan or the fallback emits closer rows after farther ones):
        they count as failed and leave the run correct, so the count
        shows when the fault is mended or spreads.
        """
        cfg, data = self.cfg, self.data
        result, __ = self.execute(session, self.probe_sql[qi], "probe", tally)
        rows = [(int(r[0]), int(r[1]), float(r[2])) for r in result.rows]
        query = self.probe_vectors[qi]
        ordered = sorted(rows, key=lambda r: r[2])
        n_table = cfg.probe_rows or cfg.n
        reason = check_rows(
            ordered,
            min(K, cfg.probe_cut),
            None,
            lambda rid: int(data.a[rid]) if 0 <= rid < n_table else None,
            lambda rid, d: close(d, sq_distances(data.vectors[rid : rid + 1], query)[0]),
        )
        if reason is None and any(rid >= cfg.probe_cut for rid, *__ in rows):
            reason = f"a row fails id < {cfg.probe_cut}"
        if reason is None and not dominates([d for *__, d in ordered], self.probe_oracle[qi]):
            reason = "a distance beats the brute-force answer"
        known = None
        if reason is None and ordered != rows:
            known = f"probe {qi}: rows out of distance order {[round(d, 2) for *__, d in rows]}"
        tally.check(reason if reason is None else f"probe {qi}: {reason}", known)

    def read_phase(self, seconds: float, min_rounds: int) -> Tally:
        """Closed-loop reads in whole rounds until ``seconds`` pass and
        at least ``min_rounds`` rounds are done."""
        tally = Tally()
        cfg = self.cfg
        cursor = 0
        start = perf_counter()
        deadline = start + seconds
        rounds = 0
        while rounds < min_rounds or perf_counter() < deadline:
            for cut in cfg.read_round:
                self.read(self.session, cursor % cfg.n_queries, cut, tally)
                cursor += 1
            for qi in cfg.probes:
                self.probe(self.session, qi, tally)
            rounds += 1
        tally.seconds = perf_counter() - start
        return tally

    def exhaustive_check(self) -> None:
        """At nprobe = lists, IVF must return the exact top-k."""
        cfg = self.cfg
        if not cfg.exhaustive_probes:
            return
        self.execute(self.session, f"SET pase.nprobe = {cfg.lists}", "ddl")
        for qi in range(cfg.exhaustive_probes):
            rows = self.read(self.session, qi, None, None)
            got = [d for *__, d in rows]
            want = self.oracle[(qi, None)]
            self.tally.check(
                None if close(got, want) else f"nprobe=lists query {qi}: {got} != {want}"
            )
        self.execute(self.session, "SET pase.nprobe = 8", "ddl")

    # -- churn -----------------------------------------------------------
    def churn_setup_model(self) -> None:
        self.model = WriterModel(self.data)
        self.writer = self.db.session("writer")
        self.round_no = 0

    def churn_round(self, tally: Tally) -> None:
        cfg = self.cfg
        model = self.model
        rng = np.random.default_rng((self.seed, self.round_no))
        fresh, literals = mixture(rng, self.data.centers, self.data.spread, len(cfg.write_round))
        errors: list[BaseException] = []
        reads: list[tuple[int, int | None, list]] = []
        first_query = self.round_no * len(cfg.read_round)

        def writer() -> None:
            try:
                for i, op in enumerate(cfg.write_round):
                    if op == "insert":
                        a = int(rng.integers(0, A_RANGE))
                        rid = model.insert(fresh[i], a)
                        sql = f"INSERT INTO items VALUES ({rid}, {a}, '{literals[i]}'::PASE)"
                        want = "INSERT 0 1"
                    elif op == "update":
                        rid = model.pick_live(rng)
                        model.update(rid, fresh[i])
                        sql = f"UPDATE items SET vec = '{literals[i]}'::PASE WHERE id = {rid}"
                        want = "UPDATE 1"
                    else:
                        rid = model.pick_live(rng)
                        model.delete(rid)
                        sql = f"DELETE FROM items WHERE id = {rid}"
                        want = "DELETE 1"
                    result, __ = self.execute(self.writer, sql, op, tally)
                    tally.check(
                        None if result.command == want else f"{sql[:40]}: {result.command}"
                    )
                result, __ = self.execute(self.writer, "VACUUM items", "vacuum", tally)
                tally.check(None if result.command.startswith("VACUUM") else result.command)
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        def reader() -> None:
            try:
                for j, cut in enumerate(cfg.read_round):
                    qi = (first_query + j) % cfg.n_queries
                    reads.append((qi, cut, self.read(self.session, qi, cut, tally, True)))
                for qi in cfg.probes:
                    self.probe(self.session, qi, tally)
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        self.round_no += 1
        for qi, cut, rows in reads:
            query = self.data.queries[qi]
            tally.check(
                check_rows(
                    rows,
                    K,
                    cut,
                    model.a.get,
                    lambda rid, d: model.matches_version(rid, query, d),
                )
            )

    def churn_phase(self, seconds: float, min_rounds: int) -> Tally:
        tally = Tally()
        start = perf_counter()
        deadline = start + seconds
        rounds = 0
        while rounds < min_rounds or perf_counter() < deadline:
            self.churn_round(tally)
            rounds += 1
            if self.round_no == self.cfg.min_rounds:
                self.sample_sizes()
        tally.seconds = perf_counter() - start
        return tally

    def churn_final(self, tally: Tally) -> None:
        """Final VACUUM, then count, sampled rows and recall vs the model."""
        cfg = self.cfg
        model = self.model
        self.execute(self.writer, "VACUUM items", "vacuum", tally)
        result, __ = self.execute(self.session, "SELECT count(*) FROM items", "ddl")
        count = int(result.rows[0][0])
        self.tally.check(
            None if count == len(model.live) else f"count(*) {count} != {len(model.live)}"
        )
        rng = np.random.default_rng((self.seed, 10**6))
        ever = sorted(model.versions)
        for rid in rng.choice(ever, size=min(cfg.sampled_ids, len(ever)), replace=False):
            rid = int(rid)
            result, __ = self.execute(
                self.session, f"SELECT vec FROM items WHERE id = {rid}", "ddl"
            )
            want = model.live.get(rid)
            if want is None:
                ok = not result.rows
            else:
                ok = len(result.rows) == 1 and np.array_equal(
                    np.asarray(result.rows[0][0], dtype=np.float32), want
                )
            self.tally.check(None if ok else f"row {rid} disagrees with the writer model")
        ids, vecs = model.live_arrays()
        for qi in range(cfg.recall_queries):
            query = self.data.queries[qi]
            rows = self.read(self.session, qi, None, None, True)
            self.tally.check(
                check_rows(
                    rows,
                    K,
                    None,
                    model.a.get,
                    lambda rid, d: rid in model.live
                    and close(d, sq_distances(model.live[rid][None, :], query)[0]),
                )
            )
            oracle = brute_topk(vecs, ids, query)[1]
            self.tally.recalls.append(recall_at_k([d for *__, d in rows], oracle))

    # -- run -------------------------------------------------------------
    def run(self) -> dict:
        self.prepare()
        self.setup()
        churn = bool(self.cfg.write_round)
        if churn:
            self.churn_setup_model()
        phase = self.churn_phase if churn else self.read_phase
        if not self.trace:
            main = phase(self.seconds, self.cfg.min_rounds)
        else:
            # Untraced half for the clean latencies, traced half for
            # the per-layer numbers; their ratio is the overhead.
            main = phase(self.seconds / 2, 1)
            counters = self._counters()
            self.instr.install()
            first = self.tracer.next_stmt_id()
            traced = phase(self.seconds / 2, 1)
            self.instr.remove()
            self.traced_counters = self._delta(counters)
            self.traced_tally = traced
            self.traced_first = first
        self._merge(main)
        if self.trace:
            self._merge(traced)
        if churn:
            self.churn_final(main)
        else:
            self.exhaustive_check()
        self.main = main
        return self.results()

    def _merge(self, tally: Tally) -> None:
        self.attempted += tally.attempted
        self.tally.failures += tally.failures
        self.tally.known += tally.known
        # Churn recall is taken once, after the final VACUUM.
        if not self.cfg.write_round:
            self.tally.recalls += tally.recalls

    # -- counters --------------------------------------------------------
    def _counters(self):
        db = self.db
        return (
            db.buffer.stats.snapshot(),
            db.wal.stats.snapshot(),
            self.index.scan_stats.snapshot(),
            db.waits.snapshot(),
        )

    def _delta(self, since):
        db = self.db
        return (
            db.buffer.stats.delta(since[0]),
            db.wal.stats.delta(since[1]),
            self.index.scan_stats.delta(since[2]),
            db.waits.delta(since[3]),
        )

    # -- metrics ---------------------------------------------------------
    def end_to_end(self) -> dict[str, tuple[float, str]]:
        main = self.main
        knn, hybrid = main.lat.get("knn", []), main.lat.get("hybrid", [])
        reads = len(knn) + len(hybrid) + len(main.lat.get("probe", []))
        if not self.cfg.write_round:
            self.sample_sizes()
        return {
            "setup_s": (self.setup_s, "s"),
            "index_build_s": (self.build_s, "s"),
            "index_bytes": (float(self.index_bytes), "bytes"),
            "peak_rss_mb": (self.peak_rss_mb, "MiB"),
            "knn_p50_ms": (statistics.median(knn) * 1e3, "ms"),
            "knn_p99_ms": (_pct(knn, 0.99) * 1e3, "ms"),
            "hybrid_p50_ms": (statistics.median(hybrid) * 1e3, "ms"),
            "hybrid_p90_ms": (_pct(hybrid, 0.90) * 1e3, "ms"),
            "read_qps": (reads / main.seconds, "statements/s"),
            "recall_at_10": (statistics.fmean(self.tally.recalls), "ratio"),
        }

    def write_metrics(self) -> dict[str, tuple[float, str]]:
        lat = self.main.lat
        inserts = lat.get("insert", [])
        keyed = lat.get("update", []) + lat.get("delete", [])
        writes = inserts + keyed
        vacuums = lat.get("vacuum", [])
        med = (lambda v: statistics.median(v) * 1e3) if writes else (lambda v: 0.0)
        return {
            "write.insert_p50_ms": (med(inserts), "ms"),
            "write.keyed_p50_ms": (med(keyed), "ms"),
            "write.p90_ms": (_pct(writes, 0.90) * 1e3 if writes else 0.0, "ms"),
            "write.qps": (len(writes) / self.main.seconds, "statements/s"),
            "write.vacuum_s": (statistics.median(vacuums) if vacuums else 0.0, "s"),
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        from layers import layer_metrics

        self.spans = self.tracer.arrays()
        self.stmts = stmts = breakdown(self.spans)
        metrics = layer_metrics(
            stmts,
            self.tracer.rows,
            first_stmt=self.traced_first,
            build_first=self.build_first_stmt,
            counters=self.traced_counters,
            build_writebacks=self.build_writebacks,
            n_rows=self.cfg.n,
        )
        untraced = statistics.median(self.main.lat["knn"])
        traced = statistics.median(self.traced_tally.lat["knn"])
        metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
        metrics.update(self.write_metrics())
        return metrics

    def results(self) -> dict:
        failures, known = self.tally.failures, self.tally.known
        if self.trace:
            metrics = self.per_layer()
        else:
            metrics = self.end_to_end()
        return {
            "correct": not failures,
            "attempted": self.attempted,
            "failed": len(failures) + len(known),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "failures": failures[:5],
            "known": known[:2],
        }


def _rows_touched(result) -> int:
    """Rows a statement returned, or changed (from its command tag)."""
    if result.rows:
        return len(result.rows)
    parts = (result.command or "").split()
    if parts and parts[-1].isdigit() and parts[0] in ("INSERT", "UPDATE", "DELETE"):
        return int(parts[-1])
    return 0
