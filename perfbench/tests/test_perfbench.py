"""Self-tests for the benchmark (not part of the program's test suite).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from data import (  # noqa: E402
    K,
    WriterModel,
    brute_topk,
    check_rows,
    dominates,
    make_dataset,
    recall_at_k,
    sq_distances,
)
from layers import check_sums  # noqa: E402
from trace import ROOT as ROOT_SPAN  # noqa: E402
from trace import Tracer, breakdown  # noqa: E402
from workloads import CONFIGS, Bench, Tally  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 5):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name


def test_workloads_match_the_command():
    assert [w["name"] for w in SPEC["workloads"]] == list(CONFIGS)
    assert {m["name"] for m in SPEC["end_to_end"]} >= {"setup_s"}
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(CONFIGS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_exactly_the_declared_metrics(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert "check failed" not in proc.stderr
    # Whole rounds only: the only failures are the probes' known fault,
    # the same number in every round.
    cfg = CONFIGS[workload]["tiny"]
    per_round = len(cfg.read_round) + len(cfg.probes)
    per_round += len(cfg.write_round) + 1 if cfg.write_round else 0
    rounds, rest = divmod(result["attempted"], per_round)
    assert rounds >= 1 and rest == 0
    assert result["failed"] % rounds == 0
    assert result["failed"] <= rounds * len(cfg.probes)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    units = {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], float), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("ivf_read_mix", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------
def test_brute_force_matches_a_plain_loop():
    data = make_dataset(11, 60, 4, 3, 4, 0.6)
    for query in data.queries:
        ids, dists = brute_topk(data.vectors, data.ids, query)
        loop = sorted(
            (sum((float(x) - float(y)) ** 2 for x, y in zip(vec, query)), int(i))
            for i, vec in zip(data.ids, data.vectors)
        )[:K]
        assert [i for __, i in loop] == ids.tolist()
        assert np.allclose([d for d, __ in loop], dists)
        mask = data.a < 500
        fids, fdists = brute_topk(data.vectors, data.ids, query, mask=mask)
        assert all(data.a[i] < 500 for i in fids)
        assert dominates(fdists, dists)
        assert recall_at_k(dists, dists) == 1.0
        assert recall_at_k(dists[:5], dists) == 0.5


def test_dataset_is_seeded_and_literals_round_trip():
    a, b = make_dataset(3, 20, 8, 2, 4, 0.6), make_dataset(3, 20, 8, 2, 4, 0.6)
    assert np.array_equal(a.vectors, b.vectors) and a.row_literals == b.row_literals
    other = make_dataset(4, 20, 8, 2, 4, 0.6)
    assert np.array_equal(a.vectors, other.vectors)  # the corpus is fixed
    assert not np.array_equal(a.queries, other.queries)
    assert not np.array_equal(a.a, other.a)
    parsed = np.array([float(x) for x in a.row_literals[0].split(",")], dtype=np.float32)
    assert np.array_equal(parsed, a.vectors[0])


def test_row_checks_catch_each_property():
    data = make_dataset(5, 40, 4, 1, 4, 0.6)
    q = data.queries[0]
    ids, dists = brute_topk(data.vectors, data.ids, q)
    rows = [(int(i), int(data.a[i]), float(d)) for i, d in zip(ids, dists)]

    def a_of(rid):
        return int(data.a[rid])

    def true(rid, d):
        return abs(sq_distances(data.vectors[rid : rid + 1], q)[0] - d) < 1e-3

    assert check_rows(rows, K, None, a_of, true) is None
    assert "rows" in check_rows(rows[:-1], K, None, a_of, true)
    assert "ordered" in check_rows(rows[::-1], K, None, a_of, true)
    cut = min(a for __, a, __ in rows)
    assert "fails" in check_rows(rows, K, cut, a_of, true)
    wrong = [(rows[0][0], rows[0][1], rows[0][2] + 1.0)] + rows[1:]
    assert "distance" in check_rows(wrong, K, None, a_of, true)
    assert not dominates([d - 1.0 for d in dists], dists)


def test_writer_model_tracks_versions():
    data = make_dataset(9, 10, 4, 1, 4, 0.6)
    model = WriterModel(data)
    q = data.queries[0]
    new = np.ones(4, dtype=np.float32)
    model.update(3, new)
    assert model.matches_version(3, q, float(sq_distances(data.vectors[3:4], q)[0]))
    assert model.matches_version(3, q, float(sq_distances(new[None, :], q)[0]))
    rid = model.insert(new, 7)
    assert rid == 10 and model.a[rid] == 7
    model.delete(3)
    assert 3 not in model.live and len(model.live) == 10
    rng = np.random.default_rng(0)
    assert all(model.pick_live(rng) in model.live for __ in range(50))


class _Answer:
    command = "SELECT"

    def __init__(self, rows):
        self.rows = rows


class _Session:
    """Stands in for a session: answers every statement with ``rows``."""

    def __init__(self, rows):
        self.rows = rows

    def execute(self, sql):
        return _Answer(self.rows)


def test_probe_counts_only_rows_out_of_order_as_the_known_fault():
    bench = Bench("ivf_churn", 1, 1.0, False, "tiny")
    bench.prepare()
    cut, data = bench.cfg.probe_cut, bench.data
    qi = bench.cfg.probes[0]
    dists = sq_distances(data.vectors[:cut], bench.probe_vectors[qi])
    good = [(int(i), int(data.a[i]), float(dists[i])) for i in np.argsort(dists)[:K]]
    outside = float(sq_distances(data.vectors[cut : cut + 1], bench.probe_vectors[qi])[0])
    cases = {
        "ordered": (good, 0, 0),
        "out of order": ([good[1], good[0]] + good[2:], 0, 1),
        "short": (good[:-1], 1, 0),
        "fails the predicate": (good[:-1] + [(cut, int(data.a[cut]), outside)], 1, 0),
        "wrong distance": ([(good[0][0], good[0][1], good[0][2] + 1.0)] + good[1:], 1, 0),
    }
    for label, (rows, failures, known) in cases.items():
        tally = Tally()
        bench.probe(_Session(rows), qi, tally)
        assert tally.attempted == 1, label
        assert (len(tally.failures), len(tally.known)) == (failures, known), label


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------
def _synthetic(spans, kinds):
    """Arrays in :meth:`Tracer.arrays` form from
    ``(thread, name, parent, stmt, busy)`` tuples."""
    names = sorted({s[1] for s in spans})
    return {
        "thread": np.array([s[0] for s in spans]),
        "name": np.array([names.index(s[1]) for s in spans]),
        "parent": np.array([s[2] for s in spans]),
        "stmt": np.array([s[3] for s in spans]),
        "busy": np.array([s[4] for s in spans], dtype=float),
        "count": np.zeros(len(spans), dtype=np.int64),
        "names": np.array(names),
        "kind_stmt": np.array(sorted(kinds)),
        "kind": np.array([kinds[k] for k in sorted(kinds)]),
    }


def test_self_time_on_synthetic_spans():
    spans = [
        # thread 0, statement 1: root 10 = exec 6 (+ pin 2) + parse 3 + 1 left
        (0, ROOT_SPAN, -1, 1, 10.0),
        (0, "executor.execute", 0, 1, 6.0),
        (0, "buffer.pin", 1, 1, 2.0),
        (0, "sql.parse", 0, 1, 3.0),
        # thread 1, statement 2: parents index within the thread
        (1, ROOT_SPAN, -1, 2, 5.0),
        (1, "buffer.pin", 0, 2, 1.5),
        (1, "buffer.pin", 0, 2, 1.5),
    ]
    out = breakdown(_synthetic(spans, {1: "knn", 2: "insert"}))
    one, two = out[1], out[2]
    assert one.kind == "knn" and one.traced == 10.0
    assert one.self_by_name == {
        ROOT_SPAN: 1.0,
        "executor.execute": 4.0,
        "buffer.pin": 2.0,
        "sql.parse": 3.0,
    }
    assert one.unattributed == 1.0
    assert two.self_by_name == {ROOT_SPAN: 2.0, "buffer.pin": 3.0}
    assert two.calls_by_name["buffer.pin"] == 2
    assert check_sums(out) is None
    out[1].self_by_name["sql.parse"] += 0.5
    assert check_sums(out) is not None


def test_live_tracer_sums_and_iterator_spans():
    tracer = Tracer()
    inner = tracer.name_id("heapam.fetch")
    outer = tracer.name_id("am.search")

    def fetch():
        return sum(range(1000))

    def gen():
        for i in range(3):
            tracer.call(inner, fetch, (), {})
            yield [i, i]

    with tracer.statement("knn") as root:
        it = tracer.call(outer, gen, (), {}, counter=lambda r: 0)
        rows = list(it)
        root.set_rows(len(rows))
    stmts = breakdown(tracer.arrays())
    (only,) = stmts.values()
    assert check_sums(stmts) is None
    assert only.calls_by_name == {ROOT_SPAN: 1, "am.search": 1, "heapam.fetch": 3}
    assert only.count_by_name["am.search"] == 6  # two rows per yielded list
    assert all(v >= 0 for v in only.self_by_name.values())
    assert tracer.rows == {1: 3}
