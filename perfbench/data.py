"""Seeded inputs and the independent oracles the benchmark checks against.

Everything here is computed from the benchmark's own copy of the
vectors and of column ``a`` with NumPy — never from the program's
output — so a wrong answer from the program cannot also be the
expected answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

K = 10
#: ``a`` is uniform over 0..A_RANGE-1, so ``a < c`` keeps c/A_RANGE.
A_RANGE = 1000
#: Distance agreement tolerance: the program scores in float32, the
#: oracle in float64.
RTOL = 1e-4
ATOL = 1e-3
#: Seed of the corpus (blob centres and rows), shared by every run.
DISTRIBUTION_SEED = 20240501
#: Seed of the fixed probe queries, also shared by every run.
PROBE_SEED = DISTRIBUTION_SEED + 1


@dataclass
class Dataset:
    """Base rows, query vectors and their SQL literals."""

    ids: np.ndarray
    a: np.ndarray
    vectors: np.ndarray
    queries: np.ndarray
    #: ``'x1,x2,...'`` literal text of every base row and query.
    row_literals: list[str]
    query_literals: list[str]
    centers: np.ndarray
    spread: float


def _literal(row: np.ndarray) -> str:
    return ",".join("%.2f" % v for v in row.tolist())


def _parse(literal: str) -> np.ndarray:
    # The program parses literal text; parse the same text so the
    # oracle's copy holds bit-identical float32 values.
    return np.array([float(x) for x in literal.split(",")], dtype=np.float32)


def mixture(rng: np.random.Generator, centers: np.ndarray, spread: float, n: int):
    """``n`` points of the Gaussian mixture, rounded to two decimals."""
    picks = rng.integers(0, centers.shape[0], n)
    points = centers[picks] + spread * rng.standard_normal((n, centers.shape[1]))
    literals = [_literal(row) for row in np.round(points, 2)]
    return np.vstack([_parse(s) for s in literals]) if n else np.empty(
        (0, centers.shape[1]), np.float32
    ), literals


def make_dataset(
    seed: int, n: int, dim: int, n_queries: int, n_centers: int, spread: float
) -> Dataset:
    """A fixed corpus, and queries and column ``a`` drawn by the seed.

    The corpus — ``n`` rows from a mixture of ``n_centers`` Gaussian
    blobs with unit-normal centres and per-coordinate standard
    deviation ``spread`` — is part of the workload, like a fixed ANN
    dataset, and the same in every run.  The seed draws the queries
    from the same mixture and the ``a`` value of every row; the churn
    workload also draws its write stream from it.
    """
    corpus = np.random.default_rng(DISTRIBUTION_SEED)
    centers = corpus.standard_normal((n_centers, dim))
    vectors, row_literals = mixture(corpus, centers, spread, n)
    rng = np.random.default_rng(seed)
    queries, query_literals = mixture(rng, centers, spread, n_queries)
    return Dataset(
        ids=np.arange(n, dtype=np.int64),
        a=rng.integers(0, A_RANGE, n),
        vectors=vectors,
        queries=queries,
        row_literals=row_literals,
        query_literals=query_literals,
        centers=centers,
        spread=spread,
    )


#: Length of the fixed probe-query stream.
PROBE_STREAM = 200


def probe_queries(data: Dataset) -> tuple[np.ndarray, list[str]]:
    """A fixed stream of ``PROBE_STREAM`` queries from the corpus mixture.

    Unlike :func:`make_dataset`'s queries they do not depend on the
    seed, so a statement built from them gives the same answer in
    every run.
    """
    return mixture(np.random.default_rng(PROBE_SEED), data.centers, data.spread, PROBE_STREAM)


# ----------------------------------------------------------------------
# brute force
# ----------------------------------------------------------------------
def sq_distances(vectors: np.ndarray, query: np.ndarray) -> np.ndarray:
    diff = vectors.astype(np.float64) - query.astype(np.float64)
    return np.einsum("ij,ij->i", diff, diff)


def brute_topk(
    vectors: np.ndarray, ids: np.ndarray, query: np.ndarray, k: int = K, mask=None
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k ``(ids, squared L2 distances)``, optionally over a mask."""
    if mask is not None:
        vectors, ids = vectors[mask], ids[mask]
    dists = sq_distances(vectors, query)
    order = np.lexsort((ids, dists))[:k]
    return ids[order], dists[order]


def close(a, b) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= ATOL + RTOL * np.abs(b)))


# ----------------------------------------------------------------------
# per-statement property checks
# ----------------------------------------------------------------------
def check_rows(rows, expected_len: int, cut: int | None, a_of, true_dist) -> str | None:
    """Properties every vector statement must have; returns a reason or None.

    ``rows`` are ``(id, a, distance)``.  Checks exact-k, non-decreasing
    distances, the predicate ``a < cut`` and that each distance is the
    row's true distance (``true_dist(id, dist)`` decides).
    """
    if len(rows) != expected_len:
        return f"returned {len(rows)} rows, expected {expected_len}"
    prev = -1.0
    for rid, a, dist in rows:
        if dist < prev - ATOL:
            return f"distances not ordered: {dist} after {prev}"
        prev = dist
        if a_of(rid) != a:
            return f"row {rid} has a={a}, expected {a_of(rid)}"
        if cut is not None and not a < cut:
            return f"row {rid} with a={a} fails a < {cut}"
        if not true_dist(rid, dist):
            return f"row {rid} distance {dist} matches no version of it"
    return None


def dominates(returned_dists, oracle_dists) -> bool:
    """No correct answer beats brute force: the i-th returned distance
    is at least the i-th smallest true distance."""
    return all(
        d >= o - ATOL - RTOL * abs(o) for d, o in zip(returned_dists, oracle_dists)
    )


def recall_at_k(returned_dists, oracle_dists) -> float:
    """Share of returned rows within the true k-th distance (tie-safe)."""
    if len(oracle_dists) == 0:
        return 1.0
    bound = oracle_dists[-1]
    hits = sum(1 for d in returned_dists if d <= bound + ATOL + RTOL * bound)
    return min(hits, len(oracle_dists)) / len(oracle_dists)


# ----------------------------------------------------------------------
# writer-side model for the churn workload
# ----------------------------------------------------------------------
class WriterModel:
    """Every version the writer ever wrote, per id, plus the live state.

    The writer records a version before it sends the statement, so a
    reader that sees the new row always finds it here.  Readers only
    read the model; the writer thread alone mutates it.
    """

    def __init__(self, data: Dataset) -> None:
        self.a: dict[int, int] = {int(i): int(a) for i, a in zip(data.ids, data.a)}
        self.versions: dict[int, list[np.ndarray]] = {
            int(i): [v] for i, v in zip(data.ids, data.vectors)
        }
        self.live: dict[int, np.ndarray] = {int(i): v for i, v in zip(data.ids, data.vectors)}
        self.next_id = int(data.ids[-1]) + 1 if len(data.ids) else 0
        self._live_ids: list[int] = [int(i) for i in data.ids]
        self._pos: dict[int, int] = {rid: p for p, rid in enumerate(self._live_ids)}

    def pick_live(self, rng: np.random.Generator) -> int:
        return self._live_ids[int(rng.integers(0, len(self._live_ids)))]

    def insert(self, vec: np.ndarray, a: int) -> int:
        rid = self.next_id
        self.next_id += 1
        self.a[rid] = a
        self.versions[rid] = [vec]
        self.live[rid] = vec
        self._pos[rid] = len(self._live_ids)
        self._live_ids.append(rid)
        return rid

    def update(self, rid: int, vec: np.ndarray) -> None:
        self.versions[rid].append(vec)
        self.live[rid] = vec

    def delete(self, rid: int) -> None:
        del self.live[rid]
        pos = self._pos.pop(rid)
        last = self._live_ids.pop()
        if last != rid:
            self._live_ids[pos] = last
            self._pos[last] = pos

    def matches_version(self, rid: int, query: np.ndarray, dist: float) -> bool:
        versions = self.versions.get(rid)
        if not versions:
            return False
        true = sq_distances(np.vstack(versions), query)
        return bool(np.any(np.abs(true - dist) <= ATOL + RTOL * true))

    def live_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Ids and current vectors of the live rows, for brute force."""
        ids = np.array(sorted(self.live), dtype=np.int64)
        return ids, np.vstack([self.live[int(i)] for i in ids])
