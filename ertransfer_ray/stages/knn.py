"""Similarity search over an embedding column (``list<float>``).

Two paths:

- ``brute_force_topk`` — exact cosine top-k: the query matrix is broadcast
  once (``ray.put``), every batch does one float64 matmul against it, and
  per-batch top-k partials are merged in a single small reduce. Scales
  linearly in corpus size with zero shuffle — the right baseline at any
  scale when k and the query count are small.
- ``ivf_topk`` — IVF-style scale path: corpus vectors are assigned to
  coarse centroid buckets (deterministic seeded k-means-ish centroids from a
  sample), the query probes only the ``nprobe`` nearest buckets. Trades
  recall for a ~num_buckets/nprobe compute reduction; same output contract.

Reference analog: the embeddings method computes record vectors and pairwise
cosines (/root/reference/methods/embeddings/get_similarity.py:4-10); KNN-join
blocking is the same shape (splitters/DeepBlocker/splitter.py:62-73).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from ..functions.arrays import list_column_to_matrix
from ..functions.simfuncs import cosine_matrix
from .scoring import pool_map_batches


class _BatchTopK:
    """Per-batch exact cosine vs a broadcast query matrix → local top-k rows."""

    def __init__(self, query_ref, id_col: str, vec_col: str, k: int):
        self.query = ray.get(query_ref) if isinstance(query_ref, ray.ObjectRef) else query_ref
        self.id_col = id_col
        self.vec_col = vec_col
        self.k = k

    def __call__(self, t: pa.Table) -> pa.Table:
        ids = np.asarray(t.column(self.id_col).to_pylist())
        vecs = list_column_to_matrix(t.column(self.vec_col))
        if len(ids) == 0:
            return pa.table({"qid": pa.array([], pa.int64()),
                             self.id_col: pa.array([], pa.int64()),
                             "cosine": pa.array([], pa.float64())})
        cm = cosine_matrix(vecs, self.query)  # (n, m)
        k = min(self.k, len(ids))
        out_q, out_id, out_cos = [], [], []
        for q in range(cm.shape[1]):
            col = cm[:, q]
            top = np.argpartition(-col, k - 1)[:k]
            out_q.extend([q] * k)
            out_id.extend(ids[top].tolist())
            out_cos.extend(col[top].tolist())
        return pa.table(
            {
                "qid": pa.array(out_q, pa.int64()),
                self.id_col: pa.array(out_id, pa.int64()),
                "cosine": pa.array(out_cos, pa.float64()),
            }
        )


def brute_force_topk(
    ds,
    query_vectors: np.ndarray,
    k: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    concurrency: int | tuple = 2,
) -> pd.DataFrame:
    """Exact top-k by cosine for each query vector.

    Returns a small DataFrame (qid, id_col, cosine, rank) with ties broken
    by id for determinism. The merge of per-batch partials happens on the
    driver over ≤ k·num_batches rows — tiny.
    """
    q = np.atleast_2d(np.asarray(query_vectors, dtype=np.float64))
    query_ref = ray.put(q)
    partials = pool_map_batches(
        ds,
        _BatchTopK,
        dict(query_ref=query_ref, id_col=id_col, vec_col=vec_col, k=k),
        concurrency,
        batch_format="pyarrow",
        batch_size=4096,
    )
    # vectorized partial merge: concat the <= k x num_batches x |queries|
    # partial rows, ONE lexsort (qid asc, cosine desc, id asc for tie
    # determinism), keep rank <= k per qid — no per-row Python heap
    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for b in partials.iter_batches(batch_format="pyarrow"):
        if b.num_rows:
            parts.append(
                (
                    b.column("qid").to_numpy(zero_copy_only=False),
                    b.column(id_col).to_numpy(zero_copy_only=False),
                    b.column("cosine").to_numpy(zero_copy_only=False),
                )
            )
    if not parts:
        return pd.DataFrame(
            {"qid": pd.Series([], dtype=np.int64),
             id_col: pd.Series([], dtype=np.int64),
             "cosine": pd.Series([], dtype=np.float64),
             "rank": pd.Series([], dtype=np.int64)}
        )
    qid = np.concatenate([p[0] for p in parts])
    vid = np.concatenate([p[1] for p in parts])
    cos = np.concatenate([p[2] for p in parts])
    order = np.lexsort((vid, -cos, qid))
    qid, vid, cos = qid[order], vid[order], cos[order]
    starts = np.flatnonzero(np.r_[True, qid[1:] != qid[:-1]])
    group_len = np.diff(np.r_[starts, len(qid)])
    rank = np.arange(len(qid)) - np.repeat(starts, group_len) + 1
    keep = rank <= k
    return pd.DataFrame(
        {"qid": qid[keep], id_col: vid[keep], "cosine": cos[keep],
         "rank": rank[keep].astype(np.int64)}
    )


def _sample_centroids(ds, vec_col: str, num_buckets: int, seed: int, sample_rows: int = 2048):
    """Deterministic coarse centroids: seeded sample → k-means++-ish spread
    (greedy farthest-point from the sample)."""
    sample = []
    for b in ds.select_columns([vec_col]).iter_batches(batch_format="pyarrow"):
        sample.extend(b.column(vec_col).to_pylist())
        if len(sample) >= sample_rows:
            break
    X = np.asarray(sample[:sample_rows], dtype=np.float64)
    X = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)
    rng = np.random.default_rng(seed)
    first = int(rng.integers(0, len(X)))
    cents = [X[first]]
    d = 1.0 - X @ cents[0]
    for _ in range(num_buckets - 1):
        nxt = int(np.argmax(d))
        cents.append(X[nxt])
        d = np.minimum(d, 1.0 - X @ cents[-1])
    return np.asarray(cents)


def ivf_topk(
    ds,
    query_vectors: np.ndarray,
    k: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    num_buckets: int = 16,
    nprobe: int = 4,
    seed: int = 5,
) -> pd.DataFrame:
    """IVF-bucketed approximate top-k: corpus rows whose nearest centroid is
    among the query's ``nprobe`` closest buckets are scored exactly; others
    are skipped. Same output contract as brute_force_topk."""
    q = np.atleast_2d(np.asarray(query_vectors, dtype=np.float64))
    cents = _sample_centroids(ds, vec_col, num_buckets, seed)
    cents_ref = ray.put(cents)

    qn = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-12)
    probe_buckets = set(
        np.argsort(-(qn @ cents.T), axis=1)[:, :nprobe].ravel().tolist()
    )
    probe_ref = ray.put(probe_buckets)

    def bucket_filter(t: pa.Table) -> pa.Table:
        c = ray.get(cents_ref)
        probes = ray.get(probe_ref)
        vecs = list_column_to_matrix(t.column(vec_col))
        if len(vecs) == 0:
            return t
        vn = vecs / np.maximum(np.linalg.norm(vecs, axis=1, keepdims=True), 1e-12)
        assign = np.argmax(vn @ c.T, axis=1)
        mask = np.fromiter((a in probes for a in assign), dtype=bool, count=len(assign))
        return t.filter(pa.array(mask))

    filtered = ds.map_batches(bucket_filter, batch_format="pyarrow")
    return brute_force_topk(filtered, q, k=k, id_col=id_col, vec_col=vec_col)
