"""Real text encoders + trained autoencoder (T3/T4) and the KNN join they feed.

Round-1 status for T3/T4 was "actor-pool pattern with deterministic fake
encoder" because torch/fastText are absent. This module closes the gap with
implementations that are REAL (trained on the corpus, meaningful geometry)
while staying pure-numpy:

- :class:`HashedNgramEncoder` — vocabulary-free sentence encoder via signed
  feature hashing of character n-grams (Weinberger et al. 2009 "Feature
  Hashing for Large Scale Multitask Learning"; the same subword-hashing trick
  fastText uses, Bojanowski et al. 2017). Deterministic and stateless, so
  every node computes identical vectors with nothing shipped — the correct
  100 TB property for an embedding stage.
- :func:`fit_linear_autoencoder` — a TRAINED dimensionality reducer: the
  optimal linear autoencoder under squared reconstruction loss is exactly PCA
  (Baldi & Hornik 1989), so training is a one-pass distributed second-moment
  computation: ``map_batches`` emits per-batch ``(count, sum, XᵀX)``
  partials, the driver reduces a handful of (d×d) matrices and
  eigendecomposes. One pass over the data, NO shuffle, O(d²) driver memory —
  at 100 TB this is a single streaming scan.
- :func:`ivf_knn_join` — top-K-by-cosine join where BOTH sides are large
  (``knn.brute_force_topk`` broadcasts the query side, which is only right
  when queries are few): coarse centroids from a seeded sample, B rows
  hash to their nearest centroid bucket, A rows replicate to their
  ``nprobe`` nearest buckets, one exchange co-locates them, each bucket
  scores its block exactly, and a per-A top-K merge finishes. The shuffle
  carries (id, dim_out floats) — a small FIXED payload (~128 B at
  dim_out=32), unlike text-through-shuffle which blocking.py:85-91 bans.
- :func:`deepblocker_topk` — the DeepBlocker candidate generator re-expressed
  on the above (reference splitters/DeepBlocker/splitter.py:62-73:
  AutoEncoderTupleEmbedding + ExactTopKVectorPairing over agValues).

Output contract matches the reference blocker: (tableA_id, tableB_id, score).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.arrays import list_column_to_matrix, matrix_to_list_column
from .groupby import cluster_cpus, exchange_group_apply, grouped_top_k


# --------------------------------------------------------------------------
# T4: hashed char-n-gram sentence encoder
# --------------------------------------------------------------------------


class HashedNgramEncoder:
    """Signed feature-hashing of character n-grams → unit-norm float32 vector.

    Stateless and deterministic: the "model" is the hash function, so actors
    need no weights and two nodes always agree. ``__call__`` is the actor-pool
    batch stage (adds ``embedding`` next to the id column)."""

    def __init__(
        self,
        dim: int = 256,
        ngram: int = 3,
        seed: int = 13,
        text_col: str = "agValue",
        id_col: str = "id",
    ):
        self.dim = dim
        self.ngram = ngram
        self.seed = seed
        self.text_col = text_col
        self.id_col = id_col

    def encode(self, texts: list[str]) -> np.ndarray:
        """Batch encode, fully vectorized: the batch's texts are concatenated
        into ONE codepoint array, every n-gram window is hashed with a
        vectorized polynomial rolling hash (q slice-multiply-adds, no
        per-gram Python), windows crossing document boundaries are masked
        out arithmetically, and a single scatter-add builds the vectors.
        Replaces the per-character Python gram loop (measured ~800 µs/doc;
        this form is ~30× faster and identical in structure)."""
        q = self.ngram
        n = len(texts)
        out = np.zeros((n, self.dim), dtype=np.float64)
        if n == 0:
            return out.astype(np.float32)
        padded = [f" {t or ''} " for t in texts]  # pad so short strings still emit a gram
        lengths = np.fromiter((len(s) for s in padded), dtype=np.int64, count=n)
        arr = np.frombuffer(
            "".join(padded).encode("utf-32-le"), dtype=np.uint32
        ).astype(np.uint64)
        # valid window starts per doc: doc occupies [off, off+len); windows
        # [i, i+q) with i in [off, off+len-q] stay inside it
        counts = np.maximum(lengths - q + 1, 0)
        total = int(counts.sum())
        if total > 0:
            offsets = np.zeros(n, dtype=np.int64)
            np.cumsum(lengths[:-1], out=offsets[1:])
            before = np.zeros(n, dtype=np.int64)
            np.cumsum(counts[:-1], out=before[1:])
            doc = np.repeat(np.arange(n, dtype=np.int64), counts)
            pos = (
                np.arange(total, dtype=np.int64)
                - np.repeat(before, counts)
                + np.repeat(offsets, counts)
            )
            # polynomial rolling hash over EVERY window of the concatenated
            # array (q contiguous slice ops, no gathers; uint64 wraparound is
            # the intended mod-2^64 arithmetic), then one gather selects the
            # in-document windows — the ~2/doc crossing a boundary are
            # computed wastefully but never indexed
            B = np.uint64(0x100000001B3)  # FNV-ish odd multiplier
            n_pos = len(arr) - q + 1
            with np.errstate(over="ignore"):
                h_all = np.zeros(n_pos, dtype=np.uint64)
                for j in range(q):
                    h_all = h_all * B + arr[j : j + n_pos]
                h = h_all[pos]
                # … then a splitmix64-style finalizer so the low bits used by
                # the column index are well mixed, with the seed folded in
                h += np.uint64((self.seed * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
                h ^= h >> np.uint64(30)
                h *= np.uint64(0xBF58476D1CE4E5B9)
                h ^= h >> np.uint64(27)
                h *= np.uint64(0x94D049BB133111EB)
                h ^= h >> np.uint64(31)
            col = (h % np.uint64(self.dim)).astype(np.int64)
            sign = 1.0 - 2.0 * ((h >> np.uint64(32)) & np.uint64(1)).astype(np.float64)
            # weighted bincount over the flattened (doc, col) index — ~10×
            # faster than np.add.at's per-element scatter
            flat = doc * self.dim + col
            out += np.bincount(flat, weights=sign, minlength=n * self.dim).reshape(
                n, self.dim
            )
        norms = np.linalg.norm(out, axis=1, keepdims=True)
        return (out / np.maximum(norms, 1e-12)).astype(np.float32)

    def __call__(self, t: pa.Table) -> pa.Table:
        texts = t.column(self.text_col).to_pylist()
        emb = self.encode(texts)
        return pa.table(
            {
                self.id_col: t.column(self.id_col),
                "embedding": matrix_to_list_column(emb, pa.float32()),
            }
        )


def encode_texts(
    ds,
    text_col: str = "agValue",
    id_col: str = "id",
    dim: int = 256,
    ngram: int = 3,
    seed: int = 13,
    batch_size: int = 2048,
):
    """(id, text) Dataset → (id, embedding) Dataset.

    Stateless TASKS, not an actor pool: the encoder's "state" is four ints
    (construction is free), and the repo's measured rule is that cheap-state
    stages run as elastic tasks — pools near the CPU count starve the
    streaming executor and pay actor spin-up on every tiny input."""
    enc = HashedNgramEncoder(
        dim=dim, ngram=ngram, seed=seed, text_col=text_col, id_col=id_col
    )
    return ds.map_batches(enc, batch_format="pyarrow", batch_size=batch_size)


# --------------------------------------------------------------------------
# T3: trained linear autoencoder (closed-form optimum = PCA)
# --------------------------------------------------------------------------


@dataclass
class LinearAutoencoder:
    """Encoder/decoder pair from the distributed PCA fit.

    ``components`` is (d_in, d_out) column-orthonormal; the decoder is its
    transpose (the tied-weights optimum). ``explained`` is the captured
    variance fraction — a training diagnostic the reference prints too."""

    mean: np.ndarray
    components: np.ndarray
    explained: float

    def encode(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.mean) @ self.components

    def decode(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(z, dtype=np.float64) @ self.components.T + self.mean

    def reconstruction_error(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=np.float64)
        r = x - self.decode(self.encode(x))
        return float(np.mean(np.sum(r * r, axis=1)))


def fit_linear_autoencoder(
    ds,
    vec_col: str = "embedding",
    dim_out: int = 32,
) -> LinearAutoencoder:
    """Train the optimal linear autoencoder with ONE streaming pass.

    Distributed sufficient statistics: each batch contributes
    ``(n, Σx, XᵀX)`` — d + d² floats regardless of batch size — so the
    driver reduction is over per-batch partials, never rows. Eigh of the
    d×d covariance then yields the encoder. Eigenvector signs are fixed
    (largest-|component| coordinate positive) so the fit is deterministic
    across block orders and parallelism."""

    def partial(t: pa.Table) -> pa.Table:
        x = list_column_to_matrix(t.column(vec_col))
        if x.size == 0:
            return pa.table({"n": pa.array([], pa.int64()),
                             "s": pa.array([], pa.list_(pa.float64())),
                             "xtx": pa.array([], pa.list_(pa.float64()))})
        return pa.table(
            {
                "n": pa.array([x.shape[0]], pa.int64()),
                "s": pa.array([x.sum(axis=0).tolist()], pa.list_(pa.float64())),
                "xtx": pa.array([(x.T @ x).ravel().tolist()], pa.list_(pa.float64())),
            }
        )

    n_total, s_total, xtx_total = 0, None, None
    for b in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        for n, s, xtx in zip(
            b.column("n").to_pylist(), b.column("s").to_pylist(), b.column("xtx").to_pylist()
        ):
            n_total += n
            s = np.asarray(s)
            xtx = np.asarray(xtx)
            s_total = s if s_total is None else s_total + s
            xtx_total = xtx if xtx_total is None else xtx_total + xtx
    if n_total == 0:
        raise ValueError("cannot fit autoencoder on an empty dataset")
    d = s_total.shape[0]
    mean = s_total / n_total
    cov = xtx_total.reshape(d, d) / n_total - np.outer(mean, mean)
    evals, evecs = np.linalg.eigh(cov)  # ascending
    order = np.argsort(evals)[::-1][:dim_out]
    comps = evecs[:, order]
    # deterministic sign: make the largest-magnitude coordinate positive
    flip = np.sign(comps[np.argmax(np.abs(comps), axis=0), np.arange(comps.shape[1])])
    flip[flip == 0] = 1.0
    comps = comps * flip
    total_var = float(np.clip(np.trace(cov), 1e-12, None))
    explained = float(np.clip(evals[order].sum() / total_var, 0.0, 1.0))
    return LinearAutoencoder(mean=mean, components=comps, explained=explained)


def project_embeddings(
    ds,
    ae: LinearAutoencoder,
    vec_col: str = "embedding",
    id_col: str = "id",
):
    """Apply the trained encoder: (id, embedding_d) → (id, embedding_k).
    Weights ride the closure once per task (d×k floats — tiny)."""
    mean, comps = ae.mean, ae.components

    def fn(t: pa.Table) -> pa.Table:
        x = list_column_to_matrix(t.column(vec_col))
        z = (x - mean) @ comps if len(x) else np.zeros((0, comps.shape[1]))
        return pa.table(
            {
                id_col: t.column(id_col),
                vec_col: matrix_to_list_column(
                    np.asarray(z, dtype=np.float64), pa.float32()
                ),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


# --------------------------------------------------------------------------
# Both-sides-large KNN join (IVF-bucketed exchange)
# --------------------------------------------------------------------------


def _unit(x: np.ndarray) -> np.ndarray:
    return x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-12)


def ivf_knn_join(
    table_a,
    table_b,
    k: int = 5,
    id_col: str = "id",
    vec_col: str = "embedding",
    num_buckets: int | None = None,
    nprobe: int = 4,
    seed: int = 5,
    capture: dict | None = None,
):
    """Approximate top-K B-neighbours per A row by cosine, both sides large.

    B rows go to their single nearest-centroid bucket; A rows replicate to
    their ``nprobe`` nearest buckets (bounded ×nprobe amplification of the
    SMALL fixed-width vector payload, never text); one hash exchange
    co-locates each bucket; the per-bucket kernel is one matmul + a
    vectorized tie-deterministic top-k per A row (score desc, B id asc — so
    duplicate-text corpora with exact score ties get one canonical answer);
    a final per-A top-K merges across the nprobe buckets.
    Returns a Dataset (tableA_id, tableB_id, score).

    ``num_buckets=None`` sizes to ~256 B-rows per bucket ([16, 65536]): a
    FIXED count makes the per-bucket similarity matrix quadratic in corpus
    size (100k docs at 16 buckets → 1.2 GB sims per bucket, measured 365 s
    where auto-sizing takes ~40 s).

    ``capture``, when given, receives ``{"centroids": (num_buckets, d)
    float64}`` — correctness-harness plumbing (the SQL oracle re-derives
    probing/assignment from the persisted centroids), not part of the
    dataflow."""
    from .knn import _sample_centroids

    if num_buckets is None:
        n_b = table_b.count()
        num_buckets = int(max(16, min(n_b // 256, 65536)))
    cents = _sample_centroids(
        table_b, vec_col, num_buckets, seed,
        sample_rows=max(4096, 8 * num_buckets),
    )
    if capture is not None:
        capture["centroids"] = cents

    def emit(side: int):
        def fn(t: pa.Table) -> pa.Table:
            ids = t.column(id_col).to_pylist()
            x = list_column_to_matrix(t.column(vec_col))
            if len(ids) == 0:
                return pa.table({"bucket": pa.array([], pa.int64()),
                                 "side": pa.array([], pa.int8()),
                                 "rid": pa.array([], pa.int64()),
                                 "vec": pa.array([], pa.list_(pa.float32()))})
            # probe sims are float64 end-to-end (list_column_to_matrix
            # decodes to f64), matching the SQL oracle's precision; only
            # the exchange payload below is narrowed to f32
            sims = _unit(x) @ cents.T
            if side == 1:
                buckets = np.argmax(sims, axis=1)[:, None]  # B: nearest only
            else:
                # stable: probe ties (e.g. a zero vector equidistant to all
                # centroids) resolve to the lowest bucket index — the order
                # SQL's `sim DESC, bucket ASC` produces
                buckets = np.argsort(-sims, axis=1, kind="stable")[:, :nprobe]
            reps = buckets.shape[1]
            # arrow-native list construction: ListArray.from_arrays over the
            # replicated flat buffer — the .tolist() form built n x reps x
            # dim Python floats per batch (the allocator pathology class)
            rep_vecs = np.repeat(x.astype(np.float32), reps, axis=0)
            n_out, dim = rep_vecs.shape
            offsets = pa.array(
                np.arange(0, (n_out + 1) * dim, dim, dtype=np.int32)
            )
            vec_arr = pa.ListArray.from_arrays(
                offsets, pa.array(rep_vecs.ravel(), pa.float32())
            )
            return pa.table(
                {
                    "bucket": pa.array(buckets.ravel().astype(np.int64)),
                    "side": pa.array(
                        np.full(len(ids) * reps, side, dtype=np.int8)
                    ),
                    "rid": pa.array(
                        np.repeat(np.asarray(ids, dtype=np.int64), reps)
                    ),
                    "vec": vec_arr,
                }
            )

        return fn

    keyed = table_a.map_batches(emit(0), batch_format="pyarrow").union(
        table_b.map_batches(emit(1), batch_format="pyarrow")
    )

    _EMPTY_SCORES = pd.DataFrame(
        {"tableA_id": pd.Series([], dtype="int64"),
         "tableB_id": pd.Series([], dtype="int64"),
         "score": pd.Series([], dtype="float64")}
    )

    def _score_group(g: pd.DataFrame) -> pd.DataFrame | None:
        a = g[g["side"] == 0]
        b = g[g["side"] == 1]
        if a.empty or b.empty:
            return None
        av = _unit(np.asarray(a["vec"].tolist(), dtype=np.float64))
        bv = _unit(np.asarray(b["vec"].tolist(), dtype=np.float64))
        # tie-DETERMINISTIC top-kk per row (score desc, B id asc):
        # arrange B columns in ascending-id order once, then a STABLE
        # argsort on -sims keeps column order on equal scores — exactly
        # the (score DESC, id ASC) rank. argpartition picked boundary
        # ties by memory order, so duplicate-text corpora (exact score
        # ties) got a layout-dependent candidate set the SQL oracle
        # can't reproduce. (A flat 3-key lexsort over (row, -sim, id)
        # gives the same answer but measured 2.3x slower on the
        # sf0.1 deepblocker query — 9.9 s vs 4.4 s.)
        b_ids = b["rid"].to_numpy()
        order_b = np.argsort(b_ids, kind="stable")
        b_ids = b_ids[order_b]
        sims = av @ bv[order_b].T
        nb = sims.shape[1]
        kk = min(k, nb)
        top = np.argsort(-sims, axis=1, kind="stable")[:, :kk]
        rows = np.repeat(a["rid"].to_numpy(), kk)
        cols = b_ids[top.ravel()]
        vals = np.take_along_axis(sims, top, axis=1).ravel()
        return pd.DataFrame({"tableA_id": rows, "tableB_id": cols, "score": vals})

    def score_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # the exchange bucket holds MANY centroid buckets (exchange width is
        # bounded below, centroid count is corpus-sized): score per centroid
        frames = [f for _, g in df.groupby("bucket", sort=False)
                  if (f := _score_group(g)) is not None]
        if not frames:
            return _EMPTY_SCORES.copy()
        return pd.concat(frames, ignore_index=True)

    # EXCHANGE WIDTH is decoupled from the centroid count: auto-sizing
    # reaches 65536 centroids, and using that as the width means
    # @ray.remote(num_returns=65536) per split task and blocks x 65536
    # driver-held refs — impractical at the both-sides-large scale this
    # targets. A bounded exchange (cluster-sized buckets) moves the same
    # rows; many centroid buckets simply hash into each exchange bucket and
    # score_bucket regroups them by the carried bucket column.
    per_bucket = exchange_group_apply(
        keyed, "bucket", score_bucket,
        num_buckets=min(num_buckets, 2 * cluster_cpus()),
    )
    # merge across probes: per-A top-k (dedup same pair seen in 2 buckets)
    def dedup(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(subset=["tableA_id", "tableB_id"], keep="first")

    merged = grouped_top_k(
        per_bucket.map_batches(dedup, batch_format="pandas"),
        keys="tableA_id",
        order_col="score",
        k=k,
        descending=True,
        tie_cols=["tableB_id"],
    )
    return merged


# --------------------------------------------------------------------------
# DeepBlocker candidate generation (reference splitter.py:62-73)
# --------------------------------------------------------------------------


def deepblocker_topk(
    table_a,
    table_b,
    k: int = 5,
    dim: int = 256,
    dim_out: int = 32,
    ngram: int = 3,
    seed: int = 13,
    num_buckets: int | None = None,
    nprobe: int = 4,
    id_col: str = "id",
    text_col: str = "agValue",
    reverse: bool = False,
    capture: dict | None = None,
):
    """DeepBlocker-shaped blocking: encode agValues, train the autoencoder on
    the UNION of both tables (reference trains the AE on the concatenated
    tuple embeddings), project, then exact-within-probed-buckets top-K per A
    record. ``reverse`` indexes the other side (K per B record), like the
    reference's reverse setting. Returns (tableA_id, tableB_id, score).

    ``capture``, when given, receives ``{"proj_a": Dataset, "proj_b":
    Dataset, "centroids": ndarray}`` — the projected embeddings and IVF
    centroids the SQL correctness oracle re-derives probe/assign/top-k
    from. Harness plumbing only; ignored by the dataflow. Keys always
    follow the CALLER's table order: under ``reverse`` the probed
    (k-per-record) side is ``proj_b`` and the nearest-centroid-assignment
    side is ``proj_a``."""
    if reverse:
        inner: dict | None = {} if capture is not None else None
        out = deepblocker_topk(
            table_b, table_a, k=k, dim=dim, dim_out=dim_out, ngram=ngram,
            seed=seed, num_buckets=num_buckets, nprobe=nprobe,
            id_col=id_col, text_col=text_col, reverse=False, capture=inner,
        )
        if capture is not None:
            capture["proj_a"] = inner["proj_b"]
            capture["proj_b"] = inner["proj_a"]
            capture["centroids"] = inner["centroids"]
        return out.map_batches(
            lambda df: df.rename(
                columns={"tableA_id": "tableB_id", "tableB_id": "tableA_id"}
            )[["tableA_id", "tableB_id", "score"]],
            batch_format="pandas",
        )
    self_join = table_b is table_a
    ea = encode_texts(table_a, text_col=text_col, id_col=id_col,
                      dim=dim, ngram=ngram, seed=seed).materialize()
    eb = ea if self_join else encode_texts(
        table_b, text_col=text_col, id_col=id_col,
        dim=dim, ngram=ngram, seed=seed,
    ).materialize()
    ae = fit_linear_autoencoder(
        ea if self_join else ea.union(eb), vec_col="embedding", dim_out=dim_out
    )
    # projected tables are consumed twice downstream (centroid sample +
    # key emission) and are small (dim_out floats/row): pin them
    pa_ds = project_embeddings(ea, ae, id_col=id_col).materialize()
    pb_ds = pa_ds if self_join else project_embeddings(
        eb, ae, id_col=id_col
    ).materialize()
    if capture is not None:
        capture["proj_a"] = pa_ds
        capture["proj_b"] = pb_ds
    return ivf_knn_join(
        pa_ds, pb_ds, k=k, id_col=id_col, vec_col="embedding",
        num_buckets=num_buckets, nprobe=nprobe, seed=seed, capture=capture,
    )
