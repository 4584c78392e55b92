"""Deduplication stages for training-data pipelines.

Five dedup families, each a Dataset → Dataset stage over a text (or
embedding) column:

- exact          — content-hash → hash-partitioned keep-first (D1 family,
                   /root/reference/splitters/random-split/merger.py:34)
- minhash_lsh    — shingle → MinHash → band keys → groupby(band) candidate
                   pairs → Jaccard verify → connected components → keep one
                   per component (the web-scale near-dup pipeline)
- simhash        — 64-bit SimHash, bucket by rotated 16-bit prefixes,
                   verify by Hamming distance
- ngram_jaccard  — exact inverted-index blocking on word shingles +
                   char-n-gram Jaccard verify (SQL-oracle-checkable; also
                   the verifier kernel of minhash_lsh)
- embedding near-dup — cosine ≥ τ over an embedding column via bucketed
                   brute-force (see knn.py for the ANN machinery)

ALL SHUFFLES HERE ARE ID-ONLY. Band/bucket key rows carry (key, id) —
never text or vectors — because keys amplify rows ×num_bands and payloads
through that exchange amplify shuffle bytes by the same factor (the
measured ~500 MB / 100k docs lesson of blocking.py:85-91). Verification
payloads reach the grouped verify tasks one of two ways:

- broadcast: the (id → payload) side is published once as one object-store
  table; each worker assembles its lookup index ONCE (process-level cache)
  and every bucket verifies against it. Zero payload bytes in the shuffle.
- exchange: candidate pairs are generated id-only, deduped across bands,
  and payloads are re-attached per SURVIVING pair via two bucketed cogroup
  joins. Each payload crosses the wire once per referenced pair side.

``joins.choose_arm`` picks between them on the projected (id, payload)
side's exact bytes — one streaming meter pass, not a sample — against the
payload limit, the same gate attach_pair_payloads applies, so a run on a
beyond-heap corpus takes the exchange instead of OOMing a worker.

All keep-first decisions are deterministic: the survivor is the smallest id
in the duplicate group.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from ..functions.hashing import (
    hamming_distance64,
    lsh_band_keys_u64,
    minhash_signatures,
    simhash64,
    stable_hash64,
)
from ..functions.arrays import group_pair_index, list_column_to_matrix
from ..functions.simfuncs import codepoint_csr, csr_jaccard, csr_sets, csr_trigram_keys
from .clustering import connected_components
from .groupby import distinct_rows, exchange_group_apply
from .joins import (
    BroadcastSemiJoin,
    bucketed_anti_semi_join,
    bucketed_join,
    cached_side,
    choose_arm,
    collect_key_set,
    consolidated_refs,
    pair_endpoints,
    put_broadcast,
)

# ---------------------------------------------------------------------------
# worker-side payload lookup (broadcast arm)
# ---------------------------------------------------------------------------


def _text_lookup_build(t: pa.Table):
    """cached_side build: (hash-indexed id lookup, text column). The pandas
    Index is the REUSABLE per-worker hash table — pc.index_in rebuilds its
    lookup structure over the full corpus side on every call, which makes a
    per-bucket verify carry a hidden num_buckets x corpus term; get_indexer
    against this one-time index is O(|bucket ids|) per bucket instead."""
    if t.num_rows == 0:
        return pd.Index([]), t.column("text") if "text" in t.column_names else pa.array([], pa.string())
    ids = t.column("id").to_numpy(zero_copy_only=False)
    uniq, first_pos = np.unique(ids, return_index=True)
    if len(uniq) != len(ids):
        # keep-FIRST on duplicate ids: get_indexer raises InvalidIndexError
        # on a non-unique Index, where the old pc.index_in path returned the
        # first match — reproduce that semantics by dropping later dupes
        first_pos.sort()
        take = pa.array(first_pos, pa.int64())
        return pd.Index(ids[first_pos]), pa.compute.take(t.column("text"), take)
    return pd.Index(ids), t.column("text")


def _empty_pairs_ds(score_col: str):
    """Empty result Dataset with the near-dup output schema — map stages
    over an empty corpus emit ZERO blocks (schema-less), so downstream
    consumers would otherwise see no columns at all."""
    import ray.data as rd

    return rd.from_arrow(
        pa.table(
            {
                "left_id": pa.array([], pa.int64()),
                "right_id": pa.array([], pa.int64()),
                score_col: pa.array([], pa.float64()),
            }
        )
    )


def _gram_code_sets(texts) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(offsets, codes)`` of each text's sorted-unique char-3-gram
    codes over the normalized text (lowercased, whitespace collapsed) — the
    exact verification space (mirrors the reference's q-gram tokenization
    family, reference splitters/KNN-Join/splitter.py:72-81). Codes
    are batch-local exact identities (no hashing), compared by
    :func:`csr_jaccard` within one verify call."""
    norm = [" ".join((t or "").lower().split()) for t in texts]
    return csr_sets(*csr_trigram_keys(*codepoint_csr(norm)))


def _fetch_gram_codes(side_refs, uniq_ids) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_gram_code_sets` of the texts of ``uniq_ids``, fetched through
    the worker-cached lookup (an id missing from the side: the empty set)."""
    index, texts = cached_side(side_refs, _text_lookup_build)
    pos = index.get_indexer(np.asarray(uniq_ids))
    return _gram_code_sets(pa.compute.take(texts, pa.array(pos, mask=pos < 0)).to_pylist())


def _batch_doc_shingle_hashes(
    texts, shingle_words: int
) -> tuple[np.ndarray, np.ndarray]:
    """DISTINCT word-``shingle_words``-shingle hashes for a BATCH of docs,
    fully vectorized (hashing.arrow_word_shingle_hashes at 63 bits — the
    int64 exact-identity space; the 32-bit MinHash fold would collide at
    web scale). Returns ``(flat_hashes, counts)``: per-doc sorted-unique
    hashes concatenated doc-major + per-doc distinct counts. Tokenization
    (lowercase, whitespace split, whole-string shingle for ≤ k-word docs)
    matches the ngram_jaccard SQL oracle exactly; every consumer of this
    hash space (ngram_jaccard / boilerplate / decontam) shares this one
    function so their sets compare across stages."""
    from ..functions.hashing import arrow_word_shingle_hashes

    h, c = arrow_word_shingle_hashes(texts, shingle_words, bits=64)
    n = len(c)
    if h.size == 0:
        return h.astype(np.int64), c
    doc = np.repeat(np.arange(n, dtype=np.int64), c)
    # hash-table distinct on (doc, hash), first-seen order — measured 1.5×
    # a lexsort-based distinct on short docs (the common web shape) and the
    # only variant that beat the old per-doc dict.fromkeys loop at all
    # lengths (1.1–1.5×; the loop itself was already C-dominated)
    dup = pd.DataFrame({"d": doc, "h": h}).duplicated().to_numpy()
    keep = ~dup
    return h[keep].astype(np.int64), np.bincount(
        doc[keep], minlength=n
    ).astype(np.int64)


def _doc_shingle_hashes(txt: str, shingle_words: int) -> np.ndarray:
    """Single-doc wrapper over :func:`_batch_doc_shingle_hashes` — same
    hash family by construction (callers compare sets across stages)."""
    h, _ = _batch_doc_shingle_hashes([txt or ""], shingle_words)
    return h


def _shingle_doc_keys(id_col: str, text_col: str, shingle_words: int):
    """map_batches fn emitting ID-ONLY (shingle:int64, doc_id) rows, one per
    DISTINCT shingle per doc — the inverted-index-as-a-shuffle emitter shared
    by ngram_jaccard_pairs and boilerplate_shingle_stats."""

    def emit(t: pa.Table) -> pa.Table:
        h, c = _batch_doc_shingle_hashes(t.column(text_col), shingle_words)
        if h.size == 0:
            return pa.table(
                {"shingle": pa.array([], pa.int64()), "doc_id": pa.array([], pa.int64())}
            )
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "shingle": pa.array(h, pa.int64()),
                "doc_id": pa.array(np.repeat(ids, c), pa.int64()),
            }
        )

    return emit


def boilerplate_shingle_stats(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    shingle_words: int = 3,
    hot_doc_freq: int = 50,
    num_buckets: int | None = None,
):
    """Gopher/CCNet-style boilerplate statistic: per document, how many of
    its distinct word shingles are HOT (document frequency > ``hot_doc_freq``
    across the corpus) — the repetition/boilerplate quality signal a
    web-corpus filter thresholds on.

    Output: (id_col, n_shingles, n_boilerplate, boilerplate_ratio) with one
    row per input document (zero-shingle docs get 0/0/0.0).

    Scale shape — default path has ZERO row-level shuffles:
      pass 1: id-only (shingle_hash, id) emit → compact numpy count
              exchange (counted_key_survivors) → hot-shingle set broadcast
              (``ray.put`` once, sorted int64 array);
      pass 2: map-side per-doc recount + ``searchsorted`` membership against
              the broadcast hot set.
    Past the key-set gate (``joins.choose_arm``) the fallback arm computes
    document frequencies with a grouped aggregate, semi-joins the keyed
    rows against the hot Dataset, and grouped-counts per doc — two
    bucketed exchanges, same output.
    """
    from .groupby import counted_key_survivors

    def totals_fn(t: pa.Table, hot: np.ndarray | None) -> pa.Table:
        h, n = _batch_doc_shingle_hashes(t.column(text_col), shingle_words)
        nh = np.zeros(t.num_rows, np.int64)
        if hot is not None and h.size and hot.size:
            pos = np.searchsorted(hot, h)
            pos[pos >= hot.size] = hot.size - 1
            is_hot = hot[pos] == h
            owners = np.repeat(np.arange(t.num_rows, dtype=np.int64), n)
            nh = np.bincount(
                owners, weights=is_hot, minlength=t.num_rows
            ).astype(np.int64)
        cols = {
            id_col: t.column(id_col),
            "n_shingles": pa.array(n),
            "n_boilerplate": pa.array(nh),
        }
        if hot is not None:
            ratio = np.where(n > 0, nh / np.maximum(n, 1), 0.0)
            cols["boilerplate_ratio"] = pa.array(ratio)
        return pa.table(cols)

    keyed = ds.map_batches(
        _shingle_doc_keys(id_col, text_col, shingle_words), batch_format="pyarrow"
    ).materialize()

    surv = counted_key_survivors(
        keyed, "shingle", num_buckets, min_count=hot_doc_freq + 1
    )
    if surv is not None:
        hot_sorted = np.sort(surv.to_numpy(zero_copy_only=False))
        hot_ref = ray.put(hot_sorted)

        def stats(t: pa.Table) -> pa.Table:
            return totals_fn(t, ray.get(hot_ref))

        return ds.map_batches(stats, batch_format="pyarrow")

    # distributed fallback: hot set past the key-set gate
    from .groupby import grouped_aggregate

    # keyed rows always carry the id as "doc_id" (the emitter's contract)
    dfreq = grouped_aggregate(keyed, "shingle", {"df": ("doc_id", "count")})
    hot_ds = dfreq.map_batches(
        lambda df: df.loc[df["df"] > hot_doc_freq, ["shingle"]],
        batch_format="pandas",
    )
    hot_rows = bucketed_anti_semi_join(
        keyed, hot_ds, "shingle", anti=False, num_buckets=num_buckets
    )
    hot_counts = grouped_aggregate(
        hot_rows, "doc_id", {"n_boilerplate_hot": ("shingle", "count")},
        num_buckets,
    ).map_batches(
        lambda df: df.rename(columns={"doc_id": id_col}), batch_format="pandas"
    )
    totals = ds.map_batches(
        lambda t: totals_fn(t, None).select([id_col, "n_shingles"]),
        batch_format="pyarrow",
    )
    joined = bucketed_join(
        totals, hot_counts, id_col, how="left", num_buckets=num_buckets
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        nh = df["n_boilerplate_hot"].fillna(0).astype(np.int64)
        n = df["n_shingles"].astype(np.int64)
        return pd.DataFrame(
            {
                id_col: df[id_col],
                "n_shingles": n,
                "n_boilerplate": nh,
                "boilerplate_ratio": np.where(n > 0, nh / np.maximum(n, 1), 0.0),
            }
        )

    return joined.map_batches(finish, batch_format="pandas")


# ---------------------------------------------------------------------------
# exact dedup (D1)
# ---------------------------------------------------------------------------

def _content_hash(texts) -> pa.Array:
    """Vectorized stable content hash (non-negative int64) of a text column."""
    h = stable_hash64(texts.to_pylist())
    return pa.array((h >> np.uint64(1)).astype(np.int64))


def add_content_hash(ds, text_col: str = "text", out: str = "content_hash"):
    """Vectorized stable content hash column (int64)."""

    def fn(t: pa.Table) -> pa.Table:
        return t.append_column(out, _content_hash(t.column(text_col)))

    return ds.map_batches(fn, batch_format="pyarrow")


def _bloom_cfg(state_dir: str, capacity: int, fpp: float) -> dict:
    """Load (or atomically create) the store's fixed Bloom geometry."""
    import json
    import os

    from .bloom import bloom_params

    cfg_path = os.path.join(state_dir, "bloom_config.json")
    if os.path.exists(cfg_path):
        with open(cfg_path) as f:
            return json.load(f)
    m_bits, k = bloom_params(capacity, fpp)
    cfg = {"m_bits": m_bits, "k": k}
    tmp = cfg_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(cfg, f)
    os.replace(tmp, cfg_path)
    return cfg


def _write_sidecar(state_dir: str, increment_dir: str, cfg: dict) -> str:
    """Build this increment's Bloom from its persisted hashes (distributed
    scan of that one increment only) and atomically persist the SPARSE
    sidecar — the one implementation shared by registration and the
    self-heal path, so the sidecar format can never fork."""
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    from .bloom import bloom_from_keyed, bloom_sparse_table

    side_dir = os.path.join(state_dir, "bloom_sidecars")
    os.makedirs(side_dir, exist_ok=True)
    side = os.path.join(side_dir, f"{os.path.basename(increment_dir)}.parquet")
    if any(f.endswith(".parquet") for f in os.listdir(increment_dir)):
        src = rd.read_parquet(increment_dir, file_extensions=["parquet"])
    else:  # increment deduped to zero rows: empty sidecar
        src = rd.from_arrow(pa.table({"content_hash": pa.array([], pa.int64())}))
    bf = bloom_from_keyed(src, "content_hash", cfg["m_bits"], cfg["k"])
    tmp = side + ".tmp"
    pq.write_table(bloom_sparse_table(bf), tmp)
    os.replace(tmp, side)
    return side


def _store_bloom(state_dir: str, prior_dirs: list[str], capacity: int, fpp: float):
    """Merged Bloom filter over every prior increment's content hashes,
    assembled from persisted SPARSE sidecars (state_dir/bloom_sidecars/
    increment=<name>.parquet) — the store's hash files are NOT rescanned.
    Geometry (m_bits, k) is fixed per store in bloom_config.json (created
    on first use, sized for ``capacity`` total hashes at ``fpp``); a
    missing sidecar (increment ingested before bloom gating existed, or a
    crash between registration and sidecar write) self-heals: that one
    increment's hashes are scanned distributed and the sidecar persisted."""
    import os

    import pyarrow.parquet as pq

    from .bloom import BloomFilter, merge_sparse_into

    cfg = _bloom_cfg(state_dir, capacity, fpp)
    side_dir = os.path.join(state_dir, "bloom_sidecars")
    os.makedirs(side_dir, exist_ok=True)

    bf = BloomFilter(cfg["m_bits"], cfg["k"])
    for p in prior_dirs:
        side = os.path.join(side_dir, f"{os.path.basename(p)}.parquet")
        if not os.path.exists(side):
            side = _write_sidecar(state_dir, p, cfg)  # self-heal
        merge_sparse_into(bf, pq.read_table(side))
    return bf, cfg, side_dir


def exact_dedup_incremental(
    ds,
    state_dir: str,
    increment: str,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_buckets: int | None = None,
    seen_filter: str = "auto",
    bloom_capacity: int = 50_000_000,
    bloom_fpp: float = 0.002,
):
    """Incremental exact dedup against a PERSISTED content-hash store — the
    daily-increment ingestion shape: a new crawl increment keeps only
    documents whose content was seen neither in any EARLIER increment nor
    earlier (smaller id) within this one, then appends its new hashes to the
    store so the next increment dedups against everything so far.

    Store layout: ``state_dir/increment=<name>/*.parquet`` holding one
    int64 ``content_hash`` column per ingested increment, written via the
    atomic ``state/manifest.write_shard`` (temp dir + manifest + rename), so
    a killed ingest never leaves a half-registered increment; re-running the
    SAME increment name is idempotent (its store entry is replaced, and the
    seen-set excludes the increment's own hashes).

    Scale shape: the seen side is hash-only (8 B/row). While it passes the
    key-set gate (``joins.choose_arm``) it broadcasts once and the filter is
    map-side; past that the increment anti-joins the store on content_hash
    through the bucketed exchange. Within-increment dedup is
    :func:`exact_dedup` (id-only exchange).

    ``seen_filter="bloom"`` is the store-scale gate: a merged Bloom filter
    over all prior hashes loads from persisted SPARSE sidecars (one per
    increment, written at registration — the store's hash files are never
    rescanned to build it). Bloom misses are definitive, so the typical
    mostly-new increment resolves almost entirely map-side; only the
    bloom-suspicious hashes (true cross-increment dups + the configured
    ~0.2 % false positives) are confirmed against the store via ONE
    column-pruned streaming semi-scan — no exchange on either side. The
    confirmation step makes the output EXACT (equal to the other arms).
    Should the suspicious set ever be past the key-set gate (an increment
    that is mostly re-crawl), it degrades to the bucketed anti-join, which
    is the right tool for that shape anyway.

    Returns the surviving rows of ``ds`` (original schema) as a Dataset.
    """
    import os

    import ray.data as rd

    from ..state.manifest import write_shard

    os.makedirs(state_dir, exist_ok=True)
    prior_dirs = [
        p
        for d in sorted(os.listdir(state_dir))
        if d.startswith("increment=") and d != f"increment={increment}"
        and not d.endswith((".tmp", ".staging"))
        # an increment that deduped to zero rows has a manifest but no
        # parquet files — nothing to read
        for p in [os.path.join(state_dir, d)]
        if any(f.endswith(".parquet") for f in os.listdir(p))
    ]

    # within-increment dedup first (keep smallest id per content)
    survivors = exact_dedup(ds, id_col, text_col)
    hashed = add_content_hash(survivors, text_col).materialize()

    if seen_filter not in ("auto", "bloom"):
        raise ValueError(f"seen_filter must be auto|bloom, got {seen_filter!r}")

    if prior_dirs and seen_filter == "bloom":
        from .bloom import BloomFilter

        bf, cfg, _ = _store_bloom(state_dir, prior_dirs, bloom_capacity, bloom_fpp)
        ref = ray.put(bf.words)
        m_bits, kp = cfg["m_bits"], cfg["k"]

        def keep_suspicious(t: pa.Table) -> pa.Table:
            h = t.column("content_hash").to_numpy(zero_copy_only=False)
            probe = BloomFilter(m_bits, kp, ray.get(ref))
            return t.filter(pa.array(probe.contains(h)))

        susp = collect_key_set(
            hashed.map_batches(keep_suspicious, batch_format="pyarrow"),
            "content_hash",
        )
        seen = rd.read_parquet(prior_dirs, file_extensions=["parquet"])
        if susp is None:
            # mostly-recrawl increment: the suspicious side is itself big —
            # the bucketed anti-join is the right shape, take it
            hashed = bucketed_anti_semi_join(
                hashed, seen, "content_hash", anti=True, num_buckets=num_buckets,
            ).materialize()
        elif len(susp):
            # ONE streaming semi-scan of the store confirms which suspicious
            # hashes are real dups (bloom FPs drop out here) — the store
            # side never exchanges, it just flows through a map filter. A
            # hash is registered by one increment only, so the confirmed
            # set is no bigger than the suspicious one and passes its gate.
            confirmed = collect_key_set(
                seen.map_batches(
                    BroadcastSemiJoin(put_broadcast(susp), "content_hash"),
                    batch_format="pyarrow",
                ),
                "content_hash",
            )
            hashed = hashed.map_batches(
                BroadcastSemiJoin(put_broadcast(confirmed), "content_hash", anti=True),
                batch_format="pyarrow",
            ).materialize()
        # else: zero suspicious hashes — the whole increment is provably new
    elif prior_dirs:
        seen = rd.read_parquet(prior_dirs, file_extensions=["parquet"])
        keys = collect_key_set(seen, "content_hash")
        if keys is not None:
            hashed = hashed.map_batches(
                BroadcastSemiJoin(put_broadcast(keys), "content_hash", anti=True),
                batch_format="pyarrow",
            )
        else:
            hashed = bucketed_anti_semi_join(
                hashed, seen, "content_hash", anti=True,
                num_buckets=num_buckets,
            )
        hashed = hashed.materialize()

    # register this increment's new hashes atomically (idempotent by name:
    # shard id 0 under the increment's own directory)
    inc_dir = os.path.join(state_dir, f"increment={increment}")
    tmp_parent = state_dir
    new_hashes = hashed.map_batches(
        lambda t: t.select(["content_hash"]), batch_format="pyarrow"
    )
    # write_shard writes <out_dir>/shard=<k>; wrap so the final path is the
    # increment dir itself
    write_shard(new_hashes, tmp_parent + f"/increment={increment}.staging",
                0, input_fingerprint=increment)
    staged = tmp_parent + f"/increment={increment}.staging/shard=0"
    import shutil

    # a re-ingest drops the increment's old sidecar BEFORE replacing its
    # hashes: a crash after the rename must leave no sidecar (which
    # _store_bloom self-heals), never a stale one that misses new hashes
    side = os.path.join(state_dir, "bloom_sidecars", f"increment={increment}.parquet")
    if os.path.exists(side):
        os.remove(side)
    if os.path.exists(inc_dir):
        shutil.rmtree(inc_dir)
    os.rename(staged, inc_dir)
    shutil.rmtree(tmp_parent + f"/increment={increment}.staging",
                  ignore_errors=True)

    # keep the sparse bloom sidecar current once this store is bloom-gated
    # (written AFTER the increment rename: a crash in between leaves a
    # registered increment without a sidecar, which _store_bloom self-heals)
    if seen_filter == "bloom" or os.path.exists(
        os.path.join(state_dir, "bloom_config.json")
    ):
        _write_sidecar(state_dir, inc_dir,
                       _bloom_cfg(state_dir, bloom_capacity, bloom_fpp))

    return hashed.drop_columns(["content_hash"])


def exact_dedup(ds, id_col: str, text_col: str = "text"):
    """Exact dedup: keep the smallest id per distinct content.

    ID-ONLY shuffle shape (the payload-through-shuffle rule): only
    (content_hash, id) rows — 16 bytes — ride the exchange; the surviving
    id set broadcasts back as a map-side filter, so full rows never
    shuffle at all. Past the key-set gate (``joins.collect_key_set``; ≈
    distinct contents beyond what ``is_in`` probes well) it falls back to
    hash-partitioning the full rows, which stays correct.
    """
    hashed = add_content_hash(ds, text_col).materialize()
    pairs = hashed.map_batches(
        lambda t: t.select(["content_hash", id_col]), batch_format="pyarrow"
    )
    keep = exchange_group_apply(
        pairs,
        "content_hash",
        lambda df: df.groupby("content_hash")[id_col].min().to_frame(),
    )
    ids = collect_key_set(keep, id_col)
    if ids is not None:
        return hashed.map_batches(
            BroadcastSemiJoin(put_broadcast(ids), id_col), batch_format="pyarrow"
        ).drop_columns(["content_hash"])

    kept = exchange_group_apply(
        hashed,
        "content_hash",
        lambda df: df.sort_values(id_col).drop_duplicates("content_hash"),
    )
    return kept.drop_columns(["content_hash"])


def exact_dedup_summary(ds, id_col: str, text_col: str = "text"):
    """(keep_id, dup_count) per distinct content — the oracle-checkable
    projection of exact dedup (SQL: min(id), count(*) GROUP BY text).

    Only ``(id, content_hash)`` leaves the hashing map: the text never
    rides the exchange."""
    hashed = ds.map_batches(
        lambda t: pa.table(
            {id_col: t.column(id_col), "content_hash": _content_hash(t.column(text_col))}
        ),
        batch_format="pyarrow",
    )

    def summarize(df: pd.DataFrame) -> pd.DataFrame:
        if df.columns.empty:  # a zero-row input reaches the exchange without columns
            df = pd.DataFrame(columns=[id_col, "content_hash"])
        return df.groupby("content_hash", as_index=False, sort=False).agg(
            keep_id=(id_col, "min"), dup_count=(id_col, "size")
        )[["keep_id", "dup_count"]]

    return exchange_group_apply(hashed, "content_hash", summarize)


# ---------------------------------------------------------------------------
# MinHash-LSH near-dup
# ---------------------------------------------------------------------------

class _ShingleMinHash:
    """Actor-pool stage: emit ID-ONLY (band_key:int64, doc_id) rows.

    The key shuffle amplifies rows ×num_bands; payloads never ride it (the
    blocking.py:85-91 rule). Verification fetches text per bucket or per
    surviving pair instead.
    """

    def __init__(self, id_col: str, text_col: str, num_perm: int, num_bands: int,
                 shingle_words: int = 3, seed: int = 7):
        from ..functions.hashing import minhash_coeffs

        self.id_col = id_col
        self.text_col = text_col
        self.num_perm = num_perm
        self.num_bands = num_bands
        self.shingle_words = shingle_words
        self.coeffs = minhash_coeffs(num_perm, seed)

    def __call__(self, t: pa.Table) -> pa.Table:
        from ..functions.hashing import (
            arrow_word_shingle_hashes,
            minhash_signatures_hashed,
        )

        ids = t.column(self.id_col).to_pylist()
        # zero-Python-string shingling: hash the batch vocab once, combine
        # k-windows in numpy (hashing.py kernel; 4.6x the string path)
        h, c = arrow_word_shingle_hashes(t.column(self.text_col), self.shingle_words)
        sig = minhash_signatures_hashed(h, c, self.num_perm, coeffs=self.coeffs)
        bands = lsh_band_keys_u64(sig, self.num_bands)
        return pa.table(
            {
                "band_key": pa.array(np.concatenate(bands), pa.int64()),
                "doc_id": pa.array(ids * self.num_bands),
            }
        )


_EMPTY_JACCARD_PAIRS = {
    "left_id": "int64",
    "right_id": "int64",
    "jaccard": "float64",
}


def _empty_frame(spec: dict) -> pd.DataFrame:
    return pd.DataFrame({c: pd.Series([], dtype=t) for c, t in spec.items()})


def _candidate_pairs_in_bucket(df: pd.DataFrame, key: str, id_col: str,
                               max_block_size: int) -> pd.DataFrame:
    """Id-only candidate pairs for one hash bucket of (key, id) rows:
    per key group, dedup + deterministic cap (the ``max_block_size``
    smallest ids), all-pairs — every group in one vectorized pass."""
    df = df[df.duplicated(key, keep=False)]  # singletons can't pair
    df = df.drop_duplicates([key, id_col]).sort_values([key, id_col])
    ii, jj, _ = group_pair_index(df[key].to_numpy(), max_block_size)
    ids = df[id_col].to_numpy()
    return pd.DataFrame({"left_id": ids[ii], "right_id": ids[jj]})


def _shingle_pairs_in_bucket(df: pd.DataFrame, max_doc_freq: int) -> pd.DataFrame:
    """ngram_jaccard_pairs' bucket fn over (shingle, doc_id) rows: all
    pairs of each shingle's docs, skipping shingles held by more than
    ``max_doc_freq`` docs (dropped, not truncated: the SQL oracle's HAVING
    count(*) <= F). One pair per doc pair, however many shingles it shares."""
    df = df.drop_duplicates(["shingle", "doc_id"])
    df = df[df.groupby("shingle")["doc_id"].transform("size") <= max_doc_freq]
    return _candidate_pairs_in_bucket(df, "shingle", "doc_id", max_doc_freq).drop_duplicates()


def _referenced_side(docs_ds, id_col: str, cand_pairs):
    """The payload side cut to the ids that candidate pairs reference
    (broadcast semi-join; ~|pairs| rows survive instead of the whole
    corpus), or ``docs_ds`` itself when that id set is past the key-set
    gate — the joins against it stay correct either way."""
    needed = pair_endpoints(cand_pairs, ["left_id", "right_id"])
    if needed is None:
        return docs_ds
    return docs_ds.map_batches(
        BroadcastSemiJoin(put_broadcast(needed), id_col), batch_format="pyarrow"
    ).materialize()


def _attach_and_verify_jaccard(cand_pairs, docs_ds, id_col, text_col,
                               jaccard_threshold, num_buckets):
    """Exchange-arm verifier: re-attach text to id-only candidate pairs via
    two bucketed cogroup joins (each payload moves once per referenced pair
    side), then verify the char-3-gram Jaccard per pair. The side is
    pre-filtered to the referenced ids (the blocking.attach_pair_payloads
    measured lesson: the unfiltered corpus side dominated the join cost)."""
    cand_pairs = cand_pairs.materialize()
    docs_ds = _referenced_side(docs_ds, id_col, cand_pairs)

    def side(prefix: str):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    f"{prefix}_id": t.column(id_col),
                    f"{prefix}_text": t.column(text_col),
                }
            )

        return fn

    with_l = bucketed_join(
        cand_pairs, docs_ds.map_batches(side("left"), batch_format="pyarrow"),
        "left_id", num_buckets=num_buckets,
    )
    with_r = bucketed_join(
        with_l, docs_ds.map_batches(side("right"), batch_format="pyarrow"),
        "right_id", num_buckets=num_buckets,
    )

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return _empty_frame(_EMPTY_JACCARD_PAIRS)
        # build each referenced doc's gram set ONCE per batch — near-dup
        # candidates share texts heavily (duplicate families), and a per-row
        # build measured 48.7 s for 6,717 pairs of ~4 KB texts at 1.6M docs
        # where this form takes ~4 s (the same reuse the broadcast verify
        # gets from its per-bucket gram sets)
        ids = pd.concat([df["left_id"], df["right_id"]], ignore_index=True)
        texts = pd.concat([df["left_text"], df["right_text"]], ignore_index=True)
        rows, _ = pd.factorize(ids, use_na_sentinel=False)  # first-appearance order
        sets = _gram_code_sets(list(texts[~ids.duplicated()]))
        jac = csr_jaccard(*sets, rows[: len(df)], rows[len(df):])
        # the tagged-union join carries absent-side columns as None, which
        # degrades int ids to object dtype — restore the schema here
        out = df[["left_id", "right_id"]].astype("int64")
        out["jaccard"] = jac
        return out[jac >= jaccard_threshold]

    return with_r.map_batches(verify, batch_format="pandas")


def minhash_lsh_dedup_pairs(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_perm: int = 128,
    num_bands: int = 16,
    shingle_words: int = 3,
    jaccard_threshold: float = 0.8,
    max_block_size: int = 128,
):
    """MinHash-LSH near-dup candidate pairs, Jaccard-verified.

    Pipeline: shingle → minhash → ID-ONLY band keys → groupby(band_key) →
    per-group capped pair generation → char-3-gram Jaccard verify ≥
    threshold → distinct pairs (left_id < right_id, with verified score).

    The (id, text) side's bytes pick the arm (``joins.choose_arm``; see
    the module docstring). Broadcast: buckets verify in place against a
    worker-cached (id → text) lookup — no payload bytes in any shuffle.
    Exchange: candidates are deduped id-only first, then text joins back
    per surviving pair, so a beyond-heap corpus never OOMs a worker.
    """
    from .scoring import pool_map_batches

    arm = choose_arm(ds.select_columns([id_col, text_col]))

    keyed = pool_map_batches(
        ds,
        _ShingleMinHash,
        dict(
            id_col=id_col, text_col=text_col, num_perm=num_perm,
            num_bands=num_bands, shingle_words=shingle_words,
        ),
        batch_format="pyarrow",
        batch_size=1024,
    ).materialize()
    if keyed.count() == 0:
        return _empty_pairs_ds("jaccard")
    # ^ barrier before the band shuffle: fusing the minhash actor pool into
    # the groupby lets the streaming executor run both concurrently and
    # thrash (measured on 400k docs / 8 CPUs: fused 58 s vs staged 22 s —
    # the same pathology run_er documents)

    if arm == "exchange":
        # same raw hash exchange as the broadcast arm below — Ray Data's
        # sort-based groupby on the x num_bands band table was the measured
        # 3.4x gap between the arms at 1.6M docs / 16 CPUs
        cands = exchange_group_apply(
            keyed, "band_key",
            lambda df: _candidate_pairs_in_bucket(df, "band_key", "doc_id", max_block_size),
        )
        cands = distinct_rows(cands, ["left_id", "right_id"])
        return _attach_and_verify_jaccard(
            cands, ds, id_col, text_col, jaccard_threshold, None
        )

    side_refs = consolidated_refs(
        ds.map_batches(
            lambda t: pa.table({"id": t.column(id_col), "text": t.column(text_col)}),
            batch_format="pyarrow",
        )
    )

    def verify_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df.duplicated("band_key", keep=False)]  # singletons can't pair
        if df.empty:
            return _empty_frame(_EMPTY_JACCARD_PAIRS)
        # the side stays ARROW; only the texts this bucket references are
        # converted (and their gram sets built ONCE per bucket) — a full
        # corpus-wide to_pylist per worker hits the allocator pathology
        # documented in blocking.attach_pair_payloads. The id lookup index is
        # built once per WORKER (cached), not per bucket (index_in rebuilt it
        # against the full corpus every call — a num_buckets x corpus term).
        uniq = pd.unique(df["doc_id"])
        sets = _fetch_gram_codes(side_refs, uniq)
        lefts, rights = [], []
        for _, g in df.groupby("band_key", sort=False):
            g = g.drop_duplicates("doc_id").sort_values("doc_id").head(max_block_size)
            n = len(g)
            if n < 2:
                continue
            ids = g["doc_id"].to_numpy()
            ii, jj = np.triu_indices(n, k=1)
            lefts.append(ids[ii])
            rights.append(ids[jj])
        if not lefts:
            return _empty_frame(_EMPTY_JACCARD_PAIRS)
        left, right = np.concatenate(lefts), np.concatenate(rights)
        index = pd.Index(uniq)
        jac = csr_jaccard(*sets, index.get_indexer(left), index.get_indexer(right))
        keep = jac >= jaccard_threshold
        return pd.DataFrame(
            {"left_id": left[keep], "right_id": right[keep], "jaccard": jac[keep]}
        )

    # raw-Ray hash exchange for the ×num_bands row explosion (same choice as
    # blocking.generate_pairs): no sample+sort, one task per bucket
    pairs = exchange_group_apply(keyed, "band_key", verify_bucket)
    return distinct_rows(pairs, ["left_id", "right_id"])


def minhash_lsh_dedup(ds, id_col: str = "doc_id", text_col: str = "text", **kwargs):
    """Full near-dup dedup: verified pairs → connected components →
    (doc_id, group_id) assignment where group_id = smallest doc id reachable.
    Docs without any near-dup are absent (implicitly their own group)."""
    pairs = minhash_lsh_dedup_pairs(ds, id_col, text_col, **kwargs)

    def as_urls(t: pa.Table) -> pa.Table:
        # ZERO-PADDED casts: CC names a component by its lexicographically
        # smallest node, and bare string casts order "10" < "9" — padding
        # makes string order equal numeric order so group_id really is the
        # smallest reachable doc id (requires non-negative ids, as generated)
        def pad(col):
            return pa.compute.utf8_lpad(
                pa.compute.cast(col, pa.string()), 20, "0"
            )

        return pa.table(
            {
                "left_url": pad(t.column("left_id")),
                "right_url": pad(t.column("right_id")),
            }
        )

    cc = connected_components(pairs.map_batches(as_urls, batch_format="pyarrow"))

    def back_to_ids(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pa.compute.cast(t.column("url"), pa.int64()),
                "group_id": pa.compute.cast(t.column("cluster_id"), pa.int64()),
            }
        )

    return cc.map_batches(back_to_ids, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# n-gram Jaccard near-dup (exact inverted-index blocking — oracle-checkable)
# ---------------------------------------------------------------------------

def ngram_jaccard_pairs(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    shingle_words: int = 3,
    jaccard_threshold: float = 0.5,
    max_doc_freq: int = 50,
):
    """Exact near-dup pairs: block on shared word-``shingle_words``-shingles
    (inverted index as a shuffle), verify char-3-gram Jaccard ≥ threshold.

    Unlike MinHash-LSH this is EXACT over its blocking predicate — the
    output is precisely {pairs sharing ≥1 non-hot shingle with verified
    Jaccard ≥ τ}, which an SQL oracle can reproduce (exploded shingle
    self-join + set arithmetic; see queries.ORACLE_SQL["ngram_jaccard_pairs"]).

    Hot shingles (document frequency > ``max_doc_freq``) are dropped on BOTH
    sides — the cap keeps a boilerplate shingle from generating O(df²) pairs
    AND stays SQL-expressible (HAVING count(*) <= F), unlike a silent
    per-block truncation. Shuffle rows are (shingle_hash:int64, id): id-only.

    Broadcast or exchange verification is decided on the (id, text) side's
    bytes, as in minhash_lsh_dedup_pairs.
    """
    arm = choose_arm(ds.select_columns([id_col, text_col]))

    keyed = ds.map_batches(
        _shingle_doc_keys(id_col, text_col, shingle_words), batch_format="pyarrow"
    )

    # frequency prefilter before the big exchange (the generate_pairs
    # singleton-prefilter pattern, extended to BOTH bounds): a count pass
    # over the 8-byte shingle column finds keys with 2 ≤ df ≤ max_doc_freq;
    # rows outside the band — singletons AND boilerplate — never ride the
    # (shingle, id) exchange. Falls back to the unfiltered exchange when
    # the survivor set is past the key-set gate.
    from .groupby import counted_key_survivors

    keyed = keyed.materialize()
    if keyed.count() == 0:
        return _empty_pairs_ds("jaccard")
    # compact numpy count pass (see counted_key_survivors); None → survivor
    # set past the gate → unfiltered exchange (still correct)
    surv = counted_key_survivors(
        keyed, "shingle", None, min_count=2, max_count=max_doc_freq
    )
    if surv is not None:
        keyed = keyed.map_batches(
            BroadcastSemiJoin(put_broadcast(surv), "shingle"), batch_format="pyarrow"
        )

    cands = exchange_group_apply(
        keyed, "shingle", lambda df: _shingle_pairs_in_bucket(df, max_doc_freq)
    )
    cands = distinct_rows(cands, ["left_id", "right_id"])

    if arm == "exchange":
        return _attach_and_verify_jaccard(
            cands, ds, id_col, text_col, jaccard_threshold, None
        )

    side_refs = consolidated_refs(
        ds.map_batches(
            lambda t: pa.table({"id": t.column(id_col), "text": t.column(text_col)}),
            batch_format="pyarrow",
        )
    )

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return _empty_frame(_EMPTY_JACCARD_PAIRS)
        # ARROW side; convert only this batch's referenced texts — a
        # corpus-wide to_pylist per worker hits the allocator pathology
        # documented in blocking.attach_pair_payloads. Each doc's gram set
        # is built ONCE per batch (docs appear in many pairs), and the id
        # lookup index ONCE per worker (see _fetch_gram_codes).
        rows, uniq = pd.factorize(
            pd.concat([df["left_id"], df["right_id"]], ignore_index=True)
        )
        sets = _fetch_gram_codes(side_refs, uniq)
        jac = csr_jaccard(*sets, rows[: len(df)], rows[len(df):])
        out = df[["left_id", "right_id"]].copy()
        out["jaccard"] = jac
        return out[jac >= jaccard_threshold]

    return cands.map_batches(verify, batch_format="pandas")


# ---------------------------------------------------------------------------
# SimHash near-dup
# ---------------------------------------------------------------------------

def simhash_dedup_pairs(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_hamming: int = 3,
    num_prefix_buckets: int = 4,
    expand_cliques: bool = True,
):
    """SimHash near-dup pairs: bucket on rotated 16-bit prefixes of the
    64-bit simhash (any pair within Hamming ≤ 3 shares at least one of the
    4 rotated prefixes exactly — pigeonhole), verify by Hamming distance.
    Shuffle rows are (bucket:int64, id, simhash): 8-byte sketch, never text.

    Hamming is computed over DISTINCT sketch values only: web corpora
    collapse near-dup families onto identical simhashes (measured: 3,550
    distinct sketches for 100k expanded docs → per-bucket all-pairs over
    docs is ~90M comparisons where distinct-sketch pairs need ~10k), and
    identical sketches are Hamming-0 pairs by definition.

    ``expand_cliques=True`` (default) expands every qualifying sketch-group
    pair to ALL doc pairs — byte-exact brute-force parity, but output is
    inherently quadratic in duplicate-family size. ``expand_cliques=False``
    emits a connectivity-equivalent STAR instead (min-id representative to
    each member, representative to representative across groups): linear
    output, same connected components — the right artifact to feed
    ``connected_components`` at the 10^12-doc scale."""

    def emit(t: pa.Table) -> pa.Table:
        ids_arr = t.column(id_col)
        texts = t.column(text_col).to_pylist()
        sh = simhash64([x.lower().split() for x in texts])
        sh_i64 = sh.astype(np.int64)
        n = len(texts)
        buckets = np.empty(n * num_prefix_buckets, dtype=np.int64)
        for b in range(num_prefix_buckets):
            chunk = ((sh >> np.uint64(16 * b)) & np.uint64(0xFFFF)).astype(np.int64)
            buckets[b * n : (b + 1) * n] = (np.int64(b) << 17) | chunk
        return pa.table(
            {
                "bucket": pa.array(buckets, pa.int64()),
                "doc_id": pa.concat_arrays(
                    [ids_arr.combine_chunks()] * num_prefix_buckets
                ),
                "simhash": pa.array(np.tile(sh_i64, num_prefix_buckets), pa.int64()),
            }
        )

    keyed = ds.map_batches(emit, batch_format="pyarrow").materialize()

    def _group_pairs(ga: np.ndarray, gb: np.ndarray, hd: int) -> pd.DataFrame:
        """All cross pairs between two sorted member arrays (left<right by
        construction after the global order fix below)."""
        ii = np.repeat(ga, len(gb))
        jj = np.tile(gb, len(ga))
        lo = np.minimum(ii, jj)
        hi = np.maximum(ii, jj)
        return pd.DataFrame({"left_id": lo, "right_id": hi,
                             "hamming": np.full(len(lo), hd, dtype=np.int64)})

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df.duplicated("bucket", keep=False)]  # singletons can't pair
        frames = []
        for _, g in df.groupby("bucket", sort=False):
            g = g.drop_duplicates("doc_id").sort_values("doc_id")
            if len(g) < 2:
                continue
            ids = g["doc_id"].to_numpy()
            sh = g["simhash"].to_numpy().astype(np.uint64)
            uniq, inv = np.unique(sh, return_inverse=True)
            members = [ids[inv == u] for u in range(len(uniq))]  # each sorted
            # identical-sketch groups: Hamming 0
            for m in members:
                if len(m) < 2:
                    continue
                if expand_cliques:
                    ii, jj = np.triu_indices(len(m), k=1)
                    frames.append(pd.DataFrame(
                        {"left_id": m[ii], "right_id": m[jj],
                         "hamming": np.zeros(len(ii), dtype=np.int64)}))
                else:
                    frames.append(pd.DataFrame(
                        {"left_id": np.full(len(m) - 1, m[0]),
                         "right_id": m[1:],
                         "hamming": np.zeros(len(m) - 1, dtype=np.int64)}))
            # cross-group pairs over DISTINCT sketches
            nd = len(uniq)
            if nd >= 2:
                ii, jj = np.triu_indices(nd, k=1)
                hd = hamming_distance64(uniq[ii], uniq[jj])
                keep = hd <= max_hamming
                for a, b, d in zip(ii[keep], jj[keep], hd[keep]):
                    if expand_cliques:
                        frames.append(_group_pairs(members[a], members[b], int(d)))
                    else:
                        frames.append(_group_pairs(members[a][:1], members[b][:1], int(d)))
        if not frames:
            return _empty_frame(
                {"left_id": "int64", "right_id": "int64", "hamming": "int64"}
            )
        return pd.concat(frames, ignore_index=True)

    pairs = exchange_group_apply(keyed, "bucket", verify)
    return distinct_rows(pairs, ["left_id", "right_id"])


# ---------------------------------------------------------------------------
# Embedding near-dup
# ---------------------------------------------------------------------------

def embedding_neardup_pairs(
    ds,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    cosine_threshold: float = 0.95,
    num_buckets: int | None = 8,
    seed: int = 5,
    max_block_size: int = 4096,
    n_proj: int = 2,
):
    """Embedding near-dup pairs via random-hyperplane LSH buckets +
    in-bucket brute-force cosine. A pair is emitted iff cosine ≥ threshold
    and the two vectors share a bucket under any of ``n_proj`` independent
    projections of log2(num_buckets) bits. Recall per pair at angle θ is
    1−(1−(1−θ/π)^bits)^n_proj — measured 0.80 at n_proj=2/1024 buckets for
    θ≈9° jittered copies on 200k 64-d vectors; raise ``n_proj`` to buy
    recall linearly in shuffle volume (each projection re-keys every id).

    ``num_buckets=None`` sizes buckets to the corpus (~256 vectors per
    bucket, power of two in [16, 65536]): a FIXED bucket count makes
    in-bucket work quadratic in corpus size (measured: 200k vectors at the
    old default of 8 buckets built 78M-pair triu index arrays per bucket
    and ran past 10 minutes; auto-sizing finishes in seconds). At
    cosine ≥ 0.95 the 2-projection recall stays ≥ 0.99 for true near-dups
    (θ ≈ 1° for jittered copies) even at 2^16 buckets. Oversized buckets
    (hyperplane collisions on dense regions) are capped at
    ``max_block_size`` rows with a deterministic min-id prefix, mirroring
    blocking.py's O3 cap.

    The bucket shuffle carries ID-ONLY (bucket:int64, vec_id) rows; the
    float vectors never ride the exchange. In-bucket verification fetches
    vectors from a worker-cached object-store lookup (broadcast) or, past
    the payload gate on the (id, vec) side's bytes (``joins.choose_arm``),
    candidate pairs are deduped id-only and vectors join back per pair
    (exchange).
    """
    from ..functions.simfuncs import cosine_matrix

    arm = choose_arm(ds.select_columns([id_col, vec_col]))

    if num_buckets is None:
        n_vecs = ds.count()
        num_buckets = 1 << int(np.ceil(np.log2(max(16, min(n_vecs // 256, 65536)))))
    # num_buckets=1 → 0 hyperplane bits → everything in one bucket (exact)
    bits = int(np.ceil(np.log2(num_buckets))) if num_buckets > 1 else 0
    n_proj = n_proj if bits else 1

    def emit(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_pylist()
        vecs = list_column_to_matrix(t.column(vec_col))
        dim = vecs.shape[1] if len(vecs) else 1
        rng = np.random.default_rng(seed)
        out_b: list[np.ndarray] = []
        out_i: list = []
        for p in range(n_proj):
            if bits:
                planes = rng.standard_normal((bits, dim))
                if len(vecs):
                    sig = (vecs @ planes.T > 0).astype(np.int64)
                    codes = (sig * (1 << np.arange(bits))).sum(axis=1)
                else:
                    codes = np.zeros(0, dtype=np.int64)
            else:
                codes = np.zeros(len(vecs), dtype=np.int64)
            # projection index folded into the numeric key: different
            # projections never share buckets
            out_b.append(codes + p * (1 << max(bits, 1)))
            out_i.extend(ids)
        return pa.table(
            {
                "bucket": pa.array(
                    np.concatenate(out_b) if out_b else np.array([], dtype=np.int64),
                    pa.int64(),
                ),
                "vec_id": pa.array(out_i),
            }
        )

    keyed = ds.map_batches(emit, batch_format="pyarrow").materialize()
    if keyed.count() == 0:
        return _empty_pairs_ds("cosine")

    _EMPTY_COS = {"left_id": "int64", "right_id": "int64", "cosine": "float64"}

    if arm == "exchange":
        cands = exchange_group_apply(
            keyed, "bucket",
            lambda df: _candidate_pairs_in_bucket(df, "bucket", "vec_id", max_block_size),
        )
        cands = distinct_rows(cands, ["left_id", "right_id"]).materialize()
        # pre-filter the vector side to the referenced ids (same measured
        # lesson as _attach_and_verify_jaccard)
        vec_side = _referenced_side(ds, id_col, cands)

        def side(prefix: str):
            # vectors travel the pair join as fixed-width float64 blobs:
            # binary columns survive the tagged-union cogroup (pandas
            # extension tensor types don't) and pack tighter in the shuffle
            def fn(t: pa.Table) -> pa.Table:
                vecs = list_column_to_matrix(t.column(vec_col))
                blobs = [v.tobytes() for v in vecs]
                return pa.table(
                    {
                        f"{prefix}_id": t.column(id_col),
                        f"{prefix}_vec": pa.array(blobs, pa.binary()),
                    }
                )

            return fn

        with_l = bucketed_join(cands, vec_side.map_batches(side("left"), batch_format="pyarrow"), "left_id")
        with_r = bucketed_join(with_l, vec_side.map_batches(side("right"), batch_format="pyarrow"), "right_id")

        def verify_pairs(df: pd.DataFrame) -> pd.DataFrame:
            if df.empty:
                return _empty_frame(_EMPTY_COS)
            lv = np.vstack([np.frombuffer(b, dtype=np.float64) for b in df["left_vec"]])
            rv = np.vstack([np.frombuffer(b, dtype=np.float64) for b in df["right_vec"]])
            num = np.einsum("ij,ij->i", lv, rv)
            den = np.linalg.norm(lv, axis=1) * np.linalg.norm(rv, axis=1)
            cos = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
            out = df[["left_id", "right_id"]].astype("int64")
            out["cosine"] = cos
            return out[cos >= cosine_threshold]

        return with_r.map_batches(verify_pairs, batch_format="pandas")

    side_refs = consolidated_refs(
        ds.map_batches(
            lambda t: pa.table({"id": t.column(id_col), "vec": t.column(vec_col)}),
            batch_format="pyarrow",
        )
    )

    def build_lookup(t: pa.Table):
        # zero-copy: int64 ids straight into the index, list<float> column
        # flattened to one numpy matrix — the previous to_pylist built
        # n_docs x dim Python floats per worker (12.8M objects at 200k x 64),
        # the allocator pathology documented in blocking.attach_pair_payloads
        if t.num_rows == 0:
            return pd.Index([], dtype=np.int64), np.zeros((0, 0))
        ids = pd.Index(t.column("id").to_numpy(zero_copy_only=False))
        return ids, list_column_to_matrix(t.column("vec"))

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df.duplicated("bucket", keep=False)]  # singletons can't pair
        if df.empty:
            return _empty_frame(_EMPTY_COS)
        index, mat = cached_side(side_refs, build_lookup)
        frames = []
        for _, g in df.groupby("bucket", sort=False):
            g = g.drop_duplicates("vec_id").sort_values("vec_id").head(max_block_size)
            n = len(g)
            if n < 2:
                continue
            ids = g["vec_id"].to_numpy()
            vecs = mat[index.get_indexer(ids)]
            cm = cosine_matrix(vecs, vecs)
            ii, jj = np.triu_indices(n, k=1)
            cos = cm[ii, jj]
            keep = cos >= cosine_threshold
            frames.append(
                pd.DataFrame(
                    {"left_id": ids[ii[keep]], "right_id": ids[jj[keep]], "cosine": cos[keep]}
                )
            )
        if not frames:
            return _empty_frame(_EMPTY_COS)
        return pd.concat(frames, ignore_index=True)

    pairs = exchange_group_apply(keyed, "bucket", verify)
    return distinct_rows(pairs, ["left_id", "right_id"])
