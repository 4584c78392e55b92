"""Eval-set decontamination — the train/test n-gram-overlap filter every
LLM training-data pipeline runs before training (the GPT-3/PaLM-style
"remove any training document sharing a k-word n-gram with the benchmark"
rule): a corpus document is CONTAMINATED when any of its distinct k-word
shingles appears in the eval set's shingle set.

Tokenization is exactly the near-dup family's (`dedup._doc_shingle_hashes`):
lowercase, whitespace split, whole-string shingle for docs with ≤ k words —
so the SQL oracle shares the ngram_jaccard CTE shape.

Beyond-reference operator (the reference engine has no decontamination);
composes the shingle emitter and exchange primitives of ``stages/dedup.py``.

Scale shape (the 100 TB contract):

- eval sets are tiny next to a training corpus, so the broadcast arm
  publishes the eval set's distinct shingle hashes (8 B each, sorted)
  once via ``ray.put`` and the whole decision is MAP-SIDE: one
  searchsorted per corpus batch, no shuffle at all — the filter streams.
- past the payload gate (``joins.choose_arm`` on the eval side's exact
  bytes, one streaming meter pass — never a head sample) the corpus's
  (shingle, doc_id) rows union the eval side's (shingle) rows through ONE
  hash exchange on shingle; buckets emit per-doc partial
  (n_shingles, n_hits) counts — the big exchange's output is doc
  partials, id-only throughout.
- ``strategy="bloom"`` is the opt-in middle path for eval sets past the
  gate where the exchange arm's full corpus-shingle exchange is the cost
  to avoid: a mergeable Bloom filter over the eval shingles
  (stages/bloom.py, ~1.4 B/key vs 8 B/key exact) broadcasts once; the
  map-side probe is DEFINITIVE for misses (no false negatives), so clean
  docs — the overwhelming majority — never shuffle, and only the
  bloom-suspicious docs ride the exact exchange-arm verification. False
  positives cost only wasted verification, never a wrong answer: the
  composed output is EXACT (equal to the other arms, pinned by tests +
  the doc_decontam_bloom SQL oracle). The default, ``strategy="exact"``,
  lets the gate choose between the two exact single-pass arms — bloom
  adds a second corpus read, which is only worth it when the corpus/eval
  ratio is big.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .dedup import _batch_doc_shingle_hashes, _shingle_doc_keys
from .groupby import exchange_group_apply, grouped_aggregate
from .joins import (
    BroadcastSemiJoin,
    bucketed_anti_semi_join,
    choose_arm,
    collect_key_set,
    put_broadcast,
)

def _check_strategy(strategy: str) -> None:
    """``exact``: the gate picks the broadcast or exchange arm. ``bloom``: a
    Bloom prefilter runs before the exchange arm."""
    if strategy not in ("exact", "bloom"):
        raise ValueError(f"strategy must be exact|bloom, got {strategy!r}")


def _eval_arm(eval_ds, id_col: str, text_col: str) -> str:
    """Broadcast or exchange, from the eval side's exact (id, text) bytes."""
    return choose_arm(eval_ds.select_columns([id_col, text_col]))


def _sorted_hits(ev: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """Boolean membership of flat in the SORTED int64 array ev."""
    if ev.size == 0 or flat.size == 0:
        return np.zeros(flat.size, dtype=bool)
    idx = np.searchsorted(ev, flat)
    return (idx < ev.size) & (ev[np.minimum(idx, ev.size - 1)] == flat)


def _eval_shingle_set(eval_ds, id_col: str, text_col: str, k: int) -> np.ndarray:
    """Sorted distinct shingle hashes of the eval set (driver-side; the
    broadcast arm's caller has already passed the eval side through the
    gate)."""
    keyed = eval_ds.select_columns([id_col, text_col]).map_batches(
        _shingle_doc_keys(id_col, text_col, k), batch_format="pyarrow"
    )
    parts = []
    for b in keyed.iter_batches(batch_format="pyarrow"):
        if b.num_rows:
            parts.append(
                np.unique(b.column("shingle").to_numpy(zero_copy_only=False))
            )
    if not parts:
        return np.empty(0, np.int64)
    return np.unique(np.concatenate(parts))


def _batch_stats(
    t: pa.Table, ev: np.ndarray, id_col: str, text_col: str, k: int
) -> pa.Table:
    """Map-side per-doc (n_shingles, n_hits, contaminated) — docs with zero
    shingles (empty text) emit no row, matching the SQL GROUP BY."""
    ids = t.column(id_col).to_numpy(zero_copy_only=False)
    flat, lens = _batch_doc_shingle_hashes(t.column(text_col), k)
    nz = lens > 0
    if not nz.any():
        return pa.table(
            {
                id_col: pa.array([], pa.int64()),
                "n_shingles": pa.array([], pa.int64()),
                "n_hits": pa.array([], pa.int64()),
                "contaminated": pa.array([], pa.bool_()),
            }
        )
    hit = _sorted_hits(ev, flat)
    owners = np.repeat(np.arange(len(ids)), lens)
    hits = np.bincount(owners, weights=hit, minlength=len(ids)).astype(np.int64)
    return pa.table(
        {
            id_col: pa.array(ids[nz]),
            "n_shingles": pa.array(lens[nz]),
            "n_hits": pa.array(hits[nz]),
            "contaminated": pa.array(hits[nz] > 0),
        }
    )


def _eval_bloom(eval_ds, id_col: str, text_col: str, k_words: int, fpp: float):
    """Bloom filter over the eval set's distinct shingle hashes, built
    distributed (per-block probe positions, OR-merged — see stages/bloom).
    Sized from an HLL distinct estimate of the same keyed stream (+25 %
    headroom for the ~1.6 % HLL error), so no caller guesswork."""
    from ..functions.hashing import approx_distinct
    from .bloom import BloomFilter, bloom_from_keyed, bloom_params

    keyed = eval_ds.select_columns([id_col, text_col]).map_batches(
        _shingle_doc_keys(id_col, text_col, k_words), batch_format="pyarrow"
    )
    n_hat = max(1024, int(approx_distinct(keyed, "shingle") * 1.25))
    m_bits, k = bloom_params(n_hat, fpp)
    return bloom_from_keyed(keyed, "shingle", m_bits, k)


def _bloom_suspicious(corpus, bf, id_col: str, text_col: str, k_words: int):
    """(id_col, text_col) subset of docs with ≥1 bloom-hit shingle — the
    docs that need exact verification. Misses are definitive (one-sided
    error), so everything filtered out here is provably clean."""
    import ray

    from .bloom import BloomFilter

    ref = ray.put(bf.words)
    m_bits, k = bf.m_bits, bf.k

    def keep_suspicious(t: pa.Table) -> pa.Table:
        flat, lens = _batch_doc_shingle_hashes(t.column(text_col), k_words)
        if flat.size == 0:
            return t.slice(0, 0)
        probe = BloomFilter(m_bits, k, ray.get(ref))
        hit = probe.contains(flat)
        owners = np.repeat(np.arange(t.num_rows), lens)
        doc_hits = np.bincount(owners, weights=hit, minlength=t.num_rows)
        return t.filter(pa.array(doc_hits > 0))

    return corpus.select_columns([id_col, text_col]).map_batches(
        keep_suspicious, batch_format="pyarrow"
    )


def contamination_stats(
    corpus,
    eval_ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    shingle_words: int = 5,
    strategy: str = "exact",
    num_buckets: int | None = None,
    bloom_fpp: float = 0.005,
):
    """Per-corpus-doc Dataset (id_col, n_shingles, n_hits, contaminated):
    n_hits = how many of the doc's DISTINCT k-word shingles appear in the
    eval set. Docs with no shingles (empty text) emit no row."""
    import ray

    _check_strategy(strategy)
    if strategy == "bloom":
        from .bloom import BloomFilter

        bf = _eval_bloom(eval_ds, id_col, text_col, shingle_words, bloom_fpp)
        ref = ray.put(bf.words)
        m_bits, kp = bf.m_bits, bf.k

        def clean_stats(t: pa.Table) -> pd.DataFrame:
            """Map-side rows for the definitively-clean docs: a bloom miss
            on every shingle is exact (no false negatives), so
            n_hits = 0 / contaminated = False needs no verification."""
            empty = pd.DataFrame(
                {
                    id_col: pd.Series([], dtype=np.int64),
                    "n_shingles": pd.Series([], dtype=np.int64),
                    "n_hits": pd.Series([], dtype=np.int64),
                    "contaminated": pd.Series([], dtype=bool),
                }
            )
            flat, lens = _batch_doc_shingle_hashes(t.column(text_col), shingle_words)
            if flat.size == 0:
                return empty
            probe = BloomFilter(m_bits, kp, ray.get(ref))
            hit = probe.contains(flat)
            owners = np.repeat(np.arange(t.num_rows), lens)
            doc_hits = np.bincount(owners, weights=hit, minlength=t.num_rows)
            clean = (lens > 0) & (doc_hits == 0)
            if not clean.any():
                return empty
            ids = t.column(id_col).to_numpy(zero_copy_only=False)[clean]
            return pd.DataFrame(
                {
                    id_col: ids.astype(np.int64),
                    "n_shingles": lens[clean].astype(np.int64),
                    "n_hits": np.zeros(clean.sum(), dtype=np.int64),
                    "contaminated": np.zeros(clean.sum(), dtype=bool),
                }
            )

        clean = corpus.select_columns([id_col, text_col]).map_batches(
            clean_stats, batch_format="pyarrow"
        )
        suspicious = _bloom_suspicious(corpus, bf, id_col, text_col, shingle_words)
        exact = _exchange_stats(
            suspicious, eval_ds, id_col, text_col, shingle_words, num_buckets
        )
        return clean.union(exact)

    if _eval_arm(eval_ds, id_col, text_col) == "broadcast":
        ref = ray.put(_eval_shingle_set(eval_ds, id_col, text_col, shingle_words))

        def fn(t: pa.Table) -> pa.Table:
            return _batch_stats(t, ray.get(ref), id_col, text_col, shingle_words)

        return corpus.select_columns([id_col, text_col]).map_batches(
            fn, batch_format="pyarrow"
        )
    return _exchange_stats(
        corpus, eval_ds, id_col, text_col, shingle_words, num_buckets
    )


def _exchange_stats(
    corpus, eval_ds, id_col: str, text_col: str, shingle_words: int,
    num_buckets: int | None,
):
    """The exchange arm of :func:`contamination_stats`: a tagged union on
    shingle — corpus rows carry doc_id, eval rows only the shingle
    (typed-null doc_id after the permissive concat)."""
    emit = _shingle_doc_keys(id_col, text_col, shingle_words)

    def tag(side: int):
        def f(t: pa.Table) -> pa.Table:
            keyed = emit(t)
            cols = {
                "shingle": keyed.column("shingle"),
                "_side": pa.array(
                    np.full(keyed.num_rows, side, dtype=np.int8)
                ),
            }
            if side == 0:
                cols["doc_id"] = keyed.column("doc_id")
            return pa.table(cols)

        return f

    both = [
        corpus.select_columns([id_col, text_col]).map_batches(
            tag(0), batch_format="pyarrow"
        ),
        eval_ds.select_columns([id_col, text_col]).map_batches(
            tag(1), batch_format="pyarrow"
        ),
    ]

    def bucket(t: pa.Table) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                id_col: pd.Series([], dtype=np.int64),
                "n_shingles": pd.Series([], dtype=np.int64),
                "n_hits": pd.Series([], dtype=np.int64),
            }
        )
        if "_side" not in t.column_names or "shingle" not in t.column_names:
            return empty
        side = t.column("_side").to_numpy(zero_copy_only=False)
        sh = t.column("shingle").to_numpy(zero_copy_only=False)
        c_mask = side == 0
        if not c_mask.any():
            return empty
        ev = np.unique(sh[~c_mask])
        hit = _sorted_hits(ev, sh[c_mask])
        # filter the Arrow column BEFORE to_numpy: eval rows carry typed-null
        # doc_ids that would promote the whole column to float64
        dids = (
            t.column("doc_id")
            .filter(pa.array(c_mask))
            .to_numpy(zero_copy_only=False)
        )
        df = pd.DataFrame({id_col: dids, "_h": hit.astype(np.int64)})
        return df.groupby(id_col, as_index=False, sort=False).agg(
            n_shingles=("_h", "size"), n_hits=("_h", "sum")
        )

    partials = exchange_group_apply(
        both, "shingle", bucket, num_buckets, fn_format="pyarrow"
    )
    stats = grouped_aggregate(
        partials,
        id_col,
        {"n_shingles": ("n_shingles", "sum"), "n_hits": ("n_hits", "sum")},
        num_buckets,
    )

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["n_shingles"] = df["n_shingles"].astype(np.int64)
        df["n_hits"] = df["n_hits"].astype(np.int64)
        df["contaminated"] = df["n_hits"].to_numpy() > 0
        return df

    return stats.map_batches(finalize, batch_format="pandas")


def decontaminate(
    corpus,
    eval_ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    shingle_words: int = 5,
    strategy: str = "exact",
    num_buckets: int | None = None,
    bloom_fpp: float = 0.005,
):
    """Corpus rows (all columns) with contaminated documents REMOVED.

    Broadcast arm: one streaming map-side filter — each batch shingles its
    own docs against the broadcast eval set and keeps the clean rows (no
    shuffle, no second pass). Exchange arm: contaminated ids from the
    shingle exchange of :func:`contamination_stats`, then an anti-join on
    id — broadcast while the id set passes the key-set gate
    (``joins.collect_key_set``), the bucketed anti-join past it (an eval
    set that reaches most of the corpus). Bloom arm: the broadcast Bloom
    prefilter restricts the exact exchange-arm verification to
    bloom-suspicious docs only — the corpus-shingle exchange shrinks to the
    suspicious slice while the output stays EXACT (bloom misses are
    definitive)."""
    import ray

    _check_strategy(strategy)
    if strategy == "exact" and _eval_arm(eval_ds, id_col, text_col) == "broadcast":
        ref = ray.put(_eval_shingle_set(eval_ds, id_col, text_col, shingle_words))

        def keep_clean(t: pa.Table) -> pa.Table:
            ev = ray.get(ref)
            flat, lens = _batch_doc_shingle_hashes(t.column(text_col), shingle_words)
            keep = np.ones(t.num_rows, dtype=bool)
            if flat.size:
                hit = _sorted_hits(ev, flat)
                owners = np.repeat(np.arange(t.num_rows), lens)
                keep &= np.bincount(
                    owners, weights=hit, minlength=t.num_rows
                ) == 0
            return t.filter(pa.array(keep))

        return corpus.map_batches(keep_clean, batch_format="pyarrow")

    if strategy == "bloom":
        # exact verification restricted to the bloom-suspicious slice —
        # the shingle exchange carries only those docs' shingles
        bf = _eval_bloom(eval_ds, id_col, text_col, shingle_words, bloom_fpp)
        verify_side = _bloom_suspicious(corpus, bf, id_col, text_col, shingle_words)
    else:
        verify_side = corpus
    stats = _exchange_stats(
        verify_side, eval_ds, id_col, text_col, shingle_words, num_buckets
    )
    import pyarrow.compute as pc

    # a map over the exchange's materialized output: streaming it twice (the
    # collect, then the anti-join past the gate) re-runs only this filter
    bad = stats.map_batches(
        lambda t: t.filter(pc.equal(t.column("contaminated"), True)).select([id_col]),
        batch_format="pyarrow",
    )
    bad_ids = collect_key_set(bad, id_col)
    if bad_ids is None:
        return bucketed_anti_semi_join(
            corpus, bad, id_col, anti=True, num_buckets=num_buckets
        )
    return corpus.map_batches(
        BroadcastSemiJoin(put_broadcast(bad_ids), id_col, anti=True),
        batch_format="pyarrow",
    )
