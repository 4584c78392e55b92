"""Substring-level (sliding-window span) deduplication — the Lee et al.
2021 "Deduplicating Training Data Makes Language Models Better" primitive:
a span is duplicated when the exact ``k``-word window occurs more than
once in the WHOLE corpus (including repeats inside one document); every
duplicated occurrence except the global first is struck from the text.

Where ``stages/segdedup`` cuts documents into non-overlapping segments
(the C4 line-dedup shape), this operator slides a stride-1 window, so a
repeated passage of length L ≥ k is removed in full wherever it re-occurs
— the union of its L−k+1 duplicated windows — while unique surrounding
prose survives. Two operators, mirroring the segment pair:

- :func:`window_dup_stats` — per-document (n_windows, dup_windows,
  dup_frac), the thresholdable memorization-risk signal;
- :func:`drop_duplicate_spans` — the rewrite: tokens covered by any
  duplicated non-first window are removed; documents shorter than ``k``
  words have no windows and pass through unchanged.

This is a beyond-reference LLM-training-data operator (the reference
engine, /root/reference, has no substring dedup); it composes the same
exchange primitives as segdedup/dedup.

Scale shape (the 100 TB contract):

- window EMIT is a stateless vectorized map. With ``fingerprint=True``
  (the scale path) no window string is ever materialized: each DISTINCT
  word in the batch is SipHashed once (pandas' C hasher over the
  factorized vocab), and window hashes combine the k word hashes with a
  rolling polynomial — k numpy gathers, 16 B/window on the wire.
  ``fingerprint=False`` carries the exact window string (collision-free;
  what the SQL oracle groups on — parity between the two is pinned by
  test and by the oracle itself, exactly as segdedup's).
- the exchange is keyed on the window value; a window's global count and
  first occurrence are fully contained in its bucket, which emits ONLY
  the duplicated non-first (doc_id, pos) rows — dedup hit rates make
  that far smaller than the corpus.
- the STATS operator's doc-keyed combine carries only documents with
  duplicated windows — n_windows finalizes map-side, never rides the
  exchange (a per-(doc, bucket) row for every doc anti-scaled: partial
  volume grew with the bucket count).
- the rewrite broadcasts the drop list map-side while it passes the
  payload gate (text never rides a shuffle) and degrades to the
  doc_id-bucketed tagged-union exchange past it — the same drop list
  kernel and two arms as ``drop_duplicate_segments``
  (``segdedup.drop_duplicate_occurrences``).

Cost honesty: stride-1 windows mean the exchange carries ~24 B/TOKEN
(hash + doc_id + pos) — the same order as reading the corpus once, which
is inherent to exact substring dedup (Lee et al. pay the equivalent in
suffix-array construction; a distributed hash exchange is the standard
cluster form). It is NOT a small-key exchange like MinHash banding: at
100 TB, run it per date-partitioned shard group and union the survivors,
or raise ``k``/use :func:`window_dup_stats` first to gate which shards
need the rewrite at all.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .groupby import exchange_group_apply, grouped_aggregate
from .segdedup import (
    _within_run_arange,
    _word_lists,
    drop_duplicate_occurrences,
    finalize_dup_frac,
)

#: rolling-polynomial multiplier for combining word hashes into window
#: hashes (mod 2^64; any odd constant with good bit mixing works — this is
#: the FNV-1a prime)
_POLY = np.uint64(1099511628211)


def _word_hashes(flat_words: pa.Array) -> np.ndarray:
    """uint64 SipHash per word, each DISTINCT word hashed once (factorize
    → hash the vocab → gather). Deterministic across batching: the hash
    depends only on word bytes, factorization order cancels out."""
    obj = flat_words.to_numpy(zero_copy_only=False)
    codes, uniques = pd.factorize(obj, use_na_sentinel=False)
    uh = pd.util.hash_array(np.asarray(uniques, dtype=object), categorize=False)
    return uh[codes]


def _window_rows(
    t: pa.Table,
    id_col: str,
    text_col: str,
    k: int,
    fingerprint: bool,
    with_base: bool = False,
) -> pa.Table:
    """(doc_id, pos, win|win_hash) rows for one batch — stride-1 ``k``-word
    windows; documents with fewer than ``k`` words emit none. ``pos`` is
    the 0-based word offset of the window start.

    ``with_base=True`` appends ONE extra row per emitting document with
    ``pos = -(n_windows + 1)`` (and a doc-id-derived key that only routes
    it to a bucket) — the stats operator's map-side window count, costing
    no second tokenize pass. Output is a single-chunk table either way.
    """
    import pyarrow.compute as pc

    words, wc = _word_lists(t, text_col)
    n_win = np.maximum(wc - k + 1, 0)
    flat = words.flatten()
    word_starts = np.concatenate(([0], np.cumsum(wc)[:-1]))
    pos = _within_run_arange(n_win)
    win_start = np.repeat(word_starts, n_win) + pos
    ids = t.column(id_col).to_numpy(zero_copy_only=False)
    cols: dict = {
        id_col: pa.array(np.repeat(ids, n_win)),
        "pos": pa.array(pos),
    }
    if fingerprint:
        wh = _word_hashes(flat)
        h = np.zeros(len(win_start), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for j in range(k):
                h = h * _POLY + wh[win_start + j]
        cols["win_hash"] = pa.array((h >> np.uint64(1)).astype(np.int64))
    else:
        idx = (win_start[:, None] + np.arange(k, dtype=np.int64)[None, :]).ravel()
        taken = flat.take(pa.array(idx, pa.int64()))
        n = len(win_start)
        if (n + 1) * k > np.iinfo(np.int32).max:
            offs = pa.array(np.arange(n + 1, dtype=np.int64) * k)
            lst = pa.LargeListArray.from_arrays(offs, taken)
        else:
            offs = pa.array((np.arange(n + 1) * k).astype(np.int32))
            lst = pa.ListArray.from_arrays(offs, taken)
        cols["win"] = pc.binary_join(lst, " ")
    wins = pa.table(cols)
    if not with_base:
        return wins
    m = n_win > 0
    base_ids = ids[m]
    base_cols: dict = {
        id_col: pa.array(base_ids),
        "pos": pa.array(-(n_win[m].astype(np.int64)) - 1),
    }
    if fingerprint:
        # shift in uint64 THEN cast (the window-hash form): int64 >>
        # np.uint64 scalar becomes a TypeError under NumPy 2 (NEP 50)
        base_cols["win_hash"] = pa.array(
            (pd.util.hash_array(base_ids) >> np.uint64(1)).astype(np.int64)
        )
    else:
        base_cols["win"] = pa.array(base_ids.astype("U"))
    return pa.concat_tables(
        [wins, pa.table(base_cols).select(wins.column_names)],
        promote_options="permissive",
    ).combine_chunks()


def window_dup_stats(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 20,
    fingerprint: bool = True,
    num_buckets: int | None = None,
):
    """Per-document sliding-window duplication stats: Dataset
    (id_col, n_windows, dup_windows, dup_frac) over documents with ≥ k
    words (shorter documents have no windows and no row).

    One pass through a window-keyed exchange. Its doc-keyed combine
    carries only documents that HAVE duplicated windows in a bucket — ``n_windows``
    rides as ONE tagged base row per document (pos = -(n_windows+1),
    exact map-side since a document is one input row) — which keeps the
    partial volume from growing with the bucket count. The original
    shape exchanged a per-(doc, bucket) row for EVERY doc, so adding
    workers added partial volume and the stage stopped scaling:
    measured on a 1.6M-doc / 154M-window corpus (10 % dup docs), the
    old shape ran 57.9 s at 8 CPUs → 55.5 s at 32 (flat) while this
    shape ran 72.1 s → 31.8 s (2.3× from 4× CPUs; 1.7× faster than old
    at 32). The ~20 % 8-CPU premium is the base-row emit + combine.
    (A broadcast of the duplicated-hash set with a map-side recount was
    slower on the x640 bench corpus, 209 s against 56 s at 8 CPUs: its
    count exchange is as heavy as the window exchange.)
    """
    key = "win_hash" if fingerprint else "win"
    src = ds.select_columns([id_col, text_col])

    def emit_with_base(t: pa.Table) -> pa.Table:
        # window rows plus ONE base row per document carrying n_windows
        # encoded as pos = -(n_windows + 1) — so n_windows never rides a
        # per-(doc, bucket) partial and costs no second tokenize pass. A
        # doc is one input row, so its window count is exact map-side.
        return _window_rows(t, id_col, text_col, k, fingerprint, with_base=True)

    wins = src.map_batches(emit_with_base, batch_format="pyarrow")

    def bucket_fn(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                id_col: pd.Series([], dtype=np.int64),
                "n_windows": pd.Series([], dtype=np.int64),
                "dup_windows": pd.Series([], dtype=np.int64),
            }
        )
        if len(df) == 0 or key not in df.columns:
            return empty
        pos = df["pos"].to_numpy()
        isbase = pos < 0
        parts = []
        if isbase.any():
            b = df.loc[isbase]
            parts.append(
                pd.DataFrame(
                    {
                        id_col: b[id_col].to_numpy(),
                        "n_windows": (-b["pos"].to_numpy() - 1).astype(np.int64),
                        "dup_windows": np.int64(0),
                    }
                )
            )
        d = df.loc[~isbase]
        if len(d):
            gc = d.groupby(key, sort=False)[key].transform("size")
            d = d.loc[gc.to_numpy() > 1]
            if len(d):
                out = d.groupby(id_col, as_index=False, sort=False).agg(
                    dup_windows=(key, "size")
                )
                out.insert(1, "n_windows", np.int64(0))
                parts.append(out)
        if not parts:
            return empty
        return pd.concat(parts, ignore_index=True)

    partials = exchange_group_apply(wins, key, bucket_fn, num_buckets)
    stats = grouped_aggregate(
        partials,
        id_col,
        {"n_windows": ("n_windows", "sum"), "dup_windows": ("dup_windows", "sum")},
        num_buckets,
    )

    return stats.map_batches(
        lambda df: finalize_dup_frac(df, "n_windows", "dup_windows"),
        batch_format="pandas",
    )


def drop_duplicate_spans(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 20,
    out_col: str = "clean_text",
    fingerprint: bool = True,
    num_buckets: int | None = None,
):
    """Dataset (id_col, out_col): each document's text with every token
    covered by a duplicated non-first ``k``-word window removed. Word
    separator is a single space; documents with < k words are unchanged.
    The drop list reaches the text as in
    ``segdedup.drop_duplicate_occurrences``.
    """
    key = "win_hash" if fingerprint else "win"
    wins = ds.select_columns([id_col, text_col]).map_batches(
        lambda t: _window_rows(t, id_col, text_col, k, fingerprint),
        batch_format="pyarrow",
    )
    return drop_duplicate_occurrences(
        ds, wins, key, id_col, text_col, out_col, k, num_buckets
    )
