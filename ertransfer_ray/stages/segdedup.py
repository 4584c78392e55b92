"""Segment-level (line-level) duplication — the C4 / RefinedWeb text-dedup
primitive, over corpora whose documents carry no line structure: each
document is cut into consecutive NON-overlapping ``k``-word segments and a
segment occurrence is DUPLICATED when its exact text occurs more than once
in the whole corpus (repeats inside one document count).

Two operators:

- :func:`segment_dup_stats` — per-document duplication signal
  (n_segs, dup_segs, dup_frac), the quality feature RefinedWeb thresholds on;
- :func:`drop_duplicate_segments` — the rewrite: every duplicated occurrence
  except the GLOBAL FIRST (min (doc_id, seg_no)) is removed and the
  document's text is reassembled from surviving segments plus its
  remainder words (the trailing ``len % k`` words are never segment
  members and always survive).

This is a beyond-reference LLM-training-data operator (the reference
engine, /root/reference, has no intra-document dedup); it composes the same
exchange primitives as the exact-dedup family (``stages/dedup.py``).

Scale shape (the 100 TB contract):

- stage 1 is a stateless vectorized map: ``split_pattern`` → one flat word
  array → ``take`` + ``binary_join`` rebuild segment strings with NO
  per-row Python. The text column never rides a shuffle here — what
  crosses the exchange is (doc_id, seg_hash) at 16 B/row
  (``fingerprint=True``, the exact-dedup ``content_hash`` convention via
  ``stable_hash64``) or the segment string itself (``fingerprint=False``,
  collision-free; the value the SQL oracle groups on).
- stage 2 buckets by segment: a segment's global count is fully contained
  in its bucket, so each bucket emits per-(doc, bucket) PARTIAL
  (n_segs, dup_segs) rows — the big exchange's OUTPUT is doc partials,
  never segment rows.
- stage 3 sums partials per doc (``grouped_aggregate``) — a second, much
  smaller exchange (≤ docs × buckets rows).
- the rewrite's drop list is only the duplicated NON-FIRST occurrences
  (16 B each); dedup hit rates make it far smaller than the corpus, so it
  broadcasts map-side (no text shuffle at all) while it passes the payload
  gate (``joins.choose_arm``, the gate of every broadcast in the engine)
  and degrades to a doc_id-bucketed tagged-union exchange past it.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.hashing import stable_hash64
from .groupby import exchange_group_apply, grouped_aggregate


def _within_run_arange(lens: np.ndarray) -> np.ndarray:
    """0..len-1 inside each run, concatenated: [2,3] -> [0,1,0,1,2]."""
    total = int(lens.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    return np.arange(total, dtype=np.int64) - np.repeat(starts, lens)


def _word_lists(t: pa.Table, text_col: str):
    """ListArray of whitespace-split words + int64 per-doc word counts."""
    import pyarrow.compute as pc

    text = pc.fill_null(pc.cast(t.column(text_col), pa.string()), "")
    words = pc.split_pattern(text, " ")
    if isinstance(words, pa.ChunkedArray):
        words = words.combine_chunks()
    wc = pc.list_value_length(words).to_numpy(zero_copy_only=False).astype(np.int64)
    return words, wc


def _join_segments(values: pa.Array, num_segs: int, k: int) -> pa.Array:
    """Segment strings from a flat word array holding num_segs*k words."""
    import pyarrow.compute as pc

    if (num_segs + 1) * k > np.iinfo(np.int32).max:
        offsets = pa.array(np.arange(num_segs + 1, dtype=np.int64) * k)
        lst = pa.LargeListArray.from_arrays(offsets, values)
    else:
        offsets = pa.array((np.arange(num_segs + 1) * k).astype(np.int32))
        lst = pa.ListArray.from_arrays(offsets, values)
    return pc.binary_join(lst, " ")


def _segment_rows(
    t: pa.Table, id_col: str, text_col: str, k: int,
    fingerprint: bool, with_seg_no: bool,
) -> pa.Table:
    """(doc_id, [seg_no,] seg|seg_hash) rows for one batch — full k-word
    segments only; the trailing len%k words are not segments."""
    words, wc = _word_lists(t, text_col)
    n_full = wc // k
    lens = n_full * k
    flat = words.flatten()
    word_starts = np.concatenate(([0], np.cumsum(wc)[:-1]))
    idx = np.repeat(word_starts, lens) + _within_run_arange(lens)
    taken = flat.take(pa.array(idx, pa.int64()))
    num_segs = int(n_full.sum())
    seg = _join_segments(taken, num_segs, k)
    ids = t.column(id_col).to_numpy(zero_copy_only=False)
    cols: dict = {id_col: pa.array(np.repeat(ids, n_full))}
    if with_seg_no:
        cols["seg_no"] = pa.array(_within_run_arange(n_full))
    if fingerprint:
        s = seg.to_numpy(zero_copy_only=False)
        cols["seg_hash"] = pa.array(
            (stable_hash64(s) >> np.uint64(1)).astype(np.int64)
        )
    else:
        cols["seg"] = seg
    return pa.table(cols)


def segment_dup_stats(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 5,
    fingerprint: bool = True,
    num_buckets: int | None = None,
):
    """Per-document segment-duplication stats: Dataset
    (id_col, n_segs, dup_segs, dup_frac) over documents with ≥ 1 full
    segment (shorter documents have no segments and no row — the SQL
    GROUP BY drops them identically)."""
    key = "seg_hash" if fingerprint else "seg"
    segs = ds.select_columns([id_col, text_col]).map_batches(
        lambda t: _segment_rows(t, id_col, text_col, k, fingerprint, False),
        batch_format="pyarrow",
    )

    def bucket_fn(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or key not in df.columns:
            return pd.DataFrame(
                {
                    id_col: pd.Series([], dtype=np.int64),
                    "n_segs": pd.Series([], dtype=np.int64),
                    "dup_segs": pd.Series([], dtype=np.int64),
                }
            )
        gc = df.groupby(key, sort=False)[key].transform("size")
        return (
            df.assign(_d=(gc > 1).to_numpy().astype(np.int64))
            .groupby(id_col, as_index=False, sort=False)
            .agg(n_segs=(key, "size"), dup_segs=("_d", "sum"))
        )

    partials = exchange_group_apply(segs, key, bucket_fn, num_buckets)
    stats = grouped_aggregate(
        partials,
        id_col,
        {"n_segs": ("n_segs", "sum"), "dup_segs": ("dup_segs", "sum")},
        num_buckets,
    )

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["n_segs"] = df["n_segs"].astype(np.int64)
        df["dup_segs"] = df["dup_segs"].astype(np.int64)
        df["dup_frac"] = df["dup_segs"].to_numpy(dtype=np.float64) / df[
            "n_segs"
        ].to_numpy(dtype=np.float64)
        return df

    return stats.map_batches(finalize, batch_format="pandas")


# ---------------------------------------------------------------------------
# rewrite: drop every duplicated occurrence except the global first
# ---------------------------------------------------------------------------

def _drop_rows(df: pd.DataFrame, id_col: str, key: str) -> pd.DataFrame:
    """Bucket fn: duplicated occurrences that are NOT the global first
    (first = min (doc_id, seg_no) per segment value)."""
    if len(df) == 0 or key not in df.columns:
        return pd.DataFrame(
            {
                id_col: pd.Series([], dtype=np.int64),
                "seg_no": pd.Series([], dtype=np.int64),
            }
        )
    d = df.sort_values([id_col, "seg_no"], kind="stable")
    keep_first = ~d.duplicated(subset=[key], keep="first")
    out = d.loc[~keep_first, [id_col, "seg_no"]]
    return out.reset_index(drop=True)


def _rewrite_batch(
    t: pa.Table, drops: pd.DataFrame, id_col: str, text_col: str, k: int,
    out_col: str,
) -> pa.Table:
    """Rebuild text with dropped segments removed — one flat-word keep mask
    per batch, no per-row Python."""
    words, wc = _word_lists(t, text_col)
    flat = words.flatten()
    total = int(wc.sum())
    keep = np.ones(total, dtype=bool)
    ids = t.column(id_col).to_numpy(zero_copy_only=False)
    if len(drops):
        word_starts = np.concatenate(([0], np.cumsum(wc)[:-1]))
        pos = pd.Series(np.arange(len(ids), dtype=np.int64), index=ids)
        hit = drops[drops[id_col].isin(pos.index)]
        if len(hit):
            rows = pos.loc[hit[id_col]].to_numpy()
            seg_starts = word_starts[rows] + hit["seg_no"].to_numpy() * k
            kill = (seg_starts[:, None] + np.arange(k)[None, :]).ravel()
            keep[kill] = False
    kept = flat.filter(pa.array(keep))
    kept_counts = np.zeros(len(ids), dtype=np.int64)
    if total:
        np.add.at(kept_counts, np.repeat(np.arange(len(ids)), wc), keep)
    offs = np.concatenate(([0], np.cumsum(kept_counts)))
    if offs[-1] > np.iinfo(np.int32).max:
        lst = pa.LargeListArray.from_arrays(pa.array(offs), kept)
    else:
        lst = pa.ListArray.from_arrays(pa.array(offs.astype(np.int32)), kept)
    import pyarrow.compute as pc

    return pa.table({id_col: t.column(id_col), out_col: pc.binary_join(lst, " ")})


def drop_duplicate_segments(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 5,
    out_col: str = "clean_text",
    fingerprint: bool = True,
    num_buckets: int | None = None,
):
    """Dataset (id_col, out_col): each document's text with every duplicated
    segment occurrence except the global first removed; remainder words
    (len % k tail) always survive. Word separator is a single space.
    The drop list reaches the text as in :func:`rewrite_with_drops`."""
    key = "seg_hash" if fingerprint else "seg"
    segs = ds.select_columns([id_col, text_col]).map_batches(
        lambda t: _segment_rows(t, id_col, text_col, k, fingerprint, True),
        batch_format="pyarrow",
    )
    drops = exchange_group_apply(
        segs, key, lambda df: _drop_rows(df, id_col, key), num_buckets
    ).materialize()
    return rewrite_with_drops(
        ds, drops, id_col, text_col, out_col, "seg_no",
        lambda t, d: _rewrite_batch(t, d, id_col, text_col, k, out_col),
        num_buckets,
    )


def rewrite_with_drops(
    ds, drops, id_col: str, text_col: str, out_col: str, pos_col: str,
    rewrite, num_buckets: int | None,
):
    """The two arms of a drop-list rewrite (segments here, spans in
    ``spandedup``). ``drops`` is the materialized (id_col, pos_col) drop
    list; ``rewrite(batch, drop_frame)`` rebuilds one batch of
    (id_col, text_col) rows as (id_col, out_col).

    - broadcast, while the drop list passes the payload gate
      (``joins.choose_arm`` on its block metadata): the list is ``ray.put``
      once and every batch rewrites map-side — no text shuffle;
    - exchange: the (doc, text) rows and the drop rows ride one tagged
      union exchanged on id_col, rewritten per bucket.
    """
    import pyarrow.compute as pc
    import ray
    import ray.data as rd

    from .joins import _arrow_field_type, choose_arm

    # a map over an empty corpus emits zero typed blocks — pin the output
    # schema with one empty typed block (same trick as dedup._empty_pairs_ds)
    try:
        id_type = _arrow_field_type(ds.schema(), id_col)
    except Exception:  # noqa: BLE001 — schema unavailable: int64 ids (the norm)
        id_type = pa.int64()
    schema_pin = rd.from_arrow(
        pa.table({id_col: pa.array([], id_type), out_col: pa.array([], pa.string())})
    )
    src = ds.select_columns([id_col, text_col])

    if choose_arm(drops) == "broadcast":
        ref = ray.put(drops.to_pandas())
        return schema_pin.union(
            src.map_batches(lambda t: rewrite(t, ray.get(ref)), batch_format="pyarrow")
        )

    # exchange arm: tagged union on id_col — text rows side 0, drop rows side 1
    def tag_docs(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_col: pc.cast(t.column(id_col), pa.int64()),
                text_col: pc.cast(t.column(text_col), pa.string()),
                "_side": pa.array(np.zeros(t.num_rows, dtype=np.int8)),
            }
        )

    def tag_drops(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_col: pc.cast(t.column(id_col), pa.int64()),
                pos_col: pc.cast(t.column(pos_col), pa.int64()),
                "_side": pa.array(np.ones(t.num_rows, dtype=np.int8)),
            }
        )

    both = [
        src.map_batches(tag_docs, batch_format="pyarrow"),
        drops.map_batches(tag_drops, batch_format="pyarrow"),
    ]

    def bucket(t: pa.Table):
        if "_side" not in t.column_names or text_col not in t.column_names:
            return pa.table(
                {id_col: pa.array([], pa.int64()), out_col: pa.array([], pa.string())}
            )
        side = t.column("_side").to_numpy(zero_copy_only=False)
        docs_t = t.filter(pa.array(side == 0)).select([id_col, text_col])
        if pos_col in t.column_names:
            dr = t.filter(pa.array(side == 1)).select([id_col, pos_col]).to_pandas()
            dr[pos_col] = dr[pos_col].astype(np.int64)
        else:
            dr = pd.DataFrame({id_col: [], pos_col: pd.Series([], dtype=np.int64)})
        return rewrite(docs_t, dr)

    return schema_pin.union(
        exchange_group_apply(both, id_col, bucket, num_buckets, fn_format="pyarrow")
    )
