"""GPT-style concat-and-chunk sequence packing — place every document in
the token stream formed by concatenating docs in id order, then chunk the
stream into fixed-length training sequences.

Beyond-reference operator (the reference never prepares LM training
batches); the concat-then-chunk layout is the standard GPT/Pile recipe.

Distributed shape — a PREFIX SCAN, the one aggregate family the repo's
exchange primitives don't cover (cumulative state over a global order):

1. ``sort(id_col)`` range-partitions the corpus into disjoint id-ordered
   blocks, materialized ONCE so both passes see identical block
   boundaries (``batch_size=None`` ⇒ one batch per block).
2. Pass 1 streams one (min_id, token_total) row per block to the driver —
   O(blocks), never values. The driver orders blocks by min_id (disjoint
   ranges make min_id the block's global position) and prefix-sums the
   totals into per-block stream OFFSETS.
3. Pass 2 broadcasts the {min_id: offset} map and each block assigns
   ``start_pos = offset + intra-block exclusive cumsum`` map-side.

Output per doc: (id, token_count, start_pos, seq_first, seq_last) with
``seq_first = start_pos // seq_len`` and ``seq_last`` the chunk holding
the doc's final token (empty docs occupy no tokens: seq_last = seq_first
at their stream position). SQL-oracle-checkable as a window function —
``SUM(token_count) OVER (ORDER BY id ROWS UNBOUNDED PRECEDING)``.

Contract: ``id_col`` values are unique (the corpus id contract); packing
is only meaningful under a defined order, and the sort supplies it.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

#: The packing token: a run of non-ASCII-whitespace, the SQL oracles' RE2
#: '\s+' split. Both passes count with it — pass 1 in Arrow
#: (_token_counts), pass 2 in Python with re.ASCII — since Unicode-aware
#: trims and str.split() also split exotic whitespace (U+00A0, U+2003...)
#: and would desynchronize pass-2 fragments from the pass-1 block offsets
_ASCII_TOKEN = re.compile(r"[^ \t\n\f\r\v]+", re.ASCII)


def _token_counts(texts: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Pass-1 token count per text: the number of _ASCII_TOKEN runs (a
    doc made only of U+00A0 is one token, as in pass 2); null counts 0."""
    import pyarrow.compute as pc

    n = pc.count_substring_regex(texts, _ASCII_TOKEN.pattern)
    return pc.fill_null(n, 0).to_numpy(zero_copy_only=False).astype(np.int64)


def _block_offsets(ordered, block_total, id_col: str):
    """The prefix-scan preamble shared by pack_sequences and
    packed_sequences: one (min_id, total) row per block to the driver
    (O(blocks)), ordered by min_id (sort blocks are disjoint id ranges),
    exclusive prefix sums broadcast back as {min_id: offset}."""
    import ray
    import pyarrow.compute as pc

    def block_meta(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"min_id": pa.array([], pa.int64()),
                             "total": pa.array([], pa.int64())})
        return pa.table(
            {
                "min_id": pa.array([pc.min(t.column(id_col)).as_py()], pa.int64()),
                "total": pa.array([int(block_total(t))], pa.int64()),
            }
        )

    metas = []
    for b in ordered.map_batches(
        block_meta, batch_format="pyarrow", batch_size=None
    ).iter_batches(batch_format="pyarrow", batch_size=None):
        metas.extend(zip(b.column("min_id").to_pylist(), b.column("total").to_pylist()))
    metas.sort()
    offsets: dict[int, int] = {}
    acc = 0
    for mid, tot in metas:
        offsets[mid] = acc
        acc += tot
    return ray.put(offsets)


def pack_sequences(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    seq_len: int = 512,
    token_col: str | None = None,
):
    """Dataset of (id_col, token_count, start_pos, seq_first, seq_last),
    the concat-and-chunk packing layout at ``seq_len`` tokens per
    sequence. ``token_col`` supplies precomputed counts; otherwise
    ASCII-whitespace token counts of ``text_col`` (_ASCII_TOKEN)."""
    import ray

    if seq_len <= 0:
        raise ValueError(f"seq_len must be positive, got {seq_len}")

    def counts_of(t: pa.Table) -> np.ndarray:
        if token_col is not None:
            return t.column(token_col).to_numpy(zero_copy_only=False).astype(np.int64)
        return _token_counts(t.column(text_col))

    cols = [id_col] + ([token_col] if token_col else [text_col])
    ordered = ds.select_columns(cols).sort(id_col).materialize()

    ref = _block_offsets(ordered, lambda t: counts_of(t).sum(), id_col)

    def assign(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                id_col: pa.array([], pa.int64()),
                "token_count": pa.array([], pa.int64()),
                "start_pos": pa.array([], pa.int64()),
                "seq_first": pa.array([], pa.int64()),
                "seq_last": pa.array([], pa.int64()),
            }
        )
        if t.num_rows == 0:
            return empty
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        order = np.argsort(ids, kind="stable")  # blocks are ranges; rows may not be sorted
        t = t.take(pa.array(order.astype(np.int64)))
        ids = ids[order]
        c = counts_of(t)
        base = ray.get(ref)[int(ids[0])]
        start = base + np.concatenate([[0], np.cumsum(c[:-1])])
        # a doc's final token sits at start+c-1; empty docs span no tokens
        # and are pinned to the chunk at their stream position
        last_tok = start + np.maximum(c, 1) - 1
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "token_count": pa.array(c, pa.int64()),
                "start_pos": pa.array(start.astype(np.int64)),
                "seq_first": pa.array((start // seq_len).astype(np.int64)),
                "seq_last": pa.array((last_tok // seq_len).astype(np.int64)),
            }
        )

    return ordered.map_batches(assign, batch_format="pyarrow", batch_size=None)


def packed_sequences(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    seq_len: int = 512,
    num_buckets: int | None = None,
):
    """Materialize the packed training sequences themselves: Dataset of
    (seq_id, n_tokens, n_docs, first_token, last_token, tokens) where
    ``tokens`` is the sequence's token list (lowercase whitespace tokens —
    swap in a trained vocab via functions/lm_tokenize downstream) in
    stream order, ``n_docs`` the count of docs contributing tokens to the
    chunk (each doc emits at most one fragment per chunk).

    Shape: the prefix scan (above) assigns each doc its stream position
    map-side; docs spanning a chunk boundary are SLICED map-side into
    per-chunk (seq_id, pos, tokens) fragments, so the one exchange —
    keyed by seq_id — carries each token exactly once and every bucket
    assembles its sequences with a vectorized sort. The final chunk may
    be shorter than ``seq_len`` (no padding here; padding is the
    tokenizer stage's job)."""
    from .groupby import exchange_group_apply

    if seq_len <= 0:
        raise ValueError(f"seq_len must be positive, got {seq_len}")
    import ray

    ordered = ds.select_columns([id_col, text_col]).sort(id_col).materialize()

    # re-run the scan inline to get (start_pos) alongside the text
    ref = _block_offsets(ordered, lambda t: _token_counts(t.column(text_col)).sum(), id_col)

    def fragments(t: pa.Table) -> pa.Table:
        """Per-chunk fragments: (seq_id, pos, frag) — frag is the doc's
        token slice landing in that chunk, pos its start within the
        stream. Emitted map-side so the exchange moves each token once."""
        empty = pa.table(
            {
                "seq_id": pa.array([], pa.int64()),
                "pos": pa.array([], pa.int64()),
                "frag": pa.array([], pa.string()),
            }
        )
        if t.num_rows == 0:
            return empty
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        order = np.argsort(ids, kind="stable")
        t = t.take(pa.array(order.astype(np.int64)))
        ids = ids[order]
        texts = t.column(text_col).to_pylist()
        base = ray.get(ref)[int(ids[0])]
        rows_seq, rows_pos, rows_frag = [], [], []
        pos = base
        for txt in texts:
            # MUST match _token_counts — a plain .split() would count
            # Unicode whitespace differently and desynchronize from the
            # pass-1 offsets
            toks = _ASCII_TOKEN.findall((txt or "").lower())
            i = 0
            while i < len(toks):
                room = seq_len - (pos % seq_len)
                take = min(room, len(toks) - i)
                rows_seq.append(pos // seq_len)
                rows_pos.append(pos)
                rows_frag.append(" ".join(toks[i : i + take]))
                pos += take
                i += take
        return pa.table(
            {
                "seq_id": pa.array(rows_seq, pa.int64()),
                "pos": pa.array(rows_pos, pa.int64()),
                "frag": pa.array(rows_frag, pa.string()),
            }
        )

    frags = ordered.map_batches(fragments, batch_format="pyarrow", batch_size=None)

    def assemble(df: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd

        if df.empty:
            return pd.DataFrame(
                {
                    "seq_id": pd.Series([], dtype=np.int64),
                    "n_tokens": pd.Series([], dtype=np.int64),
                    "n_docs": pd.Series([], dtype=np.int64),
                    "first_token": pd.Series([], dtype=object),
                    "last_token": pd.Series([], dtype=object),
                    "tokens": pd.Series([], dtype=object),
                }
            )
        df = df.sort_values(["seq_id", "pos"], kind="stable")
        out = []
        for sid, g in df.groupby("seq_id", sort=False):
            toks: list[str] = []
            for f in g["frag"]:
                if f:
                    # same ASCII tokenization as the emit side — a plain
                    # .split() would re-split Unicode whitespace inside
                    # tokens that RE2 \s+ kept whole
                    toks.extend(_ASCII_TOKEN.findall(f))
            if not toks:
                continue
            out.append(
                {
                    "seq_id": int(sid),
                    "n_tokens": len(toks),
                    "n_docs": len(g),
                    "first_token": toks[0],
                    "last_token": toks[-1],
                    "tokens": toks,
                }
            )
        return pd.DataFrame(out)

    return exchange_group_apply(frags, "seq_id", assemble, num_buckets)
