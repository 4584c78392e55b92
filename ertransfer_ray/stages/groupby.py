"""The hash exchange — this engine's one shuffle primitive.

Why this exists (measured on Ray 2.49.2, 600k rows, 4 CPUs):

====================================================  =========
``groupby(k).aggregate(Sum, Count)`` (6 groups)        228 s
``groupby(k).map_groups`` (15k tiny groups)            minutes
hash-bucket to 8 + vectorized pandas per bucket        0.49 s
====================================================  =========

Ray 2.49's builtin aggregate path accumulates **per row in Python**, and
``map_groups`` pays a per-GROUP Python/pandas overhead (~1-2 ms), so any
high-cardinality key is catastrophic. Its groupby also sorts, which hash
bucketing never needs.

Every grouped operation here (distinct, aggregate, top-k, cogroup joins)
runs on :func:`exchange_group_apply`, a classic two-phase MapReduce
exchange written on raw Ray tasks:

1. materialize the input ONCE and take its block refs;
2. per input block: ``bucket = stable_hash(key) % P`` (vectorized), sort the
   rows by bucket and slice them into P sub-tables — every row moves ONCE
   into P partitions (P ≈ cluster task slots, NOT key cardinality);
3. per bucket: concatenate its slices and run **vectorized pandas**
   (groupby-agg, drop_duplicates, sort+head) over the whole bucket at once.

Per-group Python overhead is paid P times instead of |keys| times. Skewed
keys still land whole in one bucket — callers with known-hot keys salt them
first (see blocking.py). Each exchange is a pipeline breaker, so it runs
its lazy input exactly once: the block refs come from one ``materialize``,
never from ``to_arrow_refs`` (which in Ray 2.49 runs part of the plan a
second time to fetch the schema, and converts pandas blocks in extra tasks).

How many buckets. An explicit ``num_buckets`` is always used as given;
otherwise :func:`default_num_buckets`, two per CPU. Every bucket costs a
task pair and ``blocks`` object refs whatever it holds, so the count has no
floor beyond the CPUs: on one CPU a few thousand key rows run as two
buckets.

For small-result aggregations there's an even cheaper path with NO shuffle:
per-batch pandas partial aggregates → combine on the driver
(``partial_aggregate``). Use it whenever |keys| is bounded (metrics, stats,
histograms) — this is the "pre-aggregate inside map_batches" rule.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.hashing import stable_hash64

#: ceiling on driver-held object refs per exchange (split outputs =
#: n_split_tasks x num_buckets). Each ref costs ~KB of driver metadata, so
#: 2^20 refs ~ a GB-scale driver dict — the knee where ref bookkeeping
#: starts to rival the shuffle itself (CC runs 5 exchanges/round; at 10^6
#: input blocks an ungrouped fan would be 10^8 refs/round). Blocks are
#: GROUPED into split tasks to stay under it: identical row-level result
#: (bucketing hashes rows, not blocks), one concat per group in-worker.
MAX_EXCHANGE_REFS = 1 << 20


def _group_refs(block_refs: list, num_buckets: int) -> list[list]:
    """Partition block refs into split-task groups so that
    n_groups x num_buckets <= MAX_EXCHANGE_REFS (always >= 1 block/group;
    g=1 — today's behavior — whenever the input is below the ceiling)."""
    n_groups_cap = max(1, MAX_EXCHANGE_REFS // max(num_buckets, 1))
    if len(block_refs) <= n_groups_cap:
        return [[r] for r in block_refs]
    g = -(-len(block_refs) // n_groups_cap)
    return [block_refs[i : i + g] for i in range(0, len(block_refs), g)]


def _materialized_blocks(ds) -> tuple[list, object]:
    """Run ``ds`` once and return its block refs (arrow or pandas blocks)
    and its schema (``None`` when unknown). ``to_arrow_refs`` would run part
    of a lazy plan a second time to fetch the schema. An input that is
    already materialized is used as it is: materializing it again copies
    its plan (~10 ms on one CPU)."""
    from ray.data.dataset import MaterializedDataset

    mat = ds if isinstance(ds, MaterializedDataset) else ds.materialize()
    refs = [r for bundle in mat.iter_internal_ref_bundles() for r in bundle.block_refs]
    return refs, mat.schema(fetch_if_missing=False)


def default_num_buckets() -> int:
    """Bucket count sized to the cluster: 2 buckets per CPU so every core
    has grouped work."""
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return max(1, 2 * cpus)


def _bucket_of(df: pd.DataFrame, keys: list[str], num_buckets: int) -> np.ndarray:
    if len(keys) == 1:
        col = df[keys[0]]
        if pd.api.types.is_integer_dtype(col):
            # fast path: hash fixed-width ints directly, no string conversion
            h = pd.util.hash_array(col.to_numpy())
            return (h % np.uint64(num_buckets)).astype(np.int64)
        raw = col.astype(str).to_numpy(dtype=object)
    elif all(pd.api.types.is_integer_dtype(df[k]) for k in keys):
        # all-int multi-key fast path (pair keys like (left_id, right_id)):
        # mix per-column SipHashes instead of building a concatenated
        # OBJECT string per row — the string path allocates one Python str
        # per row, which at 10^9 candidate pairs is the whole stage cost
        h = pd.util.hash_array(df[keys[0]].to_numpy())
        for k in keys[1:]:
            h = h * np.uint64(0x9E3779B97F4A7C15) + pd.util.hash_array(
                df[k].to_numpy()
            )
        return (h % np.uint64(num_buckets)).astype(np.int64)
    else:
        raw = df[keys[0]].astype(str).str.cat([df[k].astype(str) for k in keys[1:]], sep="\x1f").to_numpy(dtype=object)
    return (stable_hash64(raw) % np.uint64(num_buckets)).astype(np.int64)


def distinct_rows(ds, keys: str | list[str], num_buckets: int | None = None):
    """Global dedup on a key tuple: keep the first row per key (sorted by the
    remaining columns for determinism)."""
    keys = [keys] if isinstance(keys, str) else list(keys)

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(list(df.columns)).drop_duplicates(keys)

    return exchange_group_apply(ds, keys, fn, num_buckets)


# ---------------------------------------------------------------------------
# Aggregation specs: pandas named-agg per batch, algebraic combine
# ---------------------------------------------------------------------------

_COMBINE = {
    "sum": "sum",
    "count": "sum",
    "min": "min",
    "max": "max",
}


def _partial_agg(df: pd.DataFrame, keys: list[str], spec: dict) -> pd.DataFrame:
    """spec: out_col -> (in_col, op) with op ∈ sum|count|min|max|mean.
    mean decomposes to sum+count partials, finalized later."""
    named = {}
    for out, (col, op) in spec.items():
        if op == "mean":
            named[f"__{out}_sum"] = (col, "sum")
            named[f"__{out}_cnt"] = (col, "count")
        elif op == "count":
            named[out] = (keys[0] if col is None else col, "size" if col is None else "count")
        else:
            named[out] = (col, op)
    return df.groupby(keys, as_index=False, sort=False, dropna=False).agg(**named)


def _combine_agg(df: pd.DataFrame, keys: list[str], spec: dict) -> pd.DataFrame:
    named = {}
    for out, (col, op) in spec.items():
        if op == "mean":
            named[f"__{out}_sum"] = (f"__{out}_sum", "sum")
            named[f"__{out}_cnt"] = (f"__{out}_cnt", "sum")
        else:
            named[out] = (out, _COMBINE[op])
    out_df = df.groupby(keys, as_index=False, sort=False, dropna=False).agg(**named)
    for out, (col, op) in spec.items():
        if op == "mean":
            out_df[out] = out_df[f"__{out}_sum"] / out_df[f"__{out}_cnt"]
            out_df = out_df.drop(columns=[f"__{out}_sum", f"__{out}_cnt"])
    return out_df


def partial_aggregate(ds, keys: str | list[str], spec: dict) -> pd.DataFrame:
    """Shuffle-free grouped aggregate for bounded key cardinality:
    per-batch pandas partials → single driver-side combine.

    ``spec``: ``{out_col: (in_col, op)}``, op ∈ sum|count|min|max|mean
    (count with in_col=None counts rows). Returns a pandas DataFrame sorted
    by keys. The driver only ever sees |keys|·num_batches partial rows.
    """
    keys = [keys] if isinstance(keys, str) else list(keys)
    partials = ds.map_batches(
        lambda df: _partial_agg(df, keys, spec), batch_format="pandas"
    )
    parts = [b for b in partials.iter_batches(batch_format="pandas")]
    if not parts:
        cols = keys + list(spec)
        return pd.DataFrame({c: [] for c in cols})
    allp = pd.concat(parts, ignore_index=True)
    return _combine_agg(allp, keys, spec).sort_values(keys, ignore_index=True)


def grouped_aggregate(
    ds, keys: str | list[str], spec: dict, num_buckets: int | None = None
):
    """Distributed grouped aggregate for unbounded key cardinality:
    per-batch partials (big shrink) → exchange combine. Returns a Dataset."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    partials = ds.map_batches(
        lambda df: _partial_agg(df, keys, spec), batch_format="pandas"
    )
    return exchange_group_apply(
        partials, keys, lambda df: _combine_agg(df, keys, spec), num_buckets
    )


def exchange_group_apply(
    ds,
    keys: str | list[str],
    fn: Callable[[pd.DataFrame], pd.DataFrame],
    num_buckets: int | None = None,
    fn_format: str = "pandas",
):
    """Apply ``fn`` to each hash bucket of ``ds`` via a raw-Ray two-phase
    HASH EXCHANGE — no sort. All rows sharing a key land in the same
    bucket; ``fn`` receives the whole bucket as one DataFrame and must
    itself group by ``keys`` (vectorized: ``df.groupby``,
    ``drop_duplicates``, ``sort_values`` + ``head``). Buckets that receive
    no rows still call ``fn``, on an empty frame.

      phase 1: one task per input block sorts rows by bucket id ONCE and
               slices it into ``num_buckets`` arrow sub-tables;
      phase 2: one task per bucket concatenates its slices and applies
               ``fn`` to the whole bucket.

    The input is materialized once (the exchange must enumerate blocks), so
    a lazy upstream runs exactly once per call; a caller that feeds one
    Dataset to several exchanges materializes it first.

    ``fn_format="pyarrow"`` hands ``fn`` the bucket as one pyarrow Table
    (permissive-promoted concat: blocks may carry DIFFERENT column subsets,
    missing columns surface as typed nulls) and accepts a Table or DataFrame
    back. This is the path for tagged unions whose sides ship disjoint
    column sets — the bucket fn slices by side BEFORE any pandas
    conversion, so absent-side nulls never force an int→float64 promotion.
    """
    import ray
    import ray.data as rd

    if fn_format not in ("pandas", "pyarrow"):
        raise ValueError(f"fn_format must be pandas|pyarrow, got {fn_format!r}")
    if num_buckets is None:
        num_buckets = default_num_buckets()
    keys = [keys] if isinstance(keys, str) else list(keys)

    block_refs, schema = _materialized_blocks(ds)
    if not block_refs or schema is None or not schema.names:
        # zero-block or schema-less input (a map over an empty dataset emits
        # one empty block with no columns): nothing to group, but consumers
        # expect fn's OUTPUT schema (e.g. left_id/right_id on an empty
        # corpus), not the input's — so hand fn an empty frame built from
        # whatever schema exists, exactly as apply_bucket does for all-empty
        # buckets. Fall back to the input only if fn can't cope.
        try:
            if schema is not None and schema.names:
                arrow_schema = getattr(schema, "base_schema", schema)
                if isinstance(arrow_schema, pa.Schema):
                    base = arrow_schema.empty_table().to_pandas()
                else:  # pandas-block schema: names + numpy dtypes
                    base = pd.DataFrame(
                        {
                            n: pd.Series([], dtype=t)
                            for n, t in zip(schema.names, schema.types)
                        }
                    )
            else:
                base = pd.DataFrame()
            if fn_format == "pyarrow":
                out = fn(pa.Table.from_pandas(base, preserve_index=False))
            else:
                out = fn(base)
            if isinstance(out, pd.DataFrame):
                out = pa.Table.from_pandas(out, preserve_index=False)
            return rd.from_arrow(out)
        except (KeyError, AttributeError, IndexError, TypeError, ValueError) as exc:
            # Only the "fn assumes real columns" failure modes fall back to
            # returning the empty input; anything else is a genuine fn bug
            # that must surface, not be masked by the empty-corpus path. Log
            # the swallowed exception so schema bugs stay visible.
            import logging

            logging.getLogger(__name__).warning(
                "exchange_group_apply: fn failed on the empty-schema path "
                "(%s: %s); returning the empty input dataset unchanged",
                type(exc).__name__,
                exc,
            )
            return ds

    def _compact(t: pa.Table) -> pa.Table:
        # An Arrow table SLICE pickles at the size of its PARENT buffers
        # (measured: a 1/32 slice of a 39 MB block serializes all 39 MB), so
        # returning raw slices ships ~num_buckets x the exchange volume
        # through the object store. One per-column combine_chunks copies just
        # the slice rows; each row then crosses the store exactly once.
        # (Table.combine_chunks does NOT truncate — the per-column form does.)
        if t.num_rows == 0 or t.num_columns == 0:
            return t
        return pa.table(
            {n: t.column(n).combine_chunks() for n in t.column_names}
        )

    @ray.remote(num_returns=num_buckets)
    def split(*blocks: pa.Table):
        # materialized blocks stay PANDAS when the lineage ends in a pandas
        # stage — convert here, inside the split task
        blocks = tuple(
            pa.Table.from_pandas(b, preserve_index=False)
            if isinstance(b, pd.DataFrame) else b
            for b in blocks
        )
        # Ray Data can emit schema-less empty blocks from unions /
        # materializations; hashing their (absent) key columns would fail
        tbls = [b for b in blocks if b.num_rows > 0 and b.num_columns > 0]
        if not tbls:
            out = [blocks[0].slice(0, 0)] * num_buckets
            return out if num_buckets > 1 else out[0]
        # permissive promote: iterative frontiers carry null-typed columns
        # in empty-lineage blocks that must unify with the typed ones
        block = (
            pa.concat_tables(tbls, promote_options="permissive")
            if len(tbls) > 1 else tbls[0]
        )
        # hash ONLY the key columns — converting the full block (payload
        # strings included) to pandas pays the worker allocator pathology
        # (see blocking.attach_pair_payloads) for columns the hash never reads
        b = _bucket_of(block.select(keys).to_pandas(), keys, num_buckets)
        order = np.argsort(b, kind="stable")
        sorted_tbl = block.take(pa.array(order))
        sorted_b = b[order]
        bounds = np.searchsorted(sorted_b, np.arange(num_buckets + 1))
        out = [
            _compact(sorted_tbl.slice(bounds[i], bounds[i + 1] - bounds[i]))
            for i in range(num_buckets)
        ]
        return out if num_buckets > 1 else out[0]

    # blocks are grouped so driver-held refs stay <= MAX_EXCHANGE_REFS
    # (the 10^6-block regime would otherwise hold blocks x buckets refs)
    parts = [split.remote(*grp) for grp in _group_refs(block_refs, num_buckets)]

    @ray.remote
    def apply_bucket(*tables):
        tbls = [t for t in tables if t.num_rows > 0]
        if not tbls:
            # all-empty bucket: hand fn an empty frame with the richest
            # available schema (schema-less empties carry no columns)
            base_t = (
                max(tables, key=lambda t: t.num_columns)
                if tables
                else pa.table({})
            )
            out = fn(base_t if fn_format == "pyarrow" else base_t.to_pandas())
        else:
            cat = pa.concat_tables(tbls, promote_options="permissive")
            out = fn(cat if fn_format == "pyarrow" else cat.to_pandas())
        if isinstance(out, pd.DataFrame):
            out = pa.Table.from_pandas(out, preserve_index=False)
        return out

    if num_buckets == 1:
        outs = [apply_bucket.remote(*parts)]
    else:
        outs = [
            apply_bucket.remote(*[parts[i][j] for i in range(len(parts))])
            for j in range(num_buckets)
        ]
    return rd.from_arrow_refs(outs)


def counted_key_survivors(
    ds,
    key: str,
    num_buckets: int | None,
    cap: int,
    min_count: int = 2,
    max_count: int | None = None,
):
    """Distributed key-frequency filter: returns the keys whose GLOBAL row
    count falls in ``[min_count, max_count]`` as one pyarrow array ready to
    broadcast (``ray.put``), or ``None`` when their number exceeds ``cap``
    (callers fall back to the unfiltered exchange, which stays correct).

    This is the count pass behind the singleton/boilerplate prefilters
    (blocking.generate_pairs, ngram_jaccard_pairs): it runs as a compact
    NUMPY exchange — the key column is the entire payload, so the generic
    pandas exchange only adds frame conversion and hash-table overhead
    (measured 18 s → ~5 s at 32 CPUs on a 109M-row int64 key column).
    Handles empty/schema-less blocks and works for object keys too.
    """
    import ray

    nb = num_buckets or default_num_buckets()
    refs, _ = _materialized_blocks(ds.select_columns([key]))

    @ray.remote(num_returns=nb)
    def split(*blocks: pa.Table):
        blocks = tuple(
            pa.Table.from_pandas(b, preserve_index=False)
            if isinstance(b, pd.DataFrame) else b
            for b in blocks
        )
        cols = [
            b.column(key).to_numpy(zero_copy_only=False)
            for b in blocks
            if b.num_rows > 0 and b.num_columns > 0
        ]
        if not cols:
            out = [np.empty(0, np.int64)] * nb
            return out if nb > 1 else out[0]
        col = np.concatenate(cols) if len(cols) > 1 else cols[0]
        b = (pd.util.hash_array(col) % np.uint64(nb)).astype(np.int64)
        order = np.argsort(b, kind="stable")
        sk = col[order]
        sb = b[order]
        bounds = np.searchsorted(sb, np.arange(nb + 1))
        # .copy() compacts each slice so it ships at slice size, not parent
        # size (same lesson as exchange_group_apply's _compact)
        out = [sk[bounds[i] : bounds[i + 1]].copy() for i in range(nb)]
        return out if nb > 1 else out[0]

    # same driver-ref ceiling as exchange_group_apply
    parts = [split.remote(*grp) for grp in _group_refs(refs, nb)]

    @ray.remote
    def survivors(*arrs):
        arrs = [a for a in arrs if a.size]
        if not arrs:
            return np.empty(0, np.int64)
        allk = np.concatenate(arrs)
        u, c = np.unique(allk, return_counts=True)
        m = c >= min_count
        if max_count is not None:
            m &= c <= max_count
        return u[m]

    if nb == 1:
        outs = [survivors.remote(*parts)]
    else:
        outs = [
            survivors.remote(*[parts[i][j] for i in range(len(parts))])
            for j in range(nb)
        ]
    chunks: list[np.ndarray] = []
    total = 0
    for ref in outs:
        a = ray.get(ref)
        total += len(a)
        if total > cap:
            return None
        chunks.append(a)
    if not chunks or total == 0:
        return pa.array([], pa.int64())
    return pa.array(np.concatenate(chunks))


def grouped_top_k(
    ds,
    keys: str | list[str],
    order_col: str,
    k: int = 1,
    descending: bool = True,
    tie_cols: list[str] | None = None,
    num_buckets: int | None = None,
):
    """Per-key top-k (reference O1 per-entity top-k,
    /root/reference/clustering/Probabilities/clustering.py:7-27): bucket on
    key, then ONE vectorized sort + groupby-head per bucket."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    tie_cols = tie_cols or []

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            [order_col] + tie_cols, ascending=[not descending] + [True] * len(tie_cols)
        )
        return df.groupby(keys, sort=False, dropna=False).head(k)

    return exchange_group_apply(ds, keys, fn, num_buckets)
