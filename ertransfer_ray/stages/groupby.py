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
otherwise :func:`default_num_buckets` sizes it: two per CPU, except that on
a one-CPU session an input of at most :data:`SINGLE_BUCKET_BYTES` (its
block metadata holds the bytes once it is materialized) takes ONE bucket.
A single bucket skips the split phase (hash mod 1 only reorders and copies
the rows): one task applies ``fn`` straight over the input blocks. On one
CPU a split and its apply cost ~28 ms of tasks and metadata even on a few
kB, and buckets buy no parallelism there.

For small-result aggregations there's an even cheaper path with NO shuffle:
per-batch pandas partial aggregates → combine on the driver
(``partial_aggregate``). Use it whenever |keys| is bounded (metrics, stats,
histograms) — this is the "pre-aggregate inside map_batches" rule.
"""

from __future__ import annotations

import logging
from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.hashing import stable_hash64

_log = logging.getLogger(__name__)

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


def materialized(ds):
    """``ds`` as a ``MaterializedDataset``, running a lazy plan once. A
    materialized input is used as it is: ``materialize()`` would copy it
    (4.3 ms on one CPU for an exchange's result)."""
    from ray.data.dataset import MaterializedDataset

    return ds if isinstance(ds, MaterializedDataset) else ds.materialize()


def _materialized_blocks(ds) -> tuple[list, object, int]:
    """Run ``ds`` once (:func:`materialized`) and return the refs of its
    non-empty blocks (arrow or pandas blocks), its schema (``None`` when
    unknown) and their bytes, all read from block metadata.

    A materialized plan is one source operator that holds its blocks; they
    are read there. Listing them through ``iter_internal_ref_bundles``
    starts a streaming execution (16.1 ms median of 40 on one CPU) for a
    ``from_arrow_refs`` result, every exchange's output, whose plan has not
    "run". ``to_arrow_refs`` would run part of a lazy plan a second time to
    fetch the schema."""
    mat = materialized(ds)
    refs, nbytes = [], 0
    for bundle in mat._logical_plan.dag.output_data():
        for r, meta in bundle.blocks:
            if meta.num_rows != 0:
                refs.append(r)
                nbytes += meta.size_bytes or 0
    schema = mat.schema(fetch_if_missing=False)
    if schema is None:
        # a zero-row read (an empty parquet file) materializes into
        # schema-less blocks, but its plan still knows the schema
        schema = ds.schema(fetch_if_missing=False)
    return refs, schema, nbytes


def cluster_cpus() -> int:
    """The session's CPUs (8 when Ray is not initialized)."""
    import ray

    return int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8


#: Input bytes (block metadata) at or below which an exchange with no
#: explicit ``num_buckets`` runs as ONE bucket, with no split phase, on a
#: one-CPU session. Measured there: one task of pandas ``sort_values`` +
#: ``drop_duplicates`` over string keys takes 64 ms at 1 MiB, 163 ms at
#: 2 MiB and 913 ms at 8 MiB, against ~28 ms of split, apply and metadata
#: tasks for a whole exchange; the sort grows faster than the input, so
#: past about 1 MiB two buckets finish sooner even on one CPU. Sessions with
#: more CPUs keep two buckets per CPU at any size: one bucket would give up
#: the buckets' parallelism, and its one output block would make every
#: stage downstream (pair endpoints, the payload attach, scoring, the
#: connected-components rounds) run as one task. Whether that costs more
#: than the saved split is unmeasured. A planner floor, not a broadcast
#: limit.
SINGLE_BUCKET_BYTES = 1 << 20


def default_num_buckets(nbytes: int) -> int:
    """Bucket count for an exchange over ``nbytes`` of input: 2 per CPU, so
    every core has grouped work, or 1 on a one-CPU session at or below
    :data:`SINGLE_BUCKET_BYTES`."""
    cpus = cluster_cpus()
    if cpus <= 1 and nbytes <= SINGLE_BUCKET_BYTES:
        return 1
    return max(1, 2 * cpus)


def _arrow_block(b) -> pa.Table:
    """A materialized block as Arrow: blocks stay PANDAS when the lineage
    ends in a pandas stage."""
    return pa.Table.from_pandas(b, preserve_index=False) if isinstance(b, pd.DataFrame) else b


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
    in_cols = [c for c, _ in spec.values() if c is not None]

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        # a zero-row input reaches the combine with no columns (its partial
        # map emits no block): aggregate an empty frame of the input columns
        # instead, so the result still has the keys and every spec column
        if df.columns.empty:
            empty = pd.DataFrame(columns=list(dict.fromkeys(keys + in_cols)))
            df = _partial_agg(empty, keys, spec)
        return _combine_agg(df, keys, spec)

    return exchange_group_apply(partials, keys, combine, num_buckets)


def empty_frame(schema) -> pd.DataFrame:
    """A zero-row frame with the columns and types of a Dataset ``schema``
    (Arrow or pandas blocks); no columns when ``schema`` is None."""
    if schema is None or not schema.names:
        return pd.DataFrame()
    arrow_schema = getattr(schema, "base_schema", schema)
    if isinstance(arrow_schema, pa.Schema):
        return arrow_schema.empty_table().to_pandas()
    # pandas-block schema: names + numpy dtypes
    return pd.DataFrame(
        {n: pd.Series([], dtype=t) for n, t in zip(schema.names, schema.types)}
    )


def _typed_table(df: pd.DataFrame, schema: pa.Schema) -> pa.Table:
    """``fn``'s pandas output as Arrow. A zero-row frame carries no values to
    type its ``object`` columns by, so Arrow would make them ``null``; such a
    column that the bucket had takes the bucket's type instead, so empty
    buckets emit the same schema as full ones."""
    out = pa.Table.from_pandas(df, preserve_index=False)
    if out.num_rows:
        return out
    return pa.table(
        {
            f.name: pa.nulls(0, schema.field(f.name).type)
            if pa.types.is_null(f.type) and f.name in schema.names
            else out.column(f.name)
            for f in out.schema
        }
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

    ``ds`` may also be a list of Datasets, the sides of a tagged union:
    each side is materialized on its own and their blocks meet only in the
    exchange, so no union operator has to reconcile their column sets.

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
    keys = [keys] if isinstance(keys, str) else list(keys)

    sides = list(ds) if isinstance(ds, (list, tuple)) else [ds]
    block_refs, schema, nbytes = [], None, 0
    for side in sides:
        refs, side_schema, side_bytes = _materialized_blocks(side)
        block_refs += refs
        nbytes += side_bytes
        schema = side_schema if schema is None else schema
    if num_buckets is None:
        num_buckets = default_num_buckets(nbytes)
    if not block_refs or schema is None or not schema.names:
        # zero-row or schema-less input (a map over an empty dataset emits
        # one empty block with no columns): nothing to group, but consumers
        # expect fn's OUTPUT schema (e.g. left_id/right_id on an empty
        # corpus), not the input's — so hand fn an empty frame built from
        # whatever schema exists, exactly as apply_bucket does for all-empty
        # buckets. Fall back to the input only if fn can't cope.
        try:
            base = empty_frame(schema)
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
            _log.warning(
                "exchange_group_apply: fn failed on the empty-schema path "
                "(%s: %s); returning the empty input dataset unchanged",
                type(exc).__name__,
                exc,
            )
            return sides[0] if len(sides) == 1 else sides[0].union(*sides[1:])

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
        blocks = tuple(_arrow_block(b) for b in blocks)
        # Ray Data can emit schema-less empty blocks from unions /
        # materializations; hashing their (absent) key columns would fail
        tbls = [b for b in blocks if b.num_rows > 0 and b.num_columns > 0]
        if not tbls:
            return [blocks[0].slice(0, 0)] * num_buckets
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
        return [
            _compact(sorted_tbl.slice(bounds[i], bounds[i + 1] - bounds[i]))
            for i in range(num_buckets)
        ]

    @ray.remote
    def apply_bucket(*tables):
        # the one-bucket path hands over input blocks, which may be pandas
        tables = [_arrow_block(t) for t in tables]
        tbls = [t for t in tables if t.num_rows > 0]
        if tbls:
            bucket = pa.concat_tables(tbls, promote_options="permissive")
        else:
            # all-empty bucket: hand fn an empty frame with the richest
            # available schema (schema-less empties carry no columns)
            bucket = max(tables, key=lambda t: t.num_columns) if tables else pa.table({})
        out = fn(bucket if fn_format == "pyarrow" else bucket.to_pandas())
        if isinstance(out, pd.DataFrame):
            out = _typed_table(out, bucket.schema)
        return out

    _log.debug(
        "exchange: %d input bytes, %d buckets, split %s",
        nbytes, num_buckets, "skipped" if num_buckets == 1 else "run",
    )
    if num_buckets == 1:
        return rd.from_arrow_refs([apply_bucket.remote(*block_refs)])
    # blocks are grouped so driver-held refs stay <= MAX_EXCHANGE_REFS
    # (the 10^6-block regime would otherwise hold blocks x buckets refs)
    parts = [split.remote(*grp) for grp in _group_refs(block_refs, num_buckets)]
    outs = [
        apply_bucket.remote(*[parts[i][j] for i in range(len(parts))])
        for j in range(num_buckets)
    ]
    return rd.from_arrow_refs(outs)


def counted_key_survivors(
    ds,
    key: str,
    num_buckets: int | None,
    min_count: int = 2,
    max_count: int | None = None,
):
    """Distributed key-frequency filter: returns the keys whose GLOBAL row
    count falls in ``[min_count, max_count]`` as one pyarrow array ready to
    broadcast (``ray.put``), or ``None`` when their bytes are past the key-set
    gate (``joins.choose_arm``; callers fall back to the unfiltered
    exchange, which stays correct). Each bucket reports its survivors' bytes
    with them, so the gate decides before any survivor reaches the driver.

    This is the count pass behind the singleton/boilerplate prefilters
    (blocking.generate_pairs, ngram_jaccard_pairs): it runs as a compact
    NUMPY exchange — the key column is the entire payload, so the generic
    pandas exchange only adds frame conversion and hash-table overhead
    (measured 18 s → ~5 s at 32 CPUs on a 109M-row int64 key column).
    Handles empty/schema-less blocks and works for object keys too.
    """
    import ray

    from .joins import gated_key_chunks

    refs, _, nbytes = _materialized_blocks(ds.select_columns([key]))
    nb = num_buckets or default_num_buckets(nbytes)

    def key_arrays(blocks) -> list[np.ndarray]:
        return [
            b.column(key).to_numpy(zero_copy_only=False)
            for b in map(_arrow_block, blocks)
            if b.num_rows > 0 and b.num_columns > 0
        ]

    @ray.remote(num_returns=nb)
    def split(*blocks: pa.Table):
        cols = key_arrays(blocks)
        if not cols:
            return [np.empty(0, np.int64)] * nb
        col = np.concatenate(cols) if len(cols) > 1 else cols[0]
        b = (pd.util.hash_array(col) % np.uint64(nb)).astype(np.int64)
        order = np.argsort(b, kind="stable")
        sk = col[order]
        sb = b[order]
        bounds = np.searchsorted(sb, np.arange(nb + 1))
        # .copy() compacts each slice so it ships at slice size, not parent
        # size (same lesson as exchange_group_apply's _compact)
        return [sk[bounds[i] : bounds[i + 1]].copy() for i in range(nb)]

    @ray.remote(num_returns=2)
    def survivors(*parts):
        # one bucket hands over the key blocks, more the split's key arrays
        arrs = key_arrays(parts) if nb == 1 else [a for a in parts if a.size]
        if not arrs:
            return pa.array([], pa.int64()), 0
        u, c = np.unique(np.concatenate(arrs), return_counts=True)
        m = c >= min_count
        if max_count is not None:
            m &= c <= max_count
        out = pa.array(u[m])
        return out, out.nbytes

    if nb == 1:
        outs = [survivors.remote(*refs)]  # no split, as in exchange_group_apply
    else:
        # same driver-ref ceiling as exchange_group_apply
        parts = [split.remote(*grp) for grp in _group_refs(refs, nb)]
        outs = [
            survivors.remote(*[parts[i][j] for i in range(len(parts))])
            for j in range(nb)
        ]
    chunks = gated_key_chunks(outs)
    if chunks is None:
        return None
    return pa.concat_arrays(chunks) if chunks else pa.array([], pa.int64())


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
