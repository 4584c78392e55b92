"""Join/lookup stages (reference J3/J5/J6 family).

Two arms, per the scale rules this engine is designed around:

- **Small side** (dimension table, golden pair set, blocklist, payload
  lookup, key set): broadcast once via ``ray.put`` and look up inside
  ``map_batches`` — no shuffle. This is the engine's analog of the
  reference's id → payload ``.loc`` join
  (/root/reference/splitters/KNN-Join/splitter.py:96-103) and golden-set
  membership label (splitter.py:89-91).
- **Both sides large**: ``bucketed_join`` / ``bucketed_anti_semi_join`` —
  a tagged union of both sides through one hash exchange on the key
  (``groupby.exchange_group_apply``), merged per bucket. Ray Data's
  ``Dataset.join`` is not used.

Which arm a stage takes is decided in one place, :func:`choose_arm`: it
measures the side (:func:`side_bytes`) and compares it with the limit of
the primitive the side feeds — :data:`PAYLOAD_LIMIT` for a lookup table
every worker holds whole, :data:`KEY_SET_LIMIT` for a key set probed with
``is_in``. No stage keeps a limit or a switch of its own.
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

_log = logging.getLogger(__name__)

#: Worker-heap budget for a broadcast PAYLOAD LOOKUP — a side every worker
#: holds whole and indexes into: (id → text / vector / title+payload /
#: sketch) tables, drop lists, a term vocabulary. 1 GiB of Arrow bytes.
PAYLOAD_LIMIT = 1 << 30

#: Byte knee for a broadcast KEY SET probed with ``pc.is_in``. Tighter than
#: the payload limit because ``is_in`` rebuilds its hash set from the value
#: set on every kernel call, so huge sets convoy the filter tasks: measured
#: 29.6 s end-to-end at ~40 MB of string keys (0.8M) against 121.7 s at
#: ~150 MB (3.2M) in ``crawl.latest_capture_per_url`` on a 4M-capture
#: corpus at 32 CPUs. 64 MiB (~1.3M url keys, ~8M int64 ids) stays on the
#: good side of that knee; past it the bucketed exchange is the faster arm.
KEY_SET_LIMIT = 64 << 20


def put_broadcast(obj) -> "ray.ObjectRef":
    """Ship a small lookup structure to the object store ONCE; tasks/actors
    read it zero-copy instead of re-serializing it per batch."""
    return ray.put(obj)


#: per-worker-process cache of assembled broadcast lookups, keyed by the
#: block-ref set. Stateless tasks reuse worker processes, so the build cost
#: (ray.get + concat + index) is paid once per worker — the actor-pool
#: benefit without actor startup latency or CPU reservations.
_SIDE_CACHE: dict[tuple, object] = {}
_SIDE_CACHE_MAX = 4


def cached_side(refs: list, build):
    """Assemble-once-per-worker lookup from object-store block refs.
    ``build(pa.Table) -> lookup`` runs on the concatenated blocks."""
    key = tuple(r.hex() for r in refs)
    hit = _SIDE_CACHE.get(key)
    if hit is None:
        if len(_SIDE_CACHE) >= _SIDE_CACHE_MAX:
            _SIDE_CACHE.pop(next(iter(_SIDE_CACHE)))
        hit = build(pa.concat_tables(ray.get(list(refs))))
        _SIDE_CACHE[key] = hit
    return hit


def consolidated_refs(ds) -> list:
    """Publish a broadcastable Dataset as ONE object-store table ref.

    Shipping a side as raw ``to_arrow_refs`` block refs makes every worker
    issue |blocks| serialized plasma fetches — measured as a 25 s convoy at
    32 workers x ~640 blocks in the pair-payload attach — where one
    put-once table costs ~0.2 s and is read zero-copy per node. Only valid
    for sides the caller already bounds to a worker heap (the same
    precondition as any broadcast join).
    """
    tbls = ray.get(ds.materialize().to_arrow_refs())
    nonempty = [t for t in tbls if t.num_rows > 0]
    if nonempty:
        tbl = pa.concat_tables(nonempty).combine_chunks()
    elif tbls:
        tbl = tbls[0]  # keep an empty table WITH schema
    else:
        tbl = pa.table({})
    return [ray.put(tbl)]


class BroadcastSemiJoin:
    """Keep rows whose key is in a broadcast key set (semi) or not (anti).

    Reference M10 match-validity filter (splitter.py:167-170) and J6 anti-join.
    Used as ``ds.map_batches(BroadcastSemiJoin(ref, "k"), batch_format="pyarrow")``.
    Membership is the Arrow ``is_in`` kernel over a value set built once per
    task/actor — not a per-row Python loop.
    """

    def __init__(self, keys_ref, col: str, anti: bool = False):
        self._ref = keys_ref
        self.col = col
        self.anti = anti
        self._keys: pa.Array | None = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self._keys is None:
            keys = ray.get(self._ref) if isinstance(self._ref, ray.ObjectRef) else self._ref
            self._keys = keys if isinstance(keys, pa.Array) else pa.array(list(keys))
        if len(self._keys) == 0:  # an empty set may not carry the key's type
            return batch if self.anti else batch.slice(0, 0)
        # null keys are never "in" the set (fill before invert so anti keeps
        # null rows, matching Python `None in set` → False semantics)
        mask = pc.fill_null(
            pc.is_in(batch.column(self.col), value_set=self._keys), False
        )
        if self.anti:
            mask = pc.invert(mask)
        return batch.filter(mask)


def side_bytes(ds) -> int:
    """Arrow bytes of a broadcast candidate side. A materialized side reads
    its block metadata. A lazy one runs ONE streaming meter pass: each batch
    emits its byte count and only those counts reach the driver, so nothing
    materializes, and the total is exact — a head sample underestimates
    whenever row size follows input order (crawl segments sorted by date,
    texts sorted by length) and would broadcast a side that does not fit."""
    from ray.data.dataset import MaterializedDataset

    if isinstance(ds, MaterializedDataset):
        return int(ds.size_bytes() or 0)

    def meter(t: pa.Table) -> pa.Table:
        return pa.table({"bytes": pa.array([t.nbytes], pa.int64())})

    return sum(
        int(pc.sum(b.column("bytes")).as_py() or 0)
        for b in ds.map_batches(meter, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        )
    )


def choose_arm(side, key_set: bool = False) -> str:
    """The broadcast-or-exchange gate: ``"broadcast"`` when ``side`` fits
    the limit of the primitive it feeds, else ``"exchange"``. ``side`` is a
    Dataset (measured by :func:`side_bytes`) or a byte count the caller
    already holds. ``key_set=True``: a key set probed with ``is_in``
    (:data:`KEY_SET_LIMIT`); otherwise a payload lookup
    (:data:`PAYLOAD_LIMIT`)."""
    nbytes = int(side) if isinstance(side, (int, np.integer)) else side_bytes(side)
    limit = KEY_SET_LIMIT if key_set else PAYLOAD_LIMIT
    arm = "broadcast" if nbytes <= limit else "exchange"
    _log.debug("broadcast gate: %d bytes, limit %d: %s", nbytes, limit, arm)
    return arm


def collect_key_set(ds, col: str) -> pa.Array | None:
    """The distinct values of ``col``, sorted (a byte-stable broadcast
    artifact at any parallelism), or ``None`` when the column is past
    :data:`KEY_SET_LIMIT` and the caller takes its exchange arm. The column
    streams to the driver once and is metered as it comes: the gate sees
    the running byte count after every batch, so the driver never holds
    more than the limit and one batch. (Materializing a lazy side first, to
    gate on its metadata, costs one more execution: ~13 ms on one CPU.)"""
    chunks, nbytes = [], 0
    for b in ds.select_columns([col]).iter_batches(batch_format="pyarrow"):
        if not b.num_rows:
            continue
        nbytes += b.nbytes
        if choose_arm(nbytes, key_set=True) == "exchange":
            return None
        chunks.extend(b.column(col).chunks)
    return _sorted_unique(chunks)


def _sorted_unique(chunks: list[pa.Array]) -> pa.Array:
    if not chunks:
        return pa.array([], pa.int64())
    u = pc.unique(pa.chunked_array(chunks))
    return u.take(pc.array_sort_indices(u))


def gated_key_chunks(outs: list) -> list[pa.Array] | None:
    """Fetch the non-empty key arrays of ``outs``, one ``(array, nbytes)``
    ref pair per task, or ``None`` when their summed bytes are past
    :data:`KEY_SET_LIMIT`: the gate sees the counts before any array
    reaches the driver."""
    if choose_arm(sum(ray.get([n for _, n in outs])), key_set=True) == "exchange":
        return None
    return [a for a in ray.get([a for a, _ in outs]) if len(a)]


def pair_endpoints(pairs, cols: list[str]) -> pa.Array | None:
    """The distinct ids a pair table references in its endpoint columns
    ``cols`` (left and right), sorted, or ``None`` when they are past
    :data:`KEY_SET_LIMIT`. One task per block of the materialized pairs
    uniques that block's endpoints and returns them with their byte count;
    the gate decides on the sum before any endpoint array reaches the
    driver. Callers hold the pairs materialized, so this starts no
    streaming execution (where :func:`collect_key_set` streams a lazy
    side)."""
    from .groupby import _materialized_blocks

    refs, _, _ = _materialized_blocks(pairs)
    chunks = gated_key_chunks([_block_endpoints.remote(r, cols) for r in refs])
    return None if chunks is None else _sorted_unique(chunks)


@ray.remote(num_returns=2)
def _block_endpoints(block, cols: list[str]):
    """The distinct ids of one block's ``cols``, and their bytes."""
    from .groupby import _arrow_block

    t = _arrow_block(block)
    u = pc.unique(pa.chunked_array([c for n in cols for c in t.column(n).chunks]))
    return u, u.nbytes


class BroadcastHashJoin:
    """Left join a batch against a broadcast pandas DataFrame on ``on``.

    The small side is ``ray.put`` once by the caller; each task/actor fetches
    it once (cached on the instance), then joins per batch with pandas merge.
    Reference J3 payload lookup without the shuffle.
    """

    def __init__(self, small_ref, on: str | list[str], how: str = "left"):
        self._ref = small_ref
        self.on = on
        self.how = how
        self._small: pd.DataFrame | None = None

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        if self._small is None:
            small = ray.get(self._ref) if isinstance(self._ref, ray.ObjectRef) else self._ref
            self._small = small
        return batch.merge(self._small, on=self.on, how=self.how)


def _project_typed(t: pa.Table, cols: list[str], types: dict) -> pa.Table:
    """Select ``cols`` in order, synthesizing typed-null columns for any the
    bucket never saw (a bucket whose nonempty slices all came from the
    OTHER side of a disjoint-column tagged union carries only that side's
    columns)."""
    out = {}
    for c in cols:
        if c in t.column_names:
            out[c] = t.column(c)
        else:
            ty = types.get(c)
            out[c] = pa.nulls(t.num_rows, ty if ty is not None and not pa.types.is_null(ty) else pa.string())
    return pa.table(out)


def bucketed_anti_semi_join(
    probe,
    build,
    probe_on: str,
    build_on: str | None = None,
    anti: bool = True,
    num_buckets: int | None = None,
):
    """Distributed (anti-)semi-join with NO driver materialization: keep
    probe rows whose key is absent from (``anti=True``) / present in the
    build side. Both sides are tagged and EXCHANGED on the key
    (groupby.exchange_group_apply) — one shuffle each, cogroup shape (Ray
    2.49's hash join chokes on empty partitions, which shrinking iterative
    frontiers hit constantly; its sort-based groupby measured ~10x slower
    than the exchange on string-heavy tagged unions).

    The build side ships KEY + SIDE ONLY (16-24 bytes/row): the exchange's
    permissive-promote concat unifies the two sides' disjoint column sets,
    and the bucket fn slices by side in ARROW before any pandas conversion,
    so the probe columns never need neutral-filled padding on build rows.
    (The round-3 form padded build rows to the full probe schema with int
    sentinels — width(probe) x |build| extra shuffle bytes that the filter
    never read; measured 7.7x the build-side bytes on an 8-column probe
    schema, 1.5x the whole tagged union at equal side sizes.)
    """
    from .groupby import exchange_group_apply

    build_on = build_on or probe_on
    p_schema = probe.schema()
    probe_cols = list(p_schema.names)
    types = {c: _arrow_field_type(p_schema, c) for c in probe_cols}
    jk_type = _join_key_caster(
        _arrow_field_type(p_schema, probe_on),
        _arrow_field_type(build.schema(), build_on),
    )

    def tag_probe(t: pa.Table) -> pa.Table:
        cols: dict = {
            "_jk": pc.cast(t.column(probe_on), jk_type),
            "_side": pa.array(np.zeros(t.num_rows, dtype=np.int8)),
        }
        for c in probe_cols:
            col = t.column(c)
            # a null target type means the schema was inferred from an
            # empty/all-null block — keep the column's real type; the
            # exchange concat promotes null-typed fills to match
            if pa.types.is_null(types[c]) or col.type == types[c]:
                cols[c] = col
            else:
                cols[c] = pc.cast(col, types[c])
        return pa.table(cols)

    def tag_build(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "_jk": pc.cast(t.column(build_on), jk_type),
                "_side": pa.array(np.ones(t.num_rows, dtype=np.int8)),
            }
        )

    both = [
        probe.map_batches(tag_probe, batch_format="pyarrow"),
        build.map_batches(tag_build, batch_format="pyarrow"),
    ]

    def filter_bucket(t: pa.Table) -> pa.Table:
        if "_side" not in t.column_names:  # schema-less all-empty bucket
            return _project_typed(pa.table({}), probe_cols, types)
        side = t.column("_side")
        rows = t.filter(pc.equal(side, 0))
        present = pc.unique(
            t.filter(pc.equal(side, 1)).column("_jk").combine_chunks()
        )
        # null probe keys match null build keys (pandas isin parity)
        keep = pc.fill_null(
            pc.is_in(rows.column("_jk"), value_set=present), present.null_count > 0
        )
        if anti:
            keep = pc.invert(keep)
        return _project_typed(rows.filter(keep), probe_cols, types)

    return exchange_group_apply(
        both, "_jk", filter_bucket, num_buckets, fn_format="pyarrow"
    )


def _dtype_map(ds_schema) -> dict:
    """Column → pandas dtype for post-merge restoration (mixed-bucket NaN
    fills degrade int columns to float64; restore where lossless)."""
    out = {}
    for name, typ in zip(ds_schema.names, ds_schema.types):
        if isinstance(typ, np.dtype):  # pandas-block datasets
            out[name] = typ
            continue
        try:
            out[name] = typ.to_pandas_dtype()
        except Exception:  # noqa: BLE001
            pass
    return out


def asof_join(
    left,
    right,
    *,
    on: str,
    by: str,
    right_on: str | None = None,
    right_by: str | None = None,
    how: str = "left",
    direction: str = "backward",
    tolerance=None,
    tie_breakers: list[str] | None = None,
    band=None,
    num_buckets: int | None = None,
):
    """Distributed as-of join: attach to each left row the temporally
    closest right row of the same ``by`` key (``direction="backward"``:
    greatest ``right_on`` <= ``on``; ``"forward"``: least >= ; exact
    matches always allowed). Ray Data has no as-of join; this composes one
    from the engine's primitives per the custom-operator ladder: tagged
    Arrow union (each side ships only its own columns), ONE raw hash
    exchange on the ``by`` key, then a vectorized ``pd.merge_asof`` inside
    each bucket — the partitioning assumption is that a single ``by``
    bucket's rows fit a worker heap, the same contract as every grouped
    stage here.

    Ties (several right rows sharing one ``right_on`` value) are broken
    deterministically by ``tie_breakers`` (right-side columns; the LARGEST
    tuple wins), so output is reproducible across parallelism levels —
    required for the driver's value-hash oracle and this engine's
    determinism invariant (FIXTURES.md). Rows with a null ``by`` key or
    null ``on`` value never match (SQL semantics); ``how="left"`` keeps
    them unmatched, ``how="inner"`` drops them.

    Non-key column names must be disjoint across sides (as in
    :func:`bucketed_join`). ``tolerance`` passes through to ``merge_asof``
    (e.g. ``pd.Timedelta("7d")``).

    ``band`` (a Timedelta-like granule for temporal ``on`` columns, a
    number for numeric ones) is the HOT-KEY SALT, as in :func:`range_join`:
    the exchange key becomes ``(by, floor(on / band))`` so one hot ``by``
    key spreads across many buckets instead of serializing into one. An
    as-of match may live in an EARLIER band than the probe (backward; later
    for forward), so a small per-key side exchange first computes each
    (key, band)'s best right row and ``merge_asof``s the left side's
    distinct (key, band) demands onto strictly-earlier band bests — the
    winning "carry-in" rows are re-tagged to the demanding band and ride
    the main exchange as ordinary right rows. Any extra earlier-band rows a
    bucket picks up from key co-hashing are dominated by the carry-in, and
    duplicate candidates cannot duplicate output (merge_asof picks exactly
    one match per probe row), so banded output is IDENTICAL to unbanded
    (property-pinned). The side exchange carries one row per (key, band) —
    tiny even for the hottest key. Only ``direction`` backward/forward
    support banding.
    """
    from .groupby import exchange_group_apply

    right_on = right_on or on
    right_by = right_by or by
    if how not in ("left", "inner"):
        raise ValueError(f"asof_join: how={how!r} (use 'left' or 'inner')")
    if band is not None and direction not in ("backward", "forward"):
        raise ValueError("asof_join: band salting supports backward/forward only")

    l_schema = left.schema()
    r_schema = right.schema()
    overlap = set(l_schema.names) & set(r_schema.names)
    if overlap:
        raise ValueError(f"asof_join: overlapping columns {overlap}")

    l_cols = list(l_schema.names)
    r_cols = [c for c in r_schema.names if c != right_by]
    types = {c: _arrow_field_type(l_schema, c) for c in l_cols}
    types.update({c: _arrow_field_type(r_schema, c) for c in r_cols})
    jk_type = _join_key_caster(
        _arrow_field_type(l_schema, by), _arrow_field_type(r_schema, right_by)
    )
    types["_jk"] = jk_type
    on_type = _arrow_field_type(l_schema, on)
    ties = list(tie_breakers or [])
    # merge_asof keeps the LAST equal-on row going backward but the FIRST
    # going forward — order the tie columns so the largest tuple wins both ways
    ties_asc = direction == "backward"
    rmap = _dtype_map(r_schema)
    rmap.pop(right_by, None)
    dtypes = {**_dtype_map(l_schema), **rmap}

    keys = ["_jk"] if band is None else ["_jk", "_band"]
    if band is not None:
        types["_band"] = pa.int64()

    def tag(side: int, key_col: str, own: list[str], on_col: str):
        def fn(t: pa.Table) -> pa.Table:
            if band is not None and side == 1:
                # null right keys/times never match — drop before banding
                t = t.filter(
                    pc.and_(pc.is_valid(t.column(key_col)), pc.is_valid(t.column(on_col)))
                )
            cols: dict = {
                "_jk": pc.cast(t.column(key_col), jk_type),
                "_side": pa.array(np.full(t.num_rows, side, dtype=np.int8)),
            }
            if band is not None:
                cols["_band"] = pa.array(_band_index(t.column(on_col), band))
            for c in own:
                col = t.column(c)
                if c == on_col and col.type != on_type:
                    col = pc.cast(col, on_type)  # merge_asof needs equal on dtypes
                elif not pa.types.is_null(types[c]) and col.type != types[c]:
                    col = pc.cast(col, types[c])
                cols[c] = col
            return pa.table(cols)

        return fn

    l_tag = left.map_batches(tag(0, by, l_cols, on), batch_format="pyarrow")
    r_tag = right.map_batches(tag(1, right_by, r_cols, right_on), batch_format="pyarrow")
    both = [l_tag, r_tag]
    if band is not None:
        both.append(
            _asof_carry_rows(
                l_tag, r_tag, right_on, ties, ties_asc, direction, types,
                r_cols, jk_type, on_type, num_buckets,
            )
        )

    def merge_bucket(t: pa.Table) -> pd.DataFrame:
        if "_side" not in t.column_names:  # schema-less all-empty bucket
            t = pa.table({"_jk": pa.nulls(0, jk_type), "_side": pa.nulls(0, pa.int8())})
        side = t.column("_side")
        lpart = _project_typed(
            t.filter(pc.equal(side, 0)), ["_jk"] + l_cols, types
        ).to_pandas()
        rpart = _project_typed(
            t.filter(pc.equal(side, 1)), ["_jk"] + r_cols, types
        ).to_pandas()
        # null by-keys / on-values never match; merge_asof rejects them
        l_ok = lpart["_jk"].notna() & lpart[on].notna()
        r_ok = rpart["_jk"].notna() & rpart[right_on].notna()
        lmiss = lpart[~l_ok]
        lpart = lpart[l_ok].sort_values(on, kind="stable")
        # among equal right_on values merge_asof keeps the LAST row → sort
        # tie-breakers ascending so the largest tuple wins
        rpart = (
            rpart[r_ok]
            .sort_values(
                [right_on] + ties,
                ascending=[True] + [ties_asc] * len(ties),
                kind="stable",
            )
            .assign(_matched=1)
        )
        out = pd.merge_asof(
            lpart,
            rpart,
            left_on=on,
            right_on=right_on,
            by="_jk",
            direction=direction,
            tolerance=tolerance,
        )
        if how == "inner":
            out = out[out["_matched"].notna()]
        elif len(lmiss):
            out = pd.concat([out, lmiss], ignore_index=True)
        out = out.drop(columns=["_jk", "_matched"], errors="ignore")
        for c, dt in dtypes.items():
            if c in out.columns and out[c].dtype != dt:
                try:
                    out[c] = out[c].astype(dt)
                except (ValueError, TypeError):
                    pass
        return out

    return exchange_group_apply(
        both, keys, merge_bucket, num_buckets, fn_format="pyarrow"
    )


def _asof_carry_rows(
    l_tag, r_tag, right_on, ties, ties_asc, direction, types, r_cols,
    jk_type, on_type, num_buckets,
):
    """The band salt's side channel: for every (key, band) the LEFT side
    probes, the best right row from a STRICTLY earlier band (backward; later
    for forward), re-tagged to the probing band so it rides the main
    (key, band) exchange as an ordinary right row. Ships one demand row and
    one band-best row per (key, band) — O(active bands per key), never
    O(rows)."""
    from .groupby import exchange_group_apply

    asc = [True] + [ties_asc] * len(ties)

    def demands(t: pa.Table) -> pd.DataFrame:
        df = t.select(["_jk", "_band"]).to_pandas().drop_duplicates()
        df["_side"] = np.int8(0)
        return df

    def batch_bests(t: pa.Table) -> pd.DataFrame:
        df = t.to_pandas()
        df = df.sort_values([right_on] + ties, ascending=asc, kind="stable")
        g = df.groupby(["_jk", "_band"], sort=False, dropna=False)
        return g.tail(1) if direction == "backward" else g.head(1)

    out_cols = ["_jk", "_band"] + r_cols + ["_side"]

    def carry(df: pd.DataFrame) -> pd.DataFrame:
        if "_side" not in df.columns or right_on not in df.columns:
            return pd.DataFrame({c: [] for c in out_cols})
        d = (
            df[df["_side"] == 0][["_jk", "_band"]]
            .drop_duplicates()
            .sort_values("_band", kind="stable")
        )
        b = df[df["_side"] == 1].drop(columns=["_side"])
        if not len(d) or not len(b):
            return pd.DataFrame({c: [] for c in out_cols})
        # exact global band-best (batch_bests only shrank per block)
        b = b.sort_values([right_on] + ties, ascending=asc, kind="stable")
        g = b.groupby(["_jk", "_band"], sort=False, dropna=False)
        b = (g.tail(1) if direction == "backward" else g.head(1)).sort_values(
            "_band", kind="stable"
        )
        m = pd.merge_asof(
            d,
            b,
            on="_band",
            by="_jk",
            direction=direction,
            allow_exact_matches=False,  # in-band rows are already in the bucket
        )
        m = m[m[right_on].notna()]
        m["_side"] = np.int8(1)
        return m[out_cols]

    carried = exchange_group_apply(
        [
            l_tag.map_batches(demands, batch_format="pyarrow"),
            r_tag.map_batches(batch_bests, batch_format="pyarrow"),
        ],
        "_jk",
        carry,
        num_buckets,
        fn_format="pandas",
    )

    def recast(t: pa.Table) -> pa.Table:
        want = {
            "_jk": jk_type,
            "_band": pa.int64(),
            "_side": pa.int8(),
            **{c: types[c] for c in r_cols},
        }
        # the tag stage casts right_on to the left on-dtype; match it so the
        # main union's permissive concat never has to promote mixed units
        want[right_on] = on_type
        if t.num_rows == 0:
            return pa.table({c: pa.nulls(0, ty) for c, ty in want.items()})
        cols = {}
        for c, ty in want.items():
            col = t.column(c)
            cols[c] = col if (pa.types.is_null(ty) or col.type == ty) else pc.cast(col, ty)
        return pa.table(cols)

    return carried.map_batches(recast, batch_format="pyarrow")


def _band_index(col: "pa.ChunkedArray", granule) -> np.ndarray:
    """int64 band id per row: floor(value / granule). Temporal columns are
    normalized to ns (mixed-unit timestamp inputs band consistently);
    granule is a Timedelta-like for temporal columns, a number otherwise.
    Null values band to 0 (they can never satisfy a join predicate — the
    caller either filters them or lets them ride to a bucket unmatched)."""
    s = col.to_pandas()
    if pd.api.types.is_datetime64_any_dtype(s):
        v = s.astype("datetime64[ns]").to_numpy()
        nat = np.isnat(v)
        g = int(pd.Timedelta(granule).value)
        return np.where(nat, 0, v.view("i8") // g)
    if pd.api.types.is_integer_dtype(s) and float(granule) == int(granule):
        # Integer path stays in int64: routing through float64 would round
        # values beyond 2^53, so a point and its containing interval could
        # land in DIFFERENT bands and a banded range_join would miss a pair
        # the unbanded join finds. Python-int floor division handles the
        # nullable mask via fillna(0) (nulls never match anyway).
        v = s.fillna(0).to_numpy(dtype=np.int64)
        return v // int(granule)
    v = s.to_numpy(dtype=np.float64)
    bad = ~np.isfinite(v)
    b = np.floor(np.where(bad, 0.0, v) / float(granule))
    return np.where(bad, 0, b).astype(np.int64)


def range_join(
    left,
    right,
    *,
    by: str,
    right_by: str | None = None,
    point: str,
    start: str,
    end: str,
    closed: str = "both",
    band=None,
    num_buckets: int | None = None,
):
    """Distributed interval/range join: pair each left row with every right
    row of the same ``by`` key whose ``[start, end]`` interval contains the
    left ``point`` (``closed``: "both" | "left" | "right" | "neither").
    Composition: the same tagged-union hash exchange as
    :func:`bucketed_join`, then inside each bucket an equi-merge on the key
    followed by one vectorized interval mask — never a global cross
    product. Partitioning assumption: per-key match multiplicity is
    bounded (the key×key merge inside a bucket materializes candidate
    pairs before the mask), the usual contract for band joins.

    ``band`` (a Timedelta-like granule for temporal columns, a number for
    numeric ones) is the HOT-KEY SALT: the exchange key becomes
    ``(by, floor(point / band))`` and each right interval is replicated to
    every band it overlaps, so one hot ``by`` key spreads across many
    buckets and the per-bucket merge only pairs rows whose times are
    within one granule of each other — the quadratic |L_k|·|R_k| term
    becomes |L_k,b|·|R_k,b| per band. Each (left, right) match meets in
    EXACTLY one band (the left point's), so no dedup pass is needed and
    banded output equals unbanded output. Pick ``band`` ≈ the typical
    interval width: replication factor is width/band + 1. Rows whose
    banding columns are null are dropped up front (they can never satisfy
    the interval predicate).

    Measured (100k points × 10k 2h-intervals / 30 days, 20 % of both sides
    on one key, 32 CPUs, identical 114,613-pair output): band=2h 0.31 s
    warm / 3.7 s cold vs 40.8–65.6 s unbanded — see BASELINE.md.
    """
    from .groupby import exchange_group_apply

    right_by = right_by or by
    l_schema = left.schema()
    r_schema = right.schema()
    overlap = set(l_schema.names) & set(r_schema.names)
    if overlap:
        raise ValueError(f"range_join: overlapping columns {overlap}")

    l_cols = list(l_schema.names)
    r_cols = [c for c in r_schema.names if c != right_by]
    types = {c: _arrow_field_type(l_schema, c) for c in l_cols}
    types.update({c: _arrow_field_type(r_schema, c) for c in r_cols})
    jk_type = _join_key_caster(
        _arrow_field_type(l_schema, by), _arrow_field_type(r_schema, right_by)
    )
    types["_jk"] = jk_type
    lo_inc = closed in ("both", "left")
    hi_inc = closed in ("both", "right")
    keys = ["_jk", "_band"] if band is not None else ["_jk"]
    if band is not None:
        types["_band"] = pa.int64()

    def tag(side: int, key_col: str, own: list[str]):
        def fn(t: pa.Table) -> pa.Table:
            if band is not None:
                if side == 0:
                    t = t.filter(pc.is_valid(t.column(point)))
                    bands = _band_index(t.column(point), band)
                else:
                    t = t.filter(
                        pc.and_(pc.is_valid(t.column(start)), pc.is_valid(t.column(end)))
                    )
                    b0 = _band_index(t.column(start), band)
                    b1 = _band_index(t.column(end), band)
                    lengths = b1 - b0 + 1
                    live = lengths > 0  # end < start ⇒ empty interval
                    if not live.all():
                        t = t.take(pa.array(np.flatnonzero(live)))
                        b0, lengths = b0[live], lengths[live]
                    # replicate each interval row once per overlapped band
                    idx = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
                    offsets = np.zeros(len(lengths), dtype=np.int64)
                    np.cumsum(lengths[:-1], out=offsets[1:])
                    bands = b0.repeat(lengths) + (
                        np.arange(idx.size, dtype=np.int64) - offsets.repeat(lengths)
                    )
                    t = t.take(pa.array(idx))
            cols: dict = {
                "_jk": pc.cast(t.column(key_col), jk_type),
                "_side": pa.array(np.full(t.num_rows, side, dtype=np.int8)),
            }
            if band is not None:
                cols["_band"] = pa.array(bands)
            for c in own:
                col = t.column(c)
                if not pa.types.is_null(types[c]) and col.type != types[c]:
                    col = pc.cast(col, types[c])
                cols[c] = col
            return pa.table(cols)

        return fn

    both = [
        left.map_batches(tag(0, by, l_cols), batch_format="pyarrow"),
        right.map_batches(tag(1, right_by, r_cols), batch_format="pyarrow"),
    ]

    def merge_bucket(t: pa.Table) -> pd.DataFrame:
        if "_side" not in t.column_names:
            t = pa.table({"_jk": pa.nulls(0, jk_type), "_side": pa.nulls(0, pa.int8())})
        side = t.column("_side")
        lpart = _project_typed(
            t.filter(pc.equal(side, 0)), keys + l_cols, types
        ).to_pandas()
        rpart = _project_typed(
            t.filter(pc.equal(side, 1)), keys + r_cols, types
        ).to_pandas()
        # with banding, merging on (_jk, _band) pairs each left row only with
        # the ONE replica of each interval in its own band — exactly-once
        out = lpart.merge(rpart, on=keys, how="inner")
        lo = out[point] >= out[start] if lo_inc else out[point] > out[start]
        hi = out[point] <= out[end] if hi_inc else out[point] < out[end]
        return out[lo & hi].drop(columns=keys)

    return exchange_group_apply(
        both, keys, merge_bucket, num_buckets, fn_format="pyarrow"
    )


def keys_of(ds, col: str, max_rows: int = 5_000_000) -> list:
    """Collect one small key column to the driver (for broadcast joins).
    Only valid when the column is known-small (dimension side) — enforced:
    raises past ``max_rows`` so a future caller cannot silently materialize
    a corpus-sized column driver-side (use the bucketed join instead).

    ONE streaming pass: batches append until the cap trips, then the scan
    aborts — the earlier count()-then-take_all form executed the projected
    plan twice (count() is not metadata-pushed through a projection)."""
    out: list = []
    for b in ds.select_columns([col]).iter_batches(batch_format="pyarrow"):
        out.extend(b.column(col).to_pylist())
        if len(out) > max_rows:
            raise ValueError(
                f"keys_of({col!r}) would collect more than the "
                f"{max_rows}-row dimension-side cap — this column is not "
                "broadcast-small; use bucketed_join / BroadcastSemiJoin's "
                "exchange fallback instead of a driver-side collect"
            )
    return out


def _join_key_caster(*key_types):
    """How to normalize join-key columns into one ``_jk`` dtype: keep a
    native integer type when every side's key is an integer AND a single
    integer type can hold every side's values (int keys then ride the
    exchange's fixed-width fast path and merge as ints), else cast to
    string (the historical astype(str) semantics).

    Mixed signedness needs a SIGNED type strictly wider than the widest
    unsigned key (uint32 → int64); past 64 bits no such integer exists, so
    int64 + uint64 falls back to string rather than raising ArrowInvalid at
    runtime on negative or >2^63 key values."""
    if all(pa.types.is_integer(t) for t in key_types):
        signed = [t.bit_width for t in key_types if pa.types.is_signed_integer(t)]
        unsigned = [t.bit_width for t in key_types if not pa.types.is_signed_integer(t)]
        if not signed or not unsigned:
            return max(key_types, key=lambda t: t.bit_width)
        need = max(max(unsigned) * 2, max(signed))
        if need <= 64:
            return {8: pa.int8(), 16: pa.int16(), 32: pa.int32(), 64: pa.int64()}[need]
    return pa.string()


def _arrow_field_type(ds_schema, name: str):
    """Arrow type of one column from a Dataset schema — exact for
    arrow-block datasets (base_schema), numpy-mapped for pandas-block ones
    (object dtype → string, the only object columns these joins carry)."""
    bs = getattr(ds_schema, "base_schema", None)
    if isinstance(bs, pa.Schema):
        return bs.field(name).type
    t = dict(zip(ds_schema.names, ds_schema.types))[name]
    if isinstance(t, pa.DataType):
        # Ray's Schema wrapper yields Arrow types even for pandas-block
        # datasets; from_numpy_dtype would reject them → spurious string
        return t
    try:
        return pa.from_numpy_dtype(t)
    except (pa.ArrowNotImplementedError, TypeError, ValueError):
        return pa.string()


def bucketed_join(
    left,
    right,
    left_on: str,
    right_on: str | None = None,
    how: str = "inner",
    num_buckets: int | None = None,
):
    """Large-large cogroup hash join: union both sides with a side tag,
    EXCHANGE on the join key (groupby.exchange_group_apply — one raw hash
    shuffle, no sort), pandas-merge inside each bucket. Robust where
    ``Dataset.join`` is not (empty hash partitions — see clustering.py) and
    shuffles each side exactly once.

    The tagged union is ARROW-native and each side ships ONLY ITS OWN
    columns plus (_jk, _side): the exchange's permissive-promote concat
    unifies the disjoint column sets, and the bucket fn slices by side in
    Arrow before converting either side to pandas — absent-side values
    never exist, so no padding crosses the exchange and no null fill can
    degrade an int column to float64. (The round-3 form padded each side
    to the FULL union schema with typed nulls / int sentinels — measured
    1.78x the tagged-union bytes on two balanced 4-int-col sides.) The previous pandas-block form rode Ray Data's sort-based
    groupby, which measured 8.5 s / 22 s for the two attach joins of a
    6.7k-pair verify at 1.6M docs where the exchange form takes ~1.6 s
    each.

    Column sets of the two sides must be disjoint apart from the join key;
    the join key is matched ``left_on`` = ``right_on`` (compared as
    strings when either side's key is non-integer, natively when both are
    ints — int keys then ride the exchange's fixed-width hash fast path).
    """
    from .groupby import exchange_group_apply

    right_on = right_on or left_on
    l_schema = left.schema()
    r_schema = right.schema()
    overlap = (set(l_schema.names) & set(r_schema.names)) - {left_on}
    if overlap:
        raise ValueError(f"bucketed_join: overlapping non-key columns {overlap}")

    l_cols = list(l_schema.names)
    r_cols = [c for c in r_schema.names if c != right_on]
    types = {c: _arrow_field_type(l_schema, c) for c in l_cols}
    types.update({c: _arrow_field_type(r_schema, c) for c in r_cols})
    jk_type = _join_key_caster(
        _arrow_field_type(l_schema, left_on),
        _arrow_field_type(r_schema, right_on),
    )
    types["_jk"] = jk_type

    def tag(side: int, key_col: str, own: list[str]):
        def fn(t: pa.Table) -> pa.Table:
            cols: dict = {
                "_jk": pc.cast(t.column(key_col), jk_type),
                "_side": pa.array(np.full(t.num_rows, side, dtype=np.int8)),
            }
            for c in own:
                col = t.column(c)
                if pa.types.is_null(types[c]) or col.type == types[c]:
                    cols[c] = col
                else:
                    cols[c] = pc.cast(col, types[c])
            return pa.table(cols)

        return fn

    both = [
        left.map_batches(tag(0, left_on, l_cols), batch_format="pyarrow"),
        right.map_batches(tag(1, right_on, r_cols), batch_format="pyarrow"),
    ]

    # original dtypes: absent-side nulls degrade columns that rode a mixed
    # pandas conversion to object (e.g. int8 flags). Restore after the merge
    # where the cast is lossless; columns that legitimately hold NaN
    # (outer-join misses) keep object.
    # the output key column carries LEFT values — drop the right side's key
    # dtype so restoration can't cast it to the right's type (int64 keys
    # wrapped to uint64 when the sides' key signedness differed)
    rmap = _dtype_map(right.schema())
    rmap.pop(right_on, None)
    dtypes = {**_dtype_map(left.schema()), **rmap}

    def merge_bucket(t: pa.Table) -> pd.DataFrame:
        if "_side" not in t.column_names:  # schema-less all-empty bucket
            t = pa.table(
                {
                    "_jk": pa.nulls(0, jk_type),
                    "_side": pa.nulls(0, pa.int8()),
                }
            )
        side = t.column("_side")
        # slice by side IN ARROW, then convert each side's own columns only
        lpart = _project_typed(
            t.filter(pc.equal(side, 0)), ["_jk"] + l_cols, types
        ).to_pandas()
        rpart = _project_typed(
            t.filter(pc.equal(side, 1)), ["_jk"] + r_cols, types
        ).to_pandas()
        out = lpart.merge(rpart, on="_jk", how=how)
        out = out.drop(columns=["_jk"])
        for c, dt in dtypes.items():
            if c in out.columns and out[c].dtype != dt:
                try:
                    out[c] = out[c].astype(dt)
                except (ValueError, TypeError):
                    pass
        return out

    return exchange_group_apply(
        both, "_jk", merge_bucket, num_buckets, fn_format="pyarrow"
    )
