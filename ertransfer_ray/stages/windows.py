"""Windowed / stream-shaped aggregates over an ordered event table.

Ray Data is a batch engine (the reference is batch-only too, SURVEY §2.9);
stream-shaped workloads are expressed as: compute the window id per batch
(vectorized timestamp floor — no shuffle), then aggregate on the hash
exchange (see groupby.py for why builtin ``aggregate`` is avoided).
Sessionization shuffles each key's events into one hash bucket and windows
them with one vectorized pandas pass — the documented partitioning contract.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .groupby import exchange_group_apply, grouped_aggregate

_UNIT = {"1h": "h", "1d": "D", "1min": "min", "30min": "30min"}


def arrow_min_max(ds, value_col: str) -> tuple[float | None, float | None, int]:
    """Global (min, max, non-null count) of one column via zero-copy Arrow
    partials — ``pc.min_max`` + ``count`` per batch, three scalars per block
    to the driver. Replaces the old ``assign(_one=1)`` pandas round-trip
    (a full table conversion just to feed a synthetic group key)."""
    import pyarrow.compute as pc

    def partial(t: pa.Table) -> pa.Table:
        col = t.column(value_col)
        mm = pc.min_max(col)
        return pa.table(
            {
                "lo": [mm["min"].as_py()],
                "hi": [mm["max"].as_py()],
                "n": pa.array([pc.count(col).as_py()], type=pa.int64()),
            }
        )

    lo = hi = None
    n = 0
    parts = ds.select_columns([value_col]).map_batches(
        partial, batch_format="pyarrow"
    )
    for b in parts.iter_batches(batch_format="pandas"):
        for blo, bhi, bn in zip(b["lo"], b["hi"], b["n"]):
            n += int(bn)
            if blo is not None and not pd.isna(blo) and (lo is None or blo < lo):
                lo = blo
            if bhi is not None and not pd.isna(bhi) and (hi is None or bhi > hi):
                hi = bhi
    return lo, hi, n


def add_tumbling_window(ds, ts_col: str = "ts", window: str = "1h", out: str = "window_start"):
    """Vectorized window-id column: floor(ts) to the window size."""
    unit = _UNIT.get(window, window)

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy(deep=False)
        df[out] = df[ts_col].dt.floor(unit)
        return df

    return ds.map_batches(fn, batch_format="pandas")


def tumbling_window_agg(
    ds,
    ts_col: str = "ts",
    key_col: str = "event_type",
    value_col: str = "value",
    window: str = "1h",
):
    """Tumbling-window aggregate: count + sum(value) per (key, window_start).

    Per-batch partial aggregation (the big shrink) happens inside
    ``grouped_aggregate`` before any shuffle. Oracle SQL:
    ``GROUP BY key, date_trunc('hour', ts)``.
    """
    windowed = add_tumbling_window(ds, ts_col, window)
    return grouped_aggregate(
        windowed,
        [key_col, "window_start"],
        {"n_events": (value_col, "count"), "sum_value": (value_col, "sum")},
    )


def sliding_window_agg(
    ds,
    ts_col: str = "ts",
    key_col: str = "user_id",
    value_col: str = "value",
    window: str = "1h",
    slide: str = "30min",
):
    """Sliding windows: each event explodes into window/slide rows (one per
    covering window), then the same partial-then-bucketed aggregate."""
    w = pd.Timedelta(window)
    s = pd.Timedelta(slide)
    n_windows = int(w / s)

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        base = df[ts_col].dt.floor(f"{int(s.total_seconds())}s")
        frames = []
        for i in range(n_windows):
            ws = base - i * s
            mask = (df[ts_col] >= ws) & (df[ts_col] < ws + w)
            frames.append(
                pd.DataFrame(
                    {
                        key_col: df[key_col][mask],
                        "window_start": ws[mask],
                        value_col: df[value_col][mask],
                    }
                )
            )
        return pd.concat(frames, ignore_index=True)

    exploded = ds.map_batches(explode, batch_format="pandas")
    return grouped_aggregate(
        exploded,
        [key_col, "window_start"],
        {"n_events": (value_col, "count"), "sum_value": (value_col, "sum")},
    )


def sessionize(
    ds,
    ts_col: str = "ts",
    key_col: str = "user_id",
    gap: str = "30min",
):
    """Gap-based sessionization: per key, events sorted by ts; a new session
    starts when the gap to the previous event exceeds ``gap``. Returns one
    row per session: (key, session_start, session_end, n_events).

    All events of one key land in one hash bucket; within the bucket a single
    vectorized pandas pass (sort once, diff, cumsum) windows every key at
    once. Oracle SQL: lag + cumulative sum of gap flags (window functions).
    """
    g = pd.Timedelta(gap)

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key_col, ts_col])
        new_key = df[key_col] != df[key_col].shift()
        gap_break = df[ts_col].diff() > g
        session_id = (new_key | gap_break).cumsum()
        out = df.groupby(session_id, sort=False).agg(
            **{
                key_col: (key_col, "first"),
                "session_start": (ts_col, "min"),
                "session_end": (ts_col, "max"),
                "n_events": (ts_col, "size"),
            }
        )
        return out.reset_index(drop=True)

    return exchange_group_apply(ds.select_columns([key_col, ts_col]), key_col, per_bucket)


def global_histogram(
    ds,
    value_col: str,
    bins: int = 100,
    value_range: tuple[float, float] | None = None,
    smoothing: str | None = None,
    eps: float = 1e-12,
) -> pd.DataFrame:
    """A4: fixed-bin histogram with optional smoothing, as partial per-batch
    counts merged in one driver-side reduce (reference methods/embeddings/
    entrypoint.py:240-260: np.histogram(bins=100) + Laplace('LS') or
    fixed-minimum('FM', eps) smoothing + normalize).

    If ``value_range`` is None it is computed with one cheap partial-agg pass
    first, matching np.histogram's default range semantics.
    """
    if value_range is None:
        lo_, hi_, _ = arrow_min_max(ds, value_col)
        value_range = (float(lo_), float(hi_))
    lo, hi = float(value_range[0]), float(value_range[1])

    def partial(t: pa.Table) -> pa.Table:
        v = t.column(value_col).to_numpy(zero_copy_only=False).astype(
            np.float64, copy=False
        )
        counts, _ = np.histogram(v, bins=bins, range=(lo, hi))
        return pa.table(
            {
                "bin": pa.array(np.arange(bins, dtype=np.int64)),
                "count": pa.array(counts.astype(np.int64)),
            }
        )

    total = np.zeros(bins, dtype=np.int64)
    for b in ds.map_batches(partial, batch_size=65536, batch_format="pyarrow").iter_batches(
        batch_format="pandas"
    ):
        total[b["bin"].to_numpy()] += b["count"].to_numpy()

    counts = total.astype(np.float64)
    if smoothing == "LS":  # Laplace
        counts = counts + 1.0
    elif smoothing == "FM":  # fixed minimum
        counts = np.maximum(counts, eps)
    density = counts / counts.sum() if counts.sum() else counts
    edges = np.linspace(lo, hi, bins + 1)
    return pd.DataFrame(
        {
            "bin": np.arange(bins, dtype=np.int64),
            "bin_lo": edges[:-1],
            "bin_hi": edges[1:],
            "count": total,
            "density": density,
        }
    )


def quantile_col_name(q: float) -> str:
    """Column label for quantile ``q``: "q50"/"q90" for whole percents
    (the SQL-oracle names), full precision otherwise (0.995 -> "q99_5",
    1/3 -> "q33_3333") so close quantiles can't collapse onto one
    duplicate label. Shared by every caller that reads the columns back."""
    return f"q{q * 100:g}".replace(".", "_")


def grouped_quantiles(
    ds,
    key_col: str,
    value_col: str,
    qs: tuple[float, ...] = (0.5, 0.9, 0.99),
    num_buckets: int | None = None,
):
    """Exact per-group quantiles with linear interpolation — the same
    definition as ANSI ``quantile_cont`` / ``percentile_cont``, so the
    result is SQL-oracle-checkable. One hash exchange on the group key, then
    ONE vectorized pandas groupby-quantile per bucket.

    Contract: every group lands whole in one bucket (the
    exchange_group_apply shape), so a single group must fit a worker; for
    one unbounded group use ``global_histogram``'s mergeable counts
    instead — exact quantiles of one giant group don't decompose.
    Output columns: (key_col, q50, q90, ... one per requested quantile).
    """
    cols = [quantile_col_name(q) for q in qs]
    if len(set(cols)) != len(cols):
        raise ValueError(f"duplicate quantile column names derived from {qs}: {cols}")

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({key_col: [], **{c: [] for c in cols}})
        g = df.groupby(key_col, sort=False)[value_col].quantile(list(qs)).unstack()
        g.columns = cols
        return g.reset_index()

    return exchange_group_apply(
        ds.select_columns([key_col, value_col]), key_col, per_bucket, num_buckets
    )


def kl_divergence(p: np.ndarray, q: np.ndarray, eps: float = 1e-12) -> float:
    """A5: KL(p‖q) between two normalized histograms (reference
    methods/embeddings/entrypoint.py:263 via scipy.stats.entropy)."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    p = p / p.sum()
    q = np.maximum(q / q.sum(), eps)
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def grouped_approx_quantiles(
    ds,
    key_col: str,
    value_col: str,
    qs: tuple = (0.5, 0.9, 0.99),
    bins: int = 1024,
    num_buckets: int | None = None,
):
    """Approximate per-group quantiles from MERGEABLE binned counts — the
    unbounded-group complement of :func:`grouped_quantiles` (which needs
    every group whole in one worker): only (group, bin) count rows ride
    the exchanges, so a single group may exceed any worker's memory.

    Two passes: (1) grouped (lo, hi, n) ranges; (2) the per-row bin index
    ``min(floor((v - lo)·bins/(hi - lo)), bins-1)`` (the value_histogram
    formula, proven SQL-exact) emits per-block (group, bin) partials,
    summed through one exchange, and each group's estimates resolve
    IN-BUCKET. Estimate rule, integer-exact in SQL: target rank
    r = floor(q·(n-1)) (0-based), answer = the LEFT EDGE
    ``lo + b·(hi-lo)/bins`` of the first bin whose cumulative count
    exceeds r. Rank-bracketing guarantee: the true order statistic at
    rank r lies within one bin width above the estimate. Nulls/NaNs are
    excluded (quantile_cont semantics); a constant group answers its
    value at every q. Output: (key_col, n, q50_approx, ... one per q)."""
    import pyarrow.compute as pc

    cols = [quantile_col_name(q) + "_approx" for q in qs]
    if len(set(cols)) != len(cols):
        raise ValueError(f"duplicate quantile column names from {qs}: {cols}")

    ranges = grouped_aggregate(
        ds.select_columns([key_col, value_col]),
        key_col,
        {"lo": (value_col, "min"), "hi": (value_col, "max"),
         "n": (value_col, "count")},
        num_buckets,
    ).to_pandas()
    # group cardinality is bounded (that's what makes the range table
    # broadcastable); the VALUES per group are what this op lets overflow
    rng = {
        k: (float(lo), float(hi), int(n))
        for k, lo, hi, n in zip(ranges[key_col], ranges["lo"], ranges["hi"], ranges["n"])
        if n > 0
    }
    import ray

    ref = ray.put(rng)

    def binned(t: pa.Table) -> pd.DataFrame:
        df = t.select([key_col, value_col]).to_pandas()
        df = df.dropna(subset=[value_col])
        if df.empty:
            return pd.DataFrame({key_col: pd.Series([], dtype=object),
                                 "bin": pd.Series([], dtype=np.int64),
                                 "cnt": pd.Series([], dtype=np.int64)})
        r = ray.get(ref)
        rtab = pd.DataFrame(
            {key_col: list(r),
             "_lo": [v[0] for v in r.values()],
             "_hi": [v[1] for v in r.values()]}
        )
        df = df.merge(rtab, on=key_col, how="inner")  # vectorized range lookup
        keys = df[key_col].to_numpy()
        v = df[value_col].to_numpy(dtype=np.float64)
        lo = df["_lo"].to_numpy()
        hi = df["_hi"].to_numpy()
        span = hi - lo
        b = np.where(
            span > 0,
            np.minimum(np.floor((v - lo) * bins / np.where(span > 0, span, 1.0)),
                       bins - 1),
            0,
        ).astype(np.int64)
        out = pd.DataFrame({key_col: keys, "bin": b})
        return out.groupby([key_col, "bin"], as_index=False, sort=False).size().rename(
            columns={"size": "cnt"}
        )

    partials = ds.select_columns([key_col, value_col]).map_batches(
        binned, batch_format="pyarrow"
    )

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {key_col: pd.Series([], dtype=object),
             "n": pd.Series([], dtype=np.int64),
             **{c: pd.Series([], dtype=np.float64) for c in cols}}
        )
        if df.empty or "bin" not in df.columns:
            return empty
        r_all = ray.get(ref)
        rows = []
        for k, g in df.groupby(key_col, sort=False):
            lo, hi, n = r_all[k]
            counts = g.groupby("bin")["cnt"].sum().sort_index()
            cum = counts.cumsum()
            row = {key_col: k, "n": n}
            for q, c in zip(qs, cols):
                target = int(np.floor(q * (n - 1)))
                b = int(cum.index[np.searchsorted(cum.to_numpy(), target + 1)])
                row[c] = lo + b * (hi - lo) / bins if hi > lo else lo
            rows.append(row)
        return pd.DataFrame(rows)

    return exchange_group_apply(partials, key_col, resolve, num_buckets)
