"""Bucket-count invariance of the exchange primitives.

Every primitive runs at 1, 3 and 16 buckets and at the planner's choice
(``num_buckets=None``) on both sides of its one-bucket rule: two per CPU in
the test session, and one bucket for these small inputs with the session's
CPUs patched to one. It must give the same sorted output each time."""

import contextlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from ertransfer_ray.stages import blocking
from ertransfer_ray.stages import groupby as gb
from ertransfer_ray.stages.blocking import generate_pairs
from ertransfer_ray.stages.clustering import reciprocal_top1
from ertransfer_ray.stages.dedup import exact_dedup_summary
from ertransfer_ray.stages.joins import bucketed_anti_semi_join, bucketed_join
from ertransfer_ray.stages.windows import grouped_quantiles, sessionize

#: None is the planner's choice (two buckets per CPU); "one_cpu" is the
#: planner's choice on a one-CPU session, one bucket for these inputs
BUCKETS = [1, 3, 16, None, "one_cpu"]


def _frame(n: int, n_keys: int, seed: int) -> pd.DataFrame:
    # skewed keys (one hot key) over several blocks
    rng = np.random.default_rng(seed)
    k = rng.integers(0, n_keys, n)
    k[: n // 5] = 0
    return pd.DataFrame({"k": k.astype(np.int64), "x": np.arange(n, dtype=np.int64),
                         "s": [f"s{v % 7}" for v in range(n)]})


def _ds(df: pd.DataFrame, blocks: int = 4):
    return rd.from_pandas(df).repartition(blocks).materialize()


def _sorted(out) -> pd.DataFrame:
    df = out.to_pandas() if not isinstance(out, pd.DataFrame) else out
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), ignore_index=True)


def _exchange(nb):
    def agg(d: pd.DataFrame) -> pd.DataFrame:
        return d.groupby("k", as_index=False).agg(n=("x", "size"), s=("x", "sum"), m=("s", "max"))

    return gb.exchange_group_apply(_ds(_frame(400, 37, 1)), "k", agg, num_buckets=nb)


def _join(how):
    def run(nb):
        left = _ds(_frame(300, 50, 2))
        right = _ds(_frame(120, 80, 3).rename(columns={"x": "y", "s": "t"}), blocks=3)
        return bucketed_join(left, right, "k", how=how, num_buckets=nb)

    return run


def _anti_semi(anti):
    def run(nb):
        probe = _ds(_frame(300, 60, 4))
        build = _ds(pd.DataFrame({"k": np.arange(0, 60, 3, dtype=np.int64)}), blocks=2)
        return bucketed_anti_semi_join(probe, build, "k", anti=anti, num_buckets=nb)

    return run


def _top_k(nb):
    return gb.grouped_top_k(_ds(_frame(400, 41, 5)), "k", "x", k=2,
                            tie_cols=["s"], num_buckets=nb)


def _distinct(nb):
    return gb.distinct_rows(_ds(_frame(400, 37, 8)), ["k", "s"], num_buckets=nb)


def _aggregate(nb):
    df = _frame(400, 37, 9).assign(f=lambda d: d["x"] * 0.5)
    spec = {"n": (None, "count"), "sx": ("x", "sum"), "mf": ("f", "mean")}
    return gb.grouped_aggregate(_ds(df), "k", spec, num_buckets=nb)


def _events(n: int, seed: int) -> pd.DataFrame:
    df = _frame(n, 23, seed)
    minutes = np.random.default_rng(seed).integers(0, 600, n)
    return df.assign(ts=pd.Timestamp("2024-01-01") + pd.to_timedelta(minutes, unit="min"))


def _sessionize(nb):
    # sessionize takes its bucket count from the planner
    with _default_buckets(nb):
        return sessionize(_ds(_events(400, 10)), ts_col="ts", key_col="k").materialize()


def _quantiles(nb):
    return grouped_quantiles(_ds(_frame(400, 37, 11)), "k", "x", num_buckets=nb)


def _predictions(n: int, seed: int) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    return pd.DataFrame({
        "left_url": [f"l{v:02d}" for v in rng.integers(0, 60, n)],
        "right_url": [f"r{v:02d}" for v in rng.integers(0, 60, n)],
        "prob": np.round(rng.random(n), 1),  # coarse: many ties
    }).drop_duplicates(["left_url", "right_url"])


def _reciprocal(nb):
    with _default_buckets(nb):
        return reciprocal_top1(_ds(_predictions(500, 12)), theta=0.2).materialize()


@contextlib.contextmanager
def _default_buckets(nb):
    """For ops that take no num_buckets: pin the planner's count instead."""
    with pytest.MonkeyPatch.context() as mp:
        if nb is not None:
            mp.setattr(gb, "default_num_buckets", lambda nbytes: nb)
        yield


def _survivors(nb):
    s = gb.counted_key_survivors(_ds(_frame(400, 300, 6)), "k", nb)
    return pd.DataFrame({"k": s.to_pylist()})


def _pairs(nb):
    rng = np.random.default_rng(7)
    n = 600
    keyed = pa.table({
        "block_key": rng.integers(0, 90, n).astype(np.int64),
        "url": [f"u{v:03d}" for v in rng.integers(0, 200, n)],
        "norm_title": ["t"] * n,
    })
    with pytest.MonkeyPatch.context() as mp:  # run the singleton prefilter
        mp.setattr(blocking, "PREFILTER_MIN_ROWS", 0)
        return generate_pairs(rd.from_arrow(keyed).repartition(4), num_buckets=nb)


@pytest.mark.parametrize("run", [
    _exchange, _join("inner"), _join("left"), _anti_semi(True), _anti_semi(False),
    _top_k, _survivors, _pairs, _distinct, _aggregate, _sessionize, _quantiles,
    _reciprocal,
], ids=["exchange_group_apply", "join_inner", "join_left", "anti_join", "semi_join",
        "grouped_top_k", "counted_key_survivors", "generate_pairs", "distinct_rows",
        "grouped_aggregate", "sessionize", "grouped_quantiles", "reciprocal_top1"])
def test_same_output_at_any_bucket_count(run):
    outs = []
    for nb in BUCKETS:
        with pytest.MonkeyPatch.context() as mp:
            if nb == "one_cpu":
                mp.setattr(gb, "cluster_cpus", lambda: 1)
                nb = None
            outs.append(_sorted(run(nb)))
    assert len(outs[0]) > 0
    for nb, out in zip(BUCKETS[1:], outs[1:]):
        pd.testing.assert_frame_equal(out, outs[0], obj=f"num_buckets={nb}")


_GROUPED_OPS = {
    "distinct_rows": lambda ds: gb.distinct_rows(ds, ["k", "s"]),
    "grouped_aggregate": lambda ds: gb.grouped_aggregate(
        ds, "k", {"n": (None, "count"), "sx": ("x", "sum"), "mx": ("x", "mean")}
    ),
    "grouped_top_k": lambda ds: gb.grouped_top_k(ds, "k", "x", tie_cols=["s"]),
    "sessionize": lambda ds: sessionize(ds, ts_col="ts", key_col="k"),
    "grouped_quantiles": lambda ds: grouped_quantiles(ds, "k", "x"),
    "reciprocal_top1": reciprocal_top1,
    "exact_dedup_summary": lambda ds: exact_dedup_summary(ds, "x", "s"),
}


#: each op's result columns; None where the op passes its input's through
_RESULT_COLUMNS = {
    "distinct_rows": None,
    "grouped_aggregate": ["k", "n", "sx", "mx"],
    "grouped_top_k": None,
    "sessionize": ["k", "session_start", "session_end", "n_events"],
    "grouped_quantiles": ["k", "q50", "q90", "q99"],
    "reciprocal_top1": ["left_url", "right_url", "prob"],
    "exact_dedup_summary": ["keep_id", "dup_count"],
}


@pytest.mark.parametrize("empty", ["zero_rows", "schemaless_block"])
@pytest.mark.parametrize("op", sorted(_GROUPED_OPS))
def test_grouped_op_on_empty_input(op, empty):
    """Zero rows with a schema, and the schema-less empty block that a map
    over an empty dataset emits, both give an empty result with the
    result's columns (a schema-less input has none to pass through)."""
    df = pd.concat([_events(40, 13), _predictions(40, 14)], axis=1)
    if empty == "zero_rows":
        ds = rd.from_pandas(df).map_batches(lambda t: t.slice(0, 0), batch_format="pyarrow")
    else:
        ds = rd.from_pandas(df.iloc[:0]).map_batches(lambda b: b, batch_format="pandas")
    out = _GROUPED_OPS[op](ds)
    assert out.count() == 0
    expected = _RESULT_COLUMNS[op]
    if expected is None:
        expected = list(df.columns) if empty == "zero_rows" else []
    schema = out.schema()
    assert (schema.names if schema is not None else []) == expected


def test_window_query_on_empty_events(tmp_path):
    """A zero-row events table gives an empty hourly table with its columns
    (the aggregate's result columns survive to the query's frame)."""
    from ertransfer_ray.pipelines.queries import q_hourly_event_stats

    pq.write_table(
        pa.table({
            "ts": pa.array([], pa.timestamp("us")),
            "event_type": pa.array([], pa.string()),
            "value": pa.array([], pa.float64()),
        }),
        tmp_path / "events.parquet",
    )
    out = q_hourly_event_stats(str(tmp_path))
    assert len(out) == 0
    assert list(out.columns) == ["event_type", "window_start", "n_events", "sum_value"]


def test_queries_on_zero_row_tables(tmp_path):
    """Queries that index or sort a result column keep their columns on
    zero-row tables: every result conversion goes through
    ``queries._pandas``, not a bare ``to_pandas()``."""
    from ertransfer_ray.pipelines.queries import (
        q_customer_order_counts,
        q_distinct_event_types,
        q_top1_order_per_customer,
    )

    pq.write_table(
        pa.table({"event_type": pa.array([], pa.string())}),
        tmp_path / "events.parquet",
    )
    pq.write_table(
        pa.table({
            "o_orderkey": pa.array([], pa.int64()),
            "o_custkey": pa.array([], pa.int64()),
            "o_totalprice": pa.array([], pa.float64()),
        }),
        tmp_path / "orders.parquet",
    )
    want = {
        q_distinct_event_types: ["event_type"],
        q_customer_order_counts: ["o_custkey", "n_orders"],
        q_top1_order_per_customer: ["o_custkey", "o_orderkey", "o_totalprice"],
    }
    for query, cols in want.items():
        out = query(str(tmp_path))
        assert len(out) == 0, query.__name__
        assert sorted(out.columns) == sorted(cols), query.__name__


def test_default_num_buckets_is_two_per_cpu(ray_session, monkeypatch):
    # two per CPU at any size on the test session's 4 logical CPUs, with no
    # floor of 16; on one CPU, one bucket at or below the byte floor
    assert gb.default_num_buckets(0) == 8
    assert gb.default_num_buckets(gb.SINGLE_BUCKET_BYTES + 1) == 8
    monkeypatch.setattr(gb, "cluster_cpus", lambda: 1)
    assert gb.default_num_buckets(0) == 1
    assert gb.default_num_buckets(gb.SINGLE_BUCKET_BYTES) == 1
    assert gb.default_num_buckets(gb.SINGLE_BUCKET_BYTES + 1) == 2


def test_planner_takes_one_bucket_below_the_floor(monkeypatch):
    """The planner reads the input's bytes from its block metadata: a small
    input takes two buckets per CPU on the 4-CPU test session; on one CPU it
    runs as one bucket, and past a lowered floor as two."""
    seen, real = [], gb.default_num_buckets

    def planner(nbytes):
        seen.append(real(nbytes))
        return seen[-1]

    monkeypatch.setattr(gb, "default_num_buckets", planner)
    ds = _ds(_frame(400, 37, 1))
    gb.distinct_rows(ds, "k")
    monkeypatch.setattr(gb, "cluster_cpus", lambda: 1)
    gb.distinct_rows(ds, "k")
    monkeypatch.setattr(gb, "SINGLE_BUCKET_BYTES", ds.size_bytes() - 1)
    gb.distinct_rows(ds, "k")
    assert seen == [8, 1, 2]
