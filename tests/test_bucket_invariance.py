"""Bucket-count invariance of the exchange primitives.

Every primitive runs at 1, 3 and 16 buckets and at the default count
(``num_buckets=None``, two per CPU), and must give the same sorted output
each time."""

import contextlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from ertransfer_ray.stages import groupby as gb
from ertransfer_ray.stages.blocking import generate_pairs
from ertransfer_ray.stages.clustering import reciprocal_top1
from ertransfer_ray.stages.dedup import exact_dedup_summary
from ertransfer_ray.stages.joins import bucketed_anti_semi_join, bucketed_join
from ertransfer_ray.stages.windows import grouped_quantiles, sessionize

BUCKETS = [1, 3, 16, None]


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
    # sessionize takes its bucket count from default_num_buckets
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
    """For ops that take no num_buckets: pin the default count instead."""
    with pytest.MonkeyPatch.context() as mp:
        if nb is not None:
            mp.setattr(gb, "default_num_buckets", lambda: nb)
        yield


def _survivors(nb):
    s = gb.counted_key_survivors(_ds(_frame(400, 300, 6)), "k", nb, 10_000)
    return pd.DataFrame({"k": s.to_pylist()})


def _pairs(nb):
    rng = np.random.default_rng(7)
    n = 600
    keyed = pa.table({
        "block_key": rng.integers(0, 90, n).astype(np.int64),
        "url": [f"u{v:03d}" for v in rng.integers(0, 200, n)],
        "norm_title": ["t"] * n,
    })
    return generate_pairs(rd.from_arrow(keyed).repartition(4), num_buckets=nb,
                          prefilter_singletons=True)


@pytest.mark.parametrize("run", [
    _exchange, _join("inner"), _join("left"), _anti_semi(True), _anti_semi(False),
    _top_k, _survivors, _pairs, _distinct, _aggregate, _sessionize, _quantiles,
    _reciprocal,
], ids=["exchange_group_apply", "join_inner", "join_left", "anti_join", "semi_join",
        "grouped_top_k", "counted_key_survivors", "generate_pairs", "distinct_rows",
        "grouped_aggregate", "sessionize", "grouped_quantiles", "reciprocal_top1"])
def test_same_output_at_any_bucket_count(run):
    outs = [_sorted(run(nb)) for nb in BUCKETS]
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


@pytest.mark.parametrize("empty", ["zero_rows", "schemaless_block"])
@pytest.mark.parametrize("op", sorted(_GROUPED_OPS))
def test_grouped_op_on_empty_input(op, empty):
    """Zero rows with a schema, and the schema-less empty block that a map
    over an empty dataset emits, both give an empty result."""
    df = pd.concat([_events(40, 13), _predictions(40, 14)], axis=1)
    if empty == "zero_rows":
        ds = rd.from_pandas(df).map_batches(lambda t: t.slice(0, 0), batch_format="pyarrow")
    else:
        ds = rd.from_pandas(df.iloc[:0]).map_batches(lambda b: b, batch_format="pandas")
    assert _GROUPED_OPS[op](ds).count() == 0


def test_default_num_buckets_is_two_per_cpu(ray_session):
    # the test session runs 4 logical CPUs; there is no floor of 16
    assert gb.default_num_buckets() == 8
