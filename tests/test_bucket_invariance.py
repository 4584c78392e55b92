"""Bucket-count invariance of the exchange primitives.

Every primitive runs at 1, 3 and 16 buckets and at the default count
(``num_buckets=None``, two per CPU), and must give the same sorted output
each time."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from ertransfer_ray.stages import groupby as gb
from ertransfer_ray.stages.blocking import generate_pairs
from ertransfer_ray.stages.joins import bucketed_anti_semi_join, bucketed_join

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
                            tie_cols=["s"], num_buckets=nb, exchange=True)


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
    _top_k, _survivors, _pairs,
], ids=["exchange_group_apply", "join_inner", "join_left", "anti_join", "semi_join",
        "grouped_top_k", "counted_key_survivors", "generate_pairs"])
def test_same_output_at_any_bucket_count(run):
    outs = [_sorted(run(nb)) for nb in BUCKETS]
    assert len(outs[0]) > 0
    for nb, out in zip(BUCKETS[1:], outs[1:]):
        pd.testing.assert_frame_equal(out, outs[0], obj=f"num_buckets={nb}")


def test_default_num_buckets_is_two_per_cpu(ray_session):
    # the test session runs 4 logical CPUs; there is no floor of 16
    assert gb.default_num_buckets() == 8
