import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from ertransfer_ray.stages.groupby import (
    counted_key_survivors,
    distinct_rows,
    exchange_group_apply,
    grouped_aggregate,
    grouped_top_k,
    partial_aggregate,
)


def _ds(n=1000, seed=0):
    rng = np.random.default_rng(seed)
    return rd.from_pandas(
        pd.DataFrame(
            {
                "k": rng.choice(["a", "b", "c", "d"], n),
                "k2": rng.integers(0, 50, n),
                "v": rng.random(n),
            }
        )
    )


def test_partial_aggregate_matches_pandas():
    ds = _ds()
    pdf = ds.to_pandas()
    out = partial_aggregate(
        ds, "k", {"s": ("v", "sum"), "n": (None, "count"), "m": ("v", "mean"),
                  "mn": ("v", "min"), "mx": ("v", "max")}
    )
    exp = pdf.groupby("k", as_index=False).agg(
        s=("v", "sum"), n=("v", "size"), m=("v", "mean"), mn=("v", "min"), mx=("v", "max")
    )
    merged = out.merge(exp, on="k", suffixes=("", "_e"))
    assert np.allclose(merged["s"], merged["s_e"])
    assert (merged["n"] == merged["n_e"]).all()
    assert np.allclose(merged["m"], merged["m_e"])
    assert np.allclose(merged["mn"], merged["mn_e"])
    assert np.allclose(merged["mx"], merged["mx_e"])


def test_partial_aggregate_multikey_and_empty():
    ds = _ds(200)
    out = partial_aggregate(ds, ["k", "k2"], {"n": (None, "count")})
    assert out["n"].sum() == 200
    empty = rd.from_pandas(pd.DataFrame({"k": pd.Series([], dtype=str), "v": pd.Series([], dtype=float)}))
    out2 = partial_aggregate(empty, "k", {"n": (None, "count")})
    assert len(out2) == 0


def test_grouped_aggregate_high_cardinality():
    ds = _ds(2000)
    out = grouped_aggregate(ds, "k2", {"s": ("v", "sum"), "n": (None, "count")}).to_pandas()
    exp = ds.to_pandas().groupby("k2", as_index=False).agg(s=("v", "sum"), n=("v", "size"))
    merged = out.merge(exp, on="k2", suffixes=("", "_e"))
    assert len(merged) == len(exp)
    assert np.allclose(merged["s"], merged["s_e"])


def test_grouped_top_k():
    df = pd.DataFrame(
        {"k": ["a", "a", "a", "b", "b"], "v": [3.0, 1.0, 2.0, 5.0, 5.0], "id": [1, 2, 3, 4, 5]}
    )
    out = (
        grouped_top_k(rd.from_pandas(df), "k", "v", k=1, tie_cols=["id"])
        .to_pandas()
        .sort_values("k", ignore_index=True)
    )
    assert out["id"].tolist() == [1, 4]  # a: max v=3 → id1; b: tie 5,5 → min id 4
    out2 = grouped_top_k(rd.from_pandas(df), "k", "v", k=2, tie_cols=["id"]).to_pandas()
    assert len(out2) == 4


def test_distinct_rows():
    df = pd.DataFrame({"a": [1, 1, 2], "b": ["x", "x", "y"]})
    out = distinct_rows(rd.from_pandas(df), ["a", "b"]).to_pandas()
    assert len(out) == 2


def test_bucketed_apply_key_colocation():
    # every key's rows must land in exactly one bucket-group call
    ds = _ds(500)

    def count_rows(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("k2", as_index=False).agg(n=("v", "size"))

    out = exchange_group_apply(ds, "k2", count_rows, num_buckets=7).to_pandas()
    # one output row per key → no key split across buckets
    assert out["k2"].is_unique
    assert out["n"].sum() == 500


def test_exchange_grouped_split_matches_ungrouped(monkeypatch):
    """Driver-ref ceiling: when blocks x num_buckets would exceed
    MAX_EXCHANGE_REFS, blocks are grouped into fewer split tasks — the
    result must be row-identical to the ungrouped fan."""
    import ertransfer_ray.stages.groupby as gb

    df = pd.DataFrame({"k2": np.arange(600) % 13, "v": np.arange(600)})
    ds = rd.from_pandas(df).repartition(12).materialize()

    def agg(d: pd.DataFrame) -> pd.DataFrame:
        return d.groupby("k2", as_index=False).agg(n=("v", "size"), s=("v", "sum"))

    want = (
        gb.exchange_group_apply(ds, "k2", agg, num_buckets=5)
        .to_pandas().sort_values("k2", ignore_index=True)
    )
    # force maximal grouping: cap = num_buckets -> 1 group of all 12 blocks
    monkeypatch.setattr(gb, "MAX_EXCHANGE_REFS", 5)
    got = (
        gb.exchange_group_apply(ds, "k2", agg, num_buckets=5)
        .to_pandas().sort_values("k2", ignore_index=True)
    )
    pd.testing.assert_frame_equal(got, want)

    surv = gb.counted_key_survivors(ds, "k2", 5, min_count=2)
    monkeypatch.setattr(gb, "MAX_EXCHANGE_REFS", 1)
    surv2 = gb.counted_key_survivors(ds, "k2", 5, min_count=2)
    assert sorted(surv.to_pylist()) == sorted(surv2.to_pylist())


def test_one_bucket_skips_the_split(caplog):
    """One bucket runs one apply task over the input blocks, with no split
    phase, says so at DEBUG, and matches a bucketed run."""
    import logging

    import ertransfer_ray.stages.groupby as gb

    df = pd.DataFrame({"k2": np.arange(600) % 13, "v": np.arange(600)})
    ds = rd.from_pandas(df).repartition(12).materialize()

    def agg(d: pd.DataFrame) -> pd.DataFrame:
        return d.groupby("k2", as_index=False).agg(n=("v", "size"), s=("v", "sum"))

    def run(nb):
        out = gb.exchange_group_apply(ds, "k2", agg, num_buckets=nb)
        return out.to_pandas().sort_values("k2", ignore_index=True)

    want = run(5)
    with caplog.at_level(logging.DEBUG, logger=gb.__name__):
        pd.testing.assert_frame_equal(run(1), want)
    assert any("1 buckets, split skipped" in r.getMessage() for r in caplog.records)
    surv = sorted(gb.counted_key_survivors(ds, "k2", 1).to_pylist())
    assert surv == sorted(gb.counted_key_survivors(ds, "k2", 5).to_pylist())


@pytest.mark.parametrize("fmt", ["pandas", "pyarrow"])
@pytest.mark.parametrize("op", ["exchange_group_apply", "counted_key_survivors"])
def test_exchange_reads_its_input_once(tmp_path, op, fmt):
    """An exchange is a pipeline breaker: a lazy upstream must run once.
    Every batch the upstream emits appends its row count to a file, and
    the total must equal the input's row count."""
    df = pd.DataFrame({"k": np.arange(1000) % 37, "v": np.arange(1000)})
    log = tmp_path / "rows.log"

    def counted(batch):
        with open(log, "a") as f:
            f.write(f"{len(batch)}\n")
        return batch

    lazy = rd.from_pandas(df).repartition(4).map_batches(counted, batch_format=fmt)
    if op == "exchange_group_apply":
        out = exchange_group_apply(
            lazy, "k", lambda d: d.groupby("k", as_index=False).size(), num_buckets=3
        )
        assert out.to_pandas()["size"].sum() == len(df)
    else:
        assert len(counted_key_survivors(lazy, "k", 3)) == 37
    rows = [int(x) for x in log.read_text().split()]
    assert sum(rows) == len(df), rows


@pytest.mark.parametrize("fn_format", ["pandas", "pyarrow"])
def test_empty_buckets_keep_the_bucket_types(fn_format):
    """A string key with more buckets than keys leaves most buckets empty.
    Every output block of the exchange carries the string type, not
    ``null``, so the result has one schema; when every bucket comes out
    empty, the result still has the typed column."""
    import pyarrow as pa
    import ray

    ds = rd.from_arrow(pa.table({"k": ["a", "b", "a"], "v": [1, 2, 3]}))

    def blocks(keep_rows: bool):
        def fn(bucket):
            df = bucket.to_pandas() if fn_format == "pyarrow" else bucket
            df = df.drop_duplicates("k")
            return df if keep_rows else df.iloc[0:0]

        out = exchange_group_apply(ds, "k", fn, num_buckets=8, fn_format=fn_format)
        return [
            ray.get(r) for bundle in out.iter_internal_ref_bundles() for r in bundle.block_refs
        ]

    full = blocks(True)
    assert len(full) == 8 and sum(b.num_rows for b in full) == 2
    for out in (full, blocks(False)):
        assert all(b.schema.equals(out[0].schema) for b in out), [
            str(b.schema.remove_metadata()) for b in out
        ]
        assert out[0].schema.field("k").type == pa.string()
