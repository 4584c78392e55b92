"""Round-5 ADVICE/VERDICT regression tests: negative-id contracts, quantile
column naming, empty-path exception hygiene, int64 banding, keys_of cap,
Arrow-native min/max partials."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from ertransfer_ray.stages.groupby import exchange_group_apply
from ertransfer_ray.stages.joins import _band_index, keys_of, range_join
from ertransfer_ray.stages.sampling import _mix_hash, filter_by_quantile
from ertransfer_ray.stages.windows import (
    arrow_min_max,
    grouped_quantiles,
    quantile_col_name,
)


# ---------------------------------------------------------------------------
# _mix_hash: nonnegative-id contract (uint64 wrap vs SQL HUGEINT divergence)
# ---------------------------------------------------------------------------

def test_mix_hash_rejects_negative_ids():
    with pytest.raises(ValueError, match="nonnegative"):
        _mix_hash(np.array([3, -1, 7], dtype=np.int64))


def test_mix_hash_matches_sql_hugeint_form_for_nonnegative():
    import duckdb

    ids = np.array([0, 1, 42, 2**31, 2**62], dtype=np.int64)
    got = _mix_hash(ids)
    sql = duckdb.sql(
        "SELECT (CAST(id AS HUGEINT) * 2654435761) % 4294967296 AS h "
        "FROM (SELECT UNNEST([0, 1, 42, 2147483648, 4611686018427387904]) AS id)"
    ).fetchnumpy()["h"]
    assert got.tolist() == [int(x) for x in sql]


# ---------------------------------------------------------------------------
# quantile column naming: whole percents keep SQL names, close qs can't collide
# ---------------------------------------------------------------------------

def test_quantile_col_name_whole_and_fractional():
    assert quantile_col_name(0.5) == "q50"
    assert quantile_col_name(0.9) == "q90"
    assert quantile_col_name(0.99) == "q99"
    assert quantile_col_name(0.995) == "q99_5"
    assert quantile_col_name(1.0) == "q100"
    assert quantile_col_name(1 / 3) != quantile_col_name(0.33)


def test_grouped_quantiles_close_qs_do_not_collide():
    df = pd.DataFrame({"k": ["a"] * 100, "v": np.arange(100.0)})
    out = grouped_quantiles(
        rd.from_pandas(df), "k", "v", qs=(0.995, 1.0), num_buckets=2
    ).to_pandas()
    assert "q99_5" in out.columns and "q100" in out.columns
    assert float(out["q100"][0]) == 99.0
    assert float(out["q99_5"][0]) == pytest.approx(df["v"].quantile(0.995))


def test_filter_by_quantile_fractional_q_exact():
    df = pd.DataFrame({"doc_id": np.arange(90), "v": np.arange(90.0)})
    out = filter_by_quantile(
        rd.from_pandas(df), "v", 1 / 3, keep="above", num_buckets=2
    ).to_pandas()
    thresh = df["v"].quantile(1 / 3)
    assert sorted(out["v"]) == sorted(df.loc[df["v"] > thresh, "v"])


# ---------------------------------------------------------------------------
# exchange_group_apply empty path: column-miss falls back, real bugs surface
# ---------------------------------------------------------------------------

def _schemaless_empty():
    empty = rd.from_pandas(
        pd.DataFrame({"doc_id": pd.Series([], dtype="int64")})
    )
    return empty.map_batches(
        lambda df: pd.DataFrame({"k": df["doc_id"], "v": df["doc_id"]}),
        batch_format="pandas",
    ).materialize()


def test_exchange_empty_path_swallows_column_miss():
    out = exchange_group_apply(
        _schemaless_empty(), "k", lambda g: g[["k", "missing"]], num_buckets=2
    )
    assert out.count() == 0  # falls back to the empty input


def test_exchange_empty_path_propagates_genuine_bugs():
    def bad(g):
        raise RuntimeError("genuine fn bug, not a schema miss")

    with pytest.raises(RuntimeError, match="genuine fn bug"):
        exchange_group_apply(_schemaless_empty(), "k", bad, num_buckets=2)


# ---------------------------------------------------------------------------
# _band_index: int64 path is exact beyond 2^53, floors negatives
# ---------------------------------------------------------------------------

def test_band_index_int64_exact_beyond_2_53():
    v = 2**62 + 3
    arr = pa.chunked_array([pa.array([v, -5, 7], type=pa.int64())])
    bands = _band_index(arr, 2)
    # float64 rounds 2**62+3 down to 2**62, giving band 2**61 — the int
    # path must produce the exact floor-div, and floor (not truncate) -5//2
    assert bands.tolist() == [v // 2, -3, 3]
    assert bands[0] != int(float(v) / 2.0)


def test_range_join_banded_equals_unbanded_huge_int64():
    base = 2**60
    left = pd.DataFrame(
        {
            "k": [1, 1, 2],
            "pt": np.array([base + 5, base + 95, base + 5], dtype=np.int64),
        }
    )
    right = pd.DataFrame(
        {
            "rk": [1, 1, 2],
            "lo": np.array([base + 0, base + 90, base + 50], dtype=np.int64),
            "hi": np.array([base + 10, base + 99, base + 60], dtype=np.int64),
        }
    )
    kw = dict(by="k", right_by="rk", point="pt", start="lo", end="hi")
    unbanded = range_join(
        rd.from_pandas(left), rd.from_pandas(right), num_buckets=2, **kw
    ).to_pandas()
    banded = range_join(
        rd.from_pandas(left), rd.from_pandas(right), band=7, num_buckets=2, **kw
    ).to_pandas()
    key = lambda df: sorted(map(tuple, df[["k", "pt", "lo", "hi"]].to_numpy()))
    assert key(banded) == key(unbanded)
    # (1, base+5) in [base+0, base+10] and (1, base+95) in [base+90, base+99];
    # (2, base+5) is outside [base+50, base+60]
    assert len(unbanded) == 2


# ---------------------------------------------------------------------------
# keys_of: dimension-side smallness contract enforced
# ---------------------------------------------------------------------------

def test_keys_of_raises_over_cap():
    ds = rd.from_pandas(pd.DataFrame({"k": np.arange(100)}))
    with pytest.raises(ValueError, match="dimension-side cap"):
        keys_of(ds, "k", max_rows=10)
    assert sorted(keys_of(ds, "k", max_rows=100)) == list(range(100))


# ---------------------------------------------------------------------------
# arrow_min_max: zero-copy partials match pandas, nulls handled
# ---------------------------------------------------------------------------

def test_arrow_min_max_with_nulls():
    df = pd.DataFrame({"v": [3.0, None, -7.5, 11.0, None]})
    lo, hi, n = arrow_min_max(rd.from_pandas(df), "v")
    assert (lo, hi, n) == (-7.5, 11.0, 3)


# ---------------------------------------------------------------------------
# word_shingles: zip form identical to the original slicing comprehension
# ---------------------------------------------------------------------------

def _shingles_reference(text: str, k: int) -> list:
    # the original per-site implementation, kept verbatim as the pin
    ws = text.lower().split()
    if len(ws) <= k:
        return [" ".join(ws)] if ws else []
    return [" ".join(ws[i : i + k]) for i in range(len(ws) - k + 1)]


def test_word_shingles_identical_to_reference_form():
    from ertransfer_ray.functions.hashing import word_shingles

    rng = np.random.default_rng(3)
    texts = [
        "", "one", "two words", "Three Little WORDS", "a b c d",
        "  padded   runs\tof\nwhitespace  x ",
    ] + [
        " ".join(f"w{j}" for j in rng.integers(0, 50, size=n))
        for n in rng.integers(0, 40, size=200)
    ]
    for k in (2, 3, 5):
        for t in texts:
            assert word_shingles(t, k) == _shingles_reference(t, k)


def test_minhash_band_keys_pinned_to_arrow_shingle_family():
    """Band keys through the dedup emitter must equal keys recomputed from
    the shared Arrow shingle-hash kernel — blocking and near-dup
    dedup agree by construction because both call it. (Round 5
    switched the shingle HASH family from shingle-string SipHash to the
    vocab-hash polynomial combine; the old byte-pin against string
    shingles is superseded — oracle neutrality of the swap is pinned by
    tests/test_queries_oracle.py::test_minhash_neardup_matches_sql_oracle.)
    Also pins batching invariance: emitting per-doc equals one batch."""
    from ertransfer_ray.functions.hashing import (
        arrow_word_shingle_hashes,
        lsh_band_keys_u64,
        minhash_coeffs,
        minhash_signatures_hashed,
    )
    from ertransfer_ray.stages.dedup import _ShingleMinHash

    texts = [
        "the quick brown fox jumps over the lazy dog",
        "the quick brown fox jumped over a lazy dog",
        "completely different text about ray data pipelines",
        "tiny", "",
    ]
    t = pa.table({"doc_id": pa.array(range(5), pa.int64()), "text": texts})
    em = _ShingleMinHash("doc_id", "text", num_perm=32, num_bands=8)
    got = em(t).to_pandas()

    h, c = arrow_word_shingle_hashes(texts, 3)
    sig = minhash_signatures_hashed(h, c, 32, coeffs=minhash_coeffs(32, 7))
    want = np.concatenate(lsh_band_keys_u64(sig, 8))
    assert got["band_key"].to_numpy().tolist() == want.tolist()

    # batching invariance: one-doc batches emit the same keys
    per_doc = [
        em(t.slice(i, 1)).to_pandas()["band_key"].to_numpy() for i in range(5)
    ]
    stacked = np.stack(per_doc, axis=1).ravel()  # band-major per doc → align
    assert sorted(stacked.tolist()) == sorted(want.tolist())


def test_arrow_min_max_all_null():
    df = pd.DataFrame({"v": pd.Series([None, None], dtype="float64")})
    lo, hi, n = arrow_min_max(rd.from_pandas(df), "v")
    assert (lo, hi, n) == (None, None, 0)


# ---------------------------------------------------------------------------
# approx_quantile NaN handling (round-5 review): histogram-total ranks,
# all-NaN/None guards — parity with the exact arm's NaN-excluding count
# ---------------------------------------------------------------------------

def test_approx_quantile_nan_columns(ray_session):
    from ertransfer_ray.stages.sampling import approx_quantile

    # all-NaN → None (pc.min_max emits its (inf, -inf) identity there)
    allnan = rd.from_pandas(pd.DataFrame({"v": [float("nan")] * 64}))
    assert approx_quantile(allnan, "v", 0.5) is None

    # half-NaN: rank must use the NaN-excluding total — the estimate stays
    # within one bin of the exact quantile of the non-NaN values
    vals = np.arange(1000, dtype=np.float64)
    mixed = np.concatenate([vals, np.full(1000, np.nan)])
    rng = np.random.default_rng(3)
    rng.shuffle(mixed)
    ds = rd.from_pandas(pd.DataFrame({"v": mixed}))
    got = approx_quantile(ds, "v", 0.5, bins=512)
    exact = float(np.quantile(vals, 0.5))
    assert abs(got - exact) <= (vals.max() - vals.min()) / 512 + 1e-9
