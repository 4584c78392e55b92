import pandas as pd
import pyarrow as pa
import ray.data as rd

from ertransfer_ray.pipelines.er_pipeline import normalize_pages
from ertransfer_ray.stages import blocking, joins
from ertransfer_ray.stages.blocking import (
    BlockKeyEmitter,
    blocking_stats,
    emit_block_keys,
    generate_pairs,
)


def _norm_ds(pages_corpus):
    return normalize_pages(rd.from_arrow(pages_corpus["pages"]))


def test_emitter_explodes_rows():
    batch = pa.table(
        {
            "url": ["u1", "u2"],
            "norm_text": ["quick brown fox jumps", "slow green turtle walks"],
            "norm_title": ["quick brown", "slow green"],
        }
    )
    em = BlockKeyEmitter(num_perm=32, num_bands=8)
    out = em(batch)
    # 8 band keys + 1 sorted-neighborhood key per row, all int64
    assert out.num_rows == 2 * 9
    assert out.schema.field("block_key").type == "int64"
    # sn key off → 8 keys per row
    out_nosn = BlockKeyEmitter(num_perm=32, num_bands=8, sn_prefix=0)(batch)
    assert out_nosn.num_rows == 2 * 8
    # deterministic
    out2 = BlockKeyEmitter(num_perm=32, num_bands=8)(batch)
    assert out.equals(out2)


def test_pair_generation_small_block_all_pairs():
    keyed = pa.table(
        {
            "block_key": ["k"] * 3,
            "url": ["a", "b", "c"],
            "norm_title": ["t1", "t2", "t3"],
            "payload": ["p1", "p2", "p3"],
        }
    )
    pairs = generate_pairs(rd.from_arrow(keyed)).to_pandas()
    got = set(zip(pairs["left_url"], pairs["right_url"]))
    assert got == {("a", "b"), ("a", "c"), ("b", "c")}
    assert (pairs["truncated"] == 0).all()


def test_pair_generation_hot_key_capped():
    n = 40
    keyed = pa.table(
        {
            "block_key": ["hot"] * n,
            "url": [f"u{i:03d}" for i in range(n)],
            "norm_title": ["t"] * n,
            "payload": ["p"] * n,
        }
    )
    pairs = generate_pairs(rd.from_arrow(keyed), max_block_size=10, window=3).to_pandas()
    # windowed: each of the first n-1 pairs with ≤3 neighbors, not O(n²)
    assert len(pairs) < n * 4
    assert (pairs["truncated"] == 1).all()
    assert (pairs["left_url"] < pairs["right_url"]).all()


def test_cross_band_dedup():
    # same url pair under two different keys → one output pair
    keyed = pa.table(
        {
            "block_key": ["k1", "k1", "k2", "k2"],
            "url": ["a", "b", "a", "b"],
            "norm_title": ["t", "t", "t", "t"],
            "payload": ["p", "p", "p", "p"],
        }
    )
    pairs = generate_pairs(rd.from_arrow(keyed)).to_pandas()
    assert len(pairs) == 1


def test_singleton_prefilter_preserves_pairs_and_fallback(monkeypatch):
    # mixture of singleton and pairable keys; prefilter must not change the
    # output, and the past-the-gate fallback (survivors=None) must match too
    keyed = pa.table(
        {
            "block_key": ["k1", "k1", "s1", "s2", "k2", "k2", "k2", "s3"],
            "url": ["a", "b", "x", "y", "c", "d", "e", "z"],
        }
    )
    ds = rd.from_arrow(keyed)
    want = generate_pairs(ds).to_pandas()  # 8 key rows: no prefilter
    monkeypatch.setattr(blocking, "PREFILTER_MIN_ROWS", 0)
    got = generate_pairs(ds).to_pandas()
    monkeypatch.setattr(joins, "KEY_SET_LIMIT", 0)
    capped = generate_pairs(ds).to_pandas()
    key = ["left_url", "right_url"]
    for df in (want, got, capped):
        df.sort_values(key, inplace=True, ignore_index=True)
    pd.testing.assert_frame_equal(got, want)
    pd.testing.assert_frame_equal(capped, want)
    assert set(zip(got["left_url"], got["right_url"])) == {
        ("a", "b"), ("c", "d"), ("c", "e"), ("d", "e"),
    }


def test_singleton_prefilter_all_singletons_empty_output(monkeypatch):
    monkeypatch.setattr(blocking, "PREFILTER_MIN_ROWS", 0)
    keyed = pa.table({"block_key": ["s1", "s2", "s3"], "url": ["a", "b", "c"]})
    out = generate_pairs(rd.from_arrow(keyed)).to_pandas()
    assert len(out) == 0


def test_blocking_recall_on_corpus(pages_corpus):
    norm = _norm_ds(pages_corpus)
    keyed = emit_block_keys(norm, num_perm=64, num_bands=16)
    pairs = generate_pairs(keyed)
    truth = pages_corpus["truth_pairs"].to_pandas()
    stats = blocking_stats(pairs, truth)
    # reference tunes blocking to recall 0.90 (splitters/KNN-Join/settings.py:1);
    # pairwise-F1 ≥ 0.99 needs essentially all true pairs as candidates
    assert stats["recall"] >= 0.99, stats
    # candidate set must stay far from quadratic
    n_pages = pages_corpus["pages"].num_rows
    assert stats["num_candidates"] < n_pages * 20, stats


def test_attach_strategies_agree(pages_corpus, monkeypatch):
    # broadcast, needed-filtered exchange, and the past-the-gate unfiltered
    # exchange must produce identical values (the url-set fallback is the
    # 10^12-pair regime)
    from ertransfer_ray.stages.blocking import attach_pair_payloads

    norm = _norm_ds(pages_corpus).materialize()
    keyed = emit_block_keys(norm, batch_size=256).materialize()
    pairs = generate_pairs(keyed, num_buckets=4).materialize()
    key = ["left_url", "right_url"]

    def canon(ds):
        df = ds.to_pandas().sort_values(key, ignore_index=True)
        df["truncated"] = df["truncated"].astype("int8")
        return df[sorted(df.columns)]

    base = canon(attach_pair_payloads(pairs, norm, num_buckets=4))
    monkeypatch.setattr(joins, "PAYLOAD_LIMIT", 0)
    join = canon(attach_pair_payloads(pairs, norm, num_buckets=4))
    monkeypatch.setattr(joins, "KEY_SET_LIMIT", 0)
    capped = canon(attach_pair_payloads(pairs, norm, num_buckets=4))
    pd.testing.assert_frame_equal(base, join)
    pd.testing.assert_frame_equal(base, capped)
