"""Bloom filter: one-sided-error contract (zero false negatives, bounded
false positives), OR-merge / distributed-build layout invariance, and the
decontamination bloom arm's exact equality with the broadcast/join arms."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from ertransfer_ray.stages.bloom import (
    BloomFilter,
    bloom_from_keyed,
    bloom_params,
)
from ertransfer_ray.stages.decontam import contamination_stats, decontaminate

from test_decontam import CORPUS, EVAL, _brute, _ds


def _keys(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, n, dtype=np.int64)


def test_no_false_negatives_and_bounded_fpp():
    members = _keys(20_000, 1)
    m_bits, k = bloom_params(len(members), fpp=0.005)
    bf = BloomFilter(m_bits, k)
    bf.add(members)
    assert bf.contains(members).all()  # the one-sided guarantee

    others = np.setdiff1d(_keys(100_000, 2), members)
    fp = bf.contains(others).mean()
    assert fp < 0.02, fp  # 4x headroom over the configured 0.5 %


def test_merge_equals_combined_add_and_positions_roundtrip():
    a, b = _keys(5_000, 3), _keys(5_000, 4)
    m_bits, k = bloom_params(10_000)
    one = BloomFilter(m_bits, k)
    one.add(np.concatenate([a, b]))
    merged = BloomFilter(m_bits, k)
    merged.add(a)
    other = BloomFilter(m_bits, k)
    other.add(b)
    merged.merge(other)
    assert np.array_equal(one.words, merged.words)

    via_pos = BloomFilter(m_bits, k)
    via_pos.set_positions(one.positions(np.concatenate([a, b])))
    assert np.array_equal(one.words, via_pos.words)


def test_param_and_ctor_validation():
    with pytest.raises(ValueError):
        bloom_params(0)
    with pytest.raises(ValueError):
        bloom_params(100, fpp=1.5)
    with pytest.raises(ValueError):
        BloomFilter(1000, 4)  # not a power of two
    with pytest.raises(ValueError):
        BloomFilter(1 << 10, 0)
    m_bits, k = bloom_params(1000)
    with pytest.raises(ValueError):
        BloomFilter(m_bits, k).merge(BloomFilter(m_bits * 2, k))


def test_distributed_build_is_block_layout_invariant():
    keys = _keys(30_000, 5)
    m_bits, k = bloom_params(len(keys), fpp=0.01)
    direct = BloomFilter(m_bits, k)
    direct.add(keys)
    for parts in (1, 3, 17):
        ds = rd.from_arrow(pa.table({"h": pa.array(keys, pa.int64())})).repartition(parts)
        built = bloom_from_keyed(ds, "h", m_bits, k)
        assert np.array_equal(direct.words, built.words), parts


def test_contamination_stats_bloom_arm_equals_exact_arms():
    want = _brute(CORPUS, EVAL, 5)
    got = (
        contamination_stats(
            _ds(CORPUS), _ds(EVAL), shingle_words=5, strategy="bloom",
            num_buckets=4,
        )
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    pd.testing.assert_frame_equal(got[want.columns], want, check_dtype=False)


def test_decontaminate_bloom_arm_equals_exact_arms():
    exact = (
        decontaminate(_ds(CORPUS), _ds(EVAL), shingle_words=5, num_buckets=4)
        .to_pandas().sort_values("doc_id", ignore_index=True)
    )
    got = (
        decontaminate(_ds(CORPUS), _ds(EVAL), shingle_words=5, strategy="bloom",
                      num_buckets=4)
        .to_pandas().sort_values("doc_id", ignore_index=True)
    )
    pd.testing.assert_frame_equal(got, exact, check_dtype=False)


def test_bloom_arm_exact_on_wide_synthetic_corpus():
    """A corpus big enough that bloom false positives are likely to occur
    somewhere: the exact verification pass must still produce the same
    answer as the exact arms (FPs cost work, never correctness)."""
    rng = np.random.default_rng(11)
    vocab = [f"w{i}" for i in range(200)]
    corpus = {
        i: " ".join(rng.choice(vocab, size=12)) for i in range(400)
    }
    ev = {1000 + i: corpus[i * 7] for i in range(20)}  # 20 exact hits
    want = _brute(corpus, ev, 5)
    got = (
        contamination_stats(
            _ds(corpus), _ds(ev), shingle_words=5, strategy="bloom",
            num_buckets=4, bloom_fpp=0.2,  # deliberately sloppy filter
        )
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    pd.testing.assert_frame_equal(got[want.columns], want, check_dtype=False)
