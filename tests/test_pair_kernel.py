"""functions.arrays.group_pair_index against the per-group Python loops it
replaced, and the three bucket emitters built on it against their old
loop bodies: same pairs, same order, same truncation flags."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from ertransfer_ray.functions.arrays import group_pair_index
from ertransfer_ray.stages.blocking import _pairs_in_bucket
from ertransfer_ray.stages.dedup import _candidate_pairs_in_bucket, _shingle_pairs_in_bucket

CAP = 6


def loop_pair_index(keys, max_block_size, window=None):
    """Reference: one numpy block per group, as the emitters used to build."""
    keys = np.asarray(keys)
    out_i, out_j, out_t = [], [], []
    start = 0
    while start < len(keys):
        n = next((k for k in range(1, len(keys) - start) if keys[start + k] != keys[start]),
                 len(keys) - start)
        truncated = n > max_block_size
        if window is None:
            ii, jj = np.triu_indices(min(n, max_block_size), k=1)
        elif truncated:
            base = np.arange(n - 1)
            ii = np.repeat(base, window)
            jj = ii + np.tile(np.arange(1, window + 1), n - 1)
            keep = jj < n
            ii, jj = ii[keep], jj[keep]
        else:
            ii, jj = np.triu_indices(n, k=1)
        out_i.append(ii + start)
        out_j.append(jj + start)
        out_t.append(np.full(len(ii), truncated))
        start += n
    if not out_i:
        return np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, bool)
    return np.concatenate(out_i), np.concatenate(out_j), np.concatenate(out_t)


def old_pairs_in_bucket(df, max_block_size, window):
    """blocking._pairs_in_bucket before the kernel."""
    df = df[df.duplicated("block_key", keep=False)]
    frames = []
    df = df.sort_values(["block_key", "url"])
    for _, g in df.groupby("block_key", sort=False):
        g = g.drop_duplicates("url")
        n = len(g)
        if n < 2:
            continue
        urls = g["url"].to_numpy()
        truncated = n > max_block_size
        if truncated:
            base = np.arange(n - 1)
            ii = np.repeat(base, window)
            jj = ii + np.tile(np.arange(1, window + 1), n - 1)
            keep = jj < n
            ii, jj = ii[keep], jj[keep]
        else:
            ii, jj = np.triu_indices(n, k=1)
        frames.append(pd.DataFrame({
            "left_url": urls[ii], "right_url": urls[jj],
            "truncated": np.full(len(ii), 1 if truncated else 0, dtype=np.int8),
        }))
    if not frames:
        return pd.DataFrame({"left_url": pd.Series([], dtype=object),
                             "right_url": pd.Series([], dtype=object),
                             "truncated": pd.Series([], dtype=np.int8)})
    return pd.concat(frames, ignore_index=True)


def old_id_pairs(df, key, id_col, max_block_size, max_doc_freq=None):
    """dedup._candidate_pairs_in_bucket (head cap) and ngram_jaccard_pairs'
    pairs_under_cap (``max_doc_freq``: skip the group) before the kernel."""
    df = df[df.duplicated(key, keep=False)]
    frames = []
    for _, g in df.groupby(key, sort=False):
        g = g.drop_duplicates(id_col).sort_values(id_col)
        if max_doc_freq is None:
            g = g.head(max_block_size)
        n = len(g)
        if n < 2 or (max_doc_freq is not None and n > max_doc_freq):
            continue
        ids = g[id_col].to_numpy()
        ii, jj = np.triu_indices(n, k=1)
        frames.append(pd.DataFrame({"left_id": ids[ii], "right_id": ids[jj]}))
    if not frames:
        return pd.DataFrame({"left_id": pd.Series([], dtype="int64"),
                             "right_id": pd.Series([], dtype="int64")})
    out = pd.concat(frames, ignore_index=True)
    return out.drop_duplicates() if max_doc_freq is not None else out


SIZES = (1, 2, CAP - 1, CAP, CAP + 1, 5 * CAP)


def random_sorted_keys(rng, string_keys: bool):
    sizes = rng.choice(SIZES, size=rng.integers(1, 12))
    raw = rng.choice(10**9, size=len(sizes), replace=False)
    keys = np.repeat(np.sort(raw), sizes)
    return keys.astype(str).astype(object) if string_keys else keys.astype(np.int64)


def random_rows(rng, key_col, id_col, string_keys, string_ids):
    """Unsorted (key, id) rows with the SIZES group sizes and duplicate ids."""
    keys = random_sorted_keys(rng, string_keys)
    ids = rng.integers(0, 40, size=len(keys))
    ids = ids.astype(str).astype(object) if string_ids else ids.astype(np.int64)
    df = pd.DataFrame({key_col: keys, id_col: ids})
    dups = df.sample(n=len(df) // 4, random_state=int(rng.integers(1 << 31)))
    return pd.concat([df, dups]).sample(frac=1, random_state=int(rng.integers(1 << 31)))


def assert_same_index(a, b):
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
        assert x.dtype == y.dtype or len(x) == 0


@pytest.mark.parametrize("string_keys", [False, True])
@pytest.mark.parametrize("window", [None, 1, 3, 5 * CAP])
def test_kernel_equals_per_group_loop(string_keys, window):
    rng = np.random.default_rng((window or 0) * 2 + string_keys)
    for _ in range(40):
        keys = random_sorted_keys(rng, string_keys)
        got = group_pair_index(keys, CAP, window)
        assert_same_index(got, loop_pair_index(keys, CAP, window))
        assert got[0].dtype == np.int64 and got[2].dtype == bool


@pytest.mark.parametrize("window", [None, 2])
def test_kernel_empty_and_all_singleton_input(window):
    for keys in (np.zeros(0, np.int64), np.array([], dtype=object),
                 np.arange(7, dtype=np.int64), np.array(list("abcdefg"), dtype=object)):
        ii, jj, truncated = group_pair_index(keys, CAP, window)
        assert len(ii) == len(jj) == len(truncated) == 0


def test_kernel_group_sizes_at_the_cap():
    """Below, at and one past the cap: all pairs, all pairs, windowed."""
    keys = np.repeat([1, 2, 3], [CAP - 1, CAP, CAP + 1])
    ii, jj, truncated = group_pair_index(keys, CAP, window=2)
    n_all = (CAP - 1) * (CAP - 2) // 2 + CAP * (CAP - 1) // 2
    assert not truncated[:n_all].any() and truncated[n_all:].all()
    assert len(ii) - n_all == 2 * (CAP + 1) - 3  # n-1 + n-2 pairs at window 2
    # head cap: the third group pairs only its first CAP rows
    ii, jj, truncated = group_pair_index(keys, CAP)
    assert len(ii) == n_all + CAP * (CAP - 1) // 2
    assert jj.max() == len(keys) - 2


@pytest.mark.parametrize("string_keys", [False, True])
@pytest.mark.parametrize("cap,window", [(CAP, 2), (CAP, 1), (3, 8), (64, 8)])
def test_pairs_in_bucket_equals_old_loop(string_keys, cap, window):
    rng = np.random.default_rng(cap * 100 + window + string_keys)
    for _ in range(15):
        df = random_rows(rng, "block_key", "url", string_keys, string_ids=True)
        pd.testing.assert_frame_equal(
            _pairs_in_bucket(df, cap, window), old_pairs_in_bucket(df, cap, window)
        )


def sorted_pairs(df):
    return df.sort_values(["left_id", "right_id"], ignore_index=True)


@pytest.mark.parametrize("string_keys", [False, True])
def test_candidate_pairs_in_bucket_equals_old_loop(string_keys):
    rng = np.random.default_rng(11 + string_keys)
    for _ in range(15):
        df = random_rows(rng, "band_key", "doc_id", string_keys, string_ids=False)
        got = _candidate_pairs_in_bucket(df, "band_key", "doc_id", CAP)
        want = old_id_pairs(df, "band_key", "doc_id", CAP)
        # the old loop visited groups in first-appearance order, the kernel
        # in key order: the same rows, and within each group the same order
        pd.testing.assert_frame_equal(sorted_pairs(got), sorted_pairs(want))
        assert len(got) == len(want)


@pytest.mark.parametrize("string_keys", [False, True])
def test_shingle_pairs_skip_groups_over_max_doc_freq(string_keys):
    rng = np.random.default_rng(21 + string_keys)
    for _ in range(15):
        df = random_rows(rng, "shingle", "doc_id", string_keys, string_ids=False)
        got = _shingle_pairs_in_bucket(df, CAP)
        want = old_id_pairs(df, "shingle", "doc_id", CAP, max_doc_freq=CAP)
        pd.testing.assert_frame_equal(sorted_pairs(got), sorted_pairs(want))
    # a shingle held by max_doc_freq + 1 docs pairs none of them
    hot = pd.DataFrame({"shingle": [9] * (CAP + 1) + [4, 4],
                        "doc_id": list(range(CAP + 1)) + [0, 1]})
    assert _shingle_pairs_in_bucket(hot, CAP).values.tolist() == [[0, 1]]


@pytest.mark.parametrize("emit", ["blocking", "candidates", "shingles"])
def test_emitters_on_empty_and_all_singleton_buckets(emit):
    for n in (0, 5):
        keys = np.arange(n, dtype=np.int64)
        if emit == "blocking":
            df = pd.DataFrame({"block_key": keys,
                               "url": pd.Series([f"u{i}" for i in range(n)], dtype=object)})
            got, want = _pairs_in_bucket(df, CAP, 2), old_pairs_in_bucket(df, CAP, 2)
            pd.testing.assert_frame_equal(got, want)
            continue
        key = "band_key" if emit == "candidates" else "shingle"
        df = pd.DataFrame({key: keys, "doc_id": keys})
        got = (_candidate_pairs_in_bucket(df, key, "doc_id", CAP) if emit == "candidates"
               else _shingle_pairs_in_bucket(df, CAP))
        assert list(got.columns) == ["left_id", "right_id"] and got.empty
        assert (got.dtypes == "int64").all()
