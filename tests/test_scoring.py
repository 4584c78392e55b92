import re
import tracemalloc

import numpy as np
import pandas as pd
import pytest
import ray.data as rd
from hypothesis import given, settings
from hypothesis import strategies as st

from ertransfer_ray.functions.simfuncs import jaccard, jaro_winkler, qgrams
from ertransfer_ray.stages.scoring import (
    DEFAULT_WEIGHTS,
    DOCUMENTS_WEIGHTS,
    FEATURE_COLUMNS,
    PairScorer,
    compute_pair_features,
    matcher_metrics,
    score_pairs,
)


def _pair_df():
    return pd.DataFrame(
        {
            "left_url": ["a", "b"],
            "right_url": ["x", "y"],
            "left_title": ["quick brown fox", "alpha beta"],
            "right_title": ["quick brown fox", "gamma delta"],
            "left_payload": ["quick brown fox jumps high", "alpha beta words here now"],
            "right_payload": ["quick brown fox jumps high", "totally different content okay"],
        }
    )


def test_features_separate_dup_from_nondup():
    f = compute_pair_features(_pair_df())
    assert f["text_jaccard"][0] == 1.0 and f["title_jw"][0] == 1.0
    assert f["text_jaccard"][1] < 0.2 and f["title_jw"][1] < 0.8


def test_scorer_probability_separation():
    out = PairScorer()(_pair_df())
    assert out["prob"][0] > 0.95
    assert out["prob"][1] < 0.05
    assert list(out.columns) == ["left_url", "right_url", "prob"]


def test_scorer_actor_pool_in_dataset():
    ds = rd.from_pandas(_pair_df())
    out = score_pairs(ds, concurrency=2, batch_size=1).to_pandas()
    assert len(out) == 2
    assert set(out.columns) == {"left_url", "right_url", "prob"}


def test_matcher_metrics_guards():
    preds = pd.DataFrame(
        {"left_url": ["a"], "right_url": ["b"], "prob": [0.9]}
    )
    m = matcher_metrics(preds, truth_pos={("a", "b")})
    assert m["f1"] == 1.0
    # zero predictions → zero metrics, no division error (reference guard)
    m0 = matcher_metrics(preds[preds.prob > 2], truth_pos={("a", "b")})
    assert m0 == {"tp": 0, "predicted": 0, "truth": 1,
                  "precision": 0.0, "recall": 0.0, "f1": 0.0}


def _reference_features(lp: str, rp: str, lt: str, rt: str) -> dict:
    """The six features of one pair, composed from the scalar kernels."""

    def shingles(ws):
        if len(ws) <= 3:
            return [" ".join(ws)] if ws else []
        return [" ".join(ws[i : i + 3]) for i in range(len(ws) - 2)]

    lw, rw = lp.split(), rp.split()
    longest = max(len(lp), len(rp))
    return {
        "text_jaccard": jaccard(lw, rw),
        "text_shingle_jaccard": jaccard(shingles(lw), shingles(rw)),
        "title_qgram_jaccard": jaccard(qgrams(lt, 3), qgrams(rt, 3)),
        "title_jw": jaro_winkler(lt, rt),
        "len_ratio": min(len(lp), len(rp)) / longest if longest else 1.0,
        "title_num_jaccard": jaccard(re.findall(r"\d+", lt), re.findall(r"\d+", rt)),
    }


def _frame(rows) -> pd.DataFrame:
    df = pd.DataFrame(rows, columns=["left_payload", "right_payload", "left_title", "right_title"])
    df["left_url"] = [f"l{i}" for i in range(len(df))]
    df["right_url"] = [f"r{i}" for i in range(len(df))]
    return df


def _assert_bit_identical(df: pd.DataFrame, needed) -> None:
    got = compute_pair_features(df, needed)
    rows = list(zip(df.left_payload, df.right_payload, df.left_title, df.right_title))
    ref = {row: _reference_features(*row) for row in set(rows)}
    for name in FEATURE_COLUMNS:
        if needed is None or name in needed:
            want = np.array([ref[row][name] for row in rows])
        else:
            want = np.zeros(len(df))
        assert got[name].to_numpy().view(np.int64).tolist() == want.view(np.int64).tolist(), name


_NEEDED = {
    "default": {f for f in FEATURE_COLUMNS if DEFAULT_WEIGHTS[f] != 0.0},
    "documents": {f for f in FEATURE_COLUMNS if DOCUMENTS_WEIGHTS[f] != 0.0},
    "all": None,
}
# spaces, a tab and U+00A0 split words; digits make digit runs; é ß 中 are
# multi-byte in UTF-8 and one code point each
_TEXT = st.text(alphabet="ab1 2\t\u00a0é ß中x", max_size=25)


@st.composite
def _pair_batches(draw):
    pool = draw(st.lists(_TEXT, min_size=1, max_size=6))
    pick = st.sampled_from(pool) | _TEXT | st.text(alphabet="ab1é", min_size=1, max_size=3)
    rows = draw(st.lists(st.tuples(pick, pick, pick, pick), min_size=1, max_size=40))
    return _frame(rows)


@pytest.mark.parametrize("weights", sorted(_NEEDED))
@settings(max_examples=150, deadline=None)
@given(df=_pair_batches())
def test_batch_features_equal_scalar_bit_for_bit(weights, df):
    _assert_bit_identical(df, _NEEDED[weights])


def test_long_title_in_full_batch_matches_scalar_in_bounded_memory():
    """A 20,000-character title in a 2,048-pair batch: the Jaro-Winkler
    slices keep the padded matrices to the long title's own rows (one
    2,048 x 20,000 int32 matrix alone would be 164 MB)."""
    rng = np.random.default_rng(0)
    long = "".join(rng.choice(list("abcde 12"), 20_000))
    shorts = ["".join(rng.choice(list("abcde 12"), 19)) for _ in range(40)]
    titles = [(long, shorts[0]), (shorts[1], long), (long, long), (long, long[:60])]
    titles += [(shorts[i % 40], shorts[(7 * i + 3) % 40]) for i in range(2048 - len(titles))]
    df = _frame([("p q r", "p q s", lt, rt) for lt, rt in titles])
    tracemalloc.start()
    try:
        got = compute_pair_features(df, _NEEDED["default"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak
    ref = {t: jaro_winkler(*t) for t in set(titles)}
    want = np.array([ref[t] for t in titles]).view(np.int64).tolist()
    assert got["title_jw"].to_numpy().view(np.int64).tolist() == want
    _assert_bit_identical(df.iloc[:8], _NEEDED["default"])
