"""counted_key_survivors (the shared compact count pass) + empty-input
robustness of the stages that consume it."""

import pandas as pd
import pytest
import ray.data as rd

from ertransfer_ray.stages import joins
from ertransfer_ray.stages.dedup import ngram_jaccard_pairs
from ertransfer_ray.stages.groupby import counted_key_survivors, exchange_group_apply


def _keys(df):
    return rd.from_pandas(df).materialize()


def test_band_bounds():
    d = _keys(pd.DataFrame({"k": [1, 1, 2, 2, 2, 3, 4, 4, 4, 4]}))
    s = counted_key_survivors(d, "k", 4, min_count=2, max_count=3)
    assert sorted(s.to_pylist()) == [1, 2]


def test_default_lower_bound_only():
    d = _keys(pd.DataFrame({"k": [1, 1, 2, 2, 2, 3, 4, 4, 4, 4]}))
    s = counted_key_survivors(d, "k", 4)
    assert sorted(s.to_pylist()) == [1, 2, 4]


def test_cap_exceeded_returns_none(monkeypatch):
    # three int64 survivors are 24 bytes: past a 16-byte key-set limit
    d = _keys(pd.DataFrame({"k": [1, 1, 2, 2, 2, 3, 4, 4, 4, 4]}))
    monkeypatch.setattr(joins, "KEY_SET_LIMIT", 24)
    assert counted_key_survivors(d, "k", 4) is not None
    monkeypatch.setattr(joins, "KEY_SET_LIMIT", 16)
    assert counted_key_survivors(d, "k", 4) is None


def test_string_keys():
    d = _keys(pd.DataFrame({"k": ["a", "b", "a", "c", "b", "a"]}))
    s = counted_key_survivors(d, "k", 2)
    assert sorted(s.to_pylist()) == ["a", "b"]


def test_empty_input():
    d = _keys(pd.DataFrame({"k": pd.Series([], dtype="int64")}))
    s = counted_key_survivors(d, "k", 4)
    assert len(s) == 0


def test_exchange_group_apply_empty_schemaless_input():
    # a map over an empty dataset yields one empty block with NO columns;
    # the exchange must short-circuit instead of handing fn a column-less df
    empty = rd.from_pandas(
        pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                      "text": pd.Series([], dtype="object")})
    )
    mapped = empty.map_batches(
        lambda df: pd.DataFrame({"k": df["doc_id"], "v": df["doc_id"]}),
        batch_format="pandas",
    ).materialize()
    out = exchange_group_apply(mapped, "k", lambda g: g, num_buckets=4)
    assert out.count() == 0


def test_ngram_pairs_empty_corpus():
    empty = rd.from_pandas(
        pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                      "text": pd.Series([], dtype="object")})
    ).materialize()
    assert ngram_jaccard_pairs(empty, jaccard_threshold=0.5).count() == 0
