"""TF-IDF top-term operator: hand-computed oracle + arm agreement."""

import math

import numpy as np
import pandas as pd
import ray.data as rd

from ertransfer_ray.stages import joins
from ertransfer_ray.stages.tfidf import top_tfidf_terms


def _docs():
    return rd.from_pandas(
        pd.DataFrame(
            {
                "doc_id": [1, 2, 3, 4],
                "text": [
                    "apple apple banana",     # apple tf=2
                    "banana cherry",
                    "cherry cherry cherry",   # cherry tf=3
                    "apple banana cherry",
                ],
            }
        )
    )


def test_top_tfidf_hand_computed():
    out = (
        top_tfidf_terms(_docs(), k=1)
        .to_pandas().sort_values("doc_id", ignore_index=True)
    )
    # df: apple 2, banana 3, cherry 3; N = 4
    idf = {t: math.log(4 / d) for t, d in
           {"apple": 2, "banana": 3, "cherry": 3}.items()}
    assert out["term"].tolist() == ["apple", "banana", "cherry", "apple"]
    want = [2 * idf["apple"], 1 * idf["banana"], 3 * idf["cherry"],
            1 * idf["apple"]]
    np.testing.assert_allclose(out["tfidf"].to_numpy(), want, rtol=1e-12)
    # doc 2 tie (banana vs cherry, equal tf and df) broken by term asc
    # doc 4 tie (all tf=1; apple has the higher idf) → apple


def test_top_tfidf_join_arm_agrees(monkeypatch):
    want = (
        top_tfidf_terms(_docs(), k=2)
        .to_pandas().sort_values(["doc_id", "term"], ignore_index=True)
    )
    monkeypatch.setattr(joins, "PAYLOAD_LIMIT", 0)
    got = (
        top_tfidf_terms(_docs(), k=2)
        .to_pandas().sort_values(["doc_id", "term"], ignore_index=True)
    )
    pd.testing.assert_frame_equal(
        got[want.columns].astype(want.dtypes.to_dict()), want
    )


def test_top_tfidf_empty_corpus():
    empty = rd.from_pandas(
        pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                      "text": pd.Series([], dtype=object)})
    )
    out = top_tfidf_terms(empty, k=1).to_pandas()
    assert len(out) == 0
