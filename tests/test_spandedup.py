"""Substring/sliding-window span dedup (stages/spandedup)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from ertransfer_ray.stages import joins
from ertransfer_ray.stages.spandedup import drop_duplicate_spans, window_dup_stats

K = 3


def _corpus():
    rows = [
        # doc 0: source of the repeated passage "alpha beta gamma delta"
        (0, "alpha beta gamma delta unique0 tail0"),
        # doc 1: repeats the passage mid-text -> those 4 tokens removed
        (1, "lead1 alpha beta gamma delta coda1 x1"),
        # doc 2: intra-doc repeat "p q r ... p q r" -> second occurrence removed
        (2, "p q r sep2 p q r"),
        # doc 3: shorter than k -> no windows, unchanged
        (3, "tiny doc"),
        # doc 4: fully unique
        (4, "u4 v4 w4 y4"),
    ]
    return rd.from_pandas(
        pd.DataFrame({"doc_id": [r[0] for r in rows], "text": [r[1] for r in rows]})
    )


def _brute(rows: dict[int, str], k: int):
    """Reference implementation: global first of each duplicated window
    survives; tokens covered by any other duplicated occurrence drop."""
    wins: dict[str, list[tuple[int, int]]] = {}
    toks = {d: t.split(" ") for d, t in rows.items()}
    for d in sorted(toks):
        w = toks[d]
        for i in range(max(len(w) - k + 1, 0)):
            wins.setdefault(" ".join(w[i : i + k]), []).append((d, i))
    drops = [occ for v in wins.values() if len(v) > 1 for occ in sorted(v)[1:]]
    covered = {d: np.zeros(len(w), bool) for d, w in toks.items()}
    for d, i in drops:
        covered[d][i : i + k] = True
    return {
        d: " ".join(np.array(toks[d], object)[~covered[d]]) for d in toks
    }, wins


@pytest.mark.parametrize("fingerprint", [True, False])
def test_rewrite_matches_bruteforce(fingerprint):
    rows = dict(
        zip(
            _corpus().to_pandas()["doc_id"],
            _corpus().to_pandas()["text"],
        )
    )
    expected, _ = _brute(rows, K)
    out = (
        drop_duplicate_spans(_corpus(), k=K, fingerprint=fingerprint)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    assert dict(zip(out["doc_id"], out["clean_text"])) == expected
    # spot-check the headline semantics
    assert expected[0] == rows[0]  # first occurrence keeps the passage
    assert "alpha" not in expected[1] and "lead1" in expected[1]
    assert expected[2].split(" ").count("p") == 1  # intra-doc repeat gone
    assert expected[3] == rows[3]  # < k words untouched


def test_broadcast_and_join_arms_equal(monkeypatch):
    a = (
        drop_duplicate_spans(_corpus(), k=K)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    monkeypatch.setattr(joins, "PAYLOAD_LIMIT", 0)  # force the exchange arm
    b = (
        drop_duplicate_spans(_corpus(), k=K)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    pd.testing.assert_frame_equal(a, b)


@pytest.mark.parametrize("fingerprint", [True, False])
def test_stats_match_bruteforce(fingerprint):
    df = _corpus().to_pandas()
    rows = dict(zip(df["doc_id"], df["text"]))
    _, wins = _brute(rows, K)
    dup = {w for w, v in wins.items() if len(v) > 1}
    exp = {}
    for d, t in rows.items():
        w = t.split(" ")
        n = max(len(w) - K + 1, 0)
        if n == 0:
            continue
        dups = sum(
            1 for i in range(n) if " ".join(w[i : i + K]) in dup
        )
        exp[d] = (n, dups)
    got = (
        window_dup_stats(_corpus(), k=K, fingerprint=fingerprint)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    assert {
        int(r.doc_id): (int(r.n_windows), int(r.dup_windows))
        for r in got.itertuples()
    } == exp
    assert np.allclose(got["dup_frac"], got["dup_windows"] / got["n_windows"])


def test_empty_corpus_typed():
    import pyarrow as pa

    empty = rd.from_arrow(
        pa.table(
            {"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())}
        )
    )
    ds = drop_duplicate_spans(empty, k=K)
    # the schema pin keeps the Dataset typed even with zero rows (pandas
    # drops columns in the all-empty union concat, as with segdedup)
    assert set(ds.schema().names) >= {"doc_id", "clean_text"}
    assert len(ds.to_pandas()) == 0


def test_long_repeated_passage_removed_in_full():
    # a 6-token passage shared by two docs: doc 11 loses all 6 tokens
    # (union of its 4 duplicated k=3 windows), not just one window
    passage = "s1 s2 s3 s4 s5 s6"
    ds = rd.from_pandas(
        pd.DataFrame(
            {
                "doc_id": [10, 11],
                "text": [f"{passage} own10", f"pre11 {passage} post11"],
            }
        )
    )
    out = drop_duplicate_spans(ds, k=K).to_pandas().sort_values("doc_id")
    assert out["clean_text"].tolist() == [f"{passage} own10", "pre11 post11"]
