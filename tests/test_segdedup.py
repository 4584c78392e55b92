"""Segment-level (line-level) dedup: stats + rewrite vs a brute-force
reference, arm agreement (fingerprint on/off, broadcast vs join), and the
short-doc / within-doc-repeat / empty edges."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from ertransfer_ray.stages import joins
from ertransfer_ray.stages.segdedup import (
    drop_duplicate_segments,
    segment_dup_stats,
)


def _brute(texts: dict[int, str], k: int):
    """(stats df, clean df) computed row-at-a-time in plain Python."""
    segs = []  # (doc_id, seg_no, seg)
    for did in sorted(texts):
        ws = texts[did].split(" ")
        for j in range(len(ws) // k):
            segs.append((did, j, " ".join(ws[j * k : (j + 1) * k])))
    counts: dict[str, int] = {}
    for _, _, s in segs:
        counts[s] = counts.get(s, 0) + 1
    stats = {}
    for did, _, s in segs:
        n, d = stats.get(did, (0, 0))
        stats[did] = (n + 1, d + (1 if counts[s] > 1 else 0))
    stats_df = pd.DataFrame(
        [
            {"doc_id": did, "n_segs": n, "dup_segs": d, "dup_frac": d / n}
            for did, (n, d) in sorted(stats.items())
        ]
    )
    first: dict[str, tuple] = {}
    for did, j, s in sorted(segs):
        first.setdefault(s, (did, j))
    clean_rows = []
    for did in sorted(texts):
        ws = texts[did].split(" ")
        kept: list[str] = []
        for j in range(len(ws) // k):
            s = " ".join(ws[j * k : (j + 1) * k])
            if counts[s] == 1 or first[s] == (did, j):
                kept.extend(ws[j * k : (j + 1) * k])
        kept.extend(ws[(len(ws) // k) * k :])
        clean_rows.append({"doc_id": did, "clean_text": " ".join(kept)})
    return stats_df, pd.DataFrame(clean_rows)


def _corpus() -> dict[int, str]:
    return {
        1: "a b c d e f g h i j tail1 tail2",   # seg0 dup x3, seg1 dup x2
        2: "a b c d e x y z w v",                # seg0 dup, seg1 unique
        3: "a b c d e f g h i j",                # both segs dup
        4: "p q r s t p q r s t leftover",       # WITHIN-doc repeat: seg1 dropped
        5: "short doc only",                      # < k words: no segments
        6: "m n o u w",                           # unique single segment
    }


def _ds(texts: dict[int, str]):
    return rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(sorted(texts), pa.int64()),
                "text": pa.array([texts[d] for d in sorted(texts)], pa.string()),
            }
        )
    ).repartition(3)


def test_segment_dup_stats_matches_bruteforce_both_fingerprint_arms():
    texts = _corpus()
    want, _ = _brute(texts, 5)
    for fp in (True, False):
        got = (
            segment_dup_stats(_ds(texts), k=5, fingerprint=fp, num_buckets=4)
            .to_pandas()
            .sort_values("doc_id", ignore_index=True)
        )
        # doc 5 has no full segment → no row (the SQL GROUP BY contract)
        assert list(got["doc_id"]) == [1, 2, 3, 4, 6]
        pd.testing.assert_frame_equal(
            got[want.columns], want, check_dtype=False, atol=1e-12
        )


def test_drop_duplicate_segments_matches_bruteforce_all_strategies(monkeypatch):
    texts = _corpus()
    _, want = _brute(texts, 5)
    for arm in ("broadcast", "exchange"):
        if arm == "exchange":  # a payload limit of 0 forces the exchange arm
            monkeypatch.setattr(joins, "PAYLOAD_LIMIT", 0)
        got = (
            drop_duplicate_segments(_ds(texts), k=5, num_buckets=4)
            .to_pandas()
            .sort_values("doc_id", ignore_index=True)
        )
        assert list(got["doc_id"]) == sorted(texts), arm
        pd.testing.assert_frame_equal(got, want, check_dtype=False), arm


def test_within_doc_repeat_keeps_first_occurrence():
    texts = {4: "p q r s t p q r s t leftover"}
    got = drop_duplicate_segments(_ds(texts), k=5).to_pandas()
    assert got.loc[0, "clean_text"] == "p q r s t leftover"
    stats = segment_dup_stats(_ds(texts), k=5).to_pandas()
    assert int(stats.loc[0, "n_segs"]) == 2
    assert int(stats.loc[0, "dup_segs"]) == 2  # both occurrences are dups


def test_short_and_empty_docs_survive_rewrite_unchanged():
    texts = {7: "one two", 8: ""}
    got = (
        drop_duplicate_segments(_ds(texts), k=5)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    assert list(got["clean_text"]) == ["one two", ""]


def test_empty_corpus_keeps_output_schema():
    empty = rd.from_arrow(
        pa.table({"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())})
    )
    stats = segment_dup_stats(empty, k=5).to_pandas()
    assert len(stats) == 0
    got = drop_duplicate_segments(empty, k=5)
    # Ray 2.49 to_pandas() drops the schema of a fully-empty dataset; the
    # Dataset-level schema is the downstream contract and must survive
    assert set(got.schema().names) == {"doc_id", "clean_text"}
    assert len(got.to_pandas()) == 0


def test_segment_shuffle_is_id_only_when_fingerprinted():
    """The big exchange must carry (doc_id, seg_hash) — 16 B/row — not text."""
    from ertransfer_ray.stages.segdedup import _segment_rows

    t = pa.table(
        {"doc_id": pa.array([1, 2], pa.int64()),
         "text": pa.array(["a b c d e f", "g h i j k"], pa.string())}
    )
    out = _segment_rows(t, "doc_id", "text", 5, True, False)
    assert set(out.column_names) == {"doc_id", "seg_hash"}
    assert out.column("seg_hash").type == pa.int64()
    assert out.num_rows == 2
