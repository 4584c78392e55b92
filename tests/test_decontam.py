"""Eval-set decontamination: brute-force parity, broadcast vs join arm
agreement, and the short-doc / no-overlap / full-overlap edges."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from ertransfer_ray.stages import decontam, joins
from ertransfer_ray.stages.decontam import contamination_stats, decontaminate


def _shingles(txt: str, k: int) -> set:
    ws = txt.lower().split()
    if not ws:
        return set()
    if len(ws) <= k:
        return {" ".join(ws)}
    return {" ".join(ws[j : j + k]) for j in range(len(ws) - k + 1)}


def _brute(corpus: dict[int, str], ev: dict[int, str], k: int) -> pd.DataFrame:
    ev_set = set().union(*(_shingles(t, k) for t in ev.values())) if ev else set()
    rows = []
    for did in sorted(corpus):
        sh = _shingles(corpus[did], k)
        if not sh:
            continue
        hits = len(sh & ev_set)
        rows.append(
            {"doc_id": did, "n_shingles": len(sh), "n_hits": hits,
             "contaminated": hits > 0}
        )
    return pd.DataFrame(rows)


def _ds(texts: dict[int, str]):
    return rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(sorted(texts), pa.int64()),
                "text": pa.array([texts[d] for d in sorted(texts)], pa.string()),
            }
        )
    ).repartition(3)


CORPUS = {
    1: "the quick brown fox jumps over the lazy dog",
    2: "completely novel material with no overlap anywhere here",
    3: "short doc",                       # <= k words: whole-string shingle
    4: "benchmark question one about the quick brown fox jumps",
    5: "",                                # no shingles: no stats row, survives
}
EVAL = {
    100: "the quick brown fox jumps high today",
    101: "short doc",                     # exact short-doc collision
}


def test_contamination_stats_matches_bruteforce_both_arms(monkeypatch):
    want = _brute(CORPUS, EVAL, 5)
    for arm in ("broadcast", "exchange"):
        if arm == "exchange":  # a payload limit of 0 forces the exchange arm
            monkeypatch.setattr(joins, "PAYLOAD_LIMIT", 0)
        got = (
            contamination_stats(
                _ds(CORPUS), _ds(EVAL), shingle_words=5, num_buckets=4,
            )
            .to_pandas()
            .sort_values("doc_id", ignore_index=True)
        )
        pd.testing.assert_frame_equal(
            got[want.columns], want, check_dtype=False
        ), arm


def test_decontaminate_removes_exactly_the_contaminated_docs(monkeypatch):
    want_bad = set(
        _brute(CORPUS, EVAL, 5).query("contaminated")["doc_id"]
    )
    assert want_bad == {1, 3, 4}  # fixture sanity: fox 5-gram + short-doc hit
    for arm in ("broadcast", "exchange"):
        if arm == "exchange":
            monkeypatch.setattr(joins, "PAYLOAD_LIMIT", 0)
        got = (
            decontaminate(_ds(CORPUS), _ds(EVAL), shingle_words=5, num_buckets=4)
            .to_pandas()
            .sort_values("doc_id", ignore_index=True)
        )
        assert list(got["doc_id"]) == [2, 5], arm
        # all corpus columns survive the filter
        assert set(got.columns) == {"doc_id", "text"}, arm


def test_empty_eval_set_keeps_everything():
    empty = rd.from_arrow(
        pa.table({"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())})
    )
    got = decontaminate(_ds(CORPUS), empty, shingle_words=5)
    assert len(got.to_pandas()) == len(CORPUS)
    stats = contamination_stats(_ds(CORPUS), empty, shingle_words=5).to_pandas()
    assert int(stats["n_hits"].sum()) == 0
    assert not stats["contaminated"].any()


def test_full_overlap_eval_removes_all(monkeypatch):
    monkeypatch.setattr(joins, "PAYLOAD_LIMIT", 0)  # the exchange arm
    got = decontaminate(
        _ds(CORPUS), _ds(CORPUS), shingle_words=5, num_buckets=4
    ).to_pandas()
    # every doc with >=1 shingle collides with itself; only the empty doc stays
    assert list(got["doc_id"]) == [5]


def test_contaminated_ids_past_the_key_set_gate_take_the_anti_join(monkeypatch):
    """With eval = corpus the contaminated-id set is the whole corpus. Past
    the key-set gate (limit 0) it is not collected to the driver: the
    bucketed anti-join removes those docs, and the output equals the
    broadcast arm's."""
    want = (
        decontaminate(_ds(CORPUS), _ds(CORPUS), shingle_words=5)
        .to_pandas().sort_values("doc_id", ignore_index=True)
    )
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[2])
        return joins.bucketed_anti_semi_join(*args, **kwargs)

    monkeypatch.setattr(decontam, "bucketed_anti_semi_join", spy)
    monkeypatch.setattr(joins, "PAYLOAD_LIMIT", 0)
    monkeypatch.setattr(joins, "KEY_SET_LIMIT", 0)
    got = (
        decontaminate(_ds(CORPUS), _ds(CORPUS), shingle_words=5, num_buckets=4)
        .to_pandas().sort_values("doc_id", ignore_index=True)
    )
    assert calls == ["doc_id"]
    assert list(want["doc_id"]) == [5]
    pd.testing.assert_frame_equal(got[want.columns], want, check_dtype=False)
