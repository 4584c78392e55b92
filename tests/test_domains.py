"""Host/domain-level statistics and filtering (stages/domains)."""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from ertransfer_ray.stages import joins
from ertransfer_ray.stages.domains import host_filter, host_stats, with_host


def _corpus():
    rows = [
        # host a.example: 3 docs (dominates: 3/8 > max_share 0.3)
        ("HTTPS://WWW.A.Example/p0", "one two three"),
        ("https://a.example/p1?utm_source=x", "four five"),
        ("https://a.example/p2", ""),
        # host b.example: 2 docs
        ("https://B.example:443/q", "alpha beta gamma delta"),
        ("https://b.example/r", "epsilon"),
        # host c.example: 2 docs (blocklisted)
        ("https://c.example/1", "x y"),
        ("https://c.example/2", "z"),
        # singleton host: dropped by min_docs=2
        ("https://solo.example/only", "lonely page"),
    ]
    return rd.from_pandas(
        pd.DataFrame(
            {
                "doc_id": range(len(rows)),
                "url": [r[0] for r in rows],
                "text": [r[1] for r in rows],
            }
        )
    )


def test_with_host_normalizes_and_extracts():
    out = with_host(_corpus()).to_pandas().sort_values("doc_id")
    assert out["host"].tolist() == [
        "a.example", "a.example", "a.example",
        "b.example", "b.example",
        "c.example", "c.example",
        "solo.example",
    ]


def test_host_stats_values():
    got = (
        host_stats(_corpus())
        .to_pandas()
        .sort_values("host", ignore_index=True)
    )
    exp = pd.DataFrame(
        {
            "host": ["a.example", "b.example", "c.example", "solo.example"],
            "n_docs": [3, 2, 2, 1],
            "total_tokens": [5, 5, 3, 2],
            "mean_tokens": [5 / 3, 2.5, 1.5, 2.0],
        }
    )
    pd.testing.assert_frame_equal(
        got[["host", "n_docs", "total_tokens", "mean_tokens"]].astype(
            {"n_docs": "int64", "total_tokens": "int64"}
        ),
        exp,
        check_dtype=False,
    )


@pytest.mark.parametrize("strategy", ["broadcast", "join"])
def test_host_filter_semantics_arms_equal(strategy, monkeypatch):
    if strategy == "join":  # a key-set limit of 0 forces the exchange arm
        monkeypatch.setattr(joins, "KEY_SET_LIMIT", 0)
    out = (
        host_filter(
            _corpus(),
            blocklist=("c.example",),
            min_docs=2,
            max_share=0.4,
        )
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    # c.example blocked; solo below min_docs; a.example holds 3 of the 6
    # post-blocklist docs (0.5 > 0.4) -> capped; only b.example survives
    assert out["doc_id"].tolist() == [3, 4]
    assert set(out["host"]) == {"b.example"}
    assert set(out.columns) >= {"doc_id", "url", "text", "host"}


def test_host_filter_share_is_post_blocklist():
    # without the blocklist, a.example is 3/8 = 0.375 <= 0.4 and survives;
    # with c.example blocked the total drops to 6 and 3/6 = 0.5 > 0.4
    kept_all = host_filter(_corpus(), max_share=0.4).to_pandas()
    assert "a.example" in set(kept_all["host"])
    kept_post = host_filter(
        _corpus(), blocklist=("c.example",), max_share=0.4
    ).to_pandas()
    assert "a.example" not in set(kept_post["host"])


def test_host_filter_no_thresholds_keeps_all():
    out = host_filter(_corpus()).to_pandas()
    assert len(out) == 8 and "host" in out.columns


def test_host_filter_empty_corpus():
    empty = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "url": pa.array([], pa.string()),
                "text": pa.array([], pa.string()),
            }
        )
    )
    out = host_filter(empty, min_docs=2).to_pandas()
    assert len(out) == 0
