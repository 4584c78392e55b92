"""latest_capture_per_url: canonical-url collapse, newest-capture pick,
deterministic ties, broadcast ≡ join arm."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from ertransfer_ray.stages import joins
from ertransfer_ray.stages.crawl import latest_capture_per_url


def _corpus() -> pa.Table:
    rows = []
    # three URL variants of one page, increasing ts — canonicalize together
    rows += [
        ("https://site1.example/a", 100, "old"),
        ("HTTPS://WWW.Site1.Example/a?utm_source=x", 200, "mid"),
        ("https://site1.example/a#frag", 300, "new"),
    ]
    # distinct canonical url, single capture
    rows += [("https://site2.example/b", 50, "only")]
    # tie on max ts within one canonical url: smallest RAW url wins
    # ('HTTPS://…' sorts before 'https://…' in ASCII)
    rows += [
        ("https://site3.example/c#x", 400, "tie-z"),
        ("HTTPS://site3.example/c", 400, "tie-a"),
    ]
    # identical (url, ts) duplicates: both kept (indistinguishable)
    rows += [
        ("https://site4.example/d", 10, "dup1"),
        ("https://site4.example/d", 10, "dup2"),
    ]
    urls, ts, texts = zip(*rows)
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(
                np.array(ts, dtype="int64"), pa.timestamp("us")
            ),
            "html": pa.array([t.encode() for t in texts], pa.binary()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * len(urls), pa.string()),
        }
    )


def _run(arm: str) -> pd.DataFrame:
    """The output on the broadcast arm, or on the exchange arm forced by a
    key-set limit of 0."""
    ds = rd.from_arrow(_corpus()).repartition(3)
    with pytest.MonkeyPatch.context() as mp:
        if arm == "exchange":
            mp.setattr(joins, "KEY_SET_LIMIT", 0)
        out = latest_capture_per_url(ds).to_pandas()
    return out.sort_values(["url_norm", "url"], ignore_index=True)


def test_latest_capture_semantics(ray_session):
    out = _run("broadcast")
    assert set(out.url_norm) == {
        "https://site1.example/a",
        "https://site2.example/b",
        "https://site3.example/c",
        "https://site4.example/d",
    }
    # newest capture of the site1 variants survives
    s1 = out[out.url_norm == "https://site1.example/a"]
    assert list(s1.text) == ["new"]
    # single capture passes through
    assert list(out[out.url_norm == "https://site2.example/b"].text) == ["only"]
    # ts tie → smallest raw url
    tie = out[out.url_norm == "https://site3.example/c"]
    assert list(tie.text) == ["tie-a"]
    # identical (url, ts) duplicates both retained
    dup = out[out.url_norm == "https://site4.example/d"]
    assert sorted(dup.text) == ["dup1", "dup2"]
    # payload columns intact
    assert set(out.columns) == {"url", "warc_ts", "html", "text", "lang", "url_norm"}


def test_broadcast_join_arms_agree(ray_session):
    a, b = _run("broadcast"), _run("exchange")
    pd.testing.assert_frame_equal(
        a, b[a.columns], check_like=True
    )


def test_run_er_dedup_captures(ray_session):
    """run_er(dedup_captures=True) on a corpus with older duplicate
    captures produces the same clusters as on the capture-free corpus."""
    import pyarrow.parquet as pq

    import ray.data as rd
    from ertransfer_ray.pipelines.er_pipeline import ERConfig, run_er
    from ertransfer_ray.sources.pages import write_pages_corpus

    paths = write_pages_corpus("/tmp/test_crawl_er", num_entities=30, seed=3)
    base = pq.read_table(paths["pages"])
    ts = base.column("warc_ts").to_pandas() - pd.Timedelta(days=10)
    old = base.set_column(
        base.schema.get_field_index("warc_ts"),
        "warc_ts",
        pa.array(ts.astype("datetime64[us]")),
    )
    old = old.set_column(
        old.schema.get_field_index("url"),
        "url",
        pa.compute.binary_join_element_wise(
            old.column("url").combine_chunks(), "#old", ""
        ),
    )
    cfg = ERConfig(num_buckets=8)

    def clusters(tbl):
        res = run_er(rd.from_arrow(tbl), cfg, dedup_captures=True)
        df = res["clusters"].to_pandas()
        return df.sort_values("url", ignore_index=True)

    with_dups = clusters(pa.concat_tables([base, old]))
    without = clusters(base)
    pd.testing.assert_frame_equal(with_dups, without)
