"""End-to-end conformance: the BASELINE.json headline metric —
pairwise F1 ≥ 0.99 on labeled pairs of the synthetic corpus."""

import pandas as pd
import pytest
import ray.data as rd

from ertransfer_ray.pipelines.er_pipeline import ERConfig, run_er
from ertransfer_ray.pipelines.metrics import clustering_f1, pairwise_f1, prf1, split_stats


def test_metric_formula_parity():
    # A2 with guard
    assert prf1(0, 0, 5) == {"precision": 0.0, "recall": 0.0, "f1": 0.0}
    m = prf1(3, 4, 6)
    assert abs(m["f1"] - 2 * 0.75 * 0.5 / 1.25) < 1e-12
    # A3: 2·TP/(candidates+GT)
    assert clustering_f1(3, 4, 6) == 0.6
    assert clustering_f1(0, 0, 0) == 0.0
    # A1
    s = split_stats(10, 4, 8)
    assert s == {"num_entries": 10, "num_matches": 4, "precision": 0.4, "recall": 0.5}


def test_end_to_end_pairwise_f1(pages_corpus):
    pages = rd.from_arrow(pages_corpus["pages"])
    res = run_er(pages, ERConfig())
    assign = res["clusters"].to_pandas()
    truth = pages_corpus["truth_pairs"].to_pandas()
    m = pairwise_f1(assign, truth)
    assert m["f1"] >= 0.99, m

    # every url must be assignable (singletons simply absent from edges →
    # treated as their own cluster by pairwise_f1's None handling)
    urls = set(pages_corpus["pages"].column("url").to_pylist())
    assert set(assign["url"]).issubset(urls)


def test_pairwise_f1_hard_corpus():
    """The ≥0.99 criterion on a MUCH harder corpus than the shared fixture:
    6.7× the entities, 0.45 perturbation strength (vs 0.35 — more token
    drops/swaps/case noise/typos per duplicate). Default ERConfig, no
    tuning. Measured 0.9995 here (and 0.9997 at 2000 entities/0.40) —
    the bar holds with margin off the fixture's operating point."""
    from ertransfer_ray.sources.pages import generate_pages

    tabs = generate_pages(
        num_entities=800, max_dups=5, seed=101, perturb_strength=0.45
    )
    res = run_er(rd.from_arrow(tabs["pages"]), ERConfig())
    m = pairwise_f1(res["clusters"].to_pandas(), tabs["truth_pairs"].to_pandas())
    assert m["f1"] >= 0.99, m


def test_pipeline_outputs_are_lazy_datasets(pages_corpus):
    pages = rd.from_arrow(pages_corpus["pages"])
    res = run_er(pages, ERConfig())
    assert set(res) == {"normalized", "pairs", "predictions", "clusters"}
    schema = res["predictions"].schema()
    assert set(schema.names) == {"left_url", "right_url", "prob"}


def test_flagship_identical_under_64_and_128_bit_cc_keys(pages_corpus, monkeypatch):
    """The flagship's cluster assignment is byte-identical whether CC keys
    nodes with one 64-bit word or two (128 bits) — cc_driver_threshold=0
    forces the DISTRIBUTED path both times, and lowering the one-word node
    limit forces the two-word keys."""
    from ertransfer_ray.stages import clustering

    pages = rd.from_arrow(pages_corpus["pages"])
    outs = {}
    for words, limit in ((1, clustering.ONE_WORD_MAX_NODES), (2, 0)):
        monkeypatch.setattr(clustering, "ONE_WORD_MAX_NODES", limit)
        res = run_er(pages, ERConfig(cc_driver_threshold=0))
        outs[words] = (
            res["clusters"].to_pandas()
            .sort_values(["url", "cluster_id"], ignore_index=True)
        )
    pd.testing.assert_frame_equal(outs[1], outs[2])


def test_flagship_identical_at_pinned_and_default_bucket_counts(pages_corpus):
    """``run_er`` clusters are identical whether every exchange runs the
    pinned 16 buckets or the default two per CPU."""
    pages = rd.from_arrow(pages_corpus["pages"])
    outs = [
        run_er(pages, ERConfig(num_buckets=nb))["clusters"].to_pandas()
        .sort_values(["url", "cluster_id"], ignore_index=True)
        for nb in (16, None)
    ]
    assert len(outs[0]) > 0
    pd.testing.assert_frame_equal(outs[0], outs[1])


def _union_find(edges: pd.DataFrame) -> pd.DataFrame:
    """Reference clusters: plain union-find with the smaller root kept, so
    each root is its component's smallest url."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for a, b in zip(edges["left_url"], edges["right_url"]):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    urls = sorted(parent)
    return pd.DataFrame({"url": urls, "cluster_id": [find(u) for u in urls]})


@pytest.fixture(scope="module")
def default_run(pages_corpus):
    res = run_er(rd.from_arrow(pages_corpus["pages"]))
    preds = res["predictions"].to_pandas().sort_values(
        ["left_url", "right_url"], ignore_index=True
    )
    return preds, _union_find(preds[preds["prob"] > ERConfig().theta])


def _one_cpu(monkeypatch):
    from ertransfer_ray.stages import groupby

    monkeypatch.setattr(groupby, "cluster_cpus", lambda: 1)


@pytest.mark.parametrize(
    "setting",
    ["default", "one_cpu", "one_cpu_split", "exchange_arm", "distributed_cc", "three_buckets"],
)
def test_run_er_clusters_equal_reference_union_find(
    pages_corpus, default_run, monkeypatch, setting
):
    """``run_er`` clusters are byte-identical to a reference union-find over
    the edges above ``theta``, and its predictions are the same, on every
    arm: the default plan, one bucket with no split on a one-CPU session,
    the split forced there (``SINGLE_BUCKET_BYTES`` 0), the payload
    exchange arm (``PAYLOAD_LIMIT`` 0), distributed connected components,
    and three pinned buckets. The pairs and predictions schemas are the
    same on each."""
    import pyarrow as pa

    from ertransfer_ray.stages import groupby, joins

    cfg = ERConfig()
    if setting.startswith("one_cpu"):
        _one_cpu(monkeypatch)
    if setting == "one_cpu_split":
        monkeypatch.setattr(groupby, "SINGLE_BUCKET_BYTES", 0)
    if setting == "exchange_arm":
        monkeypatch.setattr(joins, "PAYLOAD_LIMIT", 0)
    if setting == "distributed_cc":
        cfg = ERConfig(cc_driver_threshold=0)
    if setting == "three_buckets":
        cfg = ERConfig(num_buckets=3)
    res = run_er(rd.from_arrow(pages_corpus["pages"]), cfg)

    preds, expected = default_run
    assert len(expected) > 0
    got = res["clusters"].to_pandas().sort_values("url", ignore_index=True)
    pd.testing.assert_frame_equal(got, expected)
    pd.testing.assert_frame_equal(
        res["predictions"].to_pandas().sort_values(["left_url", "right_url"], ignore_index=True),
        preds,
    )
    s = pa.string()
    assert res["pairs"].schema().base_schema == pa.schema(
        [("left_url", s), ("right_url", s), ("truncated", pa.int8()),
         ("left_title", s), ("left_payload", s), ("right_title", s), ("right_payload", s)]
    )
    assert res["predictions"].schema().base_schema == pa.schema(
        [("left_url", s), ("right_url", s), ("prob", pa.float64())]
    )


def test_run_er_rejects_an_actor_pool_scorer(pages_corpus):
    """The scorer runs as stateless tasks only: any other
    ``scorer_concurrency`` is an error, not a silent second path."""
    for concurrency in (2, (1, 2), None):
        with pytest.raises(ValueError, match="scorer_concurrency"):
            run_er(rd.from_arrow(pages_corpus["pages"]), ERConfig(scorer_concurrency=concurrency))


def test_run_er_empty_corpus(ray_session):
    """Round 5: an empty corpus returns typed empty stage outputs instead
    of a schema-less KeyError inside attach_pair_payloads."""
    import pyarrow as pa
    import ray.data as rd

    from ertransfer_ray.pipelines.er_pipeline import ERConfig, run_er

    empty = rd.from_arrow(
        pa.table(
            {
                "url": pa.array([], pa.string()),
                "norm_text": pa.array([], pa.string()),
                "norm_title": pa.array([], pa.string()),
            }
        )
    )
    res = run_er(empty, ERConfig(sn_prefix=0), normalized=True)
    assert res["clusters"].count() == 0
    assert res["pairs"].count() == 0

    # the hand-written empty schemas must track the REAL stage outputs —
    # compare against a tiny non-empty run so a stage schema change can't
    # silently diverge the empty arm
    tiny = rd.from_arrow(
        pa.table(
            {
                "url": pa.array([f"u{i}" for i in range(4)], pa.string()),
                "norm_text": pa.array(
                    ["alpha beta gamma delta"] * 2 + ["zz yy xx ww"] * 2,
                    pa.string(),
                ),
                "norm_title": pa.array(["t"] * 4, pa.string()),
            }
        )
    )
    full = run_er(tiny, ERConfig(sn_prefix=0), normalized=True)
    for stage in ("pairs", "predictions", "clusters"):
        assert set(res[stage].schema().names) == set(full[stage].schema().names), stage
