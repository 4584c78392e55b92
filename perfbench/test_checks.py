"""Self-tests of the benchmark's checks: each accepts a known-good output
and rejects a corrupted one. No Ray session; runs in seconds:

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import json
import os
import sys

import pandas as pd

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import (  # noqa: E402
    check_er_clusters,
    check_min_url_labels,
    check_same_assignment,
    compare_frames,
    pairwise_f1,
    union_find_labels,
)
from run import _unit, report  # noqa: E402
from tables import generate_tables  # noqa: E402
from workloads import LAYER_METRICS, WORKLOADS, _skewed_edges  # noqa: E402


def _truth(n_entities: int = 200, size: int = 3) -> pd.DataFrame:
    urls = [f"u{e:04d}-{k}" for e in range(n_entities) for k in range(size)]
    return pd.DataFrame({"url": urls, "entity_id": [i // size for i in range(len(urls))]})


def _truth_pairs(truth: pd.DataFrame) -> pd.DataFrame:
    """Every same-entity pair (label 1) and every pair between neighbouring
    entities (label 0), the shape of the generator's labelled pairs."""
    by_entity = truth.groupby("entity_id")["url"].apply(list)
    rows = []
    for e, urls in by_entity.items():
        rows += [(a, b, 1) for i, a in enumerate(urls) for b in urls[i + 1:]]
        if e + 1 in by_entity.index:
            rows += [(a, b, 0) for a in urls for b in by_entity[e + 1]]
    return pd.DataFrame(rows, columns=["left_url", "right_url", "label"])


def _clusters_from_truth(truth: pd.DataFrame) -> pd.DataFrame:
    labels = truth.groupby("entity_id")["url"].transform("min")
    return pd.DataFrame({"url": truth["url"], "cluster_id": labels})


def _move_one_url(clusters: pd.DataFrame) -> pd.DataFrame:
    """Move the largest url of the first cluster into the second cluster."""
    bad = clusters.copy()
    first, second = sorted(bad["cluster_id"].unique())[:2]
    victim = bad.loc[bad["cluster_id"] == first, "url"].max()
    bad.loc[bad["url"] == victim, "cluster_id"] = second
    return bad


def test_union_find_labels_by_smallest_url():
    got = union_find_labels(["c", "b", "x"], ["a", "c", "y"])
    assert dict(zip(got["url"], got["cluster_id"])) == {
        "a": "a", "b": "a", "c": "a", "x": "x", "y": "x"
    }


def test_er_check_accepts_truth_and_rejects_low_f1():
    truth = _truth()
    pairs = _truth_pairs(truth)
    good = _clusters_from_truth(truth)
    assert pairwise_f1(good, pairs) == 1.0
    assert check_er_clusters(good, truth["url"], pairs) == []
    # merge three entities into their neighbours: 27 false matches
    low = good.copy()
    for e in (0, 2, 4):
        low.loc[truth["entity_id"] == e + 1, "cluster_id"] = good[truth["entity_id"] == e][
            "cluster_id"
        ].iloc[0]
    assert pairwise_f1(low, pairs) < 0.99
    assert any("F1" in p for p in check_er_clusters(low, truth["url"], pairs))


def test_er_check_rejects_a_label_that_is_not_the_smallest_url():
    truth = _truth()
    bad = _clusters_from_truth(truth)
    bad.loc[truth["entity_id"] == 0, "cluster_id"] = truth["url"][2]
    assert check_min_url_labels(bad)
    assert check_er_clusters(bad, truth["url"], _truth_pairs(truth))


def test_same_assignment_rejects_one_moved_url():
    edges = _skewed_edges(3, 50, 2, 16, 20, 8)
    expected = union_find_labels(edges["left_url"].to_pylist(), edges["right_url"].to_pylist())
    shuffled = expected.sample(frac=1.0, random_state=1)
    assert check_same_assignment(shuffled, expected) == []
    assert check_min_url_labels(shuffled) == []
    moved = _move_one_url(expected)
    assert check_same_assignment(moved, expected)
    # dropping one url is caught as well
    assert check_same_assignment(expected.iloc[1:], expected)


def test_compare_frames_rejects_a_dropped_oracle_row():
    import duckdb

    tables = generate_tables(seed=5, sf=0.001)
    orders = tables["orders"].to_pandas()
    oracle = duckdb.sql(
        "SELECT o_custkey, count(*) AS n, round(sum(o_totalprice), 3) AS total "
        "FROM orders GROUP BY o_custkey"
    ).df()
    got = (
        orders.groupby("o_custkey", as_index=False)
        .agg(n=("o_totalprice", "size"), total=("o_totalprice", "sum"))
        .sample(frac=1.0, random_state=2)
    )
    got["total"] = got["total"].round(3)
    assert compare_frames(got, oracle) == []
    assert compare_frames(got, oracle.iloc[1:])
    assert compare_frames(got.iloc[1:], oracle)
    changed = got.copy()
    changed.iloc[0, changed.columns.get_loc("total")] += 1.0
    assert compare_frames(changed, oracle)
    assert compare_frames(got.astype({"n": "float64"}), oracle)


def test_generated_tables_are_a_function_of_the_seed():
    a, b = generate_tables(7, sf=0.001), generate_tables(7, sf=0.001)
    assert all(a[t].equals(b[t]) for t in a)
    assert not a["orders"].equals(generate_tables(8, sf=0.001)["orders"])


def test_benchmark_json_lists_what_a_run_reports():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (n, _unit(n)) for n in LAYER_METRICS
    ]
    traced = report(1, {"wrong": [], "attempted": 1, "failed": 0, "layers": {}})
    assert list(traced["metrics"]) == LAYER_METRICS
    untraced = report(0, {"wrong": [], "attempted": 2, "failed": 0, "setup_s": 9.0,
                          "op_s": [2.0, 3.0], "units": 10, "main_rss_peak_mb": 200.0})
    assert {n: m["unit"] for n, m in untraced["metrics"].items()} == {
        m["name"]: m["unit"] for m in bench["end_to_end"]
    }
    assert untraced["metrics"]["units_per_s"]["value"] == 2.0
