import pandas as pd
import pytest
import pyarrow as pa
import ray.data as rd

from ertransfer_ray.stages.clustering import (
    connected_components,
    greedy_unique_mapping,
    mutual_best_rounds,
    reciprocal_top1,
)


def _preds():
    # a1 best-matches b1 (mutual); a2's best is b1 but b1 prefers a1;
    # a2-b2 mutual at lower prob; c1-c2 below threshold
    return pd.DataFrame(
        {
            "left_url": ["a1", "a2", "a2", "c1"],
            "right_url": ["b1", "b1", "b2", "c2"],
            "prob": [0.95, 0.90, 0.80, 0.40],
        }
    )


def test_reciprocal_top1():
    # single-pass D4: only pairs best for BOTH sides. a2-b2 is NOT kept —
    # a2's top-1 is b1 (0.90 > 0.80) — matching the reference's Exact
    # Clustering (clustering.py:7-40); iterated mutual-best recovers a2-b2.
    out = reciprocal_top1(rd.from_pandas(_preds()), theta=0.5).to_pandas()
    got = set(zip(out["left_url"], out["right_url"]))
    assert got == {("a1", "b1")}


def test_greedy_unique_mapping_matches_reference_semantics():
    out = greedy_unique_mapping(_preds(), theta=0.5)
    got = set(zip(out["left_url"], out["right_url"]))
    # greedy: a1-b1 (0.95) accepted; a2-b1 skipped (b1 used); a2-b2 accepted
    assert got == {("a1", "b1"), ("a2", "b2")}
    assert ("c1", "c2") not in got


def test_greedy_tie_determinism():
    df = pd.DataFrame(
        {"left_url": ["a", "a"], "right_url": ["x", "y"], "prob": [0.9, 0.9]}
    )
    out1 = greedy_unique_mapping(df)
    out2 = greedy_unique_mapping(df.iloc[::-1])
    assert out1.equals(out2)
    assert out1["right_url"].tolist() == ["x"]  # tie → lexicographic pair key


def test_mutual_best_rounds_resolves_chain():
    out = mutual_best_rounds(rd.from_pandas(_preds()), theta=0.5).to_pandas()
    got = set(zip(out["left_url"], out["right_url"]))
    assert got == {("a1", "b1"), ("a2", "b2")}


def _edges(pairs):
    return rd.from_arrow(
        pa.table(
            {
                "left_url": pa.array([p[0] for p in pairs], pa.string()),
                "right_url": pa.array([p[1] for p in pairs], pa.string()),
            }
        )
    )


def _assign(out_df):
    return dict(zip(out_df["url"], out_df["cluster_id"]))


EDGES = [("a", "b"), ("b", "c"), ("s", "x"), ("s", "y"), ("s", "z"), ("p", "q")]


def test_cc_driver_path():
    out = connected_components(_edges(EDGES)).to_pandas()
    m = _assign(out)
    # cluster id = lexicographically smallest url of the component
    assert m["a"] == m["b"] == m["c"] == "a"
    assert m["s"] == m["x"] == m["y"] == m["z"] == "s"
    assert m["p"] == m["q"] == "p"
    assert len(out) == 9


def test_cc_distributed_path_matches_driver_path():
    driver = _assign(connected_components(_edges(EDGES)).to_pandas())
    dist = _assign(
        connected_components(_edges(EDGES), driver_threshold=0).to_pandas()
    )
    assert driver == dist  # FIXTURES invariant 2: path/parallelism-independent


def test_cc_distributed_long_chain_converges():
    chain = [(f"n{i:02d}", f"n{i+1:02d}") for i in range(12)]
    out = connected_components(_edges(chain), driver_threshold=0).to_pandas()
    assert set(out["cluster_id"]) == {"n00"}
    assert len(out) == 13


def test_cc_pointer_doubling_beats_diameter():
    # diameter-60 path must converge in far fewer than 60 rounds
    # (pointer doubling: one-hop propagation + label-of-label shortcut);
    # with one-hop propagation alone 10 rounds would split the chain
    import warnings

    chain = [(f"n{i:02d}", f"n{i+1:02d}") for i in range(60)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = connected_components(
            _edges(chain), driver_threshold=0, max_rounds=10
        ).to_pandas()
    assert set(out["cluster_id"]) == {"n00"}
    assert len(out) == 61


def test_cc_nonconvergence_warns():
    chain = [(f"n{i:02d}", f"n{i+1:02d}") for i in range(40)]
    with pytest.warns(RuntimeWarning, match="no fixpoint"):
        connected_components(
            _edges(chain), driver_threshold=0, max_rounds=2
        ).to_pandas()


def test_cc_bridge_merges():
    out = connected_components(_edges([("a", "b"), ("c", "d"), ("b", "c")])).to_pandas()
    assert set(out["cluster_id"]) == {"a"}
    assert len(out) == 4


def test_cc_empty():
    out = connected_components(_edges([])).to_pandas()
    assert len(out) == 0


def test_key_width_rule_at_the_one_word_limit():
    """One word up to 2**22 nodes (collision odds n²/2^64 ≤ 2^-20), two
    words from one node above; the caller bounds nodes by 2 × edges."""
    from ertransfer_ray.stages.clustering import ONE_WORD_MAX_NODES, _key_words

    assert ONE_WORD_MAX_NODES == 2**22
    assert _key_words(2**22) == 1
    assert _key_words(2**22 + 1) == 2
    assert _key_words(2 * 2**21) == 1
    assert _key_words(2 * (2**21 + 1)) == 2


def test_cc_reads_its_input_once(tmp_path):
    """A lazy upstream (run_er's attach + score chain) must run once, on
    the driver path and on the distributed path: every batch the upstream
    emits appends its row count to a file, and the total must equal the
    edge count."""
    edges = pd.DataFrame(
        {
            "left_url": [f"a{i:03d}" for i in range(30)],
            "right_url": [f"b{i % 7:03d}" for i in range(30)],
        }
    )
    for name, threshold in [("driver", 1_000), ("distributed", 0)]:
        log = tmp_path / f"{name}.log"

        def counted(t: pa.Table, log=log) -> pa.Table:
            with open(log, "a") as f:
                f.write(f"{t.num_rows}\n")
            return t

        lazy = rd.from_pandas(edges).map_batches(counted, batch_format="pyarrow")
        connected_components(lazy, driver_threshold=threshold).to_pandas()
        rows = [int(x) for x in log.read_text().split()]
        assert sum(rows) == len(edges), (name, rows)
