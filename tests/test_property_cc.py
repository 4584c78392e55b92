"""Property tests: the distributed CC path must agree with the driver
union-find oracle on arbitrary small graphs (self-loops, duplicate and
reversed edges, multi-component, random adjacency — the shapes the
contraction rework has to get right), and the shared count pass must agree
with a pandas value_counts oracle."""

import pandas as pd
import pytest
import ray.data as rd
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ertransfer_ray.stages import clustering
from ertransfer_ray.stages.clustering import connected_components
from ertransfer_ray.stages.groupby import counted_key_survivors

_EDGE = st.tuples(st.integers(0, 23), st.integers(0, 23))


@pytest.fixture(params=[1, 2], ids=["one_word", "two_words"])
def key_words(request, monkeypatch):
    """Node-key width of the distributed path: two words are forced by
    lowering the one-word node limit below any test graph."""
    if request.param == 2:
        monkeypatch.setattr(clustering, "ONE_WORD_MAX_NODES", 0)
    return request.param


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        HealthCheck.function_scoped_fixture,
    ],
)
@given(st.lists(_EDGE, min_size=1, max_size=50))
def test_cc_distributed_matches_driver_union_find(key_words, pairs):
    edges = pd.DataFrame(
        [(f"n{a:02d}", f"n{b:02d}") for a, b in pairs],
        columns=["left_url", "right_url"],
    )
    dist = (
        connected_components(rd.from_pandas(edges), driver_threshold=0)
        .to_pandas()
        .sort_values("url", ignore_index=True)
    )
    drv = (
        connected_components(rd.from_pandas(edges))
        .to_pandas()
        .sort_values("url", ignore_index=True)
    )
    pd.testing.assert_frame_equal(dist, drv)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=80),
    st.integers(2, 4),
)
def test_counted_survivors_match_value_counts(keys, max_count):
    ds = rd.from_pandas(pd.DataFrame({"k": keys})).materialize()
    got = counted_key_survivors(ds, "k", 4, min_count=2, max_count=max_count)
    vc = pd.Series(keys).value_counts()
    want = sorted(vc.index[(vc.values >= 2) & (vc.values <= max_count)].tolist())
    assert sorted(got.to_pylist()) == want


def test_cc_128bit_survives_forced_single_word_collisions(monkeypatch):
    """THE reason two-word keys exist: mask one 64-bit word to a handful of
    bits (forced collisions in that word — the fixture the one-word bound
    warns about) and the word pair must still separate components.
    An implementation keying on either word alone over-merges and fails."""
    # 40 disjoint 2-node components; any cross-component merge is detectable
    edges = pd.DataFrame(
        {
            "left_url": [f"a{i:03d}" for i in range(40)],
            "right_url": [f"b{i:03d}" for i in range(40)],
        }
    )
    want = (
        connected_components(rd.from_pandas(edges))
        .to_pandas()
        .sort_values("url", ignore_index=True)
    )
    monkeypatch.setattr(clustering, "ONE_WORD_MAX_NODES", 0)
    # first word degenerate (it also picks the exchange bucket), then second
    for mask in [(0x7, -1), (-1, 0x7)]:
        got = (
            connected_components(
                rd.from_pandas(edges), driver_threshold=0, _key_mask=mask,
            )
            .to_pandas()
            .sort_values("url", ignore_index=True)
        )
        pd.testing.assert_frame_equal(got, want)

