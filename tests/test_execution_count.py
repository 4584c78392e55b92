"""How many streaming executions the ER path starts, and what reaches the
driver before a gate decides.

A Ray Data streaming execution costs 35-45 ms on one CPU even on a few kB
(about 20 ms of it is the executor's 10 ms output-queue poll), so work over
blocks that are already materialized runs as plain tasks and starts none.
``run_er`` runs one at its default config: the normalize pass over its lazy
input."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data as rd

from ertransfer_ray.pipelines.er_pipeline import run_er
from ertransfer_ray.stages import blocking, joins
from ertransfer_ray.stages import groupby as gb


@pytest.fixture
def executions(monkeypatch):
    """The number of ``StreamingExecutor.execute`` calls since the test
    reset the list."""
    from ray.data._internal.execution import streaming_executor as se

    calls = []
    real = se.StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        calls.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(se.StreamingExecutor, "execute", counted)
    return calls


def _pairs() -> "rd.Dataset":
    rng = np.random.default_rng(3)
    left = rng.integers(0, 50, 400)
    df = pd.DataFrame({
        "left_url": [f"u{v:03d}" for v in left],
        "right_url": [f"u{v + 1 + d:03d}" for v, d in zip(left, rng.integers(0, 9, 400))],
    })
    return rd.from_pandas(df).repartition(4).materialize()


def test_run_er_starts_one_execution(pages_corpus, executions):
    pages = rd.from_arrow(pages_corpus["pages"])
    executions.clear()
    out = run_er(pages)
    assert len(executions) == 1
    assert out["clusters"].count() > 0


def test_pair_endpoints_on_materialized_pairs_starts_none(executions):
    pairs = _pairs()
    executions.clear()
    got = joins.pair_endpoints(pairs, ["left_url", "right_url"])
    assert executions == []
    df = pairs.to_pandas()
    assert got.to_pylist() == sorted(set(df["left_url"]) | set(df["right_url"]))


def test_listing_an_exchange_result_starts_none(executions):
    out = gb.exchange_group_apply(
        _pairs(), "left_url", lambda d: d.groupby("left_url", as_index=False).size()
    )
    executions.clear()
    listed = gb._materialized_blocks(out)
    assert executions == []
    refs, schema, nbytes = listed
    assert refs and schema.names == ["left_url", "size"] and nbytes > 0


@pytest.fixture
def driver_gets(monkeypatch):
    """The values that ``ray.get`` hands to the gated key fetch
    (``pair_endpoints``) and to ``attach_pair_payloads`` itself."""
    import sys

    got = []
    real = ray.get

    def recorded(refs, *args, **kwargs):
        out = real(refs, *args, **kwargs)
        if sys._getframe(1).f_code.co_name in ("gated_key_chunks", "attach_pair_payloads"):
            got.extend(out if isinstance(out, list) else [out])
        return out

    monkeypatch.setattr(ray, "get", recorded)
    return got


def test_endpoints_past_the_gate_fetch_no_key_array(monkeypatch, driver_gets):
    pairs = _pairs()
    assert joins.pair_endpoints(pairs, ["left_url", "right_url"]) is not None
    assert any(isinstance(v, pa.Array) for v in driver_gets)
    driver_gets.clear()
    monkeypatch.setattr(joins, "KEY_SET_LIMIT", 8)
    assert joins.pair_endpoints(pairs, ["left_url", "right_url"]) is None
    assert driver_gets and all(isinstance(v, int) for v in driver_gets)


def test_attach_side_past_the_gate_fetches_no_table(pages_corpus, monkeypatch, driver_gets):
    from ertransfer_ray.pipelines.er_pipeline import normalize_pages

    norm = normalize_pages(rd.from_arrow(pages_corpus["pages"])).materialize()
    keyed = blocking.emit_block_keys(norm, batch_size=256)
    pairs = blocking.generate_pairs(keyed)
    blocking.attach_pair_payloads(pairs, norm)
    assert any(isinstance(v, pa.Table) for v in driver_gets)
    driver_gets.clear()
    monkeypatch.setattr(joins, "PAYLOAD_LIMIT", 8)
    attached = blocking.attach_pair_payloads(pairs, norm)
    assert not any(isinstance(v, pa.Table) for v in driver_gets)
    assert any(isinstance(v, int) and v > 8 for v in driver_gets)
    assert attached.count() == pairs.count()
