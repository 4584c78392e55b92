"""End-to-end ER pipeline: normalize → block → score → cluster.

The filter → match → cluster dataflow of BASELINE.json.north_star, wired
from the stage modules. ``run_er`` starts one streaming execution, the
normalize pass over its lazy input; every later step is plain Ray tasks
over blocks that already exist (key emission, the pair exchanges, the
payload attach, scoring with its threshold, connected components), so no
pipeline breaker pays an executor's fixed cost. Nothing materializes the
full corpus on the driver. ``block``, ``score`` and ``cluster`` take and
return Datasets, stage by stage, for ``pipelines.checkpointed``, which
writes each stage to partitioned Parquet via state.manifest for resumable
runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..functions.textnorm import normalize_pages_batch
from ..stages.blocking import attach_pair_payloads, emit_block_keys, generate_pairs
from ..stages.clustering import connected_components, reciprocal_top1
from ..stages.groupby import (
    _arrow_block,
    _materialized_blocks,
    _plain_table,
    dataset_of,
    materialized,
    with_meta,
)
from ..stages.scoring import PairScorer, score_pairs

_PREDICTIONS = pa.schema(
    [("left_url", pa.string()), ("right_url", pa.string()), ("prob", pa.float64())]
)


@dataclass
class ERConfig:
    # blocking
    num_perm: int = 64
    num_bands: int = 16
    tokenization: str = "words"
    sn_prefix: int = 12
    payload_chars: int = 256
    max_block_size: int = 64
    window: int = 8
    emit_batch_size: int = 2048
    # None → sized from cluster CPUs; pin an int for apples-to-apples
    # comparisons across parallelism levels
    num_buckets: int | None = None
    # cross-band pair dedup costs one full shuffle; disable when downstream
    # tolerates duplicate pairs (connected components does — same edge twice
    # changes nothing; scoring then re-scores ~1.3x rows)
    pair_dedup: bool = True
    # scoring runs as stateless tasks: "tasks" is the only scorer_concurrency
    # run_er accepts
    weights: dict | str | None = None
    scorer_concurrency: str = "tasks"
    scorer_batch_size: int = 2048
    # optional GNEM-shape pre-clustering smoothing (em_matcher.propagate_scores):
    # 0.0 disables; >0 mixes α of the neighbor-mean into each pair score
    gnem_smooth_alpha: float = 0.0
    gnem_smooth_rounds: int = 1
    # clustering
    theta: float = 0.5
    reciprocal: bool = False  # True → 1:1 semantics (D4) before closure
    cc_rounds: int = 25
    cc_driver_threshold: int = 200_000
    seed: int = 7
    extra: dict = field(default_factory=dict)


def normalize_pages(pages_ds):
    """Stage 0: html → byte-identical text + normalized title/text."""
    return pages_ds.map_batches(normalize_pages_batch, batch_format="pyarrow")


def block(norm_ds, cfg: ERConfig):
    """Stage 1: blocking keys + bounded pair generation + payload attach.

    Key rows are id-only (payloads would be amplified num_bands+1 times
    through the shuffle); payloads join back onto the deduped pairs once.
    ``norm_ds`` is consumed twice (keys + payload side), so callers should
    pass a materialized/checkpointed normalized table; over one, every step
    runs as plain tasks over its blocks and the result is materialized.
    """
    keyed = emit_block_keys(
        norm_ds,
        batch_size=cfg.emit_batch_size,
        num_perm=cfg.num_perm,
        num_bands=cfg.num_bands,
        seed=cfg.seed,
        tokenization=cfg.tokenization,
        sn_prefix=cfg.sn_prefix,
        payload_chars=cfg.payload_chars,
    )
    pairs = generate_pairs(
        keyed,
        max_block_size=cfg.max_block_size,
        window=cfg.window,
        num_buckets=cfg.num_buckets,
        dedup=cfg.pair_dedup,
    )
    return attach_pair_payloads(
        pairs, norm_ds, payload_chars=cfg.payload_chars, num_buckets=cfg.num_buckets
    )


def _tasks_only(cfg: ERConfig) -> None:
    if cfg.scorer_concurrency != "tasks":
        raise ValueError(
            "ERConfig.scorer_concurrency must be 'tasks', got "
            f"{cfg.scorer_concurrency!r}: the scorer runs as stateless tasks"
        )


def score(pairs_ds, cfg: ERConfig):
    """Stage 2: pairwise scoring → (left_url, right_url, prob), a lazy map
    of stateless tasks."""
    _tasks_only(cfg)
    return score_pairs(pairs_ds, weights=cfg.weights, batch_size=cfg.scorer_batch_size)


def _score_blocks(pairs, cfg: ERConfig):
    """Stage 2 over materialized ``pairs`` with the threshold of stage 3:
    one task per pair block scores ``scorer_batch_size``-row slices and
    returns the block's predictions and its edges above ``theta``. Returns
    the two materialized Datasets; starts no streaming execution."""
    refs, _, _ = _materialized_blocks(pairs)
    if not refs:
        empty = rd.from_arrow(_PREDICTIONS.empty_table())
        return empty, empty
    scorer = PairScorer(weights=cfg.weights)
    outs = [_score_block.remote(r, scorer, cfg.scorer_batch_size, cfg.theta) for r in refs]
    return dataset_of([o[:2] for o in outs]), dataset_of([o[2:] for o in outs])


@ray.remote(num_returns=4)
def _score_block(block, scorer: PairScorer, batch_size: int, theta: float):
    """One pair block's predictions, scored ``batch_size`` rows at a time,
    and those of them above ``theta``, each with its metadata."""
    t = _arrow_block(block)
    preds = pa.concat_tables(
        [_plain_table(scorer(t.slice(o, batch_size).to_pandas()))
         for o in range(0, t.num_rows, batch_size)]
    )
    return with_meta(preds) + with_meta(preds.filter(pc.greater(preds.column("prob"), theta)))


def cluster(predictions_ds, cfg: ERConfig):
    """Stage 3: (optional GNEM smoothing) → threshold (+optional reciprocal
    top-1) → connected components."""
    if cfg.gnem_smooth_alpha > 0.0:
        from ..stages.em_matcher import propagate_scores

        predictions_ds = propagate_scores(
            predictions_ds, alpha=cfg.gnem_smooth_alpha, rounds=cfg.gnem_smooth_rounds
        )
    if cfg.reciprocal:
        edges = reciprocal_top1(predictions_ds, theta=cfg.theta)
    else:
        edges = predictions_ds.map_batches(
            lambda t: t.filter(pc.greater(t["prob"], cfg.theta)),
            batch_format="pyarrow",
        )
    return _components(edges, cfg)


def _components(edges, cfg: ERConfig):
    return connected_components(
        edges, max_rounds=cfg.cc_rounds, driver_threshold=cfg.cc_driver_threshold
    )


def run_er(
    pages_ds,
    cfg: ERConfig | None = None,
    normalized: bool = False,
    dedup_captures: bool = False,
) -> dict:
    """Full pipeline. Returns dict of Datasets:
    ``{"normalized", "pairs", "predictions", "clusters"}``.

    ``normalized=True`` skips stage 0 when the input already has
    (url, norm_text, norm_title) — e.g. the documents-table adapter.

    ``dedup_captures=True`` prepends stages/crawl.latest_capture_per_url:
    crawl inputs repeat each page across captures (same canonical url,
    different warc_ts); keeping only the newest capture removes the
    trivial self-duplicate clusters before blocking pays for them.
    Requires the raw pages shape (url, warc_ts, …).

    The normalized table is materialized once, by the one streaming
    execution this starts at the default config (the capture dedup and the
    GNEM / reciprocal stages add their own). Everything after it runs as
    plain Ray tasks over materialized blocks, each step to completion
    before the next: key emission per normalized block, the pair
    exchanges, the payload attach per pair block, then one task per pair
    block that scores it and keeps its edges above ``theta``, which
    connected components reads as they are. A Ray Data streaming execution
    costs 35-45 ms on one CPU even on a few kB, and on an 8-CPU session one
    fused streaming DAG of the emitter, the shuffles and the attach pool
    measured 110 s against 34 s step by step. Every output is
    materialized.
    """
    cfg = cfg or ERConfig()
    _tasks_only(cfg)
    if dedup_captures:
        from ..stages.crawl import latest_capture_per_url

        pages_ds = latest_capture_per_url(pages_ds).drop_columns(["url_norm"])
    # block() consumes the normalized table twice (key emission + payload
    # side of the pair join); pin it once instead of recomputing the DAG
    norm = materialized(pages_ds if normalized else normalize_pages(pages_ds))
    if norm.count() == 0:
        # empty corpus: downstream stages would see schema-less blocks
        # (attach_pair_payloads used to KeyError on the missing url column)
        # — return typed empty stage outputs instead
        s = pa.array([], pa.string())
        b = pa.array([], pa.bool_())
        return {
            "normalized": norm,
            # column sets pinned equal to the real stage outputs by
            # tests/test_er_pipeline.py::test_run_er_empty_corpus
            "pairs": rd.from_arrow(pa.table(
                {
                    "left_url": s, "right_url": s, "truncated": b,
                    "left_title": s, "left_payload": s,
                    "right_title": s, "right_payload": s,
                }
            )),
            "predictions": rd.from_arrow(_PREDICTIONS.empty_table()),
            "clusters": rd.from_arrow(pa.table({"url": s, "cluster_id": s})),
        }
    pairs = block(norm, cfg)
    predictions, edges = _score_blocks(pairs, cfg)
    if cfg.gnem_smooth_alpha > 0.0 or cfg.reciprocal:
        clusters = cluster(predictions, cfg)
    else:
        clusters = _components(edges, cfg)
    return {
        "normalized": norm,
        "pairs": pairs,
        "predictions": predictions,
        "clusters": clusters,
    }
