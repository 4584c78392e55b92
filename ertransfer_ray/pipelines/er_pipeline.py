"""End-to-end ER pipeline: normalize → block → score → cluster.

The three-stage streaming DAG of BASELINE.json.north_star, wired from the
stage modules. Each stage is lazy Dataset algebra; nothing materializes the
full corpus on the driver. Stage boundaries can be checkpointed to
partitioned Parquet via state.manifest for resumable runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pyarrow as pa

from ..functions.textnorm import normalize_pages_batch
from ..stages.blocking import attach_pair_payloads, emit_block_keys, generate_pairs
from ..stages.clustering import connected_components, reciprocal_top1
from ..stages.scoring import score_pairs


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
    # scoring; "tasks" → stateless elastic tasks (cheap scorer state);
    # int/tuple → actor pool (use for heavy per-actor model state)
    weights: dict | str | None = None
    scorer_concurrency: int | tuple | str | None = "tasks"
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
    pass a materialized/checkpointed normalized table. The pair exchanges
    are pipeline breakers, so the key emitter never fuses with the attach:
    one streaming DAG of the key emitter, two bucket shuffles and the
    attach pool measured 110 s on an 8-CPU session, against 34 s when each
    step ran to completion before the next (see run_er).
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


def score(pairs_ds, cfg: ERConfig):
    """Stage 2: pairwise scoring → (left_url, right_url, prob). Stateless
    tasks by default (``cfg.scorer_concurrency="tasks"``); an int or tuple
    there scores on an actor pool instead."""
    return score_pairs(
        pairs_ds,
        weights=cfg.weights,
        concurrency=cfg.scorer_concurrency,
        batch_size=cfg.scorer_batch_size,
    )


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
            lambda t: t.filter(pa.compute.greater(t["prob"], cfg.theta)),
            batch_format="pyarrow",
        )
    return connected_components(
        edges,
        max_rounds=cfg.cc_rounds,
        driver_threshold=cfg.cc_driver_threshold,
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

    Each stage boundary up to the pairs is materialized before the next
    starts: the normalized table here, the pairs by their exchanges. This
    mirrors the checkpoint/resume layout (stage outputs = Parquet +
    manifests at scale) AND is dramatically faster than one fused
    streaming DAG when CPUs are scarce: Ray's streaming executor runs every
    operator concurrently, and on an 8-CPU session the contention between
    actor pools, all-to-all stages and map stages measured 212 s for a chain
    whose stage-by-stage execution takes 37 s.
    """
    cfg = cfg or ERConfig()
    if dedup_captures:
        from ..stages.crawl import latest_capture_per_url

        pages_ds = latest_capture_per_url(pages_ds).drop_columns(["url_norm"])
    norm = pages_ds if normalized else normalize_pages(pages_ds)
    # block() consumes the normalized table twice (key emission + payload
    # side of the pair join); pin it once instead of recomputing the DAG
    norm = norm.materialize()
    if norm.count() == 0:
        # empty corpus: downstream stages would see schema-less blocks
        # (attach_pair_payloads used to KeyError on the missing url column)
        # — return typed empty stage outputs instead
        import ray.data as rd

        def _empty(cols: dict) -> "rd.Dataset":
            return rd.from_arrow(pa.table(cols))

        s = pa.array([], pa.string())
        f = pa.array([], pa.float64())
        b = pa.array([], pa.bool_())
        return {
            "normalized": norm,
            # column sets pinned equal to the real stage outputs by
            # tests/test_er_pipeline.py::test_run_er_empty_corpus
            "pairs": _empty(
                {
                    "left_url": s, "right_url": s, "truncated": b,
                    "left_title": s, "left_payload": s,
                    "right_title": s, "right_payload": s,
                }
            ),
            "predictions": _empty({"left_url": s, "right_url": s, "prob": f}),
            "clusters": _empty({"url": s, "cluster_id": s}),
        }
    pairs = block(norm, cfg)
    # attach+score are plain map chains over the materialized pairs — they
    # fuse into clustering's consumption without executor contention
    predictions = score(pairs, cfg)
    clusters = cluster(predictions, cfg)
    return {
        "normalized": norm,
        "pairs": pairs,
        "predictions": predictions,
        "clusters": clusters,
    }
