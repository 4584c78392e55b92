"""Checkpointed, resumable ER runs: every stage boundary is partitioned
Parquet + a lineage manifest; a rerun skips any stage whose manifest matches
the input fingerprint.

This is the production layout the staged `run_er` mirrors in memory
(BASELINE.json: "resumable from checkpoint with per-partition lineage +
metrics"). The unit of resume:

- stage level: normalize / pairs / predictions / clusters each live in
  ``<workdir>/<stage>/`` with shard manifests (state/manifest.py);
- within the normalize stage (the corpus-sized one), output is sharded by
  ``hash(url) % num_shards`` so a killed run resumes mid-stage.

Edges (pairs, predictions) are sharded by left_url hash; clustering is
global by nature (components span shards), so its stage is one shard whose
manifest records the prediction-stage fingerprint.
"""

from __future__ import annotations

import json
import os
import time

import ray.data as rd

from ..state.manifest import (
    fingerprint_paths,
    read_manifests,
    run_sharded,
    shard_filter,
)
from .er_pipeline import ERConfig, block, cluster, normalize_pages, score


def _stage_dir(workdir: str, stage: str) -> str:
    d = os.path.join(workdir, stage)
    os.makedirs(d, exist_ok=True)
    return d


def _stage_fingerprint(stage_dir: str) -> str:
    """Fingerprint of a completed stage = its manifests' contents.

    MUST be process-stable: a killed run resumes in a NEW process, and
    Python's builtin ``hash`` is salted per process — using it here would
    silently recompute every downstream stage on restart.
    """
    from ..functions.hashing import stable_hash64

    manifests = read_manifests(stage_dir)
    payload = json.dumps(manifests, sort_keys=True)
    return str(stable_hash64([payload])[0])


def _read_stage(stage_dir: str):
    return rd.read_parquet(stage_dir, file_extensions=["parquet"])


def run_er_checkpointed(
    input_parquet: str,
    workdir: str,
    cfg: ERConfig | None = None,
    num_shards: int = 4,
    normalized_input: bool = False,
) -> dict:
    """Run the three-stage pipeline with stage checkpoints under ``workdir``.

    Returns ``{"stages": {stage: "computed"|"resumed"}, "metrics": {...}}``.
    Kill/rerun semantics: completed shards and stages are skipped, verified
    by input fingerprints, not timestamps alone.
    """
    cfg = cfg or ERConfig()
    os.makedirs(workdir, exist_ok=True)
    status: dict[str, str] = {}
    metrics: dict[str, float] = {}

    # ---- stage 0: normalize (sharded by url hash) ----
    in_fp = fingerprint_paths([input_parquet])
    norm_dir = _stage_dir(workdir, "normalized")

    def make_norm_shard(shard: int, n: int):
        pages = rd.read_parquet(input_parquet)
        norm = pages if normalized_input else normalize_pages(pages)
        return norm.map_batches(shard_filter(shard, n, "url"), batch_format="pyarrow")

    t0 = time.perf_counter()
    r = run_sharded(make_norm_shard, norm_dir, num_shards, input_fingerprint=in_fp)
    metrics["normalize_s"] = round(time.perf_counter() - t0, 3)
    status["normalized"] = "resumed" if not r["completed"] else "computed"

    # ---- stage 1: blocking → pairs ----
    norm_fp = _stage_fingerprint(norm_dir)
    pairs_dir = _stage_dir(workdir, "pairs")

    def make_pairs_shard(shard: int, n: int):
        norm = _read_stage(norm_dir).materialize()
        pairs = block(norm, cfg)
        return pairs.map_batches(shard_filter(shard, n, "left_url"), batch_format="pyarrow")

    t0 = time.perf_counter()
    # pairs are one logical unit (blocking shuffles are global); write as a
    # single shard keyed by the normalize fingerprint
    r = run_sharded(lambda s, n: make_pairs_shard(0, 1), pairs_dir, 1, input_fingerprint=norm_fp)
    metrics["block_s"] = round(time.perf_counter() - t0, 3)
    status["pairs"] = "resumed" if not r["completed"] else "computed"

    # ---- stage 2: scoring → predictions (sharded by left_url hash) ----
    # scoring is embarrassingly parallel over pairs, so unlike the global
    # blocking shuffle it CAN resume mid-stage: each shard filters the pair
    # table map-side and scores independently — a kill between shard writes
    # loses at most one shard's work (round 4; was a single logical shard)
    pairs_fp = _stage_fingerprint(pairs_dir)
    preds_dir = _stage_dir(workdir, "predictions")

    def make_preds(shard: int, n: int):
        pairs = _read_stage(pairs_dir).map_batches(
            shard_filter(shard, n, "left_url"), batch_format="pyarrow"
        )
        return score(pairs, cfg)

    t0 = time.perf_counter()
    r = run_sharded(make_preds, preds_dir, num_shards, input_fingerprint=pairs_fp)
    metrics["score_s"] = round(time.perf_counter() - t0, 3)
    status["predictions"] = "resumed" if not r["completed"] else "computed"

    # ---- stage 3: clustering (global) ----
    preds_fp = _stage_fingerprint(preds_dir)
    clusters_dir = _stage_dir(workdir, "clusters")

    def make_clusters(shard: int, n: int):
        return cluster(_read_stage(preds_dir), cfg)

    t0 = time.perf_counter()
    r = run_sharded(make_clusters, clusters_dir, 1, input_fingerprint=preds_fp)
    metrics["cluster_s"] = round(time.perf_counter() - t0, 3)
    status["clusters"] = "resumed" if not r["completed"] else "computed"

    with open(os.path.join(workdir, "run_metrics.json"), "w") as f:
        json.dump({"stages": status, "metrics": metrics}, f, indent=2)
    return {"stages": status, "metrics": metrics, "clusters_dir": clusters_dir}


def read_clusters(workdir: str):
    return _read_stage(os.path.join(workdir, "clusters"))
