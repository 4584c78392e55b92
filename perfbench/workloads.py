"""The two workloads: how each prepares its inputs, warms up, runs one
round of operations and runs its traced layer-by-layer pass.

``prepare`` runs in the launcher process (``run.py``) and writes inputs and
expected answers under the run's work directory. Everything else runs in
the measured process (``session.py``), which is the only process that
calls the library's entry points.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from checks import (
    check_er_clusters,
    check_min_url_labels,
    check_same_assignment,
    compare_frames,
    union_find_labels,
)

# ---- input sizes (see README.md for why each is what it is) ----
ER_ENTITIES = 200  # about 520 pages; the title vocabulary is fixed, so pairs grow ~n²
# One round runs run_er on this many corpora of different seeds. With one
# corpus per run the spread (IQR / median) of op_p50_s over five seeds was
# 0.185, with three 0.086; four gave no clear gain and cost a run 6-8 s.
ER_CORPORA = 3
CC_HUB_LEAVES = 2_000
CC_CHAINS, CC_CHAIN_NODES = 64, 8
CC_GROUPS, CC_GROUP_NODES = 1_400, 8
# below the edge count, so connected_components takes its distributed path
CC_IN_PROCESS_MAX_EDGES = 1_000
OPS_SF = 0.1
OPS_WARM_SF = 0.001
# The warm-up runs this one query on tiny tables. Only a session's first
# query is slow (pricing_summary: 4.6 s cold, 1.5 s warm; the others within
# noise), and a warm-up over all twelve took 11 s.
OPS_WARM_QUERY = "pricing_summary"
OPS_QUERIES = [
    "pricing_summary",
    "customer_order_stats",
    "top1_order_per_customer",
    "hourly_event_stats",
    "user_sessions",
    "event_order_asof",
    "orders_nearby_counts",
    "exact_dedup_docs",
    "doc_decontam_bloom",
    "host_stats",
    "doc_top_tfidf",
    "local_supplier_revenue",
]
OPS_TABLES = "region nation customer supplier orders lineitem events documents".split()

# Every traced run reports every per-layer metric; a layer a workload does
# not run reads 0 there.
ER_LAYER_METRICS = [
    "pipelines.er_pipeline.normalize_s",
    "stages.blocking.emit_block_keys_s",
    "stages.blocking.key_rows",
    "stages.blocking.generate_pairs_s",
    "stages.blocking.candidate_pairs",
    "stages.blocking.pairs_per_page",
    "stages.blocking.attach_pair_payloads_s",
    "stages.scoring.score_pairs_s",
    "stages.scoring.pairs_per_s",
    "stages.clustering.connected_components_s",
    "stages.clustering.match_edges",
    "stages.clustering.clusters",
    "pipelines.er_pipeline.match_yield",
    "pipelines.er_pipeline.untraced_excess_s",
]
CKPT_LAYER_METRICS = [
    "pipelines.checkpointed.normalize_s",
    "pipelines.checkpointed.block_s",
    "pipelines.checkpointed.score_s",
    "pipelines.checkpointed.cluster_s",
    "pipelines.checkpointed.resume_s",
    "pipelines.checkpointed.ckpt_bytes_per_input_byte",
    "state.manifest.bytes_written",
    "state.manifest.files_written",
]
CC_LAYER_METRICS = [
    "stages.clustering.cc_s",
    "stages.clustering.cc_nodes",
    "stages.clustering.cc_components",
    "stages.clustering.cc_largest_component",
    "stages.groupby.exchange_group_apply_s",
    "stages.clustering.exchange_equivalents",
]
OPS_LAYER_METRICS = [f"ops.{q}_s" for q in OPS_QUERIES]
LAYER_METRICS = (
    ["trace.untraced_wall_s", "trace.overhead_s"] + ER_LAYER_METRICS + CKPT_LAYER_METRICS + CC_LAYER_METRICS
    + OPS_LAYER_METRICS
)


@dataclass
class Op:
    """One operation: ``run`` is timed from input to complete output;
    ``check`` (untimed) returns the problems found in that output."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    units: float = 1  # work in the operation: pages or queries


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _write(table: pa.Table | pd.DataFrame, path: str) -> str:
    if isinstance(table, pd.DataFrame):
        table = pa.Table.from_pandas(table, preserve_index=False)
    pq.write_table(table, path)
    return path


def _tree_size(path: str) -> tuple[int, int]:
    """(bytes, files) under ``path``."""
    total = files = 0
    for d, _, names in os.walk(path):
        for n in names:
            total += os.path.getsize(os.path.join(d, n))
            files += 1
    return total, files


class Workload:
    name = ""
    op_limit_s = 60.0

    def __init__(self, inputs: dict):
        self.inputs = inputs

    @staticmethod
    def prepare(work: str, seed: int) -> dict:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def round(self) -> list[Op]:
        raise NotImplementedError

    def trace(self, untraced: list[tuple[Op, float, Any, float]]) -> tuple[dict, list[str]]:
        """Per-layer metrics and problems, given one untraced round as
        ``(op, wall seconds, output, unstolen seconds)``. Layers are timed
        in wall time, and compared with the untraced wall time."""
        raise NotImplementedError


# ---------------------------------------------------------------- ER ----


def _prepare_pages(work: str, seed: int) -> dict:
    """``ER_CORPORA`` corpora and one warm-up corpus, of seeds no other
    ``--seed`` uses. The warm-up corpus is full-size: run_er's first
    operation on a full-size corpus runs ~1 s slower than the next ones."""
    from ertransfer_ray.sources.pages import generate_pages

    corpora = []
    for k in range(ER_CORPORA):
        c = generate_pages(num_entities=ER_ENTITIES, seed=seed * (ER_CORPORA + 1) + k)
        corpora.append({
            "pages": _write(c["pages"], os.path.join(work, f"pages{k}.parquet")),
            "truth_pairs": _write(c["truth_pairs"], os.path.join(work, f"truth_pairs{k}.parquet")),
            "num_pages": c["pages"].num_rows,
        })
    warm = generate_pages(num_entities=ER_ENTITIES, seed=seed * (ER_CORPORA + 1) + ER_CORPORA)
    return {
        "corpora": corpora,
        "warm_pages": _write(warm["pages"], os.path.join(work, "warm_pages.parquet")),
        "work": work,
    }


def _traced_er_chain(pages_path: str) -> tuple[dict, list[str], float]:
    """Call each ER layer's public function in turn, materializing at every
    boundary. Returns (layer metrics, problems, sum of stage seconds)."""
    import ray.data as rd

    from ertransfer_ray.pipelines.er_pipeline import ERConfig, cluster, normalize_pages
    from ertransfer_ray.stages.blocking import (
        attach_pair_payloads,
        emit_block_keys,
        generate_pairs,
    )
    from ertransfer_ray.stages.scoring import score_pairs

    cfg = ERConfig()
    pages = rd.read_parquet(pages_path).materialize()
    n_pages = pages.count()
    m: dict[str, float] = {}
    norm, m["pipelines.er_pipeline.normalize_s"] = _timed(
        lambda: normalize_pages(pages).materialize()
    )
    keyed, m["stages.blocking.emit_block_keys_s"] = _timed(
        lambda: emit_block_keys(
            norm,
            batch_size=cfg.emit_batch_size,
            num_perm=cfg.num_perm,
            num_bands=cfg.num_bands,
            seed=cfg.seed,
            tokenization=cfg.tokenization,
            sn_prefix=cfg.sn_prefix,
            payload_chars=cfg.payload_chars,
        ).materialize()
    )
    pairs, m["stages.blocking.generate_pairs_s"] = _timed(
        lambda: generate_pairs(
            keyed,
            max_block_size=cfg.max_block_size,
            window=cfg.window,
            num_buckets=cfg.num_buckets,
            dedup=cfg.pair_dedup,
        ).materialize()
    )
    attached, m["stages.blocking.attach_pair_payloads_s"] = _timed(
        lambda: attach_pair_payloads(
            pairs, norm, payload_chars=cfg.payload_chars, num_buckets=cfg.num_buckets
        ).materialize()
    )
    preds, m["stages.scoring.score_pairs_s"] = _timed(
        lambda: score_pairs(
            attached,
            weights=cfg.weights,
            concurrency=cfg.scorer_concurrency,
            batch_size=cfg.scorer_batch_size,
        ).materialize()
    )
    clusters, m["stages.clustering.connected_components_s"] = _timed(
        lambda: cluster(preds, cfg).to_pandas()
    )
    stage_s = sum(m.values())

    m["stages.blocking.key_rows"] = keyed.count()
    m["stages.blocking.candidate_pairs"] = pairs.count()
    m["stages.blocking.pairs_per_page"] = m["stages.blocking.candidate_pairs"] / n_pages
    m["stages.scoring.pairs_per_s"] = (
        m["stages.blocking.candidate_pairs"] / m["stages.scoring.score_pairs_s"]
    )
    p = preds.to_pandas()
    edges = p[p["prob"] > cfg.theta]
    m["stages.clustering.match_edges"] = len(edges)
    m["stages.clustering.clusters"] = clusters["cluster_id"].nunique()
    m["pipelines.er_pipeline.match_yield"] = len(edges) / max(1, len(p))
    expected = union_find_labels(edges["left_url"], edges["right_url"])
    problems = [f"traced clusters: {p}" for p in check_same_assignment(clusters, expected)]
    return m, problems, stage_s


class ErPages(Workload):
    """``run_er`` with the default ERConfig, the user's in-memory path. Its
    traced run also measures the checkpointed pipeline's layers."""

    name = "er_pages"
    op_limit_s = 90.0

    @staticmethod
    def prepare(work, seed):
        return _prepare_pages(work, seed)

    def open(self):
        import ray.data as rd

        from ertransfer_ray.pipelines.er_pipeline import run_er

        self._rd, self._run_er = rd, run_er
        self.truth_pairs = [pd.read_parquet(c["truth_pairs"]) for c in self.inputs["corpora"]]
        self.urls = [pd.read_parquet(c["pages"], columns=["url"])["url"]
                     for c in self.inputs["corpora"]]

    def _clusters(self, path: str) -> pd.DataFrame:
        return self._run_er(self._rd.read_parquet(path))["clusters"].to_pandas()

    def warm_up(self):
        self.open()
        self._clusters(self.inputs["warm_pages"])

    def round(self):
        return [
            Op(
                f"run_er[{k}]",
                lambda c=c: self._clusters(c["pages"]),
                lambda out, k=k: check_er_clusters(out, self.urls[k], self.truth_pairs[k]),
                c["num_pages"],
            )
            for k, c in enumerate(self.inputs["corpora"])
        ]

    def trace(self, untraced):
        # the traced layers run on the first corpus, untraced[0]'s input
        metrics, problems, stage_s = _traced_er_chain(self.inputs["corpora"][0]["pages"])
        metrics["pipelines.er_pipeline.untraced_excess_s"] = untraced[0][1] - stage_s
        metrics["trace.overhead_s"] = stage_s - untraced[0][1]
        ckpt_metrics, ckpt_problems = self._trace_checkpointed()
        metrics.update(ckpt_metrics)
        return metrics, problems + ckpt_problems

    # The checkpointed pipeline's layers: a fresh run_er_checkpointed into a
    # new work directory, then one resume after the ``predictions`` and
    # ``clusters`` stage outputs are removed, as after a kill that follows
    # blocking.
    RESUMED = {"normalized": "resumed", "pairs": "resumed",
               "predictions": "computed", "clusters": "computed"}

    def _trace_checkpointed(self) -> tuple[dict, list[str]]:
        from ertransfer_ray.pipelines.checkpointed import read_clusters, run_er_checkpointed

        pages = self.inputs["corpora"][0]["pages"]
        wd = os.path.join(self.inputs["work"], "ckpt")
        shutil.rmtree(wd, ignore_errors=True)
        fresh = run_er_checkpointed(pages, wd)
        fresh_clusters = read_clusters(wd).to_pandas()
        ckpt_bytes, ckpt_files = _tree_size(wd)
        for stage in ("predictions", "clusters"):
            shutil.rmtree(os.path.join(wd, stage))
        t0 = time.perf_counter()
        resumed = run_er_checkpointed(pages, wd)
        resumed_clusters = read_clusters(wd).to_pandas()
        resume_s = time.perf_counter() - t0
        shutil.rmtree(wd, ignore_errors=True)

        problems = check_er_clusters(fresh_clusters, self.urls[0], self.truth_pairs[0])
        if set(fresh["stages"].values()) != {"computed"}:
            problems.append(f"fresh run resumed stages: {fresh['stages']}")
        if resumed["stages"] != self.RESUMED:
            problems.append(f"resume recomputed {resumed['stages']}")
        problems += [
            f"resumed clusters: {p}"
            for p in check_same_assignment(resumed_clusters, fresh_clusters)
        ]
        metrics = {f"pipelines.checkpointed.{k}": v for k, v in fresh["metrics"].items()}
        metrics["pipelines.checkpointed.resume_s"] = resume_s
        metrics["pipelines.checkpointed.ckpt_bytes_per_input_byte"] = (
            ckpt_bytes / os.path.getsize(pages)
        )
        metrics["state.manifest.bytes_written"] = ckpt_bytes
        metrics["state.manifest.files_written"] = ckpt_files
        return metrics, [f"checkpointed: {p}" for p in problems]


# ---------------------------------------------------------------- CC ----


def _skewed_edges(seed: int, hub_leaves: int, chains: int, chain_nodes: int,
                  groups: int, group_nodes: int) -> pa.Table:
    """One hub star, ``chains`` paths and ``groups`` random trees; node urls
    carry random tokens, so which url is a component's smallest varies."""
    rng = np.random.default_rng(seed)
    left: list[str] = []
    right: list[str] = []

    def url(kind: str, i: int, j: int) -> str:
        return f"https://h{rng.integers(0, 1 << 32):08x}.example/{kind}{i}/{j}"

    hub = url("hub", 0, 0)
    for j in range(hub_leaves):
        left.append(hub)
        right.append(url("leaf", 0, j))
    for c in range(chains):
        nodes = [url("chain", c, j) for j in range(chain_nodes)]
        left += nodes[:-1]
        right += nodes[1:]
    for g in range(groups):
        nodes = [url("group", g, j) for j in range(group_nodes)]
        for j in range(1, group_nodes):
            left.append(nodes[int(rng.integers(0, j))])
            right.append(nodes[j])
    left_a, right_a = np.array(left, dtype=object), np.array(right, dtype=object)
    flip = rng.random(len(left_a)) < 0.5
    left_a[flip], right_a[flip] = right_a[flip], left_a[flip].copy()
    order = rng.permutation(len(left_a))
    return pa.table({"left_url": left_a[order], "right_url": right_a[order]})


def _prepare_cc(work: str, seed: int) -> dict:
    edges = _skewed_edges(seed, CC_HUB_LEAVES, CC_CHAINS, CC_CHAIN_NODES,
                          CC_GROUPS, CC_GROUP_NODES)
    expected = union_find_labels(edges["left_url"].to_pylist(),
                                 edges["right_url"].to_pylist())
    return {
        "cc_edges": _write(edges, os.path.join(work, "edges.parquet")),
        "cc_expected": _write(expected, os.path.join(work, "expected.parquet")),
    }


def _trace_cc(inputs: dict) -> tuple[dict, list[str]]:
    """``connected_components`` on its distributed path over the skewed
    edge table, and one exchange over the same edge rows to compare it with."""
    import ray.data as rd

    from ertransfer_ray.stages.clustering import connected_components
    from ertransfer_ray.stages.groupby import exchange_group_apply

    edges = rd.read_parquet(inputs["cc_edges"]).materialize()
    out, cc_s = _timed(
        lambda: connected_components(
            edges, driver_threshold=CC_IN_PROCESS_MAX_EDGES
        ).to_pandas()
    )
    _, ex_s = _timed(
        lambda: exchange_group_apply(
            edges, "left_url", lambda df: df.groupby("left_url", as_index=False).size()
        ).materialize()
    )
    sizes = out.groupby("cluster_id").size()
    metrics = {
        "stages.clustering.cc_s": cc_s,
        "stages.clustering.cc_nodes": len(out),
        "stages.clustering.cc_components": len(sizes),
        "stages.clustering.cc_largest_component": int(sizes.max()),
        "stages.groupby.exchange_group_apply_s": ex_s,
        "stages.clustering.exchange_equivalents": cc_s / ex_s,
    }
    expected = pd.read_parquet(inputs["cc_expected"])
    problems = check_min_url_labels(out) + check_same_assignment(out, expected)
    return metrics, [f"distributed clustering: {p}" for p in problems]


# --------------------------------------------------------------- ops ----


class OpsSf01(Workload):
    """Twelve registry queries, each checked against its DuckDB oracle. Its
    traced run also measures ``connected_components`` on its distributed
    path, the other layer whose cost is exchanges."""

    name = "ops_sf01"
    op_limit_s = 60.0

    @staticmethod
    def prepare(work, seed):
        import duckdb

        import __ray_entry__
        from tables import write_tables

        sf_dir, warm_dir = os.path.join(work, "sf"), os.path.join(work, "warm_sf")
        paths = write_tables(sf_dir, seed, OPS_SF)
        write_tables(warm_dir, seed + 1, OPS_WARM_SF)
        oracles = __ray_entry__.oracle_sql()
        con = duckdb.connect()
        try:
            for t in OPS_TABLES:
                con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{paths[t]}')")
            expected = {
                q: _write(con.sql(oracles[q]).arrow(), os.path.join(work, f"oracle_{q}.parquet"))
                for q in OPS_QUERIES
            }
        finally:
            con.close()
        return {"sf_dir": sf_dir, "warm_dir": warm_dir, "expected": expected,
                **_prepare_cc(work, seed)}

    def open(self):
        import __ray_entry__

        self.queries = __ray_entry__.queries()
        self.expected = {q: pd.read_parquet(p) for q, p in self.inputs["expected"].items()}

    def _query(self, q: str, sf_dir: str) -> pd.DataFrame:
        out = self.queries[q](sf_dir)
        return out if isinstance(out, pd.DataFrame) else out.to_pandas()

    def warm_up(self):
        self.open()
        self._query(OPS_WARM_QUERY, self.inputs["warm_dir"])

    def round(self):
        return [
            Op(
                q,
                lambda q=q: self._query(q, self.inputs["sf_dir"]),
                lambda out, q=q: compare_frames(out, self.expected[q]),
            )
            for q in OPS_QUERIES
        ]

    def trace(self, untraced):
        # Each query is one public call that returns its complete output, so
        # the untraced round already times this layer; running the twelve
        # again would only add 15-27 s to a run.
        metrics = {f"ops.{r[0].name}_s": r[1] for r in untraced}
        cc_metrics, problems = _trace_cc(self.inputs)
        metrics.update(cc_metrics)
        return metrics, problems


WORKLOADS = {w.name: w for w in (ErPages, OpsSf01)}

