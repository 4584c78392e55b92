"""Distributed PageRank over an edge-pair table — the classic web-corpus
centrality signal (Common-Crawl-style host/page ranking), and the second
iterative graph operator next to clustering.connected_components.

Beyond-reference operator (the reference has no graph analytics);
algorithm: standard power iteration with damping (Brin & Page 1998),
fixed iteration count so the result is exactly reproducible in SQL
(queries.ORACLE_SQL["doc_pagerank"] unrolls the same iterations as
chained CTEs).

Scale shape — nothing driver-sized anywhere:

- node init: one distinct-endpoint exchange → (id, 1/N) rank table;
- per iteration: ONE tagged-union hash exchange on the source id
  co-locates each node's rank row with all its out-edges, so the
  out-degree is computed IN-BUCKET (no separate degree table, no join)
  and per-edge contributions rank/deg emit as (dst, contrib) partials;
  a grouped sum (second exchange) + the teleport term produce the next
  rank table. Ranks and edges are the only shuffled rows — node- and
  edge-bounded respectively, never corpus payloads.
- each iteration materializes the node-sized rank table so the lazy plan
  never replays prior rounds.

Nodes with no in-edges keep the teleport mass (a zero-contribution row
per node rides the combine), so directed inputs are handled; undirected
similarity graphs pass ``symmetric=True`` to mirror each pair once.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def pagerank(
    pairs_ds,
    left_col: str = "left_id",
    right_col: str = "right_id",
    damping: float = 0.85,
    iterations: int = 10,
    symmetric: bool = True,
    num_buckets: int | None = None,
):
    """Dataset of (id, rank) after ``iterations`` damped power-iteration
    rounds over the edge list, ranks initialized uniformly at 1/N.
    ``symmetric=True`` treats each input pair as an undirected edge."""
    from .groupby import exchange_group_apply, grouped_aggregate

    if not 0.0 <= damping <= 1.0:
        raise ValueError(f"damping must be in [0, 1], got {damping}")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")

    def to_edges(t: pa.Table) -> pa.Table:
        a = t.column(left_col).to_numpy(zero_copy_only=False)
        b = t.column(right_col).to_numpy(zero_copy_only=False)
        if symmetric:
            src, dst = np.concatenate([a, b]), np.concatenate([b, a])
        else:
            src, dst = a, b
        return pa.table(
            {
                "src": pa.array(src, pa.int64()),
                "dst": pa.array(dst, pa.int64()),
                "_side": pa.array(np.zeros(len(src), np.int8)),
            }
        )

    edges = pairs_ds.select_columns([left_col, right_col]).map_batches(
        to_edges, batch_format="pyarrow"
    ).materialize()

    # node table: distinct endpoints via one grouped pass
    nodes = grouped_aggregate(
        edges.map_batches(
            lambda t: pa.table({"src": pa.concat_arrays(
                [t.column("src").combine_chunks(), t.column("dst").combine_chunks()]
            )}),
            batch_format="pyarrow",
        ),
        "src", {"_n": (None, "count")}, num_buckets,
    ).materialize()
    n_nodes = nodes.count()
    if n_nodes == 0:
        import ray.data as rd

        return rd.from_pandas(
            pd.DataFrame({"id": pd.Series([], dtype=np.int64),
                          "rank": pd.Series([], dtype=np.float64)})
        )
    teleport = (1.0 - damping) / n_nodes

    def init_ranks(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "src": df["src"].astype(np.int64),
                "rank": np.full(len(df), 1.0 / n_nodes),
                "_side": np.ones(len(df), np.int8),
            }
        )

    ranks = nodes.map_batches(init_ranks, batch_format="pandas").materialize()

    # zero-contribution row per node: nodes without in-edges still get a
    # row out of the combine (they keep exactly the teleport mass)
    zeros = nodes.map_batches(
        lambda df: pa.table({"dst": df["src"].to_numpy(np.int64),
                             "contrib": np.zeros(len(df))}),
        batch_format="pandas",
    ).materialize()

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"dst": pd.Series([], dtype=np.int64),
                              "contrib": pd.Series([], dtype=np.float64)})
        if df.empty or "_side" not in df.columns:
            return empty
        e = df[df["_side"] == 0]
        r = df[df["_side"] == 1]
        if e.empty or r.empty:
            return empty
        deg = e.groupby("src")["src"].transform("size")
        # project explicit columns AND restore int64 keys: the permissive
        # bucket concat gives edge rows a typed-null 'rank' column (an
        # unprojected merge would suffix rank_x/rank_y) and null-promotes
        # 'dst' to float64 — a float dst would hash to a different bucket
        # than the zeros table's int dst in the combine, splitting a
        # node's inflow across two output rows
        e = pd.DataFrame(
            {
                "src": e["src"].astype(np.int64),
                "dst": e["dst"].astype(np.int64),
                "_deg": deg.to_numpy(np.float64),
            }
        )
        m = e.merge(r[["src", "rank"]], on="src", how="inner")
        # rank / deg, NOT rank * (1/deg): the SQL oracle divides, and the
        # two differ by 1 ulp on ~20 % of operand pairs — compounded over
        # 10 iterations that could cross a round(rank, 6) boundary
        m["contrib"] = m["rank"] / m["_deg"]
        return m.groupby("dst", as_index=False)["contrib"].sum()

    for _ in range(iterations):
        partials = exchange_group_apply([edges, ranks], "src", bucket, num_buckets)
        inflow = grouped_aggregate(
            partials.union(zeros), "dst", {"contrib": ("contrib", "sum")},
            num_buckets,
        )

        def next_ranks(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "src": df["dst"].astype(np.int64),
                    "rank": teleport + damping * df["contrib"].to_numpy(),
                    "_side": np.ones(len(df), np.int8),
                }
            )

        ranks = inflow.map_batches(next_ranks, batch_format="pandas").materialize()

    return ranks.map_batches(
        lambda df: pd.DataFrame({"id": df["src"].astype(np.int64),
                                 "rank": df["rank"].astype(np.float64)}),
        batch_format="pandas",
    )
