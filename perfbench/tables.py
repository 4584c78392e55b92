"""Seeded TPC-H-shaped tables for the ``ops_sf01`` workload.

The registry queries read ``region nation customer supplier orders lineitem
events documents`` from one directory of Parquet files. This module writes
those eight tables with the column names, Arrow types and value ranges of
the repository's reference fixtures, at ``sf`` scale (``sf=0.1`` gives
600k lineitem rows), as a pure function of the seed.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
_EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]
_LANGS = ["en", "en", "en", "en", "de", "es", "fr", "zh"]
_WORDS = """a agg batch big column customer data dup fast filter group hash join
    key line merge order part query row scan slow small sort spark stream
    table the value vector window""".split()
_REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]

_DAY_US = 86_400 * 1_000_000
_ORDER_EPOCH_US = 788_918_400 * 1_000_000  # 1995-01-01
_EVENT_EPOCH_US = 1_704_067_200 * 1_000_000  # 2024-01-01


def _names(prefix: str, n: int) -> pa.Array:
    return pa.array([f"{prefix}#{i:09d}" for i in range(n)], pa.string())


def _money(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    """Uniform amounts with two decimals, as exact cents."""
    return rng.integers(round(lo * 100), round(hi * 100), n) / 100.0


def _documents(rng: np.random.Generator, n: int) -> pa.Table:
    words = np.array(_WORDS)
    lengths = rng.integers(8, 80, n)
    texts = [" ".join(words[rng.integers(0, len(words), k)]) for k in lengths]
    # a few exact duplicates, so exact dedup has groups to collapse
    for i in rng.choice(np.arange(1, n), size=max(1, n // 500), replace=False):
        texts[i] = texts[int(rng.integers(0, i))]
    return pa.table(
        {
            "doc_id": pa.array(np.arange(n), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array([_LANGS[i] for i in rng.integers(0, len(_LANGS), n)]),
            "source": pa.array([f"src{i % 20}" for i in range(n)], pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )


def generate_tables(seed: int, sf: float = 0.1) -> dict[str, pa.Table]:
    rng = np.random.default_rng(seed)
    n_cust, n_supp = int(150_000 * sf), int(10_000 * sf)
    n_orders, n_lines = int(1_500_000 * sf), int(6_000_000 * sf)
    n_events, n_docs = int(1_000_000 * sf), int(50_000 * sf)

    region = pa.table(
        {
            "r_regionkey": pa.array(np.arange(5), pa.int32()),
            "r_name": pa.array(_REGIONS, pa.string()),
        }
    )
    nation = pa.table(
        {
            "n_nationkey": pa.array(np.arange(25), pa.int32()),
            "n_name": pa.array([f"NATION_{i}" for i in range(25)], pa.string()),
            "n_regionkey": pa.array(np.arange(25) % 5, pa.int32()),
        }
    )
    customer = pa.table(
        {
            "c_custkey": pa.array(np.arange(n_cust), pa.int64()),
            "c_name": _names("Customer", n_cust),
            "c_nationkey": pa.array(rng.integers(0, 25, n_cust), pa.int32()),
            "c_acctbal": pa.array(_money(rng, -999.99, 9999.99, n_cust)),
            "c_mktsegment": pa.array(
                [_SEGMENTS[i] for i in rng.integers(0, 5, n_cust)], pa.string()
            ),
        }
    )
    supplier = pa.table(
        {
            "s_suppkey": pa.array(np.arange(n_supp), pa.int64()),
            "s_name": _names("Supplier", n_supp),
            "s_nationkey": pa.array(rng.integers(0, 25, n_supp), pa.int32()),
            "s_acctbal": pa.array(_money(rng, -999.99, 9999.99, n_supp)),
        }
    )
    order_days = rng.integers(0, 2404, n_orders)  # 1995-01-01 .. 2001-08-01
    orders = pa.table(
        {
            "o_orderkey": pa.array(np.arange(n_orders), pa.int64()),
            "o_custkey": pa.array(rng.integers(0, n_cust, n_orders), pa.int64()),
            "o_orderstatus": pa.array(
                [("F", "O", "P")[i] for i in rng.integers(0, 3, n_orders)], pa.string()
            ),
            "o_totalprice": pa.array(_money(rng, 1000.0, 500_000.0, n_orders)),
            "o_orderdate": pa.array(
                _ORDER_EPOCH_US + order_days * _DAY_US, pa.timestamp("us")
            ),
            "o_orderpriority": pa.array(
                [_PRIORITIES[i] for i in rng.integers(0, 5, n_orders)], pa.string()
            ),
        }
    )
    l_order = rng.integers(0, n_orders, n_lines)
    quantity = rng.integers(1, 51, n_lines).astype(np.float64)
    lineitem = pa.table(
        {
            "l_orderkey": pa.array(l_order, pa.int64()),
            "l_partkey": pa.array(rng.integers(0, int(200_000 * sf), n_lines), pa.int64()),
            "l_suppkey": pa.array(rng.integers(0, n_supp, n_lines), pa.int64()),
            "l_linenumber": pa.array(rng.integers(1, 8, n_lines), pa.int32()),
            "l_quantity": pa.array(quantity),
            "l_extendedprice": pa.array(
                np.round(quantity * _money(rng, 900.0, 2100.0, n_lines), 2)
            ),
            "l_discount": pa.array(rng.integers(0, 11, n_lines) / 100.0),
            "l_tax": pa.array(rng.integers(0, 9, n_lines) / 100.0),
            "l_returnflag": pa.array(
                [("A", "N", "R")[i] for i in rng.integers(0, 3, n_lines)], pa.string()
            ),
            "l_linestatus": pa.array(
                [("F", "O")[i] for i in rng.integers(0, 2, n_lines)], pa.string()
            ),
            "l_shipdate": pa.array(
                _ORDER_EPOCH_US + (order_days[l_order] + rng.integers(1, 122, n_lines)) * _DAY_US,
                pa.timestamp("us"),
            ),
        }
    )
    ev_ts = np.sort(rng.integers(0, 30 * _DAY_US, n_events))
    events = pa.table(
        {
            "event_id": pa.array(np.arange(n_events), pa.int64()),
            "ts": pa.array(_EVENT_EPOCH_US + ev_ts, pa.timestamp("us")),
            "user_id": pa.array(rng.integers(0, max(1, n_cust // 10), n_events), pa.int64()),
            "event_type": pa.array(
                [_EVENT_TYPES[i] for i in rng.integers(0, 5, n_events)], pa.string()
            ),
            "value": pa.array(np.round(rng.exponential(50.0, n_events), 2)),
            "props": pa.array(
                [f'{{"k": {k}}}' for k in rng.integers(0, 100, n_events)], pa.string()
            ),
        }
    )
    return {
        "region": region,
        "nation": nation,
        "customer": customer,
        "supplier": supplier,
        "orders": orders,
        "lineitem": lineitem,
        "events": events,
        "documents": _documents(rng, n_docs),
    }


def write_tables(out_dir: str, seed: int, sf: float = 0.1) -> dict[str, str]:
    """Write every table as ``<out_dir>/<name>.parquet``; returns name → path."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for name, table in generate_tables(seed, sf).items():
        paths[name] = os.path.join(out_dir, f"{name}.parquet")
        pq.write_table(table, paths[name])
    return paths
