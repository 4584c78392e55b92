"""Local replica of the driver's correctness gate: run every queries() entry
and its oracle_sql() through DuckDB on the same parquet, compare row count,
column names, and order-insensitive values.

Usage: python tools/check_oracles.py [sf_dir] [query ...]
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import duckdb
import numpy as np
import pandas as pd

#: The checkout this script belongs to. Its queries are checked against its
#: own oracles, whatever the working directory or PYTHONPATH.
CHECKOUT = Path(__file__).resolve().parents[1]

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data as rd

    if isinstance(res, rd.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype("float64")
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
    return df.sort_values(list(df.columns), ignore_index=True)


#: pandas ``infer_dtype`` names of an object column's values, mapped onto
#: the classes that ``dtype_kind`` gives typed columns.
_INFERRED_KIND = {"integer": "int", "floating": "float", "mixed-integer-float": "float",
                  "string": "string", "boolean": "bool"}


def dtype_kind(s: pd.Series) -> str | None:
    """The dtype class the driver's value hash tells apart: int, float,
    string or bool. Object columns are classed by their non-null values; other
    dtypes by their numpy kind. An all-null column has no class (None) and
    matches any. ``canon`` casts within a class, so this is checked before
    it."""
    if s.isna().all():
        return None
    if pd.api.types.is_bool_dtype(s):
        return "bool"
    if pd.api.types.is_integer_dtype(s):
        return "int"
    if pd.api.types.is_float_dtype(s):
        return "float"
    if s.dtype == object or pd.api.types.is_string_dtype(s):
        kind = pd.api.types.infer_dtype(s, skipna=True)
        return _INFERRED_KIND.get(kind, kind)
    return s.dtype.kind


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> list[str]:
    problems = []
    if sorted(ray_df.columns) != sorted(sql_df.columns):
        problems.append(f"columns differ: ray={sorted(ray_df.columns)} sql={sorted(sql_df.columns)}")
        return problems
    for c in sorted(ray_df.columns):
        rk, sk = dtype_kind(ray_df[c]), dtype_kind(sql_df[c])
        if rk is not None and sk is not None and rk != sk:
            problems.append(f"dtype kind differs in '{c}': ray={rk} ({ray_df[c].dtype}) sql={sk} ({sql_df[c].dtype})")
    if len(ray_df) != len(sql_df):
        problems.append(f"row count differs: ray={len(ray_df)} sql={len(sql_df)}")
    a, b = canon(ray_df), canon(sql_df)
    if len(a) == len(b):
        for c in a.columns:
            av, bv = a[c].to_numpy(), b[c].to_numpy()
            if pd.api.types.is_float_dtype(a[c]):
                bad = ~np.isclose(av.astype(float), bv.astype(float), rtol=0, atol=1e-9, equal_nan=True)
            else:
                bad = av != bv
            if bad.any():
                i = int(np.argmax(bad))
                problems.append(f"values differ in '{c}' at sorted row {i}: ray={av[i]!r} sql={bv[i]!r} ({int(bad.sum())} rows)")
    return problems


def load_entry():
    """This checkout's ``__ray_entry__``, with the checkout first on
    ``sys.path`` so that the package it imports lazily is this one too."""
    sys.path.insert(0, str(CHECKOUT))
    import __ray_entry__

    return __ray_entry__


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    entrymod = load_entry()
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            ray_df = to_pandas(fn(sf_dir))
        except Exception as e:  # noqa: BLE001
            print(f"FAIL {name}: query raised {type(e).__name__}: {e}")
            failures += 1
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"ok   {name}: rows-only ({len(ray_df)} rows, {dt:.1f}s)")
            continue
        try:
            sql_df = con.sql(oracles[name]).df()
        except Exception as e:  # noqa: BLE001
            print(f"FAIL {name}: oracle SQL raised {type(e).__name__}: {e}")
            failures += 1
            continue
        problems = compare(name, ray_df, sql_df)
        if problems:
            failures += 1
            print(f"FAIL {name} ({len(ray_df)} vs {len(sql_df)} rows, {dt:.1f}s)")
            for p in problems:
                print(f"     - {p}")
        else:
            print(f"ok   {name}: MATCH ({len(ray_df)} rows, {dt:.1f}s)")
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
