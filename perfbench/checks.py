"""Output checks of the benchmark, computed apart from the library.

Every function here is plain pandas/NumPy and returns a list of problems
(empty when the output is correct), so one failing operation can be
reported without stopping the run. ``test_checks.py`` feeds each check a
known-good case and a corrupted one.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

MIN_F1 = 0.99


def union_find_labels(left, right) -> pd.DataFrame:
    """Components of the edge list as ``(url, cluster_id)``, where the
    cluster id is the smallest url of the component."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for a, b in zip(left, right):
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            # the smaller url stays root, so every root is its component's min
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra
    urls = sorted(parent)
    return pd.DataFrame({"url": urls, "cluster_id": [find(u) for u in urls]})


def check_min_url_labels(clusters: pd.DataFrame) -> list[str]:
    """Each url appears once and each cluster id is its cluster's smallest url."""
    problems = []
    if clusters["url"].duplicated().any():
        problems.append(f"{int(clusters['url'].duplicated().sum())} urls appear twice")
    smallest = clusters.groupby("cluster_id")["url"].min()
    bad = smallest.index != smallest.to_numpy()
    if bad.any():
        problems.append(f"{int(bad.sum())} clusters are not labelled by their smallest url")
    return problems


def pairwise_f1(clusters: pd.DataFrame, truth_pairs: pd.DataFrame) -> float:
    """Pairwise F1 of ``clusters (url, cluster_id)`` on the labelled pairs
    ``truth_pairs (left_url, right_url, label)``: a pair is predicted a
    match when both urls share a cluster. Urls missing from ``clusters``
    are singletons."""
    label = dict(zip(clusters["url"], clusters["cluster_id"]))
    left = truth_pairs["left_url"].map(lambda u: label.get(u, u)).to_numpy()
    right = truth_pairs["right_url"].map(lambda u: label.get(u, u)).to_numpy()
    same, positive = left == right, truth_pairs["label"].to_numpy() == 1
    tp = int((same & positive).sum())
    errors = int((same != positive).sum())
    return 1.0 if tp + errors == 0 else 2.0 * tp / (2.0 * tp + errors)


def check_er_clusters(clusters: pd.DataFrame, urls: pd.Series,
                      truth_pairs: pd.DataFrame) -> list[str]:
    """The ER acceptance check: min-url labels, urls from the input, and
    pairwise F1 ≥ 0.99 on the generator's truth pairs."""
    problems = check_min_url_labels(clusters)
    unknown = ~clusters["url"].isin(urls)
    if unknown.any():
        problems.append(f"{int(unknown.sum())} cluster urls are not input pages")
    f1 = pairwise_f1(clusters, truth_pairs)
    if f1 < MIN_F1:
        problems.append(f"pairwise F1 {f1:.4f} < {MIN_F1}")
    return problems


def check_same_assignment(got: pd.DataFrame, expected: pd.DataFrame) -> list[str]:
    """``got`` and ``expected`` hold the same ``(url, cluster_id)`` rows."""
    a = got[["url", "cluster_id"]].sort_values("url", ignore_index=True)
    b = expected[["url", "cluster_id"]].sort_values("url", ignore_index=True)
    if len(a) != len(b):
        return [f"{len(a)} assigned urls, expected {len(b)}"]
    differ = (a["url"].to_numpy() != b["url"].to_numpy()) | (
        a["cluster_id"].to_numpy() != b["cluster_id"].to_numpy()
    )
    return [f"{int(differ.sum())} urls differ from the expected assignment"] if differ.any() else []


def _kind(s: pd.Series) -> str:
    if pd.api.types.is_bool_dtype(s):
        return "bool"
    if pd.api.types.is_integer_dtype(s):
        return "int"
    if pd.api.types.is_float_dtype(s):
        return "float"
    if pd.api.types.is_datetime64_any_dtype(s):
        return "datetime"
    return "object"


def _canon(df: pd.DataFrame, columns: list[str]) -> pd.DataFrame:
    df = df[columns].copy()
    for c in columns:
        kind = _kind(df[c])
        if kind == "datetime":
            df[c] = df[c].astype("datetime64[us]")
        elif kind in ("int", "float"):
            df[c] = df[c].astype(f"{kind}64")
    # exact columns first, so near-equal floats do not decide the row order
    order = [c for c in columns if _kind(df[c]) != "float"] + [
        c for c in columns if _kind(df[c]) == "float"
    ]
    return df.sort_values(order, ignore_index=True)


def compare_frames(got: pd.DataFrame, expected: pd.DataFrame) -> list[str]:
    """Order-insensitive equality of a query result and its oracle result:
    same column names and kinds, same row count, same values. Floats agree
    to 1e-9 relative or one unit of the third decimal, the rounding step of
    the oracles (summation order may move the last rounded digit)."""
    if sorted(got.columns) != sorted(expected.columns):
        return [f"columns {sorted(got.columns)} != oracle {sorted(expected.columns)}"]
    columns = sorted(expected.columns)
    kinds = {c: (_kind(got[c]), _kind(expected[c])) for c in columns}
    problems = [f"column {c} is {g}, oracle {e}" for c, (g, e) in kinds.items() if g != e]
    if len(got) != len(expected):
        problems.append(f"{len(got)} rows, oracle {len(expected)}")
    if problems:
        return problems
    a, b = _canon(got, columns), _canon(expected, columns)
    for c in columns:
        av, bv = a[c].to_numpy(), b[c].to_numpy()
        if kinds[c][0] == "float":
            bad = ~np.isclose(av, bv, rtol=1e-9, atol=1.001e-3, equal_nan=True)
        else:
            bad = av != bv
        if bad.any():
            i = int(np.argmax(bad))
            problems.append(f"column {c}: {int(bad.sum())} values differ, first {av[i]!r} != {bv[i]!r}")
    return problems
