"""Unsupervised EM pair matcher — the reference's ZeroER family (T7,
/root/reference/methods/zeroer/entrypoint.py:53-66): no labels, model the
pair-feature distribution as a 2-component mixture (match / non-match) and
let EM separate them. The transitivity option (``run_trans``) maps to
feeding the resulting high-probability pairs into connected components,
exactly like the threshold path.

Ray-native shape: the E-step and M-step sufficient statistics are computed
DISTRIBUTED (per-batch partials via map_batches, combined on the driver —
the "iterative driver loop over aggregates" pattern SURVEY §2.3 prescribes
for T7); only the tiny parameter vector lives on the driver. Features are
the same scorer family (stages/scoring.compute_pair_features).

Model: diagonal Gaussian mixture with 2 components over the feature
columns; responsibilities → ``prob`` (the S5 prediction contract). The
component with the higher feature mean is "match" (similarity features are
all increasing-in-matchiness). Initialization is deterministic: split at
the global feature-mean.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .scoring import FEATURE_COLUMNS, compute_pair_features


def _partial_moments(df: pd.DataFrame, params: dict | None, cols: list[str]) -> pd.DataFrame:
    """One batch's E-step + M-step sufficient statistics.

    Returns a single row: [n_k, sum_k(x), sum_k(x²)] for both components
    (plain sums — algebraically combinable across batches).
    """
    X = df[cols].to_numpy(dtype=np.float64)
    if params is None:
        # init responsibilities: above/below the midpoint of feature space
        score = X.mean(axis=1)
        r1 = (score > 0.5).astype(np.float64)
    else:
        r1 = _responsibilities(X, params)
    r0 = 1.0 - r1
    out = {}
    for k, r in ((0, r0), (1, r1)):
        out[f"n_{k}"] = [r.sum()]
        for j, c in enumerate(cols):
            out[f"s_{k}_{c}"] = [(r * X[:, j]).sum()]
            out[f"q_{k}_{c}"] = [(r * X[:, j] ** 2).sum()]
    return pd.DataFrame(out)


def _responsibilities(X: np.ndarray, params: dict) -> np.ndarray:
    """P(match | x) under the current diagonal-Gaussian mixture."""
    logp = []
    for k in (0, 1):
        mu = params["mu"][k]
        var = params["var"][k]
        lp = -0.5 * (((X - mu) ** 2) / var + np.log(2 * np.pi * var)).sum(axis=1)
        logp.append(lp + np.log(params["pi"][k]))
    m = np.maximum(logp[0], logp[1])
    e0 = np.exp(logp[0] - m)
    e1 = np.exp(logp[1] - m)
    return e1 / (e0 + e1)


def _combine(partials: pd.DataFrame, cols: list[str], min_var: float = 1e-4) -> dict:
    tot = partials.sum(axis=0)
    n = np.array([max(tot[f"n_{k}"], 1e-9) for k in (0, 1)])
    mu = np.array([[tot[f"s_{k}_{c}"] / n[k] for c in cols] for k in (0, 1)])
    var = np.array(
        [
            [max(tot[f"q_{k}_{c}"] / n[k] - (tot[f"s_{k}_{c}"] / n[k]) ** 2, min_var) for c in cols]
            for k in (0, 1)
        ]
    )
    pi = n / n.sum()
    # component 1 must be "match": the one with larger mean similarity
    if mu[1].mean() < mu[0].mean():
        mu, var, pi = mu[::-1].copy(), var[::-1].copy(), pi[::-1].copy()
    return {"mu": mu, "var": var, "pi": np.maximum(pi, 1e-6)}


def em_score_pairs(
    pairs_ds,
    max_iters: int = 15,
    tol: float = 1e-5,
    feature_columns: list[str] | None = None,
):
    """Fit the 2-component mixture by distributed EM and emit
    (left_url, right_url, prob) — the S5 contract, no labels used.

    Each iteration: one pass of per-batch partial moments (map_batches, no
    shuffle) → driver combine (a dict of 2×|features| numbers) → broadcast
    of the new parameters via closure capture. Converges on the parameter
    delta; pairs dataset is materialized once and re-scanned per iteration.
    """
    cols = feature_columns or [
        c for c in FEATURE_COLUMNS if c not in ("title_num_jaccard",)
    ]
    feats = pairs_ds.map_batches(
        lambda df: compute_pair_features(df, set(cols)), batch_format="pandas"
    ).materialize()

    params = None
    for _ in range(max_iters):
        partials = feats.map_batches(
            lambda df, p=params: _partial_moments(df, p, cols), batch_format="pandas"
        ).to_pandas()
        new_params = _combine(partials, cols)
        if params is not None:
            delta = float(np.abs(new_params["mu"] - params["mu"]).max())
            params = new_params
            if delta < tol:
                break
        else:
            params = new_params

    def score(df: pd.DataFrame, p=params) -> pd.DataFrame:
        X = df[cols].to_numpy(dtype=np.float64)
        out = df[["left_url", "right_url"]].copy()
        # ZeroER clips the posterior into [0,1] after a small shift
        # (methods/zeroer/transform.py:56-57); plain clip here
        out["prob"] = np.clip(_responsibilities(X, p), 0.0, 1.0)
        return out

    return feats.map_batches(score, batch_format="pandas"), params


def propagate_scores(predictions_ds, alpha: float = 0.5, rounds: int = 1):
    """T8/GNEM dataflow: smooth each pair's score toward the mean score of
    its pair-graph neighbors (pairs sharing an endpoint — the adjacency the
    GNEM wrapper feeds its GCN, /root/reference/methods/gnem/transform.py:16-46;
    the GCN itself lives in an absent fork, so this is the 1-layer
    mean-aggregation round of that graph with a residual mix).

    new_prob = (1-α)·prob + α·mean(neighbor probs); pairs without neighbors
    keep their score. Distributed: per-endpoint (sum, count) via one grouped
    aggregate, joined back per pair (each endpoint's own score subtracted),
    so a round is two shuffles — no adjacency materialization.

    Returns the smoothed predictions Dataset (left_url, right_url, prob).
    """
    from .groupby import grouped_aggregate
    from .joins import bucketed_join

    out = predictions_ds
    for _ in range(rounds):
        exploded = out.map_batches(
            lambda df: pd.concat(
                [
                    pd.DataFrame({"node": df["left_url"], "p": df["prob"]}),
                    pd.DataFrame({"node": df["right_url"], "p": df["prob"]}),
                ],
                ignore_index=True,
            ),
            batch_format="pandas",
        )
        stats = grouped_aggregate(
            exploded, "node", {"nsum": ("p", "sum"), "ncnt": (None, "count")}
        )
        lstats = stats.map_batches(
            lambda df: df.rename(
                columns={"node": "left_url", "nsum": "lsum", "ncnt": "lcnt"}
            ),
            batch_format="pandas",
        )
        rstats = stats.map_batches(
            lambda df: df.rename(
                columns={"node": "right_url", "nsum": "rsum", "ncnt": "rcnt"}
            ),
            batch_format="pandas",
        )
        j = bucketed_join(out, lstats, "left_url")
        j = bucketed_join(j, rstats, "right_url")

        def smooth(df: pd.DataFrame, a=alpha) -> pd.DataFrame:
            s = df["prob"].astype(np.float64).to_numpy()
            cnt = (
                df["lcnt"].astype(np.float64) + df["rcnt"].astype(np.float64) - 2
            ).to_numpy()
            tot = (
                df["lsum"].astype(np.float64) + df["rsum"].astype(np.float64)
            ).to_numpy() - 2 * s
            mean = np.divide(tot, cnt, out=np.zeros_like(tot), where=cnt > 0)
            new = np.where(cnt > 0, (1 - a) * s + a * mean, s)
            out_df = df[["left_url", "right_url"]].copy()
            out_df["prob"] = new
            return out_df

        out = j.map_batches(smooth, batch_format="pandas").materialize()
    return out


def neighbor_lists(pairs_ds, side: str = "left_url", max_neighbors: int = 64):
    """J7: per-entity neighbor lists over the candidate pair graph — the
    GNEM pair-graph adjacency (pairs sharing a record are neighbors,
    /root/reference/methods/gnem/transform.py:16-46) as a grouped op.

    Returns (url, neighbors:list<string>, degree:int64), neighbors sorted
    and capped deterministically.
    """
    from .groupby import exchange_group_apply

    other = "right_url" if side == "left_url" else "left_url"

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.sort_values([side, other])
            .groupby(side, sort=False)[other]
            .agg(lambda s: list(dict.fromkeys(s))[:max_neighbors])
        )
        return pd.DataFrame(
            {
                "url": g.index.to_numpy(),
                "neighbors": g.to_numpy(),
                "degree": [np.int64(len(v)) for v in g.to_numpy()],
            }
        )

    return exchange_group_apply(
        pairs_ds.select_columns([side, other]), side, per_bucket
    )
