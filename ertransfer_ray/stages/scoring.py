"""Pairwise scoring stage: a stateful actor pool that turns candidate pairs
into match probabilities.

Ray-native analog of the reference's matcher step (T5/T6): the scorer is a
callable CLASS handed to ``map_batches(cls, concurrency=N, batch_size=B)`` —
weights/config load once per actor in ``__init__`` (the reference loads its
HF checkpoint once per process, /root/reference/methods/emtransformer/
entrypoint.py:83-109), feature computation per batch in ``__call__``.

Features are the reference's classical matcher family
(/root/reference/methods/magellan/entrypoint.py:63-127 auto-generates the
same kinds): token-Jaccard over text tokens, q-gram Jaccard + Jaro-Winkler
over titles, length ratio — combined by a logistic model whose weights are a
loadable artifact (JSON), mirroring the reference's model-checkpoint reuse
(S9). Output contract matches the reference prediction table
(methods/magellan/transform.py:15-17): (left_url, right_url, prob).
"""

from __future__ import annotations

import json

import numpy as np
import pandas as pd

from ..functions.simfuncs import (
    batch_jaro_winkler,
    batch_token_jaccard,
    length_ratio,
    qgrams,
)

#: Default logistic weights; calibrated on the synthetic corpus
#: (tests/test_er_pipeline.py asserts pairwise F1 ≥ 0.99 with these).
#: ``title_num_jaccard`` (agreement of digit tokens — model numbers, years)
#: is the classical hard-negative killer: near-identical titles that differ
#: only in the model number are different entities.
DEFAULT_WEIGHTS = {
    "bias": -15.0,
    "text_jaccard": 10.0,
    "text_shingle_jaccard": 0.0,
    "title_qgram_jaccard": 6.0,
    "title_jw": 5.0,
    "len_ratio": 2.0,
    "title_num_jaccard": 4.0,
}

#: Weights for bulk-text near-dup semantics (documents corpus): unigram sets
#: saturate on bag-of-words text, so only the sequence-sensitive word-shingle
#: Jaccard discriminates true near-duplicates from vocabulary overlap.
DOCUMENTS_WEIGHTS = {
    "bias": -6.0,
    "text_jaccard": 0.0,
    "text_shingle_jaccard": 12.0,
    "title_qgram_jaccard": 0.0,
    "title_jw": 0.0,
    "len_ratio": 2.0,
    "title_num_jaccard": 0.0,
}

FEATURE_COLUMNS = [
    "text_jaccard",
    "text_shingle_jaccard",
    "title_qgram_jaccard",
    "title_jw",
    "len_ratio",
    "title_num_jaccard",
]

_DIGITS = None  # compiled lazily (regex import kept top-level-free for pickling)


def _digit_tokens(s: str) -> frozenset:
    global _DIGITS
    if _DIGITS is None:
        import re

        _DIGITS = re.compile(r"\d+")
    return frozenset(_DIGITS.findall(s))


def compute_pair_features(
    batch: pd.DataFrame, needed: set[str] | None = None
) -> pd.DataFrame:
    """Per-batch feature kernel over candidate pair rows.

    ``needed`` limits computation to the listed features — the scorer passes
    its non-zero-weight set, so e.g. the documents configuration (only
    shingle Jaccard + length ratio) never pays for the O(len²) Jaro-Winkler
    kernel. Unrequested features are emitted as 0.0 columns.
    """
    need = FEATURE_COLUMNS if needed is None else needed
    lt = batch["left_payload"].tolist()
    rt = batch["right_payload"].tolist()
    ltt = batch["left_title"].tolist()
    rtt = batch["right_title"].tolist()
    n = len(lt)
    out = pd.DataFrame(
        {
            "left_url": batch["left_url"].to_numpy(),
            "right_url": batch["right_url"].to_numpy(),
        }
    )
    lt_words = rt_words = None
    if "text_jaccard" in need or "text_shingle_jaccard" in need:
        lt_words = [t.split() for t in lt]
        rt_words = [t.split() for t in rt]

    out["text_jaccard"] = (
        batch_token_jaccard(lt_words, rt_words) if "text_jaccard" in need else 0.0
    )

    if "text_shingle_jaccard" in need:

        def shingles(ws: list[str]) -> list[str]:
            if len(ws) <= 3:
                return [" ".join(ws)] if ws else []
            return [" ".join(ws[i : i + 3]) for i in range(len(ws) - 2)]

        out["text_shingle_jaccard"] = batch_token_jaccard(
            [shingles(w) for w in lt_words], [shingles(w) for w in rt_words]
        )
    else:
        out["text_shingle_jaccard"] = 0.0

    out["title_qgram_jaccard"] = (
        batch_token_jaccard([qgrams(t, 3) for t in ltt], [qgrams(t, 3) for t in rtt])
        if "title_qgram_jaccard" in need
        else 0.0
    )
    out["title_jw"] = batch_jaro_winkler(ltt, rtt) if "title_jw" in need else 0.0
    out["len_ratio"] = length_ratio(lt, rt) if "len_ratio" in need else 0.0
    out["title_num_jaccard"] = (
        batch_token_jaccard(
            [_digit_tokens(t) for t in ltt], [_digit_tokens(t) for t in rtt]
        )
        if "title_num_jaccard" in need
        else 0.0
    )
    return out


class PairScorer:
    """Actor-pool scorer: features → logistic probability.

    ``weights`` may be a dict, a JSON file path, or None (defaults). At 100 TB
    the same class holds the real model: load it here, once per actor.
    """

    def __init__(self, weights: dict | str | None = None, keep_features: bool = False):
        if isinstance(weights, str):
            with open(weights) as f:
                weights = json.load(f)
        self.w = dict(DEFAULT_WEIGHTS if weights is None else weights)
        self.keep_features = keep_features
        # only compute features the model actually uses (zero weight → skip)
        self.needed = {f for f in FEATURE_COLUMNS if self.w.get(f, 0.0) != 0.0}

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        feats = compute_pair_features(batch, self.needed)
        z = np.full(len(feats), self.w["bias"], dtype=np.float64)
        for name in FEATURE_COLUMNS:
            z += self.w[name] * feats[name].to_numpy()
        prob = 1.0 / (1.0 + np.exp(-z))
        cols = ["left_url", "right_url"] + (FEATURE_COLUMNS if self.keep_features else [])
        out = feats[cols].copy()
        out["prob"] = prob
        return out


#: CPUs an actor pool leaves to the read/shuffle/write stages: a pool that
#: reserves every CPU deadlocks the streaming executor (observed on a 4-CPU
#: session with concurrency=4).
POOL_RESERVE_CPUS = 2


def pool_map_batches(ds, fn_cls, fn_constructor_kwargs: dict,
                     concurrency: int | tuple[int, int] | None = None, **map_kwargs):
    """``ds.map_batches(fn_cls)`` on an actor pool of at most the session's
    CPUs less :data:`POOL_RESERVE_CPUS`: ``None`` autoscales up to that
    cap, an int is clamped to it, a tuple is kept.

    On a session with no CPU beyond the reserve even one actor holds a CPU
    the read that feeds it needs (a one-CPU ``minhash_neardup_pairs`` made
    no progress in 63 s), so the stage runs as a task map of one instance
    built here, fused with the read — the ``score_pairs`` "tasks" form."""
    import ray

    total = int(ray.cluster_resources().get("CPU", 4)) if ray.is_initialized() else 4
    cap = total - POOL_RESERVE_CPUS
    if cap < 1:
        return ds.map_batches(fn_cls(**fn_constructor_kwargs), **map_kwargs)
    if concurrency is None:
        concurrency = (1, cap)
    elif isinstance(concurrency, int):
        concurrency = max(1, min(concurrency, cap))
    return ds.map_batches(
        fn_cls, fn_constructor_kwargs=fn_constructor_kwargs,
        concurrency=concurrency, **map_kwargs,
    )


def score_pairs(
    pairs_ds,
    weights: dict | str | None = None,
    concurrency: int | tuple[int, int] | str | None = "tasks",
    batch_size: int = 2048,
    num_cpus: float = 1,
    keep_features: bool = False,
):
    """pairs Dataset → predictions Dataset (left_url, right_url, prob).

    Execution modes:
    - ``"tasks"`` (default): the scorer instance is built once on the driver
      and shipped to stateless tasks — elastic scheduling, no CPU
      reservations, shares the cluster perfectly with the shuffle stages.
      Correct whenever scorer state is cheap to serialize (these logistic
      weights). Measured: a FIXED pool of cpus-2 actors starved the
      upstream all-to-all stages (170s vs 44s on a 100k-doc corpus).
    - int → fixed actor pool of that size (clamped to leave shuffle
      headroom), tuple → autoscaling pool; tasks again on a session of at
      most two CPUs (:func:`pool_map_batches`). Use pools when per-actor
      setup is expensive (real model weights, tokenizers — the T5
      pattern), and size them well below the CPU count.
    """
    if concurrency == "tasks":
        return pairs_ds.map_batches(
            PairScorer(weights=weights, keep_features=keep_features),
            batch_format="pandas",
            batch_size=batch_size,
            num_cpus=num_cpus,
        )
    return pool_map_batches(
        pairs_ds,
        PairScorer,
        {"weights": weights, "keep_features": keep_features},
        concurrency,
        batch_format="pandas",
        batch_size=batch_size,
        num_cpus=num_cpus,
    )


def fit_logistic_weights(
    pairs_df: pd.DataFrame,
    epochs: int = 5,
    lr: float = 2.0,
    l2: float = 1e-3,
    iters_per_epoch: int = 100,
) -> dict:
    """Deterministic matcher training: full-batch gradient descent on the
    logistic loss over the pair-feature kernel (the train half of the
    reference's matcher step, methods/emtransformer/training.py:16-103 —
    the torch loop replaced by a closed numpy one since features are 6-dim
    and bounded). Same (features, labels) → same weights at any
    parallelism: init 0, fixed lr/l2, no sampling. Returns a weights dict
    in the PairScorer/DEFAULT_WEIGHTS shape, storable as model.json (S9).
    """
    feats = compute_pair_features(pairs_df)
    X = feats[FEATURE_COLUMNS].to_numpy(dtype=np.float64)
    y = pairs_df["label"].to_numpy(dtype=np.float64)
    n = max(len(y), 1)
    w = np.zeros(X.shape[1])
    b = 0.0
    for _ in range(max(1, epochs) * iters_per_epoch):
        z = X @ w + b
        p = 1.0 / (1.0 + np.exp(-z))
        err = p - y
        w -= lr * (X.T @ err / n + l2 * w)
        b -= lr * float(err.mean())
    out = {"bias": float(b)}
    out.update({name: float(v) for name, v in zip(FEATURE_COLUMNS, w)})
    return out


def matcher_metrics(predictions_df: pd.DataFrame, truth_pos: set, theta: float = 0.5) -> dict:
    """A2 global matcher metrics with the reference's zero-prediction guard
    (/root/reference/methods/emtransformer/transform.py:81-92)."""
    pred_pos = predictions_df[predictions_df["prob"] > theta]
    n_pred = len(pred_pos)
    tp = sum(
        (a, b) in truth_pos
        for a, b in pred_pos[["left_url", "right_url"]].itertuples(index=False)
    )
    precision = tp / n_pred if n_pred else 0.0
    recall = tp / len(truth_pos) if truth_pos else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
    return {"tp": tp, "predicted": n_pred, "truth": len(truth_pos),
            "precision": precision, "recall": recall, "f1": f1}
