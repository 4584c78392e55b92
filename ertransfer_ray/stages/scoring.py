"""Pairwise scoring stage: a scorer class that turns candidate pairs into
match probabilities.

Ray-native analog of the reference's matcher step (T5/T6): the scorer is a
callable CLASS — weights/config load once in ``__init__`` (the reference
loads its HF checkpoint once per process, /root/reference/methods/
emtransformer/entrypoint.py:83-109), feature computation per batch in
``__call__``. ``run_er`` builds one instance and ships it to stateless
tasks; ``score_pairs`` can also hand the class to an actor pool.

Features are the reference's classical matcher family
(/root/reference/methods/magellan/entrypoint.py:63-127 auto-generates the
same kinds): token-Jaccard over text tokens, q-gram Jaccard + Jaro-Winkler
over titles, length ratio — combined by a logistic model whose weights are a
loadable artifact (JSON), mirroring the reference's model-checkpoint reuse
(S9). Output contract matches the reference prediction table
(methods/magellan/transform.py:15-17): (left_url, right_url, prob).

The features are batch kernels (:func:`compute_pair_features`): each
distinct payload and title of a batch is tokenized once, and the set
Jaccards and Jaro-Winkler run in numpy over every pair at once
(``functions/simfuncs.csr_*``), equal bit for bit to the scalar
``jaccard`` / ``jaro_winkler``.
"""

from __future__ import annotations

import itertools
import json
import re

import numpy as np
import pandas as pd

from ..functions.simfuncs import (
    codepoint_csr,
    csr_jaccard,
    csr_jaro_winkler,
    csr_sets,
    csr_trigram_keys,
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

_DIGITS = re.compile(r"\d+")


def _distinct(left: pd.Series, right: pd.Series):
    """Row of every left, then every right, value in the batch's distinct
    values, and those values."""
    rows, uniq = pd.factorize(
        pd.concat([left, right], ignore_index=True), use_na_sentinel=False
    )
    return rows[: len(left)], rows[len(left):], list(uniq)


def _token_csr(token_lists: list[list[str]]) -> tuple[np.ndarray, np.ndarray]:
    """Token lists → CSR rows of batch-local token codes, in order."""
    lens = np.fromiter(map(len, token_lists), np.int64, len(token_lists))
    flat = np.fromiter(itertools.chain.from_iterable(token_lists), object, lens.sum())
    return np.concatenate([[0], np.cumsum(lens)]), pd.factorize(flat)[0]


def compute_pair_features(
    batch: pd.DataFrame, needed: set[str] | None = None
) -> pd.DataFrame:
    """Per-batch feature kernel over candidate pair rows, with no Python
    work per pair.

    Payloads and titles are factorized, so each distinct text is tokenized
    once per batch (a page recurs in ~8 pairs of a 2,048-pair batch): words
    and word 3-shingles of the payload, code points, 3-grams and digit runs
    of the title. Each token family is a CSR of per-text codes; the set
    features are :func:`csr_jaccard` over its sorted-unique sets and
    ``title_jw`` is :func:`csr_jaro_winkler` over the code points. Every
    value equals the scalar composition (``jaccard``, ``jaro_winkler``,
    ``len``) bit for bit.

    ``needed`` limits computation to the listed features — the scorer passes
    its non-zero-weight set, so e.g. the documents configuration (only
    shingle Jaccard + length ratio) never tokenizes titles. Unrequested
    features are emitted as 0.0 columns.
    """
    need = set(FEATURE_COLUMNS if needed is None else needed)
    out = pd.DataFrame(
        {
            "left_url": batch["left_url"].to_numpy(),
            "right_url": batch["right_url"].to_numpy(),
        }
    )
    feats = {}
    if need & {"text_jaccard", "text_shingle_jaccard", "len_ratio"}:
        left, right, texts = _distinct(batch["left_payload"], batch["right_payload"])
        if need & {"text_jaccard", "text_shingle_jaccard"}:
            words = _token_csr([t.split() for t in texts])
            if "text_jaccard" in need:
                feats["text_jaccard"] = csr_jaccard(*csr_sets(*words), left, right)
            if "text_shingle_jaccard" in need:
                shingles = csr_sets(*csr_trigram_keys(*words))
                feats["text_shingle_jaccard"] = csr_jaccard(*shingles, left, right)
        if "len_ratio" in need:
            lens = np.fromiter(map(len, texts), np.int64, len(texts))
            mx = np.maximum(lens[left], lens[right])
            ratio = np.ones(len(mx))
            np.divide(np.minimum(lens[left], lens[right]), mx, out=ratio, where=mx > 0)
            feats["len_ratio"] = ratio
    if need & {"title_qgram_jaccard", "title_jw", "title_num_jaccard"}:
        left, right, titles = _distinct(batch["left_title"], batch["right_title"])
        chars = codepoint_csr(titles)
        if "title_qgram_jaccard" in need:
            grams = csr_sets(*csr_trigram_keys(*chars))
            feats["title_qgram_jaccard"] = csr_jaccard(*grams, left, right)
        if "title_jw" in need:
            feats["title_jw"] = csr_jaro_winkler(*chars, left, right)
        if "title_num_jaccard" in need:
            digits = csr_sets(*_token_csr([_DIGITS.findall(t) for t in titles]))
            feats["title_num_jaccard"] = csr_jaccard(*digits, left, right)
    for name in FEATURE_COLUMNS:
        out[name] = feats.get(name, 0.0)
    return out


class PairScorer:
    """Scorer: features → logistic probability.

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
