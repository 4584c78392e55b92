"""S7 + A8: per-epoch metrics writers and the epoch evaluation loop.

Reference: the training loop at methods/emtransformer/training.py:43-101
(per epoch: train → eval on valid → eval on every test loader → record
[epoch, f1/p/r per test, train/valid/test times], track the best-valid-F1
epoch, break when the projected runtime would exceed an 8-hour budget,
append the best row last) and the writers at transform.py:78-113
(``metrics_<test>.csv`` per test set, ``metrics_per_epoch.csv`` for the
loop). The torch TRAINER is out of engine scope (absent from this
environment and a model concern); everything around it — the loop
structure, the budget break, the DISTRIBUTED evaluation of predictions,
and the artifact formats — is an engine concern and is implemented here.
``train_step`` is caller-provided (tests drive it with a deterministic
fake, the same stance as the scorer-weight artifacts in stages/scoring).

No query, pipeline stage, CLI command or benchmark calls this module; it
stays until a later change deletes it (ROADMAP item 9).
"""

from __future__ import annotations

import os
import time

import pandas as pd

from .metrics import prf1


def eval_pair_predictions(
    ds, pred_col: str = "predictions", label_col: str = "label"
) -> dict:
    """Distributed A2 evaluation of a (prediction, label) Dataset: per-batch
    partial (tp, n_pred, n_truth) sums → driver combine → the reference's
    guarded P/R/F1 (transform.py:80-92). One streaming pass, no shuffle."""
    import pyarrow as pa

    def partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        pred = t.column(pred_col)
        lab = t.column(label_col)
        tp = pc.sum(pc.if_else(pc.equal(pred, 1), lab, 0)).as_py() or 0
        return pa.table(
            {
                "tp": pa.array([tp], pa.int64()),
                "n_pred": pa.array([pc.sum(pred).as_py() or 0], pa.int64()),
                "n_truth": pa.array([pc.sum(lab).as_py() or 0], pa.int64()),
            }
        )

    tp = n_pred = n_truth = 0
    for b in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        tp += sum(b.column("tp").to_pylist())
        n_pred += sum(b.column("n_pred").to_pylist())
        n_truth += sum(b.column("n_truth").to_pylist())
    return prf1(tp, n_pred, n_truth)


def run_epoch_loop(
    num_epochs: int,
    train_step,
    eval_valid,
    eval_tests: list,
    budget_s: float = 8 * 3600,
    clock=time.perf_counter,
) -> list[list]:
    """A8: the reference's epoch loop shape (training.py:43-101).

    Per epoch: ``train_step(epoch)`` → ``eval_valid()`` (returns the
    model-selection F1) → each ``eval_tests[i]()`` (returns a dict with
    f1/precision/recall) → row ``[epoch, f1/p/r per test, train_time,
    valid_time, test_time]``. Tracks the best-valid-F1 epoch and appends its
    row LAST (training.py:101's ``results += [best_epoch]``); breaks early
    when completed-time + last-epoch-time would exceed ``budget_s``
    (training.py:96-98)."""
    results: list[list] = []
    best_row: list = []
    best_f1 = 0.0
    t_start = clock()
    for epoch in range(num_epochs):
        t_epoch = clock()
        train_step(epoch)
        t_train = clock()
        valid_f1 = eval_valid()
        t_eval = clock()
        row: list = [epoch]
        for ev in eval_tests:
            m = ev()
            row += [m["f1"], m["precision"], m["recall"]]
        t_test = clock()
        row += [t_train - t_epoch, t_eval - t_train, t_test - t_eval]
        results.append(row)
        # >= on epoch 0 seeds best_row even when every epoch scores 0.0
        # (degenerate model) — the reference NameErrors in that case
        # (training.py:101 references an unbound best_epoch), but crashing
        # our own S7 writer on a ragged [] row helps nobody
        if valid_f1 > best_f1 or not best_row:
            best_f1 = valid_f1
            best_row = row
        if (t_test - t_start) + (t_test - t_epoch) > budget_s:
            break
    results.append(best_row)
    return results


def epoch_results_frame(results: list[list], test_names: list[str]) -> pd.DataFrame:
    """S7 column layout (transform.py:104-111): epoch, then f1/precision/
    recall per test set, then train/valid/test times; the last row is the
    best epoch."""
    cols = ["epoch"]
    for name in test_names:
        cols += [f"f1_{name}", f"precision_{name}", f"recall_{name}"]
    cols += ["train_time", "valid_time", "test_time"]
    return pd.DataFrame(results, columns=cols)


def write_epoch_metrics(
    dest_dir: str, results: list[list], test_names: list[str]
) -> str:
    """``metrics_per_epoch.csv`` (transform.py:109-111)."""
    path = os.path.join(dest_dir, "metrics_per_epoch.csv")
    epoch_results_frame(results, test_names).to_csv(path, index=False)
    return path


def write_test_metrics(
    dest_dir: str,
    test_name: str,
    metrics: dict,
    preprocess_time: float = 0.0,
    train_time: float = 0.0,
    eval_time: float = 0.0,
    train_size: int = 0,
) -> str:
    """S6-adjacent per-test-set file ``metrics_<test>.csv``
    (transform.py:93-102): one row of f1/p/r plus stage timings."""
    path = os.path.join(dest_dir, f"metrics_{test_name}.csv")
    pd.DataFrame(
        {
            "f1": [metrics["f1"]],
            "precision": [metrics["precision"]],
            "recall": [metrics["recall"]],
            "preprocess_time": [preprocess_time],
            "train_time": [train_time],
            "eval_time": [eval_time],
            "train_size": [train_size],
        }
    ).to_csv(path, index=False)
    return path
