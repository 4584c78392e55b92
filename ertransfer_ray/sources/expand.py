"""Deterministic corpus expansion for scale/bench runs.

Expands the ``documents`` table by an integer factor with realistic
near-duplicate structure: per source doc, variant 0 is the original,
variants 1-2 are light perturbations (near-duplicates — the ER pipeline
should cluster them), and variants 3+ are word-shuffled (same vocabulary,
disjoint word-shingles — effectively distinct documents). Every variant is
a pure function of (doc_id, variant, seed), so the expanded corpus is
byte-identical across runs and parallelism levels — the precondition for
an apples-to-apples two-parallelism-level throughput comparison
(BASELINE.md scaling criterion).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


def _variant_words(words: list[str], doc_id: int, variant: int, seed: int) -> list[str]:
    rng = np.random.default_rng(seed * 1_000_003 + doc_id * 131 + variant)
    ws = list(words)
    n = len(ws)
    if variant == 0 or n < 8:
        return ws
    if variant <= 2:
        # near-duplicate: drop ~3%, substitute ~5% with a variant marker
        drop = rng.random(n) < 0.03
        ws = [w for w, d in zip(ws, drop) if not d]
        for i in np.nonzero(rng.random(len(ws)) < 0.05)[0]:
            ws[i] = f"v{variant}tok{i % 7}"
        return ws
    # distinct: full shuffle destroys word-shingle overlap
    rng.shuffle(ws)
    return ws


def expand_documents(
    src_parquet: str,
    out_parquet: str,
    factor: int = 20,
    seed: int = 13,
) -> str:
    """Write the expanded corpus (doc_id:int64, text:string) as a DIRECTORY
    of 32 parquet files — a single file makes the benchmark read+decode a
    one-task serial stage (measured ~2 s of the high-CPU leg); multiple
    files parallelize the scan naturally, exactly as a real corpus would be
    laid out. Cached — regenerated only when fingerprint/factor/seed change.
    """
    meta_path = out_parquet + ".meta.json"
    st = os.stat(src_parquet)
    fingerprint = f"{src_parquet}:{st.st_size}:{int(st.st_mtime)}:{factor}:{seed}:v2"
    if os.path.isdir(out_parquet) and os.path.exists(meta_path):
        with open(meta_path) as f:
            if json.load(f).get("fingerprint") == fingerprint:
                return out_parquet

    src = pq.read_table(src_parquet, columns=["doc_id", "text"])
    ids = src.column("doc_id").to_pylist()
    texts = src.column("text").to_pylist()
    out_ids: list[int] = []
    out_texts: list[str] = []
    for did, text in zip(ids, texts):
        words = text.split()
        for v in range(factor):
            out_ids.append(did * factor + v)
            out_texts.append(" ".join(_variant_words(words, did, v, seed)))
    tbl = pa.table(
        {"doc_id": pa.array(out_ids, pa.int64()), "text": pa.array(out_texts, pa.string())}
    )
    os.makedirs(os.path.dirname(out_parquet) or ".", exist_ok=True)
    tmp = out_parquet + ".tmp"
    if os.path.exists(tmp):
        import shutil

        shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    n_files = 32
    n = tbl.num_rows
    step = (n + n_files - 1) // n_files
    for i in range(n_files):
        part = tbl.slice(i * step, step)
        if part.num_rows:
            pq.write_table(part, os.path.join(tmp, f"part-{i:04d}.parquet"))
    if os.path.isdir(out_parquet) or os.path.isfile(out_parquet):
        import shutil

        if os.path.isdir(out_parquet):
            shutil.rmtree(out_parquet)
        else:
            os.remove(out_parquet)
    os.replace(tmp, out_parquet)
    with open(meta_path, "w") as f:
        json.dump({"fingerprint": fingerprint, "rows": len(out_ids)}, f)
    return out_parquet
