"""Sketch-gate benchmarks: the Bloom decontamination arm and the
Misra–Gries heavy-hitters path vs their exact-exchange counterparts.

Experiment A — decontaminate at 1.6M docs (sf0.1 expanded x320; eval set =
the unexpanded doc_id % 50 == 0 slice, so a few percent of the corpus is
genuinely contaminated through surviving 5-gram spans):
  - decontam_join  : the exact exchange arm, forced by a payload limit of
    0 (``joins.PAYLOAD_LIMIT``); every corpus shingle rides the exchange;
  - decontam_bloom : strategy="bloom"; broadcast Bloom clears clean docs
    map-side, only the suspicious slice rides the exchange;
  - decontam_broadcast (reference): the exact arm the gate picks for this
    eval set, the broadcast one.
All three must agree on the survivor count.

Experiment B — top-10 terms over a 2M-doc corpus with a ~10^6-term Zipf
vocabulary (the regime the MG path exists for):
  - full exchange (corpus_top_terms shape): one row per distinct
    block×term;
  - Misra–Gries two-pass (counters=4096): ≤ 4096+1 rows per block.
Both must return the identical certified top-10.

Each arm runs in a fresh subprocess with its own ray.init(num_cpus=N).

Usage:
  python tools/bench_sketchgates.py             # all arms at 32 CPUs
  python tools/bench_sketchgates.py --arm decontam_bloom 32
"""

import json
import os
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

FACTOR = int(os.environ.get("GRAFT_EXPAND_FACTOR", "320"))
DOCS = f"/tmp/graft_bench/documents_x{FACTOR}_sf0.1.parquet"
ZIPF_DIR = "/tmp/graft_bench/zipf_corpus_v1"
ZIPF_DOCS = 2_000_000
ZIPF_VOCAB = 1_000_000
ZIPF_WPD = 20


def build_corpora() -> None:
    from ertransfer_ray.sources.expand import expand_documents

    sf = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    expand_documents(f"{sf}/documents.parquet", DOCS, factor=FACTOR)

    if os.path.isdir(ZIPF_DIR) and os.path.exists(f"{ZIPF_DIR}/_done"):
        return
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    os.makedirs(ZIPF_DIR, exist_ok=True)
    shards = 32
    per = ZIPF_DOCS // shards
    for s in range(shards):
        rng = np.random.default_rng(1000 + s)
        ranks = rng.zipf(1.2, size=per * ZIPF_WPD)
        ranks = np.minimum(ranks, ZIPF_VOCAB)
        words = np.char.add("t", ranks.astype("U8"))
        texts = [" ".join(words[i * ZIPF_WPD:(i + 1) * ZIPF_WPD]) for i in range(per)]
        ids = np.arange(s * per, (s + 1) * per, dtype=np.int64)
        pq.write_table(
            pa.table({"doc_id": pa.array(ids), "text": pa.array(texts, pa.string())}),
            f"{ZIPF_DIR}/part-{s:02d}.parquet",
        )
    open(f"{ZIPF_DIR}/_done", "w").write("ok")


def run_arm(arm: str, num_cpus: int) -> None:
    import ray

    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR")
    import ray.data as rd
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    out = {"arm": arm, "num_cpus": num_cpus}

    if arm.startswith("decontam_"):
        from ertransfer_ray.stages import joins
        from ertransfer_ray.stages.decontam import decontaminate

        strategy = "bloom" if arm == "decontam_bloom" else "exact"
        if arm == "decontam_join":
            joins.PAYLOAD_LIMIT = 0  # force the exchange arm
        sf = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")

        def corpus():
            return rd.read_parquet(DOCS, columns=["doc_id", "text"])

        def eval_ds():
            import pyarrow as pa

            def keep_eval(t: pa.Table) -> pa.Table:
                ids = t.column("doc_id").to_numpy(zero_copy_only=False)
                return t.filter(pa.array(ids % 50 == 0))

            return rd.read_parquet(
                f"{sf}/documents.parquet", columns=["doc_id", "text"]
            ).map_batches(keep_eval, batch_format="pyarrow")

        n_docs = corpus().count()  # warm, untimed
        t0 = time.perf_counter()
        survivors = 0
        for b in decontaminate(
            corpus(), eval_ds(), shingle_words=5, strategy=strategy
        ).iter_batches(batch_format="pyarrow"):
            survivors += b.num_rows
        wall = round(time.perf_counter() - t0, 2)
        out.update(docs=n_docs, survivors=survivors, sec=wall,
                   docs_per_s=round(n_docs / wall))

    elif arm.startswith("topterms_"):
        def corpus():
            return rd.read_parquet(ZIPF_DIR, columns=["text"])

        n_docs = corpus().count()
        t0 = time.perf_counter()
        if arm == "topterms_mg":
            from ertransfer_ray.stages.heavyhitters import top_k_terms

            top = top_k_terms(corpus(), k=10, counters=4096)
        else:
            from ertransfer_ray.stages.heavyhitters import _full_exchange_top_k

            top = _full_exchange_top_k(corpus(), "text", 10, None)
        wall = round(time.perf_counter() - t0, 2)

        # exchange volume: rows each path's pass-1 partial hands the
        # grouped combine (the MG path is bounded at counters+1 per block)
        import pandas as pd

        def exch_rows(counters=None):
            def partial(df: pd.DataFrame) -> pd.DataFrame:
                ex = df["text"].fillna("").str.lower().str.split().explode().dropna()
                vc = ex.value_counts()
                if counters is not None:
                    from ertransfer_ray.stages.heavyhitters import _mg_block_summary

                    vc, _ = _mg_block_summary(vc, counters)
                return pd.DataFrame({"n": [len(vc) + (1 if counters else 0)]})
            tot = 0
            for b in corpus().map_batches(partial, batch_format="pandas").iter_batches(batch_format="pandas"):
                tot += int(b["n"].sum())
            return tot

        rows = exch_rows(4096 if arm == "topterms_mg" else None)
        out.update(docs=n_docs, sec=wall, docs_per_s=round(n_docs / wall),
                   exchange_rows=rows,
                   top=[(r.term, int(r.n)) for r in top.itertuples()])
    elif arm.startswith("incexact_"):
        # incremental exact dedup: day1 registers the expanded corpus's
        # hashes; day2 (same corpus with doc_ids shifted, so ~the whole
        # increment is a cross-increment duplicate by content) dedups
        # against the persisted store via the chosen seen_filter
        import shutil

        import numpy as np
        import pyarrow as pa

        from ertransfer_ray.stages.dedup import exact_dedup_incremental

        seen_filter = arm.split("_", 1)[1]
        state = f"/tmp/graft_bench/incexact_{seen_filter}_state"
        shutil.rmtree(state, ignore_errors=True)

        def day(shift: int, novel_half: bool = False):
            def reid(t: pa.Table) -> pa.Table:
                ids = t.column("doc_id").to_numpy(zero_copy_only=False)
                texts = t.column("text")
                if novel_half:
                    # odd ids get genuinely-new content: the realistic
                    # mostly-mixed increment (half re-crawl, half new)
                    import pyarrow.compute as pc

                    tag = pa.array(
                        np.where(ids % 2 == 1,
                                 np.char.add(" novel", ids.astype("U20")), ""),
                        pa.string(),
                    )
                    texts = pc.binary_join_element_wise(texts, tag, "")
                return pa.table(
                    {"doc_id": pa.array(ids + shift, pa.int64()), "text": texts}
                )
            return rd.read_parquet(DOCS, columns=["doc_id", "text"]).map_batches(
                reid, batch_format="pyarrow"
            )

        n_docs = day(0).count()
        t0 = time.perf_counter()
        d1 = sum(
            b.num_rows for b in exact_dedup_incremental(
                day(0), state, "day1", seen_filter=seen_filter
            ).iter_batches(batch_format="pyarrow")
        )
        day1_s = round(time.perf_counter() - t0, 2)
        t0 = time.perf_counter()
        d2 = sum(
            b.num_rows for b in exact_dedup_incremental(
                day(10_000_000, novel_half=True), state, "day2",
                seen_filter=seen_filter
            ).iter_batches(batch_format="pyarrow")
        )
        day2_s = round(time.perf_counter() - t0, 2)
        out.update(docs=n_docs, day1_survivors=d1, day1_sec=day1_s,
                   day2_survivors=d2, day2_sec=day2_s)

    else:
        raise SystemExit(f"unknown arm {arm}")

    print(json.dumps(out))
    ray.shutdown()


def main() -> None:
    if "--arm" in sys.argv:
        i = sys.argv.index("--arm")
        run_arm(sys.argv[i + 1], int(sys.argv[i + 2]))
        return
    build_corpora()
    cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    for arm in ("decontam_broadcast", "decontam_join", "decontam_bloom",
                "topterms_exact", "topterms_mg",
                "incexact_auto", "incexact_bloom"):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--arm", arm, str(cpus)],
            capture_output=True, text=True, cwd=REPO, check=True,
        )
        line = [l for l in out.stdout.splitlines() if l.startswith("{")][-1]
        print(line, flush=True)


if __name__ == "__main__":
    main()
