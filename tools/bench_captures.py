"""run_er capture-dedup benchmark (round-4 verdict #7): measure the
`dedup_captures=True` pre-stage's exchange cost at 3.2M docs.

Builds a captures-shaped corpus from the x640-expanded sf0.1 documents:
every doc gets one newest capture; 1 in 4 gets a SECOND, older capture
under a URL-variant alias (`?utm_source=feed`, canonicalized away by
urlnorm) — the CommonCrawl shape stages/crawl.py models. 3.2M docs →
4M capture rows. With the loser-identity redesign the decision side is
the ~0.8M LOSER keys (~40 MB), under the key-set gate's limit
(``joins.KEY_SET_LIMIT``), so the gate takes the anti-broadcast arm —
that IS the production path this corpus shape would take; pass a
duplicate-heavier corpus (or set ``joins.KEY_SET_LIMIT = 0`` in
``run_arm``) to exercise the exchange arm. Measured ledger in
BASELINE.md covers both designs.

Usage:
  python tools/bench_captures.py              # orchestrate both arms
  python tools/bench_captures.py --arm 1 32   # one arm (subprocess)

Prints one JSON line per arm {"dedup_captures": bool, "sec": ..., ...}
and, in orchestrator mode, a summary line.
"""

import json
import os
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

FACTOR = int(os.environ.get("GRAFT_EXPAND_FACTOR", "640"))
CAPTURES = f"/tmp/graft_bench/captures_x{FACTOR}"


def build_corpus() -> str:
    """Expand + capture-shape the corpus (cached via the marker file)."""
    marker = CAPTURES + ".meta.json"
    if os.path.isdir(CAPTURES) and os.path.exists(marker):
        return CAPTURES

    import ray

    ray.init(address="local", num_cpus=16, include_dashboard=False,
             logging_level="ERROR")
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from ertransfer_ray.sources.expand import expand_documents

    sf = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    docs = expand_documents(
        f"{sf}/documents.parquet", f"/tmp/graft_bench/documents_x{FACTOR}_sf0.1.parquet",
        factor=FACTOR,
    )

    def to_captures(t: pa.Table) -> pa.Table:
        # same normalization as sources/pages.documents_as_pages
        text = t.column("text")
        lower = pc.utf8_lower(text)
        norm = pc.utf8_trim_whitespace(
            pc.replace_substring_regex(lower, r"[^\w]+", " ")
        )
        title = pc.utf8_slice_codeunits(norm, 0, 80)
        ids = t.column("doc_id")
        sid = pc.cast(ids, pa.string())
        url = pc.binary_join_element_wise("http://ex.com/doc/", sid, "")
        # newest capture ts varies per doc; older alias is 1e6 us earlier
        ts = pc.add(pc.cast(pc.bit_wise_and(ids, 1023), pa.int64()),
                    pa.scalar(2_000_000, pa.int64()))
        newest = pa.table(
            {"url": url, "warc_ts": ts, "norm_text": norm, "norm_title": title}
        )
        dup_mask = pc.equal(pc.cast(pc.bit_wise_and(ids, 3), pa.int64()), 0)
        d = newest.filter(dup_mask)
        older = pa.table(
            {
                "url": pc.binary_join_element_wise(
                    d.column("url"), "?utm_source=feed", ""
                ),
                "warc_ts": pc.subtract(
                    d.column("warc_ts"), pa.scalar(1_000_000, pa.int64())
                ),
                "norm_text": d.column("norm_text"),
                "norm_title": d.column("norm_title"),
            }
        )
        return pa.concat_tables([newest, older])

    import shutil

    shutil.rmtree(CAPTURES, ignore_errors=True)
    rd.read_parquet(docs, columns=["doc_id", "text"]).map_batches(
        to_captures, batch_format="pyarrow"
    ).write_parquet(CAPTURES)
    with open(marker, "w") as f:
        json.dump({"factor": FACTOR}, f)
    ray.shutdown()
    return CAPTURES


def run_arm(dedup_captures: bool, num_cpus: int) -> None:
    import ray

    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR")
    import ray.data as rd
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from ertransfer_ray.pipelines.er_pipeline import ERConfig, run_er
    from ertransfer_ray.stages.scoring import DOCUMENTS_WEIGHTS

    rd.read_parquet(CAPTURES).count()  # warm page cache, untimed
    t0 = time.perf_counter()
    pages = rd.read_parquet(
        CAPTURES, columns=["url", "warc_ts", "norm_text", "norm_title"],
        override_num_blocks=64,
    )
    cfg = ERConfig(
        tokenization="shingles",
        weights=DOCUMENTS_WEIGHTS,
        scorer_batch_size=2048,
        sn_prefix=0,
        num_buckets=32,
        pair_dedup=False,
    )
    if not dedup_captures:
        pages = pages.drop_columns(["warc_ts"])  # plain headline shape
    res = run_er(pages, cfg, normalized=True, dedup_captures=dedup_captures)
    rows = 0
    for b in res["clusters"].iter_batches(batch_format="pyarrow"):
        rows += b.num_rows
    dt = round(time.perf_counter() - t0, 2)
    print(json.dumps({
        "dedup_captures": dedup_captures,
        "sec": dt,
        "cluster_rows": rows,
        "num_cpus": num_cpus,
    }))
    ray.shutdown()


def main() -> None:
    if len(sys.argv) > 1 and sys.argv[1] == "--arm":
        run_arm(sys.argv[2] == "1", int(sys.argv[3]))
        return
    num_cpus = int(sys.argv[1]) if len(sys.argv) > 1 else 32
    build_corpus()
    out = {}
    for arm in ("1", "0"):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--arm", arm, str(num_cpus)],
            capture_output=True, text=True, check=True, cwd=REPO,
        )
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        print(json.dumps(row))
        out[arm] = row
    print(json.dumps({
        "summary": "dedup_captures on vs off, same 4M-capture corpus",
        "with_sec": out["1"]["sec"],
        "without_sec": out["0"]["sec"],
        "with_clusters": out["1"]["cluster_rows"],
        "without_clusters": out["0"]["cluster_rows"],
        "num_cpus": num_cpus,
    }))


if __name__ == "__main__":
    main()
