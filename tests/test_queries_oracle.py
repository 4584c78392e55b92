"""Value-level oracle guards for the pipelines whose driver check depends on
the engine's approximate stages being exact on the test corpora:

- er_documents: the SQL oracle is the score-graph connected components
  (semantic spec); the engine's MinHash-LSH blocking must achieve recall 1.0
  against that exact edge set on the synthetic corpora, else the driver's
  hash compare regresses. Asserted here at sf0.001 so a blocking change
  that loses recall fails in pytest, not in the driver.
- ngram_jaccard_pairs: exact inverted-index near-dup, value-parity with the
  exploded-shingle SQL.

Also asserts the id-only shuffle contract of the near-dup stages (the
blocking.py:85-91 rule): key rows carry ONLY (key, id) — no text/vectors.
"""

import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from ertransfer_ray.pipelines.queries import ORACLE_SQL, build_queries
from ertransfer_ray.stages import joins
from ertransfer_ray.stages.dedup import (
    _ShingleMinHash,
    embedding_neardup_pairs,
    minhash_lsh_dedup_pairs,
    ngram_jaccard_pairs,
)

SF = "/root/testdata/sf0.001"

needs_testdata = pytest.mark.skipif(
    not os.path.exists(f"{SF}/documents.parquet"), reason="testdata absent"
)


def _oracle(name: str) -> pd.DataFrame:
    con = duckdb.connect()
    # view only the tables present: needs_testdata gates on documents alone,
    # so a partial testdata dir must not break documents-only oracles
    for table in ("documents", "embeddings"):
        if os.path.exists(f"{SF}/{table}.parquet"):
            con.execute(
                f"CREATE VIEW {table} AS SELECT * FROM "
                f"read_parquet('{SF}/{table}.parquet')"
            )
    return con.execute(ORACLE_SQL[name]).fetchdf()


@needs_testdata
def test_er_documents_matches_exact_score_graph_oracle():
    eng = build_queries()["er_documents"](SF).reset_index(drop=True)
    sql = _oracle("er_documents").reset_index(drop=True)
    assert len(eng) == len(sql)
    assert eng.equals(sql), "LSH blocking lost recall vs the exact edge set"


@needs_testdata
def test_ngram_jaccard_matches_sql_oracle():
    eng = build_queries()["ngram_jaccard_pairs"](SF).reset_index(drop=True)
    sql = _oracle("ngram_jaccard_pairs").reset_index(drop=True)
    assert len(eng) == len(sql)
    pd.testing.assert_frame_equal(eng, sql, check_dtype=False, atol=1e-9)


def _docs():
    base = "the quick brown fox jumps over the lazy dog again and again today"
    near = "the quick brown fox jumps over the lazy dog again and again yesterday"
    other = "completely different content about databases and distributed systems design"
    return rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
                "text": pa.array(
                    [base, base, near, other, other + " extended"], pa.string()
                ),
            }
        )
    )


def test_minhash_key_shuffle_is_id_only():
    keyed = _docs().map_batches(
        _ShingleMinHash,
        fn_constructor_kwargs=dict(
            id_col="doc_id", text_col="text", num_perm=32, num_bands=8
        ),
        batch_format="pyarrow",
        concurrency=2,
    )
    assert set(keyed.schema().names) == {"band_key", "doc_id"}
    assert keyed.schema().types == [pa.int64(), pa.int64()]


def test_minhash_broadcast_and_join_strategies_agree(monkeypatch):
    a = (
        minhash_lsh_dedup_pairs(_docs(), jaccard_threshold=0.4)
        .to_pandas()
        .sort_values(["left_id", "right_id"], ignore_index=True)
    )
    monkeypatch.setattr(joins, "PAYLOAD_LIMIT", 0)  # force the exchange arm
    b = (
        minhash_lsh_dedup_pairs(_docs(), jaccard_threshold=0.4)
        .to_pandas()
        .sort_values(["left_id", "right_id"], ignore_index=True)
    )
    pd.testing.assert_frame_equal(
        a[["left_id", "right_id", "jaccard"]], b[["left_id", "right_id", "jaccard"]]
    )


def test_ngram_broadcast_and_join_strategies_agree(monkeypatch):
    from ertransfer_ray.stages.dedup import ngram_jaccard_pairs

    def run():
        out = (
            ngram_jaccard_pairs(_docs(), jaccard_threshold=0.4)
            .to_pandas()
            .sort_values(["left_id", "right_id"], ignore_index=True)
        )
        return out[["left_id", "right_id", "jaccard"]].astype(
            {"left_id": "int64", "right_id": "int64"}
        )

    a = run()
    monkeypatch.setattr(joins, "PAYLOAD_LIMIT", 0)  # exchange verification
    pd.testing.assert_frame_equal(a, run())
    # key sets past their gate too: no shingle prefilter, unfiltered text side
    monkeypatch.setattr(joins, "KEY_SET_LIMIT", 0)
    pd.testing.assert_frame_equal(a, run())


def _emb(n=40, dim=8, seed=3):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n // 2, dim))
    near = base + 0.01 * rng.standard_normal((n // 2, dim))
    vecs = np.concatenate([base, near])
    return rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(range(n), pa.int64()),
                "embedding": pa.array(vecs.tolist(), pa.list_(pa.float64())),
            }
        )
    )


def test_embedding_neardup_strategies_agree(monkeypatch):
    a = (
        embedding_neardup_pairs(_emb(), cosine_threshold=0.99, num_buckets=4)
        .to_pandas()
        .sort_values(["left_id", "right_id"], ignore_index=True)
    )
    monkeypatch.setattr(joins, "PAYLOAD_LIMIT", 0)  # force the exchange arm
    b = (
        embedding_neardup_pairs(_emb(), cosine_threshold=0.99, num_buckets=4)
        .to_pandas()
        .sort_values(["left_id", "right_id"], ignore_index=True)
    )
    assert len(a) >= 1
    pd.testing.assert_frame_equal(
        a[["left_id", "right_id"]], b[["left_id", "right_id"]]
    )
    np.testing.assert_allclose(a["cosine"], b["cosine"], atol=1e-12)


@needs_testdata
def test_simhash_pigeonhole_exhaustive_at_hamming3():
    """At max_hamming=3 the 4 rotated 16-bit prefixes guarantee every
    qualifying pair shares a bucket (3 flipped bits can touch at most 3 of
    the 4 chunks), so the stage's output must equal brute-force all-pairs
    Hamming ≤ 3 — the value-level check for a sketch SQL can't compute."""
    import pyarrow.parquet as pq

    from ertransfer_ray.functions.hashing import hamming_distance64, simhash64
    from ertransfer_ray.stages.dedup import simhash_dedup_pairs

    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    ids = np.asarray(t.column("doc_id").to_pylist())
    sh = simhash64([x.lower().split() for x in t.column("text").to_pylist()])
    ii, jj = np.triu_indices(len(ids), k=1)
    hd = hamming_distance64(sh[ii], sh[jj])
    keep = hd <= 3
    order = np.lexsort((ids[jj[keep]], ids[ii[keep]]))
    brute = pd.DataFrame(
        {
            "left_id": ids[ii[keep]][order],
            "right_id": ids[jj[keep]][order],
            "hamming": hd[keep][order].astype("int64"),
        }
    )
    eng = (
        simhash_dedup_pairs(rd.from_arrow(t), max_hamming=3)
        .to_pandas()
        .sort_values(["left_id", "right_id"], ignore_index=True)
    )
    pd.testing.assert_frame_equal(eng, brute, check_dtype=False)


def test_ngram_jaccard_basic():
    out = ngram_jaccard_pairs(_docs(), jaccard_threshold=0.4).to_pandas()
    got = set(zip(out["left_id"], out["right_id"]))
    assert (1, 2) in got and (1, 3) in got and (2, 3) in got
    assert (4, 5) in got  # shared prefix → high char-3-gram overlap
    assert not any({a, b} == {1, 4} for a, b in got)
    # exact dup pair has jaccard exactly 1.0
    assert float(out[(out.left_id == 1) & (out.right_id == 2)]["jaccard"].iloc[0]) == 1.0


@needs_testdata
def test_kmeans_embeddings_matches_driver_lloyd():
    """Driver-side oracle for the rows-only kmeans_embeddings query
    (VERDICT r2 #6): a driver-local Lloyd's loop from the same seeded init
    and update rule must reproduce BOTH the query's cluster sizes and the
    DISTRIBUTED sufficient-statistics path's centroids (forced via
    local_threshold=0) at the query's exact config. Lloyd's is chaotic at
    cluster boundaries, so the determinism claim is same-arithmetic parity,
    not cross-arithmetic: centroids agree to the float-sum-order tolerance
    the kmeans docstring pins (~1e-12 per pass)."""
    import pyarrow.parquet as pq

    from ertransfer_ray.stages.kmeans import _init_centroids, fit_kmeans

    eng = build_queries()["kmeans_embeddings"](SF)

    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    x = np.asarray(t.column("embedding").to_pylist(), dtype=np.float64)
    emb = rd.from_arrow(t)
    cents = _init_centroids(emb, ["embedding"], k=4, seed=17)
    for _ in range(15):
        d = x @ cents.T - 0.5 * np.sum(cents * cents, axis=1)
        assign = np.argmax(d, axis=1)
        new = cents.copy()
        for c in range(4):
            if (assign == c).any():
                new[c] = x[assign == c].mean(axis=0)
        shift = float(np.max(np.linalg.norm(new - cents, axis=1)))
        cents = new
        if shift < 1e-6:
            break
    final = np.argmax(x @ cents.T - 0.5 * np.sum(cents * cents, axis=1), axis=1)
    sizes = np.bincount(final, minlength=4)
    want = {c: int(n) for c, n in enumerate(sizes) if n > 0}
    got = dict(zip(eng["cluster"], eng["n_vecs"]))
    assert got == want

    dist_model = fit_kmeans(emb, "embedding", k=4, max_iter=15, seed=17,
                            local_threshold=0)
    np.testing.assert_allclose(dist_model.centroids, cents, rtol=1e-9, atol=1e-9)


@needs_testdata
def test_deepblocker_query_config_recall_floor():
    """Pinned recall floor for the deepblocker_topk query: the IVF-probed
    top-k at the query's exact config must recover >= 0.9 of the EXACT
    top-k pairs in the same projected space (brute_force_topk). Complements
    test_deepblocker_matches_sql_oracle, which pins the IVF result itself
    value-level — this one pins how close IVF gets to exhaustive search."""
    from ertransfer_ray.stages.encoders import (
        encode_texts,
        fit_linear_autoencoder,
        project_embeddings,
    )
    from ertransfer_ray.stages.knn import brute_force_topk

    eng = build_queries()["deepblocker_topk"](SF)
    got = set(zip(eng["tableA_id"], eng["tableB_id"]))

    docs = rd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"]) \
        .map_batches(lambda t: t.rename_columns(["id", "agValue"]),
                     batch_format="pyarrow")
    enc = encode_texts(docs, text_col="agValue", id_col="id",
                       dim=256, ngram=3, seed=13).materialize()
    ae = fit_linear_autoencoder(enc, vec_col="embedding", dim_out=16)
    proj = project_embeddings(enc, ae, id_col="id").materialize()
    pdf = proj.to_pandas().sort_values("id", ignore_index=True)
    q = np.asarray(pdf["embedding"].tolist(), dtype=np.float64)
    exact = brute_force_topk(proj, q, k=3, id_col="id", vec_col="embedding")
    qids = pdf["id"].to_numpy()
    exact_pairs = {
        (int(qids[r.qid]), int(r.id))
        for r in exact.itertuples()
        if int(qids[r.qid]) != int(r.id)
    }
    # the query keeps top-2 non-self per doc; exact set is top-3 incl. self,
    # so compare on the intersection domain: exact non-self pairs the query
    # could have emitted (rank <= 2 after dropping self)
    exact_top2 = {}
    for r in exact.itertuples():
        a, b = int(qids[r.qid]), int(r.id)
        if a == b:
            continue
        exact_top2.setdefault(a, []).append((r.rank, b))
    want = {(a, b) for a, lst in exact_top2.items()
            for _, b in sorted(lst)[:2]}
    recall = np.mean([p in got for p in sorted(want)])
    assert recall >= 0.9, f"deepblocker query-config recall {recall:.3f} < 0.9"


@needs_testdata
def test_minhash_neardup_matches_sql_oracle(ray_session):
    # round 5: the query persists band keys as a parquet side-input; the
    # SQL oracle re-derives pairing + char-3-gram Jaccard verification
    eng = build_queries()["minhash_neardup_pairs"](SF).reset_index(drop=True)
    ora = _oracle("minhash_neardup_pairs").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        eng, ora.astype({c: eng[c].dtype for c in eng.columns}),
        check_like=True,
    )


@needs_testdata
def test_kmeans_matches_sql_oracle(ray_session):
    # round 5: the query persists the FITTED centroids as a side-input; the
    # SQL oracle re-derives the assignment rule (argmax x·c − ½‖c‖², ties →
    # lowest cluster) and the per-cluster counts independently in DuckDB
    eng = build_queries()["kmeans_embeddings"](SF).reset_index(drop=True)
    ora = _oracle("kmeans_embeddings").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        eng, ora.astype({c: eng[c].dtype for c in eng.columns}),
        check_like=True,
    )


@needs_testdata
def test_quality_classifier_matches_sql_oracle(ray_session):
    # round 5: fitted w + per-doc hashed features persist as side-inputs;
    # the SQL oracle re-derives the whole scoring map σ(x·w) → ROUND 6
    eng = build_queries()["doc_quality_classifier"](SF).reset_index(drop=True)
    ora = _oracle("doc_quality_classifier").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        eng, ora.astype({c: eng[c].dtype for c in eng.columns}),
        check_like=True,
    )


@needs_testdata
def test_deepblocker_matches_sql_oracle(ray_session):
    # round 5: projected unit vectors + IVF centroids persist as
    # side-inputs; the SQL oracle re-derives the ENTIRE IVF join —
    # B-assignment, 5-probe, bucketed cosine top-3, self-drop, top-2 —
    # with the kernel's exact (score DESC, id ASC) tie order
    key = ["tableA_id", "tableB_id"]
    eng = (
        build_queries()["deepblocker_topk"](SF)
        .sort_values(key, ignore_index=True)
    )
    ora = _oracle("deepblocker_topk").sort_values(key, ignore_index=True)
    pd.testing.assert_frame_equal(
        eng, ora.astype({c: eng[c].dtype for c in eng.columns}),
        check_like=True,
    )


@needs_testdata
def test_simhash_neardup_matches_sql_oracle(ray_session):
    # brute-force all-pairs bit_count(xor) <= 3 over persisted sketches:
    # stronger than the pipeline's banding, re-proves exhaustiveness in SQL
    eng = build_queries()["simhash_neardup_pairs"](SF).reset_index(drop=True)
    ora = _oracle("simhash_neardup_pairs").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        eng, ora.astype({c: eng[c].dtype for c in eng.columns}),
        check_like=True,
    )


@needs_testdata
@pytest.mark.parametrize("name", ["doc_pack_sequences", "doc_packed_sequences"])
def test_packing_oracles_return_engine_int64(name, ray_session):
    """The packing oracles cast their windowed SUM and ``//`` outputs to
    BIGINT: left to DuckDB those come back HUGEINT, which the driver's
    value hash sees as a different dtype from the engine's int64."""
    eng = build_queries()[name](SF).reset_index(drop=True)
    sql = _oracle(name).reset_index(drop=True)
    int64_cols = [c for c in eng.columns if eng[c].dtype == np.int64]
    assert int64_cols
    assert {c: str(sql[c].dtype) for c in int64_cols} == {c: "int64" for c in int64_cols}
    pd.testing.assert_frame_equal(eng, sql[list(eng.columns)])


def test_pack_sequences_oracle_drops_empty_edge_tokens():
    """The ``doc_pack_sequences`` oracle counts tokens like the engine and
    the ``doc_packed_sequences`` oracle: split on ``\\s+`` and drop the empty
    parts. DuckDB's ``trim`` strips only spaces, so trim + split counted a
    leading tab and a trailing newline as two extra empty tokens."""
    con = duckdb.connect()
    con.register("documents", pd.DataFrame(
        {"doc_id": [1, 2, 3, 4], "text": ["\tfoo bar\n", "", " \n ", "a  b c"]}
    ))
    out = con.execute(ORACLE_SQL["doc_pack_sequences"]).fetchdf()
    assert out["token_count"].tolist() == [2, 0, 0, 3]
    assert out["start_pos"].tolist() == [0, 2, 2, 2]


def _oracle_on(name: str, texts: list[str]) -> pd.DataFrame:
    """``ORACLE_SQL[name]`` over a documents table of ``texts`` (doc_id 1..n)."""
    con = duckdb.connect()
    con.register("documents", pd.DataFrame({
        "doc_id": np.arange(1, len(texts) + 1), "text": texts,
        "n_chars": [len(t) for t in texts], "lang": "en", "source": "src0",
    }))
    return con.execute(ORACLE_SQL[name]).fetchdf()


# doc 1 holds two tokens between a leading tab and a trailing newline;
# trim + split counted it 4, and doc 3 (whitespace only) 2
EDGE_TEXTS = ["\tfoo bar\n", "", " \n ", "a  b c"]


@pytest.mark.parametrize("name,column", [
    ("doc_token_stats", "token_count"),
    ("doc_quality", "token_count"),
    ("doc_quality_features", "n_tokens"),
])
def test_token_count_oracles_drop_empty_edge_tokens(name, column):
    """These oracles count tokens like the engine's ``token_count_batch``:
    split on ``\\s+`` and drop the empty parts (DuckDB's ``trim`` strips
    only spaces)."""
    out = _oracle_on(name, EDGE_TEXTS).sort_values("doc_id")
    assert out[column].tolist() == [2, 0, 0, 3]


_WORDS = " ".join(["the"] * 29)


@pytest.mark.parametrize("name,texts,expected", [
    # the p90 threshold over counts [2, 0, 0, 3] keeps doc 4 only
    ("doc_token_p90_filter", EDGE_TEXTS, [[4, 3]]),
    # docs with at least one token, as (doc_id, token_count)
    ("doc_weighted_sample", EDGE_TEXTS, [[1, 2], [4, 3]]),
    # total tokens over all hosts
    ("host_stats", EDGE_TEXTS, 5),
    # the cleaning filter keeps English docs of at least 30 tokens
    ("doc_clean_corpus", [f"\t{_WORDS}\n", f"{_WORDS} the"], [2]),
])
def test_token_filter_oracles_drop_empty_edge_tokens(name, texts, expected):
    out = _oracle_on(name, texts)
    if name == "host_stats":
        got = out["total_tokens"].sum()
    elif name == "doc_clean_corpus":
        got = out["doc_id"].tolist()
    else:
        got = out.sort_values("doc_id")[["doc_id", "token_count"]].values.tolist()
    assert got == expected


def test_check_oracles_flags_int_engine_against_float_oracle():
    """The local gate compares dtype classes before ``canon`` casts within
    them: an int64 engine column against a float64 oracle column (DuckDB's
    HUGEINT comes back float64) is a mismatch even when the values agree."""
    from tools.check_oracles import compare

    eng = pd.DataFrame({"n": np.array([1, 2], dtype=np.int64), "s": ["a", None]})
    problems = compare("q", eng, eng.astype({"n": np.float64}))
    assert problems == ["dtype kind differs in 'n': ray=int (int64) sql=float (float64)"]
    # within a class the widths may differ, as DuckDB's INTEGER does
    assert compare("q", eng, eng.astype({"n": np.int32})) == []
    # object columns are classed by their values: Python ints are int,
    # Python floats are float
    as_obj = eng.assign(n=pd.Series([1, 2], dtype=object))
    assert compare("q", as_obj, eng) == []
    assert compare("q", eng.assign(n=pd.Series([1.0, 2.0], dtype=object)),
                   eng.astype({"n": np.float64})) == []
    assert compare("q", as_obj, eng.astype({"n": np.float64})) == [
        "dtype kind differs in 'n': ray=int (object) sql=float (float64)"]
    # an all-null column matches any class
    nans = pd.DataFrame({"n": [np.nan, np.nan], "s": ["a", None]})
    assert compare("q", nans, nans.assign(n=pd.Series([None, None], dtype=object))) == []


def test_check_oracles_loads_its_own_checkout(tmp_path):
    """A copy of the script in another checkout checks that checkout's
    queries and oracles, not those of the working directory."""
    import shutil
    import subprocess
    import sys
    from pathlib import Path

    repo = Path(__file__).resolve().parents[1]
    other = tmp_path / "other"
    (other / "tools").mkdir(parents=True)
    shutil.copy(repo / "tools" / "check_oracles.py", other / "tools")
    (other / "__ray_entry__.py").write_text("")
    probe = (
        "import importlib.util, sys\n"
        "spec = importlib.util.spec_from_file_location('co', sys.argv[1])\n"
        "co = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(co)\n"
        "print(co.load_entry().__file__)\n"
        "print(sys.path[0])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, str(other / "tools" / "check_oracles.py")],
        cwd=repo, env={**os.environ, "PYTHONPATH": str(repo)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    entry_file, first_path = proc.stdout.split()
    assert entry_file == str(other / "__ray_entry__.py")
    assert first_path == str(other)


def test_queries_module_compiles_with_warnings_as_errors():
    """No string in queries.py holds an invalid escape sequence (a
    SyntaxWarning now, an error under ``-W error`` and in future Pythons)."""
    import warnings

    import ertransfer_ray.pipelines.queries as q

    with open(q.__file__, encoding="utf-8") as f:
        source = f.read()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(source, q.__file__, "exec")


def test_read_of_a_pandas_written_table_logs_no_schema_hash_warning(tmp_path):
    """``queries._read`` strips the pandas metadata a pandas-written file
    carries, so Ray's schema unification over its repartitioned blocks
    hashes the schemas and logs no "Failed to hash the schemas". A plain
    ``read_parquet`` of the same file logs it once per unification. (Ray's
    loggers do not propagate to the root, so the test listens on the one
    that logs it.)"""
    import logging

    import ray
    from ray.data._internal.arrow_ops import transform_pyarrow

    from ertransfer_ray.pipelines.queries import _read

    pd.DataFrame({
        "k": np.arange(300) % 7,
        "v": np.arange(300, dtype=np.float64),
        "ts": pd.date_range("2020-01-01", periods=300, freq="h"),
    }).to_parquet(tmp_path / "t.parquet")

    class Count(logging.Handler):
        n = 0

        def emit(self, record):
            Count.n += "Failed to hash the schemas" in record.getMessage()

    def warnings_on_unify(ds) -> int:
        blocks = ray.get(ds.repartition(3).materialize().to_arrow_refs())
        Count.n = 0
        handler = Count()
        transform_pyarrow.logger.addHandler(handler)
        try:
            for b in blocks:
                transform_pyarrow.unify_schemas([b.schema, b.schema])
        finally:
            transform_pyarrow.logger.removeHandler(handler)
        return Count.n

    assert warnings_on_unify(rd.read_parquet(str(tmp_path / "t.parquet"))) == 3
    read = _read(str(tmp_path), "t")
    assert warnings_on_unify(read) == 0
    got = read.to_pandas()
    assert list(got.columns) == ["k", "v", "ts"] and str(got["ts"].dtype) == "datetime64[ns]"
    assert list(_read(str(tmp_path), "t", ["ts", "k"]).to_pandas().columns) == ["ts", "k"]
