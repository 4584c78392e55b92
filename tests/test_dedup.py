import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from ertransfer_ray.stages.dedup import (
    embedding_neardup_pairs,
    exact_dedup,
    exact_dedup_summary,
    minhash_lsh_dedup,
    minhash_lsh_dedup_pairs,
    simhash_dedup_pairs,
)


def _docs():
    base = "the quick brown fox jumps over the lazy dog again and again today"
    near = "the quick brown fox jumps over the lazy dog again and again yesterday"
    other = "completely different content about databases and distributed systems design"
    return rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
                "text": pa.array([base, base, near, other, other + " extended"], pa.string()),
            }
        )
    )


def test_exact_dedup():
    out = exact_dedup(_docs(), "doc_id").to_pandas().sort_values("doc_id")
    # doc 2 is an exact dup of doc 1 → dropped; others unique
    assert out["doc_id"].tolist() == [1, 3, 4, 5]


def test_exact_dedup_summary():
    out = exact_dedup_summary(_docs(), "doc_id").to_pandas().sort_values("keep_id")
    assert out["keep_id"].tolist() == [1, 3, 4, 5]
    assert out[out["keep_id"] == 1]["dup_count"].iloc[0] == 2


def test_exact_dedup_summary_ships_no_text(monkeypatch):
    """The summary's exchange carries only the id and the content hash."""
    from ertransfer_ray.stages import dedup

    seen = []
    real = dedup.exchange_group_apply

    def spy(ds, *args, **kwargs):
        seen.append(ds.schema().names)
        return real(ds, *args, **kwargs)

    monkeypatch.setattr(dedup, "exchange_group_apply", spy)
    out = exact_dedup_summary(_docs(), "doc_id").to_pandas()
    assert len(out) == 4
    assert seen and all("text" not in names for names in seen), seen


def test_minhash_lsh_finds_near_dups():
    pairs = minhash_lsh_dedup_pairs(_docs(), jaccard_threshold=0.4).to_pandas()
    got = set(zip(pairs["left_id"], pairs["right_id"]))
    assert (1, 2) in got  # exact dup
    assert (1, 3) in got or (2, 3) in got  # near dup
    assert not any({a, b} == {4, 1} for a, b in got)


def test_minhash_lsh_dedup_groups():
    out = minhash_lsh_dedup(_docs(), jaccard_threshold=0.4).to_pandas()
    m = dict(zip(out["doc_id"], out["group_id"]))
    assert m[1] == m[2] == 1
    assert m.get(3, 1) == 1  # near-dup joins the group transitively


def test_simhash_finds_near_dups():
    pairs = simhash_dedup_pairs(_docs(), max_hamming=12).to_pandas()
    got = set(zip(pairs["left_id"], pairs["right_id"]))
    assert (1, 2) in got


def test_simhash_star_mode_preserves_components():
    """expand_cliques=False emits linear star pairs with identical
    connectivity: union-find over both pair sets gives the same grouping."""
    texts = (
        ["alpha beta gamma delta epsilon zeta"] * 4      # exact-dup family
        + ["alpha beta gamma delta epsilon zet"] * 3     # near-dup of above
        + ["totally different words entirely here now"]  # singleton
    )
    docs = rd.from_arrow(
        pa.table({"doc_id": pa.array(range(8), pa.int64()),
                  "text": pa.array(texts)})
    )
    clique = simhash_dedup_pairs(docs, max_hamming=12).to_pandas()
    star = simhash_dedup_pairs(docs, max_hamming=12, expand_cliques=False).to_pandas()
    assert len(star) < len(clique)

    def components(df):
        parent = {}

        def find(x):
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for l, r in zip(df["left_id"], df["right_id"]):
            parent[find(l)] = find(r)
        groups = {}
        for x in list(parent):
            groups.setdefault(find(x), set()).add(x)
        return sorted(frozenset(g) for g in groups.values())

    assert components(clique) == components(star)
    # clique mode is exhaustive: the 4-doc exact family contributes C(4,2)
    fam = clique[(clique["left_id"] < 4) & (clique["right_id"] < 4)]
    assert len(fam) == 6 and (fam["hamming"] == 0).all()


def test_embedding_neardup_exact_bucket():
    emb = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array([1, 2, 3], pa.int64()),
                "embedding": pa.array(
                    [[1.0, 0.0], [0.99, 0.14], [0.0, 1.0]], pa.list_(pa.float32())
                ),
            }
        )
    )
    pairs = embedding_neardup_pairs(emb, cosine_threshold=0.9, num_buckets=1).to_pandas()
    got = set(zip(pairs["left_id"], pairs["right_id"]))
    assert got == {(1, 2)}


def test_auto_strategy_selects_join_past_byte_threshold():
    """The dedup family's default must degrade to the join path on a
    beyond-broadcast corpus instead of OOMing a worker (VERDICT r2 #1)."""
    from ertransfer_ray.stages.dedup import _auto_strategy

    assert _auto_strategy(_docs(), "doc_id", "text") == "broadcast"
    assert _auto_strategy(_docs(), "doc_id", "text", max_broadcast_bytes=1) == "join"


def test_auto_forced_join_agrees_with_broadcast():
    """strategy='auto' forced onto the join arm (byte threshold 1) produces
    the same verified pair set as the broadcast arm."""
    def canon(df):
        return sorted(zip(df["left_id"], df["right_id"], df["jaccard"].round(9)))

    bc = minhash_lsh_dedup_pairs(
        _docs(), jaccard_threshold=0.4, strategy="broadcast"
    ).to_pandas()
    auto_join = minhash_lsh_dedup_pairs(
        _docs(), jaccard_threshold=0.4, strategy="auto", max_broadcast_bytes=1
    ).to_pandas()
    assert canon(bc) == canon(auto_join)


def test_minhash_dedup_group_is_numeric_min():
    # CC names components lexicographically; the id casts must zero-pad so
    # docs {9, 10} group under 9, not "10" < "9"
    import pandas as pd
    import ray.data as rd

    docs = pd.DataFrame(
        {
            "doc_id": [9, 10, 50],
            "text": [
                "the quick brown fox jumps over the lazy dog again and again",
                "the quick brown fox jumps over the lazy dog again and again",
                "completely different text about other things entirely here",
            ],
        }
    )
    out = minhash_lsh_dedup(
        rd.from_pandas(docs).materialize(), jaccard_threshold=0.5
    ).to_pandas()
    m = dict(zip(out["doc_id"], out["group_id"]))
    assert m[9] == 9 and m[10] == 9


def test_dedup_family_empty_corpus_keeps_output_schema():
    """An empty corpus must yield empty results with the OUTPUT schema
    (left_id/right_id/...), not the input's — consumers select output
    columns on whatever comes back (ADVICE r2: exchange empty-input fix)."""
    import numpy as np
    import pyarrow as pa

    from ertransfer_ray.stages.dedup import ngram_jaccard_pairs

    empty = rd.from_arrow(
        pa.table({"doc_id": pa.array([], pa.int64()),
                  "text": pa.array([], pa.string())})
    )
    for fn in (minhash_lsh_dedup_pairs, ngram_jaccard_pairs):
        out = fn(empty)
        # Dataset.to_pandas() drops columns on zero rows — assert on the
        # Dataset schema, which is what downstream select_columns sees
        assert out.count() == 0
        assert {"left_id", "right_id", "jaccard"} <= set(out.schema().names), fn.__name__

    emb = rd.from_arrow(
        pa.table({"vec_id": pa.array([], pa.int64()),
                  "embedding": pa.array([], pa.list_(pa.float32()))})
    )
    out = embedding_neardup_pairs(emb, num_buckets=2)
    assert out.count() == 0
    assert {"left_id", "right_id", "cosine"} <= set(out.schema().names)


# ---------------------------------------------------------------------------
# round 4: boilerplate shingle stats (Gopher/CCNet repetition signal)
# ---------------------------------------------------------------------------

def _boiler_docs():
    import pandas as pd
    import ray.data as rd

    hot = "the quick brown fox jumps"          # shared by many docs → hot
    rows = [{"doc_id": i, "text": f"{hot} unique{i} tail{i} words{i}"}
            for i in range(10)]
    rows.append({"doc_id": 10, "text": "completely different content here now"})
    rows.append({"doc_id": 11, "text": ""})    # zero-shingle doc
    return rd.from_pandas(pd.DataFrame(rows))


def test_boilerplate_stats_broadcast_arm():
    from ertransfer_ray.stages.dedup import boilerplate_shingle_stats

    out = (
        boilerplate_shingle_stats(_boiler_docs(), hot_doc_freq=5)
        .to_pandas().sort_values("doc_id", ignore_index=True)
    )
    assert len(out) == 12
    # docs 0-9 share the 3 shingles of the hot prefix ("the quick brown",
    # "quick brown fox", "brown fox jumps") with df=10 > 5 → hot
    first = out.iloc[0]
    assert first["n_boilerplate"] == 3
    assert first["n_shingles"] == 6  # 8 words → 6 shingles, all distinct
    assert abs(first["boilerplate_ratio"] - 0.5) < 1e-12
    assert out.iloc[10]["n_boilerplate"] == 0          # unique doc
    assert out.iloc[11]["n_shingles"] == 0             # empty doc
    assert out.iloc[11]["boilerplate_ratio"] == 0.0


def test_boilerplate_stats_join_arm_agrees():
    """Force the beyond-broadcast fallback (hot set 'too big' for a worker)
    and require identical output to the broadcast arm."""
    from ertransfer_ray.stages.dedup import boilerplate_shingle_stats

    want = (
        boilerplate_shingle_stats(_boiler_docs(), hot_doc_freq=5)
        .to_pandas().sort_values("doc_id", ignore_index=True)
    )
    got = (
        boilerplate_shingle_stats(
            _boiler_docs(), hot_doc_freq=5, max_broadcast_keys=1
        )
        .to_pandas().sort_values("doc_id", ignore_index=True)
    )
    import pandas as pd

    pd.testing.assert_frame_equal(
        got[want.columns].astype(want.dtypes.to_dict()), want
    )


# ---------------------------------------------------------------------------
# round 4: incremental exact dedup against a persisted hash store
# ---------------------------------------------------------------------------

def test_exact_dedup_incremental_across_increments(tmp_path):
    import pandas as pd
    import ray.data as rd

    from ertransfer_ray.stages.dedup import exact_dedup_incremental

    state = str(tmp_path / "state")

    inc1 = rd.from_pandas(pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": ["alpha", "beta", "alpha", "gamma"],   # 3 ∈ dup of 1
    }))
    out1 = exact_dedup_incremental(inc1, state, "day1").to_pandas()
    assert sorted(out1["doc_id"]) == [1, 2, 4]

    inc2 = rd.from_pandas(pd.DataFrame({
        "doc_id": [10, 11, 12, 13],
        "text": ["beta", "delta", "delta", "epsilon"],  # beta seen on day1
    }))
    out2 = exact_dedup_incremental(inc2, state, "day2").to_pandas()
    assert sorted(out2["doc_id"]) == [11, 13]
    assert list(out2.columns) == ["doc_id", "text"]

    inc3 = rd.from_pandas(pd.DataFrame({
        "doc_id": [20], "text": ["delta"],              # seen on day2
    }))
    out3 = exact_dedup_incremental(inc3, state, "day3").to_pandas()
    assert len(out3) == 0


def test_exact_dedup_incremental_rerun_is_idempotent(tmp_path):
    import pandas as pd
    import ray.data as rd

    from ertransfer_ray.stages.dedup import exact_dedup_incremental

    state = str(tmp_path / "state")
    inc = rd.from_pandas(pd.DataFrame({
        "doc_id": [1, 2], "text": ["a", "b"],
    }))
    first = exact_dedup_incremental(inc, state, "day1").to_pandas()
    # re-running the SAME increment name must not dedup against itself
    again = exact_dedup_incremental(inc, state, "day1").to_pandas()
    assert sorted(first["doc_id"]) == sorted(again["doc_id"]) == [1, 2]


def test_exact_dedup_incremental_join_arm(tmp_path):
    """Force the beyond-broadcast store path (max_broadcast_ids=0 makes the
    seen side 'too big') and require the same survivors."""
    import pandas as pd
    import ray.data as rd

    from ertransfer_ray.stages.dedup import exact_dedup_incremental

    s_b, s_j = str(tmp_path / "sb"), str(tmp_path / "sj")
    inc1 = rd.from_pandas(pd.DataFrame({
        "doc_id": [1, 2], "text": ["x", "y"],
    }))
    inc2 = rd.from_pandas(pd.DataFrame({
        "doc_id": [5, 6, 7], "text": ["y", "z", "z"],
    }))
    exact_dedup_incremental(inc1, s_b, "d1")
    want = exact_dedup_incremental(inc2, s_b, "d2").to_pandas()
    exact_dedup_incremental(inc1, s_j, "d1")
    got = exact_dedup_incremental(
        inc2, s_j, "d2", max_broadcast_ids=0
    ).to_pandas()
    # doc 5 ("y") was seen on d1; doc 7 duplicates 6 within the increment
    assert sorted(got["doc_id"]) == sorted(want["doc_id"]) == [6]


# ---------------------------------------------------------------------------
# round 5: bloom-gated incremental store (sparse sidecars, exact output)
# ---------------------------------------------------------------------------

def test_exact_dedup_incremental_bloom_arm_matches_and_persists_sidecars(tmp_path):
    import os

    import pandas as pd
    import ray.data as rd

    from ertransfer_ray.stages.dedup import exact_dedup_incremental

    state = str(tmp_path / "state")
    inc1 = rd.from_pandas(pd.DataFrame({
        "doc_id": [1, 2, 3, 4], "text": ["alpha", "beta", "alpha", "gamma"],
    }))
    out1 = exact_dedup_incremental(
        inc1, state, "day1", seen_filter="bloom"
    ).to_pandas()
    assert sorted(out1["doc_id"]) == [1, 2, 4]
    assert os.path.exists(f"{state}/bloom_config.json")
    assert os.path.exists(f"{state}/bloom_sidecars/increment=day1.parquet")

    inc2 = rd.from_pandas(pd.DataFrame({
        "doc_id": [10, 11, 12, 13], "text": ["beta", "delta", "delta", "epsilon"],
    }))
    out2 = exact_dedup_incremental(
        inc2, state, "day2", seen_filter="bloom"
    ).to_pandas()
    assert sorted(out2["doc_id"]) == [11, 13]
    assert list(out2.columns) == ["doc_id", "text"]

    inc3 = rd.from_pandas(pd.DataFrame({"doc_id": [20], "text": ["delta"]}))
    out3 = exact_dedup_incremental(
        inc3, state, "day3", seen_filter="bloom"
    ).to_pandas()
    assert len(out3) == 0


def test_exact_dedup_incremental_bloom_self_heals_missing_sidecar(tmp_path):
    import os

    import pandas as pd
    import ray.data as rd

    from ertransfer_ray.stages.dedup import exact_dedup_incremental

    state = str(tmp_path / "state")
    inc1 = rd.from_pandas(pd.DataFrame({"doc_id": [1], "text": ["seen"]}))
    # day1 ingested BEFORE bloom gating existed on this store
    exact_dedup_incremental(inc1, state, "day1")
    assert not os.path.exists(f"{state}/bloom_sidecars/increment=day1.parquet")

    inc2 = rd.from_pandas(pd.DataFrame({
        "doc_id": [5, 6], "text": ["seen", "new"],
    }))
    out2 = exact_dedup_incremental(
        inc2, state, "day2", seen_filter="bloom"
    ).to_pandas()
    assert sorted(out2["doc_id"]) == [6]
    # the missing day1 sidecar was healed and persisted during the load
    assert os.path.exists(f"{state}/bloom_sidecars/increment=day1.parquet")
    assert os.path.exists(f"{state}/bloom_sidecars/increment=day2.parquet")


def test_exact_dedup_incremental_bloom_reingest_crash_leaves_no_stale_sidecar(
    tmp_path, monkeypatch
):
    """Fault injection: re-ingesting an increment under a new content set
    crashes between the rename and the sidecar write. The increment's old
    sidecar must already be gone, so the next ingest rebuilds it from the
    new hashes instead of trusting a filter that misses them."""
    import os

    import pandas as pd
    import ray.data as rd

    from ertransfer_ray.stages import dedup
    from ertransfer_ray.stages.dedup import exact_dedup_incremental

    state = str(tmp_path / "state")
    side = f"{state}/bloom_sidecars/increment=day2.parquet"

    def ingest(increment, ids, texts):
        ds = rd.from_pandas(pd.DataFrame({"doc_id": ids, "text": texts}))
        return exact_dedup_incremental(ds, state, increment, seen_filter="bloom").to_pandas()

    ingest("day1", [1], ["alpha"])
    ingest("day2", [2], ["beta"])
    assert os.path.exists(side)

    def crash(state_dir, increment_dir, cfg):
        raise RuntimeError("killed before the sidecar write")

    monkeypatch.setattr(dedup, "_write_sidecar", crash)
    with pytest.raises(RuntimeError, match="killed"):
        ingest("day2", [3], ["gamma"])  # day2 now holds gamma, not beta
    monkeypatch.undo()
    assert not os.path.exists(side)

    out = ingest("day3", [10, 11, 12], ["gamma", "beta", "new"])
    # gamma is in the store (day2); beta left it with the re-ingest
    assert sorted(out["doc_id"]) == [11, 12]
    assert os.path.exists(side)


def test_exact_dedup_incremental_bloom_zero_suspicious_and_sloppy_filter(tmp_path):
    import pandas as pd
    import ray.data as rd

    from ertransfer_ray.stages.dedup import exact_dedup_incremental

    # disjoint increments: the whole second increment is provably new
    state = str(tmp_path / "s1")
    inc1 = rd.from_pandas(pd.DataFrame({"doc_id": [1, 2], "text": ["a", "b"]}))
    inc2 = rd.from_pandas(pd.DataFrame({"doc_id": [3, 4], "text": ["c", "d"]}))
    exact_dedup_incremental(inc1, state, "d1", seen_filter="bloom")
    out = exact_dedup_incremental(
        inc2, state, "d2", seen_filter="bloom"
    ).to_pandas()
    assert sorted(out["doc_id"]) == [3, 4]

    # a deliberately saturated filter (capacity 1024 at fpp 0.5): false
    # positives cost confirmation work, never survivors
    state2 = str(tmp_path / "s2")
    df1 = pd.DataFrame({"doc_id": range(500), "text": [f"t{i}" for i in range(500)]})
    df2 = pd.DataFrame({
        "doc_id": range(1000, 1600),
        "text": [f"t{i}" for i in range(300)] + [f"n{i}" for i in range(300)],
    })
    exact_dedup_incremental(
        rd.from_pandas(df1), state2, "d1", seen_filter="bloom",
        bloom_capacity=1024, bloom_fpp=0.5,
    )
    got = exact_dedup_incremental(
        rd.from_pandas(df2), state2, "d2", seen_filter="bloom",
        bloom_capacity=1024, bloom_fpp=0.5,
    ).to_pandas()
    assert sorted(got["doc_id"]) == list(range(1300, 1600))


def test_exact_dedup_incremental_bloom_overflow_degrades_to_join(tmp_path):
    """A mostly-recrawl increment overflows the suspicious-broadcast cap:
    the arm must degrade to the bucketed anti-join and stay exact."""
    import pandas as pd
    import ray.data as rd

    from ertransfer_ray.stages.dedup import exact_dedup_incremental

    state = str(tmp_path / "state")
    inc1 = rd.from_pandas(pd.DataFrame({"doc_id": [1, 2], "text": ["x", "y"]}))
    inc2 = rd.from_pandas(pd.DataFrame({"doc_id": [5, 6, 7], "text": ["y", "z", "z"]}))
    exact_dedup_incremental(inc1, state, "d1", seen_filter="bloom")
    got = exact_dedup_incremental(
        inc2, state, "d2", seen_filter="bloom", max_broadcast_ids=0
    ).to_pandas()
    assert sorted(got["doc_id"]) == [6]


def test_bloom_cfg_closes_its_files(tmp_path):
    """Creating and then loading the Bloom geometry leaves no file open."""
    import gc
    import warnings

    from ertransfer_ray.stages.dedup import _bloom_cfg

    # recorded, not raised: a file closed by its finalizer warns from a
    # destructor, where an "error" filter could only print the exception
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        made = _bloom_cfg(str(tmp_path), 1024, 0.01)
        loaded = _bloom_cfg(str(tmp_path), 1024, 0.01)
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert made == loaded
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bloom_config.json"]
