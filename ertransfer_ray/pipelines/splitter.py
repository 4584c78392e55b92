"""Reference-shaped splitter workflow: two entity tables + golden matches →
labeled candidate-pair splits (train/valid/test) with blocking statistics.

This is the Ray-Data re-expression of the reference's splitter step
(/root/reference/splitters/KNN-Join/splitter.py __main__, traced in
SURVEY §3.1): its container contract reads ``tableA/tableB/matches`` and
writes ``train/valid/test`` + ``split_statistics`` (§2.10).

Stage map (reference → here):
- read + id-index (S1, splitter.py:160-165)       → read_parquet/read_csv, id kept as column
- match-validity filter (M10, :167-170)           → broadcast semi-join on both id sets
- string coercion + clean (M1/M3, :28-43)         → coerce_strings + clean_text map_batches
- agValue serialization (M4, :45-52)              → ag_value over non-id columns
- Top-K similarity join (J1, :72-86)              → MinHash-LSH band keys + bucketed
                                                     per-block top-K by set-cosine (the
                                                     reference's default metric,
                                                     settings.py / :179-181)
- golden-set labeling (J5/M12, :88-91)            → broadcast membership per batch
- stratified 60/20/20 split (A6, :112-132)        → deterministic hash-of-pair-key split
                                                     (reference uses seeded shuffle; hash
                                                     keying keeps outputs identical at any
                                                     parallelism — SURVEY §7.4)
- split statistics (A1/S4, :105-110,198-207)      → split_stats per split

Pair rows carry both records' ids plus the blocking score; payload columns
are re-attached only on request (J3) — the reference's full-payload wide
rows (splitter.py:96-103) don't scale (SURVEY §7.4).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from ..functions.hashing import (
    lsh_band_keys_u64,
    minhash_coeffs,
    minhash_signatures,
    stable_hash64,
)
from ..functions.simfuncs import qgrams
from ..functions.textnorm import ag_value, clean_text, coerce_strings
from ..stages.groupby import exchange_group_apply
from ..stages.joins import (
    BroadcastHashJoin,
    BroadcastSemiJoin,
    cached_side,
    collect_key_set,
    put_broadcast,
)


def prepare_entity_table(ds, id_col: str = "id", clean: bool = True):
    """M1+M2 (+M3) + M4: coerce to strings, optionally clean, build agValue.
    Output: (id, agValue)."""

    def fn(t: pa.Table) -> pa.Table:
        t = coerce_strings(t, id_cols=(id_col,))
        attr_cols = [c for c in t.column_names if c != id_col]
        t = ag_value(t, attr_cols)
        ag = t.column("agValue")
        if clean:
            ag = pa.array([clean_text(v) for v in ag.to_pylist()], pa.string())
        return pa.table({id_col: t.column(id_col), "agValue": ag})

    return ds.map_batches(fn, batch_format="pyarrow")


def filter_valid_matches(matches_df: pd.DataFrame, a_ids: set, b_ids: set) -> pd.DataFrame:
    """M10: drop match rows whose ids are absent from either table
    (reference splitter.py:167-170)."""
    return matches_df[
        matches_df["tableA_id"].isin(a_ids) & matches_df["tableB_id"].isin(b_ids)
    ].reset_index(drop=True)


#: per-worker-process PreparedBag cache for topk_similarity_join scoring
_BAG_CACHE: dict = {}
_BAG_CACHE_MAX = 500_000


class _SideKeyEmitter:
    """Emit ID-ONLY (block_key:int64, side, id) rows for one side of the
    join — agValues never ride the ×num_bands band shuffle (the
    blocking.py:85-91 rule; round 2 removed the payload column here after
    a 100k-entity self-join ran past 10 minutes carrying it)."""

    def __init__(self, side: int, num_perm: int, num_bands: int, qgram: int, seed: int):
        self.side = side
        self.num_perm = num_perm
        self.num_bands = num_bands
        self.qgram = qgram
        self.coeffs = minhash_coeffs(num_perm, seed)

    def __call__(self, t: pa.Table) -> pa.Table:
        ids = t.column("id").to_pylist()
        ags = t.column("agValue").to_pylist()
        toks = [qgrams(a, self.qgram) if self.qgram else a.split() for a in ags]
        sig = minhash_signatures(toks, self.num_perm, coeffs=self.coeffs)
        bands = lsh_band_keys_u64(sig, self.num_bands)
        reps = self.num_bands
        return pa.table(
            {
                "block_key": pa.array(np.concatenate(bands).astype(np.int64)),
                "side": pa.array(np.full(len(ids) * reps, self.side, dtype=np.int8)),
                "id": pa.array(ids * reps, pa.int64()),
            }
        )


def topk_similarity_join(
    table_a,
    table_b,
    k: int = 5,
    num_perm: int = 64,
    num_bands: int = 16,
    qgram: int = 5,
    seed: int = 7,
    max_block_side: int = 256,
    similarity: str = "cosine",
    multiset: bool = True,
    reverse: bool = False,
):
    """J1: approximate Top-K similarity join of B-records per A-record.

    Reference semantics (pyjedai TopKJoin, splitter.py:72-86): tokenize both
    tables' agValues (char q-grams, set or multiset), score
    cosine/dice/jaccard per the per-dataset settings
    (splitters/KNN-Join/settings.py:1-12), keep the K most similar B records
    per A record; ``reverse`` swaps which side is indexed (K applies per
    B-record, splitter.py:54-71). Here the token index becomes a shuffle:
    band keys co-locate likely-similar A/B rows, each bucket scores its
    A×B block exactly, and a final per-A top-K pass merges across buckets.

    Output: (tableA_id, tableB_id, score).
    """
    if reverse:
        out = topk_similarity_join(
            table_b, table_a, k=k, num_perm=num_perm, num_bands=num_bands,
            qgram=qgram, seed=seed, max_block_side=max_block_side,
            similarity=similarity, multiset=multiset, reverse=False,
        )
        # un-swap: the real tableA ids came in as the (reversed) B side
        return out.map_batches(
            lambda df: df.rename(
                columns={"tableA_id": "tableB_id", "tableB_id": "tableA_id"}
            )[["tableA_id", "tableB_id", "score"]],
            batch_format="pandas",
        )

    ka = table_a.map_batches(
        _SideKeyEmitter(side=0, num_perm=num_perm, num_bands=num_bands,
                        qgram=qgram, seed=seed),
        batch_format="pyarrow", batch_size=2048,
    )
    kb = table_b.map_batches(
        _SideKeyEmitter(side=1, num_perm=num_perm, num_bands=num_bands,
                        qgram=qgram, seed=seed),
        batch_format="pyarrow", batch_size=2048,
    )
    keyed = ka.union(kb).materialize()

    # prefilter: only keys seen on BOTH sides can score a pair — most band
    # keys are single-side/singleton and would ride the exchange for
    # nothing (generate_pairs' singleton-prefilter pattern)
    def _both_sides(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("block_key")["side"]
        lo, hi = g.min(), g.max()
        keep = lo.index[(lo.values == 0) & (hi.values == 1)]
        return pd.DataFrame({"block_key": keep.to_numpy()})

    surv = collect_key_set(
        exchange_group_apply(
            keyed.select_columns(["block_key", "side"]), "block_key", _both_sides
        ),
        "block_key",
    )
    if surv is not None:
        keyed = keyed.map_batches(
            BroadcastSemiJoin(put_broadcast(surv), "block_key"), batch_format="pyarrow"
        )

    # phase 1: candidate PAIR IDS per block — no scoring yet. A pair that
    # shares b bands would otherwise be scored b times (up to ×num_bands);
    # on a 100k-entity self-join the redundant set-similarity calls pushed
    # the fused form past 10 minutes. Generate → cross-band dedup → score
    # each distinct pair exactly once (the er_pipeline architecture).
    def gen_pairs(df: pd.DataFrame) -> pd.DataFrame:
        """Fully vectorized A×B emission across ALL keys of the bucket — a
        per-key pandas loop pays ~150 µs per distinct band key (measured
        132 s for a 50k-entity bucket set where this form takes ~8 s)."""
        empty = pd.DataFrame(
            {"tableA_id": pd.Series([], dtype="int64"),
             "tableB_id": pd.Series([], dtype="int64")}
        )
        if df.empty:
            return empty
        d = df.drop_duplicates(["block_key", "side", "id"]).sort_values(
            ["block_key", "side", "id"], kind="stable"
        )
        key = d["block_key"].to_numpy()
        side = d["side"].to_numpy()
        ids = d["id"].to_numpy()
        # rank within (key, side) runs → cap at max_block_side
        seg_start = np.flatnonzero(
            np.r_[True, (key[1:] != key[:-1]) | (side[1:] != side[:-1])]
        )
        seg_id = np.cumsum(np.r_[True, (key[1:] != key[:-1]) | (side[1:] != side[:-1])]) - 1
        rank = np.arange(len(d)) - seg_start[seg_id]
        keep = rank < max_block_side
        key, side, ids = key[keep], side[keep], ids[keep]
        # per-key segment bounds for each side
        uk, key_inv = np.unique(key, return_inverse=True)
        nk = len(uk)
        n_a = np.bincount(key_inv[side == 0], minlength=nk)
        n_b = np.bincount(key_inv[side == 1], minlength=nk)
        both = (n_a > 0) & (n_b > 0)
        if not both.any():
            return empty
        a_mask = (side == 0) & both[key_inv]
        b_mask = (side == 1) & both[key_inv]
        a_ids, a_keys = ids[a_mask], key_inv[a_mask]
        b_ids = ids[b_mask]
        b_start = np.zeros(nk, dtype=np.int64)
        seg_starts = np.zeros(int(both.sum()), dtype=np.int64)
        np.cumsum(n_b[both][:-1], out=seg_starts[1:])
        b_start[both] = seg_starts
        # b_start holds, for each key with both sides, the offset of its b
        # segment inside b_ids; expand per a-row
        nb_per_a = n_b[a_keys]
        total = int(nb_per_a.sum())
        if total == 0:
            return empty
        left = np.repeat(a_ids, nb_per_a)
        starts = np.repeat(b_start[a_keys], nb_per_a)
        # 0..nb-1 within each a-row's fan-out
        cum = np.cumsum(nb_per_a)
        within = np.arange(total) - np.repeat(cum - nb_per_a, nb_per_a)
        right = b_ids[starts + within]
        return pd.DataFrame({"tableA_id": left, "tableB_id": right}).drop_duplicates()

    from ..stages.groupby import distinct_rows

    cands = exchange_group_apply(keyed, "block_key", gen_pairs)
    cands = distinct_rows(cands, ["tableA_id", "tableB_id"])

    # phase 2: score each distinct pair once. agValues come from
    # worker-cached object-store lookups (one copy per worker process,
    # never per band row); tokens are memoized per batch. The exchange arm
    # of the dedup.py verifiers is the template for beyond-heap entity
    # tables.
    refs_a = table_a.to_arrow_refs()
    refs_b = table_b.to_arrow_refs()

    def _lookup(tbl: pa.Table) -> pd.Series:
        return pd.Series(
            tbl.column("agValue").to_pylist(), index=tbl.column("id").to_pylist()
        )

    from ..functions.simfuncs import prepare_bags, prepared_metric

    pair_fn = prepared_metric(similarity, multiset)
    # worker-process bag cache: a doc's pairs spread over many batches, and
    # Ray reuses worker processes across map tasks, so tokenize+hash+sort
    # happens once per doc per WORKER (bounded FIFO; key includes the side
    # table's first block ref so different joins never mix)
    fp_a = refs_a[0].hex() if refs_a else "a"
    fp_b = refs_b[0].hex() if refs_b else "b"

    def _bags_for(ids, lookup, fingerprint: str):
        cache = _BAG_CACHE
        missing = [i for i in ids if (fingerprint, i) not in cache]
        if missing:
            bags = prepare_bags(
                [qgrams(lookup.get(i, ""), qgram, multiset=multiset) for i in missing]
            )
            if len(cache) + len(missing) > _BAG_CACHE_MAX:
                cache.clear()
            for i, bag in zip(missing, bags):
                cache[(fingerprint, i)] = bag
        return {i: cache[(fingerprint, i)] for i in ids}

    def score_batch(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            df = df.copy()
            df["score"] = pd.Series([], dtype="float64")
            return df
        prep_a = _bags_for(
            pd.unique(df["tableA_id"]), cached_side(refs_a, _lookup), fp_a
        )
        prep_b = _bags_for(
            pd.unique(df["tableB_id"]), cached_side(refs_b, _lookup), fp_b
        )
        out = df.copy()
        out["score"] = [
            pair_fn(prep_a[a], prep_b[b])
            for a, b in zip(df["tableA_id"], df["tableB_id"])
        ]
        return out

    scored = cands.map_batches(score_batch, batch_format="pandas", batch_size=8192)

    def topk_per_a(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["score", "tableB_id"], ascending=[False, True])
        df = df.drop_duplicates(["tableA_id", "tableB_id"])
        return df.groupby("tableA_id", sort=False).head(k)

    return exchange_group_apply(scored, "tableA_id", topk_per_a)


def label_pairs(pairs_ds, matches_df: pd.DataFrame):
    """J5/M12: label = (tableA_id, tableB_id) ∈ golden set, int32."""
    golden = set(zip(matches_df["tableA_id"], matches_df["tableB_id"]))
    ref = put_broadcast(golden)

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        g = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        df = df.copy(deep=False)
        df["label"] = [
            np.int32((a, b) in g) for a, b in zip(df["tableA_id"], df["tableB_id"])
        ]
        return df

    return pairs_ds.map_batches(fn, batch_format="pandas")


def stratified_split(
    labeled_pairs_ds,
    fractions: tuple[float, float, float] = (0.6, 0.2, 0.2),
    seed: int = 42,
):
    """A6: deterministic stratified 60/20/20 split.

    Reference uses seeded shuffled ``train_test_split`` (splitter.py:112-132);
    here split membership is a pure function of hash(pair_key, seed) computed
    independently per label stratum, so outputs are identical at any
    parallelism level (SURVEY §7.4 determinism requirement).
    """
    lo = fractions[0]
    hi = fractions[0] + fractions[1]

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        key = (
            df["tableA_id"].astype(str) + "|" + df["tableB_id"].astype(str) + f"|{seed}"
        ).to_numpy(dtype=object)
        u = stable_hash64(key).astype(np.float64) / float(2**64)
        df = df.copy(deep=False)
        df["split"] = np.where(u < lo, "train", np.where(u < hi, "valid", "test"))
        return df

    return labeled_pairs_ds.map_batches(assign, batch_format="pandas")


def split_statistics(split_ds, n_matches: int) -> pd.DataFrame:
    """A1/S4: per-split entries / matches / precision / recall
    (reference splitter.py:105-110, written at :198-207)."""
    from ..stages.groupby import partial_aggregate
    from .metrics import split_stats

    agg = partial_aggregate(
        split_ds, "split", {"n": (None, "count"), "pos": ("label", "sum")}
    )
    rows = []
    for r in agg.itertuples(index=False):
        s = split_stats(int(r.n), int(r.pos), n_matches)
        rows.append({"split": r.split, **s})
    return pd.DataFrame(rows).sort_values("split", ignore_index=True)


def write_split_statistics(
    path: str,
    n_table_a: int,
    n_table_b: int,
    n_matches: int,
    blocking_time: float,
    stats_df: pd.DataFrame,
) -> None:
    """S4: the reference's ``split_statistics.txt`` byte format
    (/root/reference/splitters/KNN-Join/splitter.py:198-207): dataset sizes,
    blocking time, then one tab-separated row per split of
    (name, Num Entries, Num Matches, Precision, Recall)."""
    lines = [
        "Dataset statistics:",
        f"Entries Table A: {n_table_a}; Entries Table B: {n_table_b}",
        f"Num Matches: {n_matches}",
        f"Blocking time: {blocking_time}",
        "Split Statistics:",
        "\t".join(["", "Num Entries", "Num Matches", "Precision", "Recall"]),
    ]
    for r in stats_df.itertuples(index=False):
        lines.append(
            "\t".join(
                str(v)
                for v in (r.split, r.num_entries, r.num_matches, r.precision, r.recall)
            )
        )
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def attach_payloads(pairs_ds, table_a_df: pd.DataFrame, table_b_df: pd.DataFrame):
    """J3: re-attach full records to id-only pair rows via broadcast lookup,
    producing the reference's wide pair row (tableA_*, tableB_*, label).
    Only for bounded outputs — the contract view, not the internal format."""
    a = table_a_df.add_prefix("tableA_").rename(columns={"tableA_id": "tableA_id"})
    b = table_b_df.add_prefix("tableB_").rename(columns={"tableB_id": "tableB_id"})
    ra, rb = put_broadcast(a), put_broadcast(b)
    stage_a = BroadcastHashJoin(ra, on="tableA_id", how="left")
    stage_b = BroadcastHashJoin(rb, on="tableB_id", how="left")
    return pairs_ds.map_batches(stage_a, batch_format="pandas").map_batches(
        stage_b, batch_format="pandas"
    )


def run_splitter(
    table_a,
    table_b,
    matches_df: pd.DataFrame,
    k: int = 5,
    clean: bool = True,
    seed: int = 42,
    method: str = "knn",
    **join_kwargs,
) -> dict:
    """The full splitter step. Returns dict with lazy Datasets + stats:
    ``{"pairs", "splits", "stats", "blocking_recall"}``.

    ``method`` selects the candidate generator: "knn" (Top-K q-gram
    similarity join, reference splitters/KNN-Join) or "deepblocker"
    (hashed-ngram + trained-autoencoder embedding KNN, reference
    splitters/DeepBlocker/splitter.py:62-73)."""
    a_prep = prepare_entity_table(table_a, clean=clean).materialize()
    b_prep = prepare_entity_table(table_b, clean=clean).materialize()
    a_ids = {r["id"] for r in a_prep.select_columns(["id"]).take_all()}
    b_ids = {r["id"] for r in b_prep.select_columns(["id"]).take_all()}
    matches_df = filter_valid_matches(matches_df, a_ids, b_ids)

    if method == "deepblocker":
        from ..stages.encoders import deepblocker_topk

        pairs = deepblocker_topk(a_prep, b_prep, k=k, **join_kwargs)
    else:
        pairs = topk_similarity_join(a_prep, b_prep, k=k, **join_kwargs)
    labeled = label_pairs(pairs, matches_df).materialize()

    n_pos = sum(
        r["label"] for r in labeled.select_columns(["label"]).take_all()
    )
    blocking_recall = n_pos / len(matches_df) if len(matches_df) else 1.0

    splits = stratified_split(labeled, seed=seed)
    stats = split_statistics(splits, n_matches=len(matches_df))
    return {
        "pairs": labeled,
        "splits": splits,
        "stats": stats,
        "blocking_recall": blocking_recall,
    }


def run_splitter_for_dataset(
    table_a,
    table_b,
    matches_df: pd.DataFrame,
    input_path: str,
    recall: float = 0.90,
    default: bool = False,
    seed: int = 42,
    method: str = "knn",
    **overrides,
) -> dict:
    """run_splitter with the reference's per-dataset settings selection
    (splitters/KNN-Join/splitter.py:175-183 + settings.py): parse ``d<N>``
    from the dataset path, look up (clean, reverse, qgram, multiset,
    similarity, K) at the recall level, and run the splitter with them.
    ``overrides`` win over registry values; ``method`` picks the registry
    and candidate generator (knn | deepblocker). The chosen settings are
    echoed in the result under ``"settings"``.
    """
    from .settings import select_settings

    a_rows = table_a.count() if default else None
    b_rows = table_b.count() if default else None
    settings = select_settings(
        input_path, recall=recall, default=default,
        table_a_rows=a_rows, table_b_rows=b_rows, method=method,
    )
    settings.update(overrides)
    # everything beyond the named knobs goes to the candidate generator
    # (qgram/similarity/multiset for knn; dim/dim_out/num_buckets/nprobe
    # for deepblocker; any ad-hoc override too)
    join_kwargs = {
        k_: v for k_, v in settings.items() if k_ not in ("k", "clean", "reverse")
    }
    res = run_splitter(
        table_a,
        table_b,
        matches_df,
        k=settings["k"],
        clean=settings["clean"],
        seed=seed,
        method=method,
        reverse=settings["reverse"],
        **join_kwargs,
    )
    res["settings"] = settings
    return res


def sample_negative_pairs(
    a_ids: list[int],
    b_ids: list[int],
    matches_df: pd.DataFrame,
    limit: int = 10_000,
    seed: int = 42,
) -> pd.DataFrame:
    """O4 deterministic negative sampling — the reference rejection-samples
    uniform (a,b) pairs ∉ matches up to 10000 with a 1.5× skip budget
    (/root/reference/splitters/random-split/splitter.py:35-49, assert at 40).

    Here the sample is a pure function of (ids, seed): candidate pairs are
    ranked by stable_hash64(f"{a}|{b}|{seed}") and the smallest-hash
    non-match pairs win — the same distribution, reproducible at any
    parallelism.
    """
    golden = set(zip(matches_df["tableA_id"], matches_df["tableB_id"]))
    n_a, n_b = len(a_ids), len(b_ids)
    want = min(limit, n_a * n_b - len(golden))
    if want <= 0:
        return pd.DataFrame({"tableA_id": pd.Series([], dtype="int64"),
                             "tableB_id": pd.Series([], dtype="int64"),
                             "label": pd.Series([], dtype="int32")})
    # oversample by hash, reject matches, keep the `want` smallest hashes
    rng_factor = 3
    sample_n = min(n_a * n_b, want * rng_factor + len(golden))
    a_arr = np.asarray(a_ids, dtype=np.int64)
    b_arr = np.asarray(b_ids, dtype=np.int64)
    # deterministic pseudo-uniform index pairs from a hash counter
    idx = np.arange(sample_n, dtype=np.uint64)
    h = stable_hash64([f"{seed}|{i}" for i in idx])
    aa = a_arr[(h % np.uint64(n_a)).astype(np.int64)]
    bb = b_arr[((h >> np.uint64(32)) % np.uint64(n_b)).astype(np.int64)]
    cand = pd.DataFrame({"tableA_id": aa, "tableB_id": bb})
    cand["rank"] = stable_hash64(
        (cand["tableA_id"].astype(str) + "|" + cand["tableB_id"].astype(str) + f"|{seed}")
        .to_numpy(dtype=object)
    )
    cand = cand.drop_duplicates(["tableA_id", "tableB_id"])
    is_match = [
        (a, b) in golden for a, b in zip(cand["tableA_id"], cand["tableB_id"])
    ]
    cand = cand[~np.asarray(is_match)]
    out = cand.sort_values("rank").head(want)[["tableA_id", "tableB_id"]]
    out = out.reset_index(drop=True)
    out["label"] = np.int32(0)
    return out


def random_split(
    table_a_df: pd.DataFrame,
    table_b_df: pd.DataFrame,
    matches_df: pd.DataFrame,
    neg_pairs_limit: int = 10_000,
    fractions: tuple[float, float, float] = (0.6, 0.2, 0.2),
    seed: int = 42,
) -> dict:
    """The reference's random-split splitter (splitters/random-split/
    splitter.py): positives = the golden matches verbatim (its assert at
    :24-25 checks the round-trip), negatives = sampled non-matches (O4),
    then the stratified split. Id referential integrity hard-fails (M11,
    :93-101). Returns {"pairs": DataFrame, "stats": DataFrame}.
    """
    import ray.data as rd

    a_ids = set(table_a_df["id"])
    b_ids = set(table_b_df["id"])
    bad_a = set(matches_df["tableA_id"]) - a_ids
    bad_b = set(matches_df["tableB_id"]) - b_ids
    if bad_a or bad_b:
        raise ValueError(
            f"matches reference missing ids: tableA {sorted(bad_a)[:5]} "
            f"tableB {sorted(bad_b)[:5]}"
        )
    pos = matches_df[["tableA_id", "tableB_id"]].copy()
    pos["label"] = np.int32(1)
    neg = sample_negative_pairs(
        sorted(a_ids), sorted(b_ids), matches_df, limit=neg_pairs_limit, seed=seed
    )
    pairs = pd.concat([pos, neg], ignore_index=True)
    split_ds = stratified_split(rd.from_pandas(pairs), fractions=fractions, seed=seed)
    stats = split_statistics(split_ds, n_matches=len(matches_df))
    return {"pairs": split_ds.to_pandas(), "stats": stats}


def threshold_grid_search(
    predictions_df: pd.DataFrame,
    truth_pos: set,
    method: str = "greedy",
    thetas: np.ndarray | None = None,
) -> dict:
    """A7: θ grid search over [0, 1) step 0.01 — the reference's clustering
    tuner (/root/reference/clustering/Probabilities/clustering.py:70-102)
    evaluated in ONE vectorized pass per θ family.

    For ``method="threshold"`` all θ are evaluated from a single sorted
    sweep (no per-θ re-clustering); for ``method in {"greedy","reciprocal"}``
    the (cheap, driver-side) clustering runs per θ like the reference.
    Returns {"best_theta", "best_f1", "per_theta"} with the reference's
    clustering F1 = 2·TP/(candidates+GT) (clustering.py:31-40).
    """
    from .metrics import clustering_f1
    from ..stages.clustering import greedy_unique_mapping

    thetas = np.arange(0.0, 1.0, 0.01) if thetas is None else thetas
    n_truth = len(truth_pos)
    rows = []
    if method == "threshold":
        df = predictions_df.sort_values("prob", ascending=False, ignore_index=True)
        is_pos = np.fromiter(
            ((a, b) in truth_pos for a, b in zip(df["left_url"], df["right_url"])),
            dtype=bool,
            count=len(df),
        )
        cum_tp = np.cumsum(is_pos)
        probs = df["prob"].to_numpy()
        for t in thetas:
            # strict prob > t, matching the reference's M14 predicate
            k = int(np.searchsorted(-probs, -t, side="left"))
            tp = int(cum_tp[k - 1]) if k else 0
            rows.append((float(t), clustering_f1(tp, k, n_truth)))
    else:
        for t in thetas:
            sel = greedy_unique_mapping(predictions_df, theta=float(t))
            tp = sum(
                (a, b) in truth_pos
                for a, b in zip(sel["left_url"], sel["right_url"])
            )
            rows.append((float(t), clustering_f1(tp, len(sel), n_truth)))
    per = pd.DataFrame(rows, columns=["theta", "f1"])
    best = per.loc[per["f1"].idxmax()]
    return {"best_theta": float(best["theta"]), "best_f1": float(best["f1"]), "per_theta": per}


def merge_splits_to_matches(splits_ds) -> pd.DataFrame:
    """D2 merger: union splits → label==1 → project id pair → dedup → sort
    (reference splitters/random-split/merger.py:27-38)."""
    pos = splits_ds.map_batches(
        lambda df: df[df["label"] == 1][["tableA_id", "tableB_id"]],
        batch_format="pandas",
    )
    out = pos.to_pandas().drop_duplicates().sort_values(
        ["tableA_id", "tableB_id"], ignore_index=True
    )
    return out
