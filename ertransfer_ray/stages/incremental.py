"""Incremental MinHash near-dup dedup against a persisted signature store.

The daily-crawl ingestion shape for NEAR duplicates (the fuzzy sibling
of ``dedup.exact_dedup_incremental``): each new increment keeps only
documents that are near-dups of neither (a) any document registered by
an EARLIER increment nor (b) a retained smaller-id document within this
increment (transitively — clusters collapse to their min id via
connected components), then registers its survivors' signatures so the
next increment dedups against everything so far.

Design points, all chosen for the 100 TB shape:

- **The store holds sketches, not text**: one row per surviving doc —
  (id, minhash signature, LSH band keys) ≈ 1 KB at 128 perms. Cross-
  increment verification uses SIGNATURE AGREEMENT (fraction of matching
  minhash components, an unbiased Jaccard estimator) instead of the
  batch path's exact text Jaccard, so the store never duplicates corpus
  bytes and verification needs no payload join.
- **Band-keyed exchange, id-only**: new + stored band rows (band_key,
  id, is_new) meet in one hash exchange; candidate pairs require at
  least one new endpoint (old–old pairs are settled history). Signatures
  attach to the surviving candidate pairs via bucketed joins — payloads
  never ride any shuffle.
- **Atomic, idempotent registration**: the increment's store entry is
  staged via ``state/manifest.write_shard`` and renamed into place;
  re-running the same increment name replaces its entry and excludes its
  own rows from the seen side.

Caller contract: ``id_col`` values must be unique ACROSS increments
(crawl record ids are); ids are compared numerically for the keep-min
rule.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.arrays import matrix_to_list_column
from ..functions.hashing import lsh_band_keys_u64, minhash_coeffs, minhash_signatures

#: sketch hash-family tag, persisted in the store's meta file. Bumped when
#: the shingle/minhash kernel changes incompatibly (round 5: shingle-string
#: SipHash → vocab-hash polynomial combine). Sketches from a different
#: family never band-collide or agree with the current one, which would
#: SILENTLY keep every cross-increment near-dup — so a mismatch is an error.
_SKETCH_FAMILY = "arrow-poly-v2"


def _check_store_meta(
    state_dir: str, num_perm: int, num_bands: int, shingle_words: int,
    has_prior: bool,
) -> None:
    """Validate (or initialize) the store's sketch-compatibility marker.
    A store written with another family or other sketch params cannot be
    banded/verified against — fail loudly instead of silently keeping
    duplicates."""
    import json

    meta_path = os.path.join(state_dir, "store_meta.json")
    want = {
        "family": _SKETCH_FAMILY,
        "num_perm": num_perm,
        "num_bands": num_bands,
        "shingle_words": shingle_words,
    }
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            have = json.load(f)
        if have != want:
            raise ValueError(
                f"incremental sketch store at {state_dir!r} was written with "
                f"{have}, current run uses {want}: sketches are not "
                "comparable across families/params — rebuild the store "
                "(re-ingest increments) or match the stored parameters"
            )
        return
    if has_prior:
        raise ValueError(
            f"incremental sketch store at {state_dir!r} predates the "
            "family marker (pre-round-5 shingle-string sketches): its "
            "sketches never match the current kernel's, which would "
            "silently keep every cross-increment near-dup — rebuild the "
            "store by re-ingesting increments"
        )
    tmp = meta_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(want, f)
    os.replace(tmp, meta_path)


class SigBands:
    """Actor-pool stage: per-doc (id, sig, bands) sketch rows."""

    def __init__(self, id_col: str, text_col: str, num_perm: int,
                 num_bands: int, shingle_words: int = 3, seed: int = 7):
        self.id_col = id_col
        self.text_col = text_col
        self.num_perm = num_perm
        self.num_bands = num_bands
        self.shingle_words = shingle_words
        self.coeffs = minhash_coeffs(num_perm, seed)

    def __call__(self, t: pa.Table) -> pa.Table:
        from ..functions.hashing import (
            arrow_word_shingle_hashes,
            minhash_signatures_hashed,
        )

        # zero-Python-string shingling (hashing.py kernel) — MUST stay the
        # same family as stages/dedup._ShingleMinHash so persisted sketches
        # from prior increments keep banding against new docs
        h, c = arrow_word_shingle_hashes(
            t.column(self.text_col), self.shingle_words
        )
        sig = minhash_signatures_hashed(h, c, self.num_perm, coeffs=self.coeffs)
        bands = np.stack(lsh_band_keys_u64(sig, self.num_bands), axis=1)
        return pa.table(
            {
                self.id_col: t.column(self.id_col),
                "sig": matrix_to_list_column(
                    sig.astype(np.int64), value_type=pa.int64()
                ),
                "bands": matrix_to_list_column(bands, value_type=pa.int64()),
            }
        )


def _flatten_bands(id_col: str, is_new: bool):
    def fn(t: pa.Table) -> pa.Table:
        bl = t.column("bands")
        if isinstance(bl, pa.ChunkedArray):
            bl = bl.combine_chunks()
        n = t.num_rows
        if n == 0:
            return pa.table({"band_key": pa.array([], pa.int64()),
                             "m_id": pa.array([], pa.int64()),
                             "m_new": pa.array([], pa.int8())})
        nb = len(bl[0])
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "band_key": bl.flatten(),
                "m_id": pa.array(np.repeat(ids, nb)),
                "m_new": pa.array(np.full(n * nb, 1 if is_new else 0, np.int8)),
            }
        )

    return fn


def _pairs_with_new(df: pd.DataFrame, max_block_size: int) -> pd.DataFrame:
    """Per band group: capped all-pairs with ≥1 new endpoint, oriented as
    (new_id, other_id, other_new). The cap applies PER SIDE — stored ids
    are smaller than new ids and grow every increment, so a single
    smallest-id cap would fill hot (boilerplate) bands with old rows and
    starve the new endpoints out of pairing entirely."""
    df = df[df.duplicated("band_key", keep=False)]
    frames = []
    for _, g in df.groupby("band_key", sort=False):
        g = g.drop_duplicates("m_id").sort_values("m_id")
        g = pd.concat(
            [
                g[g["m_new"] == 1].head(max_block_size),
                g[g["m_new"] == 0].head(max_block_size),
            ]
        ).sort_values("m_id")
        if len(g) < 2 or not g["m_new"].any():
            continue
        ids = g["m_id"].to_numpy()
        new = g["m_new"].to_numpy().astype(bool)
        ii, jj = np.triu_indices(len(g), k=1)
        keep = new[ii] | new[jj]
        ii, jj = ii[keep], jj[keep]
        # orient: the NEW endpoint first (new-new pairs: smaller id first)
        swap = ~new[ii]
        li, ri = np.where(swap, jj, ii), np.where(swap, ii, jj)
        frames.append(
            pd.DataFrame(
                {
                    "new_id": ids[li],
                    "other_id": ids[ri],
                    "other_new": new[ri].astype(np.int8),
                }
            )
        )
    if not frames:
        return pd.DataFrame(
            {
                "new_id": pd.Series([], dtype="int64"),
                "other_id": pd.Series([], dtype="int64"),
                "other_new": pd.Series([], dtype="int8"),
            }
        )
    return pd.concat(frames, ignore_index=True)


def _sig_agreement_batch(df: pd.DataFrame) -> pd.DataFrame:
    if len(df) == 0:
        df["agreement"] = pd.Series([], dtype="float64")
        return df[["new_id", "other_id", "other_new", "agreement"]]
    L = np.stack(df["sig_l"].to_numpy())
    R = np.stack(df["sig_r"].to_numpy())
    df = df[["new_id", "other_id", "other_new"]].copy()
    df["agreement"] = (L == R).mean(axis=1)
    return df


def minhash_dedup_incremental(
    ds,
    state_dir: str,
    increment: str,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_perm: int = 128,
    num_bands: int = 16,
    shingle_words: int = 3,
    agreement: float = 0.8,
    max_block_size: int = 64,
    num_buckets: int | None = None,
    timings: dict | None = None,
):
    """See module docstring. Returns surviving rows of ``ds`` (original
    schema) as a Dataset; registers their sketches under
    ``state_dir/increment=<name>/``.

    Candidate pairs get their signatures for agreement verification by
    broadcast (sig side filtered to the candidate ENDPOINTS, published
    once, map-side verify against a worker-cached id→matrix lookup) while
    the endpoint sketches pass the payload gate (``joins.choose_arm``),
    else by id-keyed bucketed joins.

    ``timings``: optional dict filled with per-phase wall seconds
    (sketch_new, store_scan, store_scan_wait, candidates, sig_attach,
    verify, collect_bad, cc, register) — the profiling hook behind
    tools/bench_incremental.py."""
    import threading
    import time

    import ray.data as rd

    from .clustering import connected_components
    from .groupby import distinct_rows, exchange_group_apply
    from .joins import (
        BroadcastSemiJoin,
        bucketed_anti_semi_join,
        bucketed_join,
        cached_side,
        choose_arm,
        consolidated_refs,
        pair_endpoints,
        put_broadcast,
    )
    from .scoring import pool_map_batches

    tick = time.perf_counter

    def _mark(key: str, t0: float) -> None:
        if timings is not None:
            timings[key] = timings.get(key, 0.0) + (tick() - t0)

    os.makedirs(state_dir, exist_ok=True)
    prior_dirs = [
        p
        for d in sorted(os.listdir(state_dir))
        if d.startswith("increment=") and d != f"increment={increment}"
        and not d.endswith((".tmp", ".staging"))
        for p in [os.path.join(state_dir, d)]
        if any(f.endswith(".parquet") for f in os.listdir(p))
    ]
    _check_store_meta(
        state_dir, num_perm, num_bands, shingle_words, has_prior=bool(prior_dirs)
    )

    # OVERLAP the store scan with sketching: the new increment's actor-pool
    # sketch pass is a driver-blocking barrier (staged on purpose — see the
    # note below), so the prior-store read runs on a background thread as
    # its own concurrent Ray Data job. The store is scanned ONCE and held
    # (id, sig, bands ≈ 1 KB/doc); both the band union and the signature
    # lookup project from the held copy instead of re-reading parquet.
    prior_box: dict = {}

    def _scan_prior() -> None:
        t0 = tick()
        try:
            prior_box["prior"] = rd.read_parquet(
                prior_dirs, file_extensions=["parquet"]
            ).materialize()
        except BaseException as e:  # surfaced on join below
            prior_box["err"] = e
        if timings is not None:
            timings["store_scan"] = tick() - t0

    scan_thread = None
    if prior_dirs:
        scan_thread = threading.Thread(target=_scan_prior, daemon=True)
        scan_thread.start()

    t0 = tick()
    sigt = pool_map_batches(
        ds,
        SigBands,
        dict(
            id_col=id_col, text_col=text_col, num_perm=num_perm,
            num_bands=num_bands, shingle_words=shingle_words,
        ),
        batch_format="pyarrow",
        batch_size=1024,
    ).materialize()
    _mark("sketch_new", t0)

    bands = sigt.map_batches(_flatten_bands(id_col, True), batch_format="pyarrow")
    sig_lookup = sigt.map_batches(
        lambda t: t.select([id_col, "sig"]), batch_format="pyarrow"
    )
    if scan_thread is not None:
        t0 = tick()
        scan_thread.join()
        _mark("store_scan_wait", t0)
        if "err" in prior_box:
            raise prior_box["err"]
        prior = prior_box["prior"]
        bands = bands.union(
            prior.map_batches(_flatten_bands(id_col, False), batch_format="pyarrow")
        )
        sig_lookup = sig_lookup.union(
            prior.map_batches(
                lambda t: t.select([id_col, "sig"]), batch_format="pyarrow"
            )
        )

    t0 = tick()
    cands = exchange_group_apply(
        bands, "band_key", lambda df: _pairs_with_new(df, max_block_size),
        num_buckets,
    )
    # materialize the join inputs: bucketed_join reads both schemas up
    # front, and the candidate/sketch tables are id+sig-only (bounded)
    cands = distinct_rows(cands, ["new_id", "other_id"]).materialize()
    n_cands = cands.count()
    _mark("candidates", t0)
    if timings is not None:
        timings["n_candidates"] = n_cands
        timings["n_cand_blocks"] = cands.num_blocks()
    if n_cands == 0:  # no band collisions at all: everything survives
        t0 = tick()
        _register(sigt, state_dir, increment)
        _mark("register", t0)
        return ds

    import pyarrow.compute as pc

    # Verification: the broadcast arm filters the sig side to the CANDIDATE
    # ENDPOINTS first (≤ 2·n_cands rows — the store itself can be
    # arbitrarily large, only endpoint sketches ride the broadcast),
    # publishes that side once (consolidated_refs), and verifies map-side
    # against a worker-cached (id → signature-matrix) lookup — zero renamed
    # copies, zero pair shuffles. A first cut broadcast the WHOLE store and
    # was 30× slower than this on a 400k-doc store with 3k candidates:
    # every worker paid a full-store matrix build to verify a handful of
    # pairs. Past the gates (endpoint ids or their sketches too big) the
    # id-keyed bucketed-join arm attaches both signatures instead.
    t0 = tick()
    endpoints = pair_endpoints(cands, ["new_id", "other_id"])
    ep_sigs = None
    if endpoints is not None:
        ep_sigs = sig_lookup.map_batches(
            BroadcastSemiJoin(put_broadcast(endpoints), id_col), batch_format="pyarrow"
        ).materialize()

    if ep_sigs is not None and choose_arm(ep_sigs) == "broadcast":
        from ..functions.arrays import list_column_to_matrix

        side_refs = consolidated_refs(ep_sigs)
        _mark("sig_attach", t0)

        def _sig_lookup_build(t: pa.Table):
            ids_np = t.column(id_col).to_numpy(zero_copy_only=False)
            # uint32 matrix: sig values are < 2^32 by construction — halves
            # the per-worker cache vs the stored int64 lists
            mat = list_column_to_matrix(t.column("sig"), dtype=np.uint32)
            ids = pd.Index(ids_np)
            if ids.has_duplicates:
                # ids are contractually unique across increments, but a
                # twice-ingested file violates it WITHIN one input; the
                # join arm tolerates that (extra rows, deduped downstream),
                # so keep-first here instead of get_indexer raising
                keep = ~ids.duplicated()
                ids, mat = ids[keep], mat[keep]
            return ids, mat

        def verify_bcast(df: pd.DataFrame) -> pd.DataFrame:
            if len(df) == 0:
                df["agreement"] = pd.Series([], dtype="float64")
                return df[["new_id", "other_id", "other_new", "agreement"]]
            index, mat = cached_side(side_refs, _sig_lookup_build)
            li = index.get_indexer(df["new_id"].to_numpy())
            ri = index.get_indexer(df["other_id"].to_numpy())
            ok = (li >= 0) & (ri >= 0)  # endpoints come from the same sig
            df = df[ok]                 # rows — defensive, never expected
            agg = (mat[li[ok]] == mat[ri[ok]]).mean(axis=1)
            out = df[["new_id", "other_id", "other_new"]].copy()
            out["agreement"] = agg
            return out[out["agreement"] >= agreement]

        t0 = tick()
        verified = cands.map_batches(
            verify_bcast, batch_format="pandas"
        ).materialize()
        _mark("verify", t0)
    else:  # exchange: the beyond-heap-store arm
        # attach both signatures (id-keyed bucketed joins; sig rows only)
        sl = sig_lookup.map_batches(
            lambda t: t.rename_columns(["_sid", "sig_l"]), batch_format="pyarrow"
        ).materialize()
        sr = sig_lookup.map_batches(
            lambda t: t.rename_columns(["_sid2", "sig_r"]), batch_format="pyarrow"
        ).materialize()
        j1 = bucketed_join(
            cands, sl, "new_id", "_sid", num_buckets=num_buckets
        ).materialize()  # right key is consumed by the merge; sig_l rides
        j2 = bucketed_join(j1, sr, "other_id", "_sid2", num_buckets=num_buckets)
        _mark("sig_attach", t0)

        def verify(df: pd.DataFrame) -> pd.DataFrame:
            v = _sig_agreement_batch(df)
            return v[v["agreement"] >= agreement]

        t0 = tick()
        verified = j2.map_batches(verify, batch_format="pandas").materialize()
        _mark("verify", t0)

    # new docs matching ANY stored doc drop unconditionally; the dup-id set
    # is bounded by the increment's duplicate count (gated below)
    t0 = tick()
    bad_cross_arr = pa.concat_tables(
        [
            b.filter(pc.equal(b.column("other_new"), 0)).select(["new_id"])
            for b in verified.iter_batches(batch_format="pyarrow")
        ]
        or [pa.table({"new_id": pa.array([], pa.int64())})]
    ).column("new_id").combine_chunks().unique()
    bad_cross = set(bad_cross_arr.to_pylist())
    _mark("collect_bad", t0)

    # within-increment clusters collapse to their numeric-min id (CC over
    # zero-padded string keys keeps lexicographic == numeric order)
    def nn_edges(t: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.equal(t.column("other_new"), 1),
            pc.and_(
                pc.invert(pc.is_in(t.column("new_id"), value_set=bad_cross_arr)),
                pc.invert(pc.is_in(t.column("other_id"), value_set=bad_cross_arr)),
            ),
        )
        t = t.filter(pc.fill_null(m, False))
        return pa.table(
            {
                "left_url": _pad_ids(t.column("new_id")),
                "right_url": _pad_ids(t.column("other_id")),
            }
        )

    t0 = tick()
    edges = verified.map_batches(nn_edges, batch_format="pyarrow").materialize()
    if edges.count() > 0:
        cc = connected_components(edges).to_pandas()
        dropped_nn = {int(u) for u, c in zip(cc["url"], cc["cluster_id"]) if u != c}
    else:
        dropped_nn = set()
    _mark("cc", t0)

    bad_ids = pa.array(sorted(bad_cross | dropped_nn), pa.int64())
    if choose_arm(bad_ids.nbytes, key_set=True) == "broadcast":
        ref = put_broadcast(bad_ids)
        survivors = ds.map_batches(
            BroadcastSemiJoin(ref, id_col, anti=True), batch_format="pyarrow"
        )
        kept_sigs = sigt.map_batches(
            BroadcastSemiJoin(ref, id_col, anti=True), batch_format="pyarrow"
        )
    else:
        bad_ds = rd.from_arrow(pa.table({"_bad": bad_ids}))
        survivors = bucketed_anti_semi_join(
            ds, bad_ds, id_col, "_bad", anti=True, num_buckets=num_buckets
        )
        kept_sigs = bucketed_anti_semi_join(
            sigt, bad_ds, id_col, "_bad", anti=True, num_buckets=num_buckets
        )

    t0 = tick()
    _register(kept_sigs, state_dir, increment)
    _mark("register", t0)
    return survivors


def _register(kept_sigs, state_dir: str, increment: str) -> None:
    """Atomic idempotent store registration (same staging dance as
    dedup.exact_dedup_incremental): write_shard to a staging dir, rename
    into place, replacing any prior entry for the same increment name."""
    from ..state.manifest import write_shard

    inc_dir = os.path.join(state_dir, f"increment={increment}")
    staging = os.path.join(state_dir, f"increment={increment}.staging")
    write_shard(kept_sigs, staging, 0, input_fingerprint=increment)
    staged = os.path.join(staging, "shard=0")
    if os.path.exists(inc_dir):
        shutil.rmtree(inc_dir)
    os.rename(staged, inc_dir)
    shutil.rmtree(staging, ignore_errors=True)


def _pad_ids(arr) -> pa.Array:
    """Zero-pad int ids to fixed-width strings so CC's lexicographic
    min-label equals the numeric min.

    Contract: ids must be NONNEGATIVE — '-5' would lpad to '...00-5' and
    break lexicographic==numeric ordering, silently electing the wrong
    cluster representative. Enforced here so a bad id column fails loudly."""
    import pyarrow.compute as pc

    if len(arr) and pa.types.is_signed_integer(arr.type):
        lo = pc.min(arr).as_py()
        if lo is not None and lo < 0:
            raise ValueError(
                f"incremental dedup ids must be nonnegative (min={lo}): "
                "zero-left-padding breaks min-label ordering for negatives"
            )
    return pc.utf8_lpad(pc.cast(arr, pa.string()), 20, "0")
