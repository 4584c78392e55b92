"""Blocking stage: blocking-key emission + bounded per-block pair generation.

Re-expresses the reference's Top-K similarity join blocking
(/root/reference/splitters/KNN-Join/splitter.py:72-86, settings at
splitters/KNN-Join/settings.py:1-12) as shuffle algebra instead of an
in-memory token index:

    normalize → map_batches emits (block_key, url, payload) rows
              → groupby(block_key) → bounded pair generation, all blocks of
                a bucket in one vectorized kernel (arrays.group_pair_index)

Keys emitted per document:
- ``num_bands`` MinHash-LSH band keys over the reference's tokenization
  family (whitespace tokens or char q-grams of the normalized text);
- one sorted-neighborhood key (normalized-title prefix), the classic
  complement that catches pairs LSH can miss on very short titles.

Scale levers (all explicit knobs):
- per-key group cap ``max_block_size`` — groups beyond it switch from
  all-pairs to sorted-neighbor windowing (cap analog of the reference's K,
  splitter.py:179-181), so a hot key (empty title, boilerplate text) costs
  O(n·window) not O(n²);
- oversized groups are never silently dropped: the pair emitter reports
  ``truncated_blocks`` through its output so blocking recall stats (A1,
  splitter.py:105-110) stay honest;
- candidate dedup across bands is a hash-partitioned groupby on the pair
  key, keeping only ids + bounded payload in pair rows (the reference's
  full-payload wide pair rows, splitter.py:96-103, don't scale).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..functions.arrays import group_pair_index
from ..functions.hashing import (
    arrow_word_shingle_hashes,
    lsh_band_keys_u64,
    minhash_coeffs,
    minhash_signatures,
    minhash_signatures_hashed,
    stable_hash64,
    word_shingles,
)
from ..functions.simfuncs import qgrams
from .groupby import _arrow_block, exchange_group_apply, with_meta


class BlockKeyEmitter:
    """Callable over an Arrow batch of normalized pages: explode each page
    into (block_key, url) rows. The minhash coefficients are built once per
    instance."""

    def __init__(
        self,
        num_perm: int = 64,
        num_bands: int = 16,
        seed: int = 7,
        tokenization: str = "words",  # "words" | "qgrams"
        qgram: int = 5,
        sn_prefix: int = 12,
        payload_chars: int = 256,
    ):
        self.num_perm = num_perm
        self.num_bands = num_bands
        self.tokenization = tokenization
        self.qgram = qgram
        self.sn_prefix = sn_prefix
        self.payload_chars = payload_chars
        self.coeffs = minhash_coeffs(num_perm, seed)

    def _tokens(self, norm_text: str) -> list[str]:
        if self.tokenization == "qgrams":
            return qgrams(norm_text, self.qgram)
        if self.tokenization == "shingles":
            # word k-shingles: sequence-sensitive — required for bag-of-words
            # corpora where unigram sets saturate (every doc covers the vocab);
            # norm_text is already lowercase (textnorm.tokenize / pages.py)
            return word_shingles(norm_text, 3, lower=False)
        return norm_text.split()

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Emit ID-ONLY (block_key, url) rows. Payloads do NOT travel through
        the key shuffle — with num_bands+1 keys per doc the amplification is
        ~17x, so carrying text here multiplies shuffle volume by the same
        factor (measured ~500 MB on a 100k-doc corpus). Pair payloads are
        re-attached after cross-band dedup via a bucketed cogroup join
        (attach_pair_payloads), which moves each payload once."""
        urls = batch.column("url").to_pylist()
        norm_titles = batch.column("norm_title").to_pylist()
        if self.tokenization == "qgrams":
            # character q-grams have no whitespace structure to exploit —
            # the Python token path stays
            norm_texts = batch.column("norm_text").to_pylist()
            token_lists = [self._tokens(t) for t in norm_texts]
            sig = minhash_signatures(token_lists, self.num_perm, coeffs=self.coeffs)
        else:
            # words (k=1) / word 3-shingles: zero-Python-string kernel —
            # norm_text is already lowercase (textnorm.tokenize / pages.py)
            k = 3 if self.tokenization == "shingles" else 1
            h, c = arrow_word_shingle_hashes(
                batch.column("norm_text"), k, lower=False
            )
            sig = minhash_signatures_hashed(h, c, self.num_perm, coeffs=self.coeffs)
        # int64 band keys: 8-byte fixed keys shuffle far cheaper than the
        # ~24-byte strings when key rows = num_bands × corpus
        bands = lsh_band_keys_u64(sig, self.num_bands)

        if self.sn_prefix > 0:
            # sorted-neighborhood key: normalized title prefix. Only
            # meaningful when titles are real titles — on corpora where the
            # "title" is just a text prefix it degenerates into huge hot
            # buckets of vocabulary-mates (measured: 3.2M junk pairs on a
            # 400k bag-of-words corpus); disable with sn_prefix=0 there.
            sn_strings = [
                "sn:" + t[: self.sn_prefix] if t else "sn:~empty" for t in norm_titles
            ]
            sn = (stable_hash64(sn_strings) >> np.uint64(1)).astype(np.int64)
            keys = np.concatenate([*bands, sn])
            reps = self.num_bands + 1
        else:
            keys = np.concatenate(bands)
            reps = self.num_bands
        return pa.table(
            {
                "block_key": pa.array(keys, pa.int64()),
                "url": pa.array(urls * reps, pa.string()),
            }
        )


def emit_block_keys(norm_ds, batch_size: int = 1024, **emitter_kwargs):
    """normalized pages Dataset → exploded (block_key, url) Dataset.

    One task per block of the materialized input (a lazy input runs once)
    applies the emitter to ``batch_size``-row slices of its block and
    returns the block's key rows, so over a materialized table this starts
    no streaming execution. Small slices: MinHash permutation is the most
    compute-dense kernel in the pipeline (~num_perm ops per shingle), and
    a slice bounds its signature matrix.
    """
    import ray.data as rd

    from .groupby import _materialized_blocks, dataset_of

    emitter = BlockKeyEmitter(**emitter_kwargs)
    refs, _, _ = _materialized_blocks(norm_ds)
    if not refs:
        return rd.from_arrow(
            pa.table({"block_key": pa.array([], pa.int64()), "url": pa.array([], pa.string())})
        )
    return dataset_of([_emit_keys.remote(r, emitter, batch_size) for r in refs])


@ray.remote(num_returns=2)
def _emit_keys(block, emitter: BlockKeyEmitter, batch_size: int):
    """One block's key rows, emitted ``batch_size`` rows at a time, with
    their metadata. Module level: a remote function defined inside its
    caller is exported to the cluster again on every call (~1.6 ms on one
    CPU)."""
    t = _arrow_block(block)
    return with_meta(pa.concat_tables(
        [emitter(t.slice(o, batch_size)) for o in range(0, t.num_rows, batch_size)]
    ))


def _pairs_in_bucket(df: pd.DataFrame, max_block_size: int, window: int) -> pd.DataFrame:
    """Pair generation over one hash bucket of (block_key, url, …) rows.

    Per block: all-pairs below the cap, sorted-neighbor windowing beyond it.
    Deterministic: rows sorted by url within a block; left<right always.
    All blocks of the bucket are paired in one vectorized pass
    (:func:`group_pair_index`), not a Python loop per block: blocks are
    small, but a 520-page corpus has ~3.5k of them, and the loop took about
    1 s on one CPU where the kernel takes under 10 ms.
    """
    # singleton keys (the vast majority of LSH band keys) can't form pairs —
    # drop them before the sort
    df = df[df.duplicated("block_key", keep=False)]
    df = df.sort_values(["block_key", "url"]).drop_duplicates(["block_key", "url"])
    ii, jj, truncated = group_pair_index(df["block_key"].to_numpy(), max_block_size, window)
    urls = df["url"].to_numpy()
    return pd.DataFrame(
        {"left_url": urls[ii], "right_url": urls[jj], "truncated": truncated.astype(np.int8)}
    )


#: ``generate_pairs`` runs its singleton prefilter only on at least this many
#: key rows: below it the count pass is pure added latency (measured +1-2 s
#: on the 5k-doc sf0.1 table against -2.9 s per CPU leg on a 3.2M-doc run).
PREFILTER_MIN_ROWS = 2_000_000


def generate_pairs(
    keyed_ds,
    max_block_size: int = 64,
    window: int = 8,
    dedup: bool = True,
    num_buckets: int | None = None,
):
    """bucketed groupby(block_key) → bounded pair emission → cross-band dedup.

    Output: id-only (left_url, right_url, truncated). ``dedup=True``
    re-buckets on the pair key and
    keeps one row per pair via a vectorized ``drop_duplicates`` (reference D1
    exact dedup, /root/reference/splitters/random-split/merger.py:34). Both
    shuffles are hash exchanges (see groupby.py for why).

    Singleton prefilter, from :data:`PREFILTER_MIN_ROWS` key rows: the vast
    majority of LSH band keys are singletons that can never form a pair, yet
    every one of their (key, url) rows would ride the exchange only to be
    dropped by ``_pairs_in_bucket``. A count pass over the KEY COLUMN ALONE
    (8-byte rows, ~5× less traffic; ``groupby.counted_key_survivors``)
    finds the multi-document keys, and that set is broadcast so the
    string-carrying exchange moves only rows that can pair (~2 % of rows on
    the near-dup benchmark corpus). Past the key-set gate the unfiltered
    exchange runs, which stays correct.
    """
    from .groupby import counted_key_survivors, materialized
    from .joins import BroadcastSemiJoin, put_broadcast

    # consumed twice (count pass + filtered exchange): pin the keyed rows
    # once instead of re-running the minhash emitter
    keyed_ds = materialized(keyed_ds)
    if keyed_ds.count() >= PREFILTER_MIN_ROWS:
        surv = counted_key_survivors(keyed_ds, "block_key", num_buckets)
        if surv is not None:
            keyed_ds = keyed_ds.map_batches(
                BroadcastSemiJoin(put_broadcast(surv), "block_key"),
                batch_format="pyarrow",
            )

    # the hottest shuffle in the pipeline (num_bands rows per doc) → raw-Ray
    # hash exchange instead of Ray Data's sort-based groupby
    pairs = exchange_group_apply(
        keyed_ds,
        "block_key",
        lambda df: _pairs_in_bucket(df, max_block_size, window),
        num_buckets=num_buckets,
    )
    if not dedup:
        return pairs
    return exchange_group_apply(
        pairs,
        ["left_url", "right_url"],
        lambda df: df.sort_values("truncated").drop_duplicates(["left_url", "right_url"]),
        num_buckets=num_buckets,
    )


def attach_pair_payloads(
    pairs_ds,
    norm_ds,
    payload_chars: int = 256,
    num_buckets: int | None = None,
):
    """J3: re-attach scoring payloads (title + truncated norm_text) to the
    id-only pair rows. Each payload crosses the wire once either way —
    instead of num_bands+1 times through the key shuffle.

    The payload side is built with one task per normalized block (the
    semi-join on the urls the pairs reference, then the projection); each
    task returns its table and its bytes. Two arms (the classic small-side
    rule, decided by ``joins.choose_arm`` on the sum of those bytes, before
    any side table reaches the driver):
    - broadcast — the payload side fits a worker heap: the driver
      consolidates the side tables and ``ray.put`` s the (url → title,
      payload) table ONCE; one task per pair block looks its endpoints up.
      Zero shuffles.
    - exchange — two bucketed cogroup joins (left side, then right side)
      over the same side tables. Needed when the payload side no longer
      fits one heap (the 10^12-doc regime); costs two all-to-all barriers,
      which is why it is not taken at broadcastable sizes (measured: +57s
      on a 100k-doc corpus purely from the extra barriers).
    The result is materialized on both arms. Over materialized pairs and a
    materialized ``norm_ds`` the broadcast arm starts no streaming
    execution: the endpoint scan, the side build and the attach are plain
    tasks over their blocks.
    """
    import ray.data as rd

    from .groupby import _materialized_blocks, dataset_of, materialized
    from .joins import bucketed_join, choose_arm, pair_endpoints

    # The useful side is never the corpus — it is the semi-join-filtered
    # projection (urls referenced by pairs only, O(pairs) rows), so BOTH
    # arms shrink the payload side through it whenever the needed-url set
    # passes the key-set gate (measured on 6.4M docs / 527k pairs: the join
    # path over the unfiltered corpus side takes 69 s vs 6 s filtered).
    # Deciding on the full corpus size instead flipped 1.6M-doc runs onto
    # the unfiltered join path.
    # pairs are consumed twice below (endpoint scan + attach); pin them
    pairs_ds = materialized(pairs_ds)
    needed_arr = pair_endpoints(pairs_ds, ["left_url", "right_url"])

    side_refs = None
    if needed_arr is not None:
        needed_ref = ray.put(needed_arr)
        norm_refs, _, _ = _materialized_blocks(norm_ds)
        outs = [_project_side.remote(r, needed_ref, payload_chars) for r in norm_refs]
        nbytes = sum(ray.get([n for _, n in outs]))
        side_refs = [t for t, _ in outs]
    if side_refs is not None and choose_arm(nbytes) == "broadcast":
        # consolidate the broadcast side into ONE object-store table:
        # shipping it as raw block refs (often 100s of tiny blocks) makes
        # every worker issue |blocks| serialized plasma fetches — measured as
        # a 25 s convoy at 32 workers x ~640 blocks where this single
        # put-once table costs ~0.2 s and is read zero-copy per node. The
        # side is the semi-join-filtered projection (O(pairs) rows), so the
        # driver-side concat is bounded by the same gate.
        side_blocks = [t for t in ray.get(side_refs) if t.num_rows]
        side_tbl = (
            pa.concat_tables(side_blocks).combine_chunks()
            if side_blocks
            else pa.table(
                {
                    "url": pa.array([], pa.string()),
                    "title": pa.array([], pa.string()),
                    "payload": pa.array([], pa.string()),
                }
            )
        )
        # normalization can collapse distinct raw urls onto one
        # canonical url (fragment / trailing-slash variants). Dedup ONCE
        # here on the driver — the side is already local and small —
        # keeping one payload per url deterministically (smallest
        # (title, payload) wins, independent of block arrival order).
        if pc.count_distinct(side_tbl.column("url")).as_py() != side_tbl.num_rows:
            order = pc.sort_indices(
                side_tbl,
                sort_keys=[
                    ("url", "ascending"),
                    ("title", "ascending"),
                    ("payload", "ascending"),
                ],
            )
            s = side_tbl.take(order)
            u = s.column("url").to_numpy(zero_copy_only=False)
            keep = np.empty(len(u), dtype=bool)
            if len(u):
                keep[0] = True
                keep[1:] = u[1:] != u[:-1]
            side_tbl = s.filter(pa.array(keep))
        side_ref = ray.put(side_tbl)
        pair_refs, _, _ = _materialized_blocks(pairs_ds)
        if not pair_refs:
            return pairs_ds
        return dataset_of([_attach_both.remote(r, side_ref) for r in pair_refs])

    # exchange arm: two bucketed cogroup joins. Sides come from the
    # PROJECTED (needed-urls-only) table whenever the url set passed its
    # gate — ~20x smaller at the measured 6.4M-doc point (unfiltered join
    # 69 s vs 6 s filtered) — and only fall back to the full normalized
    # table when even the url set is past it.
    def side(prefix: str, projected_cols: bool):
        def fn(t: pa.Table) -> pa.Table:
            if projected_cols:
                title, payload = t.column("title"), t.column("payload")
            else:
                title = t.column("norm_title")
                payload = pc.utf8_slice_codeunits(t.column("norm_text"), 0, payload_chars)
            return pa.table(
                {
                    f"{prefix}_url": t.column("url"),
                    f"{prefix}_title": title,
                    f"{prefix}_payload": payload,
                }
            )

        return fn

    projected = side_refs is not None
    src = rd.from_arrow_refs(side_refs) if projected else norm_ds
    left_side = src.map_batches(side("left", projected), batch_format="pyarrow")
    right_side = src.map_batches(side("right", projected), batch_format="pyarrow")
    with_left = bucketed_join(pairs_ds, left_side, "left_url", num_buckets=num_buckets)
    return bucketed_join(with_left, right_side, "right_url", num_buckets=num_buckets)


@ray.remote(num_returns=2)
def _project_side(block, needed: pa.Array, payload_chars: int):
    """One normalized block's payload side: the pages ``needed`` names as
    (url, title, payload), and the side's bytes for the gate."""
    from .joins import BroadcastSemiJoin

    t = BroadcastSemiJoin(needed, "url")(_arrow_block(block))
    side = pa.table(
        {
            "url": t.column("url"),
            "title": t.column("norm_title"),
            "payload": pc.utf8_slice_codeunits(t.column("norm_text"), 0, payload_chars),
        }
    )
    return side, side.nbytes


@ray.remote(num_returns=2)
def _attach_both(block, side: pa.Table):
    """One pair block with the title and payload of both ends, looked up in
    the broadcast side (url, title, payload), which Ray hands every task
    zero-copy from the object store, and the block's metadata.

    The attach stays ARROW end-to-end: probe with index_in + take, no
    pandas index, no to_pandas of the side. The previous pandas-index form
    converted the full side to Python objects once per worker — and in
    workers that already ran the emit/exchange stages that conversion
    exhibits an allocator pathology (measured 10-21 s of pure CPU inside
    Arrow's table_to_dataframe for a conversion a fresh process does in
    0.35 s; ~300 CPU-seconds across one attach). index_in/take never
    allocate Python objects at all."""
    t = _arrow_block(block)
    urls = side.column("url")
    li = pc.index_in(t.column("left_url"), value_set=urls)
    ri = pc.index_in(t.column("right_url"), value_set=urls)
    cols = {n: t.column(n) for n in t.column_names}
    cols["left_title"] = pc.take(side.column("title"), li)
    cols["left_payload"] = pc.take(side.column("payload"), li)
    cols["right_title"] = pc.take(side.column("title"), ri)
    cols["right_payload"] = pc.take(side.column("payload"), ri)
    return with_meta(pa.table(cols))


def blocking_stats(pairs_ds, truth_pairs_df: pd.DataFrame) -> dict:
    """A1 blocking precision/recall vs golden pairs.

    Reference prints these after candidate generation
    (/root/reference/splitters/KNN-Join/splitter.py:94,105-110).
    ``truth_pairs_df`` must have (left_url, right_url, label) with left<right.
    """
    truth = truth_pairs_df[truth_pairs_df["label"] == 1].drop_duplicates(
        ["left_url", "right_url"]
    )
    n_truth = len(truth)
    # golden set is broadcast-small by definition (labeled pairs); candidates
    # are NOT — the counting runs distributed as per-batch Arrow kernels and
    # the driver only ever sees two counters per batch
    truth_keys = pa.array(
        (truth["left_url"].astype(str) + "\x1f" + truth["right_url"].astype(str)).to_numpy(dtype=object),
        pa.string(),
    )
    truth_ref = ray.put(truth_keys)

    def partial(t: pa.Table) -> pa.Table:
        want = ray.get(truth_ref)
        if len(want) and t.num_rows:
            keys = pc.binary_join_element_wise(
                pc.cast(t.column("left_url"), pa.string()),
                pc.cast(t.column("right_url"), pa.string()),
                "\x1f",
            )
            hits = pc.sum(pc.is_in(keys, value_set=want)).as_py() or 0
        else:
            hits = 0
        return pa.table(
            {
                "n": pa.array([t.num_rows], pa.int64()),
                "tp": pa.array([int(hits)], pa.int64()),
            }
        )

    n_pairs = 0
    tp = 0
    for batch in (
        pairs_ds.select_columns(["left_url", "right_url"])
        .map_batches(partial, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")
    ):
        n_pairs += sum(batch.column("n").to_pylist())
        tp += sum(batch.column("tp").to_pylist())
    precision = tp / n_pairs if n_pairs else 0.0
    recall = tp / n_truth if n_truth else 1.0
    return {
        "num_candidates": n_pairs,
        "true_positives_covered": tp,
        "num_truth_pairs": n_truth,
        "precision": precision,
        "recall": recall,
    }
