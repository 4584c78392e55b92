"""Deterministic hashing kernels: stable 64-bit hashes, MinHash, SimHash,
rolling-hash document fingerprints.

All hashes are pure functions of their inputs (no process salt), so two runs
at different parallelism levels produce identical keys — the determinism
requirement the reference lacks (its seeds default to ``random.randint``,
``/root/reference/splitters/KNN-Join/splitter.py:187``) and that the scaling
comparison in BASELINE.md depends on.

The base primitive is pandas' SipHash-1-3 with a fixed key
(``pd.util.hash_array``), which is stable across processes and platforms.
MinHash permutations are the standard ``(a*h + b) mod p`` family with
coefficients drawn from a seeded NumPy generator, so signatures are
reproducible given (num_perm, seed).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

_MERSENNE_P = np.uint64((1 << 61) - 1)
_MAX_HASH = np.uint64((1 << 32) - 1)


def word_shingles(text: str, k: int, lower: bool = True) -> list[str]:
    """Lowercased word k-shingles: the shared tokenizer of every MinHash
    emitter (blocking, near-dup dedup, incremental dedup), so their band
    keys agree by construction. Docs with ≤k words yield ONE shingle (all
    words joined); empty docs yield none. Pass ``lower=False`` when the
    text is already normalized-lowercase (blocking's ``norm_text``) to
    skip the O(n) copy.

    ``map(" ".join, zip(ws, ws[1:], …))`` is ~25 % faster than the slicing
    comprehension with identical output (measured, 2k docs × ~150 words).
    This remains the reference semantics and the path for callers that need
    the shingle STRINGS; the MinHash emitters instead use
    :func:`arrow_word_shingle_hashes`, which produces shingle HASHES with
    the same counts 4.6× faster by never materializing shingle strings
    (earlier Arrow attempts that still built strings — a
    ``binary_join_element_wise`` window build, a numpy SipHash — measured
    2.8–3× SLOWER than this loop; hashing the dictionary-encoded vocab once
    per batch is what makes the Arrow path win).
    """
    ws = (text.lower() if lower else text).split()
    if len(ws) <= k:
        return [" ".join(ws)] if ws else []
    return list(map(" ".join, zip(*(ws[i:] for i in range(k)))))


# polynomial-combine constant for word-window hashes: odd ⇒ multiplication
# mod 2^64 is a bijection, so the combine never loses word-hash entropy
_POLY_C = np.uint64(0x9E3779B97F4A7C15)


def arrow_word_shingle_hashes(
    texts, k: int, lower: bool = True, bits: int = 32
) -> tuple[np.ndarray, np.ndarray]:
    """Word k-shingle HASHES per doc with no Python strings in the loop:
    returns ``(flat_hashes, counts)`` where ``flat_hashes`` is the
    concatenated uint64 shingle hashes (< 2^32, doc-major, window order) and
    ``counts`` the per-doc shingle count — ready for
    :func:`minhash_signatures_hashed`.

    ``bits=64`` skips the final 32-bit fold and returns 63-bit hashes
    (< 2^63, int64-safe) — the exact-identity space for inverted-index
    emitters (ngram_jaccard / boilerplate / decontam), where 32 bits would
    collide at web scale. MinHash keeps the 32-bit default (required by
    the no-wrap permute).

    Shingle COUNTS match :func:`word_shingles` exactly (docs with 1..k words
    → ONE shingle, empty/whitespace-only → none), but the hash FAMILY
    differs: each distinct word is SipHashed once (``pd.util.hash_array``
    over the batch's dictionary-encoded vocab — Zipf makes the vocab ≪
    tokens), then k-windows combine by the polynomial ``h = h*C + w`` mod
    2^64, folded to 32 bits. Equally uniform for MinHash/LSH, and 4.6×
    faster than shingle-string hashing on zipf(1.3)/50k-vocab text (0.69 s
    → 0.15 s per 1.5M words, one core) because no shingle string is ever
    materialized and each word is hashed once instead of k times.

    Determinism: hashes depend only on word bytes (dictionary order cancels
    out), so keys agree across batching/parallelism — same contract as
    :func:`stable_hash64`.
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    if not isinstance(texts, (pa.Array, pa.ChunkedArray)):
        texts = pa.array(list(texts), pa.string())
    texts = pc.fill_null(texts, "")
    if lower:
        texts = pc.utf8_lower(texts)
    # trim first: Arrow's split emits boundary "" words for leading/trailing
    # whitespace (interior runs are collapsed); after trim only the
    # all-whitespace doc still yields [""], masked below
    words = pc.utf8_split_whitespace(pc.utf8_trim_whitespace(texts))
    if isinstance(words, pa.ChunkedArray):
        words = words.combine_chunks()
    n = len(words)
    if n == 0:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    offs = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    doc_start, doc_end = offs[:-1], offs[1:]
    wcount = doc_end - doc_start
    flat_words = words.values
    wlen = pc.binary_length(flat_words).to_numpy(zero_copy_only=False)
    empty = np.zeros(n, dtype=bool)
    one_word = wcount == 1
    if one_word.any():
        empty[one_word] = wlen[doc_start[one_word]] == 0

    # hash each DISTINCT word once, gather per occurrence
    enc = flat_words.dictionary_encode()
    vocab_hash = pd.util.hash_array(
        enc.dictionary.to_numpy(zero_copy_only=False), categorize=False
    )
    wh = vocab_hash[enc.indices.to_numpy(zero_copy_only=False)]

    # full k-windows, valid where the window stays inside one doc
    h = wh.copy()
    for i in range(1, k):
        h = h[: len(wh) - i] * _POLY_C + wh[i:]
    n_full = np.where((~empty) & (wcount >= k), wcount - k + 1, 0)
    short = (~empty) & (wcount >= 1) & (wcount < k)
    counts = n_full + short.astype(np.int64)

    out = np.zeros(int(counts.sum()), dtype=np.uint64)
    dst0 = np.concatenate(([0], np.cumsum(counts)[:-1]))
    if n_full.sum():
        within = np.arange(int(n_full.sum()), dtype=np.int64) - np.repeat(
            np.concatenate(([0], np.cumsum(n_full)[:-1])), n_full
        )
        out[np.repeat(dst0, n_full) + within] = h[np.repeat(doc_start, n_full) + within]
    # short docs (1 ≤ w < k): one shingle combining all w words, same
    # recurrence — a w==k doc through the window path gives the same value
    for w in range(1, k):
        sel = np.nonzero(short & (wcount == w))[0]
        if not sel.size:
            continue
        hh = wh[doc_start[sel]]
        for j in range(1, w):
            hh = hh * _POLY_C + wh[doc_start[sel] + j]
        out[dst0[sel]] = hh
    if bits == 64:
        return out >> np.uint64(1), counts  # 63-bit, int64-nonnegative
    # fold to < 2^32 for the exact no-wrap MinHash permute
    out = ((out >> np.uint64(32)) ^ (out & _MAX_HASH)) & _MAX_HASH
    return out, counts


def stable_hash64(values) -> np.ndarray:
    """Deterministic uint64 hash of an array of strings/bytes.

    Unlike Python's builtin ``hash`` this is NOT salted per process, so it is
    safe to use for partitioning keys, dedup keys and sampling decisions that
    must agree across workers and across runs.
    """
    arr = np.asarray(values, dtype=object)
    return pd.util.hash_array(arr, categorize=False)


def hash_to_uint32(values) -> np.ndarray:
    """Stable 32-bit hash (uint64 folded), for MinHash token ids."""
    h = stable_hash64(values)
    return ((h >> np.uint64(32)) ^ (h & _MAX_HASH)).astype(np.uint64) & _MAX_HASH


def minhash_coeffs(num_perm: int, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    """Permutation coefficients (a, b) for ``num_perm`` MinHash functions.

    a, b are drawn below 2^32 so that with token hashes h < 2^32 the product
    ``a*h + b`` fits a uint64 EXACTLY (max (2^32-1)^2 + 2^32-1 < 2^64): the
    subsequent ``% (2^61-1)`` reduction is exact modular arithmetic, not the
    mod-2^64 wraparound a full-range ``a`` would silently introduce — which
    would break the universal-family Jaccard-estimate guarantee.
    """
    rng = np.random.default_rng(seed)
    a = rng.integers(1, 1 << 32, size=num_perm, dtype=np.uint64)
    b = rng.integers(0, 1 << 32, size=num_perm, dtype=np.uint64)
    return a, b


def minhash_signatures(
    token_lists: list[list[str]] | list[np.ndarray],
    num_perm: int = 128,
    seed: int = 7,
    coeffs: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """MinHash signatures for a batch of token sets → ``(n_docs, num_perm)`` uint64.

    Vectorized: all tokens of the batch are hashed in one call, permuted in one
    ``(total_tokens, num_perm)`` matmul-shaped broadcast, then reduced per doc
    with ``np.minimum.reduceat``. Empty docs get the all-MAX signature.

    This replaces the reference's in-memory pyjedai ``TopKJoin`` token index
    (``/root/reference/splitters/KNN-Join/splitter.py:78-81``) with a
    shuffle-friendly sketch: signatures → band keys → ``groupby(band_key)``.
    """
    lengths = np.fromiter(
        (len(t) for t in token_lists), dtype=np.int64, count=len(token_lists)
    )
    if lengths.sum() == 0:
        th = np.empty(0, dtype=np.uint64)
    else:
        flat = np.concatenate(
            [np.asarray(t, dtype=object) for t in token_lists if len(t)]
        )
        th = hash_to_uint32(flat)  # (total,) uint64 values < 2^32
    return minhash_signatures_hashed(th, lengths, num_perm, seed=seed, coeffs=coeffs)


def minhash_signatures_hashed(
    th: np.ndarray,
    lengths: np.ndarray,
    num_perm: int = 128,
    seed: int = 7,
    coeffs: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """:func:`minhash_signatures` over PRE-HASHED tokens: ``th`` is the
    flattened uint64 token-hash array (each value < 2^32 — required for the
    exact no-wrap permute below) and ``lengths`` the per-doc token counts,
    ``lengths.sum() == len(th)``. This is the zero-Python-string path fed by
    :func:`arrow_word_shingle_hashes`."""
    a, b = coeffs if coeffs is not None else minhash_coeffs(num_perm, seed)
    n = len(lengths)
    # uint32 signatures: halves the memory traffic of the (tokens × perms)
    # intermediate — this kernel is bandwidth-bound, not FLOP-bound
    sig = np.full((n, num_perm), np.uint32(_MAX_HASH), dtype=np.uint32)
    total = int(lengths.sum())
    if total == 0:
        return sig
    nonempty_idx = np.nonzero(lengths > 0)[0]
    ne_lengths = lengths[nonempty_idx]
    offsets = np.zeros(len(ne_lengths), dtype=np.int64)
    np.cumsum(ne_lengths[:-1], out=offsets[1:])
    # process in CACHE-sized chunks of whole documents: the (tokens ×
    # num_perm) intermediate must fit L2 per core, not just RAM. Measured on
    # this kernel (64 perms, 50-token docs, one core): 65536-token chunks =
    # 2.3 s/1.4M tokens; 2048-token chunks + Mersenne fold = 0.58 s — and
    # the small working set stops 16 concurrent workers from saturating the
    # memory bus (the round-1 scaling bottleneck).
    CHUNK_TOKENS = 2048
    d0 = 0
    while d0 < len(ne_lengths):
        d1 = d0
        tok = 0
        while d1 < len(ne_lengths) and (tok == 0 or tok + ne_lengths[d1] <= CHUNK_TOKENS):
            tok += ne_lengths[d1]
            d1 += 1
        t0 = offsets[d0]
        chunk = th[t0 : t0 + tok]
        # exact: chunk < 2^32 and a,b < 2^32 ⇒ chunk*a + b < 2^64 (no wrap)
        x = np.multiply(chunk[:, None], a[None, :])
        x += b[None, :]
        # x mod (2^61-1) via the Mersenne fold (shift+add, no division):
        # x < 2^64 ⇒ (x>>61) + (x&P) < P + 8, one conditional subtract
        y = x >> np.uint64(61)
        y += x & _MERSENNE_P
        np.subtract(y, _MERSENNE_P, out=y, where=y >= _MERSENNE_P)
        y &= _MAX_HASH
        rel_off = (offsets[d0:d1] - t0).astype(np.int64)
        mins = np.minimum.reduceat(y, rel_off, axis=0)
        sig[nonempty_idx[d0:d1]] = mins.astype(np.uint32)
        d0 = d1
    return sig


def lsh_band_keys_u64(
    signatures: np.ndarray, num_bands: int, salt: int = 0
) -> list[np.ndarray]:
    """Split ``(n, num_perm)`` signatures into ``num_bands`` bands and hash
    each band to an int64 key (band hash mixed with a per-band constant);
    a pair of docs sharing ANY band key is a candidate. 8-byte fixed keys
    sort and hash far cheaper in shuffles than ~24-byte strings when the
    key table is num_bands × corpus rows.
    """
    n, num_perm = signatures.shape
    assert num_perm % num_bands == 0, "num_perm must be divisible by num_bands"
    rows = num_perm // num_bands
    out = []
    for bi in range(num_bands):
        band = np.ascontiguousarray(signatures[:, bi * rows : (bi + 1) * rows])
        byte_view = band.view(np.uint8).reshape(n, -1)
        band_bytes = [byte_view[i].tobytes() for i in range(n)]
        h = stable_hash64(band_bytes)
        mix = np.uint64((salt * 1_000_003 + bi) * 0x9E3779B97F4A7C15 & ((1 << 64) - 1))
        out.append(((h ^ mix) >> np.uint64(1)).astype(np.int64))
    return out


def simhash64(token_lists, seed: int = 11) -> np.ndarray:
    """64-bit SimHash per document: bit-vote over stable token hashes.

    Near-duplicate docs land within small Hamming distance; used by the
    simhash dedup stage (bucket on rotated prefixes).
    """
    n = len(token_lists)
    out = np.zeros(n, dtype=np.uint64)
    lengths = np.fromiter((len(t) for t in token_lists), dtype=np.int64, count=n)
    if lengths.sum() == 0:
        return out
    flat = np.concatenate([np.asarray(t, dtype=object) for t in token_lists if len(t)])
    th = stable_hash64(flat)
    # unpack bits via byte view (little-endian x86: unpacked[k] == (th>>k)&1)
    # — 1 byte/bit instead of the 8-byte shift matrix (measured 6.75 s →
    # 0.9 s per 10k docs); int16 sums are safe to 32767 tokens/doc
    bits = np.unpackbits(
        th.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
    )
    ne_lengths = lengths[lengths > 0]
    offsets = np.zeros(len(ne_lengths), dtype=np.int64)
    np.cumsum(ne_lengths[:-1], out=offsets[1:])
    # reduce along the CONTIGUOUS axis: axis-0 reduction over a (total, 64)
    # array strides 64 bytes per step and measured 3.5-5 s for 550k tokens;
    # the (64, total) transpose + axis-1 reduceat takes ~0.3 s. int16 sums
    # are safe to 32767 tokens per document.
    bits_t = np.ascontiguousarray(bits.T).astype(np.int16)  # (64, total)
    ones = np.add.reduceat(bits_t, offsets, axis=1).T  # (n_nonempty, 64)
    # majority vote: bit set iff count(1) * 2 > tokens (== sum(±1) > 0)
    sign = np.ascontiguousarray(
        (ones.astype(np.int64) * 2 > lengths[lengths > 0, None]).astype(np.uint8)
    )
    vals = np.packbits(sign, axis=1, bitorder="little").view(np.uint64).ravel()
    out[lengths > 0] = vals
    return out


def hamming_distance64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise Hamming distance between uint64 arrays."""
    x = a ^ b
    # numpy >= 2 has bitwise_count; emulate for 1.26
    cnt = np.zeros(x.shape, dtype=np.int64)
    x = x.copy()
    for _ in range(64):
        cnt += (x & np.uint64(1)).astype(np.int64)
        x >>= np.uint64(1)
    return cnt


class HllSketch:
    """HyperLogLog distinct-count sketch (public algorithm, Flajolet et al.
    2007): ``2^p`` one-byte registers, mergeable by element-wise max — the
    100 TB cardinality estimator (exact ``unique`` is an all-to-all
    shuffle; this is one numpy register array per batch plus a driver max).

    Vectorized: one stable hash pass per batch; register index = top ``p``
    bits, rank = leading-zero count of the remainder + 1. Uses the standard
    bias correction and the small-range (linear counting) correction."""

    __slots__ = ("p", "m", "registers")

    def __init__(self, p: int = 12, registers: np.ndarray | None = None):
        if not 4 <= p <= 18:
            raise ValueError(f"HLL precision p must be in [4, 18], got {p}")
        self.p = p
        self.m = 1 << p
        self.registers = (
            np.zeros(self.m, dtype=np.uint8) if registers is None else registers
        )

    def add_hashes(self, h: np.ndarray) -> "HllSketch":
        h = h.astype(np.uint64, copy=False)
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        rest = (h << np.uint64(self.p)) | (np.uint64(1) << np.uint64(self.p - 1))
        # leading-zero count of the remaining 64-p bits, +1
        rank = np.ones(len(h), dtype=np.uint8)
        mask = np.uint64(1) << np.uint64(63)
        cur = rest.copy()
        active = np.ones(len(h), dtype=bool)
        for _ in range(64 - self.p + 1):
            zero_top = active & ((cur & mask) == 0)
            rank[zero_top] += 1
            active &= zero_top
            if not active.any():
                break
            cur = cur << np.uint64(1)
        np.maximum.at(self.registers, idx, rank)
        return self

    def add(self, values) -> "HllSketch":
        vals = np.asarray(values, dtype=object)
        if len(vals):
            self.add_hashes(stable_hash64(vals))
        return self

    def merge(self, other: "HllSketch") -> "HllSketch":
        if other.p != self.p:
            raise ValueError("cannot merge sketches of different precision")
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def estimate(self) -> float:
        m = float(self.m)
        alpha = 0.7213 / (1.0 + 1.079 / m)
        inv_sum = np.sum(np.ldexp(1.0, -self.registers.astype(np.int64)))
        e = alpha * m * m / inv_sum
        zeros = int(np.count_nonzero(self.registers == 0))
        if e <= 2.5 * m and zeros:
            return m * np.log(m / zeros)  # linear counting, small range
        return float(e)


def column_hash64(values) -> np.ndarray:
    """uint64 stable hash of a column in its NATIVE dtype: numeric arrays
    take pandas' vectorized int/float hashing path (no object boxing),
    everything else goes through :func:`stable_hash64`. Deterministic
    across processes and runs, like stable_hash64."""
    arr = np.asarray(values)
    if arr.dtype.kind in "iufb":
        return pd.util.hash_array(arr, categorize=False)
    return stable_hash64(arr)


def hll_exact_stats(registers: np.ndarray, p: int) -> tuple[int, int, int]:
    """Exact-integer sufficient statistics + estimate for an HLL register
    array: ``(zeros, s_scaled, approx_ndv)``.

    ``s_scaled = sum_r 2^(rmax - reg_r)`` with ``rmax = 64 - p + 1`` is the
    register harmonic sum scaled to an EXACT integer (fits int128 for all
    p), so an independent engine (the DuckDB oracle) can reproduce the
    whole estimate bit-for-bit: both sides compute
    ``alpha * m * m * 2^rmax / float(s_scaled)`` in the same operation
    order, and the linear-counting branch ``m * ln(m / zeros)`` from the
    same exact integers. ``approx_ndv`` is the floor of the estimate."""
    import math

    m = 1 << p
    rmax = 64 - p + 1
    regs = np.asarray(registers, np.int64)
    if regs.shape != (m,):
        raise ValueError(f"expected {m} registers, got shape {regs.shape}")
    zeros = int((regs == 0).sum())
    counts = np.bincount(regs[regs > 0], minlength=rmax + 1)
    s_scaled = zeros * (1 << rmax) + sum(
        int(c) * (1 << (rmax - r)) for r, c in enumerate(counts) if c
    )
    alpha = 0.7213 / (1 + 1.079 / m)
    e = alpha * m * m * float(2**rmax) / float(s_scaled)
    if e <= 2.5 * m and zeros > 0:
        est = m * math.log(m / zeros)
    else:
        est = e
    return zeros, s_scaled, int(math.floor(est))


def approx_distinct(ds, col: str, p: int = 12) -> float:
    """Distributed approximate distinct count of one column: per-batch HLL
    partials (a 2^p-byte register array each) merged on the driver —
    shuffle-free, standard error ≈ 1.04/sqrt(2^p) (~1.6 % at p=12)."""

    def partial(t) -> "pa.Table":  # noqa: F821 - pyarrow imported lazily
        import pyarrow as pa

        sk = HllSketch(p)
        vals = t.column(col).to_pylist()
        if vals:
            sk.add(vals)
        return pa.table({"registers": pa.array([sk.registers.tobytes()])})

    merged = HllSketch(p)
    for b in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        for buf in b.column("registers").to_pylist():
            merged.merge(HllSketch(p, np.frombuffer(buf, dtype=np.uint8).copy()))
    return merged.estimate()


def rolling_fingerprint(
    texts: list[str], k: int = 8, window: int = 16
) -> np.ndarray:
    """Winnowing-style document fingerprint: min-of-window over k-gram hashes,
    combined to one uint64 per document. Deterministic; near-identical texts
    collide with high probability.
    """
    out = np.zeros(len(texts), dtype=np.uint64)
    for i, t in enumerate(texts):
        if len(t) < k:
            out[i] = stable_hash64([t])[0]
            continue
        grams = [t[j : j + k] for j in range(len(t) - k + 1)]
        h = stable_hash64(grams)
        if len(h) <= window:
            out[i] = h.min()
            continue
        # min over each sliding window, then xor-combine the selected mins
        strides = np.lib.stride_tricks.sliding_window_view(h, window)
        mins = strides.min(axis=1)
        sel = np.unique(mins)
        acc = np.uint64(0)
        for v in sel:
            acc ^= v
        out[i] = acc
    return out
