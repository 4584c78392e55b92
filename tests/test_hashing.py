import numpy as np

from ertransfer_ray.functions import hashing as H


def test_stable_hash64_deterministic():
    a = H.stable_hash64(["foo", "bar", "foo"])
    b = H.stable_hash64(["foo", "bar", "foo"])
    assert a.dtype == np.uint64
    assert (a == b).all()
    assert a[0] == a[2] and a[0] != a[1]


def test_minhash_similar_sets_agree_more():
    docs = [
        list("abcdefghij"),
        list("abcdefghiX"),  # 9/11 jaccard ≈ 0.82
        list("zyxwvutsrq"),  # disjoint
    ]
    sig = H.minhash_signatures(docs, num_perm=256, seed=3)
    agree01 = (sig[0] == sig[1]).mean()
    agree02 = (sig[0] == sig[2]).mean()
    assert agree01 > 0.6
    assert agree02 < 0.2


def test_minhash_empty_doc():
    sig = H.minhash_signatures([[], ["a"]], num_perm=16)
    assert (sig[0] == np.uint64((1 << 32) - 1)).all()


def test_simhash_near_duplicates_close():
    a = "the quick brown fox jumps over the lazy dog extra tokens here".split()
    b = "the quick brown fox jumps over the lazy dog extra tokens there".split()
    c = "completely different words with no overlap whatsoever at all".split()
    s = H.simhash64([a, b, c])
    dab = H.hamming_distance64(s[0:1], s[1:2])[0]
    dac = H.hamming_distance64(s[0:1], s[2:3])[0]
    assert dab < dac
    assert dab <= 16


def test_rolling_fingerprint_identical_and_different():
    f = H.rolling_fingerprint(["hello world this is a document", "hello world this is a document", "zzz"])
    assert f[0] == f[1]
    assert f[0] != f[2]


def test_minhash_is_unbiased_jaccard_estimator():
    """Quantitative check of the universal-family guarantee (the round-2
    exact-arithmetic fix): collision rate of signature coordinates must
    track true Jaccard within ~4σ of the binomial noise at num_perm=1024."""
    num_perm = 1024
    for target in (0.2, 0.5, 0.8):
        # two sets of 200 tokens with |A∩B| = j/(1+... construct directly:
        # shared s tokens, each side adds (200 - s) uniques → J = s/(400-s)
        s = round(400 * target / (1 + target))
        shared = [f"sh{i}" for i in range(s)]
        a = shared + [f"a{i}" for i in range(200 - s)]
        b = shared + [f"b{i}" for i in range(200 - s)]
        true_j = s / (len(set(a) | set(b)))
        sig = H.minhash_signatures([a, b], num_perm=num_perm, seed=11)
        est = float(np.mean(sig[0] == sig[1]))
        sigma = (true_j * (1 - true_j) / num_perm) ** 0.5
        assert abs(est - true_j) < 4 * sigma + 1e-9, (target, true_j, est)


def test_minhash_chunking_invariant():
    """Signatures must not depend on the L2-chunk boundaries: a batch of
    docs large enough to span many chunks equals per-doc computation."""
    docs = [[f"t{d}_{i}" for i in range(50 + d % 37)] for d in range(200)]
    whole = H.minhash_signatures(docs, num_perm=64, seed=5)
    per_doc = np.vstack(
        [H.minhash_signatures([d], num_perm=64, seed=5) for d in docs]
    )
    np.testing.assert_array_equal(whole, per_doc)


def test_hll_estimate_within_error_bound():
    import numpy as np

    rng = np.random.default_rng(3)
    for true_n in (100, 5_000, 200_000):
        vals = [f"item-{i}" for i in range(true_n)]
        sk = H.HllSketch(p=12)
        # feed in chunks with repeats to exercise register max semantics
        sk.add(vals)
        sk.add(vals[: true_n // 2])
        est = sk.estimate()
        rel = abs(est - true_n) / true_n
        assert rel < 0.05, (true_n, est, rel)


def test_hll_merge_equals_union():
    a = H.HllSketch(p=10).add([f"a{i}" for i in range(3000)])
    b = H.HllSketch(p=10).add([f"b{i}" for i in range(3000)])
    u = H.HllSketch(p=10).add(
        [f"a{i}" for i in range(3000)] + [f"b{i}" for i in range(3000)]
    )
    merged = a.merge(b)
    assert (merged.registers == u.registers).all()


def test_approx_distinct_on_dataset():
    import pandas as pd
    import ray.data as rd

    df = pd.DataFrame({"k": [f"u{i % 4096}" for i in range(50_000)]})
    est = H.approx_distinct(rd.from_pandas(df), "k", p=12)
    assert abs(est - 4096) / 4096 < 0.05


# ---------------------------------------------------------------------------
# arrow_word_shingle_hashes: the zero-Python-string MinHash feed
# ---------------------------------------------------------------------------

_EDGE_DOCS = [
    "the quick brown fox jumps over the lazy dog",
    "",
    "   \t\n ",
    "one",
    "two words",
    "exactly three words",
    "tab\tand\nnewline   mix  here",
    "UPPER Case MiXeD case WORDS repeat repeat repeat",
    "  leading and trailing  ",
    "a b c d e f g h i j",
]


def test_arrow_shingle_counts_match_word_shingles():
    for k in (1, 2, 3, 5):
        _, counts = H.arrow_word_shingle_hashes(_EDGE_DOCS, k)
        expected = [len(H.word_shingles(d, k)) for d in _EDGE_DOCS]
        assert counts.tolist() == expected, k


def test_arrow_shingle_hashes_batch_invariant_and_bounded():
    h, c = H.arrow_word_shingle_hashes(_EDGE_DOCS, 3)
    h1, c1 = H.arrow_word_shingle_hashes(_EDGE_DOCS[:4], 3)
    h2, c2 = H.arrow_word_shingle_hashes(_EDGE_DOCS[4:], 3)
    assert np.array_equal(np.concatenate([h1, h2]), h)
    assert np.array_equal(np.concatenate([c1, c2]), c)
    assert (h < 2**32).all()  # required by the no-wrap MinHash permute
    # identical docs hash identically regardless of neighbors (dictionary
    # order cancels out)
    hh, cc = H.arrow_word_shingle_hashes([_EDGE_DOCS[0], _EDGE_DOCS[0]], 3)
    assert np.array_equal(hh[: cc[0]], hh[cc[0] :])
    assert np.array_equal(hh[: cc[0]], h[: c[0]])


def test_arrow_shingle_lower_flag_and_case():
    hu, _ = H.arrow_word_shingle_hashes(["Quick Fox"], 2, lower=False)
    hl, _ = H.arrow_word_shingle_hashes(["quick fox"], 2, lower=False)
    hd, _ = H.arrow_word_shingle_hashes(["Quick Fox"], 2, lower=True)
    assert hu[0] != hl[0]
    assert hd[0] == hl[0]


def test_minhash_signatures_hashed_band_agreement_tracks_jaccard():
    # two near-identical docs vs one unrelated: banded signatures from the
    # hashed path must separate them the same way the string path does
    base = " ".join(f"w{i}" for i in range(200))
    near = " ".join(f"w{i}" for i in range(199)) + " zz"
    far = " ".join(f"x{i}" for i in range(200))
    h, c = H.arrow_word_shingle_hashes([base, near, far], 3)
    sig = H.minhash_signatures_hashed(h, c, num_perm=128)
    agree_near = (sig[0] == sig[1]).mean()
    agree_far = (sig[0] == sig[2]).mean()
    assert agree_near > 0.9
    assert agree_far < 0.1
