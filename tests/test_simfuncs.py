import numpy as np

from ertransfer_ray.functions import simfuncs as S


def test_qgrams():
    assert S.qgrams("abcd", 2) == ["ab", "bc", "cd"]
    assert S.qgrams("ab", 5) == ["ab"]
    assert S.qgrams("", 3) == []
    assert S.qgrams("aaaa", 2, multiset=False) == ["aa"]


def test_set_metrics():
    assert S.jaccard(["a", "b"], ["b", "c"]) == 1 / 3
    assert S.dice(["a", "b"], ["b", "c"]) == 0.5
    assert abs(S.cosine_set(["a", "b"], ["b", "c"]) - 0.5) < 1e-12
    assert S.jaccard([], []) == 1.0
    assert S.cosine_set([], ["a"]) == 0.0


def test_jaro_winkler_known_values():
    # canonical textbook examples
    assert abs(S.jaro("MARTHA", "MARHTA") - 0.944444) < 1e-4
    assert abs(S.jaro_winkler("MARTHA", "MARHTA") - 0.961111) < 1e-4
    assert abs(S.jaro("DIXON", "DICKSONX") - 0.766667) < 1e-4
    assert S.jaro_winkler("abc", "abc") == 1.0
    assert S.jaro_winkler("", "abc") == 0.0


def test_csr_kernels_on_repeated_rows():
    """The CSR kernels equal the scalars also when two rows hold one text
    (callers need not pass distinct rows), empty rows included."""
    texts = ["", "", "abc", "abc", "ab", "cab", "a"]
    left, right = (a.ravel() for a in np.indices((len(texts), len(texts))))
    chars = S.codepoint_csr(texts)
    jw = S.csr_jaro_winkler(*chars, left, right)
    grams = S.csr_jaccard(*S.csr_sets(*S.csr_trigram_keys(*chars)), left, right)
    for p, (i, j) in enumerate(zip(left, right)):
        assert jw[p] == S.jaro_winkler(texts[i], texts[j])
        assert grams[p] == S.jaccard(S.qgrams(texts[i], 3), S.qgrams(texts[j], 3))


def test_cosine_matrix():
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    q = np.array([[1.0, 0.0]])
    cm = S.cosine_matrix(x, q)
    assert cm.shape == (3, 1)
    assert abs(cm[0, 0] - 1.0) < 1e-12
    assert abs(cm[2, 0] - 1 / np.sqrt(2)) < 1e-12


def test_softmax():
    p = S.softmax(np.array([[0.0, 0.0], [10.0, 0.0]]))
    assert np.allclose(p[0], [0.5, 0.5])
    assert p[1, 0] > 0.99
    assert np.allclose(p.sum(axis=1), 1.0)


def test_prepared_metric_matches_set_metric():
    import numpy as np

    from ertransfer_ray.functions.simfuncs import (
        PreparedBag,
        prepared_metric,
        qgrams,
        set_metric,
    )

    rng = np.random.default_rng(9)
    texts = [
        "garmin forerunner 235 gps running watch",
        "garmin forerunner 235 gps watch black",
        "apple iphone 12 pro max",
        "",
        "aa",
    ]
    for similarity in ("cosine", "dice", "jaccard"):
        for multiset in (True, False):
            ref = set_metric(similarity, multiset)
            fast = prepared_metric(similarity, multiset)
            for a in texts:
                for b in texts:
                    ta = qgrams(a, 5, multiset=multiset)
                    tb = qgrams(b, 5, multiset=multiset)
                    want = ref(ta, tb)
                    got = fast(PreparedBag(ta), PreparedBag(tb))
                    assert abs(want - got) < 1e-12, (similarity, multiset, a, b)
