"""Incremental MinHash near-dup dedup: cross-increment drops, transitive
within-increment keep-min, idempotent re-runs, store growth."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from ertransfer_ray.stages import joins
from ertransfer_ray.stages.incremental import minhash_dedup_incremental

_WORDS = np.array(
    "alpha beta gamma delta epsilon zeta eta theta iota kappa lam mu nu xi "
    "omicron pi rho sigma tau upsilon phi chi psi omega red blue green".split()
)


def _text(rng, n=60):
    return " ".join(rng.choice(_WORDS, n))


def _perturb(text, rng, k=1):
    ws = text.split()
    for i in sorted(rng.choice(len(ws), k, replace=False)):
        ws[i] = str(rng.choice(_WORDS))
    return " ".join(ws)


def _ds(rows):
    ids, texts = zip(*rows)
    return rd.from_arrow(
        pa.table({"doc_id": pa.array(ids, pa.int64()), "text": list(texts)})
    ).repartition(3)


def _ids(ds):
    return sorted(ds.to_pandas()["doc_id"])


def test_incremental_minhash(ray_session, tmp_path):
    state = str(tmp_path / "mh_store")
    rng = np.random.default_rng(42)
    base = [_text(rng) for _ in range(8)]

    # increment A: docs 0-7 distinct, plus 8 ≈ 0 and 9 ≈ 8 (transitive
    # chain 0-8-9 collapses to min id 0)
    inc_a = [(i, base[i]) for i in range(8)]
    inc_a += [(8, _perturb(base[0], rng)), (9, _perturb(base[0], rng))]
    got_a = _ids(minhash_dedup_incremental(_ds(inc_a), state, "a", agreement=0.7))
    assert got_a == list(range(8))

    # increment B: 20 ≈ doc 3 (cross-increment drop), 21 fresh,
    # 22 ≈ 23's near-dup pair within B (min 22 kept)
    fresh = _text(rng)
    pair = _text(rng)
    inc_b = [
        (20, _perturb(base[3], rng)),
        (21, fresh),
        (22, pair),
        (23, _perturb(pair, rng)),
    ]
    got_b = _ids(minhash_dedup_incremental(_ds(inc_b), state, "b", agreement=0.7))
    assert got_b == [21, 22]

    # increment C: near-dup of B's survivor 21 → dropped; exact copy of a
    # doc dropped in B (23's text) still matches the RETAINED 22 → dropped
    inc_c = [(30, _perturb(fresh, rng)), (31, pair), (32, _text(rng))]
    got_c = _ids(minhash_dedup_incremental(_ds(inc_c), state, "c", agreement=0.7))
    assert got_c == [32]

    # idempotent re-run of C: same result (its own store entry excluded)
    again = _ids(minhash_dedup_incremental(_ds(inc_c), state, "c", agreement=0.7))
    assert again == got_c

    # store has exactly one entry per increment, survivors only
    import os

    entries = sorted(d for d in os.listdir(state) if d.startswith("increment="))
    assert entries == ["increment=a", "increment=b", "increment=c"]
    stored = rd.read_parquet(
        [os.path.join(state, e) for e in entries], file_extensions=["parquet"]
    ).to_pandas()
    assert sorted(stored["doc_id"]) == sorted(got_a + got_b + got_c)
    # read_parquet surfaces the hive partition dir as an "increment" column
    assert set(stored.columns) == {"doc_id", "sig", "bands", "increment"}


def test_first_increment_no_store(ray_session, tmp_path):
    state = str(tmp_path / "mh0")
    rng = np.random.default_rng(7)
    rows = [(i, _text(rng)) for i in range(5)]
    got = _ids(minhash_dedup_incremental(_ds(rows), state, "day0"))
    assert got == list(range(5))


def test_hot_band_cap_does_not_starve_new_rows():
    """Stored ids are always smaller than new ids; a single smallest-id
    cap would fill a hot band with old rows and emit zero pairs for the
    new endpoint. The per-side cap must keep pairing."""
    import pandas as pd

    from ertransfer_ray.stages.incremental import _pairs_with_new

    df = pd.DataFrame(
        {
            "band_key": [7] * 71,
            "m_id": list(range(70)) + [1000],
            "m_new": [0] * 70 + [1],
        }
    )
    pairs = _pairs_with_new(df, max_block_size=64)
    assert (pairs["new_id"] == 1000).all() and len(pairs) == 64
    assert set(pairs["other_new"]) == {0}


def test_broadcast_and_join_verify_arms_agree(ray_session, tmp_path):
    """Round 5: the sig-agreement verify has a broadcast arm (worker-cached
    id->matrix lookup) and a bucketed-join arm; survivors and stores must
    be identical under both, and timings must report the chosen phases."""
    rng = np.random.default_rng(99)
    base = [_text(rng) for _ in range(12)]
    inc_a = [(i, base[i]) for i in range(12)]
    # cross-increment dups of 0/5, a within-increment near-pair, one fresh
    fresh = _text(rng)
    pair = _text(rng)
    inc_b = [
        (20, _perturb(base[0], rng)),
        (21, _perturb(base[5], rng)),
        (22, pair),
        (23, _perturb(pair, rng)),
        (24, fresh),
    ]
    results = {}
    # "join": a payload limit of 0 sends the sketches through the id-keyed
    # joins; "key_sets": a key-set limit of 0 also anti-joins the dropped
    # ids through the exchange
    limits = {
        "broadcast": {},
        "join": {"PAYLOAD_LIMIT": 0},
        "key_sets": {"PAYLOAD_LIMIT": 0, "KEY_SET_LIMIT": 0},
    }
    for arm, patched in limits.items():
        state = str(tmp_path / f"mh_{arm}")
        with pytest.MonkeyPatch.context() as mp:
            for name, value in patched.items():
                mp.setattr(joins, name, value)
            minhash_dedup_incremental(
                _ds(inc_a), state, "a", agreement=0.7
            ).materialize()
            t: dict = {}
            got = _ids(
                minhash_dedup_incremental(
                    _ds(inc_b), state, "b", agreement=0.7, timings=t
                )
            )
        results[arm] = got
        assert "verify" in t and "sketch_new" in t and "store_scan" in t
        expected_phase = "sig_attach"  # both arms report it (refs vs joins)
        assert expected_phase in t
    assert results["broadcast"] == results["join"] == results["key_sets"] == [22, 24]


def test_store_meta_family_and_param_guard(ray_session, tmp_path):
    """Round-5 review: a persisted sketch store from another hash family or
    other sketch params must fail loudly — cross-family sketches never
    band-collide, which would silently keep every cross-increment dup."""
    import json
    import os

    import pytest

    rng = np.random.default_rng(1)
    state = str(tmp_path / "meta_store")
    rows = [(i, _text(rng)) for i in range(4)]
    minhash_dedup_incremental(_ds(rows), state, "a").materialize()
    assert os.path.exists(os.path.join(state, "store_meta.json"))

    # different sketch params → error
    with pytest.raises(ValueError, match="not\\s+comparable|rebuild"):
        minhash_dedup_incremental(_ds(rows), state, "b", num_perm=64)

    # legacy store (increments but no marker) → error
    os.remove(os.path.join(state, "store_meta.json"))
    with pytest.raises(ValueError, match="predates the"):
        minhash_dedup_incremental(_ds(rows), state, "b")

    # foreign family → error
    with open(os.path.join(state, "store_meta.json"), "w") as f:
        json.dump({"family": "legacy-strings-v1", "num_perm": 128,
                   "num_bands": 16, "shingle_words": 3}, f)
    with pytest.raises(ValueError, match="rebuild the store"):
        minhash_dedup_incremental(_ds(rows), state, "b")


def test_broadcast_verify_tolerates_duplicate_ids(ray_session, tmp_path):
    """A twice-ingested row (duplicate doc_id WITHIN one increment) must not
    crash the broadcast verify's id->matrix lookup (the join arm tolerates
    it, so the arms stay behavior-equivalent)."""
    rng = np.random.default_rng(5)
    state = str(tmp_path / "dup_store")
    base = _text(rng)
    minhash_dedup_incremental(_ds([(0, base)]), state, "a").materialize()
    dup_rows = [(7, _perturb(base, rng)), (7, _perturb(base, rng)), (8, _text(rng))]
    got = _ids(minhash_dedup_incremental(
        _ds(dup_rows), state, "b", agreement=0.7
    ))
    assert got == [8]  # both id-7 rows are near-dups of stored doc 0
