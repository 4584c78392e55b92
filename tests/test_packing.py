"""Sequence packing (distributed prefix scan): brute-force parity, block
layout invariance, empty docs, precomputed token columns, chunk geometry."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from ertransfer_ray.stages.packing import pack_sequences


def _brute(texts: dict[int, str], seq_len: int) -> pd.DataFrame:
    rows = []
    pos = 0
    for did in sorted(texts):
        t = texts[did].strip()
        c = len(t.split()) if t else 0
        last = pos + max(c, 1) - 1
        rows.append({"doc_id": did, "token_count": c, "start_pos": pos,
                     "seq_first": pos // seq_len, "seq_last": last // seq_len})
        pos += c
    return pd.DataFrame(rows).astype(np.int64)


def _ds(texts: dict[int, str], parts: int):
    ids = sorted(texts)
    rng = np.random.default_rng(4)
    perm = rng.permutation(len(ids))  # input arrives unordered
    return rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([ids[i] for i in perm], pa.int64()),
                "text": pa.array([texts[ids[i]] for i in perm], pa.string()),
            }
        )
    ).repartition(parts)


def test_pack_matches_bruteforce_across_layouts():
    rng = np.random.default_rng(9)
    texts = {
        int(i): " ".join(f"w{j}" for j in range(rng.integers(0, 40)))
        for i in range(200)
    }
    want = _brute(texts, 16)
    for parts in (1, 3, 11):
        got = (
            pack_sequences(_ds(texts, parts), seq_len=16)
            .to_pandas().sort_values("doc_id", ignore_index=True)
        )
        pd.testing.assert_frame_equal(got.astype(np.int64), want), parts


def test_pack_empty_docs_and_chunk_geometry():
    texts = {1: "a b c d e", 2: "", 3: "f g h", 4: "   ", 5: "i j k l m n o"}
    got = (
        pack_sequences(_ds(texts, 2), seq_len=4)
        .to_pandas().sort_values("doc_id", ignore_index=True)
    )
    want = _brute(texts, 4)
    pd.testing.assert_frame_equal(got.astype(np.int64), want)
    # doc 1 (tokens 0-4) spans chunks 0-1; doc 5 (tokens 8-14) spans 2-3
    assert tuple(got.loc[got.doc_id == 1, ["seq_first", "seq_last"]].iloc[0]) == (0, 1)
    assert tuple(got.loc[got.doc_id == 5, ["seq_first", "seq_last"]].iloc[0]) == (2, 3)
    # empty docs occupy no tokens: next doc starts where they stand
    assert got.loc[got.doc_id == 3, "start_pos"].iloc[0] == 5


def test_pack_with_precomputed_token_column_and_validation():
    df = pd.DataFrame({"doc_id": [3, 1, 2], "n_tok": [7, 2, 0]})
    ds = rd.from_pandas(df).repartition(2)
    got = (
        pack_sequences(ds, token_col="n_tok", seq_len=4)
        .to_pandas().sort_values("doc_id", ignore_index=True)
    )
    assert list(got["start_pos"]) == [0, 2, 2]
    assert list(got["seq_first"]) == [0, 0, 0]
    assert list(got["seq_last"]) == [0, 0, 2]  # doc 3: tokens 2..8
    with pytest.raises(ValueError):
        pack_sequences(ds, token_col="n_tok", seq_len=0)


def _brute_packed(texts: dict[int, str], seq_len: int) -> pd.DataFrame:
    stream, owners = [], []
    for did in sorted(texts):
        toks = texts[did].lower().split()
        stream.extend(toks)
        owners.extend([did] * len(toks))
    rows = []
    for s in range(0, len(stream), seq_len):
        chunk = stream[s : s + seq_len]
        docs = set(owners[s : s + seq_len])
        rows.append(
            {
                "seq_id": s // seq_len,
                "n_tokens": len(chunk),
                "n_docs": len(docs),
                "first_token": chunk[0],
                "last_token": chunk[-1],
                "tokens": chunk,
            }
        )
    return pd.DataFrame(rows)


def test_packed_sequences_matches_bruteforce_across_layouts():
    from ertransfer_ray.stages.packing import packed_sequences

    rng = np.random.default_rng(21)
    texts = {
        int(i): " ".join(f"W{i}x{j}" for j in range(rng.integers(0, 23)))
        for i in range(80)
    }
    texts[7] = ""          # empty doc contributes nothing
    want = _brute_packed(texts, 16)
    for parts in (2, 7):
        got = (
            packed_sequences(_ds(texts, parts), seq_len=16)
            .to_pandas().sort_values("seq_id", ignore_index=True)
        )
        assert list(got["seq_id"]) == list(want["seq_id"])
        assert list(got["n_tokens"]) == list(want["n_tokens"])
        assert list(got["n_docs"]) == list(want["n_docs"])
        assert list(got["first_token"]) == list(want["first_token"])
        assert list(got["last_token"]) == list(want["last_token"])
        assert [list(x) for x in got["tokens"]] == [list(x) for x in want["tokens"]]


def test_packed_sequences_spanning_doc_and_tail():
    from ertransfer_ray.stages.packing import packed_sequences

    texts = {1: "a b c", 2: "d e f g h i j", 3: "k l"}  # 12 tokens, seq_len 5
    got = (
        packed_sequences(_ds(texts, 2), seq_len=5)
        .to_pandas().sort_values("seq_id", ignore_index=True)
    )
    assert list(got["n_tokens"]) == [5, 5, 2]   # final chunk short, unpadded
    assert [list(x) for x in got["tokens"]] == [
        ["a", "b", "c", "d", "e"], ["f", "g", "h", "i", "j"], ["k", "l"],
    ]
    # doc 2 spans chunks 0 and 1: both count it
    assert list(got["n_docs"]) == [2, 1, 1]


def test_packed_sequences_unicode_whitespace_convention():
    """Pass-2 tokenization must match the ASCII-\\s+ pass-1 counts: a doc
    containing U+00A0 (which Python str.split treats as a separator but
    RE2 \\s does not) must NOT desynchronize the stream across blocks."""
    from ertransfer_ray.stages.packing import pack_sequences, packed_sequences

    texts = {1: "a b c", 2: "d e", 3: "f g h"}
    # Arrow convention: doc 1 = 2 tokens ("a\xa0b", "c")
    scan = (
        pack_sequences(_ds(texts, 3), seq_len=4)
        .to_pandas().sort_values("doc_id", ignore_index=True)
    )
    assert list(scan["token_count"]) == [2, 2, 3]
    got = (
        packed_sequences(_ds(texts, 3), seq_len=4)
        .to_pandas().sort_values("seq_id", ignore_index=True)
    )
    # 7 tokens total -> chunks of 4 and 3; token streams stay aligned
    assert list(got["n_tokens"]) == [4, 3]
    assert [list(x) for x in got["tokens"]] == [
        ["a b", "c", "d", "e"], ["f", "g", "h"],
    ]


def test_unicode_whitespace_only_docs_count_one_token_in_both_passes():
    """A doc made only of U+00A0 or U+2003 is one token (a run of
    non-ASCII-whitespace) in the pass-1 counts AND in the pass-2
    fragments, so later docs keep their stream positions."""
    from ertransfer_ray.stages.packing import pack_sequences, packed_sequences

    texts = {1: "a b", 2: "\u00a0", 3: "\u2003\u2003", 4: "c d e"}
    scan = (
        pack_sequences(_ds(texts, 4), seq_len=4)
        .to_pandas().sort_values("doc_id", ignore_index=True)
    )
    assert list(scan["token_count"]) == [2, 1, 1, 3]
    assert list(scan["start_pos"]) == [0, 2, 3, 4]
    got = (
        packed_sequences(_ds(texts, 4), seq_len=4)
        .to_pandas().sort_values("seq_id", ignore_index=True)
    )
    assert [list(x) for x in got["tokens"]] == [
        ["a", "b", "\u00a0", "\u2003\u2003"], ["c", "d", "e"],
    ]
    assert list(got["n_tokens"]) == [4, 3]
