"""Distributed BPE tokenizer training — learn the subword vocabulary a
training-data pipeline tokenizes with, from the corpus itself.

Beyond-reference operator (the reference consumes pretrained HF
tokenizers, methods/emtransformer/model.py; it never trains one);
algorithm: byte-pair encoding over a word-frequency table, Sennrich et
al. (ACL 2016), in the position-aware (WordPiece-style ``##``) symbol
flavor so the learned inventory exports as a BERT-style vocab file that
``functions/lm_tokenize.WordPieceVocab`` loads directly.

Scale shape — the insight that makes tokenizer training web-scale-cheap:
BPE statistics live on the WORD-FREQUENCY table, not the corpus. One
grouped (word, count) exchange (the TF-IDF vocabulary-exchange shape,
partial counts shrink per block before the combine) reduces 100 TB of
text to a vocab-bounded table; the merge loop then runs driver-side over
that table with incremental pair-count maintenance, independent of corpus
size. Word counts are exact at any parallelism, and every tie in the
merge argmax breaks deterministically (count desc, then lexicographic
pair), so the learned vocabulary is parallelism-invariant.

No query, pipeline stage, CLI command or benchmark calls this module; it
stays until a later change deletes it (ROADMAP item 9).
"""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np
import pandas as pd

SPECIALS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")


def word_counts(ds, text_col: str = "text", num_buckets: int | None = None) -> dict:
    """Exact corpus word frequencies (lowercase whitespace tokens — the
    corpus-wide convention): per-block value_counts partials → grouped
    combine → driver dict. The collected table is vocabulary-bounded."""
    from .groupby import grouped_aggregate

    from ..functions.textstats import batch_term_counts

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        vc = batch_term_counts(df[text_col])
        return pd.DataFrame({"word": vc.index.to_numpy(dtype=object),
                             "n": vc.to_numpy(np.int64)})

    out: dict[str, int] = {}
    counts = grouped_aggregate(
        ds.map_batches(partial, batch_format="pandas"), "word",
        {"n": ("n", "sum")}, num_buckets,
    )
    for b in counts.iter_batches(batch_format="pandas"):
        for w, n in zip(b["word"], b["n"]):
            out[w] = out.get(w, 0) + int(n)
    return out


def _symbols(word: str) -> tuple[str, ...]:
    """Position-aware initial segmentation: first char plain, continuations
    ``##``-prefixed (the WordPiece convention)."""
    return tuple([word[0]] + ["##" + c for c in word[1:]])


def _merge_symbol(a: str, b: str) -> str:
    return a + (b[2:] if b.startswith("##") else b)


def train_bpe(
    word_freqs: dict,
    num_merges: int = 1000,
    min_pair_freq: int = 2,
) -> tuple[list, list]:
    """Learn up to ``num_merges`` BPE merges from exact word frequencies.

    Returns ``(merges, alphabet)``: merges as (left, right) symbol pairs in
    learned order, alphabet as the sorted initial symbol inventory.
    Deterministic: argmax ties break (count desc, lexicographic pair asc);
    stops early when no pair reaches ``min_pair_freq``."""
    words: list[list[str]] = []
    freqs: list[int] = []
    for w in sorted(word_freqs):
        if w:
            words.append(list(_symbols(w)))
            freqs.append(int(word_freqs[w]))

    alphabet = sorted({s for syms in words for s in syms})

    pair_counts: Counter = Counter()
    pair_words: defaultdict = defaultdict(set)
    for i, syms in enumerate(words):
        f = freqs[i]
        for a, b in zip(syms, syms[1:]):
            pair_counts[(a, b)] += f
            pair_words[(a, b)].add(i)

    merges: list[tuple[str, str]] = []
    for _ in range(num_merges):
        if not pair_counts:
            break
        # deterministic argmax: highest count, then lexicographically
        # smallest pair — min over (-count, pair) is one pass
        best = min(pair_counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        if pair_counts[best] < min_pair_freq:
            break
        merges.append(best)
        new_sym = _merge_symbol(*best)
        for i in list(pair_words[best]):
            syms = words[i]
            f = freqs[i]
            # remove this word's pair contributions, apply the merge,
            # re-add — incremental maintenance keeps the loop
            # O(affected words), not O(vocab), per merge
            for a, b in zip(syms, syms[1:]):
                pair_counts[(a, b)] -= f
                if pair_counts[(a, b)] <= 0:
                    del pair_counts[(a, b)]
                pair_words[(a, b)].discard(i)
            out: list[str] = []
            j = 0
            while j < len(syms):
                if j + 1 < len(syms) and (syms[j], syms[j + 1]) == best:
                    out.append(new_sym)
                    j += 2
                else:
                    out.append(syms[j])
                    j += 1
            words[i] = out
            for a, b in zip(out, out[1:]):
                pair_counts[(a, b)] += f
                pair_words[(a, b)].add(i)
    return merges, alphabet


def bpe_segment(word: str, merge_ranks: dict) -> list:
    """Exact BPE segmentation: apply learned merges in rank order (the
    reference semantics for the trained tokenizer — greedy longest-match
    over the exported vocab file approximates this)."""
    if not word:
        return []
    syms = list(_symbols(word))
    while len(syms) > 1:
        ranked = [
            (merge_ranks[(a, b)], i)
            for i, (a, b) in enumerate(zip(syms, syms[1:]))
            if (a, b) in merge_ranks
        ]
        if not ranked:
            break
        _, i = min(ranked)
        syms[i : i + 2] = [_merge_symbol(syms[i], syms[i + 1])]
    return syms


def train_bpe_vocab(
    ds,
    text_col: str = "text",
    num_merges: int = 1000,
    min_pair_freq: int = 2,
    specials: tuple = SPECIALS,
    num_buckets: int | None = None,
):
    """End-to-end: corpus → exact word counts (one vocab-bounded exchange)
    → driver BPE merges → vocab list ordered [specials, alphabet, merged
    symbols in merge order]. Returns ``(vocab, merges)``."""
    freqs = word_counts(ds, text_col, num_buckets)
    merges, alphabet = train_bpe(freqs, num_merges, min_pair_freq)
    vocab = list(specials) + alphabet + [_merge_symbol(a, b) for a, b in merges]
    seen = set()
    vocab = [v for v in vocab if not (v in seen or seen.add(v))]
    return vocab, merges


def write_vocab(vocab: list, path: str) -> str:
    """BERT-style vocab file (one token per line, id = line number) —
    directly loadable by functions/lm_tokenize.WordPieceVocab."""
    import os

    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        for v in vocab:
            f.write(v + "\n")
    os.replace(tmp, path)
    return path
