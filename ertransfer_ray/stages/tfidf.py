"""Corpus TF-IDF: distributed document-frequency vocabulary + per-document
top-k terms — the frequency-based-vocabulary operator of a training-data
pipeline (keyword extraction, vocabulary pruning, quality signals).

Definitions (chosen SQL-oracle-checkable, see
queries.ORACLE_SQL["doc_top_tfidf"]):

- tokens: lowercase whitespace split (the corpus-wide convention here);
- tf(d, t) = raw count of t in d;
- df(t) = number of DISTINCT documents containing t; idf = ln(N / df);
- per-doc ranking by tfidf DESC with ties broken by term ASC.

Scale shape: one (term, doc_id)-distinct emit → grouped aggregate builds
the (term, df) vocabulary (the only row-level exchange). When the
vocabulary fits a worker heap (the common case — vocabularies are
heavy-tailed, ~10^7 terms even at web scale) it broadcasts once and the
top-k pass is MAP-SIDE: each document's terms are batch-local by
construction, so scoring + ranking never shuffle. Past the payload gate
(``joins.choose_arm`` on the vocabulary's bytes) the fallback joins tf
rows against the vocabulary on term and ranks per doc through the
exchange — two more shuffles, same output.
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def _tf_frame(df: pd.DataFrame, id_col: str, text_col: str) -> pd.DataFrame:
    """(id, term, tf) rows for one batch — exact, documents are batch-local."""
    df = df.reset_index(drop=True)
    s = df[text_col].fillna("").astype(str).str.lower().str.split()
    ex = s.explode().dropna()
    if ex.empty:
        return pd.DataFrame({id_col: pd.Series([], dtype=df[id_col].dtype),
                             "term": pd.Series([], dtype=object),
                             "tf": pd.Series([], dtype=np.int64)})
    frame = pd.DataFrame(
        {
            id_col: df[id_col].to_numpy()[np.asarray(ex.index, dtype=np.int64)],
            "term": ex.to_numpy(dtype=object),
        }
    )
    out = frame.groupby([id_col, "term"], as_index=False, sort=False).size()
    return out.rename(columns={"size": "tf"})


def top_tfidf_terms(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 1,
    num_buckets: int | None = None,
):
    """Per-document top-``k`` TF-IDF terms: Dataset (id_col, term, tf, tfidf),
    tfidf = tf · ln(N / df), ranked tfidf DESC / term ASC per document."""
    import ray

    from .groupby import grouped_aggregate
    from .joins import choose_arm

    n_docs = ds.count()
    if n_docs == 0:
        import ray.data as rd
        import pyarrow as pa

        return rd.from_arrow(
            pa.table({id_col: pa.array([], pa.int64()),
                      "term": pa.array([], pa.string()),
                      "tf": pa.array([], pa.int64()),
                      "tfidf": pa.array([], pa.float64())})
        )

    tfdf = ds.map_batches(
        lambda d: _tf_frame(d, id_col, text_col), batch_format="pandas"
    ).materialize()
    vocab = grouped_aggregate(
        tfdf, "term", {"df": (id_col, "count")}, num_buckets
    ).materialize()

    def rank_doc_local(tf: pd.DataFrame, idf_of) -> pd.DataFrame:
        tf = tf.copy(deep=False)
        tf["tfidf"] = tf["tf"].to_numpy(dtype=np.float64) * idf_of(tf["term"])
        top = tf.sort_values(
            [id_col, "tfidf", "term"], ascending=[True, False, True]
        ).groupby(id_col, sort=False).head(k)
        return top[[id_col, "term", "tf", "tfidf"]].reset_index(drop=True)

    if choose_arm(vocab) == "broadcast":
        terms, dfs = [], []
        for b in vocab.iter_batches(batch_format="pandas"):
            terms.append(b["term"].to_numpy(dtype=object))
            dfs.append(b["df"].to_numpy(dtype=np.int64))
        index = pd.Index(np.concatenate(terms)) if terms else pd.Index([])
        idf = np.log(n_docs / np.concatenate(dfs).astype(np.float64)) if dfs else np.zeros(0)
        ref = ray.put((index, idf))

        def topk_batch(df: pd.DataFrame) -> pd.DataFrame:
            ix, vals = ray.get(ref)
            tf = _tf_frame(df, id_col, text_col)
            if tf.empty:
                return tf.assign(tfidf=pd.Series([], dtype=np.float64))

            def idf_of(terms_s: pd.Series) -> np.ndarray:
                pos = ix.get_indexer(terms_s)
                out = np.zeros(len(pos), dtype=np.float64)
                got = pos >= 0
                out[got] = vals[pos[got]]
                return out

            return rank_doc_local(tf, idf_of)

        # map-side: every doc's terms are batch-local, so ranking needs no
        # shuffle at all on this arm
        return ds.map_batches(topk_batch, batch_format="pandas")

    # beyond-broadcast vocabulary: join tf rows on term, rank via the exchange
    from .groupby import grouped_top_k
    from .joins import bucketed_join

    joined = bucketed_join(tfdf, vocab, "term", how="inner",
                           num_buckets=num_buckets)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy(deep=False)
        df["tfidf"] = df["tf"].to_numpy(dtype=np.float64) * np.log(
            n_docs / df["df"].to_numpy(dtype=np.float64)
        )
        return df[[id_col, "term", "tf", "tfidf"]]

    scored = joined.map_batches(score, batch_format="pandas")
    return grouped_top_k(
        scored, id_col, "tfidf", k=k, descending=True,
        tie_cols=["term"], num_buckets=num_buckets,
    )
