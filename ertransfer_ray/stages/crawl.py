"""Crawl-snapshot operators over web-page tables
(url, warc_ts, html, text, lang) — the BASELINE input_hint shape.

A Common-Crawl-style corpus contains the same page many times (one row
per capture, differing ``warc_ts``, often with URL-variant noise:
tracking params, fragments, case). Before blocking/ER, pipelines keep
only the newest capture per CANONICAL url. This is the distributed form
of that step, designed so page payloads (html/text) never ride a
shuffle:

1. a stateless map projects id-only key rows
   ``(url, warc_ts, url_norm)`` — no payload columns;
2. per-canonical-url bucketed pass emits the LOSER capture identities —
   every distinct (url, warc_ts) that is NOT its url's argmax(warc_ts)
   (ties broken by smallest raw url, so output is
   parallelism-independent). The loser set is |captures| − |urls| keys,
   the strictly smaller decision side on crawl data where most urls have
   one capture (the winner set, used in earlier rounds, is |urls| keys —
   measured 121 s vs 11 s on a 4M-capture / 3.2M-url corpus at 32 CPUs
   because every filter task rebuilt a 3.2M-string is_in set);
3. the loser identity set ANTI-filters the ORIGINAL rows — broadcast
   ``is_in`` while the set passes the key-set gate (``joins.choose_arm``,
   whose limit is the ``is_in`` knee measured on this operator), a
   bucketed anti-join exchange past it. Payloads cross the wire zero times
   on the broadcast arm.

Captures sharing an identical (url, warc_ts) pair are kept together
(they are indistinguishable at the key level); follow with
``dedup.exact_dedup`` on a content hash when strict row uniqueness is
required.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.urlnorm import normalize_urls
from .groupby import exchange_group_apply
from .joins import (
    BroadcastSemiJoin,
    bucketed_anti_semi_join,
    collect_key_set,
    put_broadcast,
)

_SEP = "\x01"


def _capture_key(url: pa.Array | pa.ChunkedArray, ts) -> pa.Array | pa.ChunkedArray:
    """Composite capture identity: url + \\x01 + microsecond timestamp."""
    return pc.binary_join_element_wise(
        url, pc.cast(pc.cast(ts, pa.int64()), pa.string()), _SEP
    )


def latest_capture_per_url(
    pages_ds,
    url_col: str = "url",
    ts_col: str = "warc_ts",
    num_buckets: int | None = None,
):
    """Keep the newest capture per canonical URL (see module docstring).

    Returns the original rows (all columns) plus ``url_norm``. The decision
    side is the LOSER capture-identity set — distinct (url, ts) keys per
    canonical url minus its winner — so its size tracks the DUPLICATE
    count, not the url count. The loser keys are anti-broadcast while
    their bytes (block metadata) pass the key-set gate
    (``joins.collect_key_set``); past it the anti semi-join exchange runs.
    """
    import pandas as pd

    def keys_only(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                url_col: t.column(url_col),
                # int64 NOW: the bucket fn sees pandas, and a timestamp
                # column would round-trip as ns while _capture_key casts
                # the raw pages side to us — canonicalize once here
                "_ts64": pc.cast(t.column(ts_col), pa.int64()),
                "url_norm": normalize_urls(t.column(url_col)),
            }
        )

    keyed = pages_ds.map_batches(keys_only, batch_format="pyarrow")

    def losers_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # distinct capture identities only: identical (url, ts) rows are
        # indistinguishable and stay together (kept iff their key wins)
        df = df.drop_duplicates([url_col, "_ts64"])
        df = df[df.duplicated("url_norm", keep=False)]  # singleton urls: no losers
        if df.empty:
            return pd.DataFrame(
                {url_col: pd.Series([], dtype="object"),
                 "_ts64": pd.Series([], dtype="int64")}
            )
        # winner-first order ≡ grouped_top_k(ts desc, raw-url tie-break)
        df = df.sort_values(["_ts64", url_col], ascending=[False, True])
        lose = df[df.duplicated("url_norm", keep="first")]
        return lose[[url_col, "_ts64"]]

    def to_keys(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"capture_key": pa.array([], pa.string())})
        return pa.table(
            {"capture_key": _capture_key(t.column(url_col), t.column("_ts64"))}
        )

    loser_keys = (
        exchange_group_apply(keyed, "url_norm", losers_in_bucket, num_buckets)
        .map_batches(to_keys, batch_format="pyarrow")
        .materialize()
    )

    pages_keyed = pages_ds.map_batches(
        lambda t: t.append_column(
            "url_norm", normalize_urls(t.column(url_col))
        ).append_column(
            "capture_key", _capture_key(t.column(url_col), t.column(ts_col))
        ),
        batch_format="pyarrow",
    )

    keys = collect_key_set(loser_keys, "capture_key")
    if keys is not None:
        out = pages_keyed.map_batches(
            BroadcastSemiJoin(put_broadcast(keys), "capture_key", anti=True),
            batch_format="pyarrow",
        )
    else:
        out = bucketed_anti_semi_join(
            pages_keyed,
            loser_keys,
            "capture_key",
            anti=True,
            num_buckets=num_buckets,
        )

    return out.drop_columns(["capture_key"])
