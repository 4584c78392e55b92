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
   ``is_in`` below the gate, a bucketed anti-join exchange above it.
   Payloads cross the wire zero times on the broadcast arm.

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
from .joins import BroadcastSemiJoin, bucketed_anti_semi_join, put_broadcast

#: byte cap for anti-broadcasting the loser capture keys. NOT the generic
#: 1 GiB payload limit: pc.is_in rebuilds its hash set from the value_set
#: on every kernel call, so huge string sets convoy the filter tasks —
#: measured 29.6 s end-to-end at ~40 MB of keys (0.8M) vs 121.7 s at
#: ~150 MB (3.2M) on a 4M-capture corpus / 32 CPUs. 64 MiB (~1.3M keys)
#: stays on the good side of that knee; beyond it the bucketed anti-join
#: exchange (which ships page rows once) is the faster arm.
LOSER_BROADCAST_LIMIT = 64 << 20

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
    strategy: str = "auto",
    num_buckets: int | None = None,
):
    """Keep the newest capture per canonical URL (see module docstring).

    Returns the original rows (all columns) plus ``url_norm``. The decision
    side is the LOSER capture-identity set — distinct (url, ts) keys per
    canonical url minus its winner — so its size tracks the DUPLICATE
    count, not the url count. ``strategy`` ∈ auto|broadcast|join: auto
    anti-broadcasts the loser keys while their bytes fit a worker heap
    (blocking.BROADCAST_PAYLOAD_LIMIT; metadata-only meter) and degrades
    to the anti semi-join exchange beyond that.
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

    if strategy == "auto":
        strategy = (
            "broadcast"
            if (loser_keys.size_bytes() or 0) <= LOSER_BROADCAST_LIMIT
            else "join"
        )

    if strategy == "broadcast":
        key_chunks = [
            b.column("capture_key")
            for b in loser_keys.iter_batches(batch_format="pyarrow")
            if b.num_rows
        ] or [pa.array([], pa.string())]
        key_ref = put_broadcast(
            pa.concat_arrays(
                [
                    c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
                    for c in key_chunks
                ]
            )
        )
        out = pages_keyed.map_batches(
            BroadcastSemiJoin(key_ref, "capture_key", anti=True),
            batch_format="pyarrow",
        )
    elif strategy == "join":
        out = bucketed_anti_semi_join(
            pages_keyed,
            loser_keys,
            "capture_key",
            anti=True,
            num_buckets=num_buckets,
        )
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    return out.drop_columns(["capture_key"])


def drop_blocklisted_hosts(pages_ds, blocklist, url_col: str = "url"):
    """C4-style domain filter: drop pages whose canonical host is in
    ``blocklist`` (an iterable of lowercase hostnames). The list is
    broadcast once (``ray.put``) and membership is the Arrow ``is_in``
    kernel per batch — stateless map, no shuffle; blocklists are
    curated-list sized, never corpus sized."""
    from ..functions.urlnorm import host_of

    ref = put_broadcast(pa.array(sorted(set(blocklist)), pa.string()))

    def fn(t: pa.Table) -> pa.Table:
        import ray

        hosts = host_of(normalize_urls(t.column(url_col)))
        bl = ray.get(ref)
        return t.filter(
            pc.invert(pc.fill_null(pc.is_in(hosts, value_set=bl), False))
        )

    return pages_ds.map_batches(fn, batch_format="pyarrow")
