"""Host/domain-level corpus operators over web-page tables.

Every production web-corpus pipeline (C4, CCNet, RefinedWeb, Dolma) runs a
URL/domain filtering step before per-document quality filtering and dedup:
drop pages from blocklisted domains, drop near-empty domains (spam
singletons), and cap any single domain's share of the corpus so one crawl
artifact cannot dominate training data. The reference operates on
per-dataset CSV tables with no URL notion; these operators extend the
engine for the Common-Crawl-shaped ``(url, text, ...)`` input described in
BASELINE.json.

Scale design (10^12 pages, ~10^8 hosts):

- the host key is extracted map-side from the CANONICAL url
  (``functions/urlnorm`` — Arrow RE2 kernels, no Python row loop);
- ``host_stats`` exchanges per-batch PARTIALS keyed by host (each partial
  row is a host string + three int64s — pages/text never ride the
  shuffle), combined in a bucketed pass, so the per-host table is |hosts|
  rows living on the cluster, never driver-collected;
- ``host_filter`` broadcasts the SMALLER of the keep/drop host identity
  sets while the marked host table passes the key-set gate
  (``joins.choose_arm`` — its limit is the measured ``pc.is_in`` knee:
  is_in rebuilds its hash set per kernel call, so huge value sets convoy
  the filter tasks) and degrades to the bucketed semi-join exchange
  beyond it, exactly the crawl-capture pattern. Page rows cross the wire
  zero times on the broadcast arm.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.textstats import token_count_batch
from ..functions.urlnorm import host_of, normalize_urls
from .groupby import grouped_aggregate
from .joins import (
    BroadcastSemiJoin,
    bucketed_anti_semi_join,
    choose_arm,
    put_broadcast,
)


def with_host(pages_ds, url_col: str = "url", normalized: bool = False):
    """Append a ``host`` column: lowercased registered host of the
    CANONICAL url ('' when the value does not look like scheme://host).
    Stateless Arrow map — one RE2 extract per batch, no shuffle."""

    def add(t: pa.Table) -> pa.Table:
        urls = t.column(url_col)
        if not normalized:
            urls = normalize_urls(urls)
        host = host_of(urls)
        if isinstance(host, pa.ChunkedArray):
            host = host.combine_chunks()
        return t.append_column("host", host)

    return pages_ds.map_batches(add, batch_format="pyarrow")


def host_stats(
    pages_ds,
    url_col: str = "url",
    text_col: str = "text",
    host_col: str | None = None,
    normalized: bool = False,
    num_buckets: int | None = None,
):
    """Per-host corpus statistics: ``(host, n_docs, total_tokens,
    mean_tokens)``. Token counts use the engine-wide whitespace semantics
    (``functions/textstats.token_count_batch``, SQL-mirrorable).

    Pass ``host_col`` when the host is already materialized (skips the URL
    work). Returns a Dataset of |hosts| rows — unbounded key cardinality,
    so the combine is the bucketed exchange, not a driver collect.
    """

    def keyed(t: pa.Table) -> pa.Table:
        if host_col is not None:
            host = t.column(host_col)
        else:
            urls = t.column(url_col)
            if not normalized:
                urls = normalize_urls(urls)
            host = host_of(urls)
        return pa.table(
            {
                "host": host.combine_chunks()
                if isinstance(host, pa.ChunkedArray)
                else host,
                "n_tokens": token_count_batch(t.column(text_col)),
            }
        )

    projected = pages_ds.map_batches(keyed, batch_format="pyarrow")
    return grouped_aggregate(
        projected,
        "host",
        {
            "n_docs": (None, "count"),
            "total_tokens": ("n_tokens", "sum"),
            "mean_tokens": ("n_tokens", "mean"),
        },
        num_buckets=num_buckets,
    )


def _host_identity_set(stats_ds, keep: bool) -> pa.Array:
    """Collect one side's host identities from a (host, _keep) Dataset.
    Caller has already passed the side through the key-set gate."""
    chunks = []
    for b in stats_ds.iter_batches(batch_format="pyarrow"):
        if b.num_rows == 0:
            continue
        mask = b.column("_keep") if keep else pc.invert(b.column("_keep"))
        got = b.filter(mask).column("host")
        if got.num_chunks:
            chunks.append(got.combine_chunks())
    if not chunks:
        return pa.array([], pa.string())
    return pa.concat_arrays(chunks)


def host_filter(
    pages_ds,
    url_col: str = "url",
    text_col: str = "text",
    blocklist=(),
    min_docs: int | None = None,
    max_share: float | None = None,
    normalized: bool = False,
    num_buckets: int | None = None,
):
    """Keep pages whose host survives domain-level filtering; output is the
    original rows plus ``host``.

    Filters, applied in pipeline order:

    1. ``blocklist`` — caller-supplied host names, dropped first (always
       broadcast: a curated blocklist is small by construction);
    2. ``min_docs`` — drop hosts with fewer documents (spam singletons);
    3. ``max_share`` — drop hosts holding more than this FRACTION of the
       post-blocklist corpus (single-domain cap; scale-invariant, unlike
       an absolute ceiling). Thresholds are evaluated on the
       post-blocklist corpus, matching the order real pipelines apply
       them.

    The SMALLER of the keep/drop host identity sets is broadcast while the
    marked host table passes the key-set gate (``joins.choose_arm``);
    beyond it the bucketed semi-join exchange runs (page rows then cross
    the wire once).
    """
    pages = with_host(pages_ds, url_col=url_col, normalized=normalized)

    if blocklist:
        block_ref = put_broadcast(pa.array(sorted(set(blocklist)), pa.string()))
        pages = pages.map_batches(
            BroadcastSemiJoin(block_ref, "host", anti=True),
            batch_format="pyarrow",
        )

    if min_docs is None and max_share is None:
        return pages

    # decision pass: the thresholds only use n_docs, so project the HOST
    # COLUMN ALONE before the counting exchange — text/payload columns
    # never execute a second time for token stats nobody reads. (The
    # corpus lineage still runs twice — once to count, once to emit — the
    # standard two-pass shape; materializing the corpus instead would be
    # strictly worse at scale.)
    counts_in = pages.map_batches(
        lambda t: t.select(["host"]), batch_format="pyarrow"
    )
    stats = grouped_aggregate(
        counts_in, "host", {"n_docs": (None, "count")}, num_buckets=num_buckets
    ).materialize()

    total_docs = 0
    for b in stats.iter_batches(batch_format="pandas"):
        total_docs += int(b["n_docs"].sum())

    lo = 0 if min_docs is None else int(min_docs)
    cap = np.inf if max_share is None else float(max_share) * total_docs

    def mark(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n_docs"].to_numpy()
        return pd.DataFrame(
            {"host": df["host"], "_keep": (n >= lo) & (n <= cap)}
        )

    marked = stats.map_batches(mark, batch_format="pandas").materialize()

    # the side arrays are host strings + a bool; the marked table's bytes
    # (block metadata) bound both sides, so one gate decides
    if choose_arm(marked, key_set=True) == "broadcast":
        keep_ids = _host_identity_set(marked, keep=True)
        drop_ids = _host_identity_set(marked, keep=False)
        use_keep = len(keep_ids) <= len(drop_ids)
        ids_ref = put_broadcast(keep_ids if use_keep else drop_ids)
        return pages.map_batches(
            BroadcastSemiJoin(ids_ref, "host", anti=not use_keep),
            batch_format="pyarrow",
        )

    def keep_only(t: pa.Table) -> pa.Table:
        return t.filter(t.column("_keep")).select(["host"])

    keep_hosts = marked.map_batches(keep_only, batch_format="pyarrow")
    return bucketed_anti_semi_join(
        pages, keep_hosts, "host", anti=False, num_buckets=num_buckets
    )
