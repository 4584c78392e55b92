"""URL canonicalization: edge cases + RE2 parity with DuckDB (the oracle
engine) on the full normalization chain."""

import duckdb
import pyarrow as pa

from ertransfer_ray.functions.urlnorm import (
    FRAGMENT_PATTERN,
    HOST_PATTERN,
    NormalizeUrls,
    URL_NORM_STEPS,
    URL_PREFIX_PATTERN,
    host_of,
    normalize_urls,
)

CASES = [
    # (input, expected url_norm, expected host)
    ("HTTP://WWW.Ex.COM:80/A/B?x=1#f", "http://ex.com/A/B?x=1", "ex.com"),
    ("https://Ex.com:443/", "https://ex.com", "ex.com"),
    ("HTTPS://Site.Example/Path/", "https://site.example/Path", "site.example"),
    ("https://ex.com:8443/p", "https://ex.com:8443/p", "ex.com"),  # non-default port kept
    ("http://ex.com:443/p", "http://ex.com:443/p", "ex.com"),  # wrong-scheme port kept
    ("https://ex.com/p?utm_source=a&utm_medium=b&id=3", "https://ex.com/p?id=3", "ex.com"),
    ("https://ex.com/p?id=3&fbclid=xyz", "https://ex.com/p?id=3", "ex.com"),
    ("https://ex.com/p?gclid=only", "https://ex.com/p", "ex.com"),
    ("https://ex.com/p?utm_a=1&utm_b=2", "https://ex.com/p", "ex.com"),
    ("https://ex.com/utm_decoy/p?x=utm_no", "https://ex.com/utm_decoy/p?x=utm_no", "ex.com"),
    # boundary anchoring: tracking names as SUBSTRINGS of other params or
    # values must never fire (an earlier unanchored form corrupted these)
    ("https://ex.com/p?myfbclid=1&b=2", "https://ex.com/p?myfbclid=1&b=2", "ex.com"),
    ("https://ex.com/p?a=xgclid=1&b=2", "https://ex.com/p?a=xgclid=1&b=2", "ex.com"),
    # consecutive tracking runs collapse in one pass
    ("https://ex.com/p?utm_a=1&utm_b=2&id=3", "https://ex.com/p?id=3", "ex.com"),
    ("https://ex.com/p?utm_a=1&id=2&utm_b=3", "https://ex.com/p?id=2", "ex.com"),
    ("ftp://Host.Example/File", "ftp://host.example/File", "host.example"),
    ("no scheme here", "no scheme here", ""),
    ("", "", ""),
    ("https://wwwx.example/p", "https://wwwx.example/p", "wwwx.example"),  # not 'www.'
]


def test_normalize_cases():
    out = normalize_urls(pa.array([c[0] for c in CASES])).to_pylist()
    for (inp, want, _), got in zip(CASES, out):
        assert got == want, f"{inp!r}: {got!r} != {want!r}"


def test_host_of():
    norm = normalize_urls(pa.array([c[0] for c in CASES]))
    hosts = host_of(norm).to_pylist()
    assert hosts == [c[2] for c in CASES]


def test_duckdb_chain_parity():
    """The oracle replays the same chain in DuckDB; pin byte parity on the
    edge-case set (same RE2 engine on both sides)."""
    inputs = [c[0] for c in CASES]
    chain = "u1"
    for pat, repl in URL_NORM_STEPS:
        chain = f"regexp_replace({chain}, '{pat}', '{repl}', 'g')"
    sql = f"""
        WITH defrag AS (
            SELECT regexp_replace(t, '{FRAGMENT_PATTERN}', '', 'g') AS u0
            FROM (SELECT unnest(?) t)
        ), lowered AS (
            SELECT CASE WHEN regexp_matches(u0, '{URL_PREFIX_PATTERN}')
                        THEN lower(regexp_extract(u0, '{URL_PREFIX_PATTERN}', 1))
                             || regexp_extract(u0, '{URL_PREFIX_PATTERN}', 2)
                        ELSE u0 END AS u1
            FROM defrag
        )
        SELECT {chain} AS url_norm,
               regexp_extract({chain}, '{HOST_PATTERN}', 1) AS host
        FROM lowered
    """
    rows = duckdb.sql(sql, params=[inputs]).fetchall()
    got_norm = normalize_urls(pa.array(inputs)).to_pylist()
    got_host = host_of(pa.array(got_norm)).to_pylist()
    assert [r[0] for r in rows] == got_norm
    assert [r[1] for r in rows] == got_host


def test_batch_stage_and_empty_batch():
    t = pa.table({"url": pa.array([c[0] for c in CASES])})
    out = NormalizeUrls("url")(t)
    assert out.column_names == ["url", "url_norm", "host"]
    empty = NormalizeUrls("url")(t.slice(0, 0))
    assert empty.num_rows == 0 and empty.column_names == out.column_names


def test_normalize_is_idempotent_on_url_shapes():
    """normalize(normalize(u)) == normalize(u) over generated URL shapes."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    scheme = st.sampled_from(["http", "HTTPS", "ftp"])
    host = st.from_regex(r"(WWW\.)?[A-Za-z0-9][A-Za-z0-9.\-]{0,12}", fullmatch=True)
    port = st.sampled_from(["", ":80", ":443", ":8080"])
    path = st.from_regex(r"(/[A-Za-z0-9._~%\-]{0,6}){0,3}/{0,3}", fullmatch=True)
    par = st.from_regex(r"(utm_[a-z]{1,4}|gclid|id|q)=[A-Za-z0-9]{0,4}", fullmatch=True)
    query = st.lists(par, max_size=3).map(lambda ps: "?" + "&".join(ps) if ps else "")
    frag = st.sampled_from(["", "#x", "#frag/with?q"])
    url = st.builds(
        lambda s, h, po, pa_, q, f: f"{s}://{h}{po}{pa_}{q}{f}", scheme, host, port, path, query, frag
    )

    @given(url)
    @settings(max_examples=300, deadline=None)
    def check(u):
        once = normalize_urls(pa.array([u]))[0].as_py()
        twice = normalize_urls(pa.array([once]))[0].as_py()
        assert twice == once, (u, once, twice)

    check()
