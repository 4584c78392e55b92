"""Text normalization kernels — the reference's M1-M9 operator family,
vectorized over Arrow batches.

Reference semantics reproduced (citations into /root/reference):
- M1 string coercion + tab scrub  — splitters/KNN-Join/splitter.py:28-33
- M2 null normalization ('' / literal 'nan' scrub) — splitter.py:46,50;
  methods/emtransformer/transform.py:17
- M3 text cleaning (tokenize → stopword filter → stem) — splitter.py:16-19,39-43
- M4 record serialization to a single ``agValue`` string — splitter.py:45-52
- M5 DITTO "COL <name> VAL <value>" serialization — methods/ditto/transform.py:31-34
- M6 pair-string "A [SEP] B" serialization — methods/dader/transform.py:23
- M7 column-name namespace strip — methods/magellan/entrypoint.py:48-51
- M9 prefixing for pair assembly — splitters/KNN-Join/splitter.py:96-97

The stemmer is a small deterministic English suffix stripper (Porter-style
step-1 rules); NLTK is not available in this environment, and exact NLTK
parity is not required — what matters is that blocking keys are a
deterministic function of the text, matching the reference's *shape*
(clean → tokenize → stopword → stem → join).
"""

from __future__ import annotations

import re

import pyarrow as pa
import pyarrow.compute as pc

_TOKEN_RE = re.compile(r"\w+", re.UNICODE)

# compact English stopword list (reference uses NLTK's; shape-equivalent)
STOPWORDS = frozenset(
    """a an and are as at be but by for from has have he her his i if in into is
    it its no not of on or our she so than that the their them then there these
    they this to was we were what when where which who will with you your""".split()
)


def tokenize(text: str) -> list[str]:
    """Lowercased \\w+ tokens."""
    return _TOKEN_RE.findall(text.lower())


def stem(word: str) -> str:
    """Deterministic Porter-style suffix stripper (step-1-ish)."""
    for suf in ("ingly", "edly", "ation", "ized", "ised", "ings", "ies", "ing", "ed", "es", "s"):
        if word.endswith(suf) and len(word) - len(suf) >= 3:
            if suf == "ies":
                return word[: -len(suf)] + "y"
            return word[: -len(suf)]
    return word


def clean_tokens(text: str) -> list[str]:
    """M3: tokenize → drop stopwords → stem. Reference splitter.py:16-19."""
    return [stem(t) for t in tokenize(text) if t not in STOPWORDS]


def clean_text(text: str) -> str:
    return " ".join(clean_tokens(text))


# ---------------------------------------------------------------------------
# Arrow-batch operators (used inside map_batches, batch_format="pyarrow")
# ---------------------------------------------------------------------------

def coerce_strings(table: pa.Table, id_cols: tuple[str, ...] = ("id",)) -> pa.Table:
    """M1+M2: cast every non-id column to string, scrub tabs → spaces,
    nulls → '' and the literal 'nan' → ''. Reference splitter.py:28-33,46.
    """
    cols = []
    for name in table.column_names:
        col = table.column(name)
        if name in id_cols:
            cols.append(col)
            continue
        col = pc.cast(col, pa.string())
        col = pc.fill_null(col, "")
        col = pc.replace_substring(col, "\t", " ")
        col = pc.replace_substring_regex(col, r"^nan$", "")
        cols.append(col)
    return pa.table(dict(zip(table.column_names, cols)))


def ag_value(table: pa.Table, cols: list[str], sep: str = " ", out: str = "agValue") -> pa.Table:
    """M4: join attribute columns into one string column (null-safe).

    Reference builds the same per-record text at splitter.py:45-52; every
    LM-based matcher re-derives it (methods/emtransformer/transform.py:8-26).
    """
    parts = [pc.fill_null(pc.cast(table.column(c), pa.string()), "") for c in cols]
    joined = pc.binary_join_element_wise(*parts, sep)
    return table.append_column(out, joined)


def ditto_serialize(table: pa.Table, cols: list[str], out: str = "ditto") -> pa.Table:
    """M5: per column emit ``COL <name> VAL <value>`` then join with spaces.

    Reference methods/ditto/transform.py:31-34.
    """
    parts = []
    for c in cols:
        v = pc.fill_null(pc.cast(table.column(c), pa.string()), "")
        parts.append(pc.binary_join_element_wise(f"COL {c} VAL ", v, ""))
    joined = pc.binary_join_element_wise(*parts, " ")
    return table.append_column(out, joined)


def pair_serialize(
    table: pa.Table, left_col: str, right_col: str, sep: str = " [SEP] ", out: str = "pair_text"
) -> pa.Table:
    """M6: ``left [SEP] right`` pair string. Reference methods/dader/transform.py:23."""
    joined = pc.binary_join_element_wise(
        pc.fill_null(table.column(left_col), ""),
        pc.fill_null(table.column(right_col), ""),
        sep,
    )
    return table.append_column(out, joined)


def strip_namespace(name: str) -> str:
    """M7: keep the last path segment of URL-style column names.

    Reference methods/magellan/entrypoint.py:48-51.
    """
    return name.split("/")[-1]


def add_prefix(table: pa.Table, prefix: str, skip: tuple[str, ...] = ()) -> pa.Table:
    """M9: column-prefixing for wide pair assembly. Reference splitter.py:96-97."""
    return table.rename_columns(
        [c if c in skip else f"{prefix}{c}" for c in table.column_names]
    )


# ---------------------------------------------------------------------------
# Web-page normalization (the graft's input shape)
# ---------------------------------------------------------------------------

_WS_RE = re.compile(r"\s+")
_TITLE_RE = re.compile(rb"<title>(.*?)</title>", re.DOTALL)
_BODY_RE = re.compile(rb"<body>\n?(.*?)\n?</body>", re.DOTALL)


def extract_text_from_html(html: bytes) -> str:
    """Extract the body text from the corpus' templated HTML, byte-identical
    to the generator's ``text`` column (the input_hint invariant).

    The synthetic corpus (sources/pages.py) wraps ``text`` as
    ``<html><head><title>…</title></head><body>\\n{text}\\n</body></html>``;
    extraction inverts that template exactly, asserting the invariant
    "byte-identical extracted text per url".
    """
    m = _BODY_RE.search(html)
    if m is None:
        return ""
    return m.group(1).decode("utf-8")


def extract_title_from_html(html: bytes) -> str:
    m = _TITLE_RE.search(html)
    return m.group(1).decode("utf-8") if m else ""


def normalize_title(title: str) -> str:
    """Lowercase, collapse whitespace/punct — the sorted-neighborhood key base."""
    return _WS_RE.sub(" ", re.sub(r"[^\w\s]", " ", title.lower())).strip()


def normalize_pages_batch(batch: pa.Table) -> pa.Table:
    """Stage-1 normalizer over the pages table:
    extract text + title from html, normalize, keep keys.

    Output columns: url, text (byte-identical), norm_text, norm_title.
    Python-loop over the binary html column is unavoidable for regex
    extraction, but all downstream per-token work is vectorized.
    """
    from .urlnorm import normalize_urls

    html = batch.column("html").to_pylist()
    texts = [extract_text_from_html(h) for h in html]
    titles = [extract_title_from_html(h) for h in html]
    norm_titles = [normalize_title(t) for t in titles]
    norm_texts = [" ".join(tokenize(t)) for t in texts]
    urls = pc.utf8_trim_whitespace(batch.column("url"))
    return pa.table(
        {
            "url": normalize_urls(urls),
            "text": pa.array(texts, pa.string()),
            "norm_text": pa.array(norm_texts, pa.string()),
            "norm_title": pa.array(norm_titles, pa.string()),
        }
    )
