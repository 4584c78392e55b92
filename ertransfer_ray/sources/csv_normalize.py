"""CSV ingest normalizer — the reference's one-time dataset normalizer
(S2, /root/reference/splitters/random-split/normanizer.py:21-81).

Reference behavior reproduced:
- sniff the delimiter from the first line against the whitelist
  ``, ; | % > #`` (normanizer.py:21-23);
- rename match columns ``D1``/``D2`` → ``tableA_id``/``tableB_id``
  (normanizer.py:54-60);
- require an ``id`` column on entity tables (normanizer.py:62-70);
- strip URL-style column namespaces (M7, methods/magellan/entrypoint.py:48-51);
- write canonical comma CSV / parquet.

Unlike the reference this never deletes source files; it is a pure
read-normalize step usable both eagerly (small files, pandas) and as a Ray
Dataset source.
"""

from __future__ import annotations

import pandas as pd

DELIMITER_WHITELIST = [",", ";", "|", "%", ">", "#", "\t"]


def sniff_delimiter(first_line: str) -> str:
    """Pick the whitelist delimiter that splits the header into the most
    fields (the reference checks the whitelist in order; most-fields is the
    robust variant of the same idea)."""
    best, best_n = ",", 1
    for d in DELIMITER_WHITELIST:
        n = len(first_line.rstrip("\n").split(d))
        if n > best_n:
            best, best_n = d, n
    return best


def strip_namespace_columns(df: pd.DataFrame) -> pd.DataFrame:
    """M7: keep the last path segment of URL-style column names."""
    return df.rename(columns=lambda c: c.split("/")[-1])


def normalize_matches_columns(df: pd.DataFrame) -> pd.DataFrame:
    """D1/D2 → tableA_id/tableB_id (normanizer.py:54-60)."""
    return df.rename(
        columns={"D1": "tableA_id", "D2": "tableB_id",
                 "ltable_id": "tableA_id", "rtable_id": "tableB_id"}
    )


#: dataset-name → (tableA file hint, tableB file hint): the reference's
#: per-dataset rename registry (configuration DATA, normanizer.py:7-18 —
#: replicated like pipelines/settings.py replicates the blocking settings).
DATASET_FILE_HINTS = {
    "d1": ("rest1", "rest2"),
    "d2": ("abt", "buy"),
    "d3": ("amazon", "gp"),
    "d4": ("dblp", "acm"),
    "d5": ("imdb", "tmdb"),
    "d6": ("imdb", "tvdb"),
    "d7": ("tmdb", "tvdb"),
    "d8": ("walmart", "amazon"),
    "d9": ("dblp", "scholar"),
    "d10": ("imdb", "dbpedia"),
}


def canonical_file_name(file_name: str, dataset_name: str = "") -> str:
    """The reference's rename rules (normanizer.py:26-40): ``*clean.csv`` →
    ``*.csv``, ``gt.csv`` → ``matches.csv``, per-dataset source hints →
    ``tableA.csv``/``tableB.csv``; anything else passes through."""
    if file_name.endswith("clean.csv"):
        file_name = file_name[: -len("clean.csv")] + ".csv"
    if file_name == "gt.csv":
        return "matches.csv"
    ds = dataset_name.lower()
    for key, (a_hint, b_hint) in DATASET_FILE_HINTS.items():
        if key in ds:
            if a_hint in file_name:
                return "tableA.csv"
            if b_hint in file_name:
                return "tableB.csv"
    return file_name


def normalize_dataset_dir(input_dir: str, output_dir: str | None = None) -> dict:
    """The normanizer STEP (normanizer.py:42-81): for every ``*.csv`` in
    ``input_dir``, sniff the delimiter, rename the file to its canonical
    bundle name, rename D1/D2 match columns, enforce the entity-table ``id``
    contract, and write canonical comma CSV into ``output_dir``. Unlike the
    reference this never deletes source files (pure-read by design).
    Returns {source file → canonical file}."""
    import os

    output_dir = output_dir or input_dir
    os.makedirs(output_dir, exist_ok=True)
    ds_name = os.path.basename(os.path.normpath(input_dir))
    renamed: dict[str, str] = {}
    for f in sorted(os.listdir(input_dir)):
        if not f.endswith(".csv"):
            continue
        target = canonical_file_name(f, ds_name)
        src = os.path.join(input_dir, f)
        if target == "matches.csv":
            df = read_matches_csv(src)
        elif target in ("tableA.csv", "tableB.csv"):
            df = read_entity_csv(src, require_id=True)
        else:
            df = read_entity_csv(src, require_id=False)
        df.to_csv(os.path.join(output_dir, target), index=False)
        renamed[f] = target
    return renamed


def read_entity_csv(path: str, require_id: bool = True) -> pd.DataFrame:
    """S1+S2: sniff delimiter, read with replacement on bad bytes
    (reference uses ``encoding_errors='replace'``, splitter.py:160-165),
    normalize column names, enforce the ``id`` contract."""
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        first = f.readline()
    delim = sniff_delimiter(first)
    df = pd.read_csv(path, sep=delim, encoding_errors="replace")
    df = strip_namespace_columns(df)
    if require_id and "id" not in df.columns:
        raise ValueError(f"{path}: entity table must carry an 'id' column "
                         f"(got {list(df.columns)})")
    return df


def read_matches_csv(path: str) -> pd.DataFrame:
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        first = f.readline()
    df = pd.read_csv(path, sep=sniff_delimiter(first), encoding_errors="replace")
    df = normalize_matches_columns(strip_namespace_columns(df))
    missing = {"tableA_id", "tableB_id"} - set(df.columns)
    if missing:
        raise ValueError(f"{path}: matches table missing {missing}")
    return df[["tableA_id", "tableB_id"]].astype("int64")
