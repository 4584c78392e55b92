import pyarrow as pa

from ertransfer_ray.functions import textnorm as T


def test_coerce_strings_scrubs_tabs_nulls_nan():
    tbl = pa.table(
        {
            "id": [1, 2, 3],
            "name": ["a\tb", None, "nan"],
            "price": [1.5, None, 3.0],
        }
    )
    out = T.coerce_strings(tbl, id_cols=("id",))
    assert out.column("name").to_pylist() == ["a b", "", ""]
    assert out.column("price").to_pylist() == ["1.5", "", "3"]
    assert out.column("id").to_pylist() == [1, 2, 3]


def test_ag_value_joins_columns():
    tbl = pa.table({"id": [1], "a": ["x"], "b": ["y"], "c": [None]})
    out = T.ag_value(tbl, ["a", "b", "c"])
    assert out.column("agValue").to_pylist() == ["x y "]


def test_ditto_serialize():
    tbl = pa.table({"name": ["abt"], "price": ["10"]})
    out = T.ditto_serialize(tbl, ["name", "price"])
    assert out.column("ditto").to_pylist() == ["COL name VAL abt COL price VAL 10"]


def test_pair_serialize():
    tbl = pa.table({"l": ["a"], "r": ["b"]})
    out = T.pair_serialize(tbl, "l", "r")
    assert out.column("pair_text").to_pylist() == ["a [SEP] b"]


def test_namespace_strip_and_prefix():
    tbl = pa.table({"http://x/name": [1], "id": [2]})
    out = tbl.rename_columns([T.strip_namespace(c) for c in tbl.column_names])
    assert out.column_names == ["name", "id"]
    out2 = T.add_prefix(out, "tableA_", skip=("id",))
    assert out2.column_names == ["tableA_name", "id"]


def test_clean_tokens_stopwords_and_stem():
    toks = T.clean_tokens("The running dogs are jumping over stones")
    assert "the" not in toks and "are" not in toks
    assert "runn" in toks or "run" in toks  # 'running' stemmed
    assert toks == T.clean_tokens("The running dogs are jumping over stones")


def test_html_roundtrip_byte_identical():
    text = "Title Line\nbody words here"
    html = f"<html><head><title>Title Line</title></head><body>\n{text}\n</body></html>".encode()
    assert T.extract_text_from_html(html) == text
    assert T.extract_title_from_html(html) == "Title Line"


def test_normalize_title():
    assert T.normalize_title("  The QUICK, brown-fox!  ") == "the quick brown fox"
