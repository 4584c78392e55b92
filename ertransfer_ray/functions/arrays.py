"""Arrow → numpy helpers for vector (list<float>) columns.

``to_pylist()`` on an embedding column materializes n x d Python floats —
per-batch that is bounded but still the slowest way to read a vector column,
and per-worker-corpus it hits the allocator pathology documented in
BASELINE.md / blocking.attach_pair_payloads. The flatten path reads the
list column's child buffer as ONE numpy array (zero-copy when the types
line up) and reshapes.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def list_column_to_matrix(col, dtype=np.float64) -> np.ndarray:
    """(n, d) matrix from an Arrow list<float> column with no Python
    objects. Falls back to the object path when entries are null or ragged
    (reshape would misalign); embedding columns are fixed-dim non-null by
    construction, so the fast path is the norm."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.zeros((0, 0), dtype=dtype)
    if col.null_count == 0:
        flat = col.flatten().to_numpy(zero_copy_only=False)
        if flat.size % n == 0:
            mat = np.ascontiguousarray(flat, dtype=dtype).reshape(n, -1)
            # ragged lists can still slip through when sizes divide evenly;
            # verify via offsets only when cheap (ListArray exposes them)
            offsets = getattr(col, "offsets", None)
            if offsets is None:
                return mat
            off = offsets.to_numpy(zero_copy_only=False)
            widths = np.diff(off)
            if widths.size == 0 or (widths == widths[0]).all():
                return mat
    return np.asarray(col.to_pylist(), dtype=dtype)


def matrix_to_list_column(mat: np.ndarray, value_type=None) -> pa.ListArray:
    """(n, d) numpy matrix → Arrow list column with NO per-element Python
    objects (the ``pa.array(mat.tolist())`` form builds n x d Python floats
    per batch): one offsets array + the raveled value buffer.

    A 1-D input is rejected (it used to fall into the d=0 branch and emit n
    EMPTY lists), and blocks whose flat value count exceeds int32 offsets
    switch to a LargeListArray instead of silently wrapping negative."""
    if mat.ndim != 2:
        raise ValueError(
            f"matrix_to_list_column expects a 2-D (n, d) matrix, got ndim={mat.ndim}"
        )
    n, d = mat.shape
    if value_type is not None:
        np_t = value_type.to_pandas_dtype()
        mat = mat.astype(np_t, copy=False)
    values = pa.array(np.ascontiguousarray(mat).ravel())
    if d == 0:  # degenerate zero-width rows: n empty lists
        offsets = pa.array(np.zeros(n + 1, dtype=np.int32))
    elif n * d > np.iinfo(np.int32).max:
        offsets = pa.array(np.arange(0, (n + 1) * d, d, dtype=np.int64))
        return pa.LargeListArray.from_arrays(offsets, values)
    else:
        offsets = pa.array(np.arange(0, (n + 1) * d, d, dtype=np.int32))
    return pa.ListArray.from_arrays(offsets, values)


def sql_round(a, n: int = 0):
    """SQL ROUND semantics (half away from zero), shared by every site
    whose output is compared against a DuckDB oracle: numpy/pandas round
    is half-to-even and diverges on exact half boundaries (observed on a
    char-3-gram jaccard of 0.5703125). Same double arithmetic as DuckDB
    (multiply, floor, divide) for bit parity. n=0 rounds to integers."""
    a = np.asarray(a, dtype=np.float64)
    pw = 10.0 ** n
    return np.copysign(np.floor(np.abs(a) * pw + 0.5), a) / pw


def group_pair_index(keys, max_block_size: int, window: int | None = None):
    """Within-group pair indices over rows sorted by (key, id), duplicate
    (key, id) rows dropped, in one vectorized pass.

    Row ``a`` of an ``n``-row group pairs with the rows after it: all of
    them when ``n <= max_block_size``; else the next ``window`` ones, or,
    with ``window=None``, those among the group's first ``max_block_size``
    rows (the ``head(cap)`` rule). Pairs come out in each group's
    ``np.triu_indices`` order, groups in key order. Returns int64 positions
    ``ii < jj`` and a bool ``truncated`` per pair (its group is over the cap)."""
    keys = np.asarray(keys)
    n = len(keys)
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    sizes = np.diff(np.r_[starts, n])
    size = np.repeat(sizes, sizes)
    rank = np.arange(n) - np.repeat(starts, sizes)
    over = size > max_block_size
    if window is None:
        partners = np.maximum(np.minimum(size, max_block_size) - 1 - rank, 0)
    else:
        partners = size - 1 - rank
        partners[over] = np.minimum(partners[over], window)
    ii = np.repeat(np.arange(n), partners)
    # each pair's offset past its left row: 1..partners[a], restarted per row
    first = np.cumsum(partners) - partners
    jj = ii + 1 + np.arange(len(ii)) - np.repeat(first, partners)
    return ii, jj, over[ii]
