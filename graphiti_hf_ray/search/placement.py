"""The two placements of a search kernel.

Every searcher is a batch function ``pa.Table -> pa.Table``. It runs once
over a driver-side ``pa.Table`` (a small table, read in one pass by
``GraphStore``) or per block under ``map_batches`` over a Ray ``Dataset``
(a large one). Top-k searchers emit at most k rows per batch, and the
driver merges those candidates; no sort exchange runs on either
placement.
"""

from __future__ import annotations

from typing import Callable, Union

import pandas as pd
import pyarrow as pa

import ray.data as rd

Table = Union[pa.Table, rd.Dataset]


def map_table(data: Table, fn: Callable[..., pa.Table], **kwargs) -> Table:
    """``fn(batch, **kwargs)`` over ``data``: once over a ``pa.Table``, or
    lazily per block of a ``Dataset``. Returns the same kind as ``data``."""
    if isinstance(data, pa.Table):
        return fn(data, **kwargs)
    return data.map_batches(fn, batch_format="pyarrow", fn_kwargs=kwargs)


def no_hits(id_col: str) -> pd.DataFrame:
    """The typed empty ``(id, score)`` frame."""
    return pd.DataFrame({id_col: pd.Series([], dtype=str), "score": pd.Series([], dtype="float64")})


def topk_batch(ids: pa.ChunkedArray, scores, id_col: str, k: int) -> pa.Table:
    """The k best ``(id, score)`` rows of one batch: score desc, id asc."""
    t = pa.table({id_col: ids, "score": pa.array(scores, pa.float64())})
    return t.sort_by([("score", "descending"), (id_col, "ascending")]).slice(0, k)


def merge_topk(cands: Table, id_col: str, k: int) -> pd.DataFrame:
    """Global top-k over the per-batch candidates (≤ k rows per batch), on
    the driver. A Ray placement whose blocks are all empty yields a frame
    with no columns; both placements return the typed empty frame then."""
    df = cands.to_pandas()
    if df.empty:
        return no_hits(id_col)
    return (
        df.sort_values(["score", id_col], ascending=[False, True], kind="mergesort")
        .head(k)
        .reset_index(drop=True)
    )


def top_rows(data: Table, keys: list[tuple[str, str]], n: int) -> pd.DataFrame:
    """The first ``n`` rows of ``data`` in ``keys`` order (``(column,
    "ascending" | "descending")`` pairs), as pandas."""
    if isinstance(data, pa.Table):
        return data.sort_by(keys).slice(0, n).to_pandas()
    cols = [c for c, _ in keys]
    return data.sort(cols, descending=[o == "descending" for _, o in keys]).limit(n).to_pandas()
