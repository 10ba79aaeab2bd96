"""Vector similarity search over a fixed-size-list embedding column
(SURVEY.md ST3 / T7 — the FAISS-equivalent, index-free streaming form).

``cosine_topk`` is the exact baseline: broadcast the query via ``ray.put``,
one numpy matmul per batch, per-batch local top-k, and a driver-side merge
of the k-rows-per-batch candidates (never the corpus). Threshold semantics
match the reference (DEFAULT_MIN_SCORE = 0.6, search_utils.py:69;
normalized inner product = cosine, vector_search.py:229-285).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from ..functions.vectors import embedding_matrix, l2_normalize


def cosine_topk(
    ds: "ray.data.Dataset",
    query_vec: np.ndarray,
    emb_col: str,
    id_col: str,
    k: int = 10,
    min_score: float = 0.6,
) -> pd.DataFrame:
    q = l2_normalize(np.asarray(query_vec, np.float64))
    qref = ray.put((q, k, min_score))

    def score(t: pa.Table) -> pa.Table:
        q_, k_, ms = ray.get(qref)
        ids = t.column(id_col).combine_chunks().to_numpy(zero_copy_only=False)
        mat = embedding_matrix(t.column(emb_col))
        sims = l2_normalize(mat) @ q_
        keep = sims >= ms
        ids = np.asarray(ids, object)[keep]
        sims = sims[keep]
        order = np.lexsort((ids, -sims))[:k_]
        return pa.table(
            {
                id_col: pa.array(ids[order].tolist(), pa.string()),
                "score": pa.array(np.round(sims[order], 6), pa.float64()),
            }
        )

    cands = ds.map_batches(score, batch_format="pyarrow")
    # ≤ k rows per batch survive the map — the global merge is a
    # k·n_batches-row frame; a driver sort beats a full sort-exchange
    df = cands.to_pandas()
    if df.empty:
        return pd.DataFrame({id_col: pd.Series([], dtype=str), "score": pd.Series([], dtype="float64")})
    return (
        df.sort_values(["score", id_col], ascending=[False, True], kind="mergesort")
        .head(k)
        .reset_index(drop=True)
    )
