"""Vector similarity search over a fixed-size-list embedding column
(SURVEY.md ST3 / T7 — the FAISS-equivalent, index-free form).

``cosine_topk`` is the exact baseline: ``score_batch`` is one numpy
matmul and a local top-k per batch, run once over a driver-side
``pa.Table`` or per block of a Ray ``Dataset`` (``search.placement``),
then a driver-side merge of the k-rows-per-batch candidates (never the
corpus). Threshold semantics match the reference (DEFAULT_MIN_SCORE = 0.6,
search_utils.py:69; normalized inner product = cosine,
vector_search.py:229-285).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.vectors import embedding_matrix, l2_normalize
from .placement import Table, map_table, merge_topk, topk_batch


def score_batch(
    t: pa.Table, q: np.ndarray, emb_col: str, id_col: str, k: int, min_score: float
) -> pa.Table:
    """Cosine of each row's embedding with the unit query ``q``; the
    batch's k best at or above ``min_score`` as ``(id, score)``."""
    if not t.num_rows:  # no matrix to multiply (Ray never maps an empty batch)
        return topk_batch(t.column(id_col), [], id_col, k)
    sims = l2_normalize(embedding_matrix(t.column(emb_col))) @ q
    keep = sims >= min_score
    return topk_batch(t.column(id_col).filter(pa.array(keep)), np.round(sims[keep], 6), id_col, k)


def cosine_topk(
    data: Table,
    query_vec: np.ndarray,
    emb_col: str,
    id_col: str,
    k: int = 10,
    min_score: float = 0.6,
) -> pd.DataFrame:
    q = l2_normalize(np.asarray(query_vec, np.float64))
    cands = map_table(data, score_batch, q=q, emb_col=emb_col, id_col=id_col, k=k, min_score=min_score)
    return merge_topk(cands, id_col, k)
