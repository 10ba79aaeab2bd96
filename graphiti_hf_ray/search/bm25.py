"""BM25 fulltext search over a text column (SURVEY.md §2.9 / ST4 / T8).

The reference holds a BM25Okapi index of every edge fact in driver memory
(graphiti_hf/search/hybrid_search.py:104-122). This form is index-free:
two passes over the table, both pruned to the query's terms, each a batch
function that runs in either placement of ``search.placement`` (once over
a driver-side ``pa.Table``, or per block of a Ray ``Dataset``):

  pass 1 (stats):  ``stats_batch`` — per-batch partial (df per query term,
                   Σdl, N) → driver-side merge (one row per term per batch)
  pass 2 (score):  ``score_batch`` — vectorized BM25 over the batch's rows,
                   per-batch local top-k → driver merge of the ≤ k rows per
                   batch (no sort exchange)

Tokenization: lowercase ``\\w+`` (Lucene-ish), matching the sanitizer
contract of graphiti_core/helpers.py:62-96 (queries are escaped/limited
upstream). k1=1.5, b=0.75 (rank_bm25 defaults).
"""

from __future__ import annotations

import math
import re
from collections import Counter

import pandas as pd
import pyarrow as pa

from .placement import Table, map_table, merge_topk, no_hits, topk_batch

_TOKEN = re.compile(r"\w+")
K1, B = 1.5, 0.75
MAX_QUERY_TERMS = 128  # MAX_QUERY_LENGTH, helpers.py:72


def tokenize(text: str) -> list[str]:
    return _TOKEN.findall(text.lower())


def stats_batch(t: pa.Table, text_col: str, terms: list[str]) -> pa.Table:
    """Pass 1 over one batch: per query term its document frequency, plus
    the batch's row count and total token length."""
    texts = t.column(text_col).to_pylist()
    df_counts = {w: 0 for w in terms}
    total_len = 0
    for x in texts:
        toks = tokenize(x)
        total_len += len(toks)
        s = set(toks)
        for w in terms:
            if w in s:
                df_counts[w] += 1
    return pa.table(
        {
            "term": pa.array(terms, pa.string()),
            "df": pa.array([df_counts[w] for w in terms], pa.int64()),
            "n_docs": pa.array([len(texts)] * len(terms), pa.int64()),
            "total_len": pa.array([total_len] * len(terms), pa.int64()),
        }
    )


def score_batch(
    t: pa.Table, text_col: str, id_col: str, idf: dict[str, float], avgdl: float, k: int
) -> pa.Table:
    """Pass 2 over one batch: the BM25 score of each row with a query term
    (rounded to 6 dp), the batch's k best as ``(id, score)``."""
    keep, scores = [], []
    for x in t.column(text_col).to_pylist():
        toks = tokenize(x)
        dl = len(toks)
        sc = 0.0
        if dl:
            tf = Counter(toks)
            for w, idf_w in idf.items():
                f = tf.get(w, 0)
                if f:
                    sc += idf_w * f * (K1 + 1) / (f + K1 * (1 - B + B * dl / avgdl))
        keep.append(sc > 0)
        if sc > 0:
            scores.append(round(sc, 6))
    ids = t.column(id_col).filter(pa.array(keep, pa.bool_()))
    return topk_batch(ids, scores, id_col, k)


def bm25_topk(
    data: Table,
    query: str,
    text_col: str,
    id_col: str,
    k: int = 10,
) -> pd.DataFrame:
    """Exact corpus-wide BM25 top-k for ``query`` over a ``pa.Table`` or a
    Ray ``Dataset``. Returns (id, score) with score rounded to 6 dp, ties
    broken by id."""
    terms = tokenize(query)[:MAX_QUERY_TERMS]
    if not terms:
        return no_hits(id_col)
    uniq_terms = sorted(set(terms))
    sdf = map_table(data, stats_batch, text_col=text_col, terms=uniq_terms).to_pandas()
    if sdf.empty:
        # no row of the table is in the searched groups (on Ray, every
        # block was empty and the frame carries no columns): no row scores
        return no_hits(id_col)
    agg = sdf.groupby("term")[["df", "n_docs", "total_len"]].sum()
    n_docs = int(agg["n_docs"].iloc[0])
    if n_docs == 0:
        return no_hits(id_col)
    avgdl = int(agg["total_len"].iloc[0]) / n_docs
    idf = {
        w: math.log((n_docs - int(agg.at[w, "df"]) + 0.5) / (int(agg.at[w, "df"]) + 0.5) + 1.0)
        for w in uniq_terms
    }
    cands = map_table(data, score_batch, text_col=text_col, id_col=id_col, idf=idf, avgdl=avgdl, k=k)
    return merge_topk(cands, id_col, k)
