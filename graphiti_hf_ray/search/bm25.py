"""Distributed BM25 fulltext search over a text column (SURVEY.md §2.9 /
ST4 / T8).

The reference holds a BM25Okapi index of every edge fact in driver memory
(graphiti_hf/search/hybrid_search.py:104-122). The Ray-Data-native shape is
index-free and streaming, two passes over the table, both pruned to the
query's terms:

  pass 1 (stats):  per-batch partial (df per query term, Σdl, N) →
                   driver-side merge (tiny: one row per batch)
  pass 2 (score):  broadcast stats, vectorized BM25 per batch over rows
                   containing ≥1 query term, per-batch local top-k →
                   global sort().limit(k)

Tokenization: lowercase ``\\w+`` (Lucene-ish), matching the sanitizer
contract of graphiti_core/helpers.py:62-96 (queries are escaped/limited
upstream). k1=1.5, b=0.75 (rank_bm25 defaults).
"""

from __future__ import annotations

import math
import re

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

_TOKEN = re.compile(r"\w+")
K1, B = 1.5, 0.75
MAX_QUERY_TERMS = 128  # MAX_QUERY_LENGTH, helpers.py:72


def tokenize(text: str) -> list[str]:
    return _TOKEN.findall(text.lower())


def _no_hits(id_col: str) -> pd.DataFrame:
    return pd.DataFrame({id_col: pd.Series([], dtype=str), "score": pd.Series([], dtype="float64")})


def bm25_topk(
    ds: "ray.data.Dataset",
    query: str,
    text_col: str,
    id_col: str,
    k: int = 10,
) -> pd.DataFrame:
    """Exact corpus-wide BM25 top-k for ``query``. Returns (id, score) with
    score rounded to 6 dp, ties broken by id."""
    terms = tokenize(query)[:MAX_QUERY_TERMS]
    if not terms:
        return _no_hits(id_col)
    uniq_terms = sorted(set(terms))
    terms_ref = ray.put(uniq_terms)

    def stats(t: pa.Table) -> pa.Table:
        qs = ray.get(terms_ref)
        texts = t.column(text_col).to_pylist()
        df_counts = {w: 0 for w in qs}
        total_len = 0
        for x in texts:
            toks = tokenize(x)
            total_len += len(toks)
            s = set(toks)
            for w in qs:
                if w in s:
                    df_counts[w] += 1
        return pa.table(
            {
                "term": pa.array(qs, pa.string()),
                "df": pa.array([df_counts[w] for w in qs], pa.int64()),
                "n_docs": pa.array([len(texts)] * len(qs), pa.int64()),
                "total_len": pa.array([total_len] * len(qs), pa.int64()),
            }
        )

    sdf = ds.map_batches(stats, batch_format="pyarrow").to_pandas()
    if sdf.empty:
        # every block was empty (no row of the table is in the searched
        # groups): the frame carries no columns, and no row can score
        return _no_hits(id_col)
    agg =sdf.groupby("term")["df"].sum()
    n_docs = int(sdf.groupby("term")["n_docs"].sum().iloc[0])
    total_len = int(sdf.groupby("term")["total_len"].sum().iloc[0])
    if n_docs == 0:
        return _no_hits(id_col)
    avgdl = total_len / n_docs
    idf = {
        w: math.log((n_docs - int(agg[w]) + 0.5) / (int(agg[w]) + 0.5) + 1.0) for w in uniq_terms
    }
    params_ref = ray.put((uniq_terms, idf, avgdl))

    def score(t: pa.Table) -> pa.Table:
        qs, idf_, avgdl_ = ray.get(params_ref)
        ids = t.column(id_col).to_pylist()
        texts = t.column(text_col).to_pylist()
        out_i, out_s = [], []
        for i, x in zip(ids, texts):
            toks = tokenize(x)
            dl = len(toks)
            sc = 0.0
            if dl:
                from collections import Counter

                tf = Counter(toks)
                for w in qs:
                    f = tf.get(w, 0)
                    if f:
                        sc += idf_[w] * f * (K1 + 1) / (f + K1 * (1 - B + B * dl / avgdl_))
            if sc > 0:
                out_i.append(i)
                out_s.append(round(sc, 6))
        df = pd.DataFrame({id_col: out_i, "score": out_s})
        df = df.sort_values(["score", id_col], ascending=[False, True], kind="mergesort").head(k)
        return pa.Table.from_pandas(df, preserve_index=False)

    cands = ds.map_batches(score, batch_format="pyarrow")
    out = cands.sort(["score", id_col], descending=[True, False]).limit(k).to_pandas()
    # no row scored above 0: the sort's blocks are all empty and carry no
    # columns, so return the typed empty frame instead
    return out if len(out) else _no_hits(id_col)
