"""Read-side search layer tests vs pandas/duckdb oracles (FIXTURES.md F7)."""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from graphiti_hf_ray.fixtures import pages as P
from graphiti_hf_ray.pipelines.kg import build_graph
from graphiti_hf_ray.search.bm25 import bm25_topk, tokenize
from graphiti_hf_ray.search.filters import ComparisonOperator, DateFilter, SearchFilters, apply_filters
from graphiti_hf_ray.search.hybrid import (
    COMBINED_HYBRID_SEARCH_RRF,
    EDGE_HYBRID_SEARCH_NODE_DISTANCE,
    GraphStore,
    NODE_HYBRID_SEARCH_RRF,
    search,
)
from graphiti_hf_ray.search.rerank import CrossEncoderStub, mmr, rrf
from graphiti_hf_ray.search.traversal import bfs_reachable
from graphiti_hf_ray.search.vector import cosine_topk
from graphiti_hf_ray.stages.embed import embed_text


@pytest.fixture(scope="module")
def store(ray_session, pages_parquet, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("searchgraph"))
    build_graph([pages_parquet], out, num_shards=4)
    return GraphStore(out)


def _edges_df(store):
    from graphiti_hf_ray import io as gio

    return gio.read_table_dir(store.out_dir, "edges").to_pandas()


def test_bm25_matches_reference_formula(ray_session, store):
    """Engine BM25 top-k == driver-side rank_bm25-style oracle."""
    edges = _edges_df(store)
    query = "acme corporation works"
    got = bm25_topk(store.ds("edges"), query, text_col="fact", id_col="uuid", k=10)

    # oracle: same formula over the full corpus in pandas
    corpus = [tokenize(f) for f in edges["fact"]]
    n = len(corpus)
    avgdl = sum(len(c) for c in corpus) / n
    terms = sorted(set(tokenize(query)))
    df_ = {w: sum(1 for c in corpus if w in c) for w in terms}
    idf = {w: math.log((n - df_[w] + 0.5) / (df_[w] + 0.5) + 1.0) for w in terms}
    scores = []
    for uid, toks in zip(edges["uuid"], corpus):
        sc = 0.0
        for w in terms:
            f = toks.count(w)
            if f:
                sc += idf[w] * f * 2.5 / (f + 1.5 * (1 - 0.75 + 0.75 * len(toks) / avgdl))
        if sc > 0:
            scores.append((round(sc, 6), uid))
    exp = [u for s, u in sorted(scores, key=lambda t: (-t[0], t[1]))[:10]]
    assert list(got["uuid"]) == exp


def test_cosine_topk_matches_numpy(ray_session, store):
    nodes = store.ds("nodes")
    q = embed_text("Ada Lovelace")
    got = cosine_topk(nodes, q, emb_col="name_embedding", id_col="uuid", k=5, min_score=0.0)
    from graphiti_hf_ray import io as gio

    ndf = gio.read_table_dir(store.out_dir, "nodes").to_pandas()
    mat = np.stack([np.asarray(v, np.float64) for v in ndf["name_embedding"]])
    mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    sims = mat @ (q / np.linalg.norm(q))
    order = np.lexsort((ndf["uuid"].values, -sims))[:5]
    assert list(got["uuid"]) == list(ndf["uuid"].values[order])
    # the Ada Lovelace node itself must be rank 1
    assert got["uuid"].iloc[0] in set(
        ndf.loc[ndf["name"] == "Ada Lovelace", "uuid"]
    )


def test_bfs_depths_match_pandas_oracle(ray_session, store):
    edges = _edges_df(store)
    seed = sorted(edges["source_uuid"])[0]
    got = bfs_reachable(store.ds("edges"), [seed], max_depth=3, directed=True)
    # pandas BFS oracle
    adj: dict[str, set[str]] = {}
    for s, t in zip(edges["source_uuid"], edges["target_uuid"]):
        adj.setdefault(s, set()).add(t)
    dist = {seed: 0}
    frontier = [seed]
    for d in range(1, 4):
        nxt = []
        for u in frontier:
            for v in adj.get(u, ()):  # noqa: B905
                if v not in dist:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    exp = {u: d for u, d in dist.items() if d > 0}
    assert dict(zip(got["uuid"], got["depth"])) == exp


def test_search_filters_edge_types_and_dates(ray_session, store):
    edges_all = _edges_df(store)
    # dedup-merge takes MIN valid_at per triple, compressing the range —
    # pick the data median so both sides of the filter are non-empty
    t0 = edges_all.loc[edges_all["name"] == "IS_CEO_OF", "valid_at"].median()
    f = SearchFilters(
        edge_types=["IS_CEO_OF"],
        valid_at=[[DateFilter(ComparisonOperator.greater_than_equal, t0)]],
    )
    out = apply_filters(store.ds("edges"), f, "edge").to_pandas()
    edges = _edges_df(store)
    exp = edges[(edges["name"] == "IS_CEO_OF") & (edges["valid_at"] >= t0)]
    assert len(exp) > 0, "fixture must produce matches for this filter"
    assert (out["name"] == "IS_CEO_OF").all()
    assert (out["valid_at"] >= t0).all()
    assert set(out["uuid"]) == set(exp["uuid"])


def test_hybrid_search_rrf_and_recipes(ray_session, store):
    res = search(store, "Ada Lovelace Acme", COMBINED_HYBRID_SEARCH_RRF)
    assert len(res.nodes) > 0 and len(res.edges) > 0 and len(res.episodes) > 0
    assert len(res.nodes) <= COMBINED_HYBRID_SEARCH_RRF.limit
    # node search alone
    res2 = search(store, "Lovelace", NODE_HYBRID_SEARCH_RRF)
    from graphiti_hf_ray import io as gio

    ndf = gio.read_table_dir(store.out_dir, "nodes").to_pandas()
    ada = set(ndf.loc[ndf["name"] == "Ada Lovelace", "uuid"])
    assert ada & set(res2.nodes["uuid"])


def test_node_distance_reranker(ray_session, store):
    edges = _edges_df(store)
    center = sorted(edges["source_uuid"])[0]
    res = search(store, "works at", EDGE_HYBRID_SEARCH_NODE_DISTANCE, center_node_uuid=center)
    assert len(res.edges) > 0
    # edge ordering must follow the SOURCE node's center distance
    # (reference search.py:254-306), not a (missing) edge-uuid lookup
    from graphiti_hf_ray.search.traversal import node_distances

    d = node_distances(store.ds("edges"), center)
    src_of = dict(zip(edges["uuid"], edges["source_uuid"]))

    def score(u):
        dist = d.get(src_of[u])
        if dist is None:
            return 0.0
        return 1.0 / dist if dist > 0 else 1.0

    got = list(res.edges["uuid"])
    assert got == sorted(got, key=lambda u: (-score(u), u))
    assert any(score(u) > 0 for u in got)  # lookups actually hit


def test_edge_episode_mentions_orders_by_provenance(ray_session, store):
    from graphiti_hf_ray.search.hybrid import EDGE_HYBRID_SEARCH_EPISODE_MENTIONS

    edges = _edges_df(store)
    res = search(store, "works at", EDGE_HYBRID_SEARCH_EPISODE_MENTIONS)
    assert len(res.edges) > 0
    n_eps = {
        u: len(e.split(",")) if e else 0 for u, e in zip(edges["uuid"], edges["episodes"])
    }
    got = list(res.edges["uuid"])
    assert got == sorted(got, key=lambda u: (-n_eps[u], u))


def test_rrf_formula():
    out = rrf([["a", "b", "c"], ["b", "a"]])
    scores = dict(out)
    assert scores["a"] == pytest.approx(1.0 + 0.5)
    assert scores["b"] == pytest.approx(0.5 + 1.0)
    assert out[0][0] in ("a", "b")  # tie broken lexicographically
    assert out[0][0] == "a"


def test_mmr_prefers_diversity():
    q = np.array([1.0, 0.0])
    vecs = {"a": np.array([0.95, 0.31]), "a2": np.array([0.95, 0.32]), "b": np.array([0.3, 0.95])}
    picked = mmr(["a", "a2", "b"], q, vecs, lambda_=0.3, k=2)
    assert picked[0] == "a" and picked[1] == "b"


def test_cross_encoder_stub_deterministic():
    ce = CrossEncoderStub()
    r = ce.rank("acme corp", [("e1", "acme corp is here"), ("e2", "nothing")])
    assert r[0][0] == "e1" and r[0][1] > r[1][1]


def test_weighted_combine_formula():
    """HF min-max weighted combine (hybrid_search.py:64-79): 0.4 semantic
    + 0.3 keyword + 0.3 graph, each min-max normalized over its own
    candidate scores."""
    from graphiti_hf_ray.search.hybrid import SearchMethod, weighted_combine

    maps = {
        SearchMethod.cosine_similarity: {"a": 1.0, "b": 0.5, "c": 0.0},
        SearchMethod.bm25: {"b": 2.0, "c": 4.0},
        SearchMethod.bfs: {"a": 1.0},
    }
    ranked = weighted_combine(maps, limit=10)
    # a: 0.4*1 + 0.3(graph, sole candidate → 1) = 0.7
    # b: 0.4*0.5 + 0.3*0 = 0.2 ; c: 0.4*0 + 0.3*1 = 0.3
    assert ranked == ["a", "c", "b"]
    assert weighted_combine({}, limit=5) == []


def test_weighted_recipes_run(ray_session, store):
    from graphiti_hf_ray.search.hybrid import (
        EDGE_HYBRID_SEARCH_WEIGHTED, NODE_HYBRID_SEARCH_WEIGHTED,
    )

    edges = _edges_df(store)
    center = sorted(edges["source_uuid"])[0]
    r1 = search(store, "Ada Lovelace Acme", NODE_HYBRID_SEARCH_WEIGHTED, center_node_uuid=center)
    assert 0 < len(r1.nodes) <= NODE_HYBRID_SEARCH_WEIGHTED.limit
    r2 = search(store, "works at", EDGE_HYBRID_SEARCH_WEIGHTED, center_node_uuid=center)
    assert 0 < len(r2.edges) <= EDGE_HYBRID_SEARCH_WEIGHTED.limit


def test_subgraph_and_paths(ray_session):
    import ray.data as rd

    from graphiti_hf_ray.search.traversal import extract_subgraph, find_paths

    edges = pd.DataFrame(
        {
            "source_uuid": ["a", "b", "a", "c", "d", "x"],
            "target_uuid": ["b", "c", "c", "d", "e", "y"],
        }
    )
    ds = rd.from_pandas(edges)
    sub = extract_subgraph(ds, ["a"], max_depth=2, directed=True).to_pandas()
    got = set(zip(sub["source_uuid"], sub["target_uuid"]))
    # nodes within 2 hops of a: {a,b,c,d}; induced edges exclude d→e and x→y
    assert got == {("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")}
    # both shortest a→c paths of length <= 2
    paths = find_paths(ds, "a", "c", max_depth=3)
    assert paths == [["a", "c"]]  # shortest length 1 only
    paths2 = find_paths(ds, "a", "d", max_depth=3)
    assert paths2 == [["a", "c", "d"]]
    assert find_paths(ds, "a", "y", max_depth=3) == []
    # undirected reaches backwards
    assert find_paths(ds, "e", "c", max_depth=2, directed=False) == [["e", "d", "c"]]


def test_vector_index_sidecar(ray_session, store, tmp_path_factory):
    """Persisted bucket-partitioned index: full-probe query == streaming
    exact top-k; narrow probe reads fewer buckets and stays a subset."""
    import os

    from graphiti_hf_ray.search.index import (
        build_graph_indices, build_vector_index, load_index_manifest, query_vector_index,
    )
    from graphiti_hf_ray.search.vector import cosine_topk
    from graphiti_hf_ray.stages.embed import embed_text

    q = embed_text("Ada Lovelace")
    nodes = store.ds("nodes")
    exact = cosine_topk(nodes, q, emb_col="name_embedding", id_col="uuid", k=5, min_score=0.0)

    idx_dir = str(tmp_path_factory.mktemp("vidx"))
    man = build_vector_index(
        nodes.select_columns(["uuid", "name_embedding"]), idx_dir, "name_embedding", "uuid",
        n_planes=3, fingerprint="t1",
    )
    assert man["rows"] == nodes.count()
    assert sum(man["buckets"].values()) == man["rows"]
    assert set(man["bytes"]) == set(man["buckets"])
    # full probe = exact
    full = query_vector_index(idx_dir, q, k=5, probe_hamming=3, min_score=0.0)
    assert list(full["uuid"]) == list(exact["uuid"])
    # narrow probe: valid subset of the corpus ranking
    narrow = query_vector_index(idx_dir, q, k=5, probe_hamming=0, min_score=0.0)
    assert set(narrow["uuid"]) <= set(nodes.to_pandas()["uuid"])
    # rebuild resumes (same fingerprint → shard writes are no-ops)
    man2 = build_vector_index(
        nodes.select_columns(["uuid", "name_embedding"]), idx_dir, "name_embedding", "uuid",
        n_planes=3, fingerprint="t1",
    )
    assert man2["buckets"] == man["buckets"]
    # graph-level build places sidecars next to the tables (on a copy: the
    # store fixture is shared by every test module)
    import shutil

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data as rd

    from graphiti_hf_ray.pipelines.maintenance import _filter_table_dir

    out = os.path.join(str(tmp_path_factory.mktemp("graph_idx")), "graph")
    shutil.copytree(store.out_dir, out)
    built = build_graph_indices(out, n_planes=3)
    assert "nodes" in built and "edges" in built
    assert load_index_manifest(os.path.join(out, "_index_nodes_name_embedding"))
    # a graph edit re-indexes instead of resuming the old parts: the
    # dropped edge leaves the sidecar and the row count follows the table
    victim = sorted(rd.read_parquet(os.path.join(out, "edges"), columns=["uuid"]).to_pandas()["uuid"])[0]
    assert _filter_table_dir(
        os.path.join(out, "edges"), lambda t: pc.not_equal(t.column("uuid"), pa.scalar(victim))
    ) >= 1
    build_graph_indices(out, n_planes=3)
    idx = os.path.join(out, "_index_edges_fact_embedding")
    assert load_index_manifest(idx)["rows"] == rd.read_parquet(os.path.join(out, "edges")).count()
    for dirpath, _, files in os.walk(idx):
        for fn in files:
            if fn.endswith(".parquet"):
                assert victim not in pq.read_table(os.path.join(dirpath, fn)).column("uuid").to_pylist()


def test_vector_index_salted_parts(ray_session, store, tmp_path_factory):
    """r4 VERDICT #2 (bucket funnel): a tiny rows_per_part forces multiple
    (bucket, salt) part dirs per bucket — no group task ever holds a whole
    bucket — and query results are identical to the single-part build."""
    import os

    from graphiti_hf_ray.search.index import build_vector_index, query_vector_index
    from graphiti_hf_ray.stages.embed import embed_text

    nodes = store.ds("nodes").select_columns(["uuid", "name_embedding"])
    q = embed_text("Ada Lovelace")

    one = str(tmp_path_factory.mktemp("vidx_one"))
    build_vector_index(nodes, one, "name_embedding", "uuid", n_planes=2, fingerprint="t1")
    salted = str(tmp_path_factory.mktemp("vidx_salted"))
    man = build_vector_index(
        nodes, salted, "name_embedding", "uuid", n_planes=2, fingerprint="t1", rows_per_part=8,
    )
    # at least one bucket got sub-sharded into several part dirs
    multi = [
        b for b in man["buckets"]
        if len(os.listdir(os.path.join(salted, f"bucket={int(b):04d}"))) > 1
    ]
    assert multi, man["buckets"]
    a = query_vector_index(one, q, k=5, probe_hamming=2, min_score=0.0)
    b = query_vector_index(salted, q, k=5, probe_hamming=2, min_score=0.0)
    assert list(a["uuid"]) == list(b["uuid"]) and list(a["score"]) == list(b["score"])
    # a rebuild with coarser salting sweeps the now-stale extra parts
    man2 = build_vector_index(nodes, salted, "name_embedding", "uuid", n_planes=2, fingerprint="t2")
    for bkt in man2["buckets"]:
        parts = os.listdir(os.path.join(salted, f"bucket={int(bkt):04d}"))
        assert parts == ["part=0000"]
    c = query_vector_index(salted, q, k=5, probe_hamming=2, min_score=0.0)
    assert list(c["uuid"]) == list(a["uuid"])


def test_ivf_index_sidecar(ray_session, sf_small, tmp_path_factory):
    """Persisted trained-IVF sidecar (r4 VERDICT #1): query results are
    IDENTICAL to the streaming knn_ivf_trained re-scorer with the same
    centroids, full-probe == brute force, the probed-bytes fraction is a
    real reduction, and a rebuild resumes as a no-op."""
    import json
    import os

    import numpy as np
    import pyarrow.parquet as pq
    import ray.data as rd

    from graphiti_hf_ray.functions.knn import knn_brute, knn_ivf_trained, train_ivf_centroids
    from graphiti_hf_ray.search.index import (
        build_ivf_index, ivf_scan_stats, load_index_manifest, query_ivf_index,
    )

    t = pq.read_table(f"{sf_small}/embeddings.parquet")
    Q = np.stack([np.asarray(v, np.float64) for v in t.column("embedding").to_pylist()[:4]])
    emb = rd.read_parquet(f"{sf_small}/embeddings.parquet", columns=["vec_id", "embedding"]).materialize()
    C = train_ivf_centroids(emb, n_lists=16)

    idx = str(tmp_path_factory.mktemp("ivf_idx"))
    man = build_ivf_index(emb, idx, centroids=C, fingerprint="f1", rows_per_part=64)
    assert man["rows"] == emb.count()
    assert sum(man["lists"].values()) == man["rows"]
    # centroids round-trip exactly through the manifest JSON (the stored
    # form is the re-normalized matrix both query paths actually score with)
    from graphiti_hf_ray.functions.vectors import l2_normalize

    np.testing.assert_array_equal(
        np.asarray(load_index_manifest(idx)["centroids"]), l2_normalize(np.asarray(C, np.float64))
    )

    for q in Q:
        got = query_ivf_index(idx, q, k=10, n_probe=4)
        ref = knn_ivf_trained(emb, q, C, k=10, n_probe=4)
        assert list(got["vec_id"]) == list(ref["vec_id"])
        assert list(got["cosine"]) == list(ref["cosine"])
    # full probe == exact brute force
    full = query_ivf_index(idx, Q[0], k=10, n_probe=16)
    assert list(full["vec_id"]) == list(knn_brute(emb, Q[0], k=10)["vec_id"])
    # the recorded recall bar (BASELINE.md: >= 0.9 recall@10 at n_lists=16,
    # n_probe=4) holds against the SIDECAR, not just the streaming path
    hits = sum(
        len(set(query_ivf_index(idx, q, k=10, n_probe=4)["vec_id"])
            & set(knn_brute(emb, q, k=10)["vec_id"]))
        for q in Q
    )
    assert hits / (10 * len(Q)) >= 0.9
    # the recall-bar config's sidecar reads a real fraction of the bytes
    stats = ivf_scan_stats(idx, Q[0], n_probe=4)
    assert 0 < stats["bytes_probed"] < stats["bytes_total"]
    assert stats["rows_frac"] <= 0.5 and stats["bytes_frac"] <= 0.6, stats
    # resume: same fingerprint → part manifests untouched
    some_part = os.path.join(idx, sorted(d for d in os.listdir(idx) if d.startswith("list="))[0])
    part_dir = os.path.join(some_part, sorted(os.listdir(some_part))[0])
    with open(os.path.join(part_dir, "_manifest.json")) as f:
        before = json.load(f)["written_at"]
    build_ivf_index(emb, idx, centroids=C, fingerprint="f1", rows_per_part=64)
    with open(os.path.join(part_dir, "_manifest.json")) as f:
        assert json.load(f)["written_at"] == before


def test_ivf_index_append(ray_session, sf_small, tmp_path_factory):
    """Incremental add (FAISS index.add parity): base build on half the
    vectors + an append epoch of the rest answers queries IDENTICALLY to a
    one-shot build with the same centroids; re-running the same append is
    a no-op resume; a full rebuild sweeps every epoch (no row doubling)."""
    import os

    import numpy as np
    import ray.data as rd

    from graphiti_hf_ray.functions.knn import train_ivf_centroids
    from graphiti_hf_ray.search.index import (
        append_to_index, build_ivf_index, load_index_manifest, query_ivf_index,
    )

    emb = rd.read_parquet(f"{sf_small}/embeddings.parquet", columns=["vec_id", "embedding"]).materialize()
    n = emb.count()
    import pyarrow as _pa
    import pyarrow.compute as _pc

    def _half(parity):
        def f(t: _pa.Table) -> _pa.Table:
            ids = t.column("vec_id").cast(_pa.int64())
            return t.filter(_pc.equal(_pc.bit_wise_and(ids, _pa.scalar(1, _pa.int64())), _pa.scalar(parity, _pa.int64())))
        return f

    first = emb.map_batches(_half(0), batch_format="pyarrow").materialize()
    second = emb.map_batches(_half(1), batch_format="pyarrow").materialize()
    C = train_ivf_centroids(emb, n_lists=16)
    q = np.asarray(emb.take(1)[0]["embedding"], np.float64)

    inc = str(tmp_path_factory.mktemp("ivf_inc"))
    build_ivf_index(first, inc, centroids=C, fingerprint="base", rows_per_part=64)
    man = append_to_index(second, inc, fingerprint="add1", rows_per_part=64)
    assert man["rows"] == n
    assert sum(man["lists"].values()) == n
    assert man["generations"] == ["base", "add1"]

    full = str(tmp_path_factory.mktemp("ivf_full"))
    build_ivf_index(emb, full, centroids=C, fingerprint="one", rows_per_part=64)
    for np_ in (4, 16):
        a = query_ivf_index(inc, q, k=10, n_probe=np_)
        b = query_ivf_index(full, q, k=10, n_probe=np_)
        assert list(a["vec_id"]) == list(b["vec_id"])
        assert list(a["cosine"]) == list(b["cosine"])

    # same-fingerprint re-append resumes: row total unchanged
    man2 = append_to_index(second, inc, fingerprint="add1", rows_per_part=64)
    assert man2["rows"] == n and man2["generations"] == ["base", "add1"]

    # empty append is a no-op (row total and query results unchanged)
    man_e = append_to_index(second.limit(0), inc, fingerprint="add2", rows_per_part=64)
    assert man_e["rows"] == n

    # full rebuild owns the dir: every epoch swept, counts back to base+add
    man3 = build_ivf_index(emb, inc, centroids=C, fingerprint="v2", rows_per_part=64)
    assert man3["rows"] == n
    for d in os.listdir(inc):
        if d.startswith("list="):
            assert not any(s.startswith("epoch=") for s in os.listdir(os.path.join(inc, d)))
    c = query_ivf_index(inc, q, k=10, n_probe=16)
    assert list(c["vec_id"]) == list(query_ivf_index(full, q, k=10, n_probe=16)["vec_id"])


def test_ivfpq_index_sidecar(ray_session, sf_small, tmp_path_factory):
    """IVF-PQ sidecar (FAISS IndexIVFPQ shape): codes compress the probed
    scan, ADC answers rank usefully, and the refine stage returns EXACT
    cosines while reading only the probed lists of a full-vector sidecar
    sharing the same centroids. Bars measured on the isotropic sf0.001
    fixture (the worst case for PQ — random uniform subvectors carry
    minimal codebook structure): ADC-only recall@10 0.54, refined 0.875 at
    (n_lists=16, n_probe=4, m=8, nbits=6); locked with slack below."""
    import numpy as np
    import pyarrow as _pa
    import pyarrow.compute as _pc
    import pyarrow.parquet as pq
    import pytest
    import ray.data as rd

    from graphiti_hf_ray.functions.knn import (
        knn_brute, train_ivf_centroids, train_pq_codebooks,
    )
    from graphiti_hf_ray.search.index import (
        build_ivf_index, build_ivfpq_index, build_vector_index, ivf_scan_stats,
        load_index_manifest, query_ivf_index, query_ivfpq_index, query_vector_index,
    )

    t = pq.read_table(f"{sf_small}/embeddings.parquet")
    Q = np.stack([np.asarray(v, np.float64) for v in t.column("embedding").to_pylist()[:4]])
    emb = rd.read_parquet(
        f"{sf_small}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).materialize()
    n = emb.count()
    C = train_ivf_centroids(emb, n_lists=16)
    B = train_pq_codebooks(emb, m=8, nbits=6)
    assert B.shape == (8, 64, 8)
    # training is deterministic and bounded
    np.testing.assert_array_equal(B, train_pq_codebooks(emb, m=8, nbits=6))
    with pytest.raises(ValueError):
        train_pq_codebooks(emb, m=8, nbits=9)  # uint8 codes cap nbits
    with pytest.raises(ValueError):
        train_pq_codebooks(emb, m=7)  # 64 % 7 != 0

    pq_dir = str(tmp_path_factory.mktemp("ivfpq_idx"))
    full_dir = str(tmp_path_factory.mktemp("ivfpq_refine"))
    man = build_ivfpq_index(
        emb, pq_dir, centroids=C, codebooks=B, nbits=6, fingerprint="f1", rows_per_part=64
    )
    assert man["rows"] == n and sum(man["lists"].values()) == n
    # codebooks round-trip exactly through the manifest JSON
    np.testing.assert_array_equal(np.asarray(load_index_manifest(pq_dir)["codebooks"]), B)
    fman = build_ivf_index(emb, full_dir, centroids=C, fingerprint="f1", rows_per_part=64)
    # the code files are a real compression of the full-vector sidecar even
    # at 500 rows where parquet footers dominate (32x on the raw payload:
    # 8 uint8 vs 64 float32)
    assert 2 * sum(man["bytes"].values()) < sum(fman["bytes"].values())

    hits_adc = hits_ref = 0
    for q in Q:
        brute = knn_brute(emb, q, k=10)
        adc = query_ivfpq_index(pq_dir, q, k=10, n_probe=4)
        assert len(adc) == 10 and list(adc.columns) == ["vec_id", "adc_score"]
        assert list(adc["adc_score"]) == sorted(adc["adc_score"], reverse=True)
        ref = query_ivfpq_index(pq_dir, q, k=10, n_probe=4, refine_index_dir=full_dir)
        assert list(ref.columns) == ["vec_id", "cosine"]
        hits_adc += len(set(adc["vec_id"]) & set(brute["vec_id"]))
        hits_ref += len(set(ref["vec_id"]) & set(brute["vec_id"]))
        # refined cosines are EXACT (same kernel + rounding as brute force)
        exact = dict(zip(brute["vec_id"], brute["cosine"]))
        for i, c in zip(ref["vec_id"], ref["cosine"]):
            if i in exact:
                assert c == exact[i]
    assert hits_ref / (10 * len(Q)) >= 0.8, hits_ref
    assert hits_adc / (10 * len(Q)) >= 0.4, hits_adc
    # refine can only help: the shortlist rerank dominates raw ADC
    assert hits_ref >= hits_adc

    # scan accounting works unchanged on the pq manifest (same keys), and
    # the probed fraction is a real reduction
    stats = ivf_scan_stats(pq_dir, Q[0], n_probe=4)
    assert 0 < stats["bytes_probed"] < stats["bytes_total"]
    assert stats["rows_frac"] <= 0.5

    # wrong-kind / mismatched refine sidecars are rejected
    with pytest.raises(ValueError):
        query_ivfpq_index(pq_dir, Q[0], k=10, n_probe=4, refine_index_dir=pq_dir)
    other = str(tmp_path_factory.mktemp("ivfpq_other"))
    build_ivf_index(
        emb, other, centroids=train_ivf_centroids(emb, n_lists=8),
        fingerprint="f2", rows_per_part=64,
    )
    with pytest.raises(ValueError):
        query_ivfpq_index(pq_dir, Q[0], k=10, n_probe=4, refine_index_dir=other)
    with pytest.raises(ValueError):
        query_ivfpq_index(full_dir, Q[0], k=10)  # not an ivf_pq index
    # every query names the wrong layout instead of failing on a missing key
    sp_dir = str(tmp_path_factory.mktemp("ivfpq_sp"))
    build_vector_index(emb, sp_dir, "embedding", "vec_id", n_planes=2, fingerprint="f1")
    with pytest.raises(ValueError):
        query_ivf_index(pq_dir, Q[0], k=10)
    with pytest.raises(ValueError):
        query_vector_index(pq_dir, Q[0], k=10)
    with pytest.raises(ValueError):
        query_ivf_index(sp_dir, Q[0], k=10)
    with pytest.raises(ValueError):
        ivf_scan_stats(sp_dir, Q[0], n_probe=4)
    # caller-supplied codebooks must agree with nbits (ncode > 256 would
    # silently wrap in the uint8 code column)
    with pytest.raises(ValueError):
        build_ivfpq_index(emb, str(tmp_path_factory.mktemp("ivfpq_bad")),
                          centroids=C, codebooks=B, nbits=8, fingerprint="f1")
    # nbits > 8 rejected even with MATCHING caller-supplied codebooks —
    # 512-codeword argmins would wrap mod 256 in the uint8 code column
    with pytest.raises(ValueError):
        build_ivfpq_index(emb, str(tmp_path_factory.mktemp("ivfpq_bad9")),
                          centroids=C, codebooks=np.concatenate([B] * 8, axis=1),
                          nbits=9, fingerprint="f1")
    # a refine sidecar stale relative to the pq index (rows appended to one
    # but not the other) is rejected, not silently row-dropped
    from graphiti_hf_ray.search.index import append_to_index

    extra = emb.map_batches(
        lambda t: t.set_column(
            t.schema.get_field_index("vec_id"),
            "vec_id",
            _pc.add(t.column("vec_id").cast(_pa.int64()), _pa.scalar(10_000, _pa.int64())),
        ),
        batch_format="pyarrow",
    ).limit(16).materialize()
    append_to_index(extra, pq_dir, fingerprint="drift")
    with pytest.raises(ValueError):
        query_ivfpq_index(pq_dir, Q[0], k=10, n_probe=4, refine_index_dir=full_dir)


def test_ivfpq_index_append(ray_session, sf_small, tmp_path_factory):
    """IVF-PQ append epoch: appended rows are encoded with the PERSISTED
    quantizers, so an incremental build answers queries IDENTICALLY to a
    one-shot build (codes are bit-identical by construction)."""
    import numpy as np
    import pyarrow as _pa
    import pyarrow.compute as _pc
    import ray.data as rd

    from graphiti_hf_ray.functions.knn import train_ivf_centroids, train_pq_codebooks
    from graphiti_hf_ray.search.index import (
        append_to_index, build_ivfpq_index, query_ivfpq_index,
    )

    emb = rd.read_parquet(
        f"{sf_small}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).materialize()
    n = emb.count()

    def _half(parity):
        def f(t: _pa.Table) -> _pa.Table:
            ids = t.column("vec_id").cast(_pa.int64())
            return t.filter(_pc.equal(
                _pc.bit_wise_and(ids, _pa.scalar(1, _pa.int64())),
                _pa.scalar(parity, _pa.int64()),
            ))
        return f

    first = emb.map_batches(_half(0), batch_format="pyarrow").materialize()
    second = emb.map_batches(_half(1), batch_format="pyarrow").materialize()
    C = train_ivf_centroids(emb, n_lists=16)
    B = train_pq_codebooks(emb, m=8, nbits=6)
    q = np.asarray(emb.take(1)[0]["embedding"], np.float64)

    inc = str(tmp_path_factory.mktemp("ivfpq_inc"))
    build_ivfpq_index(first, inc, centroids=C, codebooks=B, nbits=6,
                      fingerprint="base", rows_per_part=64)
    man = append_to_index(second, inc, fingerprint="add1", rows_per_part=64)
    assert man["rows"] == n and sum(man["lists"].values()) == n
    assert man["generations"] == ["base", "add1"]

    full = str(tmp_path_factory.mktemp("ivfpq_one"))
    build_ivfpq_index(emb, full, centroids=C, codebooks=B, nbits=6,
                      fingerprint="one", rows_per_part=64)
    for np_ in (4, 16):
        a = query_ivfpq_index(inc, q, k=10, n_probe=np_)
        b = query_ivfpq_index(full, q, k=10, n_probe=np_)
        assert list(a["vec_id"]) == list(b["vec_id"])
        assert list(a["adc_score"]) == list(b["adc_score"])

    # same-fingerprint re-append resumes (no row doubling)
    man2 = append_to_index(second, inc, fingerprint="add1", rows_per_part=64)
    assert man2["rows"] == n and man2["generations"] == ["base", "add1"]


def test_vector_index_append(ray_session, store, tmp_path_factory):
    """Sign-plane append epoch == one-shot build for every probe width."""
    import numpy as np
    import pyarrow as pa
    import pytest

    from graphiti_hf_ray.search.index import (
        append_to_index, build_vector_index, query_vector_index,
    )

    nodes = store.ds("nodes").select_columns(["uuid", "name_embedding"]).materialize()
    half_a = nodes.filter(expr="uuid > '8'").materialize()
    half_b = nodes.filter(expr="uuid <= '8'").materialize()
    assert half_a.count() > 0 and half_b.count() > 0
    q = np.asarray(nodes.take(1)[0]["name_embedding"], np.float64)

    inc = str(tmp_path_factory.mktemp("sp_inc"))
    build_vector_index(half_a, inc, "name_embedding", "uuid", n_planes=2, fingerprint="b")
    man = append_to_index(half_b, inc, fingerprint="a1")
    assert man["rows"] == nodes.count()

    full = str(tmp_path_factory.mktemp("sp_full"))
    build_vector_index(nodes, full, "name_embedding", "uuid", n_planes=2, fingerprint="o")
    for ph in (0, 2):
        a = query_vector_index(inc, q, k=8, probe_hamming=ph, min_score=-1.0)
        b = query_vector_index(full, q, k=8, probe_hamming=ph, min_score=-1.0)
        assert list(a["uuid"]) == list(b["uuid"])

    # refusals: no index, no batch name, a vector of another width
    with pytest.raises(FileNotFoundError):
        append_to_index(half_b, str(tmp_path_factory.mktemp("sp_none")), fingerprint="a2")
    with pytest.raises(ValueError):
        append_to_index(half_b, inc, fingerprint="")
    wide = half_b.map_batches(
        lambda t: t.set_column(
            1, "name_embedding",
            pa.array([v + v for v in t.column("name_embedding").to_pylist()], pa.list_(pa.float32())),
        ),
        batch_format="pyarrow",
    )
    with pytest.raises(ValueError):
        append_to_index(wide, inc, fingerprint="a3")


def test_cross_encoder_distributed_matches_stub(ray_session, store):
    """The actor-pool cross-encoder path returns the stub's ranking; the
    real backend stays gated."""
    import pytest as _pytest

    from graphiti_hf_ray.search.rerank import (
        CrossEncoderScore, CrossEncoderStub, cross_encoder_rerank_distributed,
    )

    eps = store.ds("episodes")
    out = cross_encoder_rerank_distributed(
        eps, "Ada Lovelace Acme", text_col="content", id_col="uuid", k=5
    )
    assert len(out) == 5
    rows = eps.select_columns(["uuid", "content"]).take_all()
    expected = CrossEncoderStub().rank("Ada Lovelace Acme", [(r["uuid"], r["content"]) for r in rows])[:5]
    assert list(out["uuid"]) == [u for u, _ in expected]
    with _pytest.raises(NotImplementedError):
        CrossEncoderScore("q", model_loader="bge")


def test_all_recipes_run(ray_session, store):
    """Every catalog recipe (search_config_recipes.py parity) executes and
    respects the limit; cross-encoder recipes exercise the passage path."""
    from graphiti_hf_ray.search.hybrid import ALL_RECIPES

    for name, cfg in ALL_RECIPES.items():
        kwargs = {}
        if "NODE_DISTANCE" in name or "BFS" in name or "WEIGHTED" in name:
            edges = _edges_df(store)
            kwargs["center_node_uuid"] = sorted(edges["source_uuid"])[0]
        res = search(store, "Ada Lovelace works at Acme", cfg, **kwargs)
        for tbl in ("edges", "nodes", "episodes", "communities"):
            df = getattr(res, tbl)
            assert len(df) <= cfg.limit, f"{name}.{tbl} over limit"
        if cfg.edge_config is not None:
            assert len(res.edges) > 0, f"{name} returned no edges"


def test_vector_index_rebuild_sweeps_legacy_layout(ray_session, store, tmp_path_factory):
    """A rebuild over a pre-sub-shard sidecar (flat part-N.parquet files +
    bucket-level _manifest.json) must remove the legacy remains — the
    recursive query glob would otherwise read them alongside the new
    parts and double every row (regression)."""
    import os

    import pyarrow.parquet as pq

    from graphiti_hf_ray.search.index import build_vector_index, query_vector_index
    from graphiti_hf_ray.stages.embed import embed_text

    nodes = store.ds("nodes").select_columns(["uuid", "name_embedding"])
    q = embed_text("Ada Lovelace")
    idx = str(tmp_path_factory.mktemp("vidx_legacy"))
    build_vector_index(nodes, idx, "name_embedding", "uuid", n_planes=2, fingerprint="t1")
    clean = query_vector_index(idx, q, k=5, probe_hamming=2, min_score=0.0)

    # plant legacy flat-layout remains in every bucket dir: a duplicate
    # part file (copied from the new layout so the schema matches) and a
    # bucket-level manifest
    planted = 0
    for d in sorted(os.listdir(idx)):
        bdir = os.path.join(idx, d)
        if not (d.startswith("bucket=") and os.path.isdir(bdir)):
            continue
        src = os.path.join(bdir, "part=0000")
        pf = [f for f in os.listdir(src) if f.endswith(".parquet")]
        if not pf:
            continue
        pq.write_table(pq.read_table(os.path.join(src, pf[0])), os.path.join(bdir, "part-0.parquet"))
        with open(os.path.join(bdir, "_manifest.json"), "w") as f:
            f.write("{}")
        planted += 1
    assert planted
    # a rebuild sweeps them and restores exact results
    build_vector_index(nodes, idx, "name_embedding", "uuid", n_planes=2, fingerprint="t2")
    for d in sorted(os.listdir(idx)):
        bdir = os.path.join(idx, d)
        if d.startswith("bucket=") and os.path.isdir(bdir):
            assert "part-0.parquet" not in os.listdir(bdir)
            assert "_manifest.json" not in os.listdir(bdir)
    after = query_vector_index(idx, q, k=5, probe_hamming=2, min_score=0.0)
    assert list(after["uuid"]) == list(clean["uuid"])
    assert list(after["score"]) == list(clean["score"])


def _parity_cases(store):
    """(label, query, config, kwargs) for every recipe the fixture store
    supports, searched within one group, plus filters, a zero-hit query and
    an unknown group."""
    import dataclasses

    from graphiti_hf_ray.search.hybrid import (
        ALL_RECIPES, EDGE_HYBRID_SEARCH_RRF, NODE_HYBRID_SEARCH_RRF,
    )

    edges = _edges_df(store)
    center = sorted(edges["source_uuid"])[0]
    t0 = edges.loc[edges["name"] == "IS_CEO_OF", "valid_at"].median()
    cases = []
    for name, cfg in ALL_RECIPES.items():
        kwargs = {"group_ids": ["g1"]}
        if "NODE_DISTANCE" in name or "BFS" in name or "WEIGHTED" in name:
            kwargs["center_node_uuid"] = center
        cases.append((name, "Ada Lovelace works at Acme", cfg, kwargs))
    edge_filter = SearchFilters(
        edge_types=["IS_CEO_OF"],
        valid_at=[[DateFilter(ComparisonOperator.greater_than_equal, t0)]],
    )
    wide = dataclasses.replace(EDGE_HYBRID_SEARCH_RRF, limit=40)
    cases += [
        ("edge filter", "CEO of Acme", wide, {"search_filter": edge_filter}),
        ("node labels", "Ada Lovelace", NODE_HYBRID_SEARCH_RRF,
         {"search_filter": SearchFilters(node_labels=["Person"])}),
        ("no label hit", "Ada Lovelace", NODE_HYBRID_SEARCH_RRF,
         {"search_filter": SearchFilters(node_labels=["NoSuchLabel"])}),
        ("zero hits", "zzqx unmatched", COMBINED_HYBRID_SEARCH_RRF, {}),
        ("unknown group", "Ada Lovelace works at Acme", COMBINED_HYBRID_SEARCH_RRF,
         {"group_ids": ["nosuchgroup"]}),
    ]
    return cases


def test_search_driver_placement_matches_ray(ray_session, store, monkeypatch):
    """A table whose searched columns fit in SEARCH_DRIVER_MAX_BYTES is
    searched on the driver; the results equal the Ray placement's for every
    recipe and filter case."""
    from graphiti_hf_ray.search import hybrid

    cases = _parity_cases(store)
    driver = [search(store, q, cfg, **kw) for _, q, cfg, kw in cases]
    monkeypatch.setattr(hybrid, "SEARCH_DRIVER_MAX_BYTES", 0)
    for (label, q, cfg, kw), d in zip(cases, driver):
        r = search(store, q, cfg, **kw)
        # the fixture store has no communities table: community-only
        # recipes search nothing and record no route
        assert d.routes.keys() == r.routes.keys(), label
        assert d.routes or not (cfg.edge_config or cfg.node_config or cfg.episode_config), label
        for table, route in d.routes.items():
            assert route["route"] == "driver" and r.routes[table]["route"] == "ray", label
            assert (route["rows"], route["bytes"]) == (r.routes[table]["rows"], r.routes[table]["bytes"]), label
            assert list(getattr(d, table)["uuid"]) == list(getattr(r, table)["uuid"]), (label, table)
    hits = {label: len(d.edges) + len(d.nodes) for (label, *_), d in zip(cases, driver)}
    assert hits["edge filter"] and hits["node labels"] and hits["EDGE_HYBRID_SEARCH_RRF"]
    assert not hits["zero hits"] and not hits["unknown group"] and not hits["no label hit"]


def test_topk_kernels_table_matches_dataset(ray_session):
    """bm25_topk / cosine_topk over a pa.Table equal the same call over the
    table as a several-block Ray Dataset, ties (score desc, id asc) cut by
    k included."""
    import pyarrow as pa
    import ray.data as rd

    texts = ["acme works", "acme", "works at acme acme", "nothing here", "acme works"] * 6
    ids = [f"u{(i * 7) % 30:02d}" for i in range(30)]
    rng = np.random.default_rng(0)
    base = rng.normal(size=(3, 8)).astype(np.float32)
    emb = np.stack([base[i % 3] for i in range(30)])
    t = pa.table({
        "uuid": ids,
        "fact": texts,
        "emb": pa.FixedSizeListArray.from_arrays(pa.array(emb.ravel()), 8),
    })
    ds = rd.from_arrow([t.slice(0, 7), t.slice(7, 11), t.slice(18, 12)])
    for k in (1, 4, 7, 30):
        a = bm25_topk(t, "acme works", text_col="fact", id_col="uuid", k=k)
        b = bm25_topk(ds, "acme works", text_col="fact", id_col="uuid", k=k)
        pd.testing.assert_frame_equal(a, b)
        assert len(a) == min(k, 24) and a["score"].is_monotonic_decreasing
        for _, grp in a.groupby("score"):
            assert list(grp["uuid"]) == sorted(grp["uuid"])
        c = cosine_topk(t, base[0], emb_col="emb", id_col="uuid", k=k, min_score=-1.0)
        d = cosine_topk(ds, base[0], emb_col="emb", id_col="uuid", k=k, min_score=-1.0)
        pd.testing.assert_frame_equal(c, d)
        # the ten rows embedded as base[0] tie at cosine 1.0
        assert list(c["uuid"][: min(k, 10)]) == sorted(ids[0::3])[: min(k, 10)]
    for data in (t.slice(0, 0), t, ds):
        e = bm25_topk(data, "zzqx", text_col="fact", id_col="uuid", k=5)
        assert list(e.columns) == ["uuid", "score"] and e.empty
    e = cosine_topk(t.slice(0, 0), base[0], emb_col="emb", id_col="uuid", k=5)
    assert list(e.columns) == ["uuid", "score"] and e.empty


def test_search_under_gate_starts_no_ray_job(ray_session, store, monkeypatch):
    """Search, fact fetch, entity-edge lookup and latest episodes under the
    gate read on the driver: no Ray Data read starts."""
    import ray.data

    from graphiti_hf_ray import io as gio
    from graphiti_hf_ray.serve import GraphService

    edges = _edges_df(store)
    uuid = edges.loc[edges["group_id"] == "g1", "uuid"].iloc[0]
    svc = GraphService(store.out_dir)
    want = svc.search("Ada Lovelace works at Acme", group_ids=["g1"])

    def boom(*a, **kw):
        raise AssertionError("a Ray Data read started under the gate")

    monkeypatch.setattr(ray.data, "read_parquet", boom)
    got = svc.search("Ada Lovelace works at Acme", group_ids=["g1"])
    assert got == want and got["facts"]
    assert svc.get_entity_edge(uuid)["uuid"] == uuid
    eps = svc.get_episodes("g1", 3)
    all_eps = gio.read_table_dir(store.out_dir, "episodes").to_pandas()
    exp = all_eps[all_eps["group_id"] == "g1"].sort_values(["valid_at", "uuid"], ascending=False)
    assert [e["uuid"] for e in eps] == list(exp["uuid"][:3])


def test_search_routes_record_placement_rows_and_bytes(ray_session, store, monkeypatch):
    """SearchResults.routes names each table's placement, its footer row
    count and the footer bytes of the searched columns only; the bytes pick
    the placement."""
    from graphiti_hf_ray.search import hybrid

    from graphiti_hf_ray import io as gio

    n_edges = len(_edges_df(store))
    n_nodes = gio.read_table_dir(store.out_dir, "nodes").num_rows
    res = search(store, "Ada Lovelace", COMBINED_HYBRID_SEARCH_RRF)
    edges, nodes = res.routes["edges"], res.routes["nodes"]
    assert (edges["route"], edges["rows"]) == ("driver", n_edges)
    assert (nodes["route"], nodes["rows"]) == ("driver", n_nodes)
    assert set(res.routes) >= {"edges", "nodes", "episodes"}
    # edges carries columns the search does not read (source_uuid, name, ...)
    assert 0 < edges["bytes"] < store.route("edges")["bytes"]
    monkeypatch.setattr(hybrid, "SEARCH_DRIVER_MAX_BYTES", edges["bytes"] - 1)
    res = search(store, "Ada Lovelace", COMBINED_HYBRID_SEARCH_RRF)
    assert res.routes["edges"] == {**edges, "route": "ray"}
