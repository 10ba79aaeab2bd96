"""Training-data ops: dedup family, knn, communities, validation,
multimodal plumbing — unit + small-Ray tests with pandas/duckdb oracles."""

from __future__ import annotations

import json

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from graphiti_hf_ray.functions.dedup import (
    minhash_lsh_candidates,
    minhash_signature,
    simhash64,
    simhash_pairs,
    _token_hashes,
)
from graphiti_hf_ray.functions.knn import knn_brute, knn_ivf
from graphiti_hf_ray.functions.multimodal import DecodeImage, extract_media_features, fake_decode_features
from graphiti_hf_ray.stages.communities import build_community_tables, detect_communities
from graphiti_hf_ray.stages.validate import validate_edges, validation_metrics


def test_minhash_estimates_jaccard():
    a = "the quick brown fox jumps over the lazy dog and runs far away today"
    b = "the quick brown fox jumps over the lazy dog and runs far away tonight"
    sa, sb = minhash_signature(a), minhash_signature(b)
    est = float((sa == sb).mean())
    ha, hb = set(_token_hashes(a).tolist()), set(_token_hashes(b).tolist())
    true_j = len(ha & hb) / len(ha | hb)
    assert abs(est - true_j) < 0.25
    # identical text → identical signature
    assert (minhash_signature(a) == sa).all()


def test_minhash_lsh_finds_near_dups(ray_session):
    rows = []
    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa " * 3
    for i in range(20):
        rows.append({"doc_id": i, "text": f"unique text number {i} " + " ".join(f"w{i}{j}" for j in range(30))})
    rows.append({"doc_id": 100, "text": base})
    rows.append({"doc_id": 101, "text": base + " extra"})
    ds = rd.from_pandas(pd.DataFrame(rows))
    pairs = minhash_lsh_candidates(ds, jaccard_threshold=0.7, n_bands=16).to_pandas()
    assert (100, 101) in set(zip(pairs["doc_a"], pairs["doc_b"]))
    # the shuffle-join verification path (forced by zeroing the broadcast
    # gate) returns the identical verified pair set
    joined = minhash_lsh_candidates(ds, jaccard_threshold=0.5, broadcast_max_pairs=0).to_pandas()
    assert set(zip(joined["doc_a"], joined["doc_b"])) == set(zip(pairs["doc_a"], pairs["doc_b"]))
    assert dict(zip(zip(joined["doc_a"], joined["doc_b"]), joined["jaccard"])) == dict(
        zip(zip(pairs["doc_a"], pairs["doc_b"]), pairs["jaccard"])
    )


def test_dsir_resample(ray_session):
    """DSIR importance resampling: the distributed raw-counts pass equals
    the driver counter exactly; selection keeps exactly k docs and pulls
    toward the target's n-gram distribution; reruns are deterministic;
    k ≥ n keeps everything; bad inputs refuse."""
    import numpy as np

    from graphiti_hf_ray.functions.quality import (
        driver_bucket_counts,
        dsir_resample,
        hashed_bucket_counts,
    )

    rng = np.random.default_rng(11)
    sci = [f"sci{i}" for i in range(40)]
    junk = [f"sp{i}" for i in range(40)]
    target = [" ".join(rng.choice(sci, 30)) for _ in range(10)]
    texts = [" ".join(rng.choice(sci, 30)) for _ in range(15)] + [
        " ".join(rng.choice(junk, 30)) for _ in range(15)
    ]
    docs = rd.from_pandas(
        pd.DataFrame({"doc_id": np.arange(30, dtype=np.int64), "text": texts})
    )

    # distributed == driver bucket counts (exact parity)
    assert (hashed_bucket_counts(docs) == driver_bucket_counts(texts)).all()

    m: dict = {}
    kept = dsir_resample(docs, target, 8, seed=1, metrics_out=m).to_pandas()
    assert len(kept) == 8 and m["dsir_selected"] == 8
    assert (kept["doc_id"] < 15).all()  # every winner is target-like
    assert set(kept.columns) == {"doc_id", "text"}  # schema preserved

    # deterministic per seed
    kept2 = dsir_resample(docs, target, 8, seed=1).to_pandas()
    assert sorted(kept2["doc_id"]) == sorted(kept["doc_id"])

    # k >= n keeps everything
    assert dsir_resample(docs, target, 1000).count() == 30

    with pytest.raises(ValueError, match="positive"):
        dsir_resample(docs, target, 0)
    with pytest.raises(ValueError, match="non-empty"):
        dsir_resample(docs, [], 5)


def test_minhash_state_and_cross_dedup(ray_session):
    """Cross-run near-dup screen: ``add_minhash_cols`` packs the exact
    ``minhash_signature`` bytes; ``minhash_state_rows`` is one row per
    distinct text; ``fuzzy_cross_dedup_rows`` drops batch rows whose
    ESTIMATED Jaccard vs any state doc clears the threshold and keeps the
    rest; hot-key caps are counted and the key-broadcast gate refuses
    oversized batches."""
    from graphiti_hf_ray.functions.dedup import (
        add_minhash_cols,
        fuzzy_cross_dedup_rows,
        minhash_state_rows,
    )

    text0 = " ".join(f"tok{i}" for i in range(80))
    t = pa.table({"doc_id": pa.array([1], pa.int64()), "text": [text0]})
    out = add_minhash_cols(t)
    sig = np.frombuffer(out.column("sig")[0].as_py(), "<u8")
    assert (sig == minhash_signature(text0)).all()

    # state: text0 (+ an exact duplicate that must collapse) and two others
    state_docs = rd.from_pandas(
        pd.DataFrame(
            {"text": [text0, text0, " ".join(f"u{i}" for i in range(80)), "small doc"]}
        )
    )
    state = minhash_state_rows(state_docs).materialize()
    assert state.count() == 3
    assert set(state.schema().names) == {"fp", "band_keys", "sig"}

    near = " ".join(f"tok{i}" for i in range(79)) + " changed"  # J≈0.94 vs text0
    novel = " ".join(f"z{i}" for i in range(80))
    batch = rd.from_pandas(
        pd.DataFrame({"doc_id": np.array([7, 8], dtype=np.int64), "text": [near, novel]})
    ).map_batches(lambda b: add_minhash_cols(b), batch_format="pyarrow").materialize()

    m: dict = {}
    kept = fuzzy_cross_dedup_rows(batch, state, 0.7, metrics_out=m).to_pandas()
    assert list(kept["doc_id"]) == [8]
    assert m == {"cross_fuzzy_dropped_docs": 1, "cross_minhash_capped_docs": 0}

    # estimate ~ exact Jaccard on the dropped pair (deterministic perms)
    ha, hb = set(_token_hashes(text0).tolist()), set(_token_hashes(near).tolist())
    true_j = len(ha & hb) / len(ha | hb)
    est = float((minhash_signature(text0) == minhash_signature(near)).mean())
    assert abs(est - true_j) < 0.2 and est >= 0.7

    # hot-key cap: 3 mutually-near state docs behind max_key_docs=1 → counted
    near2 = " ".join(f"tok{i}" for i in range(78)) + " x y"
    state_hot = minhash_state_rows(
        rd.from_pandas(pd.DataFrame({"text": [text0, near, near2]}))
    ).materialize()
    m2: dict = {}
    fuzzy_cross_dedup_rows(
        batch, state_hot, 0.7, max_key_docs=1, metrics_out=m2
    ).materialize()
    assert m2["cross_minhash_capped_docs"] > 0

    # exact count: three state docs share ONE band key with batch doc 7 and
    # no other key with the batch, so max_key_docs=1 leaves 2 of them out
    rows = batch.to_pandas().set_index("doc_id")
    key7 = np.frombuffer(rows.loc[7, "band_keys"], "<i8")
    rng = np.random.default_rng(0)
    hot_keys = []
    for _ in range(3):
        k = rng.integers(1, 2**62, key7.size, dtype=np.int64)
        k[0] = key7[0]
        hot_keys.append(k.tobytes())
    state_one = rd.from_pandas(
        pd.DataFrame({"fp": ["a", "b", "c"], "band_keys": hot_keys, "sig": [rows.loc[8, "sig"]] * 3})
    )
    m3: dict = {}
    fuzzy_cross_dedup_rows(
        batch, state_one, 0.7, max_key_docs=1, metrics_out=m3
    ).materialize()
    assert m3["cross_minhash_capped_docs"] == 2

    # oversized batch refuses the broadcast (the operational gate)
    with pytest.raises(ValueError, match="smaller batches"):
        fuzzy_cross_dedup_rows(batch, state, 0.7, broadcast_max_keys=1)


def test_simhash_near_dup():
    a = "one two three four five six seven eight nine ten " * 5
    b = a + "eleven"
    d = bin(simhash64(a) ^ simhash64(b)).count("1")
    assert d <= 10
    c = " ".join(f"z{i}" for i in range(60))
    assert bin(simhash64(a) ^ simhash64(c)).count("1") > 10


def test_simhash_pairs_ray(ray_session):
    a = "one two three four five six seven eight nine ten " * 5
    df = pd.DataFrame(
        {"doc_id": [1, 2, 3], "text": [a, a + " eleven", " ".join(f"z{i}" for i in range(60))]}
    )
    pairs = simhash_pairs(rd.from_pandas(df), max_hamming=10).to_pandas()
    assert set(zip(pairs["doc_a"], pairs["doc_b"])) == {(1, 2)}


def test_embedding_neardup_exact_matches_bruteforce(ray_session, sf_small):
    """Distributed block-pair all-pairs == driver-side numpy brute force."""
    import pyarrow.parquet as pq

    from graphiti_hf_ray.functions.dedup import embedding_neardup

    t = pq.read_table(f"{sf_small}/embeddings.parquet")
    ids = np.asarray(t.column("vec_id").to_pylist(), np.int64)
    m = np.stack([np.asarray(v, np.float64) for v in t.column("embedding").to_pylist()])
    m = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
    sims = m @ m.T
    ia, ib = np.where((sims >= 0.4) & (ids[:, None] < ids[None, :]))
    expected = set(zip(ids[ia].tolist(), ids[ib].tolist()))

    emb = rd.read_parquet(f"{sf_small}/embeddings.parquet", columns=["vec_id", "embedding"])
    out = embedding_neardup(emb, threshold=0.4, n_parts=3).to_pandas()
    got = set(zip(out["vec_a"], out["vec_b"]))
    assert got == expected
    assert len(out) == len(out.drop_duplicates(["vec_a", "vec_b"]))  # scored once


def test_semantic_dedup_rows(ray_session, sf_small):
    """SemDeDup composition: survivors = min vec_id per connected
    component of the exact cosine ≥ t pair graph, doc schema intact."""
    import pyarrow.parquet as pq

    from graphiti_hf_ray.functions.dedup import semantic_dedup_rows
    from graphiti_hf_ray.stages.canonicalize import components_driver

    t = pq.read_table(f"{sf_small}/embeddings.parquet")
    ids = np.asarray(t.column("vec_id").to_pylist(), np.int64)
    m = np.stack([np.asarray(v, np.float64) for v in t.column("embedding").to_pylist()])
    m = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
    sims = m @ m.T
    ia, ib = np.where((sims >= 0.4) & (ids[:, None] < ids[None, :]))
    comp = components_driver(
        (f"{a:020d}", f"{b:020d}") for a, b in zip(ids[ia].tolist(), ids[ib].tolist())
    )
    losers = {int(k) for k, v in comp.items() if k != v}
    assert losers  # fixture must exercise removal

    docs = pd.DataFrame({"doc_id": ids, "payload": [f"p{i}" for i in ids]})
    emb = rd.read_parquet(f"{sf_small}/embeddings.parquet", columns=["vec_id", "embedding"])
    mo: dict = {}
    got = (
        semantic_dedup_rows(rd.from_pandas(docs), emb, 0.4, n_parts=3, metrics_out=mo)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    expect = docs[~docs["doc_id"].isin(losers)].sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, expect)
    assert mo["semantic_dropped_docs"] == len(losers)


def test_embedding_neardup_lsh_subset_of_exact(ray_session, sf_small):
    """The approximate LSH path returns a subset of the exact pairs and
    keeps the highest-similarity ones (same-bucket near-identicals)."""
    from graphiti_hf_ray.functions.dedup import embedding_neardup, embedding_neardup_lsh

    emb = rd.read_parquet(f"{sf_small}/embeddings.parquet", columns=["vec_id", "embedding"])
    exact = embedding_neardup(emb, threshold=0.4).to_pandas()
    approx = embedding_neardup_lsh(emb, threshold=0.4).to_pandas()
    e = set(zip(exact["vec_a"], exact["vec_b"]))
    a = set(zip(approx["vec_a"], approx["vec_b"]))
    assert a <= e
    # recall < 1 by design (a hyperplane can split even a cos-0.9 pair),
    # but the deterministic planes recall a stable non-trivial fraction
    # theory at cos>=0.4: same-bucket prob = (1 - θ/π)^4 ≈ 0.16
    assert len(a) >= max(1, len(e) // 10)


def test_knn_multi_matches_single(ray_session, sf_small):
    """Batched multi-query top-k == per-query brute force; corpus streams
    once for all queries."""
    import pyarrow.parquet as pq

    from graphiti_hf_ray.functions.knn import knn_brute, knn_brute_multi

    t = pq.read_table(f"{sf_small}/embeddings.parquet")
    Q = np.stack([np.asarray(v, np.float64) for v in t.column("embedding").to_pylist()[:3]])
    emb = rd.read_parquet(f"{sf_small}/embeddings.parquet", columns=["vec_id", "embedding"])
    multi = knn_brute_multi(emb, Q, k=5)
    assert len(multi) == 15
    for qi in range(3):
        single = knn_brute(emb, Q[qi], k=5)
        part = multi[multi["query_idx"] == qi]
        assert list(part["vec_id"]) == list(single["vec_id"])


def test_knn_ivf_recall_vs_brute(ray_session, sf_small):
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_small}/embeddings.parquet")
    q = np.asarray(t.column("embedding").to_pylist()[0], np.float64)
    emb = rd.read_parquet(f"{sf_small}/embeddings.parquet", columns=["vec_id", "embedding"])
    brute = set(knn_brute(emb, q, k=10)["vec_id"])
    approx = set(knn_ivf(emb, q, k=10)["vec_id"])
    assert len(brute & approx) >= 5  # bucketed ANN recall on the probe set


def test_communities_match_networkx_style_oracle(ray_session):
    edges = pd.DataFrame(
        {
            "group_id": ["g0"] * 4,
            "source_uuid": ["a", "b", "x", "y"],
            "target_uuid": ["b", "c", "y", "z"],
            "source_name": ["A", "B", "X", "Y"],
            "target_name": ["B", "C", "Y", "Z"],
        }
    )
    m = detect_communities(rd.from_pandas(edges)).to_pandas()
    comp = m.groupby("community_uuid")["member_uuid"].apply(lambda s: tuple(sorted(s)))
    assert set(comp) == {("a", "b", "c"), ("x", "y", "z")}
    communities, hm = build_community_tables(m, 0)
    assert communities.num_rows == 2
    assert hm.num_rows == 6


def _edges_frame(pairs, gid="g0"):
    return pd.DataFrame(
        {
            "group_id": [gid] * len(pairs),
            "source_uuid": [a for a, _ in pairs],
            "target_uuid": [b for _, b in pairs],
            "source_name": [a.upper() for a, _ in pairs],
            "target_name": [b.upper() for _, b in pairs],
        }
    )


def test_weighted_label_propagation_splits_bridged_cliques(ray_session):
    """Two dense cliques joined by one weak bridge: components → ONE
    community; weighted label propagation → the cliques keep separate
    labels (plurality of strongly-connected neighbours wins over the
    single bridge edge)."""
    clique1 = [("a1", "a2"), ("a1", "a3"), ("a2", "a3")] * 2  # doubled weight
    clique2 = [("z1", "z2"), ("z1", "z3"), ("z2", "z3")] * 2
    bridge = [("a3", "z1")]
    edges = rd.from_pandas(_edges_frame(clique1 + clique2 + bridge))
    comp = detect_communities(edges, algorithm="components").to_pandas()
    assert comp["community_uuid"].nunique() == 1
    lp = detect_communities(edges, algorithm="label_propagation").to_pandas()
    by_comm = lp.groupby("community_uuid")["member_uuid"].apply(lambda s: tuple(sorted(s)))
    assert len(by_comm) >= 2
    # the two cliques never merge across the bridge
    comm_of = dict(zip(lp["member_uuid"], lp["community_uuid"]))
    assert comm_of["a1"] == comm_of["a2"] == comm_of["a3"] or comm_of["a1"] == comm_of["a2"]
    assert comm_of["a1"] != comm_of["z2"]
    # min_cluster_size filter drops small communities
    filtered = detect_communities(edges, algorithm="label_propagation", min_cluster_size=3).to_pandas()
    assert set(filtered.groupby("community_uuid")["member_uuid"].size()) <= {3, 4, 5, 6}


def test_community_algorithm_aliases(ray_session):
    edges = rd.from_pandas(_edges_frame([("a", "b"), ("b", "c")]))
    for alg in ("louvain", "kmeans", "hierarchical", "clique_percolation", "embedding_buckets"):
        m = detect_communities(edges, algorithm=alg).to_pandas()
        assert set(m["member_uuid"]) == {"a", "b", "c"}
    with pytest.raises(ValueError):
        detect_communities(edges, algorithm="nope")


def test_resolve_conflicts_all_strategies(ray_session):
    """TS7 strategies over one key with an overlap cluster of 3 plus one
    disjoint singleton."""
    from graphiti_hf_ray.functions.temporal import resolve_conflicts

    base = pd.Timestamp("2024-01-01")
    # key x: e1-e2 overlap; e3 is OPEN (null end = +inf) so e4 two hours
    # later still joins the cluster — one 4-row cluster. Key y: singleton.
    df = pd.DataFrame(
        {
            "k": ["x"] * 4 + ["y"],
            "uuid": ["e1", "e2", "e3", "e4", "e5"],
            "valid_at": [base, base + pd.Timedelta(minutes=5), base + pd.Timedelta(minutes=8),
                         base + pd.Timedelta(hours=2), base],
            "invalid_at": [base + pd.Timedelta(minutes=10), base + pd.Timedelta(minutes=20),
                           None, base + pd.Timedelta(hours=3), base + pd.Timedelta(minutes=1)],
        }
    )
    df["valid_at"] = df["valid_at"].astype("datetime64[us]")
    df["invalid_at"] = df["invalid_at"].astype("datetime64[us]")

    def run(strategy):
        out = resolve_conflicts(rd.from_pandas(df), ["k"], strategy=strategy).to_pandas()
        return dict(zip(out["uuid"], out["status"])), out

    s, _ = run("first_wins")
    assert s == {"e1": "kept", "e2": "invalidated", "e3": "invalidated", "e4": "invalidated", "e5": "kept"}
    s, _ = run("last_wins")
    assert s == {"e1": "invalidated", "e2": "invalidated", "e3": "invalidated", "e4": "kept", "e5": "kept"}
    s, _ = run("invalidate")
    assert s == {"e1": "invalidated", "e2": "invalidated", "e3": "invalidated", "e4": "invalidated", "e5": "kept"}
    s, _ = run("manual")
    assert s == {"e1": "flagged", "e2": "flagged", "e3": "flagged", "e4": "flagged", "e5": "kept"}
    s, out = run("merge")
    assert s == {"e1": "kept", "e2": "merged", "e3": "merged", "e4": "merged", "e5": "kept"}
    carrier = out[out["uuid"] == "e1"].iloc[0]
    assert carrier["valid_at"] == base
    assert pd.isna(carrier["invalid_at"])  # e3 is open → envelope open
    with pytest.raises(ValueError):
        resolve_conflicts(rd.from_pandas(df), ["k"], strategy="nope")


def test_asof_join_ties_and_strict(ray_session):
    from graphiti_hf_ray.functions.joins import asof_join

    left = pd.DataFrame(
        {
            "k": ["a", "a", "a", "b"],
            "lid": [1, 2, 3, 4],
            "ts": pd.to_datetime(["2024-01-01", "2024-01-02", "2024-01-03", "2024-01-01"]).astype("datetime64[us]"),
        }
    )
    right = pd.DataFrame(
        {
            "k": ["a", "a", "a"],
            "ts": pd.to_datetime(["2024-01-02", "2024-01-02", "2024-01-03"]).astype("datetime64[us]"),
            "rid": [10, 11, 12],
        }
    )
    out = asof_join(
        rd.from_pandas(left), rd.from_pandas(right), ["k"], "ts", "ts", ["rid"], tiebreak="rid"
    ).to_pandas().sort_values("lid")
    # lid=1: no right <= ts → null; lid=2: tie at 01-02 → max rid 11
    # (allow_equal); lid=3: rid 12; lid=4 (key b): null
    got = out.set_index("lid")["rid"]
    assert pd.isna(got[1]) and got[2] == 11 and got[3] == 12 and pd.isna(got[4])
    strict = asof_join(
        rd.from_pandas(left), rd.from_pandas(right), ["k"], "ts", "ts", ["rid"],
        tiebreak="rid", allow_equal=False,
    ).to_pandas().sort_values("lid").set_index("lid")["rid"]
    assert pd.isna(strict[1]) and pd.isna(strict[2]) and strict[3] == 11


def test_range_join_open_intervals(ray_session):
    """A later interval with an OPEN (null) end must win over an earlier
    closed one — the carry-forward fills row positions, not values."""
    from graphiti_hf_ray.functions.joins import range_join

    points = pd.DataFrame(
        {
            "k": ["a"] * 4,
            "pid": [1, 2, 3, 4],
            "ts": pd.to_datetime(["2024-01-01", "2024-01-04", "2024-01-07", "2023-12-25"]).astype("datetime64[us]"),
        }
    )
    iv = pd.DataFrame(
        {
            "k": ["a", "a"],
            "s": pd.to_datetime(["2024-01-01", "2024-01-05"]).astype("datetime64[us]"),
            "e": pd.to_datetime(["2024-01-03", None]).astype("datetime64[us]"),
            "vid": [100, 200],
        }
    )
    out = range_join(
        rd.from_pandas(points), rd.from_pandas(iv), ["k"], "ts", "s", "e", ["vid"], tiebreak="vid"
    ).to_pandas().sort_values("pid").set_index("pid")["vid"]
    assert out[1] == 100  # inside [01-01, 01-03)
    assert pd.isna(out[2])  # gap between intervals
    assert out[3] == 200  # inside the open interval
    assert pd.isna(out[4])  # before all intervals


def test_validation_rules(ray_session):
    df = pd.DataFrame(
        {
            "uuid": ["1", "2", "3"],
            "source_uuid": ["s", "", "s"],
            "target_uuid": ["t", "t", "t"],
            "name": ["REL", "REL", ""],
            "fact": ["ok", "ok", "ok"],
            "group_id": ["g0", "bad group!", "g0"],
            "valid_at": pd.to_datetime(["2024-01-02", "2024-01-01", "2024-01-01"]).astype("datetime64[us]"),
            "invalid_at": pd.to_datetime(["2024-01-01", None, None]).astype("datetime64[us]"),
        }
    )
    ds = rd.from_pandas(df)
    out = validate_edges(ds).to_pandas().sort_values("uuid")
    assert out["validation_errors"].tolist() == ["temporal_inverted", "missing_source,bad_group_id", "empty_name"]
    metrics = validation_metrics(ds)
    m = dict(zip(metrics["rule"], metrics["n_violations"]))
    assert m["temporal_inverted"] == 1 and m["missing_source"] == 1 and m["bad_group_id"] == 1


def test_multimodal_fake_decode_deterministic(ray_session):
    v1 = fake_decode_features(b"hello media")
    v2 = fake_decode_features(b"hello media")
    assert np.array_equal(v1, v2)
    assert abs(float(np.linalg.norm(v1)) - 1.0) < 1e-5
    media = pd.DataFrame(
        {
            "media_id": ["m1", "m2"],
            "payload": [b"aa" * 100, b"bb" * 200],
            "mime": ["image/png", "image/png"],
            "meta": ["{}", "{}"],
        }
    )
    out = extract_media_features(rd.from_pandas(media)).to_pandas()
    assert list(out["n_bytes"]) == [200, 400]
    assert out["features"].iloc[0] is not None


def test_multimodal_real_backend_gated():
    with pytest.raises(NotImplementedError):
        DecodeImage(backend="pil")


def test_pagerank_fixed_point(ray_session):
    """Integer fixed-point PageRank: the in-link hub outranks leaves, rank
    mass is conserved up to floor loss, and results are partition-stable
    (pure function of the group's edge set)."""
    from graphiti_hf_ray.functions.pagerank import SCALE, pagerank

    edges = pd.DataFrame(
        {
            "group_id": ["g0"] * 4,
            "source_uuid": ["a", "b", "c", "d"],
            "target_uuid": ["hub", "hub", "hub", "a"],
        }
    )
    out = pagerank(rd.from_pandas(edges)).to_pandas()
    pr = dict(zip(out["node"], out["pr"]))
    assert pr["hub"] == max(pr.values())
    assert pr["hub"] > pr["a"] > pr["b"] == pr["c"] == pr["d"]
    assert sum(pr.values()) <= SCALE  # floor-division only loses mass
    out2 = pagerank(rd.from_pandas(edges).repartition(3)).to_pandas()
    assert dict(zip(out2["node"], out2["pr"])) == pr


def test_winnow_shared_run_guarantee(ray_session):
    """Winnowing guarantee: two docs sharing a run of >= w + k - 1 tokens
    share at least one fingerprint; disjoint docs share none."""
    from graphiti_hf_ray.functions.textstats import winnow_fingerprints

    shared = "alpha beta gamma delta epsilon zeta eta theta"  # 8 = 5 + 4 - 1
    df = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": [
                "one two " + shared + " three four five six",
                "nine ten " + shared + " eleven twelve thirteen fourteen",
                " ".join(f"z{i}" for i in range(20)),
            ],
        }
    )
    out = winnow_fingerprints(rd.from_pandas(df), k=4, w=5).to_pandas()
    by_doc = {d: set(g["fp"]) for d, g in out.groupby("doc_id")}
    assert by_doc[1] & by_doc[2]
    assert not (by_doc[1] & by_doc[3])
    assert not (by_doc[2] & by_doc[3])


def test_hash_sample_deterministic_and_stratified(ray_session, sf_small):
    from graphiti_hf_ray.functions.sample import hash_sample, stratified_hash_sample

    ds = rd.read_parquet(f"{sf_small}/documents.parquet", columns=["doc_id", "lang"])
    a = hash_sample(ds, "doc_id", 0.2).to_pandas()
    b = hash_sample(ds, "doc_id", 0.2).to_pandas()
    assert set(a["doc_id"]) == set(b["doc_id"])  # rerun-stable
    assert 0.05 < len(a) / 500 < 0.4
    strat = stratified_hash_sample(ds, "doc_id", "lang", {"en": 1.0, "de": 0.0}).to_pandas()
    assert set(strat["lang"]) == {"en"}


def test_kmv_estimate_accuracy(ray_session):
    from graphiti_hf_ray.functions.sample import kmv_synopsis

    df = pd.DataFrame({"v": [f"item-{i % 700}" for i in range(5000)]})
    syn, est = kmv_synopsis(rd.from_pandas(df), "v", k=64)
    assert len(syn) == 64
    assert 0.6 < est / 700 < 1.6  # KMV estimator within expected error


def test_weighted_neardup_matches_bruteforce(ray_session):
    """D4 weighted scorer (0.6·Jaccard + 0.4·cosine >= thr) equals the
    all-pairs python reference, including the cosine-floor pruning path."""
    from graphiti_hf_ray.functions.dedup import weighted_neardup

    rng = np.random.default_rng(7)
    n, dim = 30, 8
    texts = []
    base = ["w%d" % i for i in range(12)]
    for i in range(n):
        toks = list(base)
        for j in range(i % 5):
            toks[j] = f"x{i}_{j}"
        texts.append(" ".join(toks))
    vecs = rng.normal(size=(n, dim))
    vecs[1] = vecs[0] + 0.01  # near-identical embedding pair
    docs = pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64), "text": texts})
    emb = pd.DataFrame({"vec_id": np.arange(n, dtype=np.int64), "embedding": [list(v) for v in vecs]})

    thr, wt, we = 0.7, 0.6, 0.4
    out = weighted_neardup(
        rd.from_pandas(docs), rd.from_pandas(emb), w_text=wt, w_emb=we, threshold=thr
    ).to_pandas()
    got = set(zip(out["doc_a"], out["doc_b"]))

    norm = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    want = set()
    for a in range(n):
        for b in range(a + 1, n):
            sa, sb = set(texts[a].split(" ")), set(texts[b].split(" "))
            j = len(sa & sb) / len(sa | sb)
            c = float(norm[a] @ norm[b])
            if wt * j + we * c >= thr:
                want.add((a, b))
    assert got == want and len(want) > 0


def test_typed_attribute_hydration(ray_session):
    """M4/M5: Person.location from latest MOVED_TO; WORKS_AT.start_date;
    existing attribute objects merged, non-Person rows untouched."""
    from graphiti_hf_ray.stages.attributes import (
        hydrate_edge_attributes,
        hydrate_node_attributes,
        typed_attribute_rows,
    )

    ts = pd.to_datetime(["2024-01-01", "2024-03-01", "2024-02-01"]).astype("datetime64[us]")
    edges = pd.DataFrame(
        {
            "uuid": ["e1", "e2", "e3"],
            "group_id": ["g0"] * 3,
            "source_uuid": ["p1", "p1", "p2"],
            "target_uuid": ["l1", "l2", "o1"],
            "name": ["MOVED_TO", "MOVED_TO", "WORKS_AT"],
            "valid_at": ts,
            "attributes": ["{}", "{}", '{"note": "kept"}'],
        }
    )
    nodes = pd.DataFrame(
        {
            "uuid": ["p1", "p2", "l1", "l2", "o1"],
            "name": ["Ada", "Bob", "Oslo", "Kyoto", "Acme"],
            "group_id": ["g0"] * 5,
            "labels": [["Person"], ["Person"], ["Place"], ["Place"], ["Organization"]],
            "attributes": ['{"age": 36}', "{}", "{}", "{}", "{}"],
        }
    )
    rows = typed_attribute_rows(rd.from_pandas(edges), rd.from_pandas(nodes)).to_pandas()
    by = {(r["kind"], r["uuid"], json.loads(r["attributes"]).popitem()[0]): r["attributes"] for _, r in rows.iterrows()}
    # p1's latest MOVED_TO is e2 (2024-03-01) → Kyoto
    assert by[("node", "p1", "location")] == '{"location": "Kyoto"}'
    assert by[("node", "p2", "employer")] == '{"employer": "Acme"}'
    assert by[("edge", "e3", "start_date")] == '{"start_date": "2024-02-01"}'
    assert ("node", "p2", "location") not in by  # no MOVED_TO → no location row

    hn = hydrate_node_attributes(rd.from_pandas(nodes), rd.from_pandas(edges)).to_pandas()
    m = dict(zip(hn["uuid"], hn["attributes"]))
    assert m["p1"] == '{"age": 36, "location": "Kyoto"}'  # merged, sorted keys
    assert m["p2"] == '{"employer": "Acme"}'
    assert m["o1"] == "{}"  # org has no FOUNDED/IS_CEO_OF edge → untouched
    he = hydrate_edge_attributes(rd.from_pandas(edges)).to_pandas()
    me = dict(zip(he["uuid"], he["attributes"]))
    assert me["e3"] == '{"note": "kept", "start_date": "2024-02-01"}'
    assert me["e1"] == "{}"  # MOVED_TO has no edge rule → untouched


def test_lsh_drop_metrics_counted(ray_session):
    """Cap drops surface as counted metrics, not just log lines, and the
    sentinel rows never leak into the pair output."""
    from graphiti_hf_ray.functions.dedup import DROP_METRICS, minhash_lsh_candidates

    # 12 identical docs share every band bucket; cap 8 drops 4 docs per
    # bucket: 8 MinHash bands → 32, 4 SimHash bands → 16
    docs = pd.DataFrame({"doc_id": np.arange(12, dtype=np.int64), "text": ["a b c d e f g h"] * 12})
    out = minhash_lsh_candidates(
        rd.from_pandas(docs), jaccard_threshold=0.5, max_bucket_docs=8
    ).to_pandas()
    assert DROP_METRICS["minhash_dropped_docs"] == 32
    assert (out["doc_a"] >= 0).all() and (out["doc_b"] >= 0).all()

    from graphiti_hf_ray.functions.dedup import simhash_pairs

    metrics: dict = {}
    out2 = simhash_pairs(rd.from_pandas(docs), max_bucket_docs=8, metrics_out=metrics).to_pandas()
    assert metrics["simhash_dropped_docs"] == 16
    assert (out2["doc_a"] >= 0).all()
    assert len(out2) == len(out2.drop_duplicates(["doc_a", "doc_b"])) == 28  # C(8, 2)


def test_bucket_pair_kernel_matches_bruteforce(ray_session):
    """SimHash (Hamming <= 3), 3-gram Jaccard and the LSH cosine path each
    equal a driver brute force, on a fixture whose near-copy cluster
    crowds one bucket while the other docs spread out. Rows arrive out of
    id order, so the in-bucket ascending-id rule is exercised too."""
    from graphiti_hf_ray.functions.dedup import embedding_neardup_lsh, ngram_jaccard_pairs
    from graphiti_hf_ray.functions.knn import sign_buckets
    from graphiti_hf_ray.functions.vectors import l2_normalize

    rng = np.random.default_rng(5)
    words = [f"w{i}" for i in range(400)]
    base = list(rng.choice(words, 200))
    texts = []
    for i in range(12):  # near-copies: one to four tokens swapped each
        toks = list(base)
        for k in range(1 + i % 4):
            toks[(7 * i + 31 * k) % 200] = f"x{i}_{k}"
        texts.append(" ".join(toks))
    texts += [" ".join(rng.choice(words, 200)) for _ in range(12)]
    ids = np.arange(0, 72, 3, dtype=np.int64)
    order = rng.permutation(len(ids))
    docs = rd.from_pandas(pd.DataFrame({"doc_id": ids[order], "text": [texts[i] for i in order]}))

    def pairs_where(pred) -> set:
        return {
            (int(ids[a]), int(ids[b]), pred(a, b))
            for a in range(len(ids)) for b in range(a + 1, len(ids))
            if pred(a, b) is not None
        }

    sh = [simhash64(x) for x in texts]

    def ham(a, b):
        d = bin(sh[a] ^ sh[b]).count("1")
        return d if d <= 3 else None

    expect = pairs_where(ham)
    got = simhash_pairs(docs, max_hamming=3).to_pandas()
    assert expect and set(zip(got["doc_a"], got["doc_b"], got["hamming"])) == expect
    assert len(got) == len(expect)

    grams = [set(_token_hashes(x, 3).tolist()) for x in texts]

    def jac(a, b):
        j = len(grams[a] & grams[b]) / len(grams[a] | grams[b])
        return float(np.round(j, 6)) if j >= 0.9 else None

    expect = pairs_where(jac)
    got = ngram_jaccard_pairs(docs, k=3, threshold=0.9).to_pandas()
    assert expect and set(zip(got["doc_a"], got["doc_b"], got["jaccard"])) == expect
    assert len(got) == len(expect)

    center = rng.normal(size=8)
    vecs = np.vstack([center + 0.05 * rng.normal(size=(12, 8)), rng.normal(size=(12, 8))])
    unit = l2_normalize(vecs)
    bucket = sign_buckets(unit, 4)
    sims = unit @ unit.T
    expect = {
        (int(ids[a]), int(ids[b]))
        for a in range(len(ids)) for b in range(a + 1, len(ids))
        if bucket[a] == bucket[b] and sims[a, b] >= 0.9
    }
    assert np.bincount(bucket).max() >= 12  # the crowded bucket
    emb = rd.from_pandas(pd.DataFrame({"vec_id": ids[order], "embedding": list(vecs[order])}))
    got = embedding_neardup_lsh(emb, threshold=0.9).to_pandas()
    assert expect and set(zip(got["vec_a"], got["vec_b"])) == expect
    assert len(got) == len(expect)
    pos = {int(v): i for i, v in enumerate(ids)}
    want = [sims[pos[a], pos[b]] for a, b in zip(got["vec_a"], got["vec_b"])]
    np.testing.assert_allclose(got["cosine"], want, atol=2e-6)


def test_asof_join_left_row_own_twin_tie(ray_session):
    """Documented tie rule: at equal (key, ts) the MAX-tiebreak right row
    wins, even when the left row is itself one of the tied right rows."""
    from graphiti_hf_ray.functions.joins import asof_join

    ts0 = pd.to_datetime(["2024-01-01"]).astype("datetime64[us]")[0]
    left = pd.DataFrame({"k": ["a"], "lid": [10], "ts": [ts0]})
    right = pd.DataFrame({"k": ["a", "a"], "ts": [ts0, ts0], "rid": [10, 99]})
    out = asof_join(
        rd.from_pandas(left), rd.from_pandas(right), ["k"], "ts", "ts", ["rid"], tiebreak="rid"
    ).to_pandas()
    assert out["rid"].iloc[0] == 99  # not its own twin (10)


def test_list_branches_skips_partial_tmp(ray_session, tmp_path):
    """A crash mid-create leaves '<name>.tmp-branch' — it must not be
    listed as a real branch."""
    import json as _json
    import os

    from graphiti_hf_ray import io as gio

    broot = tmp_path / gio.BRANCHES_DIR
    good = broot / "v1"
    good.mkdir(parents=True)
    (good / "_branch.json").write_text(_json.dumps({"name": "v1"}))
    partial = broot / "v2.tmp-branch"
    partial.mkdir()
    (partial / "_branch.json").write_text(_json.dumps({"name": "v2"}))
    assert [b["name"] for b in gio.list_branches(str(tmp_path))] == ["v1"]


def test_tree_reduce_summary_structure():
    """A6: the pairwise reduce follows the reference's exact order — odd
    element parked, halves zipped, parked element appended next round."""
    from graphiti_hf_ray.stages.communities import build_community_tables, tree_reduce_summaries

    calls = []

    def rec(a, b):
        calls.append((a, b))
        return f"({a}+{b})"

    out = tree_reduce_summaries(["s1", "s2", "s3", "s4", "s5"], rec)
    # round 1: 5 is odd → park s5; zip [s1,s2] with [s3,s4]
    # round 2: [ (s1+s3), (s2+s4), s5 ] → park s5; zip single pair
    # round 3: [ ((s1+s3)+(s2+s4)), s5 ] → final pair
    assert calls == [
        ("s1", "s3"), ("s2", "s4"),
        ("(s1+s3)", "(s2+s4)"),
        ("((s1+s3)+(s2+s4))", "s5"),
    ]
    assert out == "(((s1+s3)+(s2+s4))+s5)"
    assert tree_reduce_summaries([]) == "" and tree_reduce_summaries(["only"]) == "only"

    # member_summary column feeds the tree; the injectable summarizer slot
    # receives the leaf summaries, not names
    m = pd.DataFrame(
        {
            "group_id": ["g0"] * 3,
            "community_uuid": ["c1"] * 3,
            "member_uuid": ["a", "b", "c"],
            "member_name": ["A", "B", "C"],
            "member_summary": ["Person entity: A", "Person entity: B", "Person entity: C"],
        }
    )
    communities, _ = build_community_tables(m, 0, summarize_pair=rec)
    summ = communities.column("summary").to_pylist()[0]
    assert summ == "Community of 3 entities: ((Person entity: A+Person entity: B)+Person entity: C)"


def test_pagerank_distributed_bit_identical(ray_session):
    """Whole-corpus PageRank (bucketed iterative shuffles, no per-group
    materialization) is BIT-identical to the per-group path — the
    fixed-point arithmetic is order-free by construction."""
    from graphiti_hf_ray.functions.pagerank import pagerank, pagerank_distributed

    rng = np.random.default_rng(11)
    n_nodes, n_edges = 60, 400
    src = rng.integers(0, n_nodes, n_edges)
    dst = rng.integers(0, n_nodes, n_edges)
    keep = src != dst
    df = pd.DataFrame(
        {
            "group_id": np.where(src[keep] % 2 == 0, "g0", "g1"),
            "source_uuid": [f"n{s}" for s in src[keep]],
            "target_uuid": [f"n{d}" for d in dst[keep]],
        }
    )
    ds = rd.from_pandas(df)
    a = pagerank(ds, n_iters=3).to_pandas().sort_values(["group_id", "node"]).reset_index(drop=True)
    b = (
        pagerank_distributed(ds, n_iters=3, num_buckets=8)
        .to_pandas()
        .sort_values(["group_id", "node"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b[["group_id", "node", "pr"]], check_dtype=False)
    assert (a["pr"] == b["pr"]).all()


def test_pii_scrub_actor_stage(ray_session):
    from graphiti_hf_ray.functions.textclean import PiiScrub

    df = pd.DataFrame(
        {
            "doc_id": [1, 2],
            "text": [
                "mail me at jane.doe@example.com or call +1 (555) 123-4567 now",
                "server 192.168.10.1 card 4111111111111111 clean text",
            ],
        }
    )
    out = (
        rd.from_pandas(df)
        .map_batches(PiiScrub, batch_format="pyarrow", concurrency=1)
        .to_pandas()
        .sort_values("doc_id")
    )
    assert "<EMAIL>" in out["text"].iloc[0] and "<PHONE>" in out["text"].iloc[0]
    assert "jane.doe" not in out["text"].iloc[0]
    assert "<IPV4>" in out["text"].iloc[1] and "<DIGIT_RUN>" in out["text"].iloc[1]
    assert out["n_pii_email"].tolist() == [1, 0]
    assert out["n_pii_ipv4"].tolist() == [0, 1]


def test_paragraph_dedup_and_boilerplate(ray_session):
    from graphiti_hf_ray.functions.textclean import (
        dedup_paragraphs_batch,
        remove_boilerplate_lines,
    )

    # within-doc paragraph dedup: repeated paragraph dropped, order kept
    t = pa.table({"doc_id": [1], "text": ["alpha\nbeta\nalpha\ngamma"]})
    out = dedup_paragraphs_batch(t)
    assert out.column("text").to_pylist() == ["alpha\nbeta\ngamma"]
    assert out.column("n_dropped_paragraphs").to_pylist() == [1]

    # corpus boilerplate: the cookie banner appears in every doc, unique
    # content lines survive
    docs = pd.DataFrame(
        {
            "doc_id": list(range(10)),
            "text": [f"accept cookies to continue\nunique content {i}" for i in range(10)],
        }
    )
    cleaned = (
        remove_boilerplate_lines(rd.from_pandas(docs), min_doc_frac=0.5)
        .to_pandas()
        .sort_values("doc_id")
    )
    assert all(t == f"unique content {i}" for i, t in enumerate(cleaned["text"]))
    assert (cleaned["n_dropped_lines"] == 1).all()


def test_cap_per_domain(ray_session):
    from graphiti_hf_ray.functions.textclean import cap_per_domain, host_of

    assert host_of("https://user@Sub.Example.com:8080/path") == "sub.example.com"
    df = pd.DataFrame(
        {
            "doc_id": list(range(20)),
            "url": [f"https://hub.example/{i}" for i in range(15)]
            + [f"https://tail{i}.example/x" for i in range(5)],
        }
    )
    out = cap_per_domain(rd.from_pandas(df), cap=3).to_pandas()
    hub = out[out["url"].str.startswith("https://hub")]
    assert len(hub) == 3 and sorted(hub["doc_id"]) == [0, 1, 2]  # smallest ids win
    assert len(out) == 3 + 5  # tail domains untouched


def test_multimodal_frames_and_audio(ray_session):
    """Video-frame explode + audio feature stages: real Ray plumbing
    (actor pool, row multiplication, schema), gated real backends."""
    from graphiti_hf_ray.functions.multimodal import (
        DecodeAudio,
        SampleFrames,
        extract_media_features,
        sample_video_frames,
    )

    payloads = [bytes(range(256)) * 400, b"tiny"]
    media = rd.from_arrow(
        pa.table(
            {
                "media_id": pa.array(["v0", "v1"], pa.string()),
                "payload": pa.array(payloads, pa.binary()),
                "mime": pa.array(["video/mp4"] * 2, pa.string()),
                "meta": pa.array(["{}"] * 2, pa.string()),
            }
        )
    )
    frames = sample_video_frames(media, every_n=10).to_pandas()
    assert (frames[frames["media_id"] == "v0"]["frame_idx"].values
            == np.arange((frames["media_id"] == "v0").sum())).all()
    assert len(frames[frames["media_id"] == "v1"]) == 1  # tiny payload → 1 frame
    # frame rows feed the image feature stage unchanged (schema contract)
    frame_ds = rd.from_arrow(pa.Table.from_pandas(frames, preserve_index=False))
    feats = extract_media_features(frame_ds, backend="fake").to_pandas()
    assert len(feats) == len(frames) and len(feats["features"].iloc[0]) == 64

    audio = DecodeAudio()(
        pa.table(
            {
                "media_id": pa.array(["a0", "a1"], pa.string()),
                "payload": pa.array([bytes(range(64)) * 32, b""], pa.binary()),
            }
        )
    )
    f0 = np.asarray(audio.column("audio_features").to_pylist()[0])
    assert f0.shape == (16,) and abs(float(np.linalg.norm(f0)) - 1.0) < 1e-5
    assert np.asarray(audio.column("audio_features").to_pylist()[1]).sum() == 0  # empty payload

    with pytest.raises(NotImplementedError):
        SampleFrames(backend="ffmpeg")
    with pytest.raises(NotImplementedError):
        DecodeAudio(backend="torchaudio")


def test_weighted_neardup_lsh_subset(ray_session, sf_small):
    """LSH candidate mode is a subset of the exact mode at identical
    parameters (recall < 1 by design, precision identical)."""
    from graphiti_hf_ray.functions.dedup import weighted_neardup

    docs = rd.read_parquet(f"{sf_small}/documents.parquet", columns=["doc_id", "text"])
    emb = rd.read_parquet(f"{sf_small}/embeddings.parquet", columns=["vec_id", "embedding"])
    exact = weighted_neardup(docs, emb, threshold=0.62).to_pandas()
    approx = weighted_neardup(docs, emb, threshold=0.62, candidates="lsh").to_pandas()
    e = set(zip(exact["doc_a"], exact["doc_b"]))
    a = set(zip(approx["doc_a"], approx["doc_b"]))
    assert a <= e and len(e) > 0


def test_lsh_exactness_precondition_holds_on_fixture(ray_session, sf_small):
    """The q19/q19b EXACT oracles assume no band bucket exceeds the cap;
    assert the driver fixture actually satisfies it (zero counted drops)."""
    from graphiti_hf_ray.functions.dedup import DROP_METRICS, minhash_lsh_candidates, simhash_pairs

    docs = rd.read_parquet(f"{sf_small}/documents.parquet", columns=["doc_id", "text"])
    minhash_lsh_candidates(docs, jaccard_threshold=0.3, n_bands=16).to_pandas()
    assert DROP_METRICS["minhash_dropped_docs"] == 0
    metrics: dict = {}
    simhash_pairs(docs, metrics_out=metrics).to_pandas()
    assert metrics["simhash_dropped_docs"] == 0


def test_typed_attributes_no_moved_to_edges(ray_session):
    """Hydration over a graph with zero MOVED_TO edges: no location rows;
    the WORKS_AT edge still yields employer + start_date; founded_by/ceo
    rules with no matching edges contribute nothing."""
    from graphiti_hf_ray.stages.attributes import hydrate_node_attributes, typed_attribute_rows

    edges = pd.DataFrame(
        {
            "uuid": ["e1"],
            "group_id": ["g0"],
            "source_uuid": ["p1"],
            "target_uuid": ["o1"],
            "name": ["WORKS_AT"],
            "valid_at": pd.to_datetime(["2024-05-05"]).astype("datetime64[us]"),
            "attributes": ["{}"],
        }
    )
    nodes = pd.DataFrame(
        {
            "uuid": ["p1", "o1"],
            "name": ["Ada", "Acme"],
            "group_id": ["g0", "g0"],
            "labels": [["Person"], ["Organization"]],
            "attributes": ["{}", "{}"],
        }
    )
    rows = typed_attribute_rows(rd.from_pandas(edges), rd.from_pandas(nodes)).to_pandas()
    got = set(zip(rows["kind"], rows["attributes"]))
    assert got == {
        ("edge", '{"start_date": "2024-05-05"}'),
        ("node", '{"employer": "Acme"}'),
    }
    hn = hydrate_node_attributes(rd.from_pandas(nodes), rd.from_pandas(edges)).to_pandas()
    m = dict(zip(hn["uuid"], hn["attributes"]))
    assert m == {"p1": '{"employer": "Acme"}', "o1": "{}"}


def test_hash_join_left_preserves_int_dtype(ray_session):
    """ADVICE r3: left-join null-fill in unmatched buckets upcast int64
    right columns to float64 — hash_join must restore the source Arrow
    types the same way asof_join does."""
    from graphiti_hf_ray.functions.joins import hash_join

    left = pd.DataFrame({"k": ["a", "b", "c"], "lv": np.array([1, 2, 3], np.int64)})
    right = pd.DataFrame({"k": ["a"], "rv": np.array([10], np.int64)})
    out = hash_join(
        rd.from_pandas(left), rd.from_pandas(right), "k", "k", how="left"
    )
    # matched row keeps its value; unmatched rows are NULL ints, not floats
    import ray as _ray

    blocks = [b for b in _ray.get(out.to_arrow_refs()) if b.num_rows]
    merged = pa.concat_tables(blocks)
    assert merged.schema.field("rv").type == pa.int64()
    assert merged.schema.field("lv").type == pa.int64()
    got = merged.to_pandas().sort_values("k")
    assert got["rv"].tolist()[0] == 10 and pd.isna(got["rv"].tolist()[1])


def test_weighted_neardup_text_only(ray_session):
    """ADVICE r3: w_emb=0 (text-only weighting) must not divide by zero —
    candidates come from the exact unigram-Jaccard generator and the output
    equals the all-pairs reference."""
    from graphiti_hf_ray.functions.dedup import weighted_neardup

    rng = np.random.default_rng(3)
    n = 20
    base = ["w%d" % i for i in range(10)]
    texts = []
    for i in range(n):
        toks = list(base)
        for j in range(i % 6):
            toks[j] = f"x{i}_{j}"
        texts.append(" ".join(toks))
    docs = pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64), "text": texts})
    emb = pd.DataFrame(
        {"vec_id": np.arange(n, dtype=np.int64), "embedding": [list(v) for v in rng.normal(size=(n, 4))]}
    )
    thr, wt = 0.5, 0.8
    out = weighted_neardup(
        rd.from_pandas(docs), rd.from_pandas(emb), w_text=wt, w_emb=0.0, threshold=thr
    ).to_pandas()
    got = set(zip(out["doc_a"], out["doc_b"]))
    want = set()
    for a in range(n):
        for b in range(a + 1, n):
            sa, sb = set(texts[a].split(" ")), set(texts[b].split(" "))
            if wt * (len(sa & sb) / len(sa | sb)) >= thr:
                want.add((a, b))
    assert got == want and len(want) > 0

    with pytest.raises(ValueError):
        weighted_neardup(rd.from_pandas(docs), rd.from_pandas(emb), w_text=0.0, w_emb=0.0)


def test_decode_audio_null_payload(ray_session):
    """ADVICE r3: a null binary payload row must not crash the md5/len
    comprehensions — it yields zero features and the empty-bytes hash."""
    import hashlib as _hl

    from graphiti_hf_ray.functions.multimodal import DecodeAudio

    batch = pa.table(
        {
            "media_id": pa.array([1, 2], pa.int64()),
            "payload": pa.array([b"\x01\x02\x03\x04", None], pa.binary()),
        }
    )
    out = DecodeAudio()(batch)
    assert out.num_rows == 2
    assert out.column("n_bytes").to_pylist() == [4, 0]
    assert out.column("payload_md5").to_pylist()[1] == _hl.md5(b"").hexdigest()


def test_minhash_metrics_out_caller_scoped(ray_session):
    """ADVICE r3: minhash drop counts go to a caller-scoped dict, matching
    simhash_pairs, instead of only the clobber-prone module global."""
    from graphiti_hf_ray.functions.dedup import minhash_lsh_candidates

    docs = pd.DataFrame({"doc_id": np.arange(12, dtype=np.int64), "text": ["a b c d e f g h"] * 12})
    metrics: dict = {}
    minhash_lsh_candidates(
        rd.from_pandas(docs), jaccard_threshold=0.5, max_bucket_docs=8, metrics_out=metrics
    ).to_pandas()
    # counts are per band bucket: identical docs collide in all 8 bands,
    # each dropping 4 of 12 docs
    assert metrics["minhash_dropped_docs"] == 32


def test_embedding_matrix_zero_copy_paths():
    """r3 VERDICT #3: Arrow list columns reshape from the flat child buffer
    for every equal-width shape (list, fixed_size_list, sliced, chunked);
    ragged input falls back to the row loop with identical output."""
    from graphiti_hf_ray.functions.vectors import embedding_matrix

    rows = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]
    want = np.asarray(rows, np.float64)

    lst = pa.array(rows, pa.list_(pa.float32()))
    np.testing.assert_allclose(embedding_matrix(lst), want)
    fsl = pa.array(rows, pa.list_(pa.float32(), 3))
    np.testing.assert_allclose(embedding_matrix(fsl), want)
    # slice: offsets no longer start at 0 — flatten() must respect the view
    np.testing.assert_allclose(embedding_matrix(lst.slice(1, 2)), want[1:])
    np.testing.assert_allclose(embedding_matrix(fsl.slice(1, 2)), want[1:])
    # chunked (what Table.column hands a map_batches body)
    ch = pa.chunked_array([lst.slice(0, 1), lst.slice(1, 2)])
    np.testing.assert_allclose(embedding_matrix(ch), want)
    # ragged fallback
    ragged = pa.array([[1.0], [2.0, 3.0]], pa.list_(pa.float64()))
    try:
        embedding_matrix(ragged)
    except ValueError:
        pass  # np.stack raises on ragged — acceptable, never engine-produced
    assert embedding_matrix(pa.array([], pa.list_(pa.float32()))).shape == (0, 0)


def test_knn_ivf_probe_width_exactness(ray_session, sf_small):
    """r3 VERDICT #7: the multi-probe width is a real knob —
    probe_hamming >= n_planes scans every bucket and equals brute force;
    wider probes never lose results vs narrower ones."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_small}/embeddings.parquet")
    q = np.asarray(t.column("embedding").to_pylist()[0], np.float64)
    emb = rd.read_parquet(f"{sf_small}/embeddings.parquet", columns=["vec_id", "embedding"])
    brute = list(knn_brute(emb, q, k=10)["vec_id"])
    exact = list(knn_ivf(emb, q, k=10, n_planes=4, probe_hamming=4)["vec_id"])
    assert exact == brute  # full-probe == exact
    narrow = set(knn_ivf(emb, q, k=10, n_planes=6, probe_hamming=1)["vec_id"])
    wide = set(knn_ivf(emb, q, k=10, n_planes=6, probe_hamming=2)["vec_id"])
    assert len(wide & set(brute)) >= len(narrow & set(brute))


def test_ivf_trained_recall_on_fixture(ray_session, sf_small):
    """Trained-centroid IVF (the scale path): deterministic training, and
    the measured fixture curve meets the recorded bar — recall >= 0.9 at
    >= 4x scan reduction (n_lists=16, n_probe=4; BASELINE.md ANN section).
    Everything is RNG-free, so the numbers are exact, not flaky."""
    import pyarrow.parquet as pq

    from graphiti_hf_ray.functions.knn import (
        ivf_recall_curve,
        knn_ivf_trained,
        train_ivf_centroids,
    )

    t = pq.read_table(f"{sf_small}/embeddings.parquet")
    Q = np.stack([np.asarray(v, np.float64) for v in t.column("embedding").to_pylist()[:8]])
    emb = rd.read_parquet(f"{sf_small}/embeddings.parquet", columns=["vec_id", "embedding"]).materialize()
    C = train_ivf_centroids(emb, n_lists=16)
    C2 = train_ivf_centroids(emb, n_lists=16)
    np.testing.assert_array_equal(C, C2)  # deterministic training
    got = knn_ivf_trained(emb, Q[0], C, k=10, n_probe=16)  # all lists = exact
    assert list(got["vec_id"]) == list(knn_brute(emb, Q[0], k=10)["vec_id"])
    curve = ivf_recall_curve(emb, Q, k=10, configs=((16, 4),))
    row = curve.iloc[0]
    assert row["recall"] >= 0.9 and row["scan_reduction"] >= 4.0, curve.to_string()


def test_typed_attribute_rules_full_catalog(ray_session):
    """Round-5 catalog breadth (VERDICT r4 #5): the Project/Document/Event
    rules fire through the same fused shuffle — Document.author /
    Project.lead / Event.organizer / Person.project node rules and the
    AUTHORED_BY.publication_date edge rule — and the labels gate keeps a
    rule's attr off nodes that do not carry its required label."""
    import json as _json

    from graphiti_hf_ray.stages.attributes import hydrate_node_attributes, typed_attribute_rows

    ts = pd.to_datetime(["2024-01-10", "2024-04-01", "2024-02-20", "2024-03-05"]).astype("datetime64[us]")
    edges = pd.DataFrame(
        {
            "uuid": ["e1", "e2", "e3", "e4"],
            "group_id": ["g0"] * 4,
            "source_uuid": ["d1", "p1", "p1", "p2"],
            "target_uuid": ["p1", "j1", "j1", "v1"],
            "name": ["AUTHORED_BY", "COLLABORATES_ON", "COLLABORATES_ON", "PARTICIPATES_IN"],
            "valid_at": ts,
            "attributes": ["{}"] * 4,
        }
    )
    nodes = pd.DataFrame(
        {
            "uuid": ["d1", "p1", "p2", "j1", "v1"],
            "name": ["Cobalt Whitepaper", "Ada", "Bob", "Aurora Pipeline", "Zenith Workshop"],
            "group_id": ["g0"] * 5,
            "labels": [["Document"], ["Person"], ["Person"], ["Project"], ["Event"]],
            "attributes": ["{}"] * 5,
        }
    )
    rows = typed_attribute_rows(rd.from_pandas(edges), rd.from_pandas(nodes)).to_pandas()
    by = {
        (r["kind"], r["uuid"], _json.loads(r["attributes"]).popitem()[0]): r["attributes"]
        for _, r in rows.iterrows()
    }
    assert by[("node", "d1", "author")] == '{"author": "Ada"}'
    # j1's latest COLLABORATES_ON is e2 (2024-04-01, subj p1 = Ada)
    assert by[("node", "j1", "lead")] == '{"lead": "Ada"}'
    assert by[("node", "p1", "project")] == '{"project": "Aurora Pipeline"}'
    assert by[("node", "v1", "organizer")] == '{"organizer": "Bob"}'
    assert by[("edge", "e1", "publication_date")] == '{"publication_date": "2024-01-10"}'

    # labels gate: a COLLABORATES_ON target NOT labeled Project gets no 'lead'
    nodes2 = nodes.copy()
    nodes2.loc[nodes2["uuid"] == "j1", "labels"] = [["Organization"]]
    hn = hydrate_node_attributes(rd.from_pandas(nodes2), rd.from_pandas(edges)).to_pandas()
    m = dict(zip(hn["uuid"], hn["attributes"]))
    assert "lead" not in _json.loads(m["j1"])
    assert _json.loads(m["d1"])["author"] == "Ada"


def test_chunk_documents_invariants(ray_session):
    """Token-window chunking: budget respected, exact overlap, lossless
    reconstruction from non-overlapping suffixes, single-chunk and empty
    edge cases, determinism across runs."""
    from graphiti_hf_ray.functions.textchunk import chunk_documents

    texts = {
        0: " ".join(f"t{i}" for i in range(23)),  # multi-chunk
        1: " ".join(f"u{i}" for i in range(8)),   # exactly max_tokens
        2: "one two",                              # < max_tokens
        3: "",                                     # empty → no chunks
        4: " ".join(f"v{i}" for i in range(9)),   # max_tokens + 1
    }
    docs = pd.DataFrame({"doc_id": list(texts), "text": [texts[k] for k in texts]})
    out = chunk_documents(rd.from_pandas(docs), max_tokens=8, overlap=3).to_pandas()
    out = out.sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True)

    assert (out["n_tokens"] <= 8).all()
    assert set(out["doc_id"]) == {0, 1, 2, 4}  # empty doc absent
    assert len(out[out["doc_id"] == 1]) == 1 and len(out[out["doc_id"] == 2]) == 1
    assert len(out[out["doc_id"] == 4]) == 2

    for d, g in out.groupby("doc_id"):
        toks = texts[d].split()
        rebuilt = []
        prev_end = 0
        for r in g.itertuples(index=False):
            ct = r.text.split()
            assert ct == toks[r.start_tok : r.start_tok + r.n_tokens]  # exact span
            if rebuilt:
                assert r.start_tok == prev_end - 3  # exact overlap
            rebuilt.extend(ct[prev_end - r.start_tok :] if rebuilt else ct)
            prev_end = r.start_tok + r.n_tokens
        assert rebuilt == toks  # lossless coverage
        assert list(g["chunk_idx"]) == list(range(len(g)))

    again = chunk_documents(rd.from_pandas(docs), max_tokens=8, overlap=3).to_pandas()
    again = again.sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(out, again)

    import pytest as _pytest

    with _pytest.raises(ValueError):
        chunk_documents(rd.from_pandas(docs), max_tokens=8, overlap=8)


def test_dedup_paragraphs_global_blank_lines(ray_session):
    """Empty paragraphs are blank-line STRUCTURE, not content: exempt from
    the winner election — every doc keeps its separators; only real
    duplicated paragraphs drop (regression: doc 1's '' lost to doc 0's ''
    and every multi-blank-line doc silently reflowed)."""
    from graphiti_hf_ray.functions.textclean import dedup_paragraphs_global

    docs = pd.DataFrame(
        {
            "doc_id": np.array([0, 1], np.int64),
            "text": ["a\n\nb", "c\n\nd\n\na"],
        }
    )
    out = (
        dedup_paragraphs_global(rd.from_pandas(docs))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(out["text"]) == ["a\n\nb", "c\n\nd\n"]     # blanks intact, dup 'a' dropped
    assert list(out["n_dropped_paragraphs"]) == [0, 1]


def test_dedup_paragraphs_global(ray_session):
    """Cross-doc paragraph dedup: a paragraph survives only at its globally
    first (doc_id, par_idx) occurrence — later copies in the SAME doc and
    in OTHER docs are removed; doc order preserved; drop counts exact; the
    kept multiset equals the distinct-paragraph set."""
    from graphiti_hf_ray.functions.textclean import dedup_paragraphs_global

    docs = pd.DataFrame(
        {
            "doc_id": np.array([0, 1, 2, 3], np.int64),
            "text": [
                "alpha\nbeta\nalpha",          # within-doc repeat of alpha
                "beta\ngamma",                  # beta already seen in doc 0
                "delta",                        # unique
                "alpha\ngamma\nepsilon",        # both seen before
            ],
        }
    )
    out = (
        dedup_paragraphs_global(rd.from_pandas(docs))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(out["text"]) == ["alpha\nbeta", "gamma", "delta", "epsilon"]
    assert list(out["n_dropped_paragraphs"]) == [1, 1, 0, 2]

    # global invariant: kept paragraphs = exactly the distinct set, and
    # each survivor sits at the minimal (doc_id, par_idx) of its group
    all_pars = [
        (d, i, p)
        for d, t in zip(docs["doc_id"], docs["text"])
        for i, p in enumerate(t.split("\n"))
    ]
    first = {}
    for d, i, p in all_pars:
        first.setdefault(p, (d, i))
    kept = [
        (d, p)
        for d, t in zip(out["doc_id"], out["text"])
        for p in (t.split("\n") if t else [])
    ]
    assert sorted(p for _, p in kept) == sorted(first)
    for d, p in kept:
        assert first[p][0] == d

    # a doc that is entirely duplicates collapses to the empty string
    docs2 = pd.DataFrame({"doc_id": np.array([0, 1], np.int64), "text": ["x\ny", "y\nx"]})
    out2 = dedup_paragraphs_global(rd.from_pandas(docs2)).to_pandas().sort_values("doc_id")
    assert list(out2["text"]) == ["x\ny", ""]
    assert list(out2["n_dropped_paragraphs"]) == [0, 2]


def test_exact_dedup_rows_parity(ray_session):
    """The fused one-exchange row-keeping exact dedup equals the composed
    form (exact_dedup winners semi-joined back onto the doc rows), full
    schema preserved, min doc_id winning per distinct text."""
    import ray.data as rd

    from graphiti_hf_ray.functions.dedup import exact_dedup, exact_dedup_rows
    from graphiti_hf_ray.functions.joins import hash_join

    rng = np.random.default_rng(7)
    texts = [f"doc body {i % 13} repeated payload" for i in range(60)]
    docs = pd.DataFrame(
        {
            "doc_id": rng.permutation(60).astype(np.int64),
            "text": texts,
            "extra": np.arange(60, dtype=np.int64) * 10,  # must survive intact
        }
    )
    ds = rd.from_pandas(docs)

    fused = (
        exact_dedup_rows(ds, num_buckets=8)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )

    winners = exact_dedup(ds, num_buckets=8).map_batches(
        lambda t: pa.table({"k_doc_id": t.column("keep_doc_id").cast(pa.int64())}),
        batch_format="pyarrow",
    )
    composed = (
        hash_join(ds, winners, "doc_id", "k_doc_id", num_buckets=8,
                  right_types={"k_doc_id": pa.int64()})
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )

    assert len(fused) == 13
    pd.testing.assert_frame_equal(fused, composed[fused.columns])
    # min doc_id wins per distinct text
    expect = docs.sort_values("doc_id").drop_duplicates("text", keep="first")
    assert sorted(fused["doc_id"]) == sorted(expect["doc_id"])


def test_exact_dedup_null_text(ray_session):
    """Null text rows hash as '' (the repo-wide nulls-are-empty-docs
    policy, via the shared md5_fp_batch mapper) instead of crashing —
    oracle mirror: md5(coalesce(text, ''))."""
    import hashlib

    import pandas as pd
    import ray.data as rd

    from graphiti_hf_ray.functions.dedup import exact_dedup

    docs = pd.DataFrame({"doc_id": [3, 1, 2, 4], "text": ["a", None, "a", None]})
    out = exact_dedup(rd.from_pandas(docs), num_buckets=2).to_pandas()
    assert len(out) == 2
    row = out[out["fingerprint"] == hashlib.md5(b"").hexdigest()]
    assert len(row) == 1 and int(row["keep_doc_id"].iloc[0]) == 1 and int(row["n_dups"].iloc[0]) == 2


def test_token_budget_sample(ray_session):
    """Per-stratum token-budget mixture sampling: hash-ordered greedy
    prefix, inclusive cumsum ≤ budget, strata without a budget dropped —
    matches a driver-side replay of the same ordering."""
    from graphiti_hf_ray.functions.sample import _hexhash, token_budget_sample

    rng = np.random.default_rng(3)
    docs = pd.DataFrame(
        {
            "doc_id": np.arange(60, dtype=np.int64),
            "lang": ["en", "de", "zh"] * 20,
            "n_tokens": rng.integers(5, 40, 60).astype(np.int64),
        }
    )
    budgets = {"en": 150, "de": 60}
    got = (
        token_budget_sample(rd.from_pandas(docs), "doc_id", "lang", "n_tokens", budgets, num_buckets=8)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # driver replay of the contract
    expect_ids = []
    for lang, cap in budgets.items():
        g = docs[docs["lang"] == lang].copy()
        g["_h"] = [_hexhash("s", k) for k in g["doc_id"]]
        g = g.sort_values(["_h", "doc_id"])
        run = g["n_tokens"].cumsum()
        expect_ids += list(g.loc[run <= cap, "doc_id"])
    expect = docs[docs["doc_id"].isin(expect_ids)].reset_index(drop=True)
    pd.testing.assert_frame_equal(got, expect)
    assert set(got["lang"]) == {"en", "de"}          # zh dropped entirely
    for lang, cap in budgets.items():
        assert got.loc[got["lang"] == lang, "n_tokens"].sum() <= cap
    assert len(got) < (docs["lang"] != "zh").sum()   # the budget bites


def test_mixture_sample_upsampling(ray_session):
    """Weighted mixture with upsampling: floor(w) full epochs per row,
    hash-thresholded fractional epoch, absent strata dropped, epochs
    contiguous from 0 — and deterministic across repartitionings."""
    from graphiti_hf_ray.functions.sample import _hexhash, mixture_sample

    docs = pd.DataFrame(
        {
            "doc_id": np.arange(80, dtype=np.int64),
            "lang": ["en", "de", "es", "zh"] * 20,
        }
    )
    weights = {"en": 2.25, "de": 1.0, "es": 0.5}
    got = (
        mixture_sample(rd.from_pandas(docs), "doc_id", "lang", weights)
        .to_pandas()
        .sort_values(["doc_id", "epoch"])
        .reset_index(drop=True)
    )
    assert set(got["lang"]) == {"en", "de", "es"}                  # zh dropped
    per_doc = got.groupby("doc_id")["epoch"].agg(["count", "min", "max"])
    assert (per_doc["min"] == 0).all()
    assert (per_doc["max"] == per_doc["count"] - 1).all()          # contiguous epochs
    # every de row exactly once (integer weight, no fractional epoch)
    de = got[got["lang"] == "de"]
    assert len(de) == 20 and set(de["doc_id"]) == set(docs.loc[docs["lang"] == "de", "doc_id"])
    # en rows: 2 or 3 copies, the third iff the hash clears the 0.25 threshold
    for d in docs.loc[docs["lang"] == "en", "doc_id"]:
        expect = 2 + (1 if _hexhash("m", d)[:8] < format(int(0.25 * 16**8), "08x") else 0)
        assert (got["doc_id"] == d).sum() == expect
    # es rows: 0 or 1 copy under the 0.5 threshold; roughly half survive
    es = got[got["lang"] == "es"]
    assert 4 <= len(es) <= 16 and (es["epoch"] == 0).all()
    # partitioning-independence: same multiset from a different block layout
    re = (
        mixture_sample(rd.from_pandas(docs).repartition(7), "doc_id", "lang", weights)
        .to_pandas()
        .sort_values(["doc_id", "epoch"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(re, got)


def test_rate_threshold_cap_and_null_guards(ray_session):
    """Edge hardening: a fractional rate within float rounding of 1.0 must
    not overflow the 8-hex threshold (9-char string would keep ~1/16 of
    rows); null texts flow through the quality ops as empty docs; string
    doc ids flow through doc_profile_batch (no synthetic PII probe)."""
    from graphiti_hf_ray.functions.quality import (
        score_quality, surprisal_filter, unigram_surprisal,
    )
    from graphiti_hf_ray.functions.sample import _rate_threshold, mixture_sample
    from graphiti_hf_ray.functions.textstats import doc_profile_batch

    assert _rate_threshold(0.25) == "40000000"
    assert _rate_threshold(1.0 - 2**-40) == "ffffffff"     # capped, not "100000000"
    docs = pd.DataFrame(
        {"doc_id": np.arange(64, dtype=np.int64), "lang": ["en"] * 64}
    )
    near_one = 1.0 + (1.0 - 2**-40)                        # frac ≈ 1.0
    out = mixture_sample(
        rd.from_pandas(docs), "doc_id", "lang", {"en": near_one}
    ).to_pandas()
    assert len(out) >= 2 * 64 - 1                          # ~all rows get epoch 1

    nulls = rd.from_items([{"doc_id": 1, "text": "a b c"}, {"doc_id": 2, "text": None}])
    scored = score_quality(nulls).to_pandas()
    assert len(scored) == 2                                # null text = empty doc
    assert len(unigram_surprisal(nulls.materialize()).to_pandas()) == 2
    assert surprisal_filter(nulls.materialize(), 1000.0).to_pandas()["doc_id"].tolist()

    prof = doc_profile_batch(
        pa.table({"doc_id": ["u-1", "u-2"], "text": ["mail me at x@y.org", "plain"]})
    ).to_pandas()
    assert prof["n_pii_email"].tolist() == [1, 0]          # raw-text scan only


def test_dedup_rows_from_pairs_nullable_int_antijoin(ray_session):
    """The forced anti-join (huge-loser) path must round-trip integer
    columns that legitimately contain nulls in the SOURCE rows."""
    from graphiti_hf_ray.functions.dedup import dedup_rows_from_pairs

    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                "opt": pa.array([10, None, 30, None], pa.int64()),
                "text": pa.array(["a", "b", "c", "d"]),
            }
        )
    )
    pairs = rd.from_items([{"doc_a": 1, "doc_b": 2}])      # 2 loses to 1
    out = (
        dedup_rows_from_pairs(docs, pairs, broadcast_max_losers=0)
        .to_pandas()
        .sort_values("doc_id")
    )
    assert out["doc_id"].tolist() == [1, 3, 4]
    assert out["opt"].tolist()[0] == 10 and pd.isna(out["opt"].tolist()[2])


def test_doc_profile_repetition_signals():
    """Gopher duplicate-text probes are integer-exact on hand-computed
    cases: top2gram_chars = count(top 2-gram, lex-min tie-break) ×
    len(gram); dup5gram_chars sums count × len over 5-grams with count ≥ 2;
    sub-window docs yield 0."""
    from graphiti_hf_ray.functions.textstats import doc_profile_batch

    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": [
                "a b a b a b",            # "a b"×3 → 3·3=9; no dup 5-gram
                "x y x y x y x y x y",    # "x y"×5 → 15; 2 dup 5-grams ×3 → 54
                "q",                      # < 2 tokens → 0 / 0
                "c b c b c b",            # tie c b / b c at... "b c"×2,"c b"×3
            ],
        }
    )
    out = doc_profile_batch(t)
    assert out.column("top2gram_chars").to_pylist() == [9, 15, 0, 9]
    assert out.column("dup5gram_chars").to_pylist() == [0, 54, 0, 0]


def test_fuzzy_dedup_rows(ray_session):
    """Corpus-wide fuzzy dedup: survivors = min doc_id per connected
    component of the verified near-dup pair graph (transitive chains
    collapse to ONE survivor), full schema + dtypes preserved, and the
    four internal paths agree: driver vs distributed components, broadcast
    filter vs bucketed anti-join loser removal."""
    import ray.data as rd

    from graphiti_hf_ray.functions.dedup import (
        components_of_pairs,
        fuzzy_dedup_rows,
        minhash_lsh_candidates,
    )
    from graphiti_hf_ray.stages.canonicalize import components_driver

    base = [f"tok{i}" for i in range(40)]
    a4 = [f"a{i}" for i in range(4)]
    b4 = [f"b{i}" for i in range(4)]
    texts = {
        # transitive chain at threshold 0.7: J(10,11)=J(11,12)=32/40=0.8
        # but J(10,12)=28/44≈0.64 — 10 and 12 only meet through 11 (their
        # direct candidate pair is rejected by exact-Jaccard verification)
        10: " ".join(base),
        11: " ".join(base[:36] + a4),
        12: " ".join(b4 + base[4:36] + a4),
        3: " ".join(f"u{i}" for i in range(40)),          # singleton
        5: " ".join(f"v{i}" for i in range(40)),          # pair: 5~6
        6: " ".join(f"v{i}" for i in range(39)) + " zz",
        7: " ".join(f"q{i}" for i in range(40)),          # singleton
    }
    docs = pd.DataFrame(
        {
            "doc_id": np.array(sorted(texts), np.int64),
            "text": [texts[i] for i in sorted(texts)],
            "extra": np.arange(len(texts), dtype=np.int32),
        }
    )
    ds = rd.from_pandas(docs)

    # expected: union-find over the engine's own verified pairs
    pairs = minhash_lsh_candidates(ds, jaccard_threshold=0.7, n_bands=16).to_pandas()
    comp = components_driver(
        (f"{a:020d}", f"{b:020d}") for a, b in zip(pairs["doc_a"], pairs["doc_b"])
    )
    losers = {int(k) for k, v in comp.items() if k != v}
    assert losers  # the fixture must exercise removal
    expect = docs[~docs["doc_id"].isin(losers)].reset_index(drop=True)

    m: dict = {}
    got = (
        fuzzy_dedup_rows(ds, jaccard_threshold=0.7, n_bands=16, metrics_out=m)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, expect)
    assert m["fuzzy_dropped_docs"] == len(losers)
    assert m["minhash_dropped_docs"] == 0
    # the 10~11~12 chain collapses to doc 10 though 10 and 12 never pair
    assert not ((pairs["doc_a"] == 10) & (pairs["doc_b"] == 12)).any()
    assert 10 in set(got["doc_id"]) and not {11, 12} & set(got["doc_id"])

    # forced distributed components path agrees with the driver path
    pr = rd.from_pandas(pairs[["doc_a", "doc_b"]])
    for dmax in (10**6, 0):
        c = (
            components_of_pairs(pr, driver_max_pairs=dmax, num_buckets=8)
            .to_pandas()
            .sort_values("node")
            .reset_index(drop=True)
        )
        assert {(n, r) for n, r in zip(c["node"], c["root"])} == {
            (int(k), int(v)) for k, v in comp.items()
        }

    # forced anti-join loser removal agrees (incl. int32 dtype restore)
    got2 = (
        fuzzy_dedup_rows(ds, jaccard_threshold=0.7, n_bands=16, broadcast_max_losers=0, num_buckets=8)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got2, expect)

    # no near-dups → input passes through untouched
    solo = docs[docs["doc_id"].isin([3, 7])].reset_index(drop=True)
    got3 = fuzzy_dedup_rows(rd.from_pandas(solo)).to_pandas().sort_values("doc_id")
    pd.testing.assert_frame_equal(got3.reset_index(drop=True), solo)


def test_ngram_decontaminate(ray_session):
    """Benchmark decontamination: collision-position counts are exact,
    docs shorter than n contribute/receive nothing, mode='filter' keeps
    exactly the clean rows, and the benchmark texts flag themselves."""
    from graphiti_hf_ray.functions.decontam import benchmark_ngrams, ngram_decontaminate

    bench = ["a b c d", "x y z w v"]
    docs = pd.DataFrame(
        {
            "doc_id": np.array([0, 1, 2, 3, 4], np.int64),
            "text": [
                "a b c d",            # == bench[0]: 1 window, 1 hit
                "q a b c d r a b c d",  # windows at 1 and 6 hit (n=4)
                "a b c e d",          # no 4-window matches
                "a b",                # shorter than n: 0 windows
                "",                   # empty
            ],
        }
    )
    out = (
        ngram_decontaminate(rd.from_pandas(docs), bench, n=4, mode="mark")
        .to_pandas()
        .sort_values("doc_id")
    )
    assert list(out["n_contaminated_ngrams"]) == [1, 2, 0, 0, 0]
    assert list(out["contaminated"]) == [True, True, False, False, False]

    kept = (
        ngram_decontaminate(rd.from_pandas(docs), bench, n=4, mode="filter")
        .to_pandas()
        .sort_values("doc_id")
    )
    assert list(kept["doc_id"]) == [2, 3, 4]
    assert "n_contaminated_ngrams" not in kept.columns

    # gram builder: every position, both texts; short bench text adds none
    g = benchmark_ngrams(["p q r s t", "tiny"], n=4)
    assert g == frozenset({"p q r s", "q r s t"})

    with pytest.raises(ValueError):
        ngram_decontaminate(rd.from_pandas(docs), bench, n=4, mode="bogus")

    # redact: spans removed, clean docs byte-identical (odd whitespace kept)
    docs_r = pd.DataFrame(
        {
            "doc_id": np.array([0, 1, 2], np.int64),
            "text": [
                "q a b c d r",   # one hit: tokens 1-4 removed
                "a  b\tc e d",   # clean — weird whitespace must survive
                "a b c d",       # entirely a benchmark text → empty
            ],
        }
    )
    red = (
        ngram_decontaminate(rd.from_pandas(docs_r), bench, n=4, mode="redact")
        .to_pandas()
        .sort_values("doc_id")
    )
    assert list(red["text"]) == ["q r", "a  b\tc e d", ""]
    assert list(red["n_redacted_tokens"]) == [4, 0, 4]
    assert list(red["n_contaminated_ngrams"]) == [1, 0, 1]


def test_dedup_spans_global(ray_session):
    """Cross-doc duplicated-span removal: a duplicated region ≥ k vanishes
    from all but its first (doc, pos) site; untouched docs are
    byte-identical; the full output matches an independent brute-force
    replay of the window spec."""
    from graphiti_hf_ray.functions.textclean import dedup_spans_global

    k = 4
    dup = " ".join(f"d{i}" for i in range(8))       # 8-token duplicated region
    texts = {
        0: "h0 h1 " + dup + " t0 t1",               # first site: survives intact
        1: "x0 x1 x2 " + dup + " x3",               # later site: region removed
        2: "only unique words live here today",     # clean, odd  spacing next
        3: "u0  u1\tu2 " + dup,                     # later site + weird ws (touched → respaced)
        4: "a b c a b c a b",                       # within-doc overlap: k=4 windows unique
    }
    docs = pd.DataFrame(
        {"doc_id": np.array(sorted(texts), np.int64), "text": [texts[i] for i in sorted(texts)]}
    )

    got = (
        dedup_spans_global(rd.from_pandas(docs), k=k, num_buckets=8)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )

    # independent replay of the spec
    wins: dict[str, tuple] = {}
    coords = []
    for d in sorted(texts):
        toks = texts[d].split()
        for i in range(len(toks) - k + 1):
            g = " ".join(toks[i : i + k])
            coords.append((d, i, g))
            if g not in wins:
                wins[g] = (d, i)
    seen_counts = pd.Series([g for _, _, g in coords]).value_counts()
    expect_texts, expect_rm = [], []
    for d in sorted(texts):
        toks = texts[d].split()
        bad = np.zeros(len(toks), bool)
        touched = False
        for i in range(len(toks) - k + 1):
            g = " ".join(toks[i : i + k])
            if seen_counts[g] > 1 and wins[g] != (d, i):
                bad[i : i + k] = True
                touched = True
        if not touched:
            expect_texts.append(texts[d])
            expect_rm.append(0)
        else:
            expect_texts.append(" ".join(t for t, b in zip(toks, bad) if not b))
            expect_rm.append(int(bad.sum()))
    assert list(got["text"]) == expect_texts
    assert list(got["n_removed_tokens"]) == expect_rm
    assert got.loc[0, "text"] == texts[0]            # winner byte-identical
    assert got.loc[2, "text"] == texts[2]            # clean byte-identical
    assert got.loc[1, "n_removed_tokens"] == 8       # whole region gone
    assert "d0" not in got.loc[1, "text"] and "d0" in got.loc[0, "text"]


def test_ngram_decontaminate_bloom_join_parity(ray_session):
    """The Bloom-prefilter + verification-join scale path returns
    BIT-IDENTICAL marks and filter output to the broadcast path (false
    positives die in the exact join; false negatives are impossible), at
    both a realistic and an adversarially high Bloom FPR."""
    from graphiti_hf_ray.functions.decontam import ngram_decontaminate

    bench = ["a b c d e f", "w1 w2 w3 w4 w5"]
    rng = np.random.default_rng(11)
    vocab = ["a", "b", "c", "d", "w1", "w2", "x", "y", "z"]
    texts = [" ".join(rng.choice(vocab, 20)) for _ in range(40)]
    texts += ["q a b c d e f r", "w1 w2 w3 w4 w5", "clean doc entirely here now"]
    docs = pd.DataFrame(
        {"doc_id": np.arange(len(texts), dtype=np.int64), "text": texts}
    )
    for mode in ("mark", "filter"):
        base = (
            ngram_decontaminate(rd.from_pandas(docs), bench, n=4, mode=mode)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        for fpr in (1e-3, 0.5):  # 0.5 → floods stage 2 with false positives
            got = (
                ngram_decontaminate(
                    rd.from_pandas(docs), bench, n=4, mode=mode,
                    method="bloom_join", bloom_fpr=fpr, num_buckets=8,
                )
                .to_pandas().sort_values("doc_id").reset_index(drop=True)
            )
            pd.testing.assert_frame_equal(got, base[got.columns])

    with pytest.raises(ValueError):
        ngram_decontaminate(rd.from_pandas(docs), bench, n=4, mode="redact", method="bloom_join")


def test_bloom_filter_properties():
    """BloomFilter: zero false negatives always; FPR in the right ballpark
    at the configured rate; deterministic across instances."""
    from graphiti_hf_ray.functions.decontam import BloomFilter

    items = [f"gram number {i} payload" for i in range(5000)]
    other = [f"absent item {i} text" for i in range(5000)]
    b = BloomFilter(len(items), fpr=1e-3)
    b.add_many(items)
    assert b.contains_many(items).all()                   # no false negatives
    fp = b.contains_many(other).sum()
    assert fp <= 25                                       # ~5 expected at 1e-3
    b2 = BloomFilter(len(items), fpr=1e-3)
    b2.add_many(list(reversed(items)))
    assert (b2.bits == b.bits).all()                      # order-independent
    assert not BloomFilter(1, fpr=1e-3).contains_many(["x"]).any()


def test_pack_chunks_invariants(ray_session):
    """Sequence packing: every chunk lands in exactly one pack, pack totals
    respect the budget and equal the member sum, members are consecutive
    in (doc_id, chunk_idx) order, packing is next-fit dense (the first
    member of pack k+1 would overflow pack k), ids are deterministic
    across reruns, and an oversized chunk raises."""
    from graphiti_hf_ray.functions.textchunk import chunk_documents
    from graphiti_hf_ray.functions.textpack import pack_chunks

    rng = np.random.default_rng(7)
    docs = pd.DataFrame(
        {
            "doc_id": np.arange(20, dtype=np.int64),
            "text": [" ".join(f"w{d}_{i}" for i in range(rng.integers(1, 60))) for d in range(20)],
        }
    )
    chunks = chunk_documents(rd.from_pandas(docs), max_tokens=16, overlap=4)
    out = pack_chunks(chunks, budget=40, num_buckets=4).to_pandas()

    exp_chunks = chunks.to_pandas()
    got_members = [m for row in out["members"] for m in row.split(",")]
    assert sorted(got_members) == sorted(
        f"{d}:{i}" for d, i in zip(exp_chunks["doc_id"], exp_chunks["chunk_idx"])
    )
    tok_of = {
        f"{d}:{i}": n
        for d, i, n in zip(exp_chunks["doc_id"], exp_chunks["chunk_idx"], exp_chunks["n_tokens"])
    }
    text_of = {
        f"{d}:{i}": t
        for d, i, t in zip(exp_chunks["doc_id"], exp_chunks["chunk_idx"], exp_chunks["text"])
    }
    for _, r in out.iterrows():
        ms = r["members"].split(",")
        assert r["n_tokens"] == sum(tok_of[m] for m in ms) <= 40
        assert r["n_chunks"] == len(ms)
        assert r["text"] == " ".join(text_of[m] for m in ms)
        keys = [tuple(map(int, m.split(":"))) for m in ms]
        assert keys == sorted(keys)

    # next-fit density within each bucket: reconstruct bucket sequences via
    # the deterministic md5(bucket:seq) id scheme
    import hashlib as _hl

    id2row = {r["pack_id"]: r for _, r in out.iterrows()}
    for b in range(4):
        seq = 0
        while _hl.md5(f"{b}:{seq+1}".encode()).hexdigest() in id2row:
            cur = id2row[_hl.md5(f"{b}:{seq}".encode()).hexdigest()]
            nxt = id2row[_hl.md5(f"{b}:{seq+1}".encode()).hexdigest()]
            first_next = nxt["members"].split(",")[0]
            assert cur["n_tokens"] + tok_of[first_next] > 40
            seq += 1

    # rerun → identical result (deterministic ids and composition)
    out2 = pack_chunks(
        chunk_documents(rd.from_pandas(docs), max_tokens=16, overlap=4), budget=40, num_buckets=4
    ).to_pandas()
    a = out.sort_values("pack_id").reset_index(drop=True)
    b = out2.sort_values("pack_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)

    # a chunk larger than the budget is rejected, not truncated
    big = rd.from_pandas(
        pd.DataFrame(
            {"doc_id": np.array([0], np.int64), "chunk_idx": np.array([0], np.int32),
             "n_tokens": np.array([99], np.int32), "text": ["x " * 99]}
        )
    )
    with pytest.raises(Exception):
        pack_chunks(big, budget=40).to_pandas()


def test_hashed_ngram_quality_spec(ray_session):
    """Brute-force replay of the scorer spec: bucket = md5(feat)[:8] %
    n_buckets, stub weight = md5('w:'+b)[:4] - 32768, logit = sum over
    unigram+bigram features WITH multiplicity."""
    import hashlib

    import ray.data as rd

    from graphiti_hf_ray.functions.quality import score_quality

    texts = ["red fox red fox", "one", "", "alpha beta gamma"]
    ds = rd.from_arrow(pa.table({"doc_id": list(range(len(texts))), "text": texts}))
    out = score_quality(ds, n_buckets=256).to_pandas().sort_values("doc_id")

    def brute(text):
        toks = text.split(" ")
        feats = list(toks) + (
            [toks[i] + " " + toks[i + 1] for i in range(len(toks) - 1)] if len(toks) >= 2 else []
        )
        s = 0
        for f in feats:
            b = int(hashlib.md5(f.encode()).hexdigest()[:8], 16) % 256
            s += int(hashlib.md5(f"w:{b}".encode()).hexdigest()[:4], 16) - 32768
        return s, len(feats)

    for _, row in out.iterrows():
        logit, n = brute(texts[int(row["doc_id"])])
        assert int(row["quality_logit"]) == logit
        assert int(row["n_quality_feats"]) == n
    # trained float weights flip the output dtype and the arithmetic
    w = np.linspace(-1.0, 1.0, 64)
    outf = score_quality(ds, weights=w).to_pandas().sort_values("doc_id")
    assert outf["quality_logit"].dtype == np.float64
    for _, row in outf.iterrows():
        toks = texts[int(row["doc_id"])].split(" ")
        feats = list(toks) + (
            [toks[i] + " " + toks[i + 1] for i in range(len(toks) - 1)] if len(toks) >= 2 else []
        )
        exp = sum(w[int(hashlib.md5(f.encode()).hexdigest()[:8], 16) % 64] for f in feats)
        assert abs(row["quality_logit"] - exp) < 1e-9


def test_quality_filter_threshold(ray_session):
    """quality_filter keeps exactly the docs whose mean feature weight
    clears the bar, and drops its helper columns."""
    import ray.data as rd

    from graphiti_hf_ray.functions.quality import quality_filter, score_quality

    texts = [f"tok{i} tok{i + 1} tok{i + 2}" for i in range(40)]
    ds = rd.from_arrow(pa.table({"doc_id": list(range(40)), "text": texts}))
    scored = score_quality(ds).to_pandas()
    want = set(
        scored.loc[scored["quality_logit"] >= 0 * scored["n_quality_feats"], "doc_id"].astype(int)
    )
    got = quality_filter(ds, min_mean_weight=0).to_pandas()
    assert set(got["doc_id"].astype(int)) == want
    assert 0 < len(want) < 40  # threshold actually bites both ways
    assert set(got.columns) == {"doc_id", "text"}


def test_fasttext_quality_scorer_contract(ray_session):
    """models.FastTextQualityScorer through the real map_batches seam with
    an injected offline model (fasttext .predict surface)."""
    import ray.data as rd

    from graphiti_hf_ray.models import FastTextQualityScorer

    class FakeFT:
        def predict(self, texts, k=2):
            labels, probs = [], []
            for t in texts:
                assert "\n" not in t  # scorer must have stripped newlines
                p = min(1.0, len(t) / 10.0)
                labels.append(["__label__hq", "__label__lq"])
                probs.append([p, 1.0 - p])
            return labels, probs

    ds = rd.from_arrow(pa.table({"doc_id": [0, 1], "text": ["short", "a much\nlonger document"]}))
    out = (
        ds.map_batches(
            FastTextQualityScorer,
            fn_constructor_kwargs={"model": FakeFT()},
            batch_format="pyarrow",
            concurrency=1,
        )
        .to_pandas()
        .sort_values("doc_id")
    )
    assert list(out["quality_prob"]) == [0.5, 1.0]
    import pytest

    with pytest.raises((ImportError, ValueError)):
        FastTextQualityScorer()  # no model, no library in this container


def test_unigram_surprisal_spec(ray_session):
    """Brute-force replay: bits(t) = floor(log2(N // c(t))) over corpus
    counts; doc score = sum over tokens with multiplicity; min_count
    prunes rare types to the count-1 default."""
    import math

    import ray.data as rd

    from graphiti_hf_ray.functions.quality import unigram_surprisal

    texts = ["a a b", "a b c", "d", ""]
    ds = rd.from_arrow(pa.table({"doc_id": list(range(len(texts))), "text": texts}))
    out = unigram_surprisal(ds).to_pandas().sort_values("doc_id")

    toks = [t.split(" ") for t in texts]
    flat = [x for tt in toks for x in tt]
    n = len(flat)
    cnt = {t: flat.count(t) for t in set(flat)}
    bits = {t: int(math.floor(math.log2(n // c))) for t, c in cnt.items()}
    for _, row in out.iterrows():
        exp = sum(bits[t] for t in toks[int(row["doc_id"])])
        assert int(row["unigram_surprisal_bits"]) == exp
    # min_count=2 prunes singletons ('c', 'd', '') to the default bits
    out2 = unigram_surprisal(ds, min_count=2).to_pandas().sort_values("doc_id")
    dflt = int(math.floor(math.log2(n)))
    for _, row in out2.iterrows():
        exp = sum(
            bits[t] if cnt[t] >= 2 else dflt for t in toks[int(row["doc_id"])]
        )
        assert int(row["unigram_surprisal_bits"]) == exp


def test_kenlm_perplexity_scorer_contract(ray_session):
    """models.KenLMPerplexityScorer through the map_batches seam with an
    injected offline model (kenlm .perplexity surface)."""
    import ray.data as rd

    from graphiti_hf_ray.models import KenLMPerplexityScorer

    class FakeLM:
        def perplexity(self, text):
            assert "\n" not in text
            return 10.0 + len(text.split(" "))

    ds = rd.from_arrow(pa.table({"doc_id": [0, 1], "text": ["a b", "c\nd e"]}))
    out = (
        ds.map_batches(
            KenLMPerplexityScorer,
            fn_constructor_kwargs={"model": FakeLM()},
            batch_format="pyarrow",
            concurrency=1,
        )
        .to_pandas()
        .sort_values("doc_id")
    )
    assert list(out["lm_perplexity"]) == [12.0, 13.0]
    import pytest

    with pytest.raises((ImportError, ValueError)):
        KenLMPerplexityScorer()
