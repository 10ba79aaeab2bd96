"""E2E pipeline tests over Ray: build_graph output vs DuckDB oracles,
bi-temporal invalidation, resume-from-checkpoint, idempotence."""

from __future__ import annotations

import json
import os
import shutil

import pandas as pd
import pyarrow.parquet as pq
import pytest

from graphiti_hf_ray import io as gio
from graphiti_hf_ray.fixtures import pages as P
from graphiti_hf_ray.pipelines.kg import DEFAULT_RUN_TS_US, build_graph, extract_phase


@pytest.fixture(scope="module")
def graph_out(ray_session, pages_parquet, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("graph"))
    build_graph([pages_parquet], out, num_shards=4)
    return out


def _edges_df(graph_out) -> pd.DataFrame:
    return gio.read_table_dir(graph_out, "edges").to_pandas()


def test_edges_match_oracle_merge(duck, graph_out):
    """Edge dedup-upsert: one edge per canonical (group, src, pred, obj),
    valid_at = min occurrence, episodes = union (count check)."""
    edges = _edges_df(graph_out)
    oracle = duck.sql(
        "WITH "
        + P.sql_canonical_cte()
        + """
        SELECT group_id, subj_uuid, pred, obj_uuid,
               min(valid_at) AS valid_at,
               count(*) AS n_occurrences,
               count(DISTINCT episode_uuid) AS n_episodes
        FROM gold_canon
        GROUP BY 1, 2, 3, 4
        """
    ).df()
    a = edges[["group_id", "source_uuid", "name", "target_uuid", "valid_at"]].sort_values(
        ["group_id", "source_uuid", "name", "target_uuid"]
    ).reset_index(drop=True)
    b = oracle[["group_id", "subj_uuid", "pred", "obj_uuid", "valid_at"]].sort_values(
        ["group_id", "subj_uuid", "pred", "obj_uuid"]
    ).reset_index(drop=True)
    b.columns = a.columns
    pd.testing.assert_frame_equal(a, b)
    # episodes provenance: list length == distinct episode count
    ep_counts = edges.sort_values(["group_id", "source_uuid", "name", "target_uuid"]).reset_index(drop=True)[
        "episodes"
    ].str.split(",").str.len()
    oracle_sorted = oracle.sort_values(["group_id", "subj_uuid", "pred", "obj_uuid"]).reset_index(drop=True)
    assert (ep_counts == oracle_sorted["n_episodes"]).all()


def test_triple_pr_vs_gold(duck, graph_out):
    """North rule: (subj, pred, obj) P/R >= 0.95 vs reference extraction —
    measured on canonical names; this engine achieves exactly 1.0."""
    edges = _edges_df(graph_out)
    got = set(zip(edges["group_id"], edges["source_name"], edges["name"], edges["target_name"]))
    gold = duck.sql(
        "WITH " + P.sql_canonical_cte() + " SELECT DISTINCT group_id, subj_c, pred, obj_c FROM gold_canon"
    ).df()
    exp = set(zip(gold["group_id"], gold["subj_c"], gold["pred"], gold["obj_c"]))
    tp = len(got & exp)
    precision = tp / len(got)
    recall = tp / len(exp)
    assert precision >= 0.95 and recall >= 0.95
    assert precision == 1.0 and recall == 1.0


def test_bitemporal_invalidation(duck, graph_out):
    """TS2-TS4: functional predicate sweep — invalid_at = next valid_at in
    (group, pred, obj) order; expired_at = run_ts iff invalidated. Runs the
    SAME parity check per functional predicate (registry-driven set, r3
    VERDICT #2 — sweep must fire for every functional pred, not one
    special case)."""
    from graphiti_hf_ray.state.types import default_registry

    functional = default_registry().functional_predicates()
    assert functional == frozenset(P.FUNCTIONAL_PREDS)  # registry == grammar
    assert len(functional) >= 2
    edges = _edges_df(graph_out)
    run_ts = pd.Timestamp(DEFAULT_RUN_TS_US, unit="us")
    for pred in sorted(functional):
        sub = edges[edges["name"] == pred]
        assert sub["invalid_at"].notna().any(), pred  # sweep actually fired
        oracle = duck.sql(
            "WITH "
            + P.sql_canonical_cte()
            + f"""
            , merged AS (
              SELECT group_id, subj_uuid, pred, obj_uuid, min(valid_at) AS valid_at
              FROM gold_canon WHERE pred = '{pred}' GROUP BY 1, 2, 3, 4
            )
            SELECT *, lead(valid_at) OVER (
                PARTITION BY group_id, pred, obj_uuid ORDER BY valid_at, subj_uuid
            ) AS invalid_at
            FROM merged
            """
        ).df()
        a = sub[["group_id", "source_uuid", "target_uuid", "valid_at", "invalid_at"]].sort_values(
            ["group_id", "source_uuid", "target_uuid"]
        ).reset_index(drop=True)
        b = oracle[["group_id", "subj_uuid", "obj_uuid", "valid_at", "invalid_at"]].sort_values(
            ["group_id", "subj_uuid", "obj_uuid"]
        ).reset_index(drop=True)
        b.columns = a.columns
        pd.testing.assert_frame_equal(a, b)
        # TS2: expired_at set exactly when invalidated, to run time
        inv = sub["invalid_at"].notna()
        assert (sub.loc[inv, "expired_at"] == run_ts).all()
        assert sub.loc[~inv, "expired_at"].isna().all()
    # non-functional predicates never invalidated
    assert edges.loc[~edges["name"].isin(functional), "invalid_at"].isna().all()


def test_mentions_edges_match_oracle(duck, graph_out):
    men = gio.read_table_dir(graph_out, "episodic_edges").to_pandas()
    oracle = duck.sql(
        "WITH "
        + P.sql_canonical_cte()
        + """
        SELECT DISTINCT episode_uuid, entity_uuid FROM (
          SELECT episode_uuid, subj_uuid AS entity_uuid FROM gold_canon
          UNION ALL
          SELECT episode_uuid, obj_uuid FROM gold_canon
        )
        """
    ).df()
    a = set(zip(men["source_node_uuid"], men["target_node_uuid"]))
    b = set(zip(oracle["episode_uuid"], oracle["entity_uuid"]))
    assert a == b


def test_extract_phase_injected_factory(ray_session, pages_parquet, tmp_path_factory):
    """The ST1 seam through the FUSED slice-sharded extract path: an
    injected extractor factory (the hook a model/LLM-backed extractor
    like models.OpenAICompatExtractor plugs into) replaces the default
    TripleExtractor inside the shard tasks, and per-task resource args
    pass through to the stage. The class is defined in-function so
    cloudpickle ships it by VALUE into the shard closure — exactly how a
    user-defined extractor travels."""
    marker = "INJECTED_BY_FACTORY"

    class MarkerExtractor:
        def __call__(self, ep):
            import pyarrow as pa

            from graphiti_hf_ray.extract.triples import TRIPLES_SCHEMA

            n = ep.num_rows
            return pa.table(
                {
                    "episode_uuid": ep.column("uuid"),
                    "group_id": ep.column("group_id"),
                    "valid_at": ep.column("valid_at"),
                    "subj_surface": pa.array(["S"] * n),
                    "subj_label": pa.array(["Entity"] * n),
                    "pred": pa.array([marker] * n),
                    "obj_surface": pa.array(["O"] * n),
                    "obj_label": pa.array(["Entity"] * n),
                    "fact": pa.array(["S O"] * n),
                    "sent_idx": pa.array([0] * n, pa.int32()),
                },
                schema=TRIPLES_SCHEMA,
            )

    out = str(tmp_path_factory.mktemp("injected"))
    extract_phase(
        [pages_parquet], out, num_shards=4,
        extractor_factory=MarkerExtractor, extractor_resources={"num_cpus": 0.5},
    )
    tr = gio.read_table_dir(out, "triples").to_pandas()
    eps = gio.read_table_dir(out, "episodes").to_pandas()
    assert len(tr) == len(eps) > 0              # exactly one triple per episode
    assert (tr["pred"] == marker).all()


def test_extractor_factory_key_stable_across_builds():
    """The worker extractor memo is keyed by a DRIVER-minted token, not the
    deserialized factory's object identity: a service-pinned factory keeps
    one key across build_graph calls, so workers reuse the built extractor
    (weights load once per worker, not once per ingest flush)."""
    from graphiti_hf_ray.pipelines.kg import _factory_key, _worker_extractor

    class F:
        built = 0

        def __init__(self):
            F.built += 1

        def __call__(self, ep):
            return ep

    k1 = _factory_key(F)
    assert _factory_key(F) == k1            # same pinned object → same key
    assert _factory_key(None) == "default"

    class G(F):
        pass

    assert _factory_key(G) != k1            # different factory → different key

    # the memo builds once per KEY even across distinct call sites (each
    # build_graph re-pickles the closure; the key string is what persists)
    _worker_extractor(F, k1)
    n_built = F.built
    _worker_extractor(F, k1)
    assert F.built == n_built
    _worker_extractor(G, _factory_key(G))   # key change rebuilds
    assert G.built == n_built + 1


def test_resume_skips_completed_shards(ray_session, pages_parquet, tmp_path_factory):
    """Kill-mid-run model: delete one shard, re-run → only that shard is
    rewritten; other manifests untouched; tables byte-identical."""
    out = str(tmp_path_factory.mktemp("resume"))
    extract_phase([pages_parquet], out, num_shards=4)
    ref = gio.read_table_dir(out, "triples").to_pandas().sort_values("episode_uuid").reset_index(drop=True)
    shard_dirs = sorted(
        os.path.join(out, "triples", d) for d in os.listdir(os.path.join(out, "triples"))
    )
    assert len(shard_dirs) == 4
    manifests_before = {}
    for d in shard_dirs:
        with open(os.path.join(d, gio.MANIFEST)) as f:
            manifests_before[d] = json.load(f)

    shutil.rmtree(shard_dirs[2])
    extract_phase([pages_parquet], out, num_shards=4)
    after = gio.read_table_dir(out, "triples").to_pandas().sort_values("episode_uuid").reset_index(drop=True)
    pd.testing.assert_frame_equal(ref, after)
    for d in (shard_dirs[0], shard_dirs[1], shard_dirs[3]):
        with open(os.path.join(d, gio.MANIFEST)) as f:
            assert json.load(f)["written_at"] == manifests_before[d]["written_at"]
    with open(os.path.join(shard_dirs[2], gio.MANIFEST)) as f:
        assert json.load(f)["written_at"] != manifests_before[shard_dirs[2]]["written_at"]


def test_resume_reuses_persisted_shard_plan(ray_session, pages_parquet, tmp_path_factory):
    """A resumed run must slice the input EXACTLY like the first attempt
    even when the caller (or a differently-sized cluster's default) asks
    for a different num_shards — the per-fingerprint plan file pins the
    denominator, so completed shards stay valid and no page is read twice
    by the link phase."""
    out = str(tmp_path_factory.mktemp("plan"))
    extract_phase([pages_parquet], out, num_shards=6)
    ref = gio.read_table_dir(out, "triples").to_pandas()
    shard_dirs = sorted(os.listdir(os.path.join(out, "triples")))
    assert len(shard_dirs) == 6
    # simulate a crash + resume on a cluster whose default would be 3
    shutil.rmtree(os.path.join(out, "triples", shard_dirs[1]))
    extract_phase([pages_parquet], out, num_shards=3)  # conflicting request
    after_dirs = sorted(os.listdir(os.path.join(out, "triples")))
    assert after_dirs == shard_dirs  # plan won: same 6-shard layout
    after = gio.read_table_dir(out, "triples").to_pandas()
    key = ["episode_uuid", "sent_idx"]
    pd.testing.assert_frame_equal(
        ref.sort_values(key).reset_index(drop=True),
        after.sort_values(key).reset_index(drop=True),
    )


def test_multi_run_shared_urls_route_generic_mentions(ray_session, pages_parquet, graph_out, tmp_path_factory):
    """A url recurring across appended runs breaks the per-shard MENTIONS
    exactness invariant (episode ⊂ one shard FILE only holds within a
    run); the link phase must detect the multi-run layout and route
    through the generic dedup-shuffle path — no duplicate MENTIONS rows."""
    pg = pq.read_table(pages_parquet)
    half = pg.num_rows // 2
    d = tmp_path_factory.mktemp("overlap")
    p1, p2 = str(d / "p1.parquet"), str(d / "p2.parquet")
    pq.write_table(pg.slice(0, half + 2), p1)
    pq.write_table(pg.slice(half - 2), p2)  # 4 urls shared with p1

    out = str(tmp_path_factory.mktemp("overlap_graph"))
    build_graph([p1], out, num_shards=2)
    metrics = build_graph([p2], out, num_shards=2)
    assert metrics["timings"].get("mentions_path") == "generic(multi-run)"
    men = gio.read_table_dir(out, "episodic_edges").to_pandas()
    assert men["uuid"].is_unique
    # overlapping episodes carry identical content → the distinct MENTIONS
    # set equals the single full build's
    full = gio.read_table_dir(graph_out, "episodic_edges").to_pandas()
    assert set(zip(men["source_node_uuid"], men["target_node_uuid"])) == set(
        zip(full["source_node_uuid"], full["target_node_uuid"])
    )


def test_incremental_append_matches_full_build(ray_session, pages_parquet, tmp_path_factory):
    """TS8 incremental-delta model: ingesting the corpus in two batches
    (append-only episode/triple shards + global re-link) produces the SAME
    nodes/edges tables as one full build — deterministic ids make the
    upsert idempotent."""
    import pyarrow.parquet as pq_

    pg = pq_.read_table(pages_parquet)
    half = pg.num_rows // 2
    d = tmp_path_factory.mktemp("inc")
    p1, p2 = str(d / "p1.parquet"), str(d / "p2.parquet")
    pq_.write_table(pg.slice(0, half), p1)
    pq_.write_table(pg.slice(half), p2)

    out_inc = str(tmp_path_factory.mktemp("inc_graph"))
    build_graph([p1], out_inc, num_shards=2)
    build_graph([p2], out_inc, num_shards=2)  # appends new shards, re-links

    out_full = str(tmp_path_factory.mktemp("full_graph"))
    build_graph([pages_parquet], out_full, num_shards=4)

    for table in ("nodes", "edges"):
        a = gio.read_table_dir(out_inc, table).to_pandas().sort_values("uuid").reset_index(drop=True)
        b = gio.read_table_dir(out_full, table).to_pandas().sort_values("uuid").reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)


def test_full_rerun_idempotent(ray_session, pages_parquet, graph_out, tmp_path_factory):
    """Deterministic ids → a fresh full run produces identical tables."""
    out2 = str(tmp_path_factory.mktemp("rerun"))
    build_graph([pages_parquet], out2, num_shards=4)
    for table in ("nodes", "edges"):
        a = gio.read_table_dir(graph_out, table).to_pandas().sort_values("uuid").reset_index(drop=True)
        b = gio.read_table_dir(out2, table).to_pandas().sort_values("uuid").reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)


def test_output_invariant_to_shard_count(ray_session, pages_parquet, graph_out, tmp_path_factory):
    """Partitioning must not change results: a build with a different
    num_shards produces byte-identical nodes/edges (deterministic sweep
    ordering — SURVEY.md §7.4)."""
    out7 = str(tmp_path_factory.mktemp("shards7"))
    build_graph([pages_parquet], out7, num_shards=7)
    for table in ("nodes", "edges"):
        a = gio.read_table_dir(graph_out, table).to_pandas().sort_values("uuid").reset_index(drop=True)
        b = gio.read_table_dir(out7, table).to_pandas().sort_values("uuid").reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)


def test_hot_key_merge(ray_session):
    """Head-entity skew: 50k occurrences of ONE (pred, obj) bucket key with
    200 distinct subjects merge correctly (vectorized per-bucket work keeps
    a hot key at O(rows) C-speed — SURVEY.md §4 skew note)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from graphiti_hf_ray.stages.edges import merge_and_invalidate

    n = 50_000
    subj_idx = np.arange(n) % 200
    t = pa.table(
        {
            "episode_uuid": pa.array([f"ep{i:06d}" for i in range(n)]),
            "group_id": pa.array(["g0"] * n),
            "valid_at": pa.array((1704067200_000_000 + subj_idx.astype("int64") * 60_000_000), pa.timestamp("us")),
            "src_uuid": pa.array([f"s{j:03d}" for j in subj_idx]),
            "src_name": pa.array([f"S{j}" for j in subj_idx]),
            "pred": pa.array(["IS_CEO_OF"] * n),
            "obj_uuid": pa.array(["hotobj"] * n),
            "obj_name": pa.array(["HotObj"] * n),
            "fact": pa.array([f"S{j} is the CEO of HotObj." for j in subj_idx]),
        }
    )
    out = merge_and_invalidate(rd.from_arrow(t)).to_pandas()
    assert len(out) == 200  # one merged edge per distinct subject
    assert (out["n_occurrences"] == n // 200).all()
    out = out.sort_values("valid_at").reset_index(drop=True)
    # invalidation chain: every edge except the newest is invalidated by the next
    assert out["invalid_at"].iloc[:-1].notna().all()
    assert out["invalid_at"].iloc[-1] is pd.NaT or pd.isna(out["invalid_at"].iloc[-1])
    assert (out["invalid_at"].iloc[:-1].values == out["valid_at"].iloc[1:].values).all()


def test_salted_aggregate_hot_key(ray_session):
    """Salted two-round aggregation: one key with 100k rows splits across
    16 salt sub-buckets (round 1 partials) and merges to the exact global
    aggregate in round 2 — matches the unsalted pandas result."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from graphiti_hf_ray.stages.shuffle import salted_group_aggregate

    n = 100_000
    keys = np.where(np.arange(n) % 10 == 0, np.char.add("cold", (np.arange(n) % 50).astype(str)), "HOT")
    t = pa.table({"k": pa.array(keys.tolist()), "v": pa.array(np.arange(n, dtype="int64"))})

    def partial(df):
        return df.groupby("k", as_index=False).agg(s=("v", "sum"), c=("v", "size"))

    def merge(df):
        return df.groupby("k", as_index=False).agg(s=("s", "sum"), c=("c", "sum"))

    out = salted_group_aggregate(rd.from_arrow(t), ["k"], partial, merge).to_pandas()
    exp = t.to_pandas().groupby("k", as_index=False).agg(s=("v", "sum"), c=("v", "size"))
    a = out.sort_values("k").reset_index(drop=True)
    b = exp.sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(a[["k", "s", "c"]], b[["k", "s", "c"]], check_dtype=False)


def test_salted_merge_parity_forced_skew(ray_session):
    """Two-round salted dedup+invalidate is row-identical to the one-shuffle
    path on a forced-skew input: ONE object carries ~30% of all triples
    (mixed functional + non-functional preds, duplicate occurrences)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from graphiti_hf_ray.stages.edges import merge_and_invalidate

    n = 60_000
    i = np.arange(n)
    hot = i % 10 < 3  # 30% of rows on the hub object
    obj = np.where(hot, "hubobj", np.char.add("o", (i % 97).astype(str)))
    subj = np.char.add("s", (i % 400).astype(str))
    pred = np.where(i % 3 == 0, "IS_CEO_OF", "WORKS_AT")
    t = pa.table(
        {
            "episode_uuid": pa.array([f"ep{j % 5000:05d}" for j in i]),
            "group_id": pa.array(np.where(i % 2 == 0, "g0", "g1").tolist()),
            "valid_at": pa.array(1704067200_000_000 + (i.astype("int64") % 1000) * 3_600_000_000, pa.timestamp("us")),
            "src_uuid": pa.array(subj.tolist()),
            "src_name": pa.array(np.char.upper(subj).tolist()),
            "pred": pa.array(pred.tolist()),
            "obj_uuid": pa.array(obj.tolist()),
            "obj_name": pa.array(np.char.upper(obj).tolist()),
            "fact": pa.array([f"{s} {p} {o}." for s, p, o in zip(subj, pred, obj)]),
        }
    )
    plain = merge_and_invalidate(rd.from_arrow(t)).to_pandas()
    salted = merge_and_invalidate(rd.from_arrow(t), force_salted=True, num_salts=4).to_pandas()
    cols = sorted(plain.columns)
    a = plain[cols].sort_values(["uuid"]).reset_index(drop=True)
    b = salted[cols].sort_values(["uuid"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    # the hub's rows really split: >1 salt must be populated for the hub key
    h = pd.util.hash_pandas_object(
        pd.DataFrame({"group_id": ["g0"], "pred": ["WORKS_AT"], "obj_uuid": ["hubobj"]}), index=False
    )
    assert len(b) == len(a) > 0


def test_salting_trigger_end_to_end(ray_session, pages_parquet, graph_out, tmp_path_factory, monkeypatch):
    """SALT_THRESHOLD=0 forces every build through the salted path; the
    resulting graph is byte-identical to the default build."""
    from graphiti_hf_ray.pipelines import kg

    out2 = str(tmp_path_factory.mktemp("salted"))
    monkeypatch.setattr(kg, "SALT_THRESHOLD", 0)
    build_graph([pages_parquet], out2, num_shards=4)
    for table in ("nodes", "edges"):
        a = gio.read_table_dir(graph_out, table).to_pandas().sort_values("uuid").reset_index(drop=True)
        b = gio.read_table_dir(out2, table).to_pandas().sort_values("uuid").reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)


def test_fingerprint_modes_identical(ray_session, pages_parquet, tmp_path_factory):
    """Run fingerprint is identical across its three modes: parallel Ray
    tasks (session is up), serial fallback, and a plugged-in etag map."""
    from graphiti_hf_ray.pipelines.kg import _fingerprint, _input_files, _md5_file

    files = _input_files([pages_parquet])
    assert files
    fp_parallel = _fingerprint([pages_parquet])  # ray initialized → task path
    etags = {fp: _md5_file(fp) for fp in files}  # serial per-file digests
    fp_etag = _fingerprint([pages_parquet], etag_map=etags)
    # manual serial recombination (the documented combiner contract)
    import hashlib

    h = hashlib.md5()
    for fp in files:
        h.update(fp.encode())
        h.update(etags[fp].encode())
    assert fp_parallel == fp_etag == h.hexdigest()


LINK_TABLES = ("nodes", "edges", "episodic_edges", "duplicate_edges")


def _assert_link_tables_equal(expected_dir: str, got_dir: str) -> None:
    """Same schema and the same rows (order-free) in all four link tables."""
    for table in LINK_TABLES:
        a = gio.read_table_dir(expected_dir, table)
        b = gio.read_table_dir(got_dir, table)
        assert a.schema.equals(b.schema), (table, a.schema, b.schema)
        assert a.num_rows == b.num_rows > 0, table
        assert a.sort_by("uuid").equals(b.sort_by("uuid")), table


def test_canon_auto_gate_routes_distributed(ray_session, pages_parquet, graph_out, tmp_path_factory, monkeypatch):
    """The pipeline counts the distinct-mention set and auto-routes to the
    distributed canonicalization above CANON_DRIVER_MAX_MENTIONS — a
    forced tiny threshold fires the switch; the distributed route writes
    the same schemas and rows as the default driver build (the driver
    route below the gate: test_link_route_flip_matches_fresh_build)."""
    import graphiti_hf_ray.stages.canonicalize as C
    from graphiti_hf_ray.pipelines.kg import extract_phase, link_and_edges_phase

    monkeypatch.setattr(C, "CANON_DRIVER_MAX_MENTIONS", 0)
    out = str(tmp_path_factory.mktemp("graph_autogate"))
    extract_phase([pages_parquet], out, num_shards=4)
    timings: dict = {}
    link_and_edges_phase(out, timings=timings)
    assert timings["canon_path"] == "distributed(auto)"
    assert timings["mentions_path"] == "rewritten"
    _assert_link_tables_equal(graph_out, out)


def test_link_route_flip_matches_fresh_build(ray_session, pages_parquet, graph_out, tmp_path_factory, monkeypatch):
    """Below the gate the driver route runs and says so; re-linking the same
    out_dir under the other canonical-map route (driver → distributed →
    driver) replaces the earlier route's tables: every link table and the
    job metrics equal a fresh build's."""
    import graphiti_hf_ray.stages.canonicalize as C
    from graphiti_hf_ray.pipelines.kg import extract_phase, link_and_edges_phase

    out = str(tmp_path_factory.mktemp("graph_flip"))
    extract_phase([pages_parquet], out, num_shards=4)
    with open(os.path.join(graph_out, "_job_metrics.json")) as f:
        fresh_tables = json.load(f)["tables"]
    driver = (10_000_000, "driver", "per-shard")
    for gate, canon_path, mentions_path in (driver, (0, "distributed(auto)", "rewritten"), driver):
        monkeypatch.setattr(C, "CANON_DRIVER_MAX_MENTIONS", gate)
        metrics = link_and_edges_phase(out)
        assert metrics["timings"]["canon_path"] == canon_path
        assert metrics["timings"]["mentions_path"] == mentions_path
        _assert_link_tables_equal(graph_out, out)
        for table in LINK_TABLES:
            assert metrics["tables"][table]["rows"] == fresh_tables[table]["rows"], (canon_path, table)


def test_mentions_per_shard_parity_with_generic(ray_session, graph_out):
    """The zero-shuffle per-shard MENTIONS path returns row-identical
    output to the generic full-stream-dedup path (its documented
    partitioning assumption — episode ⊂ shard file — holds for every
    extract_phase output), and so does the rewritten-triples path the
    distributed link route takes."""
    import functools
    import os

    import ray
    import ray.data as rd

    from graphiti_hf_ray.stages.canonicalize import canonicalize
    from graphiti_hf_ray.stages.edges import (
        canon_map_dict,
        mentions_edges,
        mentions_edges_from_triples,
        mentions_edges_per_shard,
        rewrite_batch,
    )

    cols = ["episode_uuid", "group_id", "subj_surface", "subj_label", "obj_surface", "obj_label"]
    troot = os.path.join(graph_out, "triples")
    canon_map = canonicalize(
        rd.read_parquet(
            troot,
            columns=["group_id", "subj_surface", "subj_label", "obj_surface", "obj_label", "pred", "fact"],
        )
    )
    map_ref = ray.put(canon_map_dict(canon_map))
    run_ts_us = DEFAULT_RUN_TS_US

    a = (
        mentions_edges_per_shard(troot, map_ref, run_ts_us)
        .to_pandas()
        .sort_values("uuid")
        .reset_index(drop=True)
    )
    b = (
        mentions_edges_from_triples(rd.read_parquet(troot, columns=cols), map_ref, run_ts_us)
        .to_pandas()
        .sort_values("uuid")
        .reset_index(drop=True)
    )
    c = (
        mentions_edges(
            rd.read_parquet(troot, columns=cols).map_batches(
                functools.partial(rewrite_batch, map_ref=map_ref), batch_format="pyarrow"
            ),
            run_ts_us,
        )
        .to_pandas()
        .sort_values("uuid")
        .reset_index(drop=True)
    )
    assert len(a) > 0
    pd.testing.assert_frame_equal(a, b[a.columns])
    pd.testing.assert_frame_equal(a, c[a.columns])


def test_prepare_training_set_end_to_end(ray_session, tmp_path):
    """Corpus → training-set pipeline: each stage bites on a corpus built
    to trigger it (an exact duplicate, a contaminated doc, a wrong-language
    doc, a too-short doc, a cross-doc repeated paragraph), the packed
    output is budget-respecting and lossless vs the expected survivor
    token streams, and a rerun resumes from the manifest."""
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq
    import ray.data as rd

    from graphiti_hf_ray.pipelines.corpus import prepare_training_set

    en = ("the of and to in is was for on with " * 4).strip()  # 40 en stopwords
    para_a = " ".join(f"pa{i}" for i in range(12))
    para_b = " ".join(f"pb{i}" for i in range(12))
    bench = ["leak1 leak2 leak3 leak4 leak5 leak6 leak7 leak8"]
    docs = pd.DataFrame(
        {
            "doc_id": np.arange(7, dtype=np.int64),
            "text": [
                en + " alpha beta gamma",                       # 0: survives
                en + " alpha beta gamma",                       # 1: exact dup of 0
                en + " " + bench[0] + " tail",                  # 2: contaminated
                "el la de que en los se del las por un " * 4,   # 3: not English
                "too short",                                    # 4: length gate
                en + "\n" + para_a + "\n" + para_b,             # 5: survives
                en + " extra words here\n" + para_a,            # 6: loses para_a to 5? no — 5 < 6, 5 wins
            ],
        }
    )
    m = prepare_training_set(
        rd.from_pandas(docs),
        bench,
        str(tmp_path / "out"),
        min_tokens=5,
        max_tokens=16,
        overlap=4,
        pack_budget=32,
        collect_counts=True,
    )
    assert m["n_input"] == 7
    assert m["n_after_exact_dedup"] == 6          # doc 1 dropped
    assert m["n_after_decontam"] == 5             # doc 2 dropped
    assert m["n_after_gate"] == 3                 # docs 3 (lang) and 4 (length) dropped
    assert m["n_after_paragraph_dedup"] == 3      # doc 6 loses para_a but keeps its head

    packed = pq.read_table(str(tmp_path / "out" / "packs")).to_pandas()
    assert m["n_packs"] == len(packed) > 0
    assert (packed["n_tokens"] <= 32).all()

    # lossless coverage: each survivor doc's deduped token stream must be
    # reconstructable from its chunks (members encode doc:idx; overlap 4)
    survivors = {
        0: (en + " alpha beta gamma").split(),
        5: (en + " " + para_a + " " + para_b).split(),   # '\n' joins → split() flattens
        6: (en + " extra words here").split(),           # para_a deduped away
    }
    got: dict[int, dict[int, list[str]]] = {d: {} for d in survivors}
    for _, r in packed.iterrows():
        ms = r["members"].split(",")
        texts = r["text"].split()
        pos = 0
        for mref in ms:
            d, i = map(int, mref.split(":"))
            # reconstruct member lengths from the chunk grammar
            n = len(survivors[d])
            starts = list(range(0, max(n - 4, 1), 12))
            ln = min(16, n - starts[i])
            got[d][i] = texts[pos : pos + ln]
            pos += ln
        assert pos == len(texts)
    for d, toks in survivors.items():
        idxs = sorted(got[d])
        assert idxs == list(range(len(idxs))) and idxs, f"doc {d} chunks missing"
        rebuilt = list(got[d][0])
        for i in idxs[1:]:
            rebuilt.extend(got[d][i][4:])
        assert rebuilt == toks, f"doc {d} token stream mismatch"

    # resume: same fingerprint → manifest short-circuits, same pack count
    m2 = prepare_training_set(
        rd.from_pandas(docs),
        bench,
        str(tmp_path / "out"),
        min_tokens=5,
        max_tokens=16,
        overlap=4,
        pack_budget=32,
    )
    assert m2 == {"n_packs": m["n_packs"]}  # default: stream-only, manifest resume


def test_prepare_training_set_fuzzy_stage(ray_session, tmp_path):
    """With fuzzy_jaccard set, stage 1b drops near-duplicate docs that
    exact dedup cannot see (one survivor per MinHash cluster, min doc_id
    wins); the knob is encoded in the sink fingerprint."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from graphiti_hf_ray.pipelines.corpus import prepare_training_set

    base = " ".join(f"w{i}" for i in range(40))
    near = " ".join(f"w{i}" for i in range(39)) + " zz"   # J ≈ 0.86 vs base
    other = " ".join(f"x{i}" for i in range(40))
    docs = pd.DataFrame(
        {
            "doc_id": np.arange(3, dtype=np.int64),
            "text": [base, near, other],
        }
    )
    m = prepare_training_set(
        rd.from_pandas(docs),
        ["no overlap with the corpus at all"],
        str(tmp_path / "out"),
        fuzzy_jaccard=0.8,
        lang_allow=(),
        min_tokens=5,
        max_tokens=16,
        overlap=4,
        pack_budget=32,
        collect_counts=True,
    )
    assert m["n_after_exact_dedup"] == 3      # no exact dups
    assert m["n_after_fuzzy_dedup"] == 2      # doc 1 lost to doc 0
    assert m["fuzzy_dropped_docs"] == 1
    assert m["n_packs"] > 0

    with pytest.raises(ValueError):
        prepare_training_set(
            rd.from_pandas(docs.rename(columns={"doc_id": "id"})),
            [], str(tmp_path / "out2"), id_col="id", fuzzy_jaccard=0.8,
        )


def test_prepare_training_set_span_stage(ray_session, tmp_path):
    """With span_dedup_k set, stage 4b splices duplicated k-token regions
    out of every doc but the globally first site — boilerplate shorter
    than a paragraph, which exact and paragraph dedup both miss — and the
    packed token total shrinks by exactly the removed region."""
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq
    import ray.data as rd

    from graphiti_hf_ray.pipelines.corpus import prepare_training_set

    boiler = " ".join(f"bp{i}" for i in range(6))   # 6-token repeated region
    d0 = " ".join(f"a{i}" for i in range(10)) + " " + boiler
    d1 = " ".join(f"b{i}" for i in range(10)) + " " + boiler
    docs = pd.DataFrame(
        {"doc_id": np.array([0, 1], np.int64), "text": [d0, d1]}
    )
    m = prepare_training_set(
        rd.from_pandas(docs),
        ["no overlap with the corpus at all"],
        str(tmp_path / "out"),
        span_dedup_k=4,
        lang_allow=(),
        min_tokens=5,
        max_tokens=64,
        overlap=0,
        pack_budget=64,
        collect_counts=True,
    )
    assert m["n_after_paragraph_dedup"] == 2
    assert m["n_after_span_dedup"] == 2            # doc 1 shrinks, not dropped

    packed = pq.read_table(str(tmp_path / "out" / "packs")).to_pandas()
    all_toks = " ".join(packed["text"]).split()
    # doc 0 keeps its 16 tokens; doc 1 loses the 6-token boilerplate
    assert len(all_toks) == 16 + 10
    assert sorted(t for t in all_toks if t.startswith("bp")) == sorted(boiler.split())


def test_prepare_training_set_quality_gate(ray_session, tmp_path):
    """quality_gate=True drops docs failing the integer-exact Gopher rules
    (here: zero stopwords and sub-3 mean token length) while a 50+-token
    stopword-bearing doc sails through; off by default."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from graphiti_hf_ray.pipelines.corpus import prepare_training_set

    good = ("the quick brown fox jumps over the lazy dog and " * 6).strip()   # 60 toks, stopwords
    junk = "zz " * 60                                                          # no stopwords, mean len 2
    docs = pd.DataFrame(
        {"doc_id": np.array([0, 1], np.int64), "text": [good, junk.strip()]}
    )
    common = dict(
        lang_allow=(), min_tokens=5, max_tokens=64, overlap=0,
        pack_budget=64, collect_counts=True,
    )
    m = prepare_training_set(
        rd.from_pandas(docs), ["no overlap here"], str(tmp_path / "on"),
        quality_gate=True, **common,
    )
    assert m["n_after_gate"] == 2
    assert m["n_after_quality_gate"] == 1         # junk doc dropped
    m_off = prepare_training_set(
        rd.from_pandas(docs), ["no overlap here"], str(tmp_path / "off"), **common,
    )
    assert "n_after_quality_gate" not in m_off
    assert m_off["n_after_gate"] == 2 and m_off["n_packs"] > m["n_packs"]


def test_prepare_training_set_shuffle(ray_session, tmp_path):
    """shuffle_seed adds a rerun-stable shuffle_key and globally sorts the
    packs by it: same seed → identical order across runs, different seed →
    different order, composition (the pack set) identical either way."""
    import hashlib

    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq
    import ray.data as rd

    from graphiti_hf_ray.pipelines.corpus import prepare_training_set

    rng = np.random.default_rng(7)
    words = [f"w{i}" for i in range(200)]
    docs = pd.DataFrame(
        {
            "doc_id": np.arange(20, dtype=np.int64),
            "text": [" ".join(rng.choice(words, 30)) for _ in range(20)],
        }
    )

    def run(sub: str, seed):
        prepare_training_set(
            rd.from_pandas(docs), ["no overlap here"], str(tmp_path / sub),
            lang_allow=(), min_tokens=5, max_tokens=16, overlap=0,
            pack_budget=24, shuffle_seed=seed,
        )
        return pq.read_table(str(tmp_path / sub / "packs")).to_pandas()

    a, b, c = run("a", seed=1), run("b", seed=1), run("c", seed=2)
    assert len(a) > 3
    # the sort key is exactly md5(seed:pack_id), and the table is sorted by it
    for df, seed in ((a, 1), (c, 2)):
        expect = [
            int.from_bytes(hashlib.md5(f"{seed}:{p}".encode()).digest()[:8], "little", signed=True)
            for p in df["pack_id"]
        ]
        assert list(df["shuffle_key"]) == sorted(expect)
    assert list(a["pack_id"]) == list(b["pack_id"])          # same seed: same order
    assert list(a["pack_id"]) != list(c["pack_id"])          # new seed: reshuffled
    assert sorted(a["pack_id"]) == sorted(c["pack_id"])      # same pack set


def test_prepare_training_set_model_quality(ray_session, tmp_path):
    """model_quality_min gates on the hashed-ngram scorer's mean feature
    weight: with an injected weight vector that scores one doc's features
    negative, exactly that doc drops; off by default."""
    import hashlib

    import numpy as np
    import pandas as pd
    import ray.data as rd

    from graphiti_hf_ray.pipelines.corpus import prepare_training_set

    good = " ".join(f"g{i}" for i in range(20))
    bad = " ".join(f"b{i}" for i in range(20))
    # craft weights: buckets touched by bad-doc features get -1, all else +1
    w = np.ones(1 << 16, np.float64)
    toks = bad.split(" ")
    for f in toks + [toks[i] + " " + toks[i + 1] for i in range(len(toks) - 1)]:
        w[int(hashlib.md5(f.encode()).hexdigest()[:8], 16) % (1 << 16)] = -1.0
    docs = pd.DataFrame({"doc_id": np.array([0, 1], np.int64), "text": [good, bad]})
    common = dict(
        lang_allow=(), min_tokens=5, max_tokens=64, overlap=0,
        pack_budget=64, collect_counts=True,
    )
    m = prepare_training_set(
        rd.from_pandas(docs), ["no overlap here"], str(tmp_path / "on"),
        model_quality_min=0.0, model_quality_weights=w, **common,
    )
    assert m["n_after_gate"] == 2
    assert m["n_after_model_quality"] == 1        # bad doc dropped
    m_off = prepare_training_set(
        rd.from_pandas(docs), ["no overlap here"], str(tmp_path / "off"), **common,
    )
    assert "n_after_model_quality" not in m_off and m_off["n_after_gate"] == 2


def test_prepare_training_set_surprisal_gate(ray_session, tmp_path):
    """surprisal_max_bits drops the doc built from corpus-unique tokens
    (high mean surprisal) while the doc of corpus-common tokens passes."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from graphiti_hf_ray.pipelines.corpus import prepare_training_set

    common = " ".join(["tok"] * 20)                       # one type, huge count
    rare = " ".join(f"r{i}" for i in range(20))           # all singleton types
    docs = pd.DataFrame(
        {
            "doc_id": np.arange(6, dtype=np.int64),
            "text": [common] * 5 + [rare],
        }
    )
    # NOTE: exact dedup collapses the 5 identical common docs to one; the
    # corpus for the LM is the post-dedup stream (1 common + 1 rare doc)
    m = prepare_training_set(
        rd.from_pandas(docs), ["no overlap here"], str(tmp_path / "on"),
        lang_allow=(), min_tokens=5, max_tokens=64, overlap=0,
        pack_budget=64, collect_counts=True, surprisal_max_bits=2.0,
    )
    assert m["n_after_gate"] == 2
    assert m["n_after_surprisal"] == 1                    # rare-token doc dropped


def test_prepare_training_set_dsir(ray_session, tmp_path):
    """Stage 4b2: DSIR selection keeps exactly dsir_k docs and pulls the
    selection toward the target's n-gram distribution (the target-like
    half of a bimodal corpus wins); the knob reaches the pack fingerprint
    (a different target set rebuilds, same knobs resume)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from graphiti_hf_ray.pipelines.corpus import prepare_training_set

    rng = np.random.default_rng(3)
    sci = [f"sci{i}" for i in range(40)]
    junk = [f"sp{i}" for i in range(40)]
    target = [" ".join(rng.choice(sci, 30)) for _ in range(8)]
    docs = pd.DataFrame(
        {
            "doc_id": np.arange(24, dtype=np.int64),
            "text": [" ".join(rng.choice(sci, 30)) for _ in range(12)]
            + [" ".join(rng.choice(junk, 30)) for _ in range(12)],
        }
    )
    out = str(tmp_path / "dsir")
    common = dict(lang_allow=(), min_tokens=5, max_tokens=64, overlap=0, pack_budget=64)

    with pytest.raises(ValueError, match="together"):
        prepare_training_set(rd.from_pandas(docs), [], out, dsir_k=4, **common)

    m = prepare_training_set(
        rd.from_pandas(docs), [], out, dsir_target_texts=target, dsir_k=6,
        collect_counts=True, **common,
    )
    assert m["n_after_dsir"] == 6 and m["dsir_selected"] == 6
    # the packs hold only target-like docs (log-weight separation between
    # the two vocabularies dwarfs the Gumbel noise)
    from graphiti_hf_ray.pipelines.corpus import load_packs

    joined = " ".join(load_packs(out).to_pandas()["text"])
    assert "sci" in joined and "sp" not in joined

    # same knobs resume; a different target set rebuilds (fingerprint)
    import json as _json
    import os as _os

    with open(_os.path.join(out, "packs", "_manifest.json")) as f:
        fp1 = _json.load(f)["fingerprint"]
    prepare_training_set(
        rd.from_pandas(docs), [], out, dsir_target_texts=target, dsir_k=6, **common
    )
    with open(_os.path.join(out, "packs", "_manifest.json")) as f:
        assert _json.load(f)["fingerprint"] == fp1
    prepare_training_set(
        rd.from_pandas(docs), [], out, dsir_target_texts=target[:4], dsir_k=6, **common
    )
    with open(_os.path.join(out, "packs", "_manifest.json")) as f:
        assert _json.load(f)["fingerprint"] != fp1


def test_prepare_training_set_mixture(ray_session, tmp_path):
    """Stage 4c: per-lang weights above 1 upsample AFTER every dedup
    stage — copy counts per original doc match a mixture_sample replay,
    composite ids decode with divmod(stride), and every copy's token
    stream survives packing losslessly."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from graphiti_hf_ray.functions.sample import _hexhash
    from graphiti_hf_ray.pipelines.corpus import load_packs, prepare_training_set

    rng = np.random.default_rng(11)
    words = [f"tok{i}" for i in range(400)]
    n = 30
    docs = pd.DataFrame(
        {
            "doc_id": np.arange(n, dtype=np.int64),
            "lang": ["en", "de", "zh"] * (n // 3),
            "text": [" ".join(rng.choice(words, 10, replace=False)) for _ in range(n)],
        }
    )
    weights = {"en": 2.5, "de": 1.0}          # stride = 3; zh dropped
    out = str(tmp_path / "mix")
    m = prepare_training_set(
        rd.from_pandas(docs), ["no overlap"], out,
        lang_allow=(), min_tokens=5, max_tokens=16, overlap=0, pack_budget=32,
        mixture_weights=weights, collect_counts=True,
    )
    assert m["mixture_id_stride"] == 3
    th = format(int(0.5 * 16**8), "08x")
    expect_copies = {
        int(d): (2 + (1 if _hexhash("m", int(d))[:8] < th else 0)) if l == "en"
        else (1 if l == "de" else 0)
        for d, l in zip(docs["doc_id"], docs["lang"])
    }
    assert m["n_after_mixture"] == sum(expect_copies.values())
    packs = load_packs(out).to_pandas()
    epochs_by_orig: dict[int, list[int]] = {}
    texts_by_member: dict[tuple[int, int], str] = {}
    for _, row in packs.iterrows():
        toks = row["text"].split()
        pos = 0
        for mem in row["members"].split(","):
            comp = int(mem.split(":")[0])
            orig, epoch = divmod(comp, 3)
            epochs_by_orig.setdefault(orig, []).append(epoch)
            texts_by_member[(orig, epoch)] = " ".join(toks[pos:pos + 10])
            pos += 10
    # exact epoch MULTISET per doc: contiguous 0..count-1, no repeats
    assert {d: sorted(e) for d, e in epochs_by_orig.items()} == {
        d: list(range(c)) for d, c in expect_copies.items() if c
    }
    for (orig, epoch), text in texts_by_member.items():
        assert text == docs.loc[orig, "text"]              # lossless per copy
    # fail fast on non-integer ids, before any stage runs
    sdocs = docs.assign(doc_id=docs["doc_id"].astype(str))
    with pytest.raises(ValueError, match="integer"):
        prepare_training_set(
            rd.from_pandas(sdocs), ["x"], str(tmp_path / "bad"),
            lang_allow=(), mixture_weights=weights,
        )


def test_prepare_training_set_custom_text_col(ray_session, tmp_path):
    """text_col != 'text' is normalized once at entry and produces the
    byte-identical pack set a 'text'-named input produces."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from graphiti_hf_ray.pipelines.corpus import load_packs, prepare_training_set

    rng = np.random.default_rng(5)
    words = [f"w{i}" for i in range(120)]
    texts = [" ".join(rng.choice(words, 12, replace=False)) for _ in range(10)]
    ids = np.arange(10, dtype=np.int64)
    common = dict(lang_allow=(), min_tokens=4, max_tokens=8, overlap=0, pack_budget=16)
    prepare_training_set(
        rd.from_pandas(pd.DataFrame({"doc_id": ids, "body": texts})),
        ["no overlap"], str(tmp_path / "a"), text_col="body", **common,
    )
    prepare_training_set(
        rd.from_pandas(pd.DataFrame({"doc_id": ids, "text": texts})),
        ["no overlap"], str(tmp_path / "b"), **common,
    )
    a = load_packs(str(tmp_path / "a")).to_pandas().sort_values("pack_id").reset_index(drop=True)
    b = load_packs(str(tmp_path / "b")).to_pandas().sort_values("pack_id").reset_index(drop=True)
    assert len(a) > 0
    pd.testing.assert_frame_equal(a, b)


def test_iter_training_batches(ray_session, tmp_path):
    """Trainer batch iterator: fixed-shape int32 padding, lossless token
    round-trip vs a driver-side replay of the default tokenizer, epoch
    order from load_packs, truncation, and the injectable tokenizer."""
    import hashlib

    import numpy as np
    import pandas as pd
    import ray.data as rd

    from graphiti_hf_ray.pipelines.corpus import (
        iter_training_batches, load_packs, prepare_training_set,
    )

    rng = np.random.default_rng(7)
    words = [f"w{i}" for i in range(100)]
    docs = pd.DataFrame(
        {
            "doc_id": np.arange(12, dtype=np.int64),
            "text": [" ".join(rng.choice(words, 20)) for _ in range(12)],
        }
    )
    out = str(tmp_path / "ts")
    prepare_training_set(
        rd.from_pandas(docs), ["no overlap"], out,
        lang_allow=(), min_tokens=4, max_tokens=12, overlap=0, pack_budget=24,
    )
    packs = load_packs(out, shuffle_seed=3).to_pandas()

    def md5_id(w):
        return int.from_bytes(hashlib.md5(w.encode()).digest()[:4], "little") & 0x7FFFFFFF

    batches = list(iter_training_batches(out, batch_size=4, seq_len=24, shuffle_seed=3))
    assert sum(len(b["pack_ids"]) for b in batches) == len(packs)
    got_order = [p for b in batches for p in b["pack_ids"]]
    assert got_order == list(packs["pack_id"])                 # epoch order preserved
    flat_rows = {p: (b["input_ids"][i], b["lengths"][i])
                 for b in batches for i, p in enumerate(b["pack_ids"])}
    for _, row in packs.iterrows():
        ids, ln = flat_rows[row["pack_id"]]
        expect = [md5_id(w) for w in row["text"].split()]
        assert ids.shape == (24,) and ids.dtype == np.int32
        assert ln == len(expect)
        assert list(ids[:ln]) == expect                        # lossless
        assert (ids[ln:] == 0).all()                           # padded
    # truncation: seq_len smaller than the longest pack
    short = next(iter(iter_training_batches(out, batch_size=64, seq_len=5)))
    assert short["input_ids"].shape[1] == 5 and short["lengths"].max() == 5
    # injectable tokenizer seam
    const = next(iter(iter_training_batches(out, batch_size=64, seq_len=3,
                                            tokenize=lambda s: [1, 2])))
    assert (const["lengths"] == 2).all()
    assert (const["input_ids"][:, :2] == [1, 2]).all() and (const["input_ids"][:, 2] == 0).all()
    # approximate two-level shuffle: zero-exchange, same pack multiset,
    # reproducible per seed, permuted across seeds
    def approx_order(seed):
        return [
            p for b in iter_training_batches(
                out, batch_size=4, seq_len=24, shuffle_seed=seed,
                approx_shuffle_buffer=64,
            ) for p in b["pack_ids"]
        ]

    a1, a1b, a2 = approx_order(1), approx_order(1), approx_order(2)
    assert a1 == a1b                                       # seeded: reproducible
    assert sorted(a1) == sorted(packs["pack_id"])          # same multiset
    assert a1 != a2                                        # new seed, new order


def test_load_packs_epoch_reshuffle(ray_session, tmp_path):
    """load_packs re-keys on read: seed k reproduces exactly the order a
    write-time shuffle_seed=k would bake in, different seeds permute, and
    a stale write-time shuffle_key column is replaced."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from graphiti_hf_ray.pipelines.corpus import load_packs, prepare_training_set

    rng = np.random.default_rng(3)
    words = [f"w{i}" for i in range(200)]
    docs = pd.DataFrame(
        {
            "doc_id": np.arange(20, dtype=np.int64),
            "text": [" ".join(rng.choice(words, 30)) for _ in range(20)],
        }
    )
    common = dict(
        lang_allow=(), min_tokens=5, max_tokens=16, overlap=0, pack_budget=24,
    )
    # written UNSHUFFLED; epochs come from read-time seeds
    prepare_training_set(
        rd.from_pandas(docs), ["no overlap here"], str(tmp_path / "plain"), **common
    )
    # reference: the same corpus written WITH shuffle_seed=1
    prepare_training_set(
        rd.from_pandas(docs), ["no overlap here"], str(tmp_path / "baked"),
        shuffle_seed=1, **common,
    )
    e1 = load_packs(str(tmp_path / "plain"), shuffle_seed=1).to_pandas()
    e2 = load_packs(str(tmp_path / "plain"), shuffle_seed=2).to_pandas()
    baked = load_packs(str(tmp_path / "baked")).to_pandas()
    assert len(e1) > 3
    assert list(e1["pack_id"]) == list(baked["pack_id"])      # read-time == write-time order
    assert list(e1["pack_id"]) != list(e2["pack_id"])         # new seed: new epoch order
    assert sorted(e1["pack_id"]) == sorted(e2["pack_id"])     # same pack set
    # re-seeding a baked table replaces the stale key, doesn't stack
    re2 = load_packs(str(tmp_path / "baked"), shuffle_seed=2).to_pandas()
    assert list(re2["pack_id"]) == list(e2["pack_id"])


def test_prepare_training_set_null_text(ray_session, tmp_path):
    """A null text row flows through EVERY gate stage as an empty doc
    (LangId, Gopher, model-quality, surprisal) instead of crashing a
    remote task — the engine-wide (x or '') convention."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from graphiti_hf_ray.pipelines.corpus import prepare_training_set

    rng = np.random.default_rng(9)
    words = [f"word{i}" for i in range(80)]
    # Gopher-passing shape: >= 50 tokens, mean token length in [3, 10],
    # >= 2% stopwords (two 'the' per 60 tokens)
    texts = [
        " ".join(list(rng.choice(words, 58, replace=False)) + ["the", "the"])
        for _ in range(6)
    ] + [None]
    docs = pa.table(
        {
            "doc_id": pa.array(np.arange(7, dtype=np.int64)),
            "text": pa.array(texts, pa.string()),
        }
    )
    m = prepare_training_set(
        rd.from_arrow(docs), ["no overlap"], str(tmp_path / "nulls"),
        lang_allow=(), min_tokens=4, max_tokens=16, overlap=0, pack_budget=32,
        quality_gate=True, model_quality_min=-1e9, surprisal_max_bits=1e9,
        collect_counts=True,
    )
    assert m["n_after_gate"] == 6          # the null doc fails min_tokens, quietly
    assert m["n_packs"] > 0


def test_pages_from_jsonl_source(ray_session, pages_parquet, tmp_path_factory):
    """JSONL bulk source (S1 second format): records normalize into
    PAGES-schema parquet that feeds the UNCHANGED kg pipeline — a build
    over the converted JSONL equals a build over the same rows as parquet;
    text-only records synthesize html the pinned extractor round-trips
    exactly; timestamps parse from ISO strings and epoch seconds; bad
    records error or drop by knob."""
    import pytest

    from graphiti_hf_ray.extract.html import extract_text
    from graphiti_hf_ray.io import pages_from_jsonl

    rows = pq.read_table(pages_parquet).slice(0, 40).to_pylist()
    jd = str(tmp_path_factory.mktemp("jsonl_src"))
    jl = os.path.join(jd, "pages.jsonl")
    with open(jl, "w") as f:
        for r in rows:
            f.write(json.dumps({
                "url": r["url"],
                "warc_ts": r["warc_ts"].isoformat(),
                "html": r["html"].decode("utf-8"),
                "lang": r["lang"],
                "group_id": r["group_id"],
            }) + "\n")

    pages_dir = str(tmp_path_factory.mktemp("jsonl_pages"))
    paths = pages_from_jsonl(jl, os.path.join(pages_dir, "pages"))
    out_j = str(tmp_path_factory.mktemp("jsonl_graph"))
    build_graph(paths, out_j, num_shards=2)

    # reference build over the SAME 40 rows as native parquet
    import pyarrow as pa

    ppath = os.path.join(jd, "pages40.parquet")
    pq.write_table(pq.read_table(pages_parquet).slice(0, 40), ppath)
    out_p = str(tmp_path_factory.mktemp("pq_graph"))
    build_graph([ppath], out_p, num_shards=2)
    for table in ("episodes", "nodes", "edges", "episodic_edges"):
        a = gio.read_table_dir(out_j, table).to_pandas().sort_values("uuid").reset_index(drop=True)
        b = gio.read_table_dir(out_p, table).to_pandas().sort_values("uuid").reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)

    # text-only + epoch-seconds records: synthesized html round-trips the
    # text through the frozen extractor; lang defaults; µs exact
    jl2 = os.path.join(jd, "textonly.jsonl")
    with open(jl2, "w") as f:
        f.write(json.dumps({"url": "https://x.test/a", "warc_ts": 1_700_000_000,
                            "text": "hello & <world>\nsecond line"}) + "\n")
        f.write(json.dumps({"url": "https://x.test/b", "warc_ts": 1_700_000_000.25,
                            "text": ""}) + "\n")
    d2 = os.path.join(pages_dir, "textonly")
    pages_from_jsonl(jl2, d2)
    t2 = pq.read_table(d2).to_pandas().sort_values("url").reset_index(drop=True)
    assert extract_text(t2["html"][0]) == "hello & <world>\nsecond line"
    assert extract_text(t2["html"][1]) == ""
    assert list(t2["lang"]) == ["en", "en"]
    assert int(t2["warc_ts"][0].timestamp()) == 1_700_000_000
    assert t2["warc_ts"][1].microsecond == 250_000

    # bad records: error by default, drop by knob (manifest rows = survivors)
    jl3 = os.path.join(jd, "bad.jsonl")
    with open(jl3, "w") as f:
        f.write(json.dumps({"url": "https://x.test/ok", "warc_ts": 1, "text": "t"}) + "\n")
        f.write(json.dumps({"warc_ts": 2, "text": "no url"}) + "\n")
        f.write(json.dumps({"url": "https://x.test/nopayload", "warc_ts": 3}) + "\n")
    with pytest.raises(Exception, match="invalid jsonl"):
        pages_from_jsonl(jl3, os.path.join(pages_dir, "bad_err"))
    d3 = os.path.join(pages_dir, "bad_drop")
    pages_from_jsonl(jl3, d3, on_bad="drop")
    assert pq.read_table(d3).num_rows == 1
    with open(os.path.join(d3, gio.MANIFEST)) as f:
        assert json.load(f)["rows"] == 1


def test_pages_from_jsonl_edge_contracts(ray_session, tmp_path_factory):
    """The tolerant edges of the JSONL source: offset/garbage timestamps,
    mixed with/without-group_id files, group-format validation, and the
    content (not name+size) default fingerprint."""
    import pytest

    from graphiti_hf_ray.io import MANIFEST, pages_from_jsonl

    jd = str(tmp_path_factory.mktemp("jsonl_edge"))
    # file 1: no group_id key at all; sub-second Z + explicit-offset stamps
    f1 = os.path.join(jd, "a.jsonl")
    with open(f1, "w") as f:
        f.write(json.dumps({"url": "https://e.test/1", "text": "t1",
                            "warc_ts": "2023-01-01T00:00:00.123456Z"}) + "\n")
        f.write(json.dumps({"url": "https://e.test/2", "text": "t2",
                            "warc_ts": "2023-01-01T05:30:00+05:30"}) + "\n")
    # file 2: group_id present
    f2 = os.path.join(jd, "b.jsonl")
    with open(f2, "w") as f:
        f.write(json.dumps({"url": "https://e.test/3", "text": "t3",
                            "warc_ts": 1_672_531_200, "group_id": "mygroup"}) + "\n")
    out = os.path.join(jd, "pages")
    pages_from_jsonl([f1, f2], out)
    t = pq.read_table(out).to_pandas().sort_values("url").reset_index(drop=True)
    # offsets normalize to UTC; sub-second survives to µs
    assert t["warc_ts"][0].microsecond == 123456
    assert str(t["warc_ts"][1]) == "2023-01-01 00:00:00"
    assert str(t["warc_ts"][2]) == "2023-01-01 00:00:00"
    # file-2's explicit group survives; file-1 rows get the episode stage's
    # own url-hash default (2 hex chars), not nulls and not an error
    assert t["group_id"][2] == "mygroup"
    assert all(len(g) == 2 for g in t["group_id"][:2])

    # garbage timestamp and bad group format are invalid RECORDS (droppable),
    # not job crashes
    f3 = os.path.join(jd, "c.jsonl")
    with open(f3, "w") as f:
        f.write(json.dumps({"url": "https://e.test/ok", "warc_ts": 1, "text": "t"}) + "\n")
        f.write(json.dumps({"url": "https://e.test/badts", "warc_ts": "not a time",
                            "text": "t"}) + "\n")
        f.write(json.dumps({"url": "https://e.test/badgroup", "warc_ts": 2, "text": "t",
                            "group_id": "no spaces!"}) + "\n")
    with pytest.raises(Exception, match="invalid jsonl"):
        pages_from_jsonl(f3, os.path.join(jd, "err"))
    d3 = os.path.join(jd, "dropped")
    pages_from_jsonl(f3, d3, on_bad="drop")
    assert pq.read_table(d3).to_pandas()["url"].tolist() == ["https://e.test/ok"]

    # the default fingerprint digests CONTENT: a same-size edit re-converts
    f4 = os.path.join(jd, "d.jsonl")
    with open(f4, "w") as f:
        f.write(json.dumps({"url": "https://e.test/x", "warc_ts": 1, "text": "AAA"}) + "\n")
    d4 = os.path.join(jd, "refp")
    pages_from_jsonl(f4, d4)
    with open(os.path.join(d4, MANIFEST)) as f:
        fp_before = json.load(f)["fingerprint"]
    with open(f4, "w") as f:  # same byte size, different content
        f.write(json.dumps({"url": "https://e.test/x", "warc_ts": 1, "text": "BBB"}) + "\n")
    pages_from_jsonl(f4, d4)
    with open(os.path.join(d4, MANIFEST)) as f:
        fp_after = json.load(f)["fingerprint"]
    assert fp_after != fp_before
    assert pq.read_table(d4).to_pandas()["text"].tolist() == ["BBB"]


def _warc_record(wtype: str, url: str | None, date: str | None, http: bytes | None, extra: str = "") -> bytes:
    heads = [f"WARC-Type: {wtype}"]
    if url:
        heads.append(f"WARC-Target-URI: {url}")
    if date:
        heads.append(f"WARC-Date: {date}")
    if extra:
        heads.append(extra)
    body = http or b""
    heads.append(f"Content-Length: {len(body)}")
    return ("WARC/1.0\r\n" + "\r\n".join(heads) + "\r\n\r\n").encode() + body + b"\r\n\r\n"


def test_pages_from_warc_source(ray_session, tmp_path_factory):
    """WARC source: response records with text/html payloads become pages
    (url, UTC µs warc_ts, html body the pinned extractor consumes);
    warcinfo/request/non-html records skip; per-record-gzip multi-member
    streams read transparently; the converted table drives the unchanged
    KG build."""
    import gzip

    from graphiti_hf_ray.extract.html import extract_text
    from graphiti_hf_ray.io import pages_from_warc

    html1 = b"<html><body><p>Alice Smith works at Acme Corp.</p></body></html>"
    html2 = b"<html><body><p>Bob Jones lives in Berlin.</p></body></html>"
    http1 = b"HTTP/1.1 200 OK\r\nContent-Type: text/html; charset=utf-8\r\n\r\n" + html1
    http2 = b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\n" + html2
    http_png = b"HTTP/1.1 200 OK\r\nContent-Type: image/png\r\n\r\n\x89PNG"
    recs = [
        _warc_record("warcinfo", None, None, b"software: test\r\n"),
        _warc_record("request", "https://w.test/1", "2024-03-01T00:00:00Z", b"GET / HTTP/1.1\r\n\r\n"),
        _warc_record("response", "https://w.test/1", "2024-03-01T00:00:00Z", http1),
        _warc_record("response", "https://w.test/2", "2024-03-01T05:30:00+05:30", http2),
        _warc_record("response", "https://w.test/3", "2024-03-01T00:00:00Z", http_png),
        _warc_record("response", None, "2024-03-01T00:00:00Z", http1),  # no URI → skip
    ]
    jd = str(tmp_path_factory.mktemp("warc_src"))
    plain = os.path.join(jd, "a.warc")
    with open(plain, "wb") as f:
        f.write(b"".join(recs))
    gz = os.path.join(jd, "b.warc.gz")
    with open(gz, "wb") as f:  # per-record gzip members, like Common Crawl
        for r in recs:
            f.write(gzip.compress(r))

    for src in (plain, gz):
        out = os.path.join(jd, os.path.basename(src) + ".pages")
        # the no-URI response is a bad record: droppable, error by default
        pages_from_warc(src, out, on_bad="drop")
        t = pq.read_table(out).to_pandas().sort_values("url").reset_index(drop=True)
        assert t["url"].tolist() == ["https://w.test/1", "https://w.test/2"]
        assert extract_text(t["html"][0]) == "Alice Smith works at Acme Corp."
        assert extract_text(t["html"][1]) == "Bob Jones lives in Berlin."
        # offset form normalized to the same UTC instant
        assert str(t["warc_ts"][0]) == str(t["warc_ts"][1]) == "2024-03-01 00:00:00"
        assert all(len(g) == 2 for g in t["group_id"])

    # the converted table drives the unchanged pipeline end to end
    g = str(tmp_path_factory.mktemp("warc_graph"))
    build_graph([os.path.join(jd, "a.warc.pages")], g, num_shards=2)
    eps = gio.read_table_dir(g, "episodes").to_pandas()
    assert sorted(eps["content"]) == [
        "Alice Smith works at Acme Corp.", "Bob Jones lives in Berlin.",
    ]
    assert gio.read_table_dir(g, "nodes").to_pandas()["name"].str.len().min() > 0


def test_pages_from_warc_edge_contracts(ray_session, tmp_path_factory):
    """The wire-form edges of the WARC source: chunked framing de-framed,
    gzip/deflate Content-Encoding decompressed, the Content-Type filter
    reads the actual header line (untyped responses and 'text/html'
    appearing in OTHER headers don't leak through), bad records follow
    on_bad (error raises with file context, drop skips), and structural
    corruption (torn payload, non-numeric Content-Length) always raises."""
    import gzip
    import zlib

    import pytest

    from graphiti_hf_ray.extract.html import extract_text
    from graphiti_hf_ray.io import pages_from_warc

    jd = str(tmp_path_factory.mktemp("warc_edge"))
    html = b"<html><body><p>Carol Park works at Initech.</p></body></html>"

    def chunked(b: bytes) -> bytes:
        return b"%x\r\n" % len(b[:7]) + b[:7] + b"\r\n" + b"%x\r\n" % len(b[7:]) + b[7:] + b"\r\n0\r\n\r\n"

    http_chunked = (b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n"
                    b"Transfer-Encoding: chunked\r\n\r\n" + chunked(html))
    http_gzip = (b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n"
                 b"Content-Encoding: gzip\r\n\r\n" + gzip.compress(html))
    http_deflate = (b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n"
                    b"Content-Encoding: deflate\r\n\r\n" + zlib.compress(html))
    # wire-form composition: chunked framing AROUND a gzip body
    http_both = (b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n"
                 b"Content-Encoding: gzip\r\nTransfer-Encoding: chunked\r\n\r\n"
                 + chunked(gzip.compress(html)))
    # untyped response and a text/html mention in a DIFFERENT header: both skip
    http_untyped = b"HTTP/1.1 200 OK\r\nServer: x\r\n\r\n" + html
    http_decoy = (b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n"
                  b"X-Original-Content-Type: text/html\r\n\r\nplain text")
    ok = os.path.join(jd, "ok.warc")
    with open(ok, "wb") as f:
        f.write(_warc_record("response", "https://wf.test/chunked", "2024-03-01T00:00:00Z", http_chunked))
        f.write(_warc_record("response", "https://wf.test/gzip", "2024-03-01T00:00:01Z", http_gzip))
        f.write(_warc_record("response", "https://wf.test/deflate", "2024-03-01T00:00:02Z", http_deflate))
        f.write(_warc_record("response", "https://wf.test/both", "2024-03-01T00:00:03Z", http_both))
        f.write(_warc_record("response", "https://wf.test/untyped", "2024-03-01T00:00:04Z", http_untyped))
        f.write(_warc_record("response", "https://wf.test/decoy", "2024-03-01T00:00:05Z", http_decoy))
    out = os.path.join(jd, "ok.pages")
    pages_from_warc(ok, out)  # default on_bad='error': nothing here is bad
    t = pq.read_table(out).to_pandas().sort_values("url").reset_index(drop=True)
    assert t["url"].tolist() == [
        "https://wf.test/both", "https://wf.test/chunked",
        "https://wf.test/deflate", "https://wf.test/gzip",
    ]
    for b in t["html"]:
        assert extract_text(b) == "Carol Park works at Initech."

    # bad records: unparseable WARC-Date, unsupported Content-Encoding
    badf = os.path.join(jd, "bad.warc")
    http_ok = b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\n" + html
    http_br = (b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n"
               b"Content-Encoding: br\r\n\r\n\x00\x01")
    with open(badf, "wb") as f:
        f.write(_warc_record("response", "https://wf.test/good", "2024-03-01T00:00:00Z", http_ok))
        f.write(_warc_record("response", "https://wf.test/baddate", "20240301000000", http_ok))
        f.write(_warc_record("response", "https://wf.test/br", "2024-03-01T00:00:01Z", http_br))
    with pytest.raises(Exception, match="bad WARC record"):
        pages_from_warc(badf, os.path.join(jd, "err"))
    dropped = os.path.join(jd, "dropped.pages")
    pages_from_warc(badf, dropped, on_bad="drop")
    td = pq.read_table(dropped)
    assert td.column("url").to_pylist() == ["https://wf.test/good"]

    # structural corruption always raises, even with on_bad='drop':
    # a payload torn by EOF ...
    torn = os.path.join(jd, "torn.warc")
    rec = _warc_record("response", "https://wf.test/torn", "2024-03-01T00:00:00Z", http_ok)
    with open(torn, "wb") as f:
        f.write(rec[: len(rec) - 30])
    with pytest.raises(Exception, match="truncated WARC record"):
        pages_from_warc(torn, os.path.join(jd, "torn_out"), on_bad="drop")
    # ... and a non-numeric Content-Length
    badlen = os.path.join(jd, "badlen.warc")
    with open(badlen, "wb") as f:
        f.write(b"WARC/1.0\r\nWARC-Type: response\r\nContent-Length: abc\r\n\r\n")
    with pytest.raises(Exception, match="non-numeric WARC Content-Length"):
        pages_from_warc(badlen, os.path.join(jd, "badlen_out"), on_bad="drop")


def test_pages_from_wet_source(ray_session, tmp_path_factory):
    """WET dumps (Common Crawl's pre-extracted text: WARC-Type conversion,
    text/plain payload, no HTTP envelope) flow through the same reader:
    payload fills text, the synthesized html round-trips it exactly
    through the pinned extractor, WARC-Identified-Content-Language's
    first tag becomes lang (ISO-639-3 normalized to the engine's 639-1
    vocabulary), non-plain and untyped conversions skip, and the
    converted table drives the unchanged KG build."""
    import gzip

    from graphiti_hf_ray.extract.html import extract_text
    from graphiti_hf_ray.io import pages_from_warc

    def wet_record(url, date, text, extra=""):
        ct = "Content-Type: text/plain" + (f"\r\n{extra}" if extra else "")
        return _warc_record("conversion", url, date, text.encode("utf-8"), extra=ct)

    jd = str(tmp_path_factory.mktemp("wet_src"))
    t1 = "Alice Smith works at Acme Corp.\nBob Jones lives in Berlin."
    recs = [
        _warc_record("warcinfo", None, None, b"software: wet-test\r\n"),
        wet_record("https://wet.test/1", "2024-03-01T00:00:00Z", t1,
                   extra="WARC-Identified-Content-Language: eng,deu"),
        wet_record("https://wet.test/2", "2024-03-01T05:30:00+05:30", "Carol Park works at Initech."),
    ]
    # conversion records that are NOT text/plain — typed otherwise or
    # untyped — skip by design
    nonplain = wet_record("https://wet.test/skip", "2024-03-01T00:00:00Z", "x")
    recs.append(nonplain.replace(b"Content-Type: text/plain", b"Content-Type: application/pdf"))
    recs.append(_warc_record("conversion", "https://wet.test/untyped",
                             "2024-03-01T00:00:00Z", b"binary transform"))
    wet = os.path.join(jd, "a.warc.wet.gz")
    with open(wet, "wb") as f:  # per-record gzip members, like Common Crawl
        for r in recs:
            f.write(gzip.compress(r))

    out = os.path.join(jd, "pages")
    pages_from_warc(wet, out)  # nothing here is bad: error default holds
    t = pq.read_table(out).to_pandas().sort_values("url").reset_index(drop=True)
    assert t["url"].tolist() == ["https://wet.test/1", "https://wet.test/2"]
    assert t["text"][0] == t1
    # the synthesized html round-trips the WET text byte-exactly
    assert extract_text(t["html"][0]) == t1
    # CC's ISO-639-3 tag normalizes into the engine's 639-1 vocabulary
    assert t["lang"].tolist() == ["en", "en"]
    assert str(t["warc_ts"][1]) == "2024-03-01 00:00:00"  # offset → UTC

    g = str(tmp_path_factory.mktemp("wet_graph"))
    build_graph([out], g, num_shards=2)
    nodes = gio.read_table_dir(g, "nodes").to_pandas()
    assert {"Alice Smith", "Acme Corp", "Carol Park"} <= set(nodes["name"])


def test_build_graph_no_entities(ray_session, tmp_path_factory):
    """A corpus whose extraction finds NO entity mentions is a valid input:
    the build completes with episodes written and empty global tables
    (regression: the empty mentions frame used to lose its column names
    and crash the blocking kernel with KeyError 'group_id')."""
    import pyarrow as pa

    from graphiti_hf_ray.schemas import PAGES

    d = str(tmp_path_factory.mktemp("noent"))
    rows = {
        "url": [f"https://n.test/{i}" for i in range(3)],
        "warc_ts": [1_700_000_000_000_000 + i for i in range(3)],
        "html": [f"<html><body><p>nothing recognizable here {i}</p></body></html>".encode()
                 for i in range(3)],
        "text": ["", "", ""],
        "lang": ["en"] * 3,
    }
    p = os.path.join(d, "pages.parquet")
    pq.write_table(pa.table(rows, schema=PAGES), p)
    m = build_graph([p], os.path.join(d, "g"), num_shards=2)
    counts = {k: v["rows"] for k, v in m["tables"].items()}
    assert counts["episodes"] == 3
    assert counts["nodes"] == 0 and counts["edges"] == 0 and counts["episodic_edges"] == 0
    assert gio.read_table_dir(os.path.join(d, "g"), "episodes").num_rows == 3


def test_append_training_set(ray_session, tmp_path):
    """Incremental corpus append: base prepare(track_doc_keys=True), then
    a batch mixing a base duplicate (anti-joined away), a within-batch
    duplicate pair, a benchmark-contaminated doc, a too-short doc, and a
    genuinely new doc. Appended packs land beside the base set, the union
    serves through load_packs, doc_keys grows by every genuinely-new
    distinct text, and re-running the same append is a manifest no-op."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from graphiti_hf_ray.pipelines.corpus import (
        append_training_set,
        load_packs,
        prepare_training_set,
    )

    rng = np.random.default_rng(5)
    words = [f"w{i}" for i in range(100)]
    mk = lambda: " ".join(rng.choice(words, 25))  # noqa: E731
    base_texts = [mk() for _ in range(10)]
    bench = [mk()]
    base = pd.DataFrame({"doc_id": np.arange(10, dtype=np.int64), "text": base_texts})
    out = str(tmp_path / "tset")
    common = dict(lang_allow=(), min_tokens=5, max_tokens=16, overlap=0, pack_budget=24)
    m0 = prepare_training_set(
        rd.from_pandas(base), bench, out, track_doc_keys=True, **common
    )
    assert m0["n_doc_keys"] == 10
    n_base_packs = m0["n_packs"]

    new_doc = mk()
    dup_pair = mk()
    batch = pd.DataFrame(
        {
            "doc_id": np.arange(100, 106, dtype=np.int64),
            "text": [
                base_texts[3],     # exact dup of base → anti-joined
                dup_pair, dup_pair,  # within-batch dup pair → one survives
                bench[0],          # contaminated → decontam drops it
                "too short",       # length gate drops it
                new_doc,           # survives to packs
            ],
        }
    )
    m1 = append_training_set(
        rd.from_pandas(batch), bench, out, fingerprint="batch-1", **common
    )
    # genuinely-new distinct texts: dup_pair, bench[0], "too short", new_doc
    assert m1["n_new_doc_keys"] == 4
    assert m1["n_packs_appended"] >= 1

    union = load_packs(out).to_pandas()
    assert len(union) == n_base_packs + m1["n_packs_appended"]
    assert union["pack_id"].is_unique  # salted append ids can't collide
    joined = " ".join(union["text"])
    assert new_doc in joined and dup_pair in joined
    assert bench[0] not in joined.replace(new_doc, "").replace(dup_pair, "")

    # idempotence: same batch + same fingerprint = manifest no-op
    m2 = append_training_set(
        rd.from_pandas(batch), bench, out, fingerprint="batch-1", **common
    )
    assert m2 == m1
    assert len(load_packs(out).to_pandas()) == len(union)

    # same TEXTS under a new fingerprint: everything already seen → empty
    m3 = append_training_set(
        rd.from_pandas(batch), bench, out, fingerprint="batch-2", **common
    )
    assert m3 == {"n_packs_appended": 0, "n_new_doc_keys": 0}

    # seeded read over the union still reproduces per seed
    e1 = list(load_packs(out, shuffle_seed=1).to_pandas()["pack_id"])
    e1b = list(load_packs(out, shuffle_seed=1).to_pandas()["pack_id"])
    assert e1 == e1b and sorted(e1) == sorted(union["pack_id"])


def test_append_training_set_fuzzy(ray_session, tmp_path):
    """Near-dup append screening (track_minhash_jaccard): the doc_keys
    state carries signatures, a batch doc near a base doc is dropped by the
    CROSS-run screen, a within-batch near-dup pair keeps one winner, the
    counts land in the metrics and the pack manifest (idempotent re-run
    echoes them), and batch 2 is screened against batch 1's appended
    signatures."""
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq
    import ray.data as rd

    from graphiti_hf_ray.pipelines.corpus import (
        append_training_set,
        load_packs,
        prepare_training_set,
    )

    rng = np.random.default_rng(7)
    words = [f"w{i}" for i in range(200)]
    mk = lambda: " ".join(rng.choice(words, 200))  # noqa: E731

    def mutate(t: str, pos: int) -> str:
        toks = t.split(" ")
        toks[pos] = "zzz_mut"
        return " ".join(toks)

    base_texts = [mk() for _ in range(8)]
    base = pd.DataFrame({"doc_id": np.arange(8, dtype=np.int64), "text": base_texts})
    out = str(tmp_path / "tset")
    common = dict(lang_allow=(), min_tokens=5, max_tokens=64, overlap=0, pack_budget=128)

    with pytest.raises(ValueError, match="track_doc_keys"):
        prepare_training_set(rd.from_pandas(base), [], out, track_minhash_jaccard=0.7, **common)

    m0 = prepare_training_set(
        rd.from_pandas(base), [], out, track_doc_keys=True, track_minhash_jaccard=0.7, **common
    )
    assert m0["n_doc_keys"] == 8
    kpart = next(
        f for f in sorted((tmp_path / "tset" / "doc_keys" / "base").iterdir())
        if f.suffix == ".parquet"
    )
    assert {"fp", "band_keys", "sig"} <= set(pq.read_schema(str(kpart)).names)

    wb = mk()
    new_doc = mk()
    batch = pd.DataFrame(
        {
            "doc_id": np.arange(100, 105, dtype=np.int64),
            "text": [
                base_texts[1],        # exact dup of base → anti-joined
                mutate(base_texts[3], 100),  # near-dup of base → CROSS screen
                wb, mutate(wb, 50),   # within-batch near-dup pair → one survives
                new_doc,              # survives to packs
            ],
        }
    )
    m1 = append_training_set(rd.from_pandas(batch), [], out, fingerprint="batch-1", **common)
    assert m1["cross_fuzzy_dropped_docs"] == 1
    assert m1["fuzzy_dropped_docs"] == 1
    assert m1["n_new_doc_keys"] == 4  # both mutants + wb + new_doc are new fps
    assert m1["n_packs_appended"] >= 1

    joined = " ".join(load_packs(out).to_pandas()["text"])
    assert new_doc[:120] in joined and wb[:120] in joined
    assert "zzz_mut" not in joined  # both near-dup mutants dropped

    # idempotence echoes the recorded screen metrics
    m2 = append_training_set(rd.from_pandas(batch), [], out, fingerprint="batch-1", **common)
    assert m2 == m1

    # batch 2: near-dup of wb — wb's signature entered the state via
    # batch 1's keys extension, so the cross screen catches it
    batch2 = pd.DataFrame(
        {"doc_id": np.array([200, 201], dtype=np.int64), "text": [mutate(wb, 10), mk()]}
    )
    m3 = append_training_set(rd.from_pandas(batch2), [], out, fingerprint="batch-2", **common)
    assert m3["cross_fuzzy_dropped_docs"] == 1
    assert m3["n_packs_appended"] >= 1

    # id_col contract is validated before anything destructive
    with pytest.raises(ValueError, match="id_col='doc_id'"):
        append_training_set(
            rd.from_pandas(batch2.rename(columns={"doc_id": "rid"})), [], out,
            fingerprint="batch-3", id_col="rid", **common,
        )


def test_append_minhash_toggle_sweeps_appends(ray_session, tmp_path):
    """Toggling track_minhash_jaccard on a set with existing appends
    sweeps every append slot (packs AND keys): stranded pack slots would
    otherwise serve docs the rebuilt seen-set no longer masks and
    deadlock every batch's re-run on the half-written check. After the
    toggle, the swept batch re-appends cleanly and a near-dup of the
    BASE is now screened."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from graphiti_hf_ray.pipelines.corpus import (
        append_training_set,
        load_packs,
        prepare_training_set,
    )

    rng = np.random.default_rng(9)
    words = [f"w{i}" for i in range(200)]
    mk = lambda: " ".join(rng.choice(words, 200))  # noqa: E731
    base_texts = [mk() for _ in range(6)]
    base = pd.DataFrame({"doc_id": np.arange(6, dtype=np.int64), "text": base_texts})
    out = str(tmp_path / "tset")
    common = dict(lang_allow=(), min_tokens=5, max_tokens=64, overlap=0, pack_budget=128)

    prepare_training_set(rd.from_pandas(base), [], out, track_doc_keys=True, **common)
    b1 = mk()
    m1 = append_training_set(
        rd.from_pandas(pd.DataFrame({"doc_id": np.array([100], dtype=np.int64), "text": [b1]})),
        [], out, fingerprint="batch-1", **common,
    )
    assert m1["n_packs_appended"] >= 1
    n_with_append = len(load_packs(out).to_pandas())

    # the toggle: same pack knobs, signature state on → append slots gone
    prepare_training_set(
        rd.from_pandas(base), [], out, track_doc_keys=True,
        track_minhash_jaccard=0.7, **common,
    )
    assert len(load_packs(out).to_pandas()) < n_with_append  # batch-1 swept

    # batch-1 re-appends cleanly (no half-written deadlock), and its doc
    # is genuinely re-screened (not masked by stale keys)
    m1b = append_training_set(
        rd.from_pandas(pd.DataFrame({"doc_id": np.array([100], dtype=np.int64), "text": [b1]})),
        [], out, fingerprint="batch-1", **common,
    )
    assert m1b["n_packs_appended"] >= 1 and m1b["cross_fuzzy_dropped_docs"] == 0

    # the rebuilt state screens near-dups of the base now
    toks = base_texts[0].split(" ")
    toks[50] = "zzz_mut"
    m2 = append_training_set(
        rd.from_pandas(
            pd.DataFrame({"doc_id": np.array([200], dtype=np.int64), "text": [" ".join(toks)]})
        ),
        [], out, fingerprint="batch-2", **common,
    )
    assert m2["cross_fuzzy_dropped_docs"] == 1 and m2["n_packs_appended"] == 0


def test_append_training_set_preconditions(ray_session, tmp_path):
    import numpy as np
    import pandas as pd
    import pytest as _pytest
    import ray.data as rd

    from graphiti_hf_ray.pipelines.corpus import append_training_set, prepare_training_set

    docs = pd.DataFrame(
        {"doc_id": np.arange(6, dtype=np.int64), "text": [f"doc {i} " + "tok " * 8 for i in range(6)]}
    )
    common = dict(lang_allow=(), min_tokens=5, max_tokens=16, overlap=0, pack_budget=24)

    with _pytest.raises(ValueError, match="no completed pack set"):
        append_training_set(rd.from_pandas(docs), [], str(tmp_path / "missing"), fingerprint="x", **common)

    no_keys = str(tmp_path / "nokeys")
    prepare_training_set(rd.from_pandas(docs), [], no_keys, **common)
    with _pytest.raises(ValueError, match="doc_keys"):
        append_training_set(rd.from_pandas(docs), [], no_keys, fingerprint="x", **common)

    baked = str(tmp_path / "baked")
    prepare_training_set(
        rd.from_pandas(docs), [], baked, track_doc_keys=True, shuffle_seed=7, **common
    )
    with _pytest.raises(ValueError, match="shuffle_seed"):
        append_training_set(rd.from_pandas(docs), [], baked, fingerprint="x", **common)

    # knob parity is validated from the base manifest's stamp, not trusted
    ok = str(tmp_path / "ok")
    prepare_training_set(rd.from_pandas(docs), [], ok, track_doc_keys=True, **common)
    with _pytest.raises(ValueError, match="append knobs"):
        append_training_set(
            rd.from_pandas(docs), [], ok, fingerprint="x", **{**common, "pack_budget": 32}
        )
    with _pytest.raises(ValueError, match="non-empty string"):
        append_training_set(rd.from_pandas(docs), [], ok, fingerprint="", **common)


def test_append_training_set_stale_doc_keys(ray_session, tmp_path):
    """A re-prepare that rebuilds the packs WITHOUT track_doc_keys leaves
    doc_keys/base carrying the old fingerprint; appending against that
    stale state must error (not silently anti-join every doc away)."""
    import numpy as np
    import pandas as pd
    import pytest as _pytest
    import ray.data as rd

    from graphiti_hf_ray.pipelines.corpus import append_training_set, prepare_training_set

    docs = pd.DataFrame(
        {"doc_id": np.arange(6, dtype=np.int64), "text": [f"doc {i} " + "tok " * 8 for i in range(6)]}
    )
    out = str(tmp_path / "tset")
    common = dict(lang_allow=(), max_tokens=16, overlap=0, pack_budget=24)
    prepare_training_set(rd.from_pandas(docs), [], out, track_doc_keys=True, min_tokens=5, **common)
    # changed knob (min_tokens) rebuilds the packs under a new fingerprint;
    # the flag is off so doc_keys/base keeps the OLD fingerprint
    prepare_training_set(rd.from_pandas(docs), [], out, min_tokens=4, **common)
    with _pytest.raises(ValueError, match="stale"):
        append_training_set(
            rd.from_pandas(docs), [], out, fingerprint="b1", min_tokens=4, **common
        )


def test_append_training_set_rebatch_on_knob_change(ray_session, tmp_path):
    """Re-running the same batch NAME with changed benchmark texts rebuilds
    that batch in place: the slot's old packs AND keys are swept, so the
    batch's own docs are re-screened under the new benchmark instead of the
    old packs being served beside an empty new append."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from graphiti_hf_ray.pipelines.corpus import (
        append_training_set,
        load_packs,
        prepare_training_set,
    )

    rng = np.random.default_rng(11)
    words = [f"w{i}" for i in range(100)]
    mk = lambda: " ".join(rng.choice(words, 25))  # noqa: E731
    base = pd.DataFrame({"doc_id": np.arange(4, dtype=np.int64), "text": [mk() for _ in range(4)]})
    out = str(tmp_path / "tset")
    common = dict(lang_allow=(), min_tokens=5, max_tokens=16, overlap=0, pack_budget=24)
    m0 = prepare_training_set(rd.from_pandas(base), [], out, track_doc_keys=True, **common)

    doc_a, doc_b = mk(), mk()
    batch = pd.DataFrame({"doc_id": np.array([100, 101], dtype=np.int64), "text": [doc_a, doc_b]})
    m1 = append_training_set(rd.from_pandas(batch), [], out, fingerprint="crawl-1", **common)
    assert m1["n_new_doc_keys"] == 2
    assert doc_a in " ".join(load_packs(out).to_pandas()["text"])

    # benchmark v2 now contains doc_a: same NAME, new knobs → rebuild
    m2 = append_training_set(
        rd.from_pandas(batch), [doc_a], out, fingerprint="crawl-1", **common
    )
    assert m2["n_new_doc_keys"] == 2  # slot keys swept → both fresh again
    union = load_packs(out).to_pandas()
    joined = " ".join(union["text"])
    assert doc_a not in joined and doc_b in joined  # old packs NOT served
    assert len(union) == m0["n_packs"] + m2["n_packs_appended"]
    assert union["pack_id"].is_unique


def test_append_training_set_half_written_slot(ray_session, tmp_path):
    """A crash between a batch's pack write and its keys write leaves a
    half-written slot: appending a DIFFERENT batch must refuse (shared
    docs would be served twice — the crashed batch's keys never landed);
    re-running the crashed batch itself heals the slot, after which other
    batches proceed."""
    import shutil

    import numpy as np
    import pandas as pd
    import pytest as _pytest
    import ray.data as rd

    from graphiti_hf_ray.pipelines.corpus import append_training_set, prepare_training_set

    rng = np.random.default_rng(13)
    words = [f"w{i}" for i in range(100)]
    mk = lambda: " ".join(rng.choice(words, 25))  # noqa: E731
    base = pd.DataFrame({"doc_id": np.arange(3, dtype=np.int64), "text": [mk() for _ in range(3)]})
    out = str(tmp_path / "tset")
    common = dict(lang_allow=(), min_tokens=5, max_tokens=16, overlap=0, pack_budget=24)
    prepare_training_set(rd.from_pandas(base), [], out, track_doc_keys=True, **common)

    b1 = pd.DataFrame({"doc_id": np.array([100], dtype=np.int64), "text": [mk()]})
    append_training_set(rd.from_pandas(b1), [], out, fingerprint="crawl-1", **common)
    # simulate the crash: remove crawl-1's keys side
    (slot1,) = [d for d in os.listdir(os.path.join(out, "doc_keys")) if d.startswith("append-")]
    shutil.rmtree(os.path.join(out, "doc_keys", slot1))

    b2 = pd.DataFrame({"doc_id": np.array([200], dtype=np.int64), "text": [mk()]})
    with _pytest.raises(ValueError, match="half-written"):
        append_training_set(rd.from_pandas(b2), [], out, fingerprint="crawl-2", **common)

    # re-running the crashed batch heals its slot...
    m1 = append_training_set(rd.from_pandas(b1), [], out, fingerprint="crawl-1", **common)
    assert m1["n_new_doc_keys"] == 1
    # ...and the other batch then proceeds
    m2 = append_training_set(rd.from_pandas(b2), [], out, fingerprint="crawl-2", **common)
    assert m2["n_new_doc_keys"] == 1


def _to_legacy_slot(out: str, batch: str) -> str:
    """Rewrite a batch's append slot to the pre-stamp layout: truncated
    directory name, no 'batch' key in either manifest."""
    import hashlib
    import json
    import shutil

    from graphiti_hf_ray import io as gio

    full = hashlib.md5(f"batch:{batch}".encode()).hexdigest()
    for root in ("packs", "doc_keys"):
        src = os.path.join(out, root, f"append-{full}")
        dst = os.path.join(out, root, f"append-{full[:12]}")
        if not os.path.isdir(src):
            continue
        shutil.move(src, dst)
        man = os.path.join(dst, gio.MANIFEST)
        with open(man) as f:
            m = json.load(f)
        m.pop("batch", None)
        with open(man, "w") as f:
            json.dump(m, f)
    return f"append-{full[:12]}"


def test_append_training_set_legacy_prestamp_slot(ray_session, tmp_path):
    """A complete slot written by the pre-stamp layout (truncated dir name,
    no 'batch' manifest key) is still claimed by ITS batch on re-run — by
    name, since the manifest can't say — so a rebuild re-screens the docs
    instead of the legacy keys masking them into an empty new slot while
    the stale legacy packs keep serving."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from graphiti_hf_ray.pipelines.corpus import (
        append_training_set,
        load_packs,
        prepare_training_set,
    )

    rng = np.random.default_rng(17)
    words = [f"w{i}" for i in range(100)]
    mk = lambda: " ".join(rng.choice(words, 25))  # noqa: E731
    base = pd.DataFrame({"doc_id": np.arange(3, dtype=np.int64), "text": [mk() for _ in range(3)]})
    out = str(tmp_path / "tset")
    common = dict(lang_allow=(), min_tokens=5, max_tokens=16, overlap=0, pack_budget=24)
    m0 = prepare_training_set(rd.from_pandas(base), [], out, track_doc_keys=True, **common)

    doc_a, doc_b = mk(), mk()
    batch = pd.DataFrame({"doc_id": np.array([100, 101], dtype=np.int64), "text": [doc_a, doc_b]})
    append_training_set(rd.from_pandas(batch), [], out, fingerprint="crawl-1", **common)
    legacy = _to_legacy_slot(out, "crawl-1")
    assert os.path.isdir(os.path.join(out, "packs", legacy))

    # benchmark v2 contains doc_a: same NAME → the legacy slot must be
    # swept and the batch rebuilt (doc_b served, doc_a screened out)
    m2 = append_training_set(rd.from_pandas(batch), [doc_a], out, fingerprint="crawl-1", **common)
    assert m2["n_new_doc_keys"] == 2
    assert not os.path.isdir(os.path.join(out, "packs", legacy))
    assert not os.path.isdir(os.path.join(out, "doc_keys", legacy))
    union = load_packs(out).to_pandas()
    joined = " ".join(union["text"])
    assert doc_a not in joined and doc_b in joined
    assert len(union) == m0["n_packs"] + m2["n_packs_appended"]


def test_append_training_set_legacy_half_written_slot(ray_session, tmp_path):
    """A half-written PRE-STAMP slot can't name its batch, so the refusal
    tells the operator to remove it manually instead of 're-run that
    batch' (no re-run can claim a batch-less slot)."""
    import shutil

    import numpy as np
    import pandas as pd
    import pytest as _pytest
    import ray.data as rd

    from graphiti_hf_ray.pipelines.corpus import append_training_set, prepare_training_set

    rng = np.random.default_rng(19)
    words = [f"w{i}" for i in range(100)]
    mk = lambda: " ".join(rng.choice(words, 25))  # noqa: E731
    base = pd.DataFrame({"doc_id": np.arange(3, dtype=np.int64), "text": [mk() for _ in range(3)]})
    out = str(tmp_path / "tset")
    common = dict(lang_allow=(), min_tokens=5, max_tokens=16, overlap=0, pack_budget=24)
    prepare_training_set(rd.from_pandas(base), [], out, track_doc_keys=True, **common)

    b1 = pd.DataFrame({"doc_id": np.array([100], dtype=np.int64), "text": [mk()]})
    append_training_set(rd.from_pandas(b1), [], out, fingerprint="crawl-1", **common)
    legacy = _to_legacy_slot(out, "crawl-1")
    shutil.rmtree(os.path.join(out, "doc_keys", legacy))  # the crash

    b2 = pd.DataFrame({"doc_id": np.array([200], dtype=np.int64), "text": [mk()]})
    with _pytest.raises(ValueError, match="predates batch stamping"):
        append_training_set(rd.from_pandas(b2), [], out, fingerprint="crawl-2", **common)


def test_append_training_set_refusal_precedes_sweep(ray_session, tmp_path):
    """Input validation runs BEFORE the rebuild path sweeps the batch's
    live slot: a bad input schema on a re-run must refuse with the slot —
    packs AND keys — intact and still serving."""
    import numpy as np
    import pandas as pd
    import pytest as _pytest
    import ray.data as rd

    from graphiti_hf_ray.pipelines.corpus import (
        append_training_set,
        load_packs,
        prepare_training_set,
    )

    rng = np.random.default_rng(23)
    words = [f"w{i}" for i in range(100)]
    mk = lambda: " ".join(rng.choice(words, 25))  # noqa: E731
    base = pd.DataFrame({"doc_id": np.arange(3, dtype=np.int64), "text": [mk() for _ in range(3)]})
    out = str(tmp_path / "tset")
    common = dict(lang_allow=(), min_tokens=5, max_tokens=16, overlap=0, pack_budget=24)
    prepare_training_set(rd.from_pandas(base), [], out, track_doc_keys=True, **common)

    doc_a = mk()
    batch = pd.DataFrame({"doc_id": np.array([100], dtype=np.int64), "text": [doc_a]})
    m1 = append_training_set(rd.from_pandas(batch), [], out, fingerprint="crawl-1", **common)
    assert m1["n_new_doc_keys"] == 1

    # changed benchmark forces the rebuild path (not the no-op return);
    # the reserved-column collision must refuse BEFORE the slot sweep
    bad = batch.assign(fp=["boom"])
    with _pytest.raises(ValueError, match="'fp' column"):
        append_training_set(rd.from_pandas(bad), [mk()], out, fingerprint="crawl-1", **common)
    assert doc_a in " ".join(load_packs(out).to_pandas()["text"])  # slot intact
    # and the slot still heals/no-ops normally afterwards
    m2 = append_training_set(rd.from_pandas(batch), [], out, fingerprint="crawl-1", **common)
    assert m2 == m1
