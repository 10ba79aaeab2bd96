"""S6 serving endpoints: the reference's graph_service route surface
(server/graph_service/routers/ingest.py:51-105 + retrieve.py:17-57)
rebuilt on stdlib HTTP over the engine's batch operators. Tests drive the
REAL HTTP server (urllib against loopback) end to end: enqueue-ingest →
incremental build → search/read → delete → clear."""

from __future__ import annotations

import json
import urllib.request

import pytest


def _call(port, method, path, body=None):
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(body).encode() if body is not None else None,
        headers={"Content-Type": "application/json"},
        method=method,
    )
    try:
        with urllib.request.urlopen(req) as r:
            return r.status, json.loads(r.read())
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read())


@pytest.fixture(scope="module")
def service(ray_session, tmp_path_factory):
    from graphiti_hf_ray.serve import serve

    out = str(tmp_path_factory.mktemp("served_graph"))
    server, svc = serve(out, port=8329)
    yield 8329, svc
    server.shutdown()


def test_ingest_then_search_roundtrip(service):
    port, svc = service
    msgs = [
        {
            "content": "Ada Lovelace works at Acme Corporation.",
            "role": "alice",
            "role_type": "user",
            "timestamp": "2024-02-01T00:00:00",
        },
        {
            "content": "Grace Hopper moved to Oslo.",
            "role": "bob",
            "role_type": "user",
            "timestamp": "2024-03-01T00:00:00",
        },
    ]
    code, res = _call(port, "POST", "/messages", {"group_id": "chat1", "messages": msgs})
    assert code == 202 and res["success"]
    svc.flush()  # deterministic test hook; the queue drains in background

    # hybrid search finds the ingested fact, FactResult shape
    code, res = _call(
        port, "POST", "/search", {"query": "works at Acme", "group_ids": ["chat1"], "max_facts": 5}
    )
    assert code == 200
    facts = res["facts"]
    assert any("works at Acme Corporation" in f["fact"] for f in facts)
    f0 = facts[0]
    assert set(f0) == {"uuid", "name", "fact", "valid_at", "invalid_at", "created_at", "expired_at"}
    assert f0["valid_at"].endswith("+00:00")

    # GET /entity-edge/{uuid}
    code, edge = _call(port, "GET", f"/entity-edge/{f0['uuid']}")
    assert code == 200 and edge["uuid"] == f0["uuid"]
    code, _ = _call(port, "GET", "/entity-edge/nope")
    assert code == 404

    # GET /episodes/{group_id}?last_n=1 → the LATEST episode (Grace's)
    code, eps = _call(port, "GET", "/episodes/chat1?last_n=1")
    assert code == 200 and len(eps) == 1
    assert "Grace Hopper moved to Oslo" in eps[0]["content"]

    # POST /get-memory composes the query from messages (retrieve.py:60-63)
    code, mem = _call(
        port, "POST", "/get-memory",
        {
            "group_id": "chat1",
            "messages": [{"role": "alice", "role_type": "user", "content": "who works at Acme?"}],
        },
    )
    assert code == 200 and any("Acme" in f["fact"] for f in mem["facts"])


def test_ingest_idempotent_and_incremental(service):
    """Re-posting the same messages appends nothing (content-fingerprinted
    shards + deterministic ids); a new message extends the graph."""
    port, svc = service
    base = {
        "content": "Ada Lovelace works at Acme Corporation.",
        "role": "alice",
        "role_type": "user",
        "timestamp": "2024-02-01T00:00:00",
    }
    _call(port, "POST", "/messages", {"group_id": "chat1", "messages": [base]})
    svc.flush()
    code, res = _call(port, "POST", "/search", {"query": "Acme", "group_ids": ["chat1"]})
    n_before = len(res["facts"])
    # a re-post of the same batch links nothing and rewrites no part file
    import os

    from graphiti_hf_ray import io as gio

    tables = LINK_TABLES + ("episodes", "triples")
    mtimes = {p: os.stat(p).st_mtime_ns for t in tables for p in gio.part_files(os.path.join(svc.out_dir, t))}
    _call(port, "POST", "/messages", {"group_id": "chat1", "messages": [base]})
    svc.flush()
    assert _link_route(svc.out_dir)[:2] == ("unchanged", "")
    assert {p: os.stat(p).st_mtime_ns for t in tables for p in gio.part_files(os.path.join(svc.out_dir, t))} == mtimes
    _call(
        port, "POST", "/messages",
        {
            "group_id": "chat1",
            "messages": [
                {
                    "content": "Alan Turing founded Initech Systems.",
                    "role": "carol",
                    "role_type": "user",
                    "timestamp": "2024-04-01T00:00:00",
                }
            ],
        },
    )
    svc.flush()
    code, res2 = _call(port, "POST", "/search", {"query": "founded Initech", "group_ids": ["chat1"]})
    assert any("founded Initech Systems" in f["fact"] for f in res2["facts"])
    code, res3 = _call(port, "POST", "/search", {"query": "Acme", "group_ids": ["chat1"]})
    assert len(res3["facts"]) == n_before  # idempotent re-ingest added nothing


def test_entity_node_delete_and_clear(service):
    port, svc = service
    code, node = _call(
        port, "POST", "/entity-node",
        {"group_id": "chat1", "name": "Manual Entity", "summary": "hand-added"},
    )
    assert code == 201 and node["status"] == "created"
    code, again = _call(
        port, "POST", "/entity-node", {"group_id": "chat1", "name": "Manual Entity"}
    )
    assert again["status"] == "exists"  # deterministic id upsert

    # delete one edge
    code, res = _call(port, "POST", "/search", {"query": "Oslo", "group_ids": ["chat1"]})
    target = next(f["uuid"] for f in res["facts"] if "Oslo" in f["fact"])
    code, d = _call(port, "DELETE", f"/entity-edge/{target}")
    assert code == 200 and d["rows_removed"] == 1
    code, _ = _call(port, "GET", f"/entity-edge/{target}")
    assert code == 404

    # delete an episode by uuid (removes its rows + orphan cleanup)
    code, eps = _call(port, "GET", "/episodes/chat1?last_n=1")
    code, d = _call(port, "DELETE", f"/episode/{eps[0]['uuid']}")
    assert code == 200 and d["success"]

    # clear wipes everything
    code, c = _call(port, "POST", "/clear")
    assert code == 200 and c["success"]
    code, res = _call(port, "POST", "/search", {"query": "Acme"})
    assert code == 500 or res["facts"] == []  # graph gone


def test_delete_episode_purges_triples_log_and_spool(ray_session, tmp_path_factory):
    """remove_episode must filter the TRIPLES log too: the link phase
    re-derives MENTIONS/edges from every manifested shard, so a victim
    left in the log resurrected as dangling episodic_edges on the next
    ingest (regression). Delete also removes the spool file, so
    delete -> re-add with the same caller uuid and NEW content works;
    a changed-body re-add WITHOUT a delete is rejected, not silently
    discarded."""
    import pytest

    from graphiti_hf_ray import io as gio
    from graphiti_hf_ray.serve import GraphService

    out = str(tmp_path_factory.mktemp("svc_del"))
    svc = GraphService(out)
    ua = svc.add_episode("g", "epA", "Ada Lovelace works at Acme Corporation.")["uuid"]
    svc.add_episode("g", "epB", "Grace Hopper moved to Oslo.")
    svc.delete_episode(ua)
    # changed body under a NEW name (new uuid) is fine; the deleted
    # episode must NOT resurrect through the re-derive
    svc.add_episode("g", "epC", "Alan Turing works at Bletchley Park.")
    eps = gio.read_table_dir(out, "episodes").column("uuid").to_pylist()
    men = gio.read_table_dir(out, "episodic_edges").column("source_node_uuid").to_pylist()
    assert ua not in eps
    assert ua not in men                                   # the regression
    # changed-body re-add of a LIVE episode: explicit rejection
    uc = svc.add_episode("g", "epD", "Marie Curie works at Sorbonne.", uuid="fixed-u")["uuid"]
    with pytest.raises(ValueError, match="different"):
        svc.add_episode("g", "epD", "Marie Curie moved to Paris.", uuid="fixed-u")
    # identical re-add stays idempotent
    assert svc.add_episode("g", "epD", "Marie Curie works at Sorbonne.", uuid="fixed-u")["uuid"] == uc
    # delete -> re-add with the same uuid and new content goes through
    svc.delete_episode(uc)
    r = svc.add_episode("g", "epD", "Marie Curie moved to Paris.", uuid="fixed-u")
    assert r["uuid"] == uc
    facts = gio.read_table_dir(out, "edges").column("fact").to_pylist()
    assert any("moved to Paris" in f for f in facts)
    assert not any("works at Sorbonne" in f for f in facts)


def test_add_episode_uuid_prefix_no_collision(ray_session, tmp_path_factory):
    """Two caller uuids sharing a 16-char prefix are DIFFERENT episodes:
    the spool filename digests the full key (regression: the truncated
    key raised a false 'different content' error for the second add)."""
    from graphiti_hf_ray import io as gio
    from graphiti_hf_ray.serve import GraphService

    out = str(tmp_path_factory.mktemp("svc_prefix"))
    svc = GraphService(out)
    ua = svc.add_episode("g", "e1", "Ada Lovelace works at Acme Corporation.",
                         uuid="session-2024-06-01-a")["uuid"]
    ub = svc.add_episode("g", "e2", "Grace Hopper moved to Oslo.",
                         uuid="session-2024-06-01-b")["uuid"]
    assert ua != ub
    eps = gio.read_table_dir(out, "episodes").column("uuid").to_pylist()
    assert ua in eps and ub in eps


def test_spool_migration_from_legacy_names(ray_session, tmp_path_factory):
    """A service restarted over an out_dir with legacy 16-char-prefix
    spool names must still SEE those episodes: migration renames to the
    md5-of-full-key scheme, so a changed-body re-add raises instead of
    silently double-ingesting (regression)."""
    import os

    import pytest

    from graphiti_hf_ray.ids import md5_id
    from graphiti_hf_ray.serve import GraphService

    out = str(tmp_path_factory.mktemp("svc_migrate"))
    svc = GraphService(out)
    key = "session-2024-06-01-a"
    svc.add_episode("g", "e1", "Ada Lovelace works at Acme Corporation.", uuid=key)
    # simulate the pre-upgrade on-disk state: rename to the legacy scheme
    new_name = f"episode-{md5_id('spool:' + key)}.parquet"
    legacy = os.path.join(svc.spool_dir, f"episode-{key[:16]}.parquet")
    os.replace(os.path.join(svc.spool_dir, new_name), legacy)
    svc2 = GraphService(out)                      # restart migrates
    assert new_name in os.listdir(svc2.spool_dir)
    assert not os.path.exists(legacy)
    with pytest.raises(ValueError, match="different"):
        svc2.add_episode("g", "e1", "Ada Lovelace moved to London.", uuid=key)


def test_service_injected_extractor_factory(ray_session, tmp_path_factory):
    """A deployment-pinned extractor factory (GraphService(extractor_
    factory=...)) reaches the incremental build: every ingested episode
    is extracted by the injected callable, not the default extractor."""
    from graphiti_hf_ray import io as gio
    from graphiti_hf_ray.serve import GraphService

    marker = "SERVICE_INJECTED"

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

    out = str(tmp_path_factory.mktemp("svc_injected"))
    svc = GraphService(out, extractor_factory=MarkerExtractor)
    svc.add_episode("g", "e1", "Ada Lovelace works at Acme Corporation.")
    tr = gio.read_table_dir(out, "triples").to_pandas()
    assert len(tr) == 1 and (tr["pred"] == marker).all()


def test_search_no_match_returns_empty_facts(ray_session, tmp_path_factory):
    """A query no fact scores on returns no facts instead of raising: the
    BM25 top-k of a zero-hit query is a typed empty (uuid, score) frame."""
    from graphiti_hf_ray.serve import GraphService

    svc = GraphService(str(tmp_path_factory.mktemp("svc_nohit")))
    svc.add_episode("g", "epA", "Ada Lovelace works at Acme Corporation.")
    svc.add_episode("g", "epB", "Grace Hopper moved to Oslo.")
    assert any("Acme" in f["fact"] for f in svc.search("Acme", group_ids=["g"])["facts"])
    assert svc.search("zzzqqq", group_ids=["g"]) == {"facts": []}
    # a group with no rows: every BM25 block is empty
    assert svc.search("Acme", group_ids=["nosuchgroup"]) == {"facts": []}


def test_episode_seq_survives_delete_and_restart(ray_session, tmp_path_factory):
    """Ingestion order is temporal order across a delete and a restart: the
    restarted service resumes past the latest spooled episode, not past
    the spool count (regression: d got c's valid_at)."""
    from graphiti_hf_ray import io as gio
    from graphiti_hf_ray.serve import GraphService

    out = str(tmp_path_factory.mktemp("svc_seq"))
    svc = GraphService(out)
    ua = svc.add_episode("g1", "a", "Ada Lovelace works at Acme Corporation.")["uuid"]
    svc.add_episode("g1", "b", "Grace Hopper moved to Oslo.")
    uc = svc.add_episode("g1", "c", "Alan Turing works at Bletchley Park.")["uuid"]
    svc.delete_episode(ua)
    ud = GraphService(out).add_episode("g1", "d", "Marie Curie moved to Paris.")["uuid"]
    eps = gio.read_table_dir(out, "episodes").to_pandas().set_index("uuid")["valid_at"]
    assert eps.is_unique
    assert eps[ud] > eps[uc]


def test_delete_group_stays_deleted(ray_session, tmp_path_factory):
    """delete_group removes the group from every table, log and spool, so
    the next build's link does not bring it back (regression: one add to
    another group restored its nodes and edges)."""
    import os

    import pyarrow.parquet as pq

    from graphiti_hf_ray import io as gio
    from graphiti_hf_ray.serve import GraphService

    out = str(tmp_path_factory.mktemp("svc_delgroup"))
    svc = GraphService(out)
    svc.add_episode("g1", "a", "Ada Lovelace works at Acme Corporation.")
    svc.add_episode("g1", "b", "Lovelace moved to Paris.")
    svc.add_episode("g2", "c", "Grace Hopper moved to Oslo.")
    tables = LINK_TABLES + ("episodes", "triples")
    for table in tables:
        assert "g1" in gio.read_table_dir(out, table).column("group_id").to_pylist(), table
    svc.delete_group("g1")
    svc.add_episode("g2", "d", "Alan Turing works at Bletchley Park.")
    for table in tables:
        assert "g1" not in gio.read_table_dir(out, table).column("group_id").to_pylist(), table
    assert gio.read_table_dir(out, "edges").num_rows == 2
    for fn in os.listdir(svc.spool_dir):
        assert "g1" not in pq.read_table(os.path.join(svc.spool_dir, fn)).column("group_id").to_pylist()
    assert svc.search("Acme", group_ids=["g1"]) == {"facts": []}


LINK_TABLES = ("nodes", "edges", "episodic_edges", "duplicate_edges")


def _link_route(out):
    import os

    with open(os.path.join(out, "_job_metrics.json")) as f:
        m = json.load(f)
    return m["timings"]["link_route"], m["timings"]["link_reason"], m["tables"]


def _assert_url_index_and_report(out):
    """The sealed url index holds exactly the url hashes of the linked
    runs' episodes, its delta array disjoint from its base; the run
    report's tables equal ``gio.job_metrics`` and its ``duplicate_urls``
    the episode rows less the distinct urls."""
    import os

    import numpy as np

    import graphiti_hf_ray.pipelines.kg as kg
    from graphiti_hf_ray import io as gio

    rec = gio.read_manifest(os.path.join(out, kg.LINK_TABLES[0]))
    index = kg._load_url_index(out, rec["fingerprint"])
    assert index is not None
    base, delta = index
    assert not np.intersect1d(base, delta).size
    eps = gio.read_table_dir(out, "episodes").column("uuid")
    want = gio.url_hashes(eps)
    assert np.array_equal(np.union1d(base, delta), want)
    with open(os.path.join(out, "_job_metrics.json")) as f:
        report = json.load(f)
    assert report["tables"] == gio.job_metrics(out)["tables"]
    assert report["duplicate_urls"] == len(eps) - len(want)


def _assert_equals_fresh_full_link(out, scratch):
    """The served dir's link tables equal a full link over copies of its
    episodes and triples logs: schema and rows, whatever the row order and
    file layout; its job metrics count the rows its tables hold, and its
    link manifests record the full link's distinct-mention count. The
    referee full link takes the Ray placement, whose body shares no code
    with the group route's or the task placement's derive step. Both
    dirs' url indexes and run reports hold (``_assert_url_index_and_report``)."""
    import os
    import shutil

    import graphiti_hf_ray.pipelines.kg as kg
    from graphiti_hf_ray import io as gio
    from graphiti_hf_ray.pipelines.kg import LINK_TABLES as LINK_DIRS
    from graphiti_hf_ray.pipelines.kg import link_and_edges_phase

    shutil.rmtree(scratch, ignore_errors=True)
    for log in ("episodes", "triples"):
        shutil.copytree(os.path.join(out, log), os.path.join(scratch, log))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kg, "DELTA_MAX_TRIPLES", 0)
        fresh = link_and_edges_phase(scratch)
    assert fresh["timings"]["link_route"] == "full"
    assert fresh["timings"]["link_placement"] == "ray"
    _, _, tables = _link_route(out)
    for t in LINK_TABLES:
        a, b = gio.read_table_dir(out, t), gio.read_table_dir(scratch, t)
        assert a.schema.equals(b.schema), (t, a.schema, b.schema)
        assert a.sort_by("uuid").equals(b.sort_by("uuid")), t
        assert tables[t]["rows"] == a.num_rows, t
    for d in LINK_DIRS:
        mentions = [gio.read_manifest(os.path.join(o, d))["mentions"] for o in (out, scratch)]
        assert mentions[0] == mentions[1], (d, mentions)
    for o in (out, scratch):
        _assert_url_index_and_report(o)


def test_delta_link_matches_full_link(ray_session, tmp_path_factory, monkeypatch):
    """Single-episode writes fold into the persisted link tables (delta
    route) when the new mentions neither merge nor rename entities; a write
    that merges or renames entities re-derives its group's link rows
    (group route), unless the group is too large (full route); a repeated
    url takes the full route; every write says why it left the delta
    route. After every write the four link tables equal a fresh full link
    of the same logs."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    import graphiti_hf_ray.pipelines.kg as kg
    from graphiti_hf_ray import io as gio
    from graphiti_hf_ray.ids import md5_id
    from graphiti_hf_ray.serve import GraphService

    out = str(tmp_path_factory.mktemp("svc_delta"))
    scratch = str(tmp_path_factory.mktemp("svc_delta_full")) + "/g"
    svc = GraphService(out)

    def add(name, body, route, reason=""):
        svc.add_episode("g", name, body)
        assert _link_route(out)[:2] == (route, reason), (name, _link_route(out)[:2])
        _assert_equals_fresh_full_link(out, scratch)

    add("e1", "Ada Lovelace works at Acme Corporation.", "full", "no linked-run record")
    add("e2", "Grace Hopper moved to Oslo.", "delta")               # new facts
    add("e3", "Lovelace moved to Paris.", "delta")                  # shorter alias
    add("e4", "Grace Hopper is the CEO of Acme Corporation.", "delta")
    add("e5", "Alan Turing is the CEO of Acme Corporation.", "delta")  # invalidates e4's
    inv = gio.read_table_dir(out, "edges").to_pandas().set_index("source_name")
    assert inv.loc["Grace Hopper"].query("name == 'IS_CEO_OF'")["invalid_at"].notna().all()
    add("e6", "Ada King moved to London.", "delta")
    add("e7", "Grace B. Hopper founded Initech.", "group", "canonical name changes")
    add("e8", "Ada moved to Rome.", "group", "mention merges entities")
    monkeypatch.setattr(kg, "DELTA_MAX_TRIPLES", 0)
    add("e9", "Marie Curie moved to Warsaw.", "full", "run too large")
    monkeypatch.setattr(kg, "DELTA_MAX_TRIPLES", 1)
    add("e9b", "Alan M. Turing moved to Manchester.", "full", "group too large")
    monkeypatch.undo()
    add("e9c", "Marie S. Curie founded Radium Institute.", "group", "canonical name changes")

    # a build_graph input repeating an earlier run's url
    d = tmp_path_factory.mktemp("svc_delta_pages")
    url = f"memory://g/{md5_id('mem:g:e2:Grace Hopper moved to Oslo.')}"
    page = pa.table({
        "url": [url], "warc_ts": pa.array([svc.run_ts_us + 100], pa.timestamp("us")),
        "html": [b"<html><body><p>Grace Hopper founded Cobol Labs.</p></body></html>"],
        "text": ["Grace Hopper founded Cobol Labs."], "lang": ["en"], "group_id": ["g"],
    })
    pq.write_table(page, str(d / "p.parquet"))
    kg.build_graph([str(d / "p.parquet")], out, num_shards=1)
    assert _link_route(out)[:2] == ("full", "url recurs")
    _assert_equals_fresh_full_link(out, scratch)

    add("e10", "Alan Turing works at Bletchley Park.", "delta")
    edge = gio.read_table_dir(out, "edges").column("uuid")[0].as_py()
    svc.delete_entity_edge(edge)
    add("e11", "Tim Berners-Lee moved to Geneva.", "full", "tables edited")
    add("e12", "Tim Berners-Lee founded Cern Web.", "delta")

    # an identical re-add writes nothing
    mtimes = {p: os.stat(p).st_mtime_ns for t in LINK_TABLES for p in gio.part_files(os.path.join(out, t))}
    add("e12", "Tim Berners-Lee founded Cern Web.", "unchanged")
    assert {p: os.stat(p).st_mtime_ns for p in mtimes} == mtimes


def test_delta_link_crash_takes_full_route(ray_session, tmp_path_factory, monkeypatch):
    """A delta write cut short after its first file leaves its manifests
    incomplete: the next write takes the full route, and its tables equal
    a fresh full link."""
    import pytest

    from graphiti_hf_ray import io as gio
    from graphiti_hf_ray.serve import GraphService

    out = str(tmp_path_factory.mktemp("svc_crash"))
    svc = GraphService(out)
    svc.add_episode("g", "e1", "Ada Lovelace works at Acme Corporation.")
    write = gio.rewrite_file_atomic
    calls = []

    def crash_after_first(table, path):
        if calls:
            raise OSError("disk full")
        calls.append(path)
        write(table, path)

    monkeypatch.setattr(gio, "rewrite_file_atomic", crash_after_first)
    with pytest.raises(OSError, match="disk full"):
        svc.add_episode("g", "e2", "Grace Hopper moved to Oslo.")
    monkeypatch.undo()
    assert len(calls) == 1
    svc.add_episode("g", "e3", "Alan Turing works at Bletchley Park.")
    assert _link_route(out)[:2] == ("full", "no linked-run record")
    _assert_equals_fresh_full_link(out, str(tmp_path_factory.mktemp("svc_crash_full")) + "/g")


NAMES = "Ada Bea Cal Dee Eve Fay Gus Hal Ivy Jon Kai Lou Max Ned Oli Pam Quinn Rex Sam Tom".split()


def test_url_index_follows_every_write(ray_session, tmp_path_factory):
    """The url index answers the delta route's url check: a run whose
    pages yield no triples still enters it, so a later run repeating one
    of its urls with triples takes the full route (``url recurs``), as a
    scan of the episodes log would. Removing an episode drops the index:
    the next write takes the full route (``no url index`` when no link
    table was edited) and writes it again; the removed shard's url hashes
    and manifest count follow its rows. After every write the index and
    the run report hold and the tables equal a fresh full link."""
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    import graphiti_hf_ray.pipelines.kg as kg
    from graphiti_hf_ray import io as gio
    from graphiti_hf_ray.ids import md5_id
    from graphiti_hf_ray.serve import GraphService

    out = str(tmp_path_factory.mktemp("svc_urlidx"))
    scratch = str(tmp_path_factory.mktemp("svc_urlidx_full")) + "/g"
    svc = GraphService(out)

    def check(route, reason=""):
        assert _link_route(out)[:2] == (route, reason), _link_route(out)[:2]
        _assert_equals_fresh_full_link(out, scratch)

    svc.add_episode("g", "e1", "Ada Lovelace works at Acme Corporation.")
    check("full", "no linked-run record")
    quiet = svc.add_episode("g", "e2", "Nothing happened today.")["uuid"]
    check("delta")
    assert gio.read_table_dir(out, "triples").num_rows == 1  # e2 yields none

    # a build_graph input repeating e2's url, now with triples
    d = tmp_path_factory.mktemp("svc_urlidx_pages")
    url = f"memory://g/{md5_id('mem:g:e2:Nothing happened today.')}"
    assert md5_id("ep:" + url) == quiet
    page = pa.table({
        "url": [url], "warc_ts": pa.array([svc.run_ts_us + 100], pa.timestamp("us")),
        "html": [b"<html><body><p>Grace Hopper founded Cobol Labs.</p></body></html>"],
        "text": ["Grace Hopper founded Cobol Labs."], "lang": ["en"], "group_id": ["g"],
    })
    pq.write_table(page, str(d / "p.parquet"))
    kg.build_graph([str(d / "p.parquet")], out, num_shards=1)
    check("full", "url recurs")

    # a removed episode whose pages yielded no triples edits no link table
    quiet3 = svc.add_episode("g", "e3", "Hello there.")["uuid"]
    check("delta")
    shard = next(
        os.path.join(out, "episodes", s_) for s_ in sorted(os.listdir(os.path.join(out, "episodes")))
        if quiet3 in gio.read_table_dir(out, os.path.join("episodes", s_)).column("uuid").to_pylist()
    )
    svc.delete_episode(quiet3)
    rows = gio.read_table_dir(out, os.path.relpath(shard, out)).column("uuid")
    assert np.array_equal(np.load(os.path.join(shard, gio.URL_HASHES)), gio.url_hashes(rows))
    assert gio.read_manifest(shard)["urls"] == len(rows) == 0
    svc.add_episode("g", "e4", "Alan Turing works at Bletchley Park.")
    check("full", "no url index")
    svc.delete_episode(quiet)
    svc.add_episode("g", "e5", "Marie Curie moved to Paris.")
    check("full", "tables edited")
    svc.add_episode("g", "e6", "Grace Hopper moved to Oslo.")
    check("delta")


def test_missing_or_stale_url_index_takes_full_route(ray_session, tmp_path_factory):
    """A deleted, stale, truncated or zero-byte url index (or sidecar), and
    a graph written before url indexes and url-hash sidecars existed, send
    the next write to the full route (``no url index``) instead of raising;
    that full link writes the index (and the missing sidecars) again, and
    its tables equal a fresh full link."""
    import os
    import shutil

    import numpy as np

    import graphiti_hf_ray.pipelines.kg as kg
    from graphiti_hf_ray import io as gio
    from graphiti_hf_ray.serve import GraphService

    out = str(tmp_path_factory.mktemp("svc_staleidx"))
    scratch = str(tmp_path_factory.mktemp("svc_staleidx_full")) + "/g"
    svc = GraphService(out)
    svc.add_episode("g", "e1", "Ada Lovelace works at Acme Corporation.")
    svc.add_episode("g", "e2", "Grace Hopper moved to Oslo.")
    idx = os.path.join(out, kg.URL_INDEX)

    def stale():
        man = gio.read_manifest(idx)
        gio.write_manifest(idx, {**man, "fingerprint": "run:0:stale"})

    def truncated():
        base = os.path.join(idx, kg.URL_INDEX_PARTS[0])
        np.save(base, np.load(base)[:-1])

    def emptied():
        # np.load raises EOFError on a zero-byte .npy
        first = sorted(os.listdir(os.path.join(out, "episodes")))[0]
        for p in (os.path.join(idx, kg.URL_INDEX_PARTS[1]), os.path.join(out, "episodes", first, gio.URL_HASHES)):
            open(p, "wb").close()

    def legacy():
        shutil.rmtree(idx)
        for d in os.listdir(os.path.join(out, "episodes")):
            os.remove(os.path.join(out, "episodes", d, gio.URL_HASHES))

    breaks = [lambda: shutil.rmtree(idx), stale, truncated, emptied, legacy]
    for i, spoil in enumerate(breaks):
        spoil()
        svc.add_episode("g", f"b{i}", f"{NAMES[i]} Smith moved to {NAMES[i]}ville.")
        assert _link_route(out)[:2] == ("full", "no url index"), (i, _link_route(out)[:2])
        _assert_equals_fresh_full_link(out, scratch)
    assert all(
        os.path.exists(os.path.join(out, "episodes", d, gio.URL_HASHES))
        for d in os.listdir(os.path.join(out, "episodes"))
    )
    svc.add_episode("g", "e3", "Alan Turing works at Bletchley Park.")
    assert _link_route(out)[:2] == ("delta", "")


def test_removal_drops_url_index_before_rewriting(ray_session, tmp_path_factory, monkeypatch):
    """delete_episode and delete_group drop the url index before they
    rewrite any log, so a removal cut short leaves no index that still
    counts the removed episodes: the next write takes the full route."""
    import os

    import graphiti_hf_ray.pipelines.kg as kg
    import graphiti_hf_ray.pipelines.maintenance as maintenance
    from graphiti_hf_ray import io as gio
    from graphiti_hf_ray.serve import GraphService

    def crash(*a, **k):
        raise RuntimeError("crash before the first rewrite")

    out = str(tmp_path_factory.mktemp("svc_rm_crash"))
    svc = GraphService(out)
    u = svc.add_episode("g1", "e1", "Ada Lovelace works at Acme Corporation.")["uuid"]
    svc.add_episode("g2", "e2", "Grace Hopper moved to Oslo.")
    idx = os.path.join(out, kg.URL_INDEX)
    for i, remove in enumerate((lambda: svc.delete_episode(u), lambda: svc.delete_group("g1"))):
        assert gio.read_manifest(idx) is not None
        with monkeypatch.context() as m:
            m.setattr(maintenance, "_filter_table_dir", crash)
            with pytest.raises(RuntimeError):
                remove()
        assert gio.read_manifest(idx) is None
        svc.add_episode("g2", f"after{i}", f"{NAMES[i]} Smith moved to {NAMES[i]}ville.")
        assert _link_route(out)[:2] == ("full", "no url index")
        _assert_url_index_and_report(out)


def test_delta_write_reads_no_linked_episodes(ray_session, tmp_path_factory, monkeypatch):
    """A delta write after 20 runs opens no file of the episodes log's
    linked runs, parquet or manifest: the url check probes the url index
    and the run report sums sealed totals."""
    import builtins
    import os

    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from graphiti_hf_ray import io as gio
    from graphiti_hf_ray.serve import GraphService

    out = str(tmp_path_factory.mktemp("svc_opens"))
    svc = GraphService(out)
    for i in range(20):
        svc.add_episode("g", f"e{i}", f"{NAMES[i]} Smith works at {NAMES[i]} Labs.")
    linked = set(os.listdir(os.path.join(out, "episodes")))
    opened = []

    def counting(fn):
        def wrapped(src, *a, **k):
            opened.extend([src] if isinstance(src, (str, os.PathLike)) else list(src))
            return fn(src, *a, **k)
        return wrapped

    for mod, name in ((pq, "read_table"), (pq, "read_metadata"), (pq, "read_schema"), (pq, "ParquetFile"), (pads, "dataset")):
        monkeypatch.setattr(mod, name, counting(getattr(mod, name)))
    # every manifest read goes through the io module's open
    monkeypatch.setattr(gio, "open", counting(builtins.open), raising=False)
    svc.add_episode("g", "last", "Alan Turing moved to Manchester.")
    assert _link_route(out)[:2] == ("delta", "")
    eps_root = os.path.join(out, "episodes")
    hits = [
        p for p in map(str, opened)
        if os.path.commonpath([os.path.abspath(p), eps_root]) == eps_root
        and os.path.relpath(p, eps_root).split(os.sep)[0] in linked | {"."}
    ]
    assert opened and not hits, hits
