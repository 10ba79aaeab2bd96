"""S6 MCP tool surface: the reference's second server
(mcp_server/graphiti_mcp_server.py:657-1160) rebuilt as a stdlib JSON-RPC
MCP server over GraphService. Tests drive every tool end to end through
the JSON-RPC handle() core (the transport the stdio pump speaks), plus
the stdio transport itself over in-memory pipes."""

from __future__ import annotations

import io
import json

import pytest


def _rpc(server, method, params=None, rid=1):
    return server.handle({"jsonrpc": "2.0", "id": rid, "method": method, "params": params or {}})


def _tool(server, name, args=None):
    resp = _rpc(server, "tools/call", {"name": name, "arguments": args or {}})
    result = resp["result"]
    payload = json.loads(result["content"][0]["text"])
    return result["isError"], payload


@pytest.fixture(scope="module")
def mcp(ray_session, tmp_path_factory):
    from graphiti_hf_ray.mcp import McpServer

    out = str(tmp_path_factory.mktemp("mcp_graph"))
    return McpServer(out, default_group_id="agents")


def test_initialize_and_tools_list(mcp):
    init = _rpc(mcp, "initialize")
    assert init["result"]["serverInfo"]["name"] == "graphiti-hf-ray"
    assert _rpc(mcp, "notifications/initialized") is None  # notification
    tools = {t["name"] for t in _rpc(mcp, "tools/list")["result"]["tools"]}
    assert tools == {
        "add_memory", "search_memory_nodes", "search_memory_facts",
        "delete_entity_edge", "delete_episode", "get_entity_edge",
        "get_episodes", "clear_graph", "get_status",
    }
    err = _rpc(mcp, "no/such/method")
    assert err["error"]["code"] == -32601


def test_add_memory_then_search(mcp):
    # queued (202-style) response, then deterministic drain via flush()
    is_err, r = _tool(
        mcp, "add_memory",
        {
            "name": "news1",
            "episode_body": "Ada Lovelace works at Acme Corporation. Grace Hopper moved to Oslo.",
            "group_id": "agents",
            "source": "text",
        },
    )
    assert not is_err and "queued for processing" in r["message"]
    is_err, r2 = _tool(
        mcp, "add_memory",
        {"name": "news2", "episode_body": "Alan Turing founded Initech Systems.", "group_id": "agents"},
    )
    assert not is_err
    mcp.flush()

    # facts
    is_err, facts = _tool(
        mcp, "search_memory_facts",
        {"query": "works at Acme", "group_ids": ["agents"], "max_facts": 5},
    )
    assert not is_err and facts["message"] == "Facts retrieved successfully"
    assert any("works at Acme Corporation" in f["fact"] for f in facts["facts"])
    f0 = facts["facts"][0]
    assert set(f0) == {"uuid", "name", "fact", "valid_at", "invalid_at", "created_at", "expired_at"}

    # nodes (NodeResult shape, reference :890-902)
    is_err, nodes = _tool(
        mcp, "search_memory_nodes",
        {"query": "Ada Lovelace", "group_ids": ["agents"], "max_nodes": 5},
    )
    assert not is_err and nodes["message"] == "Nodes retrieved successfully"
    n0 = next(n for n in nodes["nodes"] if n["name"] == "Ada Lovelace")
    assert set(n0) == {"uuid", "name", "summary", "labels", "group_id", "created_at", "attributes"}
    assert n0["labels"] == ["Person"] and n0["group_id"] == "agents"

    # entity-type filter narrows to that label only
    is_err, orgs = _tool(
        mcp, "search_memory_nodes",
        {"query": "Acme", "group_ids": ["agents"], "entity": "Organization"},
    )
    assert not is_err
    assert orgs["nodes"] and all("Organization" in n["labels"] for n in orgs["nodes"])

    # max_facts validation (reference :926)
    is_err, bad = _tool(mcp, "search_memory_facts", {"query": "x", "max_facts": 0})
    assert is_err and "positive integer" in bad["error"]


def test_get_and_delete_roundtrip(mcp):
    mcp.flush()
    _, facts = _tool(mcp, "search_memory_facts", {"query": "moved to Oslo", "group_ids": ["agents"]})
    target = next(f["uuid"] for f in facts["facts"] if "Oslo" in f["fact"])

    is_err, edge = _tool(mcp, "get_entity_edge", {"uuid": target})
    assert not is_err and edge["uuid"] == target
    is_err, gone = _tool(mcp, "delete_entity_edge", {"uuid": target})
    assert not is_err and "deleted successfully" in gone["message"]
    is_err, missing = _tool(mcp, "get_entity_edge", {"uuid": target})
    assert is_err and "not found" in missing["error"]
    is_err, missing2 = _tool(mcp, "delete_entity_edge", {"uuid": target})
    assert is_err and "not found" in missing2["error"]

    # episodes: default group fallback + latest-N + delete
    is_err, eps = _tool(mcp, "get_episodes", {"last_n": 1})
    assert not is_err and len(eps) == 1
    assert "founded Initech" in eps[0]["content"]
    is_err, d = _tool(mcp, "delete_episode", {"uuid": eps[0]["uuid"]})
    assert not is_err and "deleted successfully" in d["message"]
    is_err, eps2 = _tool(mcp, "get_episodes", {"last_n": 5})
    assert not is_err and all(e["uuid"] != eps[0]["uuid"] for e in eps2)


def test_per_group_queues_sequential(mcp):
    """Episodes for one group process in submit order on that group's own
    queue (reference process_episode_queue); a second group has its own
    worker."""
    for i in range(3):
        _tool(
            mcp, "add_memory",
            {
                "name": f"seq{i}",
                "episode_body": f"Barbara Liskov moved to Kyoto. Chapter {i}.",
                "group_id": "seqgrp",
            },
        )
    _tool(
        mcp, "add_memory",
        {"name": "other", "episode_body": "Donald Knuth works at Globex Industries.", "group_id": "othergrp"},
    )
    assert set(mcp._queues) >= {"seqgrp", "othergrp"}  # one queue per group
    mcp.flush()
    _, eps = _tool(mcp, "get_episodes", {"group_id": "seqgrp", "last_n": 10})
    assert len(eps) == 3  # all drained, idempotent ids — no dupes
    _, facts = _tool(mcp, "search_memory_facts", {"query": "Globex", "group_ids": ["othergrp"]})
    assert any("Globex" in f["fact"] for f in facts["facts"])


def test_json_source_and_status_and_clear(mcp):
    is_err, r = _tool(
        mcp, "add_memory",
        {
            "name": "profile",
            "episode_body": json.dumps({"company": {"name": "Acme"}, "products": [{"id": "P1"}]}),
            "group_id": "jsongrp",
            "source": "json",
        },
    )
    assert not is_err
    mcp.flush()
    _, eps = _tool(mcp, "get_episodes", {"group_id": "jsongrp", "last_n": 1})
    assert "company.name: Acme" in eps[0]["content"]  # deterministic flatten
    assert "products[0].id: P1" in eps[0]["content"]

    is_err, st = _tool(mcp, "get_status")
    assert not is_err and st["status"] == "ok"

    is_err, c = _tool(mcp, "clear_graph")
    assert not is_err and "cleared successfully" in c["message"]
    is_err, eps = _tool(mcp, "get_episodes", {"group_id": "jsongrp"})
    assert is_err or eps == {"message": "No episodes found for group jsongrp", "episodes": []}


def test_search_nodes_reads_multi_label_node(ray_session, tmp_path_factory):
    """A node carrying two labels (canonicalization unions labels) reads
    back as a list: pandas hands the list column over as a numpy array."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from graphiti_hf_ray import io as gio
    from graphiti_hf_ray.mcp import McpServer

    out = str(tmp_path_factory.mktemp("mcp_labels"))
    first = McpServer(out, default_group_id="agents")
    _tool(first, "add_memory", {"name": "n1", "episode_body": "Ada Lovelace works at Acme Corporation."})
    first.flush()

    for part in gio.part_files(os.path.join(out, "nodes")):
        t = pq.read_table(part)
        labels = [
            ["Person", "Organization"] if name == "Ada Lovelace" else lab
            for name, lab in zip(t.column("name").to_pylist(), t.column("labels").to_pylist())
        ]
        i = t.schema.get_field_index("labels")
        t = t.set_column(i, t.schema.field(i), pa.array(labels, t.schema.field(i).type))
        pq.write_table(t, part + ".tmp")
        os.replace(part + ".tmp", part)

    is_err, nodes = _tool(
        McpServer(out, default_group_id="agents"), "search_memory_nodes",
        {"query": "Ada Lovelace", "group_ids": ["agents"], "max_nodes": 5},
    )
    assert not is_err, nodes
    n0 = next(n for n in nodes["nodes"] if n["name"] == "Ada Lovelace")
    assert n0["labels"] == ["Person", "Organization"]


def test_stdio_transport(ray_session, tmp_path_factory):
    """The newline-delimited stdio pump speaks the same protocol."""
    from graphiti_hf_ray.mcp import serve_stdio

    out = str(tmp_path_factory.mktemp("mcp_stdio"))
    lines = [
        json.dumps({"jsonrpc": "2.0", "id": 1, "method": "initialize", "params": {}}),
        json.dumps({"jsonrpc": "2.0", "method": "notifications/initialized"}),
        "not json",
        json.dumps({"jsonrpc": "2.0", "id": 2, "method": "tools/call",
                    "params": {"name": "get_status", "arguments": {}}}),
    ]
    stdin = io.StringIO("\n".join(lines) + "\n")
    stdout = io.StringIO()
    serve_stdio(out, stdin=stdin, stdout=stdout)
    resps = [json.loads(ln) for ln in stdout.getvalue().strip().splitlines()]
    assert len(resps) == 3  # notification produced no response
    assert resps[0]["id"] == 1 and "serverInfo" in resps[0]["result"]
    assert resps[1]["error"]["code"] == -32700
    body = json.loads(resps[2]["result"]["content"][0]["text"])
    assert body["status"] == "ok"
