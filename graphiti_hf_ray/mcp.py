"""MCP serving surface (SURVEY.md S6 — the reference's SECOND server).

The reference exposes the graph to agent clients as an MCP tool set
(mcp_server/graphiti_mcp_server.py:657-1160: add_memory with per-group
sequential queues, search_memory_nodes / search_memory_facts,
get/delete episode, get/delete entity edge, clear_graph, get_status)
built on FastMCP. This rebuild keeps the SAME tool names, argument
shapes, queueing semantics and response payloads, dependency-free:

- ``McpServer.handle(request) -> response`` is the transport-free
  JSON-RPC 2.0 core implementing the MCP subset agent clients speak
  (initialize, tools/list, tools/call) — loopback tests drive every tool
  through it exactly like test_serve.py drives the REST routes;
- ``serve_stdio`` pumps newline-delimited JSON-RPC over stdin/stdout
  (the MCP stdio transport).

Queueing parity: add_memory returns immediately and episodes for the
same group_id process SEQUENTIALLY on that group's own queue+worker
(process_episode_queue, reference :657-689); distinct groups ingest
concurrently, serialized only at the single-writer build lock the REST
surface also uses.
"""

from __future__ import annotations

import json
import queue
import threading

import pandas as pd

from .serve import GraphService, _fact_result, _iso

PROTOCOL_VERSION = "2024-11-05"
SERVER_INFO = {"name": "graphiti-hf-ray", "version": "1.0"}


def _schema(props: dict, required: list[str]) -> dict:
    return {"type": "object", "properties": props, "required": required}


_S = {"type": "string"}
_I = {"type": "integer"}
_LS = {"type": "array", "items": {"type": "string"}}

# tool name → (description, inputSchema) — the reference's tool surface
TOOL_SPECS: dict[str, tuple[str, dict]] = {
    "add_memory": (
        "Add an episode to memory (queued; episodes for the same group_id "
        "process sequentially).",
        _schema(
            {
                "name": _S, "episode_body": _S, "group_id": _S,
                "source": _S, "source_description": _S, "uuid": _S,
            },
            ["name", "episode_body"],
        ),
    ),
    "search_memory_nodes": (
        "Search the graph memory for relevant node summaries.",
        _schema(
            {
                "query": _S, "group_ids": _LS, "max_nodes": _I,
                "center_node_uuid": _S, "entity": _S,
            },
            ["query"],
        ),
    ),
    "search_memory_facts": (
        "Search the graph memory for relevant facts.",
        _schema(
            {"query": _S, "group_ids": _LS, "max_facts": _I, "center_node_uuid": _S},
            ["query"],
        ),
    ),
    "delete_entity_edge": ("Delete an entity edge from the graph memory.", _schema({"uuid": _S}, ["uuid"])),
    "delete_episode": ("Delete an episode from the graph memory.", _schema({"uuid": _S}, ["uuid"])),
    "get_entity_edge": ("Get an entity edge by its UUID.", _schema({"uuid": _S}, ["uuid"])),
    "get_episodes": (
        "Get the most recent memory episodes for a specific group.",
        _schema({"group_id": _S, "last_n": _I}, []),
    ),
    "clear_graph": ("Clear all data from the graph memory.", _schema({}, [])),
    "get_status": ("Get the status of the MCP server and graph backend.", _schema({}, [])),
}


class McpServer:
    """Transport-free MCP tool server over one graph directory."""

    def __init__(self, out_dir: str, default_group_id: str = "default", svc: GraphService | None = None):
        self.svc = svc or GraphService(out_dir)
        self.out_dir = self.svc.out_dir
        self.default_group_id = default_group_id
        # per-group sequential ingest queues (reference :652-689)
        self._queues: dict[str, queue.Queue] = {}
        self._workers: dict[str, threading.Thread] = {}
        self._qlock = threading.Lock()

    # ---------------------------------------------------------- queueing

    def _group_queue(self, group_id: str) -> queue.Queue:
        with self._qlock:
            q = self._queues.get(group_id)
            if q is None:
                q = self._queues[group_id] = queue.Queue()
                w = threading.Thread(target=self._drain, args=(group_id, q), daemon=True)
                self._workers[group_id] = w
                w.start()
            return q

    def _drain(self, group_id: str, q: queue.Queue) -> None:
        while True:
            fn = q.get()
            try:
                fn()
            except Exception as e:  # pragma: no cover — logged, queue keeps draining
                print(f"[mcp] episode job failed for group {group_id}: {e!r}")
            finally:
                q.task_done()

    def flush(self) -> None:
        """Block until every group's queue drains (test hook — the
        reference queues offer no such hook)."""
        with self._qlock:
            queues = list(self._queues.values())
        for q in queues:
            q.join()

    # ------------------------------------------------------------- tools

    def add_memory(
        self,
        name: str,
        episode_body: str,
        group_id: str | None = None,
        source: str = "text",
        source_description: str = "",
        uuid: str | None = None,
    ) -> dict:
        gid = group_id if group_id is not None else self.default_group_id
        q = self._group_queue(gid)
        q.put(
            lambda: self.svc.add_episode(
                gid, name, episode_body, source=source,
                source_description=source_description, uuid=uuid,
            )
        )
        return {"message": f"Episode '{name}' queued for processing (position: {q.qsize()})"}

    def search_memory_nodes(
        self,
        query: str,
        group_ids: list[str] | None = None,
        max_nodes: int = 10,
        center_node_uuid: str | None = None,
        entity: str = "",
    ) -> dict:
        import dataclasses

        from .search.filters import SearchFilters
        from .search.hybrid import (
            NODE_HYBRID_SEARCH_NODE_DISTANCE,
            NODE_HYBRID_SEARCH_RRF,
            GraphStore,
            search as hybrid_search,
        )

        base = NODE_HYBRID_SEARCH_NODE_DISTANCE if center_node_uuid else NODE_HYBRID_SEARCH_RRF
        cfg = dataclasses.replace(base, limit=max_nodes)
        filters = SearchFilters(node_labels=[entity]) if entity else None
        store = GraphStore(self.out_dir)
        res = hybrid_search(
            store, query, cfg, group_ids=group_ids,
            center_node_uuid=center_node_uuid, search_filter=filters,
        )
        uuids = list(res.nodes["uuid"]) if len(res.nodes) else []
        if not uuids:
            return {"message": "No relevant nodes found", "nodes": []}
        rows = store.fetch(
            "nodes", uuids, ["uuid", "name", "summary", "labels", "group_id", "created_at", "attributes"],
            group_ids,
        )
        by = {r["uuid"]: r for r in rows.to_dict("records")}
        nodes = [
            {
                "uuid": u,
                "name": by[u]["name"],
                "summary": by[u].get("summary") or "",
                # a list column arrives as a numpy array on a pandas row
                "labels": [] if by[u].get("labels") is None else list(by[u]["labels"]),
                "group_id": by[u]["group_id"],
                "created_at": _iso(by[u]["created_at"]),
                "attributes": json.loads(by[u].get("attributes") or "{}"),
            }
            for u in uuids
            if u in by
        ]
        return {"message": "Nodes retrieved successfully", "nodes": nodes}

    def search_memory_facts(
        self,
        query: str,
        group_ids: list[str] | None = None,
        max_facts: int = 10,
        center_node_uuid: str | None = None,
    ) -> dict:
        if max_facts <= 0:
            return {"error": "max_facts must be a positive integer"}
        res = self.svc.search(
            query, group_ids=group_ids, max_facts=max_facts, center_node_uuid=center_node_uuid
        )
        if not res["facts"]:
            return {"message": "No relevant facts found", "facts": []}
        return {"message": "Facts retrieved successfully", "facts": res["facts"]}

    def delete_entity_edge(self, uuid: str) -> dict:
        r = self.svc.delete_entity_edge(uuid)
        if not r.get("rows_removed"):
            return {"error": f"Entity edge with UUID {uuid} not found"}
        return {"message": f"Entity edge with UUID {uuid} deleted successfully"}

    def delete_episode(self, uuid: str) -> dict:
        self.svc.delete_episode(uuid)
        return {"message": f"Episode with UUID {uuid} deleted successfully"}

    def get_entity_edge(self, uuid: str) -> dict:
        r = self.svc.get_entity_edge(uuid)
        if r is None:
            return {"error": f"Entity edge with UUID {uuid} not found"}
        return r

    def get_episodes(self, group_id: str | None = None, last_n: int = 10) -> dict | list:
        gid = group_id if group_id is not None else self.default_group_id
        eps = self.svc.get_episodes(gid, last_n)
        if not eps:
            return {"message": f"No episodes found for group {gid}", "episodes": []}
        return eps

    def clear_graph(self) -> dict:
        self.flush()
        self.svc.clear()
        return {"message": "Graph cleared successfully"}

    def get_status(self) -> dict:
        import os

        try:
            tables = [
                t for t in (sorted(os.listdir(self.out_dir)) if os.path.isdir(self.out_dir) else [])
                if not t.startswith("_")
            ]
            return {
                "status": "ok",
                "message": f"Graph backend at {self.out_dir} is healthy ({len(tables)} tables)",
            }
        except OSError as e:  # pragma: no cover — unreadable out_dir
            return {"status": "error", "message": repr(e)}

    # ------------------------------------------------------ JSON-RPC core

    def _call_tool(self, name: str, args: dict):
        if name not in TOOL_SPECS:
            return {"error": f"unknown tool {name!r}"}
        fn = getattr(self, name)
        # distinguish bad CALL arguments from TypeErrors raised inside the
        # tool body — binding validates the signature without running it
        import inspect

        try:
            inspect.signature(fn).bind(**args)
        except TypeError as e:
            return {"error": f"bad arguments for {name}: {e}"}
        try:
            return fn(**args)
        except Exception as e:  # tool-level failure → ErrorResponse parity
            return {"error": f"Error in {name}: {e!r}"}

    def handle(self, req: dict) -> dict | None:
        """One JSON-RPC 2.0 request → response dict (None for
        notifications). Implements the MCP subset: initialize,
        notifications/initialized, tools/list, tools/call."""
        method = req.get("method")
        rid = req.get("id")
        if method == "notifications/initialized":
            return None
        if method == "initialize":
            result = {
                "protocolVersion": PROTOCOL_VERSION,
                "capabilities": {"tools": {}},
                "serverInfo": SERVER_INFO,
            }
        elif method == "tools/list":
            result = {
                "tools": [
                    {"name": n, "description": d, "inputSchema": s}
                    for n, (d, s) in TOOL_SPECS.items()
                ]
            }
        elif method == "tools/call":
            params = req.get("params") or {}
            out = self._call_tool(params.get("name", ""), params.get("arguments") or {})
            if isinstance(out, pd.DataFrame):  # defensive; tools return dicts/lists
                out = out.to_dict("records")
            is_err = isinstance(out, dict) and "error" in out
            result = {
                "content": [{"type": "text", "text": json.dumps(out)}],
                "isError": bool(is_err),
            }
        else:
            return {
                "jsonrpc": "2.0",
                "id": rid,
                "error": {"code": -32601, "message": f"method not found: {method}"},
            }
        return {"jsonrpc": "2.0", "id": rid, "result": result}


def serve_stdio(out_dir: str, stdin=None, stdout=None) -> None:
    """MCP stdio transport: newline-delimited JSON-RPC on stdin/stdout.
    Ray must already be initialised (tools run engine pipelines)."""
    import sys

    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    server = McpServer(out_dir)
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        try:
            req = json.loads(line)
        except json.JSONDecodeError:
            resp = {"jsonrpc": "2.0", "id": None, "error": {"code": -32700, "message": "parse error"}}
        else:
            resp = server.handle(req)
        if resp is not None:
            stdout.write(json.dumps(resp) + "\n")
            stdout.flush()


if __name__ == "__main__":  # CLI entry point — owns its Ray session
    import argparse

    import ray

    ap = argparse.ArgumentParser(description="Serve a graph dir over MCP stdio")
    ap.add_argument("out_dir")
    args = ap.parse_args()
    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")
    try:
        serve_stdio(args.out_dir)
    finally:
        ray.shutdown()
