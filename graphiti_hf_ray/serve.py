"""Serving/ingestion endpoints (SURVEY.md §2 S6).

The reference exposes the graph as a FastAPI service
(server/graph_service/routers/ingest.py:51-105 + retrieve.py:17-57) with
an in-process async ingest queue. This rebuild keeps the SAME route
surface and payload shapes but stays dependency-free (stdlib
``http.server``) and Ray-Data-backed: every handler delegates to the
engine's existing batch operators — ingestion spools messages into pages
parquet and runs the shard-resumable incremental build (extract appends
shards; the link phase folds a small new run into the persisted tables,
or re-derives them when it cannot — see ``pipelines.kg``), search goes
through the hybrid recipe engine, deletes reuse the atomic table-dir
filters. Reads take ``GraphStore``'s placement: a table whose read
columns fit in ``search.hybrid.SEARCH_DRIVER_MAX_BYTES`` is read once on
the driver with pyarrow (search, the fact fetch of ``/search``,
``GET /entity-edge``, ``GET /episodes``), so a request over a small graph
starts no Ray Data job; a larger table is read through Ray Data.

Routes (reference parity):

- ``POST /messages``           → 202, enqueue messages for background
  ingestion (ingest.py:51-70; the AsyncWorker queue becomes a daemon
  thread draining a ``queue.Queue``)
- ``POST /entity-node``        → 201, upsert a manual entity node
  (ingest.py:73-85 ``save_entity_node``)
- ``DELETE /entity-edge/{uuid}`` / ``DELETE /group/{gid}`` /
  ``DELETE /episode/{uuid}``   → atomic filtered rewrites
  (ingest.py:87-102)
- ``POST /clear``              → wipe the graph dir (ingest.py:105-110)
- ``POST /search``             → hybrid search, FactResult list
  (retrieve.py:17-27)
- ``GET /entity-edge/{uuid}``  → one FactResult (retrieve.py:30-33)
- ``GET /episodes/{group_id}?last_n=N`` → latest-N episodes
  (retrieve.py:36-41)
- ``POST /get-memory``         → query composed from messages, searched
  (retrieve.py:44-63 ``compose_query_from_messages``)

``GraphService`` is the transport-free core (drive it directly from
tests or notebooks); ``serve()`` wraps it in a ThreadingHTTPServer.
"""

from __future__ import annotations

import hashlib
import html as _html
import json
import os
import queue
import threading

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .ids import md5_id
from .pipelines.kg import DEFAULT_RUN_TS_US, URL_INDEX, build_graph, invalidate_url_index

_FACT_COLS = ("uuid", "name", "fact", "valid_at", "invalid_at", "created_at", "expired_at")


def _iso(v) -> str | None:
    if v is None or (isinstance(v, float) and pd.isna(v)) or v is pd.NaT:
        return None
    ts = pd.Timestamp(v)
    if pd.isna(ts):
        return None
    return ts.isoformat() + "+00:00"  # run timestamps are UTC by contract


def _fact_result(row: dict) -> dict:
    """FactResult shape (server/graph_service/dto/retrieve.py:16-27)."""
    return {
        "uuid": row["uuid"],
        "name": row["name"],
        "fact": row["fact"],
        "valid_at": _iso(row.get("valid_at")),
        "invalid_at": _iso(row.get("invalid_at")),
        "created_at": _iso(row.get("created_at")),
        "expired_at": _iso(row.get("expired_at")),
    }


def compose_query_from_messages(messages: list[dict]) -> str:
    """retrieve.py:60-63, byte-identical composition."""
    out = ""
    for m in messages:
        out += f"{m.get('role_type') or ''}({m.get('role') or ''}): {m.get('content', '')}\n"
    return out


class GraphService:
    """Transport-free service core over one graph output directory.

    Ingestion model: each ``add_messages`` batch becomes one pages parquet
    in ``<out_dir>/_ingest_spool``; the background worker (the reference's
    AsyncWorker, ingest.py:13-47) drains the queue and runs the engine's
    incremental build — extract appends content-fingerprinted shards, and
    the link phase takes one of four routes (``link_and_edges_phase``):
    ``delta`` folds the new run's triples into the persisted tables,
    touching only the entities, edge buckets and MENTIONS rows it adds;
    ``group`` re-derives the link rows of the run's groups when a new
    mention merges entities or renames one; ``unchanged`` (a re-post of a
    spooled batch) writes nothing; ``full`` re-derives the graph from the
    shard union (idempotent, deterministic ids) when a url recurs across
    runs, the tables were edited since the last link, the url index is
    missing (removing an episode drops it) or the groups are too large
    for the driver.
    ``_job_metrics.json`` names the route and the reason.
    ``flush()`` blocks until the queue drains (tests; the reference's
    queue offers no such hook)."""

    def __init__(
        self,
        out_dir: str,
        run_ts_us: int = DEFAULT_RUN_TS_US,
        extractor_factory=None,
        extractor_resources: dict | None = None,
    ):
        # the deployment-level extractor choice (e.g. an LLM/GPU-backed
        # one — see extract_phase's docstring) is pinned at service
        # construction and used by EVERY incremental build: shard resume
        # fingerprints don't cover the extractor, so per-request swapping
        # over one out_dir would silently mix extraction regimes
        self.out_dir = out_dir
        self.run_ts_us = run_ts_us
        self._extractor_kwargs = dict(
            extractor_factory=extractor_factory, extractor_resources=extractor_resources
        )
        self.spool_dir = os.path.join(out_dir, "_ingest_spool")
        os.makedirs(self.spool_dir, exist_ok=True)
        self._q: queue.Queue = queue.Queue()
        self._lock = threading.Lock()  # one build at a time
        # deterministic per-episode reference-time sequence: MCP add_memory
        # has no client timestamp (the reference stamps now(); wall clock is
        # banned here), so each new episode gets run_ts + seq µs — ingestion
        # order IS the temporal order, and a restart resumes past the
        # latest spooled episode (not past the spool count: a deleted
        # episode's spool is gone, and counting would reissue a live seq)
        self._seq_lock = threading.Lock()
        self._migrate_spool_names()
        self._ep_seq = self._last_spooled_seq()
        self._worker = threading.Thread(target=self._drain, daemon=True)
        self._worker.start()

    def _migrate_spool_names(self) -> None:
        """Rename legacy ``episode-{ep_key[:16]}.parquet`` spools to the
        md5-of-full-key scheme. Without this, a service restarted over a
        persisted out_dir would not SEE the legacy spool for an episode —
        so a changed-body re-add would silently ingest a second
        conflicting body under the same episode uuid instead of raising
        (the full key is recoverable from the spooled url)."""
        import pyarrow.parquet as pq

        from .ids import md5_id

        for fn in sorted(os.listdir(self.spool_dir)):
            if not (fn.startswith("episode-") and fn.endswith(".parquet")):
                continue
            p = os.path.join(self.spool_dir, fn)
            url = pq.read_table(p, columns=["url"]).column("url").to_pylist()[0]
            ep_key = url.rsplit("/", 1)[1]
            want = f"episode-{md5_id('spool:' + ep_key)}.parquet"
            if fn != want:
                os.replace(p, os.path.join(self.spool_dir, want))

    def _last_spooled_seq(self) -> int:
        import pyarrow.parquet as pq

        seqs = [
            pq.read_table(os.path.join(self.spool_dir, fn), columns=["warc_ts"])
            .column("warc_ts").cast(pa.int64())[0].as_py() - self.run_ts_us
            for fn in os.listdir(self.spool_dir)
            if fn.startswith("episode-") and fn.endswith(".parquet")
        ]
        return max([0, *seqs])

    # ------------------------------------------------------------- ingest

    def add_messages(self, group_id: str, messages: list[dict]) -> dict:
        """POST /messages (ingest.py:51-70): 202-style enqueue. Message
        fields: uuid?, name?, role?, role_type?, content, timestamp
        (ISO), source_description?."""
        self._q.put(("messages", group_id, messages))
        return {"message": "Messages added to processing queue", "success": True}

    def flush(self) -> None:
        self._q.join()

    def _drain(self) -> None:
        while True:
            kind, group_id, messages = self._q.get()
            try:
                if kind == "messages":
                    self._ingest_messages(group_id, messages)
            except Exception as e:  # pragma: no cover - logged, queue keeps draining
                print(f"[serve] ingest job failed: {e!r}")
            finally:
                self._q.task_done()

    def _ingest_messages(self, group_id: str, messages: list[dict]) -> None:
        rows = {"url": [], "warc_ts": [], "html": [], "text": [], "lang": [], "group_id": []}
        for m in messages:
            # episode body per ingest.py:57-63: "role(role_type): content"
            body = f"{m.get('role') or ''}({m.get('role_type', 'user')}): {m.get('content', '')}"
            name = m.get("uuid") or m.get("name") or md5_id("msg:" + body)
            ts = int(pd.Timestamp(m.get("timestamp", 0)).value // 1000)  # µs
            rows["url"].append(f"message://{group_id}/{name}")
            rows["warc_ts"].append(ts)
            # wrap in minimal HTML so the pinned extractor recovers the
            # body byte-identically (extract/html.py pulls <p> blocks)
            rows["html"].append(
                ("<html><body><p>" + _html.escape(body) + "</p></body></html>").encode()
            )
            rows["text"].append(body)
            rows["lang"].append("en")
            rows["group_id"].append(group_id)
        t = pa.table(
            {
                "url": pa.array(rows["url"], pa.string()),
                "warc_ts": pa.array(rows["warc_ts"], pa.timestamp("us")),
                "html": pa.array(rows["html"], pa.binary()),
                "text": pa.array(rows["text"], pa.string()),
                "lang": pa.array(rows["lang"], pa.string()),
                "group_id": pa.array(rows["group_id"], pa.string()),
            }
        )
        digest = hashlib.md5("".join(sorted(rows["url"])).encode()).hexdigest()[:16]
        spool = os.path.join(self.spool_dir, f"batch-{digest}.parquet")
        if not os.path.exists(spool):
            import pyarrow.parquet as pq

            pq.write_table(t, spool + ".tmp-w")
            os.replace(spool + ".tmp-w", spool)
        with self._lock:
            build_graph(
                [spool], self.out_dir, self.run_ts_us, num_shards=1,
                **self._extractor_kwargs,
            )

    def add_episode(
        self,
        group_id: str,
        name: str,
        episode_body: str,
        source: str = "text",
        source_description: str = "",
        uuid: str | None = None,
    ) -> dict:
        """Synchronous single-episode ingest (the reference's
        ``Graphiti.add_episode`` surface the MCP add_memory tool queues,
        mcp_server/graphiti_mcp_server.py:692-828). ``source`` parity:
        'text'/'message' bodies ingest verbatim; 'json' bodies are
        flattened to deterministic "path: value" lines (the reference
        extracts entities from JSON properties via the LLM; the flatten
        is this engine's deterministic stand-in feeding the same
        extraction seam). Queueing/sequencing is the CALLER's concern
        (mcp.McpServer keeps the reference's per-group sequential queues);
        this method spools one pages row and runs the incremental build
        under the single-writer lock."""
        body = episode_body
        if source.lower() == "json":
            obj = json.loads(episode_body)

            def flatten(prefix: str, v) -> list[str]:
                if isinstance(v, dict):
                    return [ln for k2, v2 in sorted(v.items()) for ln in flatten(f"{prefix}.{k2}" if prefix else str(k2), v2)]
                if isinstance(v, list):
                    return [ln for i, v2 in enumerate(v) for ln in flatten(f"{prefix}[{i}]", v2)]
                return [f"{prefix}: {v}"]

            body = "\n".join(flatten("", obj))
        ep_key = uuid or md5_id("mem:" + group_id + ":" + name + ":" + body)
        with self._seq_lock:
            self._ep_seq += 1
            seq = self._ep_seq
        t = pa.table(
            {
                "url": pa.array([f"memory://{group_id}/{ep_key}"], pa.string()),
                "warc_ts": pa.array([self.run_ts_us + seq], pa.timestamp("us")),
                "html": pa.array(
                    [("<html><body><p>" + _html.escape(body) + "</p></body></html>").encode()],
                    pa.binary(),
                ),
                "text": pa.array([body], pa.string()),
                "lang": pa.array(["en"], pa.string()),
                "group_id": pa.array([group_id], pa.string()),
            }
        )
        # filename = md5 of the FULL key: a prefix-truncated key collided
        # two structured caller uuids sharing 16 leading chars (false
        # "different content" errors / silent second-episode drops), and a
        # raw caller uuid could carry path-hostile characters
        spool = os.path.join(
            self.spool_dir, f"episode-{md5_id('spool:' + ep_key)}.parquet"
        )
        with self._lock:  # spool check/write races delete_episode's purge
            import pyarrow.parquet as pq

            if not os.path.exists(spool):
                pq.write_table(t, spool + ".tmp-w")
                os.replace(spool + ".tmp-w", spool)
            else:
                old = pq.read_table(spool, columns=["text"]).column("text").to_pylist()
                if old != [body]:
                    # single-writer update semantics, stated instead of
                    # silent: the old behavior rebuilt the SPOOLED body and
                    # discarded the new one without any signal
                    raise ValueError(
                        f"episode {ep_key!r} already ingested with different "
                        "content; delete the episode first, then re-add"
                    )
            build_graph(
                [spool], self.out_dir, self.run_ts_us, num_shards=1,
                **self._extractor_kwargs,
            )
        return {"uuid": md5_id("ep:" + f"memory://{group_id}/{ep_key}"), "name": name, "group_id": group_id}

    def add_entity_node(
        self, group_id: str, name: str, summary: str = "", uuid: str | None = None
    ) -> dict:
        """POST /entity-node (ingest.py:73-85): manual node upsert through
        the deterministic id + embedding rules."""
        from .ids import entity_uuid
        from .schemas import EMBED_DIM, NODES
        from .stages.embed import embed_many

        import pyarrow.parquet as pq

        nu = uuid or entity_uuid(group_id, "Entity", name)
        emb = embed_many([name])
        row = pa.table(
            {
                "uuid": pa.array([nu]),
                "name": pa.array([name]),
                "group_id": pa.array([group_id]),
                "labels": pa.array([["Entity"]], pa.list_(pa.string())),
                "created_at": pa.array([self.run_ts_us], pa.timestamp("us")),
                "name_embedding": pa.FixedSizeListArray.from_arrays(
                    pa.array(emb.ravel(), pa.float32()), EMBED_DIM
                ),
                "summary": pa.array([summary]),
                "attributes": pa.array(["{}"]),
            },
            schema=NODES,
        )
        from . import io as gio

        dest = os.path.join(self.out_dir, "nodes", "manual.parquet")
        os.makedirs(os.path.dirname(dest), exist_ok=True)
        if os.path.exists(dest):
            old = pq.read_table(dest)
            if nu in set(old.column("uuid").to_pylist()):
                return {"uuid": nu, "name": name, "group_id": group_id, "status": "exists"}
            row = pa.concat_tables([old, row.cast(old.schema)])
        gio.rewrite_file_atomic(row, dest)
        return {"uuid": nu, "name": name, "group_id": group_id, "status": "created"}

    # ------------------------------------------------------------- delete

    def delete_entity_edge(self, uuid: str) -> dict:
        from .pipelines.maintenance import _filter_table_dir

        scalar = pa.scalar(uuid)
        n = _filter_table_dir(
            os.path.join(self.out_dir, "edges"),
            lambda t: pc.invert(pc.equal(t.column("uuid"), scalar)),
        )
        return {"message": "Entity Edge deleted", "success": True, "rows_removed": int(n)}

    def delete_group(self, group_id: str) -> dict:
        """DELETE /group/{gid}: the group's rows in every graph table and
        log, and its spool files, under the single-writer lock — a row
        left in the triples log would come back with the next build's
        link."""
        from .pipelines.maintenance import _filter_table_dir

        import pyarrow.parquet as pq

        scalar = pa.scalar(group_id)
        removed = 0
        with self._lock:
            # before any rewrite, so a crash part-way leaves no index that
            # still counts the group's episodes
            invalidate_url_index(self.out_dir)
            for table in (
                "nodes", "edges", "episodes", "episodic_edges", "triples",
                "communities", "community_edges", "duplicate_edges",
            ):
                root = os.path.join(self.out_dir, table)
                if os.path.isdir(root):
                    removed += _filter_table_dir(
                        root, lambda t: pc.invert(pc.equal(t.column("group_id"), scalar))
                    )
            for fn in sorted(os.listdir(self.spool_dir)):
                p = os.path.join(self.spool_dir, fn)
                if fn.endswith(".parquet") and group_id in pq.read_table(p, columns=["group_id"]).column("group_id").to_pylist():
                    os.remove(p)
        return {"message": "Group deleted", "success": True, "rows_removed": int(removed)}

    def delete_episode(self, uuid: str) -> dict:
        from .pipelines.maintenance import remove_episode

        # under the single-writer lock: the table/log rewrites must not
        # interleave with a concurrent add's build_graph (a half-filtered
        # triples log re-derives the victim's MENTIONS), and the spool
        # purge must not race add_episode's exists/read pair
        with self._lock:
            stats = remove_episode(self.out_dir, uuid)
            # drop the matching spool file too, so delete → re-add with
            # the same caller uuid and NEW content goes through
            # (add_episode rejects a changed body while the spool exists)
            import pyarrow.parquet as pq

            from .ids import md5_id

            for fn in sorted(os.listdir(self.spool_dir)):
                if not (fn.startswith("episode-") and fn.endswith(".parquet")):
                    continue
                p = os.path.join(self.spool_dir, fn)
                urls = pq.read_table(p, columns=["url"]).column("url").to_pylist()
                if any(md5_id("ep:" + u) == uuid for u in urls):
                    os.remove(p)
        return {"message": "Episode deleted", "success": True, **stats}

    def clear(self) -> dict:
        """POST /clear (ingest.py:105-110): wipe every graph table."""
        import shutil

        with self._lock:
            for table in (
                "nodes", "edges", "episodes", "episodic_edges", "triples",
                "communities", "community_edges", "duplicate_edges", "_ingest_spool", URL_INDEX,
            ):
                p = os.path.join(self.out_dir, table)
                if os.path.isdir(p):
                    shutil.rmtree(p)
            os.makedirs(self.spool_dir, exist_ok=True)
        return {"message": "Graph cleared", "success": True}

    # ------------------------------------------------------------ retrieve

    def search(
        self,
        query: str,
        group_ids: list[str] | None = None,
        max_facts: int = 10,
        recipe: str = "EDGE_HYBRID_SEARCH_RRF",
        center_node_uuid: str | None = None,
    ) -> dict:
        """POST /search (retrieve.py:17-27): hybrid edge search → facts.
        ``center_node_uuid`` switches to the node-distance reranker (the
        MCP search_memory_facts contract, graphiti_mcp_server.py:911-960)."""
        import dataclasses

        from .search.hybrid import ALL_RECIPES, GraphStore, search as hybrid_search

        if center_node_uuid is not None and recipe == "EDGE_HYBRID_SEARCH_RRF":
            recipe = "EDGE_HYBRID_SEARCH_NODE_DISTANCE"
        cfg = dataclasses.replace(ALL_RECIPES[recipe], limit=max_facts)
        store = GraphStore(self.out_dir)
        res = hybrid_search(store, query, cfg, group_ids=group_ids, center_node_uuid=center_node_uuid)
        uuids = list(res.edges["uuid"]) if len(res.edges) else []
        if not uuids:
            return {"facts": []}
        rows = store.fetch("edges", uuids, list(_FACT_COLS), group_ids)
        by = {r["uuid"]: r for r in rows.to_dict("records")}
        return {"facts": [_fact_result(by[u]) for u in uuids if u in by]}

    def get_entity_edge(self, uuid: str) -> dict | None:
        from .search.hybrid import GraphStore

        rows = GraphStore(self.out_dir).fetch("edges", [uuid], list(_FACT_COLS))
        if rows.empty:
            return None
        return _fact_result(rows.iloc[0].to_dict())

    def get_episodes(self, group_id: str, last_n: int) -> list[dict]:
        """GET /episodes/{group_id} (retrieve.py:36-41): latest-N by
        valid_at (retrieve_episodes semantics)."""
        from .search.hybrid import GraphStore
        from .search.placement import top_rows

        eps = top_rows(
            GraphStore(self.out_dir).read(
                "episodes", [group_id], ["uuid", "name", "content", "valid_at", "group_id"]
            ),
            [("valid_at", "descending"), ("uuid", "descending")],
            last_n,
        )
        return [
            {
                "uuid": r["uuid"],
                "name": r["name"],
                "content": r["content"],
                "valid_at": _iso(r["valid_at"]),
                "group_id": r["group_id"],
            }
            for r in eps.to_dict("records")
        ]

    def get_memory(self, group_id: str, messages: list[dict], max_facts: int = 10) -> dict:
        """POST /get-memory (retrieve.py:44-57)."""
        return self.search(
            compose_query_from_messages(messages), group_ids=[group_id], max_facts=max_facts
        )


# ---------------------------------------------------------------------------
# stdlib HTTP wrapper
# ---------------------------------------------------------------------------


def make_handler(svc: GraphService):
    from http.server import BaseHTTPRequestHandler

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *a):  # quiet
            pass

        def _json(self, code: int, obj) -> None:
            body = json.dumps(obj).encode()
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _body(self) -> dict:
            n = int(self.headers.get("Content-Length") or 0)
            return json.loads(self.rfile.read(n) or b"{}")

        def do_POST(self):
            try:
                req = self._body()
                if self.path == "/messages":
                    self._json(202, svc.add_messages(req["group_id"], req["messages"]))
                elif self.path == "/entity-node":
                    self._json(
                        201,
                        svc.add_entity_node(
                            req["group_id"], req["name"],
                            req.get("summary", ""), req.get("uuid"),
                        ),
                    )
                elif self.path == "/clear":
                    self._json(200, svc.clear())
                elif self.path == "/search":
                    self._json(
                        200,
                        svc.search(
                            req["query"], req.get("group_ids"), req.get("max_facts", 10)
                        ),
                    )
                elif self.path == "/get-memory":
                    self._json(
                        200,
                        svc.get_memory(
                            req["group_id"], req["messages"], req.get("max_facts", 10)
                        ),
                    )
                else:
                    self._json(404, {"message": "not found", "success": False})
            except Exception as e:
                self._json(500, {"message": repr(e), "success": False})

        def do_GET(self):
            try:
                from urllib.parse import parse_qs, urlparse

                u = urlparse(self.path)
                parts = u.path.strip("/").split("/")
                if len(parts) == 2 and parts[0] == "entity-edge":
                    r = svc.get_entity_edge(parts[1])
                    self._json(200 if r else 404, r or {"message": "not found", "success": False})
                elif len(parts) == 2 and parts[0] == "episodes":
                    last_n = int(parse_qs(u.query).get("last_n", ["10"])[0])
                    self._json(200, svc.get_episodes(parts[1], last_n))
                else:
                    self._json(404, {"message": "not found", "success": False})
            except Exception as e:
                self._json(500, {"message": repr(e), "success": False})

        def do_DELETE(self):
            try:
                parts = self.path.strip("/").split("/")
                if len(parts) == 2 and parts[0] == "entity-edge":
                    self._json(200, svc.delete_entity_edge(parts[1]))
                elif len(parts) == 2 and parts[0] == "group":
                    self._json(200, svc.delete_group(parts[1]))
                elif len(parts) == 2 and parts[0] == "episode":
                    self._json(200, svc.delete_episode(parts[1]))
                else:
                    self._json(404, {"message": "not found", "success": False})
            except Exception as e:
                self._json(500, {"message": repr(e), "success": False})

    return Handler


def serve(out_dir: str, host: str = "127.0.0.1", port: int = 8321):
    """Start the service; returns (server, service). Call
    ``server.shutdown()`` to stop. Ray must already be initialised (the
    handlers run engine pipelines)."""
    from http.server import ThreadingHTTPServer

    svc = GraphService(out_dir)
    server = ThreadingHTTPServer((host, port), make_handler(svc))
    t = threading.Thread(target=server.serve_forever, daemon=True)
    t.start()
    return server, svc
