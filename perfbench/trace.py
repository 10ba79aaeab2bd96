"""Spans recorded from outside the engine.

The traced run wraps public functions of the engine's modules (module
attributes, so every caller that looks the name up at call time goes
through the wrapper) and records one span per call: name, layer, start,
end, parent span and request id. Spans stay in memory and are written when
the run ends.

Only functions the driver process calls are wrapped: code shipped to Ray
workers keeps the originals. A call that returns a lazy Dataset only plans
work; each such layer is timed either through the call that executes it
(the table write that drains the edges or MENTIONS job) or by materializing
its output inside the span, in traced operations only. ``METHODS`` names the
method per layer.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager

# how each layer's time is obtained (printed with the per-layer table)
METHODS = {
    "extract": "span around pipelines.kg.extract_phase (eager)",
    "canonicalize": "span around stages.canonicalize.canonicalize as called by pipelines.kg (eager)",
    "edges": "span around io.write_table_distributed of the edges table, which executes the lazy edges job",
    "mentions": "span around io.write_table_distributed of episodic_edges, which executes the lazy MENTIONS job",
    "io": "spans around io.write_shard_atomic (eager driver-side table writes)",
    "corpus": "span around io.write_table_distributed of an append slot, which executes the lazy corpus chain",
    "kg": "span around pipelines.kg.link_and_edges_phase (eager)",
    "search": "span around search.hybrid.search (eager)",
    "bm25": "span around search.bm25.bm25_topk as called by search.hybrid (eager)",
    "cosine": "span around search.vector.cosine_topk as called by search.hybrid (eager)",
    "rerank": "span around search.rerank.rrf as called by search.hybrid (eager)",
    "embed": "span around stages.embed.embed_text as called by search.hybrid; rates from a driver-side probe",
    "dedup.within": "span around functions.dedup.fuzzy_dedup_rows, output materialized inside the span",
    "dedup.cross": "span around functions.dedup.fuzzy_cross_dedup_rows, output materialized inside the span",
}


class Tracer:
    """In-memory span recorder. ``recording`` switches the wrappers between
    recording and plain pass-through, so one run can alternate traced and
    untraced operations."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.recording = False
        self.request_id: str | None = None
        self._root: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._seq = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self.rows_cache: dict[tuple, int] = {}

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, layer: str, **attrs):
        stack = self._stack()
        sp = {
            "id": next(self._seq),
            "name": name,
            "layer": layer,
            "request": self.request_id,
            # a span opened on a thread the engine started (the MENTIONS
            # job) has an empty stack: its parent is the request root
            "parent": stack[-1]["id"] if stack else self._root,
            "attrs": dict(attrs),
        }
        stack.append(sp)
        sp["start"] = time.perf_counter()
        try:
            yield sp
        finally:
            sp["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(sp)

    @contextmanager
    def request(self, request_id: str, route: str):
        """Root span of one client request."""
        self.request_id = request_id
        try:
            with self.span(route, "client") as sp:
                self._root = sp["id"]
                yield sp
        finally:
            self._root = None
            self.request_id = None

    def patch(self, owner, attr: str, name: str, layer: str, *, classify=None, attrs=None, materialize=False):
        """Wrap ``owner.attr``. ``classify(args, kwargs) -> (name, layer)``
        overrides the span name per call; ``attrs(out, args, kwargs) ->
        dict`` records counts; ``materialize`` executes a returned lazy
        Dataset inside the span."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return orig(*args, **kwargs)
            n, lay = classify(args, kwargs) if classify else (name, layer)
            with tracer.span(n, lay) as sp:
                out = orig(*args, **kwargs)
                if materialize:
                    out = out.materialize()
            if attrs:
                sp["attrs"].update(attrs(out, args, kwargs))
            return out

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # ------------------------------------------------------------ analysis

    def write(self, path: str) -> None:
        """Spans as JSON lines, times in seconds from the first span."""
        t0 = min((s["start"] for s in self.spans), default=0.0)
        with open(path, "w") as f:
            for s in sorted(self.spans, key=lambda s: s["start"]):
                row = {k: s[k] for k in ("id", "name", "layer", "request", "parent", "attrs")}
                row["start_s"] = s["start"] - t0
                row["end_s"] = s["end"] - t0
                f.write(json.dumps(row) + "\n")


def layer_times(spans: list[dict]) -> dict[str, float]:
    """Inclusive seconds per layer within one request: the outermost spans
    of each layer, so a layer nested in itself is not counted twice.
    Concurrent branches (edges ∥ MENTIONS) overlap, so the layers of one
    request can sum to more than its wall."""
    by_id = {s["id"]: s for s in spans}
    out: dict[str, float] = {}
    for s in spans:
        if s["layer"] == "client":
            continue
        p = by_id.get(s["parent"])
        if p is not None and p["layer"] == s["layer"]:
            continue
        out[s["layer"]] = out.get(s["layer"], 0.0) + (s["end"] - s["start"])
    return out


def self_times(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds (duration minus the
    part covered by child spans, floored at zero for concurrent children)."""
    child: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + (s["end"] - s["start"])
    out: dict[str, dict] = {}
    for s in spans:
        d = s["end"] - s["start"]
        row = out.setdefault(s["name"], {"layer": s["layer"], "calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += d
        row["self_s"] += max(0.0, d - child.get(s["id"], 0.0))
    return out


def install(tracer: Tracer, graph_dir_of=None) -> None:
    """Wrap the engine's public functions at the layer boundaries.
    ``graph_dir_of()`` returns the served graph's directory, used to look
    up how many rows a BM25 call scanned."""
    from graphiti_hf_ray import io as gio
    from graphiti_hf_ray.functions import dedup
    from graphiti_hf_ray.pipelines import kg
    from graphiti_hf_ray.search import hybrid

    def write_kind(args, kwargs):
        d = os.path.normpath(args[1] if len(args) > 1 else kwargs["d"])
        table = os.path.basename(d)
        if os.path.basename(os.path.dirname(d)) in ("packs", "doc_keys"):
            # an append slot: the pack write drains the lazy corpus chain
            table = os.path.basename(os.path.dirname(d))
            return f"corpus.write[{table}]", "corpus"
        layer = {"edges": "edges", "episodic_edges": "mentions"}.get(table, "io")
        return f"io.write_table_distributed[{table}]", layer

    def shard_kind(args, kwargs):
        d = args[1] if len(args) > 1 else kwargs["d"]
        table = os.path.basename(os.path.dirname(os.path.normpath(d)))
        return f"io.write_shard_atomic[{table}]", "io"

    def canon_counts(out, args, kwargs):
        aliases = int((out["surface"] != out["canon_name"]).sum()) if len(out) else 0
        return {"mentions": len(out), "aliases": aliases}

    def bm25_counts(out, args, kwargs):
        text_col = kwargs.get("text_col", args[2] if len(args) > 2 else None)
        table = {"fact": "edges", "name": "nodes", "content": "episodes", "summary": "communities"}.get(text_col)
        rows = table_rows(graph_dir_of(), table, tracer.rows_cache) if graph_dir_of and table else 0
        return {"hits": len(out), "rows_scanned": rows}

    tracer.patch(kg, "extract_phase", "kg.extract_phase", "extract")
    tracer.patch(kg, "link_and_edges_phase", "kg.link_and_edges_phase", "kg")
    tracer.patch(kg, "canonicalize", "stages.canonicalize", "canonicalize", attrs=canon_counts)
    tracer.patch(
        kg, "merge_and_invalidate", "stages.merge_and_invalidate", "edges",
        attrs=lambda out, a, kw: {"salted": bool(kw.get("force_salted", False))},
    )
    tracer.patch(gio, "write_table_distributed", "", "", classify=write_kind)
    tracer.patch(gio, "write_shard_atomic", "", "", classify=shard_kind)
    tracer.patch(hybrid, "search", "search.hybrid", "search")
    tracer.patch(hybrid, "bm25_topk", "search.bm25_topk", "bm25", attrs=bm25_counts)
    tracer.patch(hybrid, "cosine_topk", "search.cosine_topk", "cosine")
    tracer.patch(hybrid, "rrf", "search.rrf", "rerank")
    tracer.patch(hybrid, "embed_text", "embed.embed_text", "embed")
    tracer.patch(dedup, "fuzzy_dedup_rows", "dedup.fuzzy_dedup_rows", "dedup.within", materialize=True)
    tracer.patch(dedup, "fuzzy_cross_dedup_rows", "dedup.fuzzy_cross_dedup_rows", "dedup.cross", materialize=True)


def table_rows(out_dir: str, table: str, cache: dict | None = None) -> int:
    """Row count of a graph table from its shard manifests. ``cache`` is
    keyed by the table directory's identity and mtime, which change
    whenever a shard is added or the table is rewritten."""
    from graphiti_hf_ray import io as gio

    root = os.path.join(out_dir, table)
    if not os.path.isdir(root):
        return 0
    st = os.stat(root)
    key = (root, st.st_ino, st.st_mtime_ns)
    if cache is not None and key in cache:
        return cache[key]
    rows = 0
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if not d.startswith(".tmp")]
        if gio.MANIFEST in filenames:
            with open(os.path.join(dirpath, gio.MANIFEST)) as f:
                rows += json.load(f).get("rows", 0)
    if cache is not None:
        cache[key] = rows
    return rows
