"""The benchmark workloads. Each one builds its state in ``setup`` (repeated so
the set-up time can be reported as a median), then runs operations one at a
time from a single client thread (a closed loop with one client), and
checks every output.

An operation issues one or more requests through ``Runner.request``, which
times each request, applies the per-request deadline and records failures.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from perfbench import inputs

# tables the link phase rewrites whole on every build; episodes and
# triples are append-only logs
REWRITTEN = ("nodes", "edges", "episodic_edges", "duplicate_edges")
APPENDED = ("episodes", "triples")


def read_table(out_dir: str, table: str, columns: list[str] | None = None) -> pa.Table:
    # ignore_prefixes keeps Ray's half-written ".tmp-*" dirs out, as the
    # engine's own readers do
    ds = pads.dataset(
        os.path.join(out_dir, table), format="parquet", partitioning="hive",
        ignore_prefixes=[".", "_"],
    )
    return ds.to_table(columns=columns)


def table_digest(out_dir: str, table: str) -> str:
    """Content hash of a table, independent of file layout and row order."""
    t = read_table(out_dir, table)
    t = t.select(sorted(c for c in t.column_names if c != "shard"))
    keys = [(c, "ascending") for c in t.column_names if pa.types.is_string(t.schema.field(c).type)]
    t = t.sort_by(keys)
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return hashlib.md5(sink.getvalue().to_pybytes()).hexdigest()


def table_stats(out_dir: str) -> dict[str, dict]:
    """Rows, shards and bytes per graph table, from manifests and sizes."""
    from graphiti_hf_ray import io as gio

    out: dict[str, dict] = {}
    for table in APPENDED + REWRITTEN:
        root = os.path.join(out_dir, table)
        rows = shards = size = 0
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = [d for d in dirnames if not d.startswith(".")]
            for fn in filenames:
                size += os.path.getsize(os.path.join(dirpath, fn))
            if gio.MANIFEST in filenames:
                with open(os.path.join(dirpath, gio.MANIFEST)) as f:
                    rows += json.load(f).get("rows", 0)
                shards += 1
        out[table] = {"rows": rows, "shards": shards, "bytes": size}
    return out


def kg_counts(out_dir: str, before: dict[str, dict]) -> dict:
    """Per-build counts for the traced run: what one build read, wrote and
    which routes its auto-gates took (from ``_job_metrics.json``)."""
    after = table_stats(out_dir)
    with open(os.path.join(out_dir, "_job_metrics.json")) as f:
        timings = json.load(f)["timings"]
    inv = read_table(out_dir, "edges", ["invalid_at"]).column("invalid_at")

    def delta(t: str, k: str) -> int:
        return after[t][k] - before.get(t, {}).get(k, 0)

    written = [(t, after[t]) for t in REWRITTEN] + [
        (t, {"rows": delta(t, "rows"), "bytes": delta(t, "bytes")}) for t in APPENDED
    ]
    return {
        "pages_in": delta("episodes", "rows"),
        "triples_out": delta("triples", "rows"),
        "shards": delta("triples", "shards"),
        "triples_total": after["triples"]["rows"],
        "edges": after["edges"]["rows"],
        "mentions_rows": after["episodic_edges"]["rows"],
        "invalidated": len(inv) - inv.null_count,
        "distributed_canon": "distributed" in timings.get("canon_path", ""),
        "generic_mentions": timings.get("mentions_path", "").startswith("generic"),
        "rows_written": sum(s["rows"] for _, s in written),
        "bytes_written": sum(s["bytes"] for _, s in written),
        "timings": timings,
    }


class Workload:
    name = ""
    why = ""
    # Ray CPU slots, fixed per workload so runs compare across machines;
    # two lets the edges and MENTIONS jobs of one build overlap
    slots = 2
    # CPUs the run is pinned to. On a shared VM, Ray's processes spread over
    # several vCPUs run 20-40 % faster or slower from run to run with the
    # neighbours' load; on one vCPU the spread is a third of that
    cpus: int | None = 1
    work_unit = ""  # what work_per_s counts
    min_ops = 1  # operations a run makes even past the window
    digests: dict | None = None  # table content hashes, checked across runs

    def __init__(self, seed: int, work_dir: str, runner):
        self.seed = seed
        self.work_dir = work_dir
        self.runner = runner
        self.errors: list[str] = []
        self.work_done = 0

    def fail(self, msg: str) -> None:
        self.errors.append(msg)

    def setup(self, index: int) -> None:
        raise NotImplementedError

    def op(self, index: int) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need the whole run's outputs."""

    def graph_dir(self) -> str | None:
        return None


class KgBuild(Workload):
    name = "kg_build"
    why = "batch build_graph over seeded crawl pages: loads extract, canonicalize, edges, MENTIONS and io; search idle"
    work_unit = "triples"
    N_PAGES = 20_000
    WARM_PAGES = 1_000

    def setup(self, index: int) -> None:
        from graphiti_hf_ray.pipelines.kg import build_graph

        d = os.path.join(self.work_dir, f"setup{index}")
        os.makedirs(d)
        self.pages = os.path.join(d, "pages.parquet")
        pq.write_table(inputs.pages_table(self.seed, self.N_PAGES), self.pages, row_group_size=4096)
        warm = os.path.join(d, "warm.parquet")
        pq.write_table(inputs.pages_table(self.seed, self.WARM_PAGES, offset=self.N_PAGES), warm)
        build_graph([warm], os.path.join(d, "warm_graph"))
        self.gold = inputs.gold_triple_count(self.seed, self.N_PAGES)
        self.outputs: list[str] = []

    def op(self, index: int) -> None:
        from graphiti_hf_ray.pipelines.kg import build_graph

        out = os.path.join(self.work_dir, f"build{index}")
        m, err = self.runner.request("kg.build_graph", lambda: build_graph([self.pages], out))
        if err is not None:
            return
        self.outputs.append(out)
        rows = {t: v["rows"] for t, v in m["tables"].items()}
        if rows.get("triples") != self.gold or rows.get("episodes") != self.N_PAGES:
            self.fail(f"build {index}: triples {rows.get('triples')} (gold {self.gold}), episodes {rows.get('episodes')} (pages {self.N_PAGES})")
        self.work_done += rows.get("triples", 0)
        if self.runner.recording:
            self.runner.annotate(kg=kg_counts(out, {}))

    def finish(self) -> None:
        if not self.outputs:
            return
        # the first and last builds of the run, and any earlier run of this
        # seed in the same checkout, must produce identical tables
        ends = sorted({self.outputs[0], self.outputs[-1]})
        digests = [{t: table_digest(o, t) for t in REWRITTEN + APPENDED} for o in ends]
        if any(d != digests[0] for d in digests):
            self.fail("table content differs between builds of the same pages")
        self.digests = digests[0]


def _has_pred(res: dict, pred: str) -> bool:
    return any(f["name"] == pred for f in res.get("facts", []))


class GraphIngest(Workload):
    name = "graph_ingest"
    why = "closed loop alternating add_episode with a search for the fact just added: each write re-derives the link phase"
    work_unit = "episodes"
    N_PAGES = 5_000
    MAX_OPS = 200

    def setup(self, index: int) -> None:
        from graphiti_hf_ray.pipelines.kg import build_graph
        from graphiti_hf_ray.serve import GraphService

        d = os.path.join(self.work_dir, f"setup{index}")
        os.makedirs(d)
        pages = os.path.join(d, "pages.parquet")
        pq.write_table(inputs.pages_table(self.seed, self.N_PAGES), pages, row_group_size=4096)
        self.out = os.path.join(d, "graph")
        build_graph([pages], self.out)
        self.svc = GraphService(self.out)
        self.script = inputs.ingest_script(self.seed, self.N_PAGES, self.MAX_OPS)
        # warm the write and read paths in a group the timed loop never reads
        warm = inputs.ingest_script(self.seed + 1, self.N_PAGES, 1)[0]
        self.svc.add_episode("warmup", warm["name"], warm["body"])
        self.svc.search(warm["body"], group_ids=["warmup"])
        self.added: list[str] = []

    def graph_dir(self) -> str | None:
        return self.out

    def op(self, index: int) -> None:
        ep = self.script[index]
        before = table_stats(self.out) if self.runner.recording else None
        res, err = self.runner.request(
            "serve.add_episode",
            lambda: self.svc.add_episode(inputs.INGEST_GROUP, ep["name"], ep["body"]),
        )
        if err is not None:
            return
        self.added.append(res["uuid"])
        if before is not None:
            self.runner.annotate(kg=kg_counts(self.out, before))
        found, err = self.runner.request(
            "serve.search",
            lambda: self.svc.search(ep["body"], group_ids=[inputs.INGEST_GROUP]),
        )
        if err is not None:
            return
        self.work_done += 1
        if not _has_pred(found, ep["pred"]):
            self.fail(f"read after write {ep['body']!r}: no {ep['pred']} fact")

    def finish(self) -> None:
        if not self.added:
            return
        live = pc.field("group_id") == inputs.INGEST_GROUP
        eps = set(
            pads.dataset(os.path.join(self.out, "episodes"), format="parquet", partitioning="hive", ignore_prefixes=[".", "_"])
            .to_table(columns=["uuid"], filter=live).column("uuid").to_pylist()
        )
        prov: set[str] = set()
        edges = pads.dataset(os.path.join(self.out, "edges"), format="parquet", ignore_prefixes=[".", "_"])
        for s in edges.to_table(columns=["episodes"], filter=live).column("episodes").to_pylist():
            prov.update((s or "").split(","))
        missing_ep = [u for u in self.added if u not in eps]
        missing_prov = [u for u in self.added if u not in prov]
        if missing_ep or missing_prov:
            self.fail(f"{len(missing_ep)} added episodes missing from episodes, {len(missing_prov)} from edge provenance")


class CorpusAppendFuzzy(Workload):
    """Runnable by hand; not listed in BENCHMARK.json, because its run-to-run
    spread on a shared VM is wider than the bound (see README.md)."""

    name = "corpus_append_fuzzy"
    why = "near-dup-screened append_training_set of seeded re-crawl segments against a signature-bearing base"
    # below 4 slots the append's actor pools wait on each other for slots
    # (15 s stalls observed at 2)
    slots = 4
    # on one vCPU an append takes 30-50 s, too long for the run budget
    cpus = None
    # an append takes most of the window; two keep the median from resting
    # on one operation
    min_ops = 2
    work_unit = "docs"
    N_BASE = 400
    N_SEGMENT = 200
    N_EXACT = 40
    N_NEAR = 40
    N_PAIRS = 20
    KNOBS = dict(lang_allow=(), max_tokens=64, overlap=8, pack_budget=256, shuffle_buckets=4)

    def setup(self, index: int) -> None:
        import ray.data as rd

        from graphiti_hf_ray.pipelines.corpus import prepare_training_set

        self.base_docs = inputs.corpus_base(self.seed, self.N_BASE)
        self.contam = inputs.contamination_texts(self.seed)
        self.base = os.path.join(self.work_dir, f"setup{index}", "base")
        prepare_training_set(
            rd.from_arrow(self.base_docs), self.contam, self.base,
            track_doc_keys=True, track_minhash_jaccard=0.7, **self.KNOBS,
        )

    def op(self, index: int) -> None:
        import ray.data as rd

        from graphiti_hf_ray.pipelines.corpus import append_training_set

        seg, expect = inputs.corpus_segment(
            self.seed, self.base_docs, index, self.N_SEGMENT, self.N_EXACT, self.N_NEAR, self.N_PAIRS
        )
        # every append screens against the same base state
        d = os.path.join(self.work_dir, f"append{index}")
        shutil.copytree(self.base, d)
        res, err = self.runner.request(
            "corpus.append_training_set",
            lambda: append_training_set(
                rd.from_arrow(seg), self.contam, d, fingerprint=f"segment-{index}", **self.KNOBS
            ),
        )
        shutil.rmtree(d, ignore_errors=True)
        if err is not None:
            return
        self.work_done += self.N_SEGMENT
        got = {k: res.get(k) for k in expect}
        if got != expect:
            self.fail(f"append {index}: drop counts {got}, planted {expect}")
        if self.runner.recording:
            self.runner.annotate(corpus={"docs_in": self.N_SEGMENT, **res})


WORKLOADS = {w.name: w for w in (KgBuild, GraphIngest, CorpusAppendFuzzy)}
