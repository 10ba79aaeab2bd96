"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. One run starts a local Ray session sized to
this machine, sets the workload up (several times; ``setup_s`` is the
median), then drives operations from one client thread for ``--seconds``
and checks every output. It prints a human-readable report and, as the
last line of standard output, one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

holding the ``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``
and its ``per_layer`` metrics with ``--trace 1``. A traced run alternates
untraced and traced operations, so the tracing overhead is measured inside the same run; the per-layer numbers
come from the traced operations only.

Everything the run writes stays under ``.perfbench-work/`` in the
repository root: Ray's session directory, scratch tables, and ``results/``
with the last result, span file and per-layer report of each workload and
seed. The settings in ``PINNED_ENV`` are fixed for the run and the Ray
processes it starts, whatever the caller's environment says.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import sys
import threading
import time
import traceback
from contextlib import nullcontext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench-work")
SETUP_REPEATS = 2
REQUEST_DEADLINE_S = 60.0
RUN_DEADLINE_S = 170.0
# AF_UNIX socket paths are limited to 107 bytes; Ray nests its sockets
# about 70 bytes below the temp dir it is given
RAY_SOCKET_HEADROOM = 70
# a raylet that has not registered within Ray's 30 s start wait is retried
RAY_START_ATTEMPTS = 2
OBJECT_STORE_BYTES = 512 * 1024**2
PINNED_ENV = {
    # Arrow and NumPy size their thread pools from this
    "OMP_NUM_THREADS": "1",
    "RAY_USAGE_STATS_ENABLED": "0",
    # Ray's memory monitor would kill workers when co-tenants fill the
    # machine's memory; a run either fits or fails
    "RAY_memory_monitor_refresh_ms": "0",
}


def percentile_tail(values: list[float]) -> tuple[str, float] | None:
    """Highest nearest-rank percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    v = sorted(values)
    return f"p{100 * (n - 10) / n:.0f}", v[n - 11]


# ------------------------------------------------------------ environment


def _cpu_times() -> list[int]:
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def _mount_of(path: str) -> tuple[str, str]:
    path = os.path.realpath(path)
    best = ("/", "?")
    with open("/proc/mounts") as f:
        for line in f:
            _dev, mnt, fstype = line.split()[:3]
            if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) and len(mnt) >= len(best[0]):
                best = (mnt, fstype)
    return best


def environment(slots: int, ray_temp: str) -> dict:
    import pyarrow
    import ray

    a = _cpu_times()
    time.sleep(0.5)
    b = _cpu_times()
    d = [y - x for x, y in zip(a, b)]
    mnt, fstype = _mount_of(WORK)
    return {
        "cpus_affinity": len(os.sched_getaffinity(0)),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "ray_slots": slots,
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "python": sys.version.split()[0],
        "loadavg_1m": os.getloadavg()[0],
        "cpu_steal_pct": 100.0 * d[7] / max(1, sum(d)) if len(d) > 7 else 0.0,
        "scratch_fs": f"{fstype} at {mnt}",
        "ray_temp": ray_temp,
    }


def process_tree(root_pid: int) -> list[int]:
    """``root_pid`` and all its live descendants (zombies have ended)."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if state != "Z":
            children.setdefault(int(ppid), []).append(int(name))
    out, todo = [], [root_pid]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(children.get(p, []))
    return out


def peak_rss_mb() -> float:
    """Sum of peak resident sets (VmHWM) over this process and every
    process it started (the Ray daemons and workers)."""
    kb = 0
    for pid in process_tree(os.getpid()):
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        kb += int(line.split()[1])
        except OSError:
            pass
    return kb / 1024.0


def stop_descendants(timeout_s: float = 15.0) -> None:
    """Wait for every process this run started to end; kill stragglers."""
    me = os.getpid()
    end = time.time() + timeout_s
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        left = [p for p in process_tree(me) if p != me]
        if not left:
            return
        if time.time() > end:
            for p in left:
                try:
                    os.kill(p, signal.SIGKILL)
                except OSError:
                    pass
            end = time.time() + 5.0
        time.sleep(0.2)


# ----------------------------------------------------------------- runner


class Runner:
    """Times requests, applies the per-request deadline and counts
    failures. A request that raises or outlives the deadline is failed and
    the loop goes on; a stalled request keeps its thread, which the run
    abandons."""

    def __init__(self, tracer, deadline_s: float = REQUEST_DEADLINE_S):
        self.tracer = tracer
        self.deadline_s = deadline_s
        self.requests: list[dict] = []
        self.op_index = 0

    @property
    def recording(self) -> bool:
        return self.tracer is not None and self.tracer.recording

    def request(self, route: str, fn):
        rid = f"r{len(self.requests)}"
        box: dict = {}

        def target():
            try:
                box["out"] = fn()
            except BaseException as e:  # noqa: BLE001 — reported as a failed request
                box["err"] = e
                box["tb"] = traceback.format_exc()

        ctx = self.tracer.request(rid, route) if self.recording else nullcontext()
        with ctx:
            t0 = time.perf_counter()
            th = threading.Thread(target=target, name=f"request-{rid}", daemon=True)
            th.start()
            th.join(self.deadline_s)
            wall = time.perf_counter() - t0
        if th.is_alive():
            err = TimeoutError(f"{route} stalled for more than {self.deadline_s:g} s")
        else:
            err = box.get("err")
        rec = {
            "id": rid, "route": route, "op": self.op_index, "wall_s": wall,
            "ok": err is None, "traced": self.recording,
            "error": None if err is None else repr(err),
        }
        self.requests.append(rec)
        if err is not None:
            print(f"  request {rid} {route} failed: {err!r}", file=sys.stderr)
            if "tb" in box:
                print(box["tb"], file=sys.stderr)
            return None, err
        return box["out"], None

    def annotate(self, **info) -> None:
        """Attach counts to the last request (traced runs)."""
        self.requests[-1].update(info)


# ---------------------------------------------------------------- metrics


def op_walls(requests: list[dict]) -> dict[int, dict]:
    ops: dict[int, dict] = {}
    for r in requests:
        o = ops.setdefault(r["op"], {"wall_s": 0.0, "ok": True, "traced": r["traced"]})
        o["wall_s"] += r["wall_s"]
        o["ok"] = o["ok"] and r["ok"]
    return ops


def end_to_end(runner: Runner, workload, setup_walls: list[float], rss_mb: float, run_s: float) -> tuple[dict, list[str]]:
    """The BENCHMARK.json end-to-end values plus the issue's named metrics
    as report lines (name, value, unit, samples)."""
    ops = [o for o in op_walls(runner.requests).values() if o["ok"]]
    walls = [o["wall_s"] for o in ops]
    busy = sum(walls)
    attempted = len(runner.requests)
    failed = sum(not r["ok"] for r in runner.requests)
    values = {
        "setup_s": statistics.median(setup_walls),
        "op_p50_ms": 1000.0 * statistics.median(walls) if walls else 0.0,
        "work_per_s": workload.work_done / busy if busy else 0.0,
        "peak_rss_mb": rss_mb,
    }
    lines = [
        ("setup_s", values["setup_s"], "s", f"median of {len(setup_walls)} set-ups"),
        ("run_s", run_s, "s", "timed window incl. the last operation"),
        (f"{workload.work_unit}_per_s", values["work_per_s"], "1/s", f"{workload.work_done} {workload.work_unit} over {len(ops)} ops"),
        ("op_p50_ms", values["op_p50_ms"], "ms", f"n={len(walls)} ops"),
        ("failed_share", 100.0 * failed / max(1, attempted), "%", f"{failed}/{attempted} requests"),
        ("peak_rss_mb", rss_mb, "MB", "sum of VmHWM over the process tree"),
    ]
    tail = percentile_tail(walls)
    lines.append(("op_tail_ms", 1000 * tail[1] if tail else float("nan"), "ms", f"{tail[0]} of n={len(walls)}" if tail else f"n/a: n={len(walls)} < 11"))
    routes = sorted({r["route"] for r in runner.requests})
    if len(routes) > 1:
        for route in routes:
            w = [r["wall_s"] for r in runner.requests if r["route"] == route and r["ok"]]
            if not w:
                continue
            t = percentile_tail(w)
            lines.append((f"{route}.p50_ms", 1000 * statistics.median(w), "ms", f"n={len(w)}"))
            if t:
                lines.append((f"{route}.tail_ms", 1000 * t[1], "ms", f"{t[0]} of n={len(w)}"))
    return values, lines


def probes(seed: int) -> dict:
    """Driver-side layer rates on fixed seeded samples (medians of 3)."""
    from graphiti_hf_ray.extract.html import extract_text_batch
    from graphiti_hf_ray.extract.triples import TripleExtractor
    from graphiti_hf_ray.pipelines.kg import DEFAULT_RUN_TS_US
    from graphiti_hf_ray.stages.embed import embed_many, embed_text
    from graphiti_hf_ray.stages.episodes import make_episode_batch

    from perfbench import inputs

    pages = inputs.pages_table(seed, 2000)
    ex = TripleExtractor()

    def timed(fn):
        best = []
        for _ in range(3):
            t0 = time.perf_counter()
            out = fn()
            best.append(time.perf_counter() - t0)
        return out, statistics.median(best)

    text, t_html = timed(lambda: extract_text_batch(pages))
    eps, t_ep = timed(lambda: make_episode_batch(text, DEFAULT_RUN_TS_US))
    tri, t_tri = timed(lambda: ex(eps))
    rng = random.Random(f"probe:{seed}")
    facts = [inputs.grammar_fact(rng, seed, 2000)[0] for _ in range(2000)]
    _, t_emb = timed(lambda: embed_many(facts))
    _, t_q = timed(lambda: [embed_text(q) for q in facts[:200]])
    return {
        "extract.html_rows_per_s": pages.num_rows / t_html,
        "extract.episode_rows_per_s": text.num_rows / t_ep,
        "extract.triple_rows_per_s": tri.num_rows / t_tri,
        "embed.texts_per_s": len(facts) / t_emb,
        "embed.query_ms": 1000.0 * t_q / 200,
    }


def per_layer(runner: Runner, tracer, workload, probe: dict) -> tuple[dict, dict]:
    from perfbench.trace import layer_times, self_times

    by_req: dict[str, list] = {}
    for s in tracer.spans:
        by_req.setdefault(s["request"], []).append(s)
    traced = [r for r in runner.requests if r["traced"] and r["ok"]]
    wall = sum(r["wall_s"] for r in traced) or 1.0  # no traced request: all shares 0
    layers: dict[str, float] = {}
    fact_fetch = 0.0
    for r in traced:
        lt = layer_times(by_req.get(r["id"], []))
        for k, v in lt.items():
            layers[k] = layers.get(k, 0.0) + v
        if r["route"] == "serve.search":
            fact_fetch += r["wall_s"] - lt.get("search", 0.0)
    spans = [s for s in tracer.spans if s["request"] is not None]

    def share(layer: str) -> float:
        return 100.0 * layers.get(layer, 0.0) / wall

    def route_share(route: str) -> float:
        return 100.0 * sum(r["wall_s"] for r in traced if r["route"] == route) / wall

    def mean(xs) -> float:
        xs = list(xs)
        return sum(xs) / len(xs) if xs else 0.0

    def pct(xs) -> float:
        xs = list(xs)
        return 100.0 * sum(bool(x) for x in xs) / len(xs) if xs else 0.0

    kg = [r["kg"] for r in traced if "kg" in r]
    canon = [s["attrs"] for s in spans if s["name"] == "stages.canonicalize"]
    salted = [s["attrs"].get("salted") for s in spans if s["name"] == "stages.merge_and_invalidate"]
    bm25 = [s["attrs"] for s in spans if s["name"] == "search.bm25_topk"]
    corpus = [r["corpus"] for r in traced if "corpus" in r]

    # overhead: traced vs untraced operations of the same run
    ops = op_walls([r for r in runner.requests if r["ok"]]).values()
    on = [o["wall_s"] for o in ops if o["traced"]]
    off = [o["wall_s"] for o in ops if not o["traced"]]
    overhead = 100.0 * (statistics.median(on) / statistics.median(off) - 1.0) if on and off else 0.0
    n_traced_ops = len({r["op"] for r in traced}) or 1

    docs_in = sum(c["docs_in"] for c in corpus)
    dropped = sum(
        c["docs_in"] - c["n_new_doc_keys"] + c.get("fuzzy_dropped_docs", 0) + c.get("cross_fuzzy_dropped_docs", 0)
        for c in corpus
    )
    # the metrics an optimisation is likely to move (BENCHMARK.json
    # per_layer); the input-determined counts go to the report only
    m = {
        "extract.share": share("extract"),
        "canonicalize.share": share("canonicalize"),
        "canonicalize.distributed_route": pct(k["distributed_canon"] for k in kg),
        "edges.share": share("edges"),
        "edges.salted": pct(salted),
        "mentions.share": share("mentions"),
        "mentions.generic_route": pct(k["generic_mentions"] for k in kg),
        "embed.query_share": share("embed"),
        "io.write_share": share("io"),
        "io.rows_written": mean(k["rows_written"] for k in kg),
        "io.bytes_written": mean(k["bytes_written"] for k in kg),
        "kg.link_share": share("kg"),
        "search.share": share("search"),
        "search.bm25_share": share("bm25"),
        "search.cosine_share": share("cosine"),
        "search.rerank_share": share("rerank"),
        "search.bm25_rows_scanned": mean(b["rows_scanned"] for b in bm25),
        "serve.search_share": route_share("serve.search"),
        "serve.add_episode_share": route_share("serve.add_episode"),
        "serve.fact_fetch_share": 100.0 * fact_fetch / wall,
        "serve.errors": sum(1 for r in runner.requests if r["route"].startswith("serve.") and not r["ok"]),
        "corpus.chain_share": route_share("corpus.append_training_set") - share("dedup.within") - share("dedup.cross"),
        "dedup.within_fuzzy_share": share("dedup.within"),
        "dedup.cross_fuzzy_share": share("dedup.cross"),
        "dedup.minhash_capped": mean(c.get("cross_minhash_capped_docs", 0) + c.get("minhash_dropped_docs", 0) for c in corpus),
        "trace.overhead_pct": overhead,
        **probe,
    }
    counts = {
        "extract.pages_in": mean(k["pages_in"] for k in kg),
        "extract.triples_out": mean(k["triples_out"] for k in kg),
        "extract.shards": mean(k["shards"] for k in kg),
        "canonicalize.mentions": mean(c["mentions"] for c in canon),
        "canonicalize.alias_share": 100.0 * sum(c["aliases"] for c in canon) / max(1, sum(c["mentions"] for c in canon)),
        "edges.triples_in": mean(k["triples_total"] for k in kg),
        "edges.rows_out": mean(k["edges"] for k in kg),
        "edges.merge_ratio": sum(k["edges"] for k in kg) / max(1, sum(k["triples_total"] for k in kg)),
        "edges.invalidated": mean(k["invalidated"] for k in kg),
        "mentions.rows": mean(k["mentions_rows"] for k in kg),
        "search.bm25_hits": mean(b["hits"] for b in bm25),
        "search.zero_hit_share": pct(b["hits"] == 0 for b in bm25),
        "corpus.docs_in": mean(c["docs_in"] for c in corpus),
        "corpus.packs_appended": mean(c["n_packs_appended"] for c in corpus),
        "corpus.new_doc_keys": mean(c["n_new_doc_keys"] for c in corpus),
        "dedup.fuzzy_dropped": mean(c.get("fuzzy_dropped_docs", 0) for c in corpus),
        "dedup.cross_fuzzy_dropped": mean(c.get("cross_fuzzy_dropped_docs", 0) for c in corpus),
        "dedup.drop_share": 100.0 * dropped / docs_in if docs_in else 0.0,
        "trace.spans_per_op": len(spans) / n_traced_ops,
    }
    routes = sorted({k["timings"].get("canon_path", "") + "/" + k["timings"].get("mentions_path", "per-shard") for k in kg})
    report = {
        "traced_requests": len(traced),
        "traced_wall_s": wall,
        "route_shares": {rt: route_share(rt) for rt in sorted({r["route"] for r in traced})},
        "layer_seconds": layers,
        "counts": counts,
        "self_times": self_times(tracer.spans),
        "kg_routes": routes,
        "kg_timings": [k["timings"] for k in kg],
        "corpus_results": corpus,
    }
    return m, report


# ------------------------------------------------------------------- main


def ray_temp_dir() -> str | None:
    """Ray's session directory, inside the checkout. A deep checkout is
    reached through this process's ``/proc/<pid>/cwd`` link (the working
    directory is the checkout root), which keeps the socket paths short;
    every Ray process of the run ends before this one does."""
    for d in (os.path.join(WORK, "ray"), f"/proc/{os.getpid()}/cwd/{os.path.basename(WORK)}/r"):
        if len(d.encode()) + RAY_SOCKET_HEADROOM <= 107 and os.path.isdir(os.path.dirname(d)):
            return d
    return None


def start_ray(slots: int, temp: str | None) -> None:
    import logging

    import ray

    # Ray Data tasks run in worker processes that import the engine from
    # the repository root
    os.environ["PYTHONPATH"] = ROOT + os.pathsep + os.environ.get("PYTHONPATH", "")
    os.environ.setdefault("RAY_DEDUP_LOGS", "1")
    kw = {"_temp_dir": temp} if temp else {}
    for attempt in range(RAY_START_ATTEMPTS):
        try:
            # a fresh local session on loopback, whatever RAY_ADDRESS says;
            # a small object store keeps the run's memory footprint small
            ray.init(
                address="local", num_cpus=slots, object_store_memory=OBJECT_STORE_BYTES,
                _node_ip_address="127.0.0.1", include_dashboard=False, logging_level="ERROR",
                log_to_driver=False, configure_logging=True, **kw,
            )
            break
        except Exception:
            if attempt + 1 == RAY_START_ATTEMPTS:
                raise
            traceback.print_exc()
            print("Ray did not start; stopping its processes and retrying", file=sys.stderr)
            ray.shutdown()
            stop_descendants()
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def emit(values: dict, entries: list[dict]) -> dict:
    out = {}
    for e in entries:
        if e["name"] not in values:
            raise KeyError(f"metric {e['name']} was not computed")
        out[e["name"]] = {"value": float(values[e["name"]]), "unit": e["unit"]}
    return out


def run(args) -> int:
    from perfbench.trace import METHODS, Tracer, install
    from perfbench.workloads import WORKLOADS

    spec = load_spec()
    cls = WORKLOADS[args.workload]
    slots = cls.slots
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(WORK, "runs", f"{tag}-{os.getpid()}")
    results = os.path.join(WORK, "results")
    os.makedirs(work_dir)
    os.makedirs(results, exist_ok=True)
    temp = ray_temp_dir()

    if cls.cpus:
        # inherited by every Ray process started below
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[: cls.cpus])
    env = environment(slots, temp or "ray default (checkout path too long for sockets)")
    start_ray(slots, temp)
    tracer = Tracer() if args.trace else None
    runner = Runner(tracer)
    wl = cls(args.seed, work_dir, runner)
    if tracer is not None:
        install(tracer, graph_dir_of=wl.graph_dir)

    setup_walls = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup(i)
        setup_walls.append(time.perf_counter() - t0)

    t_start = time.perf_counter()
    i = 0
    # a traced run needs one untraced and one traced operation at least
    min_ops = max(cls.min_ops, 2 if tracer is not None else 1)
    while time.perf_counter() - t_start < args.seconds or i < min_ops:
        runner.op_index = i
        if tracer is not None:
            tracer.recording = i % 2 == 1
        wl.op(i)
        i += 1
    run_s = time.perf_counter() - t_start
    if tracer is not None:
        tracer.recording = False
    rss = peak_rss_mb()
    wl.finish()

    digest_note = ""
    if wl.digests:
        # a content hash must repeat across runs of the same seed
        p = os.path.join(WORK, "digests", f"{args.workload}-seed{args.seed}.json")
        os.makedirs(os.path.dirname(p), exist_ok=True)
        if os.path.exists(p):
            with open(p) as f:
                if json.load(f) != wl.digests:
                    wl.fail("table content hash differs from an earlier run of this seed")
            digest_note = " (hashes match earlier run)"
        else:
            with open(p, "w") as f:
                json.dump(wl.digests, f)
            digest_note = " (hashes recorded)"

    values, lines = end_to_end(runner, wl, setup_walls, rss, run_s)
    layer_report = None
    if tracer is not None:
        lvals, layer_report = per_layer(runner, tracer, wl, probes(args.seed))
        tracer.unpatch()
        tracer.write(os.path.join(results, f"{tag}.spans.jsonl"))
        layer_report["methods"] = METHODS
        with open(os.path.join(results, f"{tag}.layers.json"), "w") as f:
            json.dump({"per_layer": lvals, **layer_report}, f, indent=1, default=str)
        metrics = emit(lvals, spec["per_layer"])
    else:
        metrics = emit(values, spec["end_to_end"])

    import ray

    session = ray._private.worker._global_node.get_session_dir_path() if temp else None
    ray.shutdown()
    stop_descendants()
    if session:
        shutil.rmtree(session, ignore_errors=True)

    attempted = len(runner.requests)
    failed = sum(not r["ok"] for r in runner.requests)
    correct = not wl.errors and attempted > failed
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  closed loop, 1 client")
    print(f"  why: {cls.why}")
    print("  env: " + json.dumps(env))
    for name, v, unit, note in lines:
        print(f"  {name:<34} {v:>14.4f} {unit:<4} {note}")
    print("  scaling_efficiency: omitted (needs pinned runs at N and 4N cores; one run measures one size)")
    print(f"  output check: {'ok' if correct else 'FAILED'}{digest_note}")
    for e in wl.errors[:20]:
        print(f"    {e}")
    if layer_report is not None:
        print(f"  per-layer ({layer_report['traced_requests']} traced requests, kg routes {layer_report['kg_routes']}):")
        for name, m in metrics.items():
            print(f"    {name:<32} {m['value']:>14.4f} {m['unit']}")
        print("  self times (traced requests), s:")
        for name, row in sorted(layer_report["self_times"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"    {name:<44} calls {row['calls']:>4}  total {row['total_s']:9.4f}  self {row['self_s']:9.4f}")
        print(f"  spans and per-layer report in {os.path.relpath(results, ROOT)}/{tag}.*")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(results, f"{tag}.json"), "w") as f:
        json.dump({"env": env, "report": [list(x) for x in lines], "errors": wl.errors, **result}, f, indent=1)
    shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


def self_test() -> int:
    """Failure accounting: one request raises, one stalls past its
    deadline; both count as failed and the loop goes on."""
    runner = Runner(tracer=None, deadline_s=0.5)

    def boom():
        raise KeyError("uuid")

    for route, fn in (("ok", lambda: 1), ("raises", boom), ("stalls", lambda: time.sleep(3)), ("ok", lambda: 2)):
        runner.request(route, fn)
        runner.op_index += 1
    got = [(r["route"], r["ok"]) for r in runner.requests]
    want = [("ok", True), ("raises", False), ("stalls", False), ("ok", True)]
    print(f"self-test: {got}")
    if got != want:
        print("self-test FAILED", file=sys.stderr)
        return 1
    print("self-test ok")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="measured window (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not os.path.isfile(os.path.join(ROOT, "graphiti_hf_ray", "__init__.py")):
        print(f"graphiti_hf_ray not found under {ROOT}: run from a repository checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, ROOT)
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]

    def abort():
        print(f"run exceeded {RUN_DEADLINE_S:.0f} s; stopping", file=sys.stderr)
        for p in process_tree(os.getpid())[1:]:
            try:
                os.kill(p, signal.SIGKILL)
            except OSError:
                pass
        os._exit(3)

    watchdog = threading.Timer(RUN_DEADLINE_S, abort)
    watchdog.daemon = True
    watchdog.start()
    try:
        code = run(args)
    except Exception:
        traceback.print_exc()
        try:
            import ray

            ray.shutdown()
        finally:
            stop_descendants()
            runs = os.path.join(WORK, "runs")
            for d in os.listdir(runs) if os.path.isdir(runs) else []:
                if d.endswith(f"-{os.getpid()}"):
                    shutil.rmtree(os.path.join(runs, d), ignore_errors=True)
        code = 1
    sys.stdout.flush()
    # a stalled request leaves a thread inside the engine; do not wait for it
    os._exit(code)


if __name__ == "__main__":
    sys.exit(main())
