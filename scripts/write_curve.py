"""Measure how the cost of one single-episode write grows with the writes
before it.

    python scripts/write_curve.py SEED N [--repeats 3]

Builds graph_ingest's set-up (perfbench's seeded 5k crawl pages through
``build_graph``, a ``GraphService`` over the result, one warm-up write and
search in a group the loop never reads), then runs the first N
``add_episode`` + ``search`` pairs of ``perfbench.inputs.ingest_script``.
Per block of 50 writes it prints the median write wall time, the median
``timings.delta`` of the run report (the link phase of a delta or group
write, recorded to 10 ms) and the link route counts. ``--repeats R`` runs
the whole loop R times in this process, each over a fresh graph, and ends
with the best (lowest) write median per block and the last block's ratio
to the first.

Like the benchmark's graph_ingest run, the process is pinned to one CPU
with two Ray slots and one Arrow/NumPy thread. Graphs are written under a
temporary directory that is removed at exit.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

BLOCK = 50


def one_curve(seed: int, n: int, work: str) -> list[dict]:
    """Per-write wall time (ms), link-phase time (ms) and route."""
    import pyarrow.parquet as pq

    from graphiti_hf_ray.pipelines.kg import build_graph
    from graphiti_hf_ray.serve import GraphService
    from perfbench import inputs

    pages = os.path.join(work, "pages.parquet")
    pq.write_table(inputs.pages_table(seed, 5_000), pages, row_group_size=4096)
    out = os.path.join(work, "graph")
    build_graph([pages], out)
    svc = GraphService(out)
    warm = inputs.ingest_script(seed + 1, 5_000, 1)[0]
    svc.add_episode("warmup", warm["name"], warm["body"])
    svc.search(warm["body"], group_ids=["warmup"])
    rows = []
    for ep in inputs.ingest_script(seed, 5_000, n):
        t0 = time.perf_counter()
        svc.add_episode(inputs.INGEST_GROUP, ep["name"], ep["body"])
        wall = time.perf_counter() - t0
        with open(os.path.join(out, "_job_metrics.json")) as f:
            timings = json.load(f)["timings"]
        svc.search(ep["body"], group_ids=[inputs.INGEST_GROUP])
        rows.append({
            "write_ms": 1000 * wall,
            "delta_ms": 1000 * timings["delta"] if "delta" in timings else None,
            "route": timings["link_route"],
        })
    return rows


def blocks(rows: list[dict]) -> list[dict]:
    out = []
    for lo in range(0, len(rows), BLOCK):
        b = rows[lo:lo + BLOCK]
        deltas = [r["delta_ms"] for r in b if r["delta_ms"] is not None]
        out.append({
            "writes": f"{lo + 1}-{lo + len(b)}",
            "write_p50": statistics.median(r["write_ms"] for r in b),
            "delta_p50": statistics.median(deltas) if deltas else float("nan"),
            "routes": dict(sorted(collections.Counter(r["route"] for r in b).items())),
        })
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("seed", type=int)
    ap.add_argument("n", type=int, help="add_episode + search pairs per loop")
    ap.add_argument("--repeats", type=int, default=1, help="loops, each over a fresh graph")
    args = ap.parse_args()

    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from _bootstrap import init_ray

    init_ray(num_cpus=2)
    work = tempfile.mkdtemp(prefix="write_curve-")
    try:
        curves = []
        for rep in range(args.repeats):
            d = os.path.join(work, f"rep{rep}")
            os.makedirs(d)
            curves.append(blocks(one_curve(args.seed, args.n, d)))
            print(f"repeat {rep + 1}/{args.repeats}  seed {args.seed}")
            print(f"  {'writes':>9} {'write p50 ms':>13} {'delta p50 ms':>13}  routes")
            for b in curves[-1]:
                print(f"  {b['writes']:>9} {b['write_p50']:13.1f} {b['delta_p50']:13.1f}  {b['routes']}")
            shutil.rmtree(d)
        best = [min(c[i]["write_p50"] for c in curves) for i in range(len(curves[0]))]
        print(f"best of {args.repeats}: write p50 ms per {BLOCK} writes: " + ", ".join(f"{v:.1f}" for v in best))
        print(f"last/first block: {best[-1] / best[0]:.3f}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
