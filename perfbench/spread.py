"""Run one workload over several seeds and report each metric's median and
quartile spread (the distance between the first and third quartile as a
share of the median), next to the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload graph_ingest --seeds 1-10 [--trace 0]

Run from the repository root. Each run is a fresh process, as the driver
runs them; per-run wall times show what a set of runs costs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_arg(s: str) -> list[int]:
    out = []
    for part in s.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    entries = spec["per_layer" if args.trace else "end_to_end"]
    values: dict[str, list[float]] = {e["name"]: [] for e in entries}
    walls = []
    for seed in args.seeds:
        cmd = [
            sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
        ]
        t0 = time.time()
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=240)
        walls.append(time.time() - t0)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            print(f"seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        print(
            f"seed {seed:>3}  wall {walls[-1]:6.1f} s  correct {res['correct']}  "
            f"failed {res['failed']}/{res['attempted']}  "
            + "  ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items() if k in values),
            flush=True,
        )
        for k in values:
            values[k].append(res["metrics"][k]["value"])
    print(f"{args.workload}: {len(args.seeds)} runs, wall median {statistics.median(walls):.1f} s, total {sum(walls):.0f} s")
    for e in entries:
        v = values[e["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = e.get("bound")
        flag = "" if bound is None else ("  ok" if spread < bound / 3 else ("  within bound" if spread <= bound else "  OVER BOUND"))
        print(f"  {e['name']:<32} median {med:14.4f} {e['unit']:<5} spread {spread:7.3f}" + ("" if bound is None else f"  bound {bound}") + flag)
    return 0


if __name__ == "__main__":
    sys.exit(main())
