"""Time one search read (BM25 + cosine over an edges-shaped table) in both
placements of ``GraphStore``, and report what the driver placement holds,
to size ``hybrid.SEARCH_DRIVER_MAX_BYTES``.

    python scripts/search_crossover.py --cpus 1 --rows 1000,10000,100000

For each row count it writes a seeded synthetic edges table (uuid, group_id,
fact, 64-dim fact_embedding; four part files) under a fresh ``rows<N>``
directory of ``--work`` (default: a new temporary directory), then times
``GraphStore.read`` + ``bm25_topk`` + ``cosine_topk`` with the placement
forced to Ray and to the driver (by setting the gate), best of
``--repeats``. One line per row count: both times, the footer bytes of the
searched columns (what the gate compares) and the Arrow bytes the driver
read holds (one group of three). Ray gets ``--cpus`` slots. Only the
directories the script made are removed.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

WORDS = "acme works at founded lovelace ada ceo of project place event born in city north".split()
QUERY = "ada lovelace works at acme"


def write_edges(root: str, rows: int, parts: int = 4) -> None:
    from graphiti_hf_ray.schemas import EMBED_DIM

    rng = np.random.default_rng(rows)
    words = np.array(WORDS)
    os.makedirs(root)
    for p, idx in enumerate(np.array_split(np.arange(rows), parts)):
        facts = [" ".join(words[rng.integers(0, len(words), 6)]) for _ in idx]
        emb = rng.normal(size=(len(idx), EMBED_DIM)).astype(np.float32)
        t = pa.table({
            "uuid": [f"e{i:08d}" for i in idx],
            "group_id": [f"g{i % 3}" for i in idx],
            "fact": facts,
            "fact_embedding": pa.FixedSizeListArray.from_arrays(pa.array(emb.ravel()), EMBED_DIM),
        })
        pq.write_table(t, os.path.join(root, f"part-{p}.parquet"))


COLUMNS = ["uuid", "fact", "fact_embedding"]


def time_search(store, qvec, repeats: int) -> tuple[float, int]:
    """Best time of ``repeats`` searches, and the Arrow bytes of the read."""
    from graphiti_hf_ray.search.bm25 import bm25_topk
    from graphiti_hf_ray.search.vector import cosine_topk

    best, held = float("inf"), 0
    for _ in range(repeats):
        t0 = time.perf_counter()
        data = store.read("edges", ["g1"], COLUMNS)
        bm25_topk(data, QUERY, text_col="fact", id_col="uuid", k=20)
        cosine_topk(data, qvec, emb_col="fact_embedding", id_col="uuid", k=20)
        best = min(best, time.perf_counter() - t0)
        held = getattr(data, "nbytes", 0)
    return best, held


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cpus", type=int, default=1)
    ap.add_argument("--rows", default="1000,10000,100000")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--work", default=None, help="parent of the rows<N> dirs (default: a new temp dir)")
    a = ap.parse_args()

    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=a.cpus, include_dashboard=False, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    from graphiti_hf_ray.search import hybrid
    from graphiti_hf_ray.stages.embed import embed_text

    qvec = embed_text(QUERY)
    work = a.work or tempfile.mkdtemp(prefix="search-crossover-")
    made: list[str] = []
    try:
        for n in (int(x) for x in a.rows.split(",")):
            out = os.path.join(work, f"rows{n}")
            os.makedirs(out)  # refuses a directory it did not make
            made.append(out)
            write_edges(os.path.join(out, "edges"), n)
            store = hybrid.GraphStore(out)
            hybrid.SEARCH_DRIVER_MAX_BYTES = -1
            ray_s, _ = time_search(store, qvec, a.repeats)
            hybrid.SEARCH_DRIVER_MAX_BYTES = 1 << 62
            driver_s, held = time_search(store, qvec, a.repeats)
            footer = store.route("edges", COLUMNS)["bytes"]
            print(
                f"rows={n} cpus={a.cpus} ray_ms={1e3 * ray_s:.0f} driver_ms={1e3 * driver_s:.0f}"
                f" footer_mb={footer / 2**20:.1f} held_mb={held / 2**20:.1f}",
                flush=True,
            )
    finally:
        for out in made:
            shutil.rmtree(out, ignore_errors=True)
        if a.work is None:
            shutil.rmtree(work, ignore_errors=True)
        ray.shutdown()


if __name__ == "__main__":
    main()
