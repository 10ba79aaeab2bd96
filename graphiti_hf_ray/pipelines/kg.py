"""End-to-end KG construction pipeline (SURVEY.md §3.2 / §7.2).

Ray-Data-first re-expression of ``Graphiti.add_episode_bulk``
(graphiti_core/graphiti.py:587-873): the reference's two dedup rounds
(intra-batch then vs-graph) collapse into ONE global canonicalization
shuffle per run plus an idempotent upsert (deterministic ids make re-merge
a no-op).

Phases (phase boundary = resume checkpoint):

  P1 extract  (shard-resumable): one Ray task per input slice: pages →
              extract_text [M11] → episodes [S3] → TripleExtractor
              [M2/M3] → per-shard Parquet + manifests. A killed run
              re-runs only missing shards.
  P2 link     (global): triples → canonicalize (blocking → pairs →
              components → canonical map) [D2/A1/A2] → nodes table.
  P3 edges    : rewrite pointers [J2] → dedup merge [D3/A3] → temporal
              invalidation [TS2-TS4] → fact embedding [M6] → edges table;
              MENTIONS episodic edges.
  P4 write    : final tables + job metrics manifest.

P2+P3 take one of four routes, picked from the link tables' manifests
(``link_and_edges_phase``): ``full`` re-derives every link table from the
union of all runs' triples (the only route of a fresh out_dir, so every
batch build); ``delta`` folds the triples of a small new run into the
persisted tables driver-side — the TS8 incremental write
``graphiti_core``'s ``add_episode`` makes, resolving new mentions and
edges against existing ones only; ``unchanged`` writes nothing. Where the
delta could not give the full route's bytes (a new name merges or renames
entities), ``group`` re-derives the link rows of the run's groups alone,
driver-side; only groups too large for the driver take ``full``. A full
link whose triples fit the same budget (``DELTA_MAX_TRIPLES``) runs the
group route's derive step over every triple as one Ray task; a larger one
runs as Ray Data jobs. Every route seals a url index beside the link
tables (``URL_INDEX``: the linked episodes' url hashes) and the logs'
totals in their manifests, so neither the delta route's url check nor the
run report reads the runs before the new one.

Ray session ownership: these functions NEVER call ray.init/shutdown —
callers (bench.py, tests, the driver) own the session.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import threading
import time
from typing import NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data as rd

from .. import io as gio
from ..extract.html import extract_text_batch
from ..extract.triples import TripleExtractor
from ..stages.canonicalize import (
    SEP,
    build_nodes_table,
    canonical_map,
    canonicalize,
    canonicalize_distributed,
    distinct_mentions,
    partial_distinct_mentions,
)
from ..stages.edges import (
    CanonicalRewrite,
    _mentions_rows,
    canon_map_dict,
    combine_partial_edges_and_sweep,
    finalize_edges,
    finalize_edges_batch,
    mentions_edges,
    mentions_edges_per_shard,
    mentions_partial,
    merge_and_invalidate,
    merge_edge_bucket,
    rewrite_batch,
    rewrite_via_join,
)
from ..stages.embed import Embedder
from ..stages.episodes import make_episode_batch
from ..stages.shuffle import bucketed_group_apply
from .maintenance import build_duplicate_of_edges

DEFAULT_RUN_TS_US = 1735689600_000_000  # 2025-01-01T00:00:00Z — injected, deterministic

# hub-object salting trigger: when any canonical entity's mention count (an
# upper bound on any (group, pred, obj) merge bucket's rows — already held
# by the canonicalization, zero extra passes) exceeds this, the fused
# dedup+invalidate shuffle runs the two-round salted path
SALT_THRESHOLD = 2_000_000

# pages per extract chunk: bounds an extract task's heap (see extract_one_shard)
EXTRACT_CHUNK_ROWS = 16_384

# new-run triple rows above this take the full link route, and so do the
# triple rows of a group route's groups: both routes hold them on the
# driver (tests monkeypatch it)
DELTA_MAX_TRIPLES = 100_000

# the link phase's output dirs (one manifest each) and the one part file per
# dir a delta link rewrites
LINK_TABLES = ("nodes/shard=0000", "edges", "episodic_edges", "duplicate_edges/shard=0000")
DELTA_PART = "part-delta.parquet"

# the link-side url index: the sorted distinct url hashes (``gio.url_hashes``)
# of the linked runs' episodes, laid out like the link tables: a base array
# only the full route writes and a delta array the delta and group routes
# rewrite; its manifest records the link fingerprint it matches
URL_INDEX = "_url_index"
URL_INDEX_PARTS = ("part-0.npy", "part-delta.npy")

# triples columns the link phase reads: not the hive 'shard' column nor sent_idx
TRIPLE_COLUMNS = [
    "episode_uuid", "group_id", "valid_at", "subj_surface", "subj_label",
    "pred", "obj_surface", "obj_label", "fact",
]


def _input_files(paths: list[str]) -> list[str]:
    out = []
    for p in sorted(paths):
        if os.path.isdir(p):
            for dirpath, _d, files in sorted(os.walk(p)):
                for fn in sorted(files):
                    if fn.endswith(".parquet"):
                        out.append(os.path.join(dirpath, fn))
        else:
            out.append(p)
    return out


def _md5_file(fp: str) -> str:
    h = hashlib.md5()
    with open(fp, "rb") as f:
        while chunk := f.read(1 << 24):
            h.update(chunk)
    return h.hexdigest()


_md5_file_remote = ray.remote(num_cpus=1)(_md5_file)


def _fingerprint(paths: list[str], etag_map: dict[str, str] | None = None) -> str:
    """CONTENT fingerprint of the input files. mtime-based fingerprints
    mis-fire when identical content is rewritten (e.g. a regenerated
    deterministic fixture) and would APPEND duplicate shards under a new
    namespace.

    The run fingerprint is md5 over (path, per-file digest) pairs in sorted
    path order, so the per-file digests can come from anywhere that is
    content-stable:

    - ``etag_map`` (path → digest): plug in the object store's content
      etags and NO input bytes are read at all — the right mode at 100 TB;
    - otherwise per-file md5s, computed as parallel Ray tasks when a
      session is up (the 100-TB driver must not stream the corpus through
      one core before P1 starts), serially as the no-Ray fallback.

    Parallel and serial paths combine identical per-file digests in
    identical order, so the run fingerprint is mode-independent (tested).
    """
    files = _input_files(paths)
    if etag_map is not None:
        digests = [etag_map[fp] for fp in files]
    elif ray.is_initialized() and len(files) > 1:
        digests = ray.get([_md5_file_remote.remote(fp) for fp in files])
    else:
        digests = [_md5_file(fp) for fp in files]
    h = hashlib.md5()
    for fp, d in zip(files, digests):
        h.update(fp.encode())
        h.update(d.encode())
    return h.hexdigest()


def _read_rg_meta(fp: str) -> list[int]:
    import pyarrow.parquet as pq

    md = pq.read_metadata(fp)
    return [md.row_group(i).num_rows for i in range(md.num_row_groups)]


_read_rg_meta_remote = ray.remote(num_cpus=0.25)(_read_rg_meta)


def _slice_specs(files: list[str], num_shards: int) -> list[list[tuple[str, int, int, int]]]:
    """Deterministic contiguous input slices: shard ``s`` owns global rows
    [s·total/num_shards, (s+1)·total/num_shards), expressed as
    (file, row_group, start_in_rg, n_rows) pieces. Depends only on the
    input files' row-group layout (footer metadata — parallel Ray tasks
    when a session is up; the 100-TB driver must not read 10⁵ footers
    serially), so the same input always slices identically — the property
    shard resume relies on. Content digests already pin the layout: same
    bytes ⟺ same row groups."""
    import bisect

    if ray.is_initialized() and len(files) > 4:
        metas = ray.get([_read_rg_meta_remote.remote(fp) for fp in files])
    else:
        metas = [_read_rg_meta(fp) for fp in files]
    units = [(fp, rg, n) for fp, m in zip(files, metas) for rg, n in enumerate(m)]
    total = sum(n for _, _, n in units)
    bounds = [s * total // num_shards for s in range(num_shards + 1)]
    specs: list[list[tuple[str, int, int, int]]] = [[] for _ in range(num_shards)]
    pos = 0
    for fp, rg, n in units:
        lo, hi = pos, pos + n
        s = max(0, bisect.bisect_right(bounds, lo) - 1)
        while s < num_shards and bounds[s] < hi:
            a, b = max(lo, bounds[s]), min(hi, bounds[s + 1])
            if b > a:
                specs[s].append((fp, rg, a - lo, b - a))
            s += 1
        pos = hi
    return specs


# (key, instance): keyed by a DRIVER-assigned stable token, not the
# deserialized factory object's identity — each build_graph call pickles a
# fresh closure, so identity-keying would rebuild the extractor once per
# worker per BUILD, and a served deployment (one incremental build per
# ingest flush) would reload pinned GPU/LLM weights on every episode. The
# token is minted once per factory OBJECT on the driver (weak-keyed, so a
# dropped factory can never alias a later one's token) and rides the
# closure; the same pinned factory then reuses the built extractor across
# builds — the heavy-weights-load-once contract the stage is built on.
_EXTRACTOR_MEMO: list = []
_FACTORY_KEYS: "weakref.WeakKeyDictionary" = None  # type: ignore[assignment]
_FACTORY_SEQ = None


def _factory_key(factory) -> str:
    global _FACTORY_KEYS, _FACTORY_SEQ
    if factory is None:
        return "default"
    if _FACTORY_KEYS is None:
        import itertools
        import weakref

        _FACTORY_KEYS = weakref.WeakKeyDictionary()
        _FACTORY_SEQ = itertools.count()
    try:
        k = _FACTORY_KEYS.get(factory)
        if k is None:
            k = f"f{next(_FACTORY_SEQ)}"
            _FACTORY_KEYS[factory] = k
        return k
    except TypeError:
        # un-weakref-able callable: fall back to a per-call key (safe —
        # worst case is the old rebuild-per-build behavior, never reuse of
        # a WRONG extractor)
        return f"call{next(_FACTORY_SEQ)}"


def _worker_extractor(factory=None, key: str = "default") -> TripleExtractor:
    if not _EXTRACTOR_MEMO or _EXTRACTOR_MEMO[0][0] != key:
        _EXTRACTOR_MEMO[:] = [(key, (factory or TripleExtractor)())]
    return _EXTRACTOR_MEMO[0][1]


def extract_one_shard(
    ep_dir: str,
    tr_dir: str,
    fingerprint: str,
    pieces: list[tuple[str, int, int, int]],
    run_ts_us: int,
    store_content: bool,
    chunk_rows: int,
    factory,
    factory_key: str,
) -> None:
    """One extract shard, run as one Ray task: read the shard's input
    slice ``pieces`` (``_slice_specs``), run html→text + episode build +
    triple extraction, and write the episodes and triples shard dirs
    (manifests stamped ``fingerprint``; the episodes dir also holds the
    shard's sorted url hashes, ``gio.URL_HASHES``). Chunked streaming: the
    extracted rows go straight to the incremental writers, so the task heap is
    O(chunk + one input row group), never O(shard) — a 10⁶-page shard
    costs the same memory as a 10⁴-page one. A failure aborts both
    writers, so the shard is left without a manifest."""
    from ..extract.triples import TRIPLES_SCHEMA
    from ..schemas import EPISODES

    ep_w = gio.ShardWriter(ep_dir, fingerprint, EPISODES, url_column="uuid")
    tr_w = gio.ShardWriter(tr_dir, fingerprint, TRIPLES_SCHEMA)
    try:
        for fp, rg, start, n in pieces:
            rg_tab = pq.ParquetFile(fp).read_row_group(rg).slice(start, n)
            for off in range(0, rg_tab.num_rows, chunk_rows):
                pages = rg_tab.slice(off, chunk_rows)
                ep = make_episode_batch(extract_text_batch(pages), run_ts_us)
                ep = ep.select(EPISODES.names).cast(EPISODES)
                tr = _worker_extractor(factory, factory_key)(ep)
                if not store_content:
                    # store_raw_episode_content=False parity
                    # (graphiti.py:137, 551-552): keep the episode row,
                    # drop the raw text payload
                    idx = ep.schema.get_field_index("content")
                    ep = ep.set_column(idx, "content", pa.array([""] * ep.num_rows, pa.string()))
                ep_w.write(ep)
                tr_w.write(tr)
    except BaseException:
        ep_w.abort()
        tr_w.abort()
        raise
    ep_w.close()
    tr_w.close()


extract_one_shard_remote = ray.remote(extract_one_shard)


def extract_phase(
    pages_paths: list[str],
    out_dir: str,
    run_ts_us: int = DEFAULT_RUN_TS_US,
    num_shards: int | None = None,
    store_content: bool = True,
    input_etags: dict[str, str] | None = None,
    extractor_resources: dict | None = None,
    extractor_factory=None,
) -> tuple[int, int]:
    """P1: shard-resumable extraction with ZERO exchange. One shard = one
    deterministic contiguous input slice (``_slice_specs``); each shard
    still to do runs as one plain Ray task (``extract_one_shard``) that
    reads only its own row-group slices, runs html→text + episode build +
    triple extraction, and writes its two shard dirs atomically. The whole
    phase is an embarrassingly parallel map over shards — the previous
    design's groupby(shard) moved the entire page-text stream through an
    all-to-all just to co-locate shard rows, which at 100 TB is a
    corpus-sized shuffle bought for nothing (slices already ARE
    co-located). A page (= episode) is one row, so episode ⊂ shard file
    still holds — the invariant mentions_edges_per_shard documents. No Ray
    Data job runs: one per-shard task pool needs no streaming executor,
    whose start-up cost more than a single-episode write's extraction.

    Returns (shards run, shards in the plan): a resumed run shows how many
    shards it skipped.

    ``input_etags`` (path → content digest) skips reading input bytes for
    fingerprinting — pass object-store etags at scale.

    ``extractor_factory`` swaps the per-worker extractor (default
    ``TripleExtractor``): any zero-arg callable — a class like
    ``models.OpenAICompatExtractor`` or a closure binding its config —
    returning a batch callable with ``TripleExtractor``'s contract
    (episodes batch in, TRIPLES_SCHEMA rows out). It ships as a shard
    task argument and builds ONCE per worker process (``_worker_extractor``
    memo), so NER / OpenIE / LLM weights load once, not per shard.
    ``extractor_resources`` are Ray resource args of each shard task,
    merged over its defaults ``num_cpus=1`` and the SPREAD scheduling
    strategy (e.g. ``{"num_gpus": 1}`` or ``{"num_cpus": 2}``) — a
    GPU-backed extractor reserves its accelerator here, the same knob the
    embed/rerank stages document. The call returns, or raises the first
    shard's error, only once every shard task has ended.
    NOTE: shard resume fingerprints cover the INPUT (and shard count),
    not the extractor — callables have no stable content hash — so point
    different extractors at different ``out_dir``s; a re-run over an
    out_dir extracted by another extractor skips its completed shards."""
    fp_run = _fingerprint(pages_paths, input_etags)
    # The shard count is PINNED per input fingerprint in a plan file written
    # before any shard: the cluster-sized default below is NOT a pure
    # function of the input, so a crashed run resumed on a different-sized
    # (or autoscaled) cluster would otherwise re-slice under a new
    # denominator — re-extracting everything while completed shards
    # s >= num_shards' from the first attempt linger with valid manifests,
    # and the link phase (which unions every manifested shard) would read
    # those pages twice. The plan makes resume slicing input-deterministic
    # regardless of where it resumes; it wins over a conflicting explicit
    # ``num_shards`` for the same reason.
    os.makedirs(out_dir, exist_ok=True)
    plan_path = os.path.join(out_dir, f"_extract_plan_{fp_run[:8]}.json")
    if os.path.exists(plan_path):
        with open(plan_path) as f:
            num_shards = int(json.load(f)["num_shards"])
    else:
        if num_shards is None:
            # shards ARE the phase's parallelism now (no read-side split to
            # fall back on), so the default must saturate the cluster even
            # for one big input file
            cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
            num_shards = max(4, len(_input_files(pages_paths)), 2 * cpus)
        tmp = plan_path + ".tmp-w"
        with open(tmp, "w") as f:
            json.dump({"fingerprint": fp_run, "num_shards": num_shards}, f)
        os.replace(tmp, plan_path)
    fps = {s: fp_run + f":{s}/{num_shards}" for s in range(num_shards)}
    # belt-and-braces for out_dirs predating the plan file: drop this
    # input's shard dirs whose manifests carry a different /num_shards
    # denominator (or no manifest at all — a crashed partial write)
    pref = f"shard={fp_run[:8]}-"
    for table in ("episodes", "triples"):
        root = os.path.join(out_dir, table)
        if not os.path.isdir(root):
            continue
        for d in sorted(os.listdir(root)):
            if not d.startswith(pref):
                continue
            man_p = os.path.join(root, d, gio.MANIFEST)
            ok = False
            if os.path.exists(man_p):
                with open(man_p) as f:
                    ok = json.load(f).get("fingerprint", "").endswith(f"/{num_shards}")
            if not ok:
                import shutil

                shutil.rmtree(os.path.join(root, d), ignore_errors=True)
    # shard dirs are namespaced by the input fingerprint: re-running the
    # same input resumes (skips complete shards); running a NEW input file
    # into the same out_dir APPENDS new shards — the TS8 incremental-delta
    # model (episodes/triples are an append-only log; the link phase folds
    # the new run into its tables or re-derives them from the union,
    # idempotent via deterministic ids)
    def sdir(table: str, shard: int) -> str:
        return os.path.join(out_dir, table, f"shard={fp_run[:8]}-{shard:04d}")

    todo = [
        s for s in range(num_shards)
        if not (gio.manifest_matches(sdir("episodes", s), fps[s]) and gio.manifest_matches(sdir("triples", s), fps[s]))
    ]
    if not todo:
        return 0, num_shards

    specs = _slice_specs(_input_files(pages_paths), num_shards)
    # minted DRIVER-side so the same pinned factory keeps its worker-memo
    # key across build_graph calls (see _worker_extractor)
    extractor_key = _factory_key(extractor_factory)
    # SPREAD: on a cluster the shards fan out over the nodes instead of
    # filling the first one (Ray Data's placement for map tasks)
    task = extract_one_shard_remote.options(
        **{"num_cpus": 1, "scheduling_strategy": "SPREAD", **(extractor_resources or {})}
    )
    refs = [
        task.remote(
            sdir("episodes", s), sdir("triples", s), fps[s], specs[s], run_ts_us,
            store_content, EXTRACT_CHUNK_ROWS, extractor_factory, extractor_key,
        )
        for s in todo
    ]
    # every shard task ends before the call returns or raises: a failed
    # shard must not leave siblings still writing into out_dir
    ray.wait(refs, num_returns=len(refs))
    ray.get(refs)
    return len(todo), num_shards


def _triples_shards(out_dir: str) -> dict[str, dict]:
    """Manifest of every triples shard dir, keyed by dir name."""
    troot = os.path.join(out_dir, "triples")
    shards = {}
    for d in sorted(os.listdir(troot)) if os.path.isdir(troot) else []:
        m = gio.read_manifest(os.path.join(troot, d)) if d.startswith("shard=") else None
        if m is not None:
            shards[d] = m
    return shards


def _run_of(shard_dir: str) -> str:
    """Run prefix of a shard dir name ``shard=<run>-<nnnn>``."""
    return shard_dir.split("shard=", 1)[1].split("-", 1)[0]


def _link_fingerprint(shards: dict[str, dict], run_ts_us: int, runs: set[str] | None = None) -> str:
    """Link-phase lineage fingerprint: the run ts AND the exact set of input
    triples shards (``_triples_shards`` manifests), so an incremental append
    of new shards invalidates and re-derives the global tables. ``runs``
    restricts it to the shards of those run prefixes."""
    shard_fps = [
        m.get("fingerprint", "") for d, m in shards.items()
        if runs is None or _run_of(d) in runs
    ]
    return "run:" + str(run_ts_us) + ":" + hashlib.md5("|".join(sorted(shard_fps)).encode()).hexdigest()


def _driver_canon(triples: "rd.Dataset", distinct: "rd.Dataset", run_ts_us: int, timings: dict, t0: float):
    """Canonical map collected driver-side (vocabulary-sized) and broadcast
    via ``ray.put``: nodes and IS_DUPLICATE_OF edges are driver tables, the
    pointer rewrite is a lazy broadcast map over stateless tasks."""
    canon_map = canonicalize(triples, mentions=distinct)
    timings["canonicalize"] = round(time.time() - t0, 2)
    map_ref = ray.put(canon_map_dict(canon_map))
    rewritten = triples.map_batches(
        functools.partial(rewrite_batch, map_ref=map_ref), batch_format="pyarrow"
    )
    hot = int(canon_map.groupby("canon_uuid")["n"].sum().max()) if len(canon_map) else 0
    return (
        build_nodes_table(canon_map, run_ts_us),
        build_duplicate_of_edges(canon_map, run_ts_us),
        rewritten, hot, map_ref,
    )


def _distributed_canon(triples: "rd.Dataset", distinct: "rd.Dataset", run_ts_us: int, timings: dict, t0: float):
    """Zero driver materialization: the canonical map stays a Dataset, the
    same node and IS_DUPLICATE_OF builders run per canon_uuid bucket and
    per batch, and the pointer rewrite is a hash join. The only driver-side
    values are counts and manifests; there is no broadcast map."""
    canon_ds = canonicalize_distributed(triples, mentions=distinct).materialize()
    timings["canonicalize"] = round(time.time() - t0, 2)
    nodes = bucketed_group_apply(canon_ds, ["canon_uuid"], lambda df: build_nodes_table(df, run_ts_us))
    dups = canon_ds.map_batches(
        lambda t: build_duplicate_of_edges(t.to_pandas(), run_ts_us), batch_format="pyarrow"
    )

    # salting trigger: per-entity mention sums (one small bucketed shuffle —
    # an entity's surface rows can straddle batches, so per-batch partials
    # alone would understate the bound), then a driver max over per-bucket
    # maxes
    def _sum_by_entity(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("canon_uuid", as_index=False)["n"].sum()
        return pd.DataFrame({"m": [int(g["n"].max())]}) if len(g) else pd.DataFrame({"m": pd.Series([], dtype="int64")})

    hot = max(
        (r["m"] for r in bucketed_group_apply(canon_ds, ["canon_uuid"], _sum_by_entity).take_all()),
        default=0,
    )
    # pinned: both the edges job and the MENTIONS job consume it
    rewritten = rewrite_via_join(triples, canon_ds).materialize()
    return nodes, dups, rewritten, hot, None


def _link_dirs(out_dir: str) -> list[str]:
    return [os.path.join(out_dir, t) for t in LINK_TABLES]


class _Seal(NamedTuple):
    """What a link seals: its fingerprint, the runs it covers, the episodes
    and triples logs' totals over those runs (``{"rows", "shards"}`` per
    log) and the url index over them: the base array (written only when
    ``new_base``) and the delta array."""

    fp: str
    runs: set[str]
    totals: dict[str, dict]
    base: np.ndarray
    delta: np.ndarray
    new_base: bool


def _log_totals(out_dir: str, dirs: list[str], shards: dict[str, dict]) -> dict[str, dict]:
    """Rows and manifested shard dirs of the triples shard dirs ``dirs``
    and of their episodes twins (same dir name under ``episodes/``)."""
    eps = [m for m in (gio.read_manifest(os.path.join(out_dir, "episodes", d)) for d in dirs) if m is not None]
    return {
        "episodes": {"rows": sum(m.get("rows", 0) for m in eps), "shards": len(eps)},
        "triples": {"rows": sum(shards[d].get("rows", 0) for d in dirs), "shards": len(dirs)},
    }


def _url_hashes_of(out_dir: str, dirs: list[str]) -> np.ndarray:
    """Sorted distinct url hashes of the episodes twins of ``dirs``."""
    hs = [gio.shard_url_hashes(os.path.join(out_dir, "episodes", d)) for d in dirs]
    return np.unique(np.concatenate(hs)) if hs else np.empty(0, np.uint64)


def _in_sorted(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Mask of the values of ``x`` that sorted array ``a`` holds: one
    ``searchsorted`` probe."""
    if not len(a):
        return np.zeros(len(x), bool)
    i = np.searchsorted(a, x)
    return a[np.minimum(i, len(a) - 1)] == x


def _full_seal(out_dir: str, shards: dict[str, dict], fp: str) -> _Seal:
    """The seal of a full link: totals over every run, and a base array
    merged from the per-shard url hashes, with an empty delta."""
    dirs = list(shards)
    return _Seal(
        fp, {_run_of(d) for d in dirs}, _log_totals(out_dir, dirs, shards),
        _url_hashes_of(out_dir, dirs), np.empty(0, np.uint64), True,
    )


def _delta_seal(out_dir: str, shards: dict[str, dict], rec: dict, index: tuple[np.ndarray, np.ndarray], fp: str) -> _Seal:
    """The seal of a delta or group link, sized by the new runs: the sealed
    totals plus the new runs' manifests, and the url index's delta array
    plus the new runs' hashes its base lacks (the base is kept)."""
    linked = set(rec["linked_runs"])
    new = [d for d in shards if _run_of(d) not in linked]
    added = _log_totals(out_dir, new, shards)
    base, delta = index
    h = _url_hashes_of(out_dir, new)
    return _Seal(
        fp, linked | {_run_of(d) for d in new},
        {log: {k: rec["totals"][log][k] + v for k, v in t.items()} for log, t in added.items()},
        base, np.union1d(delta, h[~_in_sorted(base, h)]), False,
    )


def _load_url_index(out_dir: str, fp: str) -> tuple[np.ndarray, np.ndarray] | None:
    """(base, delta) of the url index, the base memory-mapped, when its
    manifest names link fingerprint ``fp`` and its arrays have the
    recorded lengths; None when it is missing, stale or unreadable."""
    d = os.path.join(out_dir, URL_INDEX)
    m = gio.read_manifest(d)
    if m is None or m.get("fingerprint") != fp:
        return None
    try:
        base = np.load(os.path.join(d, URL_INDEX_PARTS[0]), mmap_mode="r")
        delta = np.load(os.path.join(d, URL_INDEX_PARTS[1]))
    except (OSError, ValueError, EOFError):
        return None
    if [len(base), len(delta)] != m.get("lengths") or {base.dtype, delta.dtype} != {np.dtype(np.uint64)}:
        return None
    return base, delta


def invalidate_url_index(out_dir: str) -> None:
    """Drop the url index's manifest, so the next link takes the full
    route (``no url index``), which writes the index again. Maintenance
    that removes episodes calls it: the index and the sealed log totals
    still count them."""
    try:
        os.remove(os.path.join(out_dir, URL_INDEX, gio.MANIFEST))
    except FileNotFoundError:
        pass


def _write_url_index(out_dir: str, seal: _Seal) -> None:
    """Write ``seal``'s url index: its manifest goes first and comes back
    last, so a write cut short leaves no index."""
    d = os.path.join(out_dir, URL_INDEX)
    os.makedirs(d, exist_ok=True)
    invalidate_url_index(out_dir)
    base_p, delta_p = (os.path.join(d, f) for f in URL_INDEX_PARTS)
    if seal.new_base:
        gio.write_array_atomic(seal.base, base_p)
    gio.write_array_atomic(seal.delta, delta_p)
    gio.write_manifest(d, {"fingerprint": seal.fp, "lengths": [len(seal.base), len(seal.delta)]})


def _seal_link_tables(out_dir: str, seal: _Seal, n_mentions: int) -> None:
    """Last write of every link: the url index (``_write_url_index``),
    then each link table's manifest, which records the link fingerprint,
    the runs it covers, the distinct-mention count, the episodes and
    triples totals over those runs and their distinct url count (the run
    report's source), its footer row count and its part-file fingerprint
    (the mark that catches later edits which leave the manifest as it
    was)."""
    _write_url_index(out_dir, seal)
    for d in _link_dirs(out_dir):
        m = gio.read_manifest(d) or {}
        m.pop("mutated_at", None)
        m.update(
            fingerprint=seal.fp, complete=True, linked_runs=sorted(seal.runs), mentions=n_mentions,
            totals=seal.totals, urls=len(seal.base) + len(seal.delta),
            rows=sum(pq.read_metadata(p).num_rows for p in gio.part_files(d)),
            files=gio.part_files_fingerprint(d),
        )
        gio.write_manifest(d, m)


def _unseal_link_tables(out_dir: str) -> None:
    """Mark every link manifest incomplete, so a write cut short leaves
    tables the next link re-derives whole."""
    for d in _link_dirs(out_dir):
        m = gio.read_manifest(d)
        if m is not None:
            gio.write_manifest(d, {**m, "complete": False})


def _choose_link_route(out_dir: str, run_ts_us: int, shards: dict[str, dict]) -> tuple[str, str, dict | None, tuple | None]:
    """(route, reason, link record, url index) from manifests and file
    stats alone: ``unchanged`` when the sealed tables already cover every
    triples run, ``delta`` when they cover all but new runs the driver can
    fold in, ``full`` otherwise, with the check that failed. Both cheaper
    routes need the url index sealed with the tables (``no url index``)."""
    from ..stages.canonicalize import CANON_DRIVER_MAX_MENTIONS

    mans = [gio.read_manifest(d) for d in _link_dirs(out_dir)]
    keys = ("fingerprint", "linked_runs", "mentions")
    if any(m is None or m.get("complete") is not True or "files" not in m for m in mans) or any(
        [m.get(k) for k in keys] != [mans[0].get(k) for k in keys] for m in mans
    ):
        return "full", "no linked-run record", None, None
    rec = mans[0]
    if any(gio.part_files_fingerprint(d) != m["files"] for d, m in zip(_link_dirs(out_dir), mans)):
        return "full", "tables edited", rec, None
    linked, runs = set(rec["linked_runs"]), {_run_of(d) for d in shards}
    base = _link_fingerprint(shards, run_ts_us, linked)
    if not linked <= runs or rec["fingerprint"] not in (base, base + ":distcanon"):
        return "full", "tables edited", rec, None
    if runs == linked:
        tag = ":distcanon" if rec["mentions"] > CANON_DRIVER_MAX_MENTIONS else ""
        if rec["fingerprint"] != base + tag:
            return "full", "distributed route", rec, None
    else:
        new_rows = sum(m.get("rows", 0) for d, m in shards.items() if _run_of(d) not in linked)
        if new_rows > DELTA_MAX_TRIPLES:
            return "full", "run too large", rec, None
        # each triple row adds at most two distinct mentions
        if rec["fingerprint"] != base or rec["mentions"] + 2 * new_rows > CANON_DRIVER_MAX_MENTIONS:
            return "full", "distributed route", rec, None
    index = _load_url_index(out_dir, rec["fingerprint"]) if "totals" in rec else None
    if index is None:
        return "full", "no url index", rec, None
    return ("unchanged" if runs == linked else "delta"), "", rec, index


def _read_parts(d: str, columns: list[str], flt=None) -> pa.Table:
    """Columns of the part files under ``d``, rows passing ``flt``."""
    import pyarrow.dataset as pads

    return pads.dataset(gio.part_files(d), format="parquet").to_table(columns=columns, filter=flt)


def _delta_canon(out_dir: str, triples: pa.Table, run_ts_us: int):
    """Canonicalize a new run's distinct mentions against the persisted
    ones, with the full route's kernels: the blocks the run's mentions fall
    in are rebuilt from nodes and duplicate_edges of the run's groups plus
    the new names, and ``pairs_in_block`` scores them. Returns (rewrite
    dict, new nodes, new IS_DUPLICATE_OF rows, new mention count), or the
    reason the group route must run instead: a block over the cap, a new
    name linking two entities, or one that would take over an entity's
    canonical name (longest name wins)."""
    from ..ids import entity_uuid
    from ..stages.canonicalize import MAX_BLOCK_NAMES, UnionFind, blocking_keys_batch, mention_key, pairs_in_block

    run = partial_distinct_mentions(triples).to_pandas()
    run["key"] = [mention_key(g, l, s_) for g, l, s_ in zip(run["group_id"], run["label"], run["surface"])]
    in_groups = pc.field("group_id").isin(pa.array(sorted(set(run["group_id"])), pa.string()))
    nodes = _read_parts(os.path.join(out_dir, "nodes", "shard=0000"), ["uuid", "name", "group_id", "labels"], in_groups)
    dups = _read_parts(
        os.path.join(out_dir, "duplicate_edges", "shard=0000"),
        ["source_name", "target_uuid", "target_name", "group_id"], in_groups,
    )
    label = pc.list_element(nodes.column("labels"), 0).to_pylist()
    label_of = dict(zip(nodes.column("uuid").to_pylist(), label))
    inv = pd.DataFrame({
        "group_id": nodes.column("group_id").to_pylist() + dups.column("group_id").to_pylist(),
        "label": label + [label_of[u] for u in dups.column("target_uuid").to_pylist()],
        "surface": nodes.column("name").to_pylist() + dups.column("source_name").to_pylist(),
        "canon_name": nodes.column("name").to_pylist() + dups.column("target_name").to_pylist(),
        "canon_uuid": nodes.column("uuid").to_pylist() + dups.column("target_uuid").to_pylist(),
    })
    known = {
        mention_key(g, l, s_): (c, u)
        for g, l, s_, c, u in zip(inv["group_id"], inv["label"], inv["surface"], inv["canon_name"], inv["canon_uuid"])
    }
    fresh = run[~run["key"].isin(known)].reset_index(drop=True)

    def blocks(df: pd.DataFrame) -> pd.DataFrame:
        return blocking_keys_batch(pa.Table.from_pandas(df, preserve_index=False)).to_pandas()

    run_bk = blocks(run[["group_id", "label", "surface", "n"]])
    inv_bk = blocks(inv[["group_id", "label", "surface"]].assign(n=0))
    touched = pd.concat(
        [inv_bk[inv_bk["block_key"].isin(set(run_bk["block_key"]))], run_bk], ignore_index=True
    ).drop_duplicates(["block_key", "surface"])
    if len(touched) and touched.groupby("block_key").size().max() > MAX_BLOCK_NAMES:
        return "block over cap"
    # union-find over the new names and the entities they pair with: an
    # entity is one node, so a new name bridging two entities joins them
    ent = "\x00"
    uf = UnionFind()
    for k in fresh["key"]:
        uf.find(k)
    with_fresh = set(blocks(fresh[["group_id", "label", "surface", "n"]])["block_key"])
    for _, g in touched[touched["block_key"].isin(with_fresh)].groupby("block_key", sort=False):
        pairs = pairs_in_block(g)
        for a, b in zip(pairs["a"], pairs["b"]):
            uf.union(*(ent + known[x][1] if x in known else x for x in (a, b)))
    members: dict[str, list[str]] = {}
    for x in list(uf.parent):
        members.setdefault(uf.find(x), []).append(x)
    canon_name = {u: c for c, u in known.values()}
    fresh_of = {k: (g, l, s_) for k, g, l, s_ in zip(fresh["key"], fresh["group_id"], fresh["label"], fresh["surface"])}
    new_canon: dict[str, tuple[str, str]] = {}
    for xs in members.values():
        ents = [x[1:] for x in xs if x.startswith(ent)]
        keys = [x for x in xs if not x.startswith(ent)]
        if len(ents) > 1:
            return "mention merges entities"
        if not keys:
            continue
        best = min([fresh_of[k][2] for k in keys] + [canon_name[e] for e in ents], key=lambda n: (-len(n), n))
        if ents and best != canon_name[ents[0]]:
            return "canonical name changes"
        g, l, _ = fresh_of[keys[0]]
        new_canon.update(dict.fromkeys(keys, (best, ents[0] if ents else entity_uuid(g, l, best))))
    fresh["canon_name"] = [new_canon[k][0] for k in fresh["key"]]
    fresh["canon_uuid"] = [new_canon[k][1] for k in fresh["key"]]
    new_entities = fresh[~fresh["canon_uuid"].isin(set(canon_name))]
    return (
        {**{k: known[k] for k in run["key"] if k in known}, **new_canon},
        build_nodes_table(new_entities, run_ts_us),
        build_duplicate_of_edges(fresh, run_ts_us),
        len(fresh),
    )


def _new_run_triples(out_dir: str, shards: dict[str, dict], rec: dict) -> pa.Table:
    """The triples of the runs the sealed link tables do not cover."""
    linked = set(rec["linked_runs"])
    return pa.concat_tables([
        _read_parts(os.path.join(out_dir, "triples", d), TRIPLE_COLUMNS)
        for d in shards if _run_of(d) not in linked
    ])


def _split_parts(d: str, columns: list[str], hit_of) -> tuple[dict[str, pa.Table], list[pa.Table]]:
    """Part files under ``d`` holding rows ``hit_of`` marks (a boolean mask
    over ``columns``): each such file's other rows, keyed by path, and the
    marked rows."""
    kept: dict[str, pa.Table] = {}
    hits = []
    for p in gio.part_files(d):
        hit = hit_of(pq.read_table(p, columns=columns))
        if pc.any(hit).as_py():
            t = pq.read_table(p)
            kept[p] = t.filter(pc.invert(hit))
            hits.append(t.filter(hit))
    return kept, hits


def _edge_rows(partial: pd.DataFrame, run_ts_us: int) -> pa.Table:
    """Partial edges (``merge_edge_bucket`` rows) of whole (group,
    predicate, object) buckets → final edge rows: the merge both full-route
    merge paths end in, the finalize body and the embedder."""
    merged = combine_partial_edges_and_sweep(partial)
    return Embedder("fact", "fact_embedding")(
        finalize_edges_batch(pa.Table.from_pandas(merged, preserve_index=False), run_ts_us)
    )


def _fold(out_dir: str, kept: dict[str, pa.Table], rows_of: dict[str, pa.Table], seal: _Seal, n_mentions: int) -> None:
    """Write a delta or group link: the link manifests go incomplete first;
    each file in ``kept`` is rewritten to the rows it keeps (atomic
    per-file rewrites); each table's new rows (``rows_of``, keyed by link
    dir) join its one delta part file, rewritten whole each time; the url
    index and the manifests are sealed last. A crash anywhere leaves an
    incomplete manifest, and the next link takes the full route."""
    _unseal_link_tables(out_dir)
    for p, t in kept.items():
        if os.path.basename(p) != DELTA_PART:
            gio.rewrite_file_atomic(t, p)
    for d, rows in rows_of.items():
        path = os.path.join(d, DELTA_PART)
        if path in kept:
            prev = kept[path]
        elif not rows.num_rows:
            continue
        else:
            prev = pq.read_table(path) if os.path.exists(path) else None
        files = gio.part_files(d)
        schema = pq.read_schema(files[0]) if files else rows.schema
        rows = rows.select(schema.names).cast(schema)
        gio.rewrite_file_atomic(rows if prev is None else pa.concat_tables([prev, rows]), path)
    _seal_link_tables(out_dir, seal, n_mentions)


def _delta_link(out_dir: str, run_ts_us: int, triples: pa.Table, rec: dict, index: tuple[np.ndarray, np.ndarray], seal: _Seal) -> str | None:
    """Delta link route: fold the triples of runs the sealed link tables do
    not cover into those tables, driver-side, with the full route's
    kernels. Returns the reason it cannot (``url recurs`` sends the link
    to the full route, every other reason to the group route), or None
    once the tables and the url index are written and sealed (``_fold``).

    - url recurs: the run's episode url hashes go through one
      ``searchsorted`` probe of the url index (the memory-mapped base and
      the delta array), sized by the run, never by the runs before it; a
      hit is an episode that already sits in a linked run;
    - canonical map: ``_delta_canon`` against the persisted entities;
    - edges: every persisted row of a (group, predicate, object) bucket
      the run touches, plus the run's partial edges (``merge_edge_bucket``),
      goes through ``_edge_rows``;
    - MENTIONS: the one kernel over the run's rewritten rows; exact only
      when no new episode already sits in an older run."""
    if not triples.num_rows:
        _seal_link_tables(out_dir, seal, rec["mentions"])
        return None
    hashes = gio.url_hashes(triples.column("episode_uuid"))
    if any(_in_sorted(a, hashes).any() for a in index):
        return "url recurs"
    canon = _delta_canon(out_dir, triples, run_ts_us)
    if isinstance(canon, str):
        return canon
    cmap, new_nodes, new_dups, n_fresh = canon

    rewritten = CanonicalRewrite(cmap)(triples)
    partial = merge_edge_bucket(rewritten.to_pandas())
    touched = pa.array(
        sorted({SEP.join(k) for k in zip(partial["group_id"], partial["name"], partial["target_uuid"])}), pa.string()
    )
    edges_dir = os.path.join(out_dir, "edges")
    kept, hits = _split_parts(
        edges_dir, ["group_id", "name", "target_uuid"],
        lambda k: pc.is_in(pc.binary_join_element_wise(k["group_id"], k["name"], k["target_uuid"], SEP), value_set=touched),
    )
    old = pa.concat_tables(hits).select(list(partial.columns)).to_pandas() if hits else partial.iloc[:0]
    _fold(out_dir, kept, {
        edges_dir: _edge_rows(pd.concat([old, partial], ignore_index=True), run_ts_us),
        os.path.join(out_dir, "episodic_edges"): _mentions_rows(mentions_partial(rewritten).to_pandas(), run_ts_us),
        os.path.join(out_dir, "nodes", "shard=0000"): new_nodes,
        os.path.join(out_dir, "duplicate_edges", "shard=0000"): new_dups,
    }, seal, rec["mentions"] + n_fresh)
    return None


def _group_link(out_dir: str, run_ts_us: int, shards: dict[str, dict], new: pa.Table, rec: dict, seal: _Seal) -> str | None:
    """Group link route: every link row is group-scoped (entity uuids, block
    keys, edge buckets and MENTIONS targets all carry the group), so the
    link rows of the groups a new run writes to are re-derived from all
    of those groups' triples, driver-side (``_derive_link_rows``), and
    replace those groups' rows in the four link tables (``_fold``). It
    runs where the delta's canonical map cannot give the full route's
    bytes: a new name that merges or renames entities, or a block over the
    cap. Returns the reason the full route must run instead (the groups
    hold more than ``DELTA_MAX_TRIPLES`` triple rows), or None once the
    tables are written and sealed."""
    import pyarrow.dataset as pads

    groups = pc.unique(new.column("group_id"))
    old_files = [
        p for d in shards if _run_of(d) in rec["linked_runs"]
        for p in gio.part_files(os.path.join(out_dir, "triples", d))
    ]
    old = pads.dataset(old_files, format="parquet").to_table(
        columns=TRIPLE_COLUMNS, filter=pc.field("group_id").isin(groups)
    ) if old_files else new.slice(0, 0)
    if old.num_rows + new.num_rows > DELTA_MAX_TRIPLES:
        return "group too large"
    rows_of, n_mentions = _derive_link_rows(pa.concat_tables([old, new.cast(old.schema)]), run_ts_us)
    n_old = len(partial_distinct_mentions(old)) if old.num_rows else 0

    kept: dict[str, pa.Table] = {}
    for d in _link_dirs(out_dir):
        kept.update(_split_parts(d, ["group_id"], lambda k: pc.is_in(k["group_id"], value_set=groups))[0])
    _fold(out_dir, kept, {
        os.path.join(out_dir, t): rows for t, rows in rows_of.items()
    }, seal, rec["mentions"] + n_mentions - n_old)
    return None


def _derive_link_rows(triples: pa.Table, run_ts_us: int) -> tuple[dict[str, pa.Table], int]:
    """Triples of whole groups → those groups' rows of the four link tables
    (keyed by ``LINK_TABLES`` entry) and their distinct-mention count, in
    one process: ``canonical_map`` over the distinct mentions,
    ``CanonicalRewrite``, ``merge_edge_bucket`` → ``_edge_rows``, the
    MENTIONS kernel over every rewritten row (exact whatever the shard
    layout) and the node and IS_DUPLICATE_OF builders. Every link row is
    group-scoped, so the rows of every triple are the whole tables."""
    mentions = partial_distinct_mentions(triples).to_pandas()
    cmap = canonical_map(mentions)
    rewritten = CanonicalRewrite(canon_map_dict(cmap))(triples)
    return dict(zip(LINK_TABLES, (
        build_nodes_table(cmap, run_ts_us),
        _edge_rows(merge_edge_bucket(rewritten.to_pandas()), run_ts_us),
        _mentions_rows(mentions_partial(rewritten).to_pandas(), run_ts_us),
        build_duplicate_of_edges(cmap, run_ts_us),
    ))), len(mentions)


def _link_task(out_dir: str, run_ts_us: int, fp: str) -> int:
    """Task placement of the full route, run as one Ray task: every
    triple through ``_derive_link_rows``, one atomic shard write per link
    table into the dirs the Ray placement writes. Returns the
    distinct-mention count; the caller seals the tables."""
    triples = _read_parts(os.path.join(out_dir, "triples"), TRIPLE_COLUMNS)
    rows_of, n_mentions = _derive_link_rows(triples, run_ts_us)
    for t, rows in rows_of.items():
        gio.write_shard_atomic(rows, os.path.join(out_dir, t), fp)
    return n_mentions


_link_task_remote = ray.remote(num_cpus=1)(_link_task)


def link_and_edges_phase(
    out_dir: str,
    run_ts_us: int = DEFAULT_RUN_TS_US,
    timings: dict | None = None,
) -> dict:
    """P2+P3: global canonicalization + edge build from extracted shards.

    Four link routes, picked from manifests before any Ray job and named
    in ``timings`` (``link_route``, and ``link_reason`` for the check that
    ruled out the cheaper route):

    - ``unchanged``: the sealed link tables (``LINK_TABLES``) already cover
      every triples run and nobody edited them since; nothing runs.
    - ``delta``: they cover all but a few new runs (at most
      ``DELTA_MAX_TRIPLES`` triple rows, driver canonical route). The new
      runs' triples fold into the persisted tables (``_delta_link``); a
      new mention that merges entities or renames one, or a block over the
      cap, sends the link to ``group``; a url recurring across runs, to
      ``full``. The url check is one ``searchsorted`` probe of the url
      index (``URL_INDEX``), which every route seals with the tables; a
      missing or stale index sends the link to ``full`` (reason ``no url
      index``), and that full link writes it.
    - ``group``: the link rows of the groups the new runs write to are
      re-derived from those groups' triples, driver-side (``_group_link``),
      unless they hold more than ``DELTA_MAX_TRIPLES`` triple rows
      (``full``, reason ``group too large``).
    - ``full``: every link table re-derived from the triples union, in one
      of two placements (``_full_link``), picked from the triples
      manifests' row sum (``timings``: ``link_placement``,
      ``link_triples``). ``task``: at most ``DELTA_MAX_TRIPLES`` rows
      whose mentions stay under ``CANON_DRIVER_MAX_MENTIONS`` go through
      the group route's derive step (``_derive_link_rows``) in one Ray
      task (``_link_task``): no Ray Data job, no exchange. ``ray``: one
      skeleton whose only branch is the canonical-map strategy. The
      distinct-mentions dataset is materialized once (it feeds whichever
      strategy runs, so the gate costs no extra shuffle) and a streaming
      ``count()`` on it picks the route: above
      ``CANON_DRIVER_MAX_MENTIONS`` the distributed strategy
      (``_distributed_canon``) keeps the map a Dataset; below it the
      driver broadcast strategy (``_driver_canon``, faster in the
      vocabulary-sized regime) runs. All three write the same rows with
      the same schemas. ``timings`` names the routes taken:
      ``canon_path`` and ``mentions_path`` (``task`` on the task
      placement).

    MENTIONS is one kernel over rewritten rows. On the Ray placement it
    runs per-shard (``mentions_edges_per_shard``, no exchange) when a
    broadcast map exists and triples/ holds one run fingerprint, else
    behind one (episode, entity) exchange (``mentions_edges``) on
    ``rewritten``; the task placement runs it once over every row.

    Every route ends by sealing the url index and the link manifests
    (``_seal_link_tables``); the delta, group and unchanged checks trust
    nothing else. The run report (``_job_metrics.json``, returned) is
    O(run) too (``_write_report``): the link manifests seal the episodes
    and triples totals, so no write walks every shard manifest."""
    timings = timings if timings is not None else {}
    t0 = time.time()
    shards = _triples_shards(out_dir)
    route, reason, rec, index = _choose_link_route(out_dir, run_ts_us, shards)
    if route == "delta":
        seal = _delta_seal(out_dir, shards, rec, index, _link_fingerprint(shards, run_ts_us))
        new = _new_run_triples(out_dir, shards, rec)
        reason = _delta_link(out_dir, run_ts_us, new, rec, index, seal) or ""
        if reason == "url recurs":
            route = "full"
        elif reason:
            reason = _group_link(out_dir, run_ts_us, shards, new, rec, seal) or reason
            route = "full" if reason == "group too large" else "group"
        timings["delta"] = round(time.time() - t0, 2)
    if route == "full":
        if reason == "tables edited":
            # the edit may have left a manifest whose fingerprint the full
            # route would otherwise take as already written
            _unseal_link_tables(out_dir)
        _full_link(out_dir, run_ts_us, timings, shards)
    timings["link_route"], timings["link_reason"] = route, reason
    return _write_report(out_dir, timings)


def _write_report(out_dir: str, timings: dict) -> dict:
    """Write and return the run report, ``_job_metrics.json``: rows and
    shards per table, equal to ``gio.job_metrics`` — the episodes and
    triples logs from the totals the link manifests sealed, every other
    table from a walk of its manifests, which do not grow with writes —
    plus ``duplicate_urls`` (the episode rows over the linked runs less
    the distinct urls in the url index) and ``timings``."""
    rec = gio.read_manifest(_link_dirs(out_dir)[0])
    totals = rec["totals"]
    metrics = {
        "tables": {
            t: dict(totals[t]) if t in totals else gio.manifest_counts(os.path.join(out_dir, t))
            for t in gio.data_tables(out_dir)
        },
        "duplicate_urls": totals["episodes"]["rows"] - rec["urls"],
        "timings": dict(timings),
    }
    with open(os.path.join(out_dir, "_job_metrics.json"), "w") as f:
        json.dump(metrics, f, indent=2)
    return metrics


def _full_link(out_dir: str, run_ts_us: int, timings: dict, shards: dict[str, dict]) -> None:
    """The full route: re-derive every link table from the triples union.
    Triples that fit ``DELTA_MAX_TRIPLES`` (the budget under which the group
    route holds a link's triples in one process) and whose mentions cannot
    reach the distributed canonical route run as one Ray task
    (``_link_task``): off the driver, whose heap would otherwise keep the
    freed frames of each build, and with no Ray Data job or exchange.
    Larger ones take the Ray placement (``_ray_link``)."""
    from ..stages.canonicalize import CANON_DRIVER_MAX_MENTIONS

    t0 = time.time()
    n_triples = sum(m.get("rows", 0) for m in shards.values())
    # each triple row adds at most two distinct mentions
    task = n_triples <= DELTA_MAX_TRIPLES and 2 * n_triples <= CANON_DRIVER_MAX_MENTIONS
    timings["link_placement"], timings["link_triples"] = ("task" if task else "ray"), n_triples
    if task:
        fp = _link_fingerprint(shards, run_ts_us)
        n_mentions = ray.get(_link_task_remote.remote(out_dir, run_ts_us, fp))
        timings["canon_path"], timings["mentions_path"] = "driver", "task"
        timings["link_task"] = round(time.time() - t0, 2)
    else:
        fp, n_mentions = _ray_link(out_dir, run_ts_us, timings, t0, shards)
    _seal_link_tables(out_dir, _full_seal(out_dir, shards, fp), n_mentions)


def _ray_link(out_dir: str, run_ts_us: int, timings: dict, t0: float, shards: dict[str, dict]) -> tuple[str, int]:
    """The full route's Ray placement: Ray Data jobs over the triples.
    Returns the link fingerprint and the distinct-mention count; the
    caller seals the tables."""
    from ..stages.canonicalize import CANON_DRIVER_MAX_MENTIONS

    runs = {_run_of(d) for d in shards}
    cpus = int(ray.cluster_resources().get("CPU", 8))
    # prune at the read: drop the hive-partition 'shard' column and sent_idx
    # so the rewrite/dedup shuffles move only needed bytes
    triples = rd.read_parquet(
        os.path.join(out_dir, "triples"), override_num_blocks=2 * cpus, columns=TRIPLE_COLUMNS
    )
    distinct = distinct_mentions(triples).materialize()
    n_mentions = distinct.count()
    distributed = n_mentions > CANON_DRIVER_MAX_MENTIONS
    timings["canon_path"] = "distributed(auto)" if distributed else "driver"
    fp = _link_fingerprint(shards, run_ts_us) + (":distcanon" if distributed else "")
    strategy = _distributed_canon if distributed else _driver_canon
    nodes, dups, rewritten, hot, map_ref = strategy(triples, distinct, run_ts_us, timings, t0)
    t0 += timings["canonicalize"]  # edges_job runs from the end of canonicalization

    # MENTIONS placement. Per-shard is exact only within one run: each
    # episode's triples live in one shard file (contiguous-slice sharding,
    # one row per page, single-file atomic shard writes), but
    # episode_uuid = md5('ep:'+url) and the TS8 incremental-append model
    # lets a url recur across runs, in another run's shard file. A second
    # consumer of the broadcast `rewritten` re-executes stateless tasks
    # only, so it needs no materialize.
    troot = os.path.join(out_dir, "triples")
    if map_ref is not None and len(runs) <= 1:
        timings["mentions_path"] = "per-shard"
        men = mentions_edges_per_shard(troot, map_ref, run_ts_us)
    else:
        timings["mentions_path"] = "rewritten" if map_ref is None else "generic(multi-run)"
        men = mentions_edges(rewritten, run_ts_us)
    # nodes + D2 audit trail (IS_DUPLICATE_OF alias→canonical edges): both
    # routes write shard=0000, so a route flip in one out_dir replaces the
    # other route's output instead of landing beside it
    for table, rows in (("nodes", nodes), ("duplicate_edges", dups)):
        d = os.path.join(out_dir, table, "shard=0000")
        if isinstance(rows, pa.Table):
            gio.write_shard_atomic(rows, d, fp)
        else:
            gio.write_table_distributed(rows, d, fp)

    # edges job: rewritten → ONE fused shuffle for dedup-merge + temporal
    # invalidation (bucket key (group, pred, obj) co-locates both
    # groupings) → finalize → embed (stateless tasks: the trigram cache is
    # module-global per worker process) → distributed write
    swept = merge_and_invalidate(rewritten, force_salted=hot > SALT_THRESHOLD)
    final = finalize_edges(swept, run_ts_us).map_batches(
        Embedder("fact", "fact_embedding"), batch_format="pyarrow"
    )

    # The edges and MENTIONS jobs share no lineage beyond the broadcast map,
    # the stateless broadcast rewrite or the pinned `rewritten` blocks, so
    # they run CONCURRENTLY — each Dataset drives its own streaming
    # executor and Ray schedules both task pools over the cluster;
    # serializing them left whichever job ran second idle-waiting on the
    # driver for no reason.
    mention_err: list[BaseException] = []
    men_wall: list[float] = []
    t_men = time.time()

    def _run_mentions() -> None:
        try:
            gio.write_table_distributed(men, os.path.join(out_dir, "episodic_edges"), fp)
            men_wall.append(time.time() - t_men)
        except BaseException as e:  # noqa: BLE001 — re-raised on the driver below
            mention_err.append(e)

    men_thread = threading.Thread(target=_run_mentions, name="mentions-job", daemon=True)
    men_thread.start()
    gio.write_table_distributed(final, os.path.join(out_dir, "edges"), fp)
    timings["edges_job"] = round(time.time() - t0, 2)
    men_thread.join()
    if mention_err:
        raise mention_err[0]
    timings["mentions"] = round(men_wall[0], 2) if men_wall else 0.0
    return fp, n_mentions


def build_graph(
    pages_paths: list[str],
    out_dir: str,
    run_ts_us: int = DEFAULT_RUN_TS_US,
    num_shards: int | None = None,
    store_content: bool = True,
    input_etags: dict[str, str] | None = None,
    extractor_resources: dict | None = None,
    extractor_factory=None,
) -> dict:
    """Full pipeline: pages parquet → nodes/edges/episodes/episodic_edges.
    ``extractor_factory`` / ``extractor_resources`` plug a model-backed
    (e.g. GPU) extractor into the extract phase — see ``extract_phase``.
    The run report's ``timings`` name the extract work:
    ``extract_shards_run`` of ``extract_shards_total`` (the rest resumed)."""
    timings: dict = {}
    t0 = time.time()
    timings["extract_shards_run"], timings["extract_shards_total"] = extract_phase(
        pages_paths, out_dir, run_ts_us, num_shards,
        store_content=store_content, input_etags=input_etags,
        extractor_resources=extractor_resources, extractor_factory=extractor_factory,
    )
    timings["extract"] = round(time.time() - t0, 2)
    return link_and_edges_phase(out_dir, run_ts_us, timings)
