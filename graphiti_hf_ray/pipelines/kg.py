"""End-to-end KG construction pipeline (SURVEY.md §3.2 / §7.2).

Ray-Data-first re-expression of ``Graphiti.add_episode_bulk``
(graphiti_core/graphiti.py:587-873): the reference's two dedup rounds
(intra-batch then vs-graph) collapse into ONE global canonicalization
shuffle per run plus an idempotent upsert (deterministic ids make re-merge
a no-op).

Phases (phase boundary = resume checkpoint):

  P1 extract  (shard-resumable): pages → extract_text [M11] → episodes [S3]
              → TripleExtractor actor pool [M2/M3] → per-shard Parquet +
              manifests. A killed run re-runs only missing shards.
  P2 link     (global): triples → canonicalize (blocking → pairs →
              components → canonical map) [D2/A1/A2] → nodes table.
  P3 edges    : rewrite pointers [J2] → dedup merge [D3/A3] → temporal
              invalidation [TS2-TS4] → fact embedding [M6] → edges table;
              MENTIONS episodic edges.
  P4 write    : final tables + job metrics manifest.

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

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data as rd

from .. import io as gio
from ..extract.html import extract_text_batch
from ..extract.triples import TripleExtractor
from ..stages.canonicalize import (
    build_nodes_table,
    canonicalize,
    canonicalize_distributed,
    distinct_mentions,
)
from ..stages.edges import (
    canon_map_dict,
    finalize_edges,
    mentions_edges,
    mentions_edges_from_triples,
    mentions_edges_per_shard,
    merge_and_invalidate,
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

# pages per extract chunk: bounds an extract task's heap (see extract_phase)
EXTRACT_CHUNK_ROWS = 16_384


def _pool_size() -> tuple[int, int]:
    """Actor-pool (min, max) that can never starve task stages: each pool
    may autoscale to at most a quarter of cluster CPUs (two pools + shuffle
    tasks + read tasks share the node)."""
    cpus = int(ray.cluster_resources().get("CPU", 4))
    return (1, max(1, cpus // 4))


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
        task = ray.remote(num_cpus=1)(_md5_file)
        digests = ray.get([task.remote(fp) for fp in files])
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
        task = ray.remote(num_cpus=0.25)(_read_rg_meta)
        metas = ray.get([task.remote(fp) for fp in files])
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


def extract_phase(
    pages_paths: list[str],
    out_dir: str,
    run_ts_us: int = DEFAULT_RUN_TS_US,
    num_shards: int | None = None,
    extractor_concurrency: int | None = None,
    store_content: bool = True,
    input_etags: dict[str, str] | None = None,
    extractor_resources: dict | None = None,
    extractor_factory=None,
) -> None:
    """P1: shard-resumable extraction with ZERO exchange. One shard = one
    deterministic contiguous input slice (``_slice_specs``); each shard
    task reads only its own row-group slices, runs html→text + episode
    build + triple extraction, and writes its two shard dirs atomically.
    The whole phase is an embarrassingly parallel map over shards — the
    previous design's groupby(shard) moved the entire page-text stream
    through an all-to-all just to co-locate shard rows, which at 100 TB is
    a corpus-sized shuffle bought for nothing (slices already ARE
    co-located). A page (= episode) is one row, so episode ⊂ shard file
    still holds — the invariant mentions_edges_per_shard documents.

    ``input_etags`` (path → content digest) skips reading input bytes for
    fingerprinting — pass object-store etags at scale.

    ``extractor_factory`` swaps the per-worker extractor (default
    ``TripleExtractor``): any zero-arg callable — a class like
    ``models.OpenAICompatExtractor`` or a closure binding its config —
    returning a batch callable with ``TripleExtractor``'s contract
    (episodes batch in, TRIPLES_SCHEMA rows out). It ships in the shard
    task's closure and builds ONCE per worker (``_worker_extractor``
    memo), so NER / OpenIE / LLM weights load once, not per shard.
    ``extractor_resources`` are per-shard-task Ray resource args passed
    straight to the extract ``map_batches`` (e.g. ``{"num_gpus": 1}`` or
    ``{"num_cpus": 2}``) — a GPU-backed extractor reserves its
    accelerator here, the same knob the embed/rerank stages document.
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
    # model (episodes/triples are an append-only log; link phase re-derives
    # the canonical graph from the union, idempotent via deterministic ids)
    def sdir(table: str, shard: int) -> str:
        return os.path.join(out_dir, table, f"shard={fp_run[:8]}-{shard:04d}")

    todo = [
        s for s in range(num_shards)
        if not (gio.manifest_matches(sdir("episodes", s), fps[s]) and gio.manifest_matches(sdir("triples", s), fps[s]))
    ]
    if not todo:
        return

    files = _input_files(pages_paths)
    specs = _slice_specs(files, num_shards)
    from ..schemas import EPISODES

    from ..extract.triples import TRIPLES_SCHEMA

    # read driver-side so the value ships in the shard task's closure
    chunk_rows = EXTRACT_CHUNK_ROWS
    # minted DRIVER-side so the same pinned factory keeps its worker-memo
    # key across build_graph calls (see _worker_extractor)
    extractor_key = _factory_key(extractor_factory)

    def extract_one_shard(batch: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        out_rows = []
        for shard, spec_json in zip(
            batch.column("shard").to_pylist(), batch.column("spec").to_pylist()
        ):
            pieces = json.loads(spec_json)
            # chunked streaming: the extracted episodes/triples go straight
            # to the incremental writers, so task heap is O(chunk + one
            # input row group), never O(shard) — a 10⁶-page shard costs the
            # same memory as a 10⁴-page one
            ep_w = gio.ShardWriter(sdir("episodes", shard), fps[shard], EPISODES)
            tr_w = gio.ShardWriter(sdir("triples", shard), fps[shard], TRIPLES_SCHEMA)
            try:
                for fp, rg, start, n in pieces:
                    rg_tab = pq.ParquetFile(fp).read_row_group(rg).slice(start, n)
                    for off in range(0, rg_tab.num_rows, chunk_rows):
                        pages = rg_tab.slice(off, chunk_rows)
                        ep = make_episode_batch(extract_text_batch(pages), run_ts_us)
                        ep = ep.select(EPISODES.names).cast(EPISODES)
                        tr = _worker_extractor(extractor_factory, extractor_key)(ep)
                        if not store_content:
                            # store_raw_episode_content=False parity
                            # (graphiti.py:137, 551-552): keep the episode
                            # row, drop the raw text payload
                            idx = ep.schema.get_field_index("content")
                            ep = ep.set_column(idx, "content", pa.array([""] * ep.num_rows, pa.string()))
                        ep_w.write(ep)
                        tr_w.write(tr)
            except BaseException:
                ep_w.abort()
                tr_w.abort()
                raise
            man_e = ep_w.close()
            man_t = tr_w.close()
            out_rows.append((shard, man_e["rows"], man_t["rows"]))
        return pa.table(
            {
                "shard": pa.array([r[0] for r in out_rows], pa.int32()),
                "episodes": pa.array([r[1] for r in out_rows], pa.int64()),
                "triples": pa.array([r[2] for r in out_rows], pa.int64()),
            }
        )

    items = [{"shard": s, "spec": json.dumps(specs[s])} for s in todo]
    stats = rd.from_items(items, override_num_blocks=len(items)).map_batches(
        extract_one_shard,
        batch_format="pyarrow",
        batch_size=1,
        **({"concurrency": extractor_concurrency} if extractor_concurrency else {}),
        **(extractor_resources or {}),
    )
    stats.materialize()  # execute


def _link_fingerprint(out_dir: str, run_ts_us: int) -> str:
    """Link-phase lineage fingerprint: the run ts AND the exact set of input
    triples shards (their manifests), so an incremental append of new shards
    invalidates and re-derives the global tables."""
    shard_fps = []
    troot = os.path.join(out_dir, "triples")
    for dirpath, _d, files in sorted(os.walk(troot)):
        if gio.MANIFEST in files:
            with open(os.path.join(dirpath, gio.MANIFEST)) as f:
                shard_fps.append(json.load(f).get("fingerprint", ""))
    return "run:" + str(run_ts_us) + ":" + hashlib.md5("|".join(sorted(shard_fps)).encode()).hexdigest()


def _driver_canon(
    triples: "rd.Dataset", distinct: "rd.Dataset", out_dir: str, run_ts_us: int, timings: dict, t0: float
):
    """Canonical map collected driver-side (vocabulary-sized) and broadcast
    via ``ray.put``: nodes and IS_DUPLICATE_OF edges are driver tables, the
    pointer rewrite is a lazy broadcast map."""
    canon_map = canonicalize(triples, mentions=distinct)
    timings["canonicalize"] = round(time.time() - t0, 2)
    map_ref = ray.put(canon_map_dict(canon_map))
    rewritten = triples.map_batches(
        functools.partial(rewrite_batch, map_ref=map_ref), batch_format="pyarrow"
    )
    hot = int(canon_map.groupby("canon_uuid")["n"].sum().max()) if len(canon_map) else 0

    # MENTIONS: zero-shuffle per-shard path — each episode's triples live
    # entirely in one shard file (contiguous-slice sharding, one row per
    # page + single-file atomic shard writes), so per-file dedup is globally
    # exact; only the 6 endpoint columns are read (the fact strings, most of
    # the triple bytes, never leave storage).
    #
    # The exactness invariant holds WITHIN one run (episode ⊂ one shard
    # file) but not across runs: episode_uuid = md5('ep:'+url), and the TS8
    # incremental-append model makes a url recurring across runs explicit.
    # When triples/ holds shards from more than one run fingerprint the
    # per-shard path would emit duplicate MENTIONS rows for shared urls, so
    # the route falls back to the generic dedup-shuffle path.
    troot = os.path.join(out_dir, "triples")
    run_fps = {
        d.split("shard=", 1)[1].split("-", 1)[0] for d in os.listdir(troot) if d.startswith("shard=")
    }
    if len(run_fps) <= 1:
        timings["mentions_path"] = "per-shard"
        men = mentions_edges_per_shard(troot, map_ref, run_ts_us)
    else:
        timings["mentions_path"] = "generic(multi-run)"
        men = mentions_edges_from_triples(triples, map_ref, run_ts_us)
    return (
        build_nodes_table(canon_map, run_ts_us),
        build_duplicate_of_edges(canon_map, run_ts_us),
        rewritten, hot, men,
    )


def _distributed_canon(
    triples: "rd.Dataset", distinct: "rd.Dataset", out_dir: str, run_ts_us: int, timings: dict, t0: float
):
    """Zero driver materialization: the canonical map stays a Dataset, the
    same node and IS_DUPLICATE_OF builders run per canon_uuid bucket and
    per batch, and the pointer rewrite is a hash join. The only driver-side
    values are counts and manifests."""
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
    timings["mentions_path"] = "rewritten"
    return nodes, dups, rewritten, hot, mentions_edges(rewritten, run_ts_us)


def link_and_edges_phase(
    out_dir: str,
    run_ts_us: int = DEFAULT_RUN_TS_US,
    timings: dict | None = None,
) -> dict:
    """P2+P3: global canonicalization + edge build from extracted shards.

    One skeleton whose only branch is the canonical-map strategy. The
    distinct-mentions dataset is materialized once (it feeds whichever
    strategy runs, so the gate costs no extra shuffle) and a streaming
    ``count()`` on it picks the route: above ``CANON_DRIVER_MAX_MENTIONS``
    the distributed strategy (``_distributed_canon``) keeps the map a
    Dataset; below it the driver broadcast strategy (``_driver_canon``,
    faster in the vocabulary-sized regime) runs. Both write the same rows
    with the same schemas. ``timings`` names the routes taken:
    ``canon_path`` and ``mentions_path``."""
    from ..stages.canonicalize import CANON_DRIVER_MAX_MENTIONS

    timings = timings if timings is not None else {}
    t0 = time.time()
    cpus = int(ray.cluster_resources().get("CPU", 8))
    # prune at the read: drop the hive-partition 'shard' column and sent_idx
    # so the rewrite/dedup shuffles move only needed bytes
    triples = rd.read_parquet(
        os.path.join(out_dir, "triples"),
        override_num_blocks=2 * cpus,
        columns=[
            "episode_uuid", "group_id", "valid_at", "subj_surface", "subj_label",
            "pred", "obj_surface", "obj_label", "fact",
        ],
    )
    distinct = distinct_mentions(triples).materialize()
    distributed = distinct.count() > CANON_DRIVER_MAX_MENTIONS
    timings["canon_path"] = "distributed(auto)" if distributed else "driver"
    fp = _link_fingerprint(out_dir, run_ts_us) + (":distcanon" if distributed else "")
    strategy = _distributed_canon if distributed else _driver_canon
    nodes, dups, rewritten, hot, men = strategy(triples, distinct, out_dir, run_ts_us, timings, t0)
    t0 += timings["canonicalize"]  # edges_job runs from the end of canonicalization

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

    # The edges and MENTIONS jobs share no lineage beyond the broadcast map
    # or the pinned `rewritten` blocks, so they run CONCURRENTLY — each
    # Dataset drives its own streaming executor and Ray schedules both task
    # pools over the cluster; serializing them left whichever job ran
    # second idle-waiting on the driver for no reason.
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

    metrics = gio.job_metrics(out_dir)
    metrics["timings"] = dict(timings)
    with open(os.path.join(out_dir, "_job_metrics.json"), "w") as f:
        json.dump(metrics, f, indent=2)
    return metrics


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
    (e.g. GPU) extractor into the extract phase — see ``extract_phase``."""
    timings: dict = {}
    t0 = time.time()
    extract_phase(
        pages_paths, out_dir, run_ts_us, num_shards,
        store_content=store_content, input_etags=input_etags,
        extractor_resources=extractor_resources, extractor_factory=extractor_factory,
    )
    timings["extract"] = round(time.time() - t0, 2)
    return link_and_edges_phase(out_dir, run_ts_us, timings)
