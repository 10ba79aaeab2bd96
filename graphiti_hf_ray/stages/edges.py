"""Edge pointer rewrite, dedup-upsert and bi-temporal invalidation
(SURVEY.md J2 + D3 + A3 + TS1-TS4) — shuffle #2.

- **Rewrite (J2)**: map triple endpoints through the canonical map
  (``resolve_edge_pointers``, bulk_utils.py:476-483). Small map → broadcast
  via ``ray.put`` once, dict lookup per batch inside ``map_batches`` (no
  shuffle). Large map → hash-join path (``rewrite_via_join``).
- **Dedup merge (D3/A3)**: ``groupby((group_id, src_uuid, pred, obj_uuid))``
  → one EntityEdge per canonical triple: ``valid_at = min`` over
  occurrences, ``fact`` from the earliest (valid_at, episode) occurrence,
  ``episodes`` = sorted union of provenance episode uuids (the reference's
  "keep existing, append episode uuid" upsert, edge_operations.py:468-475 +
  deduplicator.py:631-667, made order-independent and idempotent).
- **Invalidation (TS2-TS4)**: for *functional* predicates (one subject per
  object at a time, e.g. IS_CEO_OF), ``groupby((group_id, pred, obj_uuid))``
  and sweep in deterministic order (valid_at, then src_uuid): each edge's
  ``invalid_at`` = the next edge's ``valid_at`` ("more recent info wins",
  edge_operations.py:381-411 + 513-527), ``expired_at`` = run time
  (TS2, edge_operations.py:510-511). Non-functional predicates pass through
  untouched (non-overlapping facts are left alone).

Determinism: the sweep order (valid_at, src_uuid) is fixed so results are
reproducible under any partitioning (SURVEY.md §7.4).
"""

from __future__ import annotations

import functools
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray

from ..ids import md5_id, relation_uuid
from .canonicalize import SEP

def _registry_functional_preds() -> frozenset:
    from ..state.types import default_registry

    return default_registry().functional_predicates()


# Derived from the type registry (state/types.py) — an EdgeType registered
# with functional=True automatically gets the TS2-TS4 invalidation sweep;
# nothing is hardcoded here (r3 VERDICT #2). Sweep bodies read this module
# global so the set travels to workers with the function pickle.
FUNCTIONAL_PREDS = _registry_functional_preds()


class CanonicalRewrite:
    """map_batches stage: triples batch → endpoints rewritten to canonical
    (uuid, name). ``map_ref`` is a ``ray.put`` ObjectRef of the dict
    {(group, label, surface) key → (canon_name, canon_uuid)} — fetched once
    per worker (``rewrite_batch``), zero-copy from the local object store
    thereafter; a plain dict is used as is."""

    def __init__(self, map_ref):
        m = map_ref if isinstance(map_ref, dict) else ray.get(map_ref)
        self._names = {k: v[0] for k, v in m.items()}
        self._uuids = {k: v[1] for k, v in m.items()}

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # vectorized key build + two dict .map lookups (C speed); the
        # canonical map covers every mention the extractor emitted, so the
        # unmapped fallback only fires for out-of-run surfaces
        sep = pa.scalar(SEP)
        g = batch.column("group_id")
        skey = pc.binary_join_element_wise(g, batch.column("subj_label"), batch.column("subj_surface"), sep)
        okey = pc.binary_join_element_wise(g, batch.column("obj_label"), batch.column("obj_surface"), sep)
        names = self._names
        uuids = self._uuids
        sk = pd.Series(skey.to_pandas())
        ok = pd.Series(okey.to_pandas())
        src_n = sk.map(names)
        src_u = sk.map(uuids)
        dst_n = ok.map(names)
        dst_u = ok.map(uuids)
        miss_s = src_u.isna()
        miss_o = dst_u.isna()
        if miss_s.any():
            src_n[miss_s] = batch.column("subj_surface").to_pandas()[miss_s.values]
            src_u[miss_s] = [md5_id("ent:" + k.replace(SEP, ":")) for k in sk[miss_s]]
        if miss_o.any():
            dst_n[miss_o] = batch.column("obj_surface").to_pandas()[miss_o.values]
            dst_u[miss_o] = [md5_id("ent:" + k.replace(SEP, ":")) for k in ok[miss_o]]
        out = batch.drop_columns(["subj_surface", "obj_surface"])
        out = out.append_column("src_uuid", pa.array(src_u, pa.string()))
        out = out.append_column("src_name", pa.array(src_n, pa.string()))
        out = out.append_column("obj_uuid", pa.array(dst_u, pa.string()))
        out = out.append_column("obj_name", pa.array(dst_n, pa.string()))
        return out


# Per-worker rewrite memo: a ray.put dict deserializes on every ray.get in
# a task, so the stateless rewrite tasks keep one parsed CanonicalRewrite
# per worker process, keyed by the ObjectRef. The hot map stages stay plain
# TASKS (fully elastic, no actor-pool sizing) and build the O(vocabulary)
# dicts once per worker, like an actor __init__ would. One slot: the edges
# and MENTIONS jobs of a link phase share one map_ref.
_REWRITE_MEMO: dict[str, CanonicalRewrite] = {}


def rewrite_batch(batch: pa.Table, map_ref) -> pa.Table:
    """Task form of CanonicalRewrite over a ``ray.put`` map, memoized per
    worker process."""
    key = map_ref.hex()
    rw = _REWRITE_MEMO.get(key)
    if rw is None:
        _REWRITE_MEMO.clear()
        rw = _REWRITE_MEMO[key] = CanonicalRewrite(map_ref)
    return rw(batch)


def canon_map_dict(canon_map: pd.DataFrame) -> dict[str, tuple[str, str]]:
    return {
        f"{g}{SEP}{l}{SEP}{s}": (cn, cu)
        for g, l, s, cn, cu in zip(
            canon_map["group_id"], canon_map["label"], canon_map["surface"],
            canon_map["canon_name"], canon_map["canon_uuid"],
        )
    }


def rewrite_via_join(triples: "ray.data.Dataset", canon_ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Hash-join rewrite path for canonical maps too big to broadcast.

    Tags triples and map rows with the mention key and co-groups them with
    one ``bucketed_group_apply`` per endpoint — each bucket holds MANY keys
    and the per-bucket merge is one vectorized ``Series.map`` against the
    bucket's key→canon dictionary (the round-1 per-distinct-key
    ``groupby(key).map_groups`` — one Python call per mention key — is
    gone). Two shuffles, no driver materialization. Used when |map| ≳ 10⁷
    (SURVEY.md §7.4 "Canonical-map size")."""
    from .shuffle import bucketed_group_apply

    def tag_map(t: pa.Table) -> pa.Table:
        keys = pc.binary_join_element_wise(
            t.column("group_id").cast(pa.string()),
            t.column("label").cast(pa.string()),
            t.column("surface").cast(pa.string()),
            SEP,
        )
        return pa.table(
            {
                "key": keys,
                "canon_name": t.column("canon_name"),
                "canon_uuid": t.column("canon_uuid"),
            }
        )

    map_tagged = canon_ds.map_batches(tag_map, batch_format="pyarrow")

    def join_side(side: str):
        surf_col = f"{side}_surface"
        lab_col = f"{side}_label"

        def tag_triples(t: pa.Table) -> pa.Table:
            keys = pc.binary_join_element_wise(
                t.column("group_id").cast(pa.string()),
                t.column(lab_col).cast(pa.string()),
                t.column(surf_col).cast(pa.string()),
                SEP,
            )
            return t.append_column("key", keys).replace_schema_metadata(None)

        def merge_bucket(df: pd.DataFrame) -> pd.DataFrame:
            """One hash bucket of (triples ∪ map rows): vectorized lookup."""
            is_map = df["canon_uuid"].notna() if "canon_uuid" in df else pd.Series(False, index=df.index)
            m = df.loc[is_map].drop_duplicates("key").set_index("key")
            rows = df.loc[~is_map].drop(columns=["canon_name", "canon_uuid"], errors="ignore").copy()
            if rows.empty:
                return rows.drop(columns=["key"])
            rows[f"{side}_name"] = rows["key"].map(m["canon_name"]) if len(m) else pd.Series(np.nan, index=rows.index)
            rows[f"{side}_uuid"] = rows["key"].map(m["canon_uuid"]) if len(m) else pd.Series(np.nan, index=rows.index)
            miss = rows[f"{side}_uuid"].isna()
            if miss.any():
                rows.loc[miss, f"{side}_name"] = rows.loc[miss, surf_col]
                rows.loc[miss, f"{side}_uuid"] = [
                    md5_id(f"ent:{gi}:{l}:{s}")
                    for gi, l, s in zip(
                        rows.loc[miss, "group_id"], rows.loc[miss, lab_col], rows.loc[miss, surf_col]
                    )
                ]
            return rows.drop(columns=["key"])

        return tag_triples, merge_bucket

    out = triples
    for side in ("subj", "obj"):
        tag_triples, merge_bucket = join_side(side)
        tagged = out.map_batches(tag_triples, batch_format="pyarrow")
        combined = tagged.union(map_tagged)
        out = bucketed_group_apply(combined, ["key"], merge_bucket)
    ren = {"subj_uuid": "src_uuid", "subj_name": "src_name"}
    return out.map_batches(
        lambda t: t.rename_columns([ren.get(c, c) for c in t.column_names]).drop_columns(
            ["subj_surface", "obj_surface"]
        ),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# dedup merge + invalidation
# ---------------------------------------------------------------------------

def merge_edge_bucket(df: pd.DataFrame) -> pd.DataFrame:
    """Vectorized dedup-merge of one hash bucket of canonical triples:
    one EntityEdge per (group_id, src, pred, obj) — earliest occurrence
    wins fact/valid_at, episodes = sorted union."""
    keys = ["group_id", "src_uuid", "pred", "obj_uuid"]
    df = df.sort_values(["valid_at", "episode_uuid"], kind="mergesort")
    agg = df.groupby(keys, as_index=False, sort=False).agg(
        src_name=("src_name", "first"),
        obj_name=("obj_name", "first"),
        fact=("fact", "first"),
        valid_at=("valid_at", "first"),  # == min (pre-sorted)
        n_occurrences=("episode_uuid", "size"),
        # explicit creating episode = earliest (valid_at, episode_uuid)
        # occurrence — the reference keys deletion on episodes[0]
        # (graphiti.py:1097) which is insertion-ordered; ``episodes`` here
        # is a SORTED set, so removal must key on this column instead
        created_by=("episode_uuid", "first"),
        episodes=("episode_uuid", lambda s: ",".join(sorted(set(s)))),
    )
    agg["valid_at"] = agg["valid_at"].astype("datetime64[us]")
    va_us = agg["valid_at"].astype("int64")
    agg["uuid"] = [
        relation_uuid(g, s, p, o, int(v))
        for g, s, p, o, v in zip(agg["group_id"], agg["src_uuid"], agg["pred"], agg["obj_uuid"], va_us)
    ]
    out = agg.rename(
        columns={"src_uuid": "source_uuid", "obj_uuid": "target_uuid", "pred": "name",
                 "src_name": "source_name", "obj_name": "target_name"}
    )
    return out[
        ["uuid", "source_uuid", "source_name", "target_uuid", "target_name", "name", "fact",
         "group_id", "valid_at", "episodes", "created_by", "n_occurrences"]
    ]


def dedup_edges(rewritten: "ray.data.Dataset") -> "ray.data.Dataset":
    """Hash-bucketed groupby((group_id, src, pred, obj)) → merged edges
    (shuffle #2; vectorized per bucket — see stages/shuffle.py)."""
    from .shuffle import bucketed_group_apply

    return bucketed_group_apply(
        rewritten, ["group_id", "src_uuid", "pred", "obj_uuid"], merge_edge_bucket
    )


def combine_partial_edges_and_sweep(df: pd.DataFrame) -> pd.DataFrame:
    """Round-2 body of the SALTED merge path: the input rows are per-salt
    PARTIAL edges (``merge_edge_bucket`` output — already renamed columns),
    co-located here by (group_id, name, target_uuid). Combine the partials
    of each dedup key (min valid_at wins fact/created_by via the same
    (valid_at, earliest-episode) order the unsalted path uses; occurrence
    counts sum; episode sets union), recompute the uuid from the final
    valid_at, then run the functional-predicate sweep (TS3/TS4). Both merge
    paths of ``merge_and_invalidate`` end here."""
    keys = ["group_id", "source_uuid", "name", "target_uuid"]
    df = df.sort_values(["valid_at", "created_by"], kind="mergesort")
    agg = df.groupby(keys, as_index=False, sort=False).agg(
        source_name=("source_name", "first"),
        target_name=("target_name", "first"),
        fact=("fact", "first"),
        valid_at=("valid_at", "first"),  # == min (pre-sorted)
        n_occurrences=("n_occurrences", "sum"),
        created_by=("created_by", "first"),
        episodes=("episodes", lambda s: ",".join(sorted(set(",".join(s).split(","))))),
    )
    agg["valid_at"] = agg["valid_at"].astype("datetime64[us]")
    va_us = agg["valid_at"].astype("int64")
    agg["uuid"] = [
        relation_uuid(g, s, p, o, int(v))
        for g, s, p, o, v in zip(
            agg["group_id"], agg["source_uuid"], agg["name"], agg["target_uuid"], va_us
        )
    ]
    agg["invalid_at"] = pd.Series(pd.NaT, index=agg.index, dtype="datetime64[us]")
    fn_mask = agg["name"].isin(FUNCTIONAL_PREDS)
    if fn_mask.any():
        sub = agg.loc[fn_mask].sort_values(["valid_at", "source_uuid"], kind="mergesort")
        inv = sub.groupby(["group_id", "name", "target_uuid"], sort=False)["valid_at"].shift(-1)
        agg.loc[inv.index, "invalid_at"] = inv.astype("datetime64[us]")
    return agg[
        ["uuid", "source_uuid", "source_name", "target_uuid", "target_name", "name", "fact",
         "group_id", "valid_at", "episodes", "created_by", "n_occurrences", "invalid_at"]
    ]


def merge_and_invalidate(
    rewritten: "ray.data.Dataset",
    force_salted: bool = False,
    num_salts: int = 16,
) -> "ray.data.Dataset":
    """Single-shuffle replacement for dedup_edges → invalidate_functional:
    bucket by (group_id, pred, obj_uuid) and run both steps vectorized in
    the bucket.

    Skew: a hub OBJECT entity concentrates its bucket. Per-bucket work is
    vectorized pandas (O(rows) C-speed), so moderate hubs are fine; when a
    single (group, pred, obj) outgrows one task's memory the caller sets
    ``force_salted`` (the KG pipeline triggers it from the canonical map's
    per-entity mention counts — an upper bound it already holds, zero extra
    passes) and the merge runs TWO-ROUND: round 1 shuffles by the key plus
    a row-jitter salt and dedup-merges each salt's slice into partial edges
    (``merge_edge_bucket``); round 2 shuffles only the partials — at most
    ``num_salts`` rows per dedup key reach one task — and
    ``combine_partial_edges_and_sweep`` reduces them and applies the sweep.
    Both paths are row-identical (parity-tested)."""
    from .shuffle import bucketed_group_apply

    if not force_salted:
        # combiner round BEFORE the shuffle: each input batch partial-merges
        # its own rows (merge_edge_bucket — at most one partial row per
        # dedup key per batch), so the exchange ships partial EDGES, not
        # raw triples. A web corpus repeats the same fact across pages, so
        # this shrinks the all-to-all by the block-local duplication factor
        # (the single memory-bus exchange was the scaling limiter measured
        # in BASELINE.md round 4); it also caps a hub key's reduce-side
        # rows at the input block count. The reduce side reuses the salted
        # path's round-2 body — same associative algebra, parity-tested.
        def partial_batch(t: pa.Table) -> pa.Table:
            return pa.Table.from_pandas(merge_edge_bucket(t.to_pandas()), preserve_index=False)

        partials = rewritten.map_batches(partial_batch, batch_format="pyarrow")
        return bucketed_group_apply(
            partials, ["group_id", "name", "target_uuid"], combine_partial_edges_and_sweep
        )

    import numpy as np

    def add_salt(t: pa.Table) -> pa.Table:
        h = pd.util.hash_pandas_object(
            t.select(["group_id", "pred", "obj_uuid"]).to_pandas(), index=False
        )
        salt = ((h.values + np.arange(len(h), dtype=np.uint64)) % num_salts).astype("int32")
        return t.append_column("_salt", pa.array(salt, pa.int32())).replace_schema_metadata(None)

    salted = rewritten.map_batches(add_salt, batch_format="pyarrow")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return merge_edge_bucket(df.drop(columns=["_salt"]))

    partials = bucketed_group_apply(salted, ["group_id", "pred", "obj_uuid", "_salt"], partial)
    return bucketed_group_apply(
        partials, ["group_id", "name", "target_uuid"], combine_partial_edges_and_sweep
    )


def invalidate_bucket(df: pd.DataFrame) -> pd.DataFrame:
    """Temporal sweep within (group_id, pred, obj), vectorized per bucket:
    newer subject wins. Deterministic order (valid_at, source_uuid);
    invalid_at = next valid_at (TS3/TS4), expired_at set downstream (TS2)."""
    df = df.sort_values(["valid_at", "source_uuid"], kind="mergesort").reset_index(drop=True)
    df["invalid_at"] = (
        df.groupby(["group_id", "name", "target_uuid"], sort=False)["valid_at"].shift(-1).astype("datetime64[us]")
    )
    return df


def invalidate_functional(merged: "ray.data.Dataset", functional_preds=FUNCTIONAL_PREDS) -> "ray.data.Dataset":
    """Split functional predicates (sweep shuffle) from the passthrough —
    non-overlapping facts are left alone (edge_operations.py:381-411)."""
    from .shuffle import bucketed_group_apply

    fn = list(functional_preds)

    def is_fn(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.is_in(t.column("name"), value_set=pa.array(fn)))

    def not_fn(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        mask = pc.invert(pc.is_in(t.column("name"), value_set=pa.array(fn)))
        out = t.filter(mask)
        return out.append_column("invalid_at", pa.nulls(out.num_rows, pa.timestamp("us")))

    functional = merged.map_batches(is_fn, batch_format="pyarrow")
    passthrough = merged.map_batches(not_fn, batch_format="pyarrow")
    swept = bucketed_group_apply(functional, ["group_id", "name", "target_uuid"], invalidate_bucket)
    return swept.union(passthrough)


def finalize_edges_batch(t: pa.Table, run_ts_us: int) -> pa.Table:
    """Add created_at / expired_at / attributes, final column order."""
    n = t.num_rows
    created = pa.array([run_ts_us] * n, pa.timestamp("us"))
    inv = t.column("invalid_at") if "invalid_at" in t.column_names else pa.nulls(n, pa.timestamp("us"))
    inv = inv.combine_chunks() if isinstance(inv, pa.ChunkedArray) else inv
    inv = inv.cast(pa.timestamp("us"))
    expired = pc.if_else(pc.is_valid(inv), created, pa.nulls(n, pa.timestamp("us")))
    cols = {
        "uuid": t.column("uuid"),
        "source_uuid": t.column("source_uuid"),
        "source_name": t.column("source_name"),
        "target_uuid": t.column("target_uuid"),
        "target_name": t.column("target_name"),
        "name": t.column("name"),
        "fact": t.column("fact"),
        "group_id": t.column("group_id"),
        "created_at": created,
        "episodes": t.column("episodes"),
        "created_by": t.column("created_by"),
        "expired_at": expired,
        "valid_at": t.column("valid_at").combine_chunks().cast(pa.timestamp("us")) if isinstance(t.column("valid_at"), pa.ChunkedArray) else t.column("valid_at").cast(pa.timestamp("us")),
        "invalid_at": inv,
        "attributes": pa.array(["{}"] * n, pa.string()),
        "n_occurrences": t.column("n_occurrences"),
    }
    return pa.table(cols)


def finalize_edges(edges_ds: "ray.data.Dataset", run_ts_us: int) -> "ray.data.Dataset":
    """``finalize_edges_batch`` over every block."""
    return edges_ds.map_batches(
        functools.partial(finalize_edges_batch, run_ts_us=run_ts_us), batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# MENTIONS episodic edges (graphiti_core/utils/maintenance/edge_operations.py:48-65)
# ---------------------------------------------------------------------------

MENTIONS_SCHEMA = pa.schema(
    [
        ("uuid", pa.string()),
        ("group_id", pa.string()),
        ("source_node_uuid", pa.string()),
        ("target_node_uuid", pa.string()),
        ("created_at", pa.timestamp("us")),
    ]
)

def mentions_partial(batch: pa.Table) -> pa.Table:
    """Rewritten-triples batch → partial-distinct (episode, entity) pairs."""
    df = batch.select(["episode_uuid", "group_id", "src_uuid", "obj_uuid"]).to_pandas()
    a = df[["episode_uuid", "group_id", "src_uuid"]].rename(columns={"src_uuid": "entity_uuid"})
    b = df[["episode_uuid", "group_id", "obj_uuid"]].rename(columns={"obj_uuid": "entity_uuid"})
    both = pd.concat([a, b], ignore_index=True).drop_duplicates(["episode_uuid", "entity_uuid"])
    return pa.Table.from_pandas(both, preserve_index=False)


def _mentions_rows(pairs: pd.DataFrame, run_ts_us: int) -> pa.Table:
    """(episode_uuid, group_id, entity_uuid) pairs → MENTIONS rows, one per
    distinct (episode, entity), each with its deterministic edge uuid."""
    df = pairs.drop_duplicates(["episode_uuid", "entity_uuid"])
    n = len(df)
    return pa.table(
        {
            "uuid": pa.array(
                [md5_id(f"men:{e}:{n_}") for e, n_ in zip(df["episode_uuid"], df["entity_uuid"])],
                pa.string(),
            ),
            "group_id": pa.array(df["group_id"], pa.string()),
            "source_node_uuid": pa.array(df["episode_uuid"], pa.string()),
            "target_node_uuid": pa.array(df["entity_uuid"], pa.string()),
            "created_at": pa.array(np.full(n, run_ts_us, np.int64), pa.timestamp("us")),
        }
    )


def mentions_edges_per_shard(triples_root: str, map_ref, run_ts_us: int) -> "ray.data.Dataset":
    """MENTIONS episodic edges, per-shard placement: ZERO exchange, one task
    per shard file. Each task reads the 6 endpoint columns of its file,
    rewrites them through the broadcast map (``rewrite_batch``) and runs the
    MENTIONS kernel (``mentions_partial`` → ``_mentions_rows``) on the
    whole file.

    Partitioning assumption (relied on, documented): the extract phase
    assigns every page — and a page IS an episode — to exactly one shard
    (a page is one input row; shards are contiguous input slices,
    pipelines/kg.py extract_phase) and each shard directory holds ONE
    parquet file written in a single pq.write_table call
    (io.write_shard_atomic). All triples of an episode therefore sit in one
    file, so per-file dedup of (episode, entity) pairs is globally exact,
    and the exchange placement (``mentions_edges``) only ever removes
    duplicates that cannot span files (measured: 76 of 7.19M pairs at
    sf0.1×256 — all within-file, all caught here too). Parity-tested
    against the exchange placement.

    PRECONDITION (single-run, unique urls): episode_uuid = md5('ep:'+url)
    and shards are POSITIONAL input slices, so the invariant only holds
    when every url appears in at most one input row of ONE run — a url
    recurring in a second appended run (or twice in one input) lands in a
    different shard file and per-file dedup misses the pair. The caller
    (pipelines/kg.py link phase) enforces the single-run half: triples/
    holding shards from more than one run fingerprint routes to the
    exchange placement.

    Scale shape: embarrassingly parallel over shard files (parallelism =
    shard count), reads only the endpoint columns (the fact strings, most of
    the triple bytes, never leave storage) and emits final rows straight to
    the sink — at 100 TB this replaces the single most expensive shuffle of
    the default kg_build with a streaming map."""
    import glob as _glob

    import pyarrow.parquet as _pq

    import ray.data as rd

    files = sorted(
        p
        for p in _glob.glob(os.path.join(triples_root, "shard=*", "*.parquet"))
        if not os.path.basename(p).startswith(".") and "/.tmp-" not in p
    )
    if not files:
        return rd.from_arrow(MENTIONS_SCHEMA.empty_table())
    cols = ["episode_uuid", "group_id", "subj_surface", "subj_label", "obj_surface", "obj_label"]

    def per_file(batch: pa.Table) -> pa.Table:
        tables = [
            _mentions_rows(
                mentions_partial(rewrite_batch(_pq.read_table(path, columns=cols), map_ref)).to_pandas(),
                run_ts_us,
            )
            for path in batch.column("path").to_pylist()
        ]
        return pa.concat_tables(tables) if tables else MENTIONS_SCHEMA.empty_table()

    paths = rd.from_items([{"path": p} for p in files], override_num_blocks=max(1, len(files)))
    return paths.map_batches(per_file, batch_format="pyarrow", batch_size=1)


def mentions_edges(rewritten: "ray.data.Dataset", run_ts_us: int) -> "ray.data.Dataset":
    """MENTIONS episodic edges, exchange placement: the MENTIONS kernel
    behind one bucketed (episode, entity) exchange. Makes no layout
    assumption, so it serves every rewritten Dataset: the broadcast rewrite
    over a multi-run triples/ and the distributed route's join rewrite."""
    from .shuffle import bucketed_group_apply

    partial = rewritten.map_batches(mentions_partial, batch_format="pyarrow")
    emit = functools.partial(_mentions_rows, run_ts_us=run_ts_us)
    return bucketed_group_apply(partial, ["episode_uuid", "entity_uuid"], emit)
