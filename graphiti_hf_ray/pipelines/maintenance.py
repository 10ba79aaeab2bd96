"""Graph maintenance / secondary entry points (SURVEY.md §3.3, T1/T9,
TS6, J4, §2.2 M1).

- ``paginate_by_uuid``      — T9 cursor pagination (nodes.py:619-661,
  edges.py:424-476: ``uuid < cursor ORDER BY uuid DESC LIMIT n``).
- ``episode_window``        — M1 episode-window context: per group, the
  last ``EPISODE_WINDOW_LEN = 3`` prior episodes with valid_at <=
  reference time, chronological (graph_data_operations.py:31, 122-181).
- ``graph_snapshot``        — TS6 historical state reconstruction at t
  (temporal_manager.py:349-414): TS5 filter over edges + their nodes.
- ``build_duplicate_of_edges`` — D2 audit trail: IS_DUPLICATE_OF edges for
  every alias → canonical pair (edge_operations.py:68-91).
- ``filter_existing_duplicate_of`` — J4 anti-join: drop pairs already
  recorded (edge_operations.py:538-599) via broadcast key-set.
- ``remove_episode``        — graphiti.py:1087-1115: delete an episode,
  its MENTIONS edges, and any entity edge whose ONLY provenance is that
  episode (first element of ``episodes`` = creating episode).
- ``add_triplet``           — graphiti.py:1021-1085: direct single-triple
  insert through the same deterministic id / dedup-merge rules.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray

from ..ids import entity_uuid, md5_id, relation_uuid

EPISODE_WINDOW_LEN = 3  # graph_data_operations.py:31


def paginate_by_uuid(ds: "ray.data.Dataset", cursor: str | None, limit: int) -> pd.DataFrame:
    """uuid < cursor (or all when None), ORDER BY uuid DESC, LIMIT n."""
    if cursor is not None:
        cur = pa.scalar(cursor)

        def f(t: pa.Table) -> pa.Table:
            return t.filter(pc.less(t.column("uuid"), cur))

        ds = ds.map_batches(f, batch_format="pyarrow")
    return ds.sort("uuid", descending=True).limit(limit).to_pandas()


def episode_window(episodes: "ray.data.Dataset", window: int = EPISODE_WINDOW_LEN) -> "ray.data.Dataset":
    """Per (group_id), chronological by (valid_at, uuid): each episode's
    ``prev_uuids`` = up to ``window`` immediately-prior episode uuids —
    the bulk form of retrieve_previous_episodes (bulk_utils.py:75-90)."""
    from ..stages.shuffle import bucketed_group_apply

    def win(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["group_id", "valid_at", "uuid"], kind="mergesort").reset_index(drop=True)
        out_prev = []
        for gid, g in df.groupby("group_id", sort=False):
            us = g["uuid"].tolist()
            for i in range(len(us)):
                lo = max(0, i - window)
                out_prev.append(",".join(us[lo:i]))
        df["prev_uuids"] = out_prev
        df["n_prev"] = df["prev_uuids"].str.split(",").map(lambda xs: 0 if xs == [""] else len(xs))
        return df

    return bucketed_group_apply(episodes, ["group_id"], win)


def graph_snapshot(
    out_dir: str,
    t,
    edge_columns: list[str] | None = None,
    node_columns: list[str] | None = None,
) -> dict[str, pd.DataFrame]:
    """Point-in-time view of the graph: edges valid at t (TS5) + the nodes
    they touch. Filter-only — the bi-temporal columns ARE the index.
    Count-/id-only consumers should pass ``edge_columns``/``node_columns``
    so the read skips ``fact_embedding`` (most of the edges bytes)."""
    import ray.data as rd

    from ..functions.temporal import point_in_time

    if edge_columns is not None:
        edge_columns = sorted(
            set(edge_columns) | {"source_uuid", "target_uuid", "valid_at", "invalid_at"}
        )
    if node_columns is not None:
        node_columns = sorted(set(node_columns) | {"uuid"})
    edges = point_in_time(rd.read_parquet(f"{out_dir}/edges", columns=edge_columns), t).to_pandas()
    if edges.empty:
        # Ray's to_pandas drops the schema when every block filters to
        # empty — return well-formed empty frames
        nodes_cols = node_columns or rd.read_parquet(f"{out_dir}/nodes").schema().names
        edges_cols = edge_columns or rd.read_parquet(f"{out_dir}/edges").schema().names
        return {
            "edges": pd.DataFrame(columns=edges_cols),
            "nodes": pd.DataFrame(columns=nodes_cols),
        }
    keep = set(edges["source_uuid"]) | set(edges["target_uuid"])
    want = pa.array(sorted(keep))

    def f(tb: pa.Table) -> pa.Table:
        return tb.filter(pc.is_in(tb.column("uuid"), value_set=want))

    nodes = (
        rd.read_parquet(f"{out_dir}/nodes", columns=node_columns)
        .map_batches(f, batch_format="pyarrow")
        .to_pandas()
    )
    return {"edges": edges, "nodes": nodes}


def build_duplicate_of_edges(canon_map: pd.DataFrame, run_ts_us: int) -> pa.Table:
    """IS_DUPLICATE_OF audit edges: one per non-canonical alias surface →
    its canonical entity (edge_operations.py:68-91 semantics; alias-side
    uuid is the surface's would-be entity id)."""
    alias = canon_map[canon_map["surface"] != canon_map["canon_name"]]
    rows = alias.sort_values(["group_id", "label", "surface"], kind="mergesort")
    src = [entity_uuid(g, l, s) for g, l, s in zip(rows["group_id"], rows["label"], rows["surface"])]
    uuids = [md5_id(f"dup:{a}:{b}") for a, b in zip(src, rows["canon_uuid"])]
    n = len(rows)
    return pa.table(
        {
            "uuid": pa.array(uuids, pa.string()),
            "source_uuid": pa.array(src, pa.string()),
            "source_name": pa.array(rows["surface"].tolist(), pa.string()),
            "target_uuid": pa.array(rows["canon_uuid"].tolist(), pa.string()),
            "target_name": pa.array(rows["canon_name"].tolist(), pa.string()),
            "name": pa.array(["IS_DUPLICATE_OF"] * n, pa.string()),
            "group_id": pa.array(rows["group_id"].tolist(), pa.string()),
            "created_at": pa.array([run_ts_us] * n, pa.timestamp("us")),
        }
    )


def filter_existing_duplicate_of(new_pairs: "ray.data.Dataset", existing: pa.Table) -> "ray.data.Dataset":
    """J4 anti-join: drop (source_uuid, target_uuid) pairs already recorded
    as IS_DUPLICATE_OF. Existing key set is broadcast (semi/anti joins
    against a small side never shuffle — ray_guide 'Joins')."""
    keys = {
        f"{s}:{t}"
        for s, t in zip(existing.column("source_uuid").to_pylist(), existing.column("target_uuid").to_pylist())
    }
    kref = ray.put(keys)

    def f(t: pa.Table) -> pa.Table:
        ks = ray.get(kref)
        mask = [
            f"{s}:{d}" not in ks
            for s, d in zip(t.column("source_uuid").to_pylist(), t.column("target_uuid").to_pylist())
        ]
        return t.filter(pa.array(mask))

    return new_pairs.map_batches(f, batch_format="pyarrow")


def _filter_table_dir(root: str, pred) -> int:
    """Filter every parquet file under ``root`` through ``pred`` (table →
    keep mask), atomically (tmp + os.replace per file — a crash mid-loop
    leaves every file readable), then refresh affected shard manifests so
    job_metrics / resume logic see true row counts. Returns rows removed."""
    import os

    import pyarrow.parquet as pq

    from .. import io as gio

    n = 0
    touched_dirs = set()
    for p in gio.part_files(root):
        t = pq.read_table(p)
        keep = pred(t)
        # pc.sum of an empty mask is null, not 0 — a zero-row file
        # (e.g. left by a prior delete) must not crash the next one
        kept = pc.sum(pc.cast(keep, pa.int64())).as_py() or 0
        dropped = t.num_rows - kept
        if dropped:
            n += dropped
            gio.rewrite_file_atomic(t.filter(keep), p)
            touched_dirs.add(os.path.dirname(p))
    for d in touched_dirs:
        gio.refresh_manifest_rows(d)
    return n


def remove_episode(out_dir: str, episode_uuid_: str) -> dict[str, int]:
    """Delete an episode, its MENTIONS edges, entity edges it created
    (explicit ``created_by`` column = earliest-occurrence episode; the
    reference keys on insertion-ordered ``episodes[0]``, graphiti.py:1097,
    which a sorted provenance set cannot reproduce), and entity nodes
    mentioned by NO remaining episode (graphiti.py:1098-1108 orphan
    cleanup). Every file rewrite is tmp+rename atomic and shard manifests
    (with the episodes shards' url hashes) are refreshed; the link's url
    index is dropped first, so the next link is a full one. Driver-side loop —
    the graph tables post-dedup are vocabulary-sized; the distributed
    variant is a filtered re-write of each table directory through
    ``write_table_distributed``."""
    import os

    from .. import io as gio

    # orphan detection BEFORE mutating mentions: entities this episode
    # mentions that no other episode mentions
    men = gio.read_table_dir(out_dir, "episodic_edges")
    src = men.column("source_node_uuid").to_pylist()
    tgt = men.column("target_node_uuid").to_pylist()
    mine = {t for s, t in zip(src, tgt) if s == episode_uuid_}
    others = {t for s, t in zip(src, tgt) if s != episode_uuid_}
    orphans = mine - others

    # drop the url index before any log changes: a crash part-way must not
    # leave an index (and sealed totals) that still count the episode
    from .kg import invalidate_url_index

    invalidate_url_index(out_dir)
    removed = {}
    removed["episodes"] = _filter_table_dir(
        os.path.join(out_dir, "episodes"),
        lambda t: pc.not_equal(t.column("uuid"), pa.scalar(episode_uuid_)),
    )
    # the triples LOG too: the link phase re-derives MENTIONS/edges from
    # every manifested triples shard on the next incremental build, so a
    # victim left in the log RESURRECTS as dangling episodic_edges (and
    # re-created entity edges) the moment anything else is ingested
    removed["triples"] = _filter_table_dir(
        os.path.join(out_dir, "triples"),
        lambda t: pc.not_equal(t.column("episode_uuid"), pa.scalar(episode_uuid_)),
    )
    removed["episodic_edges"] = _filter_table_dir(
        os.path.join(out_dir, "episodic_edges"),
        lambda t: pc.not_equal(t.column("source_node_uuid"), pa.scalar(episode_uuid_)),
    )

    def edge_pred(t: pa.Table):
        if "created_by" in t.column_names:
            return pc.not_equal(t.column("created_by"), pa.scalar(episode_uuid_))
        # legacy tables without the explicit column: sorted-set first element
        eps = t.column("episodes").to_pylist()
        return pa.array([e.split(",")[0] != episode_uuid_ for e in eps])

    removed["edges"] = _filter_table_dir(os.path.join(out_dir, "edges"), edge_pred)

    if orphans:
        want = pa.array(sorted(orphans))
        removed["nodes"] = _filter_table_dir(
            os.path.join(out_dir, "nodes"),
            lambda t: pc.invert(pc.is_in(t.column("uuid"), value_set=want)),
        )
    else:
        removed["nodes"] = 0
    return removed


def add_triplet(
    out_dir: str,
    group_id: str,
    subj: tuple[str, str],
    pred: str,
    obj: tuple[str, str],
    fact: str,
    valid_at_us: int,
    run_ts_us: int,
) -> dict[str, str]:
    """Direct triple insert (graphiti.py:1021-1085) through the SAME
    deterministic id + merge rules: if the canonical triple already exists,
    this is an idempotent no-op on uuid level (episodes provenance merge is
    the bulk pipeline's job). subj/obj = (label, canonical_name)."""
    import os

    import pyarrow.parquet as pq

    su = entity_uuid(group_id, subj[0], subj[1])
    ou = entity_uuid(group_id, obj[0], obj[1])
    eu = relation_uuid(group_id, su, pred, ou, valid_at_us)
    from ..schemas import EMBED_DIM
    from ..stages.embed import embed_many

    emb = embed_many([fact])
    row = pa.table(
        {
            "uuid": pa.array([eu]),
            "source_uuid": pa.array([su]),
            "source_name": pa.array([subj[1]]),
            "target_uuid": pa.array([ou]),
            "target_name": pa.array([obj[1]]),
            "name": pa.array([pred]),
            "fact": pa.array([fact]),
            "group_id": pa.array([group_id]),
            "created_at": pa.array([run_ts_us], pa.timestamp("us")),
            "episodes": pa.array([""]),
            "created_by": pa.array([""]),  # direct insert — no episode provenance
            "expired_at": pa.nulls(1, pa.timestamp("us")),
            "valid_at": pa.array([valid_at_us], pa.timestamp("us")),
            "invalid_at": pa.nulls(1, pa.timestamp("us")),
            "attributes": pa.array(["{}"]),
            "n_occurrences": pa.array([1], pa.int64()),
            "fact_embedding": pa.FixedSizeListArray.from_arrays(pa.array(emb.ravel(), pa.float32()), EMBED_DIM),
        }
    )
    from .. import io as gio

    dest = os.path.join(out_dir, "edges", "triplets.parquet")
    if os.path.exists(dest):
        old = pq.read_table(dest)
        if eu in set(old.column("uuid").to_pylist()):
            return {"edge_uuid": eu, "status": "exists"}
        row = pa.concat_tables([old, row.cast(old.schema)])
    os.makedirs(os.path.dirname(dest), exist_ok=True)
    # tmp + os.replace (new inode): in-place truncation would corrupt the
    # same file hardlinked into _branches snapshots
    gio.rewrite_file_atomic(row, dest)
    return {"edge_uuid": eu, "status": "inserted"}
