"""Entity canonicalization (SURVEY.md D2 + A1 + A2) — shuffle #1.

Replaces the reference's per-record "search the graph for candidates → LLM
adjudication" pattern (node_operations.py:184-292, bulk_utils.py:251-335)
with one global canonicalization shuffle:

1. **distinct mentions** — two-level aggregation: per-batch partial distinct
   + count inside ``map_batches`` (combiner), then ``groupby`` merge, so a
   hub entity appearing on 30% of pages contributes ONE row per input block
   to the shuffle, not one row per occurrence (salted pre-aggregation for
   head-key skew, SURVEY.md §4).
2. **blocking** — each distinct mention emits candidate block keys (first
   and last normalized token), the scalable equivalent of the reference's
   word-overlap blocking (bulk_utils.py:266-294).
3. **pairwise scoring** — ``groupby(block_key).map_groups``: within each
   block, mark duplicate pairs by deterministic token-subset / initial
   matching, falling back to hash-embedding cosine ≥ 0.8 (the reference's
   node threshold, bulk_utils.py:258). Per-block candidate cap with logged
   drops — no silent truncation.
4. **connected components** — union-find with lexicographic-min roots
   (mirrors ``compress_uuid_map``, bulk_utils.py:433-470) on the driver when
   the pair set is small (pairs ≪ rows); ``connected_components_distributed``
   (hash-min label propagation over Datasets) is the scale path.
5. **canonical merge** — canonical name per component = longest name, tie →
   lexicographically smallest (so "Ada Lovelace" wins over "A. Lovelace" /
   "Lovelace"); EntityNode rows built with deterministic uuids
   (``ids.entity_uuid``) and merged labels (deduplicator.py:599-629 merge
   rules: union of labels, min created_at).
"""

from __future__ import annotations

import logging
from typing import Iterable

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from ..ids import entity_uuid, md5_id
from ..schemas import EMBED_DIM
from .embed import embed_many

logger = logging.getLogger(__name__)

SEP = "\x1f"
MAX_BLOCK_NAMES = 512  # per-block candidate cap (log drops; SURVEY.md §7.4)
NODE_COS_THRESHOLD = 0.8  # bulk_utils.py:258
# Path-switch thresholds (tests monkeypatch them to force the scale paths).
DRIVER_CC_MAX_PAIRS = 5_000_000
DRIVER_PAIRS_MAX_MENTIONS = 200_000
# Above this distinct-mention count the PIPELINE auto-routes to
# canonicalize_distributed (zero driver materialization) — the default path
# below collects the vocabulary-sized mention set driver-side, which at an
# open web vocabulary would OOM the driver without this gate (pipelines/kg.py
# counts the mentions dataset and switches).
CANON_DRIVER_MAX_MENTIONS = 5_000_000


def mention_key(group_id: str, label: str, surface: str) -> str:
    return f"{group_id}{SEP}{label}{SEP}{surface}"


def norm_tokens(name: str) -> list[str]:
    return [t.rstrip(".").lower() for t in name.split() if t.rstrip(".")]


def _tok_match(a: str, b: str) -> bool:
    """Token equality, initial-aware in BOTH directions ("a" ~ "ada")."""
    return a == b or (len(a) == 1 and b.startswith(a)) or (len(b) == 1 and a.startswith(b))


def _subset_match(a_toks: list[str], b_toks: list[str]) -> bool:
    """True if b (shorter or equal) matches a in order, allowing initials."""
    it = iter(a_toks)
    for b in b_toks:
        for a in it:
            if _tok_match(a, b):
                break
        else:
            return False
    return True


def names_duplicate(a: str, b: str, emb_a: np.ndarray | None = None, emb_b: np.ndarray | None = None) -> bool:
    ta, tb = norm_tokens(a), norm_tokens(b)
    if len(ta) < len(tb):
        ta, tb = tb, ta
    if _subset_match(ta, tb):
        return True
    if emb_a is not None and emb_b is not None:
        return float(np.dot(emb_a, emb_b)) >= NODE_COS_THRESHOLD
    return False


# ---------------------------------------------------------------------------
# stage 1: distinct mentions with counts (combiner + groupby)
# ---------------------------------------------------------------------------

def partial_distinct_mentions(batch: pa.Table) -> pa.Table:
    """Per-batch combiner: triples batch → one row per distinct mention."""
    df = batch.select(["group_id", "subj_label", "subj_surface"]).to_pandas()
    df.columns = ["group_id", "label", "surface"]
    df2 = batch.select(["group_id", "obj_label", "obj_surface"]).to_pandas()
    df2.columns = ["group_id", "label", "surface"]
    both = pd.concat([df, df2], ignore_index=True)
    agg = both.groupby(["group_id", "label", "surface"], as_index=False).size()
    agg = agg.rename(columns={"size": "n"})
    return pa.Table.from_pandas(agg, preserve_index=False)


def distinct_mentions(triples: "ray.data.Dataset") -> "ray.data.Dataset":
    """Two-level distinct+count: per-batch combiner above, then a bucketed
    vectorized merge — a hub entity ships one row per input block."""
    from .shuffle import bucketed_group_apply

    partial = triples.map_batches(partial_distinct_mentions, batch_format="pyarrow")

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["group_id", "label", "surface"], as_index=False, sort=False)["n"].sum()

    return bucketed_group_apply(partial, ["group_id", "label", "surface"], merge)


# ---------------------------------------------------------------------------
# stage 2+3: blocking keys + per-block pairwise scoring
# ---------------------------------------------------------------------------

def blocking_keys_batch(batch: pa.Table) -> pa.Table:
    """Distinct-mentions batch → (block_key, group_id, label, surface, n)."""
    rows = batch.to_pandas()
    bk, gid, lab, surf, cnt = [], [], [], [], []
    for g, l, s, n in zip(rows["group_id"], rows["label"], rows["surface"], rows["n"]):
        toks = norm_tokens(s)
        if not toks:
            continue
        # block on EVERY normalized token (not just first/last): alias
        # variants may surface any token ("Pied Piper Software" ~ "Piper").
        # Distinct-mention cardinality is vocabulary-sized, so the fan-out
        # is cheap; pairs found in multiple blocks dedupe in the union-find.
        for k in set(toks):
            bk.append(f"{g}{SEP}{l}{SEP}{k}")
            gid.append(g)
            lab.append(l)
            surf.append(s)
            cnt.append(int(n))
    return pa.table(
        {
            "block_key": pa.array(bk, pa.string()),
            "group_id": pa.array(gid, pa.string()),
            "label": pa.array(lab, pa.string()),
            "surface": pa.array(surf, pa.string()),
            "n": pa.array(cnt, pa.int64()),
        }
    )


def pairs_in_block(g: pd.DataFrame) -> pd.DataFrame:
    """Within one block: score all pairs, emit duplicate (a, b) key pairs."""
    g = g.drop_duplicates("surface")
    if len(g) > MAX_BLOCK_NAMES:
        logger.warning(
            "block %s: %d names > cap %d; scoring top by count (dropped %d)",
            g["block_key"].iloc[0], len(g), MAX_BLOCK_NAMES, len(g) - MAX_BLOCK_NAMES,
        )
        g = g.sort_values(["n", "surface"], ascending=[False, True]).head(MAX_BLOCK_NAMES)
    if len(g) < 2:
        return pd.DataFrame({"a": [], "b": []}, dtype=str)
    names = sorted(g["surface"].tolist())
    embs = embed_many(names)
    gid, lab = g["group_id"].iloc[0], g["label"].iloc[0]
    a_out, b_out = [], []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            if names_duplicate(names[i], names[j], embs[i], embs[j]):
                a_out.append(mention_key(gid, lab, names[i]))
                b_out.append(mention_key(gid, lab, names[j]))
    return pd.DataFrame({"a": a_out, "b": b_out}, dtype=str)


def duplicate_pairs(mentions: "ray.data.Dataset", num_buckets: int | None = None) -> "ray.data.Dataset":
    from .shuffle import bucketed_group_apply

    blocked = mentions.map_batches(blocking_keys_batch, batch_format="pyarrow")

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        outs = [pairs_in_block(g) for _, g in df.groupby("block_key", sort=False)]
        if not outs:
            return pd.DataFrame({"a": pd.Series([], dtype=str), "b": pd.Series([], dtype=str)})
        return pd.concat(outs, ignore_index=True)

    return bucketed_group_apply(blocked, ["block_key"], per_bucket, num_buckets=num_buckets)


# ---------------------------------------------------------------------------
# stage 4: connected components
# ---------------------------------------------------------------------------

class UnionFind:
    """Lexicographic-min-root union-find (mirrors bulk_utils.py:444-452
    semantics: every member maps to the smallest key in its set)."""

    def __init__(self):
        self.parent: dict[str, str] = {}

    def find(self, x: str) -> str:
        p = self.parent.setdefault(x, x)
        if p != x:
            self.parent[x] = p = self.find(p)
        return p

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        lo, hi = (ra, rb) if ra < rb else (rb, ra)
        self.parent[hi] = lo


def components_driver(pairs: Iterable[tuple[str, str]]) -> dict[str, str]:
    uf = UnionFind()
    for a, b in pairs:
        uf.union(a, b)
    return {k: uf.find(k) for k in list(uf.parent)}


def connected_components_distributed(
    pairs_ds: "ray.data.Dataset", max_iter: int = 50, num_buckets: int | None = None
) -> "ray.data.Dataset":
    """Hash-min label propagation over Datasets (scale path for A1).

    pairs_ds: columns (a, b). Returns (node, root) with root = the
    lexicographically smallest key reachable — identical to
    ``components_driver`` output.

    Shuffle shape (the round-1 per-key ``groupby(node).map_groups`` — one
    Python call per node — is gone): every step is a ``bucketed_group_apply``
    whose body is vectorized pandas over a whole hash bucket, so a graph of
    millions of nodes costs O(buckets) Python calls per round, not O(nodes).
    Per iteration: one co-grouped propagate shuffle (labels ∪ edges on the
    node key) + one min-reduce shuffle; converges in O(diameter) rounds with
    a cheap per-block label-hash partial for the stop test.
    """
    from .shuffle import bucketed_group_apply

    edges = pairs_ds.map_batches(
        lambda t: pa.table(
            {
                "key": pa.concat_arrays([t.column("a").combine_chunks().cast(pa.string()), t.column("b").combine_chunks().cast(pa.string())]),
                "val": pa.concat_arrays([t.column("b").combine_chunks().cast(pa.string()), t.column("a").combine_chunks().cast(pa.string())]),
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    # labels: node → current min label (init: itself), one row per node
    labels = bucketed_group_apply(
        edges.map_batches(
            lambda t: pa.table({"node": t.column("key"), "label": t.column("key")}),
            batch_format="pyarrow",
        ),
        ["node"],
        lambda df: df.drop_duplicates("node"),
        num_buckets=num_buckets,
    ).materialize()

    def _label_fingerprint(ds: "ray.data.Dataset") -> int:
        """Order-independent label multiset hash: vectorized row-hash per
        block, summed driver-side over tiny per-block partials."""

        def partial(t: pa.Table) -> pa.Table:
            h = pd.util.hash_pandas_object(
                t.select(["node", "label"]).to_pandas(), index=False
            )
            return pa.table({"s": pa.array([int(h.sum() % (1 << 61))], pa.int64())})

        return sum(r["s"] for r in ds.map_batches(partial, batch_format="pyarrow").take_all()) % (1 << 61)

    def tag_labels(t: pa.Table) -> pa.Table:
        return pa.table(
            {"key": t.column("node"), "val": t.column("label"),
             "is_label": pa.array([True] * t.num_rows)}
        )

    def tag_edges(t: pa.Table) -> pa.Table:
        return t.append_column("is_label", pa.array([False] * t.num_rows)).replace_schema_metadata(None)

    def propagate(df: pd.DataFrame) -> pd.DataFrame:
        """One hash bucket of (labels ∪ edges) co-grouped on the node key:
        push each node's current label to all neighbours + itself."""
        is_lab = df["is_label"].fillna(False).astype(bool)
        lab = df.loc[is_lab].drop_duplicates("key").set_index("key")["val"]
        e = df.loc[~is_lab]
        pushed = pd.DataFrame({"node": e["val"].values, "label": e["key"].map(lab).values})
        self_rows = pd.DataFrame({"node": lab.index, "label": lab.values})
        out = pd.concat([pushed, self_rows], ignore_index=True)
        return out.dropna(subset=["label"])

    def take_min(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("node", as_index=False, sort=False)["label"].min()

    old_fp = _label_fingerprint(labels)
    for _ in range(max_iter):
        combined = labels.map_batches(tag_labels, batch_format="pyarrow").union(
            edges.map_batches(tag_edges, batch_format="pyarrow")
        )
        candidates = bucketed_group_apply(combined, ["key"], propagate, num_buckets=num_buckets)
        new_labels = bucketed_group_apply(candidates, ["node"], take_min, num_buckets=num_buckets).materialize()
        new_fp = _label_fingerprint(new_labels)
        labels = new_labels
        if new_fp == old_fp:
            break
        old_fp = new_fp
    return labels.map_batches(
        lambda t: pa.table({"node": t.column("node"), "root": t.column("label")}), batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# stage 5: canonical selection + node build
# ---------------------------------------------------------------------------

def build_canonical_map(
    mentions_df: pd.DataFrame, node_to_root: dict[str, str]
) -> pd.DataFrame:
    """All distinct mentions + component roots → canonical map.

    Returns columns (group_id, label, surface, canon_name, canon_uuid).
    Canonical name per component: longest surface, tie → lexicographic min.
    Singletons (no duplicate pair) are their own canonical.
    """
    keys = [mention_key(g, l, s) for g, l, s in zip(mentions_df["group_id"], mentions_df["label"], mentions_df["surface"])]
    roots = [node_to_root.get(k, k) for k in keys]
    df = mentions_df.copy()
    df["root"] = roots
    # canonical surface per root
    def pick(g: pd.DataFrame) -> str:
        s = sorted(g["surface"].tolist(), key=lambda x: (-len(x), x))
        return s[0]

    canon = df.groupby("root").apply(pick, include_groups=False).rename("canon_name").reset_index()
    df = df.merge(canon, on="root", how="left")
    df["canon_uuid"] = [
        entity_uuid(g, l, c) for g, l, c in zip(df["group_id"], df["label"], df["canon_name"])
    ]
    return df[["group_id", "label", "surface", "canon_name", "canon_uuid", "n"]]


def canonicalize(
    triples: "ray.data.Dataset", mentions: "ray.data.Dataset | None" = None
) -> pd.DataFrame:
    """Full canonicalization: triples Dataset → canonical map DataFrame.

    The distinct-mention set is orders of magnitude smaller than the triple
    stream (vocabulary vs corpus), so the map is collected driver-side and
    broadcast via ``ray.put`` for the edge-rewrite join (J2). When the map
    outgrows broadcast (~10⁷ entities), the rewrite switches to the
    hash-join path (stages/edges.py, ``rewrite_via_join``).

    ``mentions``: optional precomputed ``distinct_mentions(triples)`` — the
    pipeline materializes it once for the auto-gate count
    (``CANON_DRIVER_MAX_MENTIONS``) and passes it here so the gate costs no
    second mention shuffle.
    """
    return canonical_map((mentions if mentions is not None else distinct_mentions(triples)).to_pandas())


def canonical_map(mentions_df: pd.DataFrame) -> pd.DataFrame:
    """Distinct mentions (group_id, label, surface, n) → canonical map: the
    body of ``canonicalize`` once the mentions are on the driver."""
    if mentions_df.empty:
        # a corpus whose extraction found NO entity mentions is a valid
        # (if useless) input — an empty pandas frame loses its column
        # names, so return the typed empty map instead of crashing the
        # blocking kernel on a missing 'group_id'
        return pd.DataFrame(
            {c: pd.Series([], dtype=object) for c in
             ("group_id", "label", "surface", "canon_name", "canon_uuid")}
            | {"n": pd.Series([], dtype="int64")}
        )
    if len(mentions_df) <= DRIVER_PAIRS_MAX_MENTIONS:
        # vocabulary-sized distinct-mention set: run blocking + pairwise
        # scoring driver-side with the SAME kernels (no extra Ray job)
        bk = blocking_keys_batch(pa.Table.from_pandas(mentions_df, preserve_index=False)).to_pandas()
        outs = [pairs_in_block(g) for _, g in bk.groupby("block_key", sort=False)]
        pairs_df = (
            pd.concat(outs, ignore_index=True).drop_duplicates()
            if outs
            else pd.DataFrame({"a": [], "b": []}, dtype=str)
        )
    else:
        import ray.data as rd

        mentions = rd.from_pandas(mentions_df)
        pairs_ds = duplicate_pairs(mentions)
        pairs_df = pairs_ds.to_pandas()
        if len(pairs_df) > DRIVER_CC_MAX_PAIRS:
            cc = connected_components_distributed(pairs_ds).to_pandas()
            node_to_root = dict(zip(cc["node"], cc["root"]))
            return build_canonical_map(mentions_df, node_to_root)
    node_to_root = components_driver(zip(pairs_df["a"], pairs_df["b"]))
    return build_canonical_map(mentions_df, node_to_root)


def canonicalize_distributed(
    triples: "ray.data.Dataset", mentions: "ray.data.Dataset | None" = None
) -> "ray.data.Dataset":
    """Fully-distributed canonicalization: triples Dataset → canonical-map
    Dataset with the SAME rows as ``canonicalize`` (parity-tested), but no
    driver materialization at ANY size — the path for corpora whose
    distinct-mention set outgrows the driver (beyond the vocabulary-sized
    regime the default path assumes). The pipeline auto-routes here when the
    mention count exceeds ``CANON_DRIVER_MAX_MENTIONS`` (pipelines/kg.py).

    Shuffle chain: distinct mentions (1) → blocking pairs (1) →
    distributed CC (O(diameter)) → mention⋈root co-group (1) → per-root
    canonical pick (1) → root⋈canon join (1). Every step is a
    ``bucketed_group_apply`` with a vectorized bucket body."""
    from .shuffle import bucketed_group_apply, default_num_buckets

    if mentions is None:
        mentions = distinct_mentions(triples)
    # mentions is consumed twice (pair generation AND the root-attach
    # co-group) — pin it so the full-stream distinct shuffle runs once
    mentions = mentions.materialize()
    # The rest of the chain is vocabulary-sized (distinct mentions), not
    # corpus-sized: size the shuffle width to the data so the CC loop's
    # per-round sorts don't pay 4×cpus partitions of fixed cost for a
    # mention set that fits in a handful of blocks.
    n_mentions = mentions.count()
    nb = min(default_num_buckets(), max(8, n_mentions // 50_000 + 1))
    pairs_ds = duplicate_pairs(mentions, num_buckets=nb)
    cc = connected_components_distributed(pairs_ds, num_buckets=nb)

    # 1) attach component roots: co-group mention rows with (node, root)
    #    rows on the mention key; mentions without a pair keep themselves
    def tag_mentions(t: pa.Table) -> pa.Table:
        keys = [
            mention_key(g, l, s)
            for g, l, s in zip(
                t.column("group_id").to_pylist(), t.column("label").to_pylist(), t.column("surface").to_pylist()
            )
        ]
        return t.append_column("key", pa.array(keys, pa.string())).replace_schema_metadata(None)

    def tag_cc(t: pa.Table) -> pa.Table:
        return pa.table({"key": t.column("node"), "_root": t.column("root")})

    def attach_root(df: pd.DataFrame) -> pd.DataFrame:
        # A bucket's block may carry only one side of the union (all-mention
        # or all-CC rows) — the absent column must be null-filled, not indexed.
        if "_root" not in df.columns:
            df = df.assign(_root=pd.Series(pd.NA, index=df.index, dtype="object"))
        is_cc = df["_root"].notna()
        m = df.loc[is_cc].drop_duplicates("key").set_index("key")["_root"]
        rows = df.loc[~is_cc].drop(columns=["_root"], errors="ignore").copy()
        if rows.empty:
            return rows.drop(columns=["key"], errors="ignore")
        rows["root"] = rows["key"].map(m).fillna(rows["key"])
        return rows.drop(columns=["key"])

    with_root = bucketed_group_apply(
        mentions.map_batches(tag_mentions, batch_format="pyarrow").union(
            cc.map_batches(tag_cc, batch_format="pyarrow")
        ),
        ["key"], attach_root, num_buckets=nb,
    ).materialize()  # consumed by pick_canon AND the final attach co-group

    # 2) canonical surface per root: longest, tie → lexicographic min
    def pick_canon(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(_len=df["surface"].str.len())
        df = df.sort_values(["root", "_len", "surface"], ascending=[True, False, True], kind="mergesort")
        first = df.drop_duplicates("root")
        return pd.DataFrame({"root": first["root"], "_canon": first["surface"]})

    canon_per_root = bucketed_group_apply(
        with_root.map_batches(
            lambda t: t.select(["root", "surface"]).replace_schema_metadata(None), batch_format="pyarrow"
        ),
        ["root"], pick_canon, num_buckets=nb,
    )

    # 3) join canonical names back and derive uuids per row
    def attach_canon(df: pd.DataFrame) -> pd.DataFrame:
        if "_canon" not in df.columns:
            df = df.assign(_canon=pd.Series(pd.NA, index=df.index, dtype="object"))
        is_c = df["_canon"].notna()
        m = df.loc[is_c].drop_duplicates("root").set_index("root")["_canon"]
        rows = df.loc[~is_c].drop(columns=["_canon"], errors="ignore").copy()
        if rows.empty:
            return rows.drop(columns=["root"], errors="ignore")
        rows["canon_name"] = rows["root"].map(m)
        rows["canon_uuid"] = [
            entity_uuid(g, l, c)
            for g, l, c in zip(rows["group_id"], rows["label"], rows["canon_name"])
        ]
        return rows[["group_id", "label", "surface", "canon_name", "canon_uuid", "n"]]

    return bucketed_group_apply(with_root.union(canon_per_root), ["root"], attach_canon, num_buckets=nb)


def build_nodes_table(canon_map: pd.DataFrame, run_ts_us: int) -> pa.Table:
    """Canonical map → EntityNode rows (schemas.NODES)."""
    agg = (
        canon_map.groupby(["group_id", "label", "canon_name", "canon_uuid"], as_index=False)["n"].sum()
    )
    agg = agg.sort_values("canon_uuid").reset_index(drop=True)
    names = agg["canon_name"].tolist()
    embs = embed_many(names)
    n = len(agg)
    return pa.table(
        {
            "uuid": pa.array(agg["canon_uuid"], pa.string()),
            "name": pa.array(names, pa.string()),
            "group_id": pa.array(agg["group_id"], pa.string()),
            "labels": pa.array([[l] for l in agg["label"]], pa.list_(pa.string())),
            "created_at": pa.array([run_ts_us] * n, pa.timestamp("us")),
            "name_embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(embs.ravel(), pa.float32()), EMBED_DIM
            ),
            "summary": pa.array([f"{l} entity: {c}" for l, c in zip(agg["label"], names)], pa.string()),
            "attributes": pa.array(["{}"] * n, pa.string()),
        }
    )
