"""Community detection + summarization (SURVEY.md A5/A6; reference
graphiti_core/utils/maintenance/community_operations.py:86-211 label
propagation + hierarchical summaries; HF variants
graphiti_hf/analytics/community_detector.py:164-397).

Graph partitioning: ``group_id`` is the reference's explicit graph
partition (nodes.py:94), so community detection runs per group inside
``groupby(group_id).map_groups`` — each group's subgraph fits in one task
(the reference holds the whole graph in the driver; per-group is the
distributed generalization). Deterministic algorithm: connected components
with lexicographic-min member uuid as the community id (the fixpoint of the
reference's label-propagation when labels are initialized to uuids), then a
deterministic template summary in place of the LLM tree-reduce (A6).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from ..ids import md5_id
from ..schemas import EMBED_DIM
from .canonicalize import UnionFind
from .embed import embed_many


def communities_per_group(g: pd.DataFrame) -> pd.DataFrame:
    """One group's entity edges → (group_id, community_uuid, member_uuid,
    member_name) membership rows."""
    uf = UnionFind()
    names: dict[str, str] = {}
    for s, t, sn, tn in zip(g["source_uuid"], g["target_uuid"], g["source_name"], g["target_name"]):
        uf.union(s, t)
        names[s] = sn
        names[t] = tn
    gid = g["group_id"].iloc[0]
    rows = sorted((uf.find(u), u) for u in names)
    return pd.DataFrame(
        {
            "group_id": gid,
            "community_uuid": [md5_id(f"com:{gid}:{root}") for root, _ in rows],
            "member_uuid": [u for _, u in rows],
            "member_name": [names[u] for _, u in rows],
        }
    )


def weighted_label_propagation_per_group(g: pd.DataFrame) -> pd.DataFrame:
    """Reference label propagation (community_operations.py:86-131), made
    deterministic: weighted by edge_count between the pair (undirected),
    labels initialised to the rank of the node uuid in sorted order,
    synchronous rounds; a node adopts the plurality of its neighbours'
    labels (weight = parallel-edge count) when the winning weight > 1,
    ties broken toward the LARGER label (their rule 3), else
    max(candidate, current). Stops at the fixpoint.

    Community uuid = md5('lpc:' group ':' min-member-uuid) so the id is
    stable under any partitioning."""
    gid = g["group_id"].iloc[0]
    # undirected weighted projection: edge_count per unordered pair
    a = np.minimum(g["source_uuid"], g["target_uuid"])
    b = np.maximum(g["source_uuid"], g["target_uuid"])
    w = pd.DataFrame({"a": a, "b": b})
    w = w[w["a"] != w["b"]].groupby(["a", "b"], as_index=False).size().rename(columns={"size": "w"})
    names = {}
    for s, t, sn, tn in zip(g["source_uuid"], g["target_uuid"], g["source_name"], g["target_name"]):
        names[s] = sn
        names[t] = tn
    nodes = sorted(names)
    rank = {u: i for i, u in enumerate(nodes)}
    # adjacency with weights, both directions
    nbrs: dict[int, list[tuple[int, int]]] = {i: [] for i in range(len(nodes))}
    for ua, ub, wt in zip(w["a"], w["b"], w["w"]):
        nbrs[rank[ua]].append((rank[ub], int(wt)))
        nbrs[rank[ub]].append((rank[ua], int(wt)))
    labels = list(range(len(nodes)))
    for _ in range(100):
        changed = False
        new_labels = labels[:]
        for i in range(len(nodes)):
            cand: dict[int, int] = {}
            for j, wt in nbrs[i]:
                cand[labels[j]] = cand.get(labels[j], 0) + wt
            lst = sorted(((c, lab) for lab, c in cand.items()), reverse=True)
            top_w, top_lab = lst[0] if lst else (0, -1)
            if top_lab != -1 and top_w > 1:
                new = top_lab
            else:
                new = max(top_lab, labels[i])
            new_labels[i] = new
            if new != labels[i]:
                changed = True
        labels = new_labels
        if not changed:
            break
    lab_series = pd.Series(labels, index=nodes)
    root = lab_series.groupby(lab_series).transform(lambda s: min(s.index))
    return pd.DataFrame(
        {
            "group_id": gid,
            "community_uuid": [md5_id(f"lpc:{gid}:{r}") for r in root],
            "member_uuid": root.index,
            "member_name": [names[u] for u in root.index],
        }
    ).sort_values("member_uuid").reset_index(drop=True)


def embedding_bucket_communities_per_group(g: pd.DataFrame, n_planes: int = 3) -> pd.DataFrame:
    """Deterministic embedding-clustering analog of the reference's
    kmeans/hierarchical variants (community_detector.py:297-397): cluster =
    sign-plane bucket of the hash name-embedding. K-means-free (no RNG, no
    sklearn) but the same shape — nodes with similar names co-cluster; the
    reference itself falls back to components when embeddings are missing.
    """
    from ..functions.knn import sign_buckets

    gid = g["group_id"].iloc[0]
    names = {}
    for s, t, sn, tn in zip(g["source_uuid"], g["target_uuid"], g["source_name"], g["target_name"]):
        names[s] = sn
        names[t] = tn
    nodes = sorted(names)
    embs = embed_many([names[u] for u in nodes])
    ser = pd.Series(sign_buckets(embs, n_planes), index=nodes)
    root = ser.groupby(ser).transform(lambda s: min(s.index))
    return pd.DataFrame(
        {
            "group_id": gid,
            "community_uuid": [md5_id(f"ebc:{gid}:{r}") for r in root],
            "member_uuid": root.index,
            "member_name": [names[u] for u in root.index],
        }
    ).sort_values("member_uuid").reset_index(drop=True)


ALGORITHMS = {
    "components": communities_per_group,
    "label_propagation": weighted_label_propagation_per_group,
    "embedding_buckets": embedding_bucket_communities_per_group,
    # reference fallback parity: louvain → label propagation when
    # python-louvain is unavailable (community_detector.py:186-190);
    # kmeans/hierarchical → embedding clustering (deterministic analog);
    # clique_percolation → components (the connectivity degenerate case)
    "louvain": weighted_label_propagation_per_group,
    "kmeans": embedding_bucket_communities_per_group,
    "hierarchical": embedding_bucket_communities_per_group,
    "clique_percolation": communities_per_group,
}


def detect_communities(
    edges: "ray.data.Dataset", algorithm: str = "components", min_cluster_size: int = 1
) -> "ray.data.Dataset":
    """Membership dataset via per-group community detection
    (CommunityDetectionConfig.algorithm parity, community_detector.py:80-163).
    The per-group subgraph is vocabulary-sized (distinct canonical
    entities), NOT corpus-sized — safe to hold in one task; for groups
    beyond that, swap in ``canonicalize.connected_components_distributed``
    keyed by group."""
    fn = ALGORITHMS.get(algorithm)
    if fn is None:
        raise ValueError(f"unknown community algorithm: {algorithm} (have {sorted(ALGORITHMS)})")
    proj = edges.select_columns(["group_id", "source_uuid", "target_uuid", "source_name", "target_name"])
    membership = proj.groupby("group_id").map_groups(fn, batch_format="pandas")
    if min_cluster_size <= 1:
        return membership

    def fil(df: pd.DataFrame) -> pd.DataFrame:
        sizes = df.groupby("community_uuid")["member_uuid"].transform("size")
        return df[sizes >= min_cluster_size]

    from .shuffle import bucketed_group_apply

    return bucketed_group_apply(membership, ["community_uuid"], fil)


def default_pair_summarizer(left: str, right: str) -> str:
    """Deterministic stand-in for the reference's ``summarize_pair`` LLM
    call (community_operations.py:130-148): union of the two summaries'
    semicolon-separated fragments, first-seen order, capped. Injectable —
    a real LLM client drops into ``build_community_tables``'s
    ``summarize_pair`` slot with the same (left, right) → str contract."""
    seen, frags = set(), []
    for part in left.split("; ") + right.split("; "):
        if part and part not in seen:
            seen.add(part)
            frags.append(part)
    return "; ".join(frags)[:400]


def tree_reduce_summaries(summaries: list[str], summarize_pair=None) -> str:
    """A6 hierarchical summarization: the reference's pairwise binary-tree
    reduce, order-exact (community_operations.py:168-195): while more than
    one summary remains, an odd trailing element is parked, the first half
    zips against the second half left-to-right, and the parked element
    rejoins the next round."""
    sp = summarize_pair or default_pair_summarizer
    s = list(summaries)
    while len(s) > 1:
        odd = None
        if len(s) % 2 == 1:
            odd = s.pop()
        half = len(s) // 2
        s = [sp(str(a), str(b)) for a, b in zip(s[:half], s[half:])]
        if odd is not None:
            s.append(odd)
    return s[0] if s else ""


def build_community_tables(
    membership: pd.DataFrame, run_ts_us: int, summarize_pair=None
) -> tuple[pa.Table, pa.Table]:
    """Membership → (communities table, HAS_MEMBER community-edge table).

    Summary = hierarchical pairwise tree-reduce over the members' summaries
    (alphabetical member order for determinism; the reference feeds
    insertion order, community_operations.py:170-211), with
    ``summarize_pair`` injectable for a real LLM client."""
    groups = membership.groupby(["group_id", "community_uuid"], sort=True)
    c_uuid, c_name, c_group, c_summary = [], [], [], []
    e_uuid, e_group, e_src, e_tgt = [], [], [], []
    has_summaries = "member_summary" in membership.columns
    for (gid, cu), m in groups:
        members = sorted(set(zip(m["member_uuid"], m["member_name"])))
        if has_summaries:
            by_uuid = dict(zip(m["member_uuid"], m["member_summary"]))
            leaf = [by_uuid[mu] for mu, _ in members]
        else:
            leaf = [n for _, n in members]
        reduced = tree_reduce_summaries(leaf, summarize_pair)
        c_uuid.append(cu)
        c_group.append(gid)
        c_name.append(f"Community {cu[:8]}")
        c_summary.append(f"Community of {len(members)} entities: {reduced}")
        for mu, _ in members:
            e_uuid.append(md5_id(f"hm:{cu}:{mu}"))
            e_group.append(gid)
            e_src.append(cu)
            e_tgt.append(mu)
    n = len(c_uuid)
    embs = embed_many(c_summary)
    communities = pa.table(
        {
            "uuid": pa.array(c_uuid, pa.string()),
            "name": pa.array(c_name, pa.string()),
            "group_id": pa.array(c_group, pa.string()),
            "created_at": pa.array([run_ts_us] * n, pa.timestamp("us")),
            "name_embedding": pa.FixedSizeListArray.from_arrays(pa.array(embs.ravel(), pa.float32()), EMBED_DIM),
            "summary": pa.array(c_summary, pa.string()),
        }
    )
    community_edges = pa.table(
        {
            "uuid": pa.array(e_uuid, pa.string()),
            "group_id": pa.array(e_group, pa.string()),
            "source_node_uuid": pa.array(e_src, pa.string()),
            "target_node_uuid": pa.array(e_tgt, pa.string()),
            "created_at": pa.array([run_ts_us] * len(e_uuid), pa.timestamp("us")),
        }
    )
    return communities, community_edges
