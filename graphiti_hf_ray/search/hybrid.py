"""Hybrid search orchestration (SURVEY.md §2.9; reference
graphiti_core/search/search.py:68-182 + search_config.py + 15 recipes in
search_config_recipes.py:34-223).

Contract: given query text (+ optional center node / bfs origins / group
filter / SearchFilters), run the configured per-record-type searchers,
combine with the configured reranker, truncate to limit. Candidate budget
is 2×limit per method (search.py:205). Searchers are batch functions over
the Parquet graph tables in one of two placements, picked per table by
``GraphStore.route`` from its parquet footers: when the searched columns
fit in ``SEARCH_DRIVER_MAX_BYTES`` the table is read once on the driver
(those columns, group filter pushed down) and every searcher runs over
that one ``pa.Table``; a larger one streams through Ray Data passes.
``SearchResults.routes`` records the placement and its counts. BFS and
center-node distances stay Ray Data passes. Rerankers are driver-side
numpy over the ≤hundreds-row candidate lists (same split as the reference).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from enum import Enum

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

import ray.data as rd

from .. import io as gio
from ..stages.embed import embed_text
from .bm25 import bm25_topk
from .filters import SearchFilters, apply_filters, filter_columns
from .placement import Table, map_table
from .rerank import mmr, node_distance_rerank, rrf
from .traversal import bfs_reachable, node_distances
from .vector import cosine_topk

DEFAULT_SEARCH_LIMIT = 10  # search_config.py:29
# Driver memory budget of one search read: a table is read on the driver
# when its searched columns take at most this many bytes, uncompressed, as
# the parquet footers count them over the whole table (the group filter
# only shrinks what is held). It caps memory; it is not a speed crossover,
# since the driver placement was the faster one at every size measured
# (BASELINE.md, "search placement crossover").
SEARCH_DRIVER_MAX_BYTES = 256 << 20


class SearchMethod(Enum):
    bm25 = "bm25"
    cosine_similarity = "cosine_similarity"
    bfs = "breadth_first_search"


class Reranker(Enum):
    rrf = "reciprocal_rank_fusion"
    mmr = "maximal_marginal_relevance"
    node_distance = "node_distance"
    episode_mentions = "episode_mentions"
    cross_encoder = "cross_encoder"
    weighted = "hybrid_weighted"


# HF weighted hybrid combine (hybrid_search.py:64-79): min-max-normalized
# component scores summed as semantic 0.4 + keyword 0.3 + graph 0.3
WEIGHTED_COMBINE_WEIGHTS = {
    SearchMethod.cosine_similarity: 0.4,
    SearchMethod.bm25: 0.3,
    SearchMethod.bfs: 0.3,
}


def weighted_combine(
    score_maps: "dict[SearchMethod, dict[str, float]]",
    weights: "dict[SearchMethod, float]" = WEIGHTED_COMBINE_WEIGHTS,
    limit: int = DEFAULT_SEARCH_LIMIT,
) -> list[str]:
    """Min-max normalize each method's scores over the candidate union,
    sum with the HF weights, sort desc (tie → uuid asc)."""
    union = sorted(set().union(*[set(m) for m in score_maps.values()]) if score_maps else set())
    totals: dict[str, float] = {u: 0.0 for u in union}
    for method, scores in score_maps.items():
        w = weights.get(method, 0.0)
        if not scores or w == 0.0:
            continue
        vals = list(scores.values())
        lo, hi = min(vals), max(vals)
        span = (hi - lo) or 1.0
        for u in union:
            if u in scores:
                totals[u] += w * ((scores[u] - lo) / span if hi > lo else 1.0)
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    return [u for u, _ in ranked][:limit]


@dataclass
class EdgeSearchConfig:
    search_methods: list[SearchMethod]
    reranker: Reranker = Reranker.rrf


@dataclass
class NodeSearchConfig:
    search_methods: list[SearchMethod]
    reranker: Reranker = Reranker.rrf


@dataclass
class EpisodeSearchConfig:
    search_methods: list[SearchMethod] = field(default_factory=lambda: [SearchMethod.bm25])
    reranker: Reranker = Reranker.rrf


@dataclass
class CommunitySearchConfig:
    search_methods: list[SearchMethod]
    reranker: Reranker = Reranker.rrf


@dataclass
class SearchConfig:
    edge_config: EdgeSearchConfig | None = None
    node_config: NodeSearchConfig | None = None
    episode_config: EpisodeSearchConfig | None = None
    community_config: CommunitySearchConfig | None = None
    limit: int = DEFAULT_SEARCH_LIMIT


@dataclass
class SearchResults:
    edges: pd.DataFrame
    nodes: pd.DataFrame
    episodes: pd.DataFrame
    communities: pd.DataFrame
    # per searched table, the placement that ran, the table's rows and the
    # searched columns' bytes that chose it:
    # {table: {"route": "driver" | "ray", "rows": n, "bytes": b}}
    routes: dict = field(default_factory=dict)


# --- recipes (search_config_recipes.py parity: the load-bearing subset,
#     same names; others compose from the same enums) ---
COMBINED_HYBRID_SEARCH_RRF = SearchConfig(
    edge_config=EdgeSearchConfig([SearchMethod.bm25, SearchMethod.cosine_similarity], Reranker.rrf),
    node_config=NodeSearchConfig([SearchMethod.bm25, SearchMethod.cosine_similarity], Reranker.rrf),
    episode_config=EpisodeSearchConfig(),
    community_config=CommunitySearchConfig([SearchMethod.bm25, SearchMethod.cosine_similarity]),
)
COMBINED_HYBRID_SEARCH_MMR = SearchConfig(
    edge_config=EdgeSearchConfig([SearchMethod.bm25, SearchMethod.cosine_similarity], Reranker.mmr),
    node_config=NodeSearchConfig([SearchMethod.bm25, SearchMethod.cosine_similarity], Reranker.mmr),
)
EDGE_HYBRID_SEARCH_RRF = SearchConfig(
    edge_config=EdgeSearchConfig([SearchMethod.bm25, SearchMethod.cosine_similarity], Reranker.rrf)
)
EDGE_HYBRID_SEARCH_NODE_DISTANCE = SearchConfig(
    edge_config=EdgeSearchConfig(
        [SearchMethod.bm25, SearchMethod.cosine_similarity], Reranker.node_distance
    )
)
NODE_HYBRID_SEARCH_RRF = SearchConfig(
    node_config=NodeSearchConfig([SearchMethod.bm25, SearchMethod.cosine_similarity], Reranker.rrf)
)
EDGE_BFS_RRF = SearchConfig(edge_config=EdgeSearchConfig([SearchMethod.bfs], Reranker.rrf))
EDGE_HYBRID_SEARCH_WEIGHTED = SearchConfig(
    edge_config=EdgeSearchConfig(
        [SearchMethod.bm25, SearchMethod.cosine_similarity, SearchMethod.bfs], Reranker.weighted
    )
)
NODE_HYBRID_SEARCH_WEIGHTED = SearchConfig(
    node_config=NodeSearchConfig(
        [SearchMethod.bm25, SearchMethod.cosine_similarity, SearchMethod.bfs], Reranker.weighted
    )
)

# full recipe catalog parity (search_config_recipes.py:34-223 — 15 recipes)
_HY = [SearchMethod.bm25, SearchMethod.cosine_similarity]
COMBINED_HYBRID_SEARCH_CROSS_ENCODER = SearchConfig(
    edge_config=EdgeSearchConfig(_HY, Reranker.cross_encoder),
    node_config=NodeSearchConfig(_HY, Reranker.cross_encoder),
    episode_config=EpisodeSearchConfig(reranker=Reranker.cross_encoder),
    community_config=CommunitySearchConfig(_HY, Reranker.cross_encoder),
)
EDGE_HYBRID_SEARCH_MMR = SearchConfig(edge_config=EdgeSearchConfig(_HY, Reranker.mmr))
EDGE_HYBRID_SEARCH_EPISODE_MENTIONS = SearchConfig(
    edge_config=EdgeSearchConfig(_HY, Reranker.episode_mentions)
)
EDGE_HYBRID_SEARCH_CROSS_ENCODER = SearchConfig(
    edge_config=EdgeSearchConfig(_HY, Reranker.cross_encoder)
)
NODE_HYBRID_SEARCH_MMR = SearchConfig(node_config=NodeSearchConfig(_HY, Reranker.mmr))
NODE_HYBRID_SEARCH_NODE_DISTANCE = SearchConfig(
    node_config=NodeSearchConfig(_HY, Reranker.node_distance)
)
NODE_HYBRID_SEARCH_EPISODE_MENTIONS = SearchConfig(
    node_config=NodeSearchConfig(_HY, Reranker.episode_mentions)
)
NODE_HYBRID_SEARCH_CROSS_ENCODER = SearchConfig(
    node_config=NodeSearchConfig(_HY, Reranker.cross_encoder)
)
EPISODE_HYBRID_SEARCH_RRF = SearchConfig(episode_config=EpisodeSearchConfig())
COMMUNITY_HYBRID_SEARCH_RRF = SearchConfig(
    community_config=CommunitySearchConfig(_HY, Reranker.rrf)
)
COMMUNITY_HYBRID_SEARCH_MMR = SearchConfig(
    community_config=CommunitySearchConfig(_HY, Reranker.mmr)
)
COMMUNITY_HYBRID_SEARCH_CROSS_ENCODER = SearchConfig(
    community_config=CommunitySearchConfig(_HY, Reranker.cross_encoder)
)

ALL_RECIPES: dict[str, SearchConfig] = {
    "COMBINED_HYBRID_SEARCH_RRF": COMBINED_HYBRID_SEARCH_RRF,
    "COMBINED_HYBRID_SEARCH_MMR": COMBINED_HYBRID_SEARCH_MMR,
    "COMBINED_HYBRID_SEARCH_CROSS_ENCODER": COMBINED_HYBRID_SEARCH_CROSS_ENCODER,
    "EDGE_HYBRID_SEARCH_RRF": EDGE_HYBRID_SEARCH_RRF,
    "EDGE_HYBRID_SEARCH_MMR": EDGE_HYBRID_SEARCH_MMR,
    "EDGE_HYBRID_SEARCH_NODE_DISTANCE": EDGE_HYBRID_SEARCH_NODE_DISTANCE,
    "EDGE_HYBRID_SEARCH_EPISODE_MENTIONS": EDGE_HYBRID_SEARCH_EPISODE_MENTIONS,
    "EDGE_HYBRID_SEARCH_CROSS_ENCODER": EDGE_HYBRID_SEARCH_CROSS_ENCODER,
    "NODE_HYBRID_SEARCH_RRF": NODE_HYBRID_SEARCH_RRF,
    "NODE_HYBRID_SEARCH_MMR": NODE_HYBRID_SEARCH_MMR,
    "NODE_HYBRID_SEARCH_NODE_DISTANCE": NODE_HYBRID_SEARCH_NODE_DISTANCE,
    "NODE_HYBRID_SEARCH_EPISODE_MENTIONS": NODE_HYBRID_SEARCH_EPISODE_MENTIONS,
    "NODE_HYBRID_SEARCH_CROSS_ENCODER": NODE_HYBRID_SEARCH_CROSS_ENCODER,
    "EPISODE_HYBRID_SEARCH_RRF": EPISODE_HYBRID_SEARCH_RRF,
    "COMMUNITY_HYBRID_SEARCH_RRF": COMMUNITY_HYBRID_SEARCH_RRF,
    "COMMUNITY_HYBRID_SEARCH_MMR": COMMUNITY_HYBRID_SEARCH_MMR,
    "COMMUNITY_HYBRID_SEARCH_CROSS_ENCODER": COMMUNITY_HYBRID_SEARCH_CROSS_ENCODER,
    "EDGE_BFS_RRF": EDGE_BFS_RRF,
    "EDGE_HYBRID_SEARCH_WEIGHTED": EDGE_HYBRID_SEARCH_WEIGHTED,
    "NODE_HYBRID_SEARCH_WEIGHTED": NODE_HYBRID_SEARCH_WEIGHTED,
}


class GraphStore:
    """Read-side handle on a materialized graph output directory.

    A search reads each table in one of two placements (``search.placement``),
    chosen by the size of the columns it reads: at most
    ``SEARCH_DRIVER_MAX_BYTES`` are read once on the driver into a
    ``pa.Table``, more stream as a Ray ``Dataset``."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self._tables = {
            name: os.path.join(out_dir, name)
            for name in ("nodes", "edges", "episodes", "episodic_edges", "communities")
        }
        # parquet footers by (path, mtime, size): one search routes a table
        # up to three times, and a rewritten part file misses
        self._footers: dict[tuple, pq.FileMetaData] = {}

    def _path(self, table: str) -> str:
        path = self._tables[table]
        if not os.path.isdir(path):
            raise FileNotFoundError(path)
        return path

    def _parts(self, table: str) -> list[str]:
        parts = gio.part_files(self._path(table))
        if not parts:
            raise FileNotFoundError(f"no parquet under {self._tables[table]}")
        return parts

    def ds(
        self,
        table: str,
        group_ids: list[str] | None = None,
        columns: list[str] | None = None,
    ) -> "rd.Dataset":
        """``columns`` prunes the parquet read — at scale the edges table is
        dominated by ``fact_embedding`` bytes, so BM25/traversal consumers
        must name their columns instead of scanning full width."""
        path = self._path(table)
        if columns is not None and group_ids:
            columns = sorted(set(columns) | {"group_id"})
        d = rd.read_parquet(path, columns=columns)
        if group_ids:
            d = map_table(d, _rows_in, col="group_id", values=pa.array(group_ids))
        return d

    def _footer(self, path: str) -> pq.FileMetaData:
        st = os.stat(path)
        key = (path, st.st_mtime_ns, st.st_size)
        if key not in self._footers:
            self._footers[key] = pq.read_metadata(path)
        return self._footers[key]

    def route(self, table: str, columns: list[str] | None = None) -> dict:
        """``{"route": "driver" | "ray", "rows": n, "bytes": b}``: the
        table's ``n`` rows and the ``b`` uncompressed bytes of ``columns``
        (default: all), both from its part files' parquet footers (no data
        read)."""
        rows = nbytes = 0
        for p in self._parts(table):
            md = self._footer(p)
            rows += md.num_rows
            for i in range(md.num_row_groups):
                rg = md.row_group(i)
                for j in range(rg.num_columns):
                    col = rg.column(j)
                    if columns is None or col.path_in_schema.split(".")[0] in columns:
                        nbytes += col.total_uncompressed_size
        route = "driver" if nbytes <= SEARCH_DRIVER_MAX_BYTES else "ray"
        return {"route": route, "rows": rows, "bytes": nbytes}

    def read(
        self,
        table: str,
        group_ids: list[str] | None = None,
        columns: list[str] | None = None,
    ) -> Table:
        """The table in the placement ``route(table, columns)`` picks. The
        driver placement is one pyarrow read of ``columns`` with the group
        filter pushed into the scan."""
        if self.route(table, columns)["route"] == "ray":
            return self.ds(table, group_ids, columns)
        where = pc.field("group_id").isin(group_ids) if group_ids else None
        return pads.dataset(self._parts(table), format="parquet").to_table(columns=columns, filter=where)

    def fetch(
        self,
        table: str,
        uuids,
        columns: list[str],
        group_ids: list[str] | None = None,
    ) -> pd.DataFrame:
        """``columns`` (``uuid`` among them) of the rows of ``table`` whose
        uuid is in ``uuids``, read in the placement ``read`` picks."""
        rows = map_table(
            self.read(table, group_ids, columns), _rows_in, col="uuid", values=pa.array(list(uuids), pa.string())
        )
        # reindex: a Ray placement whose blocks all filtered to nothing
        # yields a frame with no columns
        return rows.to_pandas().reindex(columns=list(columns))


def _rows_in(t: pa.Table, col: str, values: pa.Array) -> pa.Table:
    return t.filter(pc.is_in(t.column(col), value_set=values))


def _candidates(
    store: GraphStore,
    table: str,
    methods: list[SearchMethod],
    query: str,
    qvec,
    group_ids,
    filters: SearchFilters | None,
    bfs_origins: list[str] | None,
    budget: int,
    text_col: str,
    emb_col: str | None,
) -> tuple[list[list[str]], dict, dict]:
    """Each method's candidate list and score map, and the route of the
    one read of ``table`` that BM25 and cosine share."""
    kind = "edge" if table == "edges" else "node"
    needed = {"uuid"} | filter_columns(filters, kind)
    if SearchMethod.bm25 in methods:
        needed.add(text_col)
    if SearchMethod.cosine_similarity in methods and emb_col is not None:
        needed.add(emb_col)
    columns = sorted(needed)
    route = store.route(table, columns)
    data = store.read(table, group_ids, columns)
    data = apply_filters(data, filters, kind)
    out: list[list[str]] = []
    score_maps: dict[SearchMethod, dict[str, float]] = {}
    for m in methods:
        if m == SearchMethod.bm25:
            r = bm25_topk(data, query, text_col=text_col, id_col="uuid", k=budget)
            out.append(list(r["uuid"]))
            score_maps[m] = dict(zip(r["uuid"], r["score"]))
        elif m == SearchMethod.cosine_similarity and emb_col is not None:
            r = cosine_topk(data, qvec, emb_col=emb_col, id_col="uuid", k=budget)
            out.append(list(r["uuid"]))
            score_maps[m] = dict(zip(r["uuid"], r["score"]))
        elif m == SearchMethod.bfs and bfs_origins:
            edges = store.ds("edges", group_ids, columns=["uuid", "source_uuid", "target_uuid"])
            reach = bfs_reachable(edges, bfs_origins)
            if table == "edges":
                nodes_set = pa.array(list(reach["uuid"]) + bfs_origins)

                def touches(t):
                    return t.filter(
                        pc.or_(
                            pc.is_in(t.column("source_uuid"), value_set=nodes_set),
                            pc.is_in(t.column("target_uuid"), value_set=nodes_set),
                        )
                    )

                ids = [
                    r["uuid"]
                    for r in edges.map_batches(touches, batch_format="pyarrow")
                    .select_columns(["uuid"])
                    .take_all()
                ]
                out.append(sorted(ids)[: budget])
                score_maps[m] = {u: 1.0 for u in sorted(ids)[:budget]}
            else:
                out.append(list(reach["uuid"])[:budget])
                # graph proximity score = 1/depth (hybrid_search.py:322-415)
                score_maps[m] = {u: 1.0 / d for u, d in zip(reach["uuid"], reach["depth"]) if d > 0}
    return out, score_maps, route


def _rerank(
    lists: list[list[str]],
    reranker: Reranker,
    limit: int,
    qvec,
    vec_lookup,
    center_distances,
    mention_counts,
    query: str = "",
    passage_lookup: dict | None = None,
) -> list[str]:
    if not lists:
        return []
    if reranker == Reranker.cross_encoder and passage_lookup:
        from .rerank import CrossEncoderStub

        union = sorted(set().union(*lists))
        ranked = CrossEncoderStub().rank(query, [(u, passage_lookup.get(u, "")) for u in union])
        return [u for u, _ in ranked][:limit]
    if reranker == Reranker.mmr and vec_lookup:
        union = sorted(set().union(*lists))
        return mmr(union, qvec, vec_lookup, k=limit)
    if reranker == Reranker.node_distance and center_distances is not None:
        union = sorted(set().union(*lists))
        return [u for u, _ in node_distance_rerank(union, center_distances)][:limit]
    if reranker == Reranker.episode_mentions and mention_counts is not None:
        from .rerank import episode_mentions_rerank

        union = sorted(set().union(*lists))
        return [u for u, _ in episode_mentions_rerank(union, mention_counts)][:limit]
    return [u for u, _ in rrf(lists)][:limit]


def search(
    store: GraphStore,
    query: str,
    config: SearchConfig,
    group_ids: list[str] | None = None,
    center_node_uuid: str | None = None,
    bfs_origin_node_uuids: list[str] | None = None,
    search_filter: SearchFilters | None = None,
) -> SearchResults:
    """The reference's hybrid search contract (search.py:68-182): embed the
    query once, run each configured record-type search, rerank, truncate."""
    qvec = embed_text(query)
    budget = 2 * config.limit  # search.py:205
    empty = pd.DataFrame({"uuid": []})
    results: dict[str, pd.DataFrame] = {"edges": empty, "nodes": empty, "episodes": empty, "communities": empty}

    center_dist = None
    if center_node_uuid:
        center_dist = node_distances(
            store.ds("edges", group_ids, columns=["source_uuid", "target_uuid"]), center_node_uuid
        )

    mention_counts = None
    routes: dict[str, dict] = {}

    def finish(table: str, cfg, text_col: str, emb_col: str | None):
        nonlocal mention_counts
        lists, score_maps, routes[table] = _candidates(
            store, table, cfg.search_methods, query, qvec, group_ids, search_filter,
            bfs_origin_node_uuids or ([center_node_uuid] if center_node_uuid else None),
            budget, text_col, emb_col,
        )
        if cfg.reranker == Reranker.weighted:
            results[table] = pd.DataFrame(
                {"uuid": weighted_combine(score_maps, limit=config.limit)}
            )
            return
        vec_lookup = None
        passage_lookup = None
        union = set().union(*lists) if lists else set()
        if union and (cfg.reranker == Reranker.mmr and emb_col or cfg.reranker == Reranker.cross_encoder):
            cols = ["uuid", text_col] + ([emb_col] if emb_col else [])
            rows = store.fetch(table, sorted(union), cols, group_ids).to_dict("records")
            if emb_col:
                vec_lookup = {r["uuid"]: r[emb_col] for r in rows}
            passage_lookup = {r["uuid"]: r[text_col] for r in rows}
        # Edge candidates are ranked by EDGE-level signals (reference
        # search.py:254-306): node_distance maps each edge to the center
        # distance of its SOURCE node; episode_mentions ranks by the edge's
        # own provenance count len(edge.episodes). Node-keyed maps would
        # miss every edge uuid and silently fall back to lexicographic
        # order.
        table_center_dist = center_dist
        table_mentions = None
        if table == "edges" and union and cfg.reranker in (
            Reranker.node_distance, Reranker.episode_mentions
        ):
            rows = store.fetch(
                table, sorted(union), ["uuid", "source_uuid", "episodes"], group_ids
            ).to_dict("records")
            if cfg.reranker == Reranker.node_distance and center_dist is not None:
                table_center_dist = {
                    r["uuid"]: center_dist[r["source_uuid"]]
                    for r in rows
                    if r["source_uuid"] in center_dist
                }
            elif cfg.reranker == Reranker.episode_mentions:
                table_mentions = pd.DataFrame(
                    {
                        "entity_uuid": [r["uuid"] for r in rows],
                        "n_mentions": [
                            len(r["episodes"].split(",")) if r["episodes"] else 0 for r in rows
                        ],
                    }
                )
        if cfg.reranker == Reranker.episode_mentions and table_mentions is None:
            if mention_counts is None:
                men = store.ds("episodic_edges", group_ids, columns=["target_node_uuid"])
                mention_counts = (
                    men.groupby("target_node_uuid")
                    .count()
                    .rename_columns(["entity_uuid", "n_mentions"])
                    .to_pandas()
                )
            table_mentions = mention_counts
        ranked = _rerank(
            lists, cfg.reranker, config.limit, qvec, vec_lookup, table_center_dist, table_mentions,
            query=query, passage_lookup=passage_lookup,
        )
        results[table] = pd.DataFrame({"uuid": ranked})

    if config.edge_config:
        finish("edges", config.edge_config, "fact", "fact_embedding")
    if config.node_config:
        finish("nodes", config.node_config, "name", "name_embedding")
    if config.episode_config:
        finish("episodes", config.episode_config, "content", None)
    if config.community_config:
        try:
            finish("communities", config.community_config, "summary", "name_embedding")
        except FileNotFoundError:
            pass
    return SearchResults(
        edges=results["edges"], nodes=results["nodes"], episodes=results["episodes"],
        communities=results["communities"], routes=routes,
    )
