"""Mention + triple extraction (SURVEY.md M2/M3) — deterministic rebuild.

The reference extracts entities then edges with two LLM prompts per episode
(graphiti_core/utils/maintenance/node_operations.py:69-181,
edge_operations.py:112-247). The rebuild implements the same contracts —
``episode → [mentions]`` and ``episode → [(subj, pred, obj, fact,
valid_at)]`` — with a deterministic OpenIE-style pattern extractor so tests
are reproducible offline (SURVEY.md §7.0). The extractor is a callable
CLASS, built once per worker process by the extract phase's shard tasks
(``pipelines.kg._worker_extractor``): patterns compile ONCE in
``__init__``, per-batch work is a single compiled-regex ``finditer`` pass
per document.

Entity labels are assigned from the relation signature (the reference's
``edge_type_map`` concept, graphiti_core/graphiti.py:398 + 492-497:
(src_label, tgt_label) → legal edge types — here inverted: pattern slot →
label). Mentions are the union of triple endpoints; standalone gazetteer NER
is available via ``MentionGazetteer`` for corpora where relation patterns
under-recall.

Per-edge ``valid_at`` defaults to the episode's reference time (= warc_ts),
matching TS1 (edge_operations.py:199-239: dates resolved against episode
reference_time; absent → episode time).
"""

from __future__ import annotations

import re

import pyarrow as pa

# entity span: capitalized token sequence ("Ada Lovelace", "A. Lovelace",
# "Tyrell Technologies", "Berners-Lee"). A token is a capitalized word or a
# single-letter initial with period — the period alternative is ONLY the
# initial form, so spans cannot swallow sentence-final periods.
_ENT_TOK = r"[A-Z](?:[A-Za-z&-]+|\.)?"
_ENT = rf"{_ENT_TOK}(?: {_ENT_TOK})*"

# relation surface → (predicate, subj_label, obj_label)
RELATIONS: dict[str, tuple[str, str, str]] = {
    "works at": ("WORKS_AT", "Person", "Organization"),
    "is the CEO of": ("IS_CEO_OF", "Person", "Organization"),
    "acquired": ("ACQUIRED", "Organization", "Organization"),
    "moved to": ("MOVED_TO", "Person", "Place"),
    "founded": ("FOUNDED", "Person", "Organization"),
    "is located in": ("LOCATED_IN", "Organization", "Place"),
    "partnered with": ("PARTNERED_WITH", "Organization", "Organization"),
    "collaborates on": ("COLLABORATES_ON", "Person", "Project"),
    "was authored by": ("AUTHORED_BY", "Document", "Person"),
    "participates in": ("PARTICIPATES_IN", "Person", "Event"),
}

TRIPLES_SCHEMA = pa.schema(
    [
        ("episode_uuid", pa.string()),
        ("group_id", pa.string()),
        ("valid_at", pa.timestamp("us")),
        ("subj_surface", pa.string()),
        ("subj_label", pa.string()),
        ("pred", pa.string()),
        ("obj_surface", pa.string()),
        ("obj_label", pa.string()),
        ("fact", pa.string()),
        ("sent_idx", pa.int32()),
    ]
)


class TripleExtractor:
    """Extract stage: episodes batch → exploded triple rows.

    Input batch columns: uuid, group_id, content, valid_at.
    Output: TRIPLES_SCHEMA (0..n rows per episode).
    """

    def __init__(self, relations: dict[str, tuple[str, str, str]] | None = None, registry=None):
        rels = relations or RELATIONS
        # edge_type_map legality is enforced AT EXTRACTION (graphiti.py:398
        # + 492-497): a pattern whose (subj_label, obj_label) signature
        # forbids its predicate is excluded from the alternation entirely —
        # checked once per actor here, zero per-row cost.
        if registry is None:
            from ..state.types import default_registry

            registry = default_registry()
        rels = {
            surf: (pred, sl, ol)
            for surf, (pred, sl, ol) in rels.items()
            if registry.check_edge_legal(sl, ol, pred)
        }
        # longest-first alternation so "is the CEO of" wins over prefixes
        alts = "|".join(re.escape(k) for k in sorted(rels, key=len, reverse=True))
        self._rx = re.compile(rf"(?P<s>{_ENT}) (?P<r>{alts}) (?P<o>{_ENT})\.")
        self._rels = rels

    def __call__(self, batch: pa.Table) -> pa.Table:
        uuids = batch.column("uuid").to_pylist()
        groups = batch.column("group_id").to_pylist()
        contents = batch.column("content").to_pylist()
        valid = batch.column("valid_at").to_pylist()

        ep_u, grp, va, ss, sl, pr, oo, ol, fa, si = ([] for _ in range(10))
        for u, g, c, v in zip(uuids, groups, contents, valid):
            for i, m in enumerate(self._rx.finditer(c)):
                pred, s_label, o_label = self._rels[m.group("r")]
                ep_u.append(u)
                grp.append(g)
                va.append(v)
                ss.append(m.group("s"))
                sl.append(s_label)
                pr.append(pred)
                oo.append(m.group("o"))
                ol.append(o_label)
                fa.append(m.group(0))
                si.append(i)
        return pa.table(
            {
                "episode_uuid": pa.array(ep_u, pa.string()),
                "group_id": pa.array(grp, pa.string()),
                "valid_at": pa.array(va, pa.timestamp("us")),
                "subj_surface": pa.array(ss, pa.string()),
                "subj_label": pa.array(sl, pa.string()),
                "pred": pa.array(pr, pa.string()),
                "obj_surface": pa.array(oo, pa.string()),
                "obj_label": pa.array(ol, pa.string()),
                "fact": pa.array(fa, pa.string()),
                "sent_idx": pa.array(si, pa.int32()),
            },
            schema=TRIPLES_SCHEMA,
        )


class MentionGazetteer:
    """Optional standalone NER stage: gazetteer alternation match.

    ``vocab`` maps surface → label. At cluster scale the vocab is broadcast
    once via ``ray.put`` and the ObjectRef passed to ``__init__`` (read once
    per actor), never re-shipped per batch.
    """

    def __init__(self, vocab_ref):
        import ray

        vocab = ray.get(vocab_ref) if not isinstance(vocab_ref, dict) else vocab_ref
        self._vocab = vocab
        alts = "|".join(re.escape(s) for s in sorted(vocab, key=len, reverse=True))
        self._rx = re.compile(rf"\b(?:{alts})\b")

    def __call__(self, batch: pa.Table) -> pa.Table:
        uuids = batch.column("uuid").to_pylist()
        groups = batch.column("group_id").to_pylist()
        contents = batch.column("content").to_pylist()
        ep_u, grp, surf, lab = [], [], [], []
        for u, g, c in zip(uuids, groups, contents):
            for m in self._rx.finditer(c):
                ep_u.append(u)
                grp.append(g)
                surf.append(m.group(0))
                lab.append(self._vocab[m.group(0)])
        return pa.table(
            {
                "episode_uuid": pa.array(ep_u, pa.string()),
                "group_id": pa.array(grp, pa.string()),
                "surface": pa.array(surf, pa.string()),
                "label": pa.array(lab, pa.string()),
            }
        )


# ---------------------------------------------------------------------------
# Episode-window contextual extraction (SURVEY.md M1 → M2/M3)
# ---------------------------------------------------------------------------

# pronoun subjects the windowed extractor resolves against prior context —
# the deterministic stand-in for the reference's LLM coreference over the
# previous-episodes prompt context (bulk_utils.py:75-90 builds the window,
# graph_data_operations.py:122-181 retrieves it; prompts/extract_edges.py
# feeds it to the model)
PRONOUN_SUBJECTS = frozenset({"She", "He", "They"})


def extract_triples_windowed(
    episodes: "object",
    window: int = 3,
    relations: dict[str, tuple[str, str, str]] | None = None,
    registry=None,
) -> "object":
    """Extraction WITH the reference's previous-episodes context: per
    group, episodes run in (valid_at, uuid) order and a pronoun subject
    ("She moved to Oslo.") resolves to the most recent Person subject seen
    in the prior ``window`` episodes (or earlier in the same episode).
    Unresolvable pronouns yield no triple — matching the default
    extractor, whose grammar never emits pronouns, on pronoun-free input
    (parity-tested).

    Shuffle shape: ONE bucketed pass keyed on group_id — the same
    partitioning key every other stage uses, so a group's episodes
    co-locate and the per-group walk is local. The walk is sequential by
    construction (context is inherently ordered); groups themselves run
    in parallel, which is the same parallelism the reference gets from
    its per-group-id queues (ingest.py:13-38).
    """
    import pandas as pd

    from ..stages.shuffle import bucketed_group_apply

    ex = TripleExtractor(relations, registry)
    rx, rels = ex._rx, ex._rels

    def body(df: "pd.DataFrame") -> "pd.DataFrame":
        out = {k: [] for k in TRIPLES_SCHEMA.names}
        for _, g in df.groupby("group_id", sort=False):
            g = g.sort_values(["valid_at", "uuid"], kind="mergesort")
            recent: list[list[str]] = []  # per prior episode: Person subjects in order
            for ep in g.itertuples(index=False):
                ep_subjects: list[str] = []
                for i, m in enumerate(rx.finditer(ep.content)):
                    pred, s_label, o_label = rels[m.group("r")]
                    subj = m.group("s")
                    if subj in PRONOUN_SUBJECTS:
                        if s_label != "Person":
                            continue
                        # nearest antecedent: this episode first, then the
                        # window's episodes newest-first
                        cands = list(ep_subjects) + [
                            s for prior in reversed(recent[-window:]) for s in reversed(prior)
                        ]
                        if not cands:
                            continue  # unresolvable — drop, no "She" node
                        subj = cands[0]
                    elif s_label == "Person":
                        ep_subjects.insert(0, subj)  # newest-first
                    out["episode_uuid"].append(ep.uuid)
                    out["group_id"].append(ep.group_id)
                    out["valid_at"].append(ep.valid_at)
                    out["subj_surface"].append(subj)
                    out["subj_label"].append(s_label)
                    out["pred"].append(pred)
                    out["obj_surface"].append(m.group("o"))
                    out["obj_label"].append(o_label)
                    out["fact"].append(m.group(0))
                    out["sent_idx"].append(i)
                recent.append(ep_subjects[::-1])  # store in document order
        res = pd.DataFrame(out)
        res["sent_idx"] = res["sent_idx"].astype("int32")
        res["valid_at"] = pd.to_datetime(res["valid_at"]).astype("datetime64[us]")
        return res

    return bucketed_group_apply(episodes, ["group_id"], body)


class ReflexiveExtractor:
    """Reflexion loop around extraction (node_operations.py:69-181,
    ``MAX_REFLEXION_ITERATIONS``): after a pass, an injectable ``judge``
    reports entity surfaces the pass missed (the reference asks the LLM
    "which entities did you miss?"); each further pass re-runs extraction
    with the missed surfaces ANCHORED into the subject slot — the
    deterministic analog of re-prompting with the missed-entities list —
    until the judge reports nothing or ``max_reflexion`` passes ran.

    ``judge(content, facts) -> list[str]``: per-episode missed subject
    surfaces (facts = the sentences already extracted from that content).
    The default ``max_reflexion=0`` matches the reference's default (no
    reflexion); the loop is the injectable seam a real LLM judge drops
    into. Batch contract identical to ``TripleExtractor``.
    """

    def __init__(
        self,
        judge=None,
        max_reflexion: int = 0,
        relations: dict[str, tuple[str, str, str]] | None = None,
        registry=None,
    ):
        self.base = TripleExtractor(relations, registry)
        self.judge = judge
        self.max_reflexion = max_reflexion

    def _anchored_pass(self, batch: pa.Table, missed: list[list[str]]) -> pa.Table:
        """Second-chance pass: subject slot = exactly the judge's missed
        surfaces (verbatim alternation — surfaces the entity pattern
        rejected, e.g. lowercase names, become matchable)."""
        rels = self.base._rels
        alts = "|".join(re.escape(k) for k in sorted(rels, key=len, reverse=True))
        uuids = batch.column("uuid").to_pylist()
        groups = batch.column("group_id").to_pylist()
        contents = batch.column("content").to_pylist()
        valid = batch.column("valid_at").to_pylist()
        cols = {k: [] for k in TRIPLES_SCHEMA.names}
        for u, g, c, v, miss in zip(uuids, groups, contents, valid, missed):
            if not miss:
                continue
            subj_alt = "|".join(re.escape(s) for s in sorted(set(miss), key=len, reverse=True))
            rx = re.compile(rf"(?P<s>{subj_alt}) (?P<r>{alts}) (?P<o>{_ENT})\.")
            for i, m in enumerate(rx.finditer(c)):
                pred, s_label, o_label = rels[m.group("r")]
                cols["episode_uuid"].append(u)
                cols["group_id"].append(g)
                cols["valid_at"].append(v)
                cols["subj_surface"].append(m.group("s"))
                cols["subj_label"].append(s_label)
                cols["pred"].append(pred)
                cols["obj_surface"].append(m.group("o"))
                cols["obj_label"].append(o_label)
                cols["fact"].append(m.group(0))
                cols["sent_idx"].append(i)
        return pa.table(
            {k: pa.array(cols[k], TRIPLES_SCHEMA.field(k).type) for k in TRIPLES_SCHEMA.names},
            schema=TRIPLES_SCHEMA,
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = self.base(batch)
        if self.judge is None or self.max_reflexion <= 0:
            return out
        uuids = batch.column("uuid").to_pylist()
        contents = batch.column("content").to_pylist()
        for _ in range(self.max_reflexion):
            by_ep: dict[str, list[str]] = {}
            for u, f in zip(out.column("episode_uuid").to_pylist(), out.column("fact").to_pylist()):
                by_ep.setdefault(u, []).append(f)
            missed = [self.judge(c, by_ep.get(u, [])) for u, c in zip(uuids, contents)]
            if not any(missed):
                break
            extra = self._anchored_pass(batch, missed)
            if extra.num_rows == 0:
                break
            seen = set(
                zip(
                    out.column("episode_uuid").to_pylist(),
                    out.column("fact").to_pylist(),
                )
            )
            keep = [
                i
                for i, (u, f) in enumerate(
                    zip(extra.column("episode_uuid").to_pylist(), extra.column("fact").to_pylist())
                )
                if (u, f) not in seen
            ]
            if not keep:
                break
            out = pa.concat_tables([out, extra.take(keep)])
        return out
