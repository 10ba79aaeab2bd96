"""Deterministic synthetic web-page corpus (FIXTURES.md F1).

Derives a Common-Crawl-style ``pages`` table ``(url, warc_ts, html, text,
lang)`` (BASELINE.json input_hint) from the driver-generated ``documents``
table, injecting sentences from a closed template grammar over a fixed
entity vocabulary. Everything is pure modular arithmetic over ``doc_id`` —
no PRNG, no wall clock — so the exact same corpus (and the gold mention /
triple / canonical-entity sets) can be reproduced in ANSI SQL by DuckDB.
The ``sql_*`` helpers below emit those SQL fragments from the *same*
constants, so Ray-vs-oracle agreement is correct by construction.

Grammar properties exercised (FIXTURES.md):
- alias variants of one entity ("Ada Lovelace"/"A. Lovelace"/"Lovelace")
  → canonicalization (SURVEY.md D2/A1/A2);
- contradicting facts at different warc_ts (IS_CEO_OF is functional per
  object) → bi-temporal invalidation (TS2-TS4);
- duplicate facts across pages → edge-dedup upsert (D3/A3);
- a hub person on ~30% of person slots → head-entity skew / salting;
- 8 templates spanning the full built-in type catalog (Person/Organization/
  Place/Project/Document/Event; reference custom_types.py:212-375), so
  typed-attribute hydration rules (stages/attributes.py) fire for every
  built-in entity type.
"""

from __future__ import annotations

import html as _html

import numpy as np
import pyarrow as pa

from ..schemas import PAGES

# ---------------------------------------------------------------------------
# Vocabulary. Persons have exactly 3 surface variants, orgs exactly 2,
# places 1. Variant 0 is the canonical name and is strictly the longest
# (canonical selection rule: longest name, tie → lexicographically smallest).
# Surnames / first tokens are unique so blocking keys never collide across
# entities.
# ---------------------------------------------------------------------------

PERSONS: list[list[str]] = [
    ["Ada Lovelace", "A. Lovelace", "Lovelace"],
    ["Grace Hopper", "G. Hopper", "Hopper"],
    ["Alan Turing", "A. Turing", "Turing"],
    ["Edsger Dijkstra", "E. Dijkstra", "Dijkstra"],
    ["Barbara Liskov", "B. Liskov", "Liskov"],
    ["Donald Knuth", "D. Knuth", "Knuth"],
    ["John Backus", "J. Backus", "Backus"],
    ["Frances Allen", "F. Allen", "Allen"],
    ["Ken Thompson", "K. Thompson", "Thompson"],
    ["Dennis Ritchie", "D. Ritchie", "Ritchie"],
    ["Margaret Hamilton", "M. Hamilton", "Hamilton"],
    ["Tim Berners-Lee", "T. Berners-Lee", "Berners-Lee"],
]

ORGS: list[list[str]] = [
    ["Acme Corporation", "Acme"],
    ["Globex Industries", "Globex"],
    ["Initech Systems", "Initech"],
    ["Umbrella Holdings", "Umbrella"],
    ["Stark Laboratories", "Stark"],
    ["Wayne Enterprises", "Wayne"],
    ["Tyrell Technologies", "Tyrell"],
    ["Cyberdyne Robotics", "Cyberdyne"],
    ["Hooli Networks", "Hooli"],
    ["Pied Piper Software", "Piper"],
]

PLACES: list[str] = [
    "London",
    "Zurich",
    "Kyoto",
    "Austin",
    "Toronto",
    "Lisbon",
    "Nairobi",
    "Oslo",
]

# Project / Document / Event vocabularies (single surface variant each, like
# places — canonicalization for these is identity). Every token is unique
# across the WHOLE vocabulary so blocking keys never collide across entities.
PROJECTS: list[str] = [
    "Aurora Pipeline",
    "Basilisk Compiler",
    "Cascade Renderer",
    "Dynamo Scheduler",
    "Eclipse Kernel",
    "Fulcrum Allocator",
]

DOCTITLES: list[str] = [
    "Vermilion Notebook",
    "Cobalt Whitepaper",
    "Saffron Memorandum",
    "Juniper Thesis",
    "Obsidian Digest",
]

EVENTS: list[str] = [
    "Solstice Symposium",
    "Meridian Conference",
    "Zenith Workshop",
    "Equinox Summit",
]

NP, NO, NL = len(PERSONS), len(ORGS), len(PLACES)
NJ, ND, NE = len(PROJECTS), len(DOCTITLES), len(EVENTS)

EPOCH0 = 1704067200  # 2024-01-01T00:00:00Z
TS_PERIOD = 63072000  # 2 years in seconds
TS_STEP = 8761  # prime → no warc_ts collisions below 63M docs

# predicate per template id (8 templates; 5-7 exercise the Project /
# Document / Event built-in types, reference custom_types.py:258-320)
PREDS = [
    "WORKS_AT", "IS_CEO_OF", "ACQUIRED", "MOVED_TO", "FOUNDED",
    "COLLABORATES_ON", "AUTHORED_BY", "PARTICIPATES_IN",
]
# one subject per object at a time → invalidation sweep. Two functional
# predicates (matching state/types.default_registry) so the sweep is
# exercised for a SET, not a special case: one CEO per company, one founder
# of record per org (newer page wins).
FUNCTIONAL_PREDS = {"IS_CEO_OF", "FOUNDED"}

LABEL_PERSON, LABEL_ORG, LABEL_PLACE = "Person", "Organization", "Place"
LABEL_PROJECT, LABEL_DOC, LABEL_EVENT = "Project", "Document", "Event"


# ---------------------------------------------------------------------------
# Pure-arithmetic slot selection (mirrored 1:1 in the sql_* helpers).
# ---------------------------------------------------------------------------

def n_sentences(d: int) -> int:
    return 2 + d % 3


def template_id(d: int, j: int) -> int:
    return (d + j) % 8


def person_idx(d: int, j: int) -> int:
    return 0 if (d + j) % 10 < 3 else (d * 3 + j * 5) % NP  # hub skew on person 0


def org_idx(d: int, j: int) -> int:
    return (d * 5 + j * 7) % NO


def org2_idx(d: int, j: int) -> int:
    return (org_idx(d, j) + 1 + d % (NO - 1)) % NO


def place_idx(d: int, j: int) -> int:
    return (d * 7 + j * 3) % NL


def proj_idx(d: int, j: int) -> int:
    return (d * 11 + j * 5) % NJ


def doctitle_idx(d: int, j: int) -> int:
    return (d * 13 + j * 7) % ND


def event_idx(d: int, j: int) -> int:
    return (d * 17 + j * 11) % NE


def person_variant(d: int, j: int) -> int:
    # uses d // 3, decoupled from group_id = d % 3, so every group sees all
    # alias variants of an entity (canonicalization is group-scoped)
    return (d // 3 + 2 * j) % 3


def org_variant(d: int, j: int) -> int:
    return (d // 3 + j) % 2


def warc_epoch(d: int) -> int:
    return EPOCH0 + (d * TS_STEP) % TS_PERIOD


def url_of(d: int) -> str:
    return f"https://host{d % 13}.example/doc/{d}"


def group_of(d: int) -> str:
    return f"g{d % 3}"


def sentence(d: int, j: int) -> str:
    t = template_id(d, j)
    if t == 0:
        return f"{PERSONS[person_idx(d, j)][person_variant(d, j)]} works at {ORGS[org_idx(d, j)][org_variant(d, j)]}."
    if t == 1:
        return f"{PERSONS[person_idx(d, j)][person_variant(d, j)]} is the CEO of {ORGS[org_idx(d, j)][org_variant(d, j)]}."
    if t == 2:
        return f"{ORGS[org_idx(d, j)][org_variant(d, j)]} acquired {ORGS[org2_idx(d, j)][0]}."
    if t == 3:
        return f"{PERSONS[person_idx(d, j)][person_variant(d, j)]} moved to {PLACES[place_idx(d, j)]}."
    if t == 4:
        return f"{PERSONS[person_idx(d, j)][person_variant(d, j)]} founded {ORGS[org_idx(d, j)][org_variant(d, j)]}."
    if t == 5:
        return f"{PERSONS[person_idx(d, j)][person_variant(d, j)]} collaborates on {PROJECTS[proj_idx(d, j)]}."
    if t == 6:
        return f"{DOCTITLES[doctitle_idx(d, j)]} was authored by {PERSONS[person_idx(d, j)][person_variant(d, j)]}."
    return f"{PERSONS[person_idx(d, j)][person_variant(d, j)]} participates in {EVENTS[event_idx(d, j)]}."


def gold_triples(d: int) -> list[tuple[str, str, str, str, str]]:
    """Gold (subj_canonical, subj_label, pred, obj_canonical, obj_label) per doc."""
    out = []
    for j in range(n_sentences(d)):
        t = template_id(d, j)
        if t == 0:
            out.append((PERSONS[person_idx(d, j)][0], LABEL_PERSON, "WORKS_AT", ORGS[org_idx(d, j)][0], LABEL_ORG))
        elif t == 1:
            out.append((PERSONS[person_idx(d, j)][0], LABEL_PERSON, "IS_CEO_OF", ORGS[org_idx(d, j)][0], LABEL_ORG))
        elif t == 2:
            out.append((ORGS[org_idx(d, j)][0], LABEL_ORG, "ACQUIRED", ORGS[org2_idx(d, j)][0], LABEL_ORG))
        elif t == 3:
            out.append((PERSONS[person_idx(d, j)][0], LABEL_PERSON, "MOVED_TO", PLACES[place_idx(d, j)], LABEL_PLACE))
        elif t == 4:
            out.append((PERSONS[person_idx(d, j)][0], LABEL_PERSON, "FOUNDED", ORGS[org_idx(d, j)][0], LABEL_ORG))
        elif t == 5:
            out.append((PERSONS[person_idx(d, j)][0], LABEL_PERSON, "COLLABORATES_ON", PROJECTS[proj_idx(d, j)], LABEL_PROJECT))
        elif t == 6:
            out.append((DOCTITLES[doctitle_idx(d, j)], LABEL_DOC, "AUTHORED_BY", PERSONS[person_idx(d, j)][0], LABEL_PERSON))
        else:
            out.append((PERSONS[person_idx(d, j)][0], LABEL_PERSON, "PARTICIPATES_IN", EVENTS[event_idx(d, j)], LABEL_EVENT))
    return out


def page_text(d: int, soup: str) -> str:
    sents = " ".join(sentence(d, j) for j in range(n_sentences(d)))
    return f"Document {d}\n{sents}\n{soup}"


def page_html(d: int, soup: str) -> bytes:
    """Templated HTML wrapping the page text with nav/footer boilerplate.

    The pinned extractor (extract/html.py) must recover ``page_text``
    byte-identically per url (north rule).
    """
    sents = " ".join(sentence(d, j) for j in range(n_sentences(d)))
    e = _html.escape
    return (
        "<html><head><title>"
        + e(f"Document {d}")
        + '</title></head><body><nav><a href="/">home</a> | <a href="/about">about</a></nav>'
        + "<p>"
        + e(sents)
        + "</p><p>"
        + e(soup)
        + "</p><footer>&copy; example.org crawl</footer></body></html>"
    ).encode("utf-8")


def pages_batch(batch: pa.Table) -> pa.Table:
    """documents batch (doc_id, text, lang, ...) → pages batch (PAGES schema).

    Used inside ``map_batches(batch_format='pyarrow')`` or directly on a
    driver-side Arrow table. Python-level string assembly is acceptable here:
    this is input *synthesis* (fixture generation), not a measured engine
    stage; benches materialize pages to Parquet once, untimed.
    """
    doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    soups = batch.column("text").to_pylist()
    langs = batch.column("lang").to_pylist()
    urls, ts_us, htmls, texts = [], [], [], []
    for d, soup in zip(doc_ids, soups):
        d = int(d)
        urls.append(url_of(d))
        ts_us.append(warc_epoch(d) * 1_000_000)
        htmls.append(page_html(d, soup))
        texts.append(page_text(d, soup))
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(ts_us, pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs, pa.string()),
        },
        schema=PAGES,
    )


def build_bench_pages(documents_path: str, out_path: str, factor: int = 4, with_group: bool = True) -> int:
    """Bench-scale corpus: ``factor × n_docs`` pages with doc ids
    0..N-1; soup text cycles through the documents table. Deterministic —
    same N always yields byte-identical content. Uses Ray (parallel
    synthesis into a directory of parts) when a session is up, else a
    sequential single-file writer. Returns N."""
    import pyarrow.parquet as pq

    docs = pq.read_table(documents_path, columns=["doc_id", "text", "lang"])
    n = docs.num_rows
    texts = docs.column("text").to_pylist()
    langs = docs.column("lang").to_pylist()
    total = n * factor

    try:
        import ray

        use_ray = ray.is_initialized()
    except ImportError:  # pragma: no cover
        use_ray = False

    if use_ray:
        import ray
        import ray.data as rd

        ref = ray.put((texts, langs))

        def gen(t: pa.Table, _ref=ref) -> pa.Table:
            tx, lg = ray.get(_ref)
            ids = [int(i) for i in t.column("id").to_pylist()]
            batch = pa.table(
                {
                    "doc_id": pa.array(ids, pa.int64()),
                    "text": pa.array([tx[d % n] for d in ids], pa.string()),
                    "lang": pa.array([lg[d % n] for d in ids], pa.string()),
                }
            )
            out = pages_batch(batch)
            if with_group:
                out = out.append_column("group_id", pa.array([group_of(d) for d in ids], pa.string()))
            return out

        cpus = int(ray.cluster_resources().get("CPU", 8))
        rd.range(total, override_num_blocks=cpus * 4).map_batches(
            gen, batch_format="pyarrow", batch_size=8192
        ).write_parquet(out_path, min_rows_per_file=50_000)
        return total

    writer = None
    try:
        for start in range(0, total, 50_000):
            stop = min(start + 50_000, total)
            ids = list(range(start, stop))
            batch = pa.table(
                {
                    "doc_id": pa.array(ids, pa.int64()),
                    "text": pa.array([texts[d % n] for d in ids], pa.string()),
                    "lang": pa.array([langs[d % n] for d in ids], pa.string()),
                }
            )
            out = pages_batch(batch)
            if with_group:
                out = out.append_column("group_id", pa.array([group_of(d) for d in ids], pa.string()))
            if writer is None:
                writer = pq.ParquetWriter(out_path, out.schema)
            # small row groups → many parallel read splits downstream
            writer.write_table(out, row_group_size=8192)
    finally:
        if writer is not None:
            writer.close()
    return total


# ---------------------------------------------------------------------------
# SQL mirrors (DuckDB). Each helper returns an SQL *expression* in terms of
# a documents row aliased ``d`` (doc_id) — or a full subquery. Generated from
# the SAME constants above, so the oracle cannot drift from the generator.
# ---------------------------------------------------------------------------

def _sql_list_of_lists(v: list[list[str]]) -> str:
    inner = ",".join("[" + ",".join("'" + s.replace("'", "''") + "'" for s in row) + "]" for row in v)
    return "[" + inner + "]"


def _sql_list(v: list[str]) -> str:
    return "[" + ",".join("'" + s.replace("'", "''") + "'" for s in v) + "]"


SQL_PERSONS = _sql_list_of_lists(PERSONS)
SQL_ORGS = _sql_list_of_lists(ORGS)
SQL_PLACES = _sql_list(PLACES)
SQL_PROJECTS = _sql_list(PROJECTS)
SQL_DOCTITLES = _sql_list(DOCTITLES)
SQL_EVENTS = _sql_list(EVENTS)
SQL_PREDS = _sql_list(PREDS)
# `pred IN (...)` fragment for the oracle's invalidation sweep — generated
# from the same constant the engine's registry mirrors, so oracle and sweep
# cannot disagree on which predicates invalidate.
SQL_FUNCTIONAL_IN = "(" + ",".join("'" + p + "'" for p in sorted(FUNCTIONAL_PREDS)) + ")"

# arithmetic expressions in terms of columns d (doc_id) and j (sentence idx)
SQL_K = "(2 + d % 3)"
SQL_T = "((d + j) % 8)"
SQL_P = f"(CASE WHEN (d + j) % 10 < 3 THEN 0 ELSE (d * 3 + j * 5) % {NP} END)"
SQL_O = f"((d * 5 + j * 7) % {NO})"
SQL_O2 = f"((({SQL_O}) + 1 + d % {NO - 1}) % {NO})"
SQL_L = f"((d * 7 + j * 3) % {NL})"
SQL_J = f"((d * 11 + j * 5) % {NJ})"
SQL_D = f"((d * 13 + j * 7) % {ND})"
SQL_E = f"((d * 17 + j * 11) % {NE})"
SQL_PV = "(((d // 3) + 2 * j) % 3)"
SQL_OV = "(((d // 3) + j) % 2)"
SQL_EPOCH = f"({EPOCH0} + (d * {TS_STEP}) % {TS_PERIOD})"
SQL_WARC_TS = f"(TIMESTAMP '2024-01-01 00:00:00' + ({SQL_EPOCH} - {EPOCH0}) * INTERVAL 1 SECOND)"
SQL_URL = "('https://host' || (d % 13) || '.example/doc/' || d)"
SQL_GROUP = "('g' || (d % 3))"

SQL_PSURF = f"({SQL_PERSONS}[{SQL_P} + 1][{SQL_PV} + 1])"
SQL_OSURF = f"({SQL_ORGS}[{SQL_O} + 1][{SQL_OV} + 1])"
SQL_O2SURF = f"({SQL_ORGS}[{SQL_O2} + 1][1])"
SQL_LSURF = f"({SQL_PLACES}[{SQL_L} + 1])"
SQL_JSURF = f"({SQL_PROJECTS}[{SQL_J} + 1])"
SQL_DSURF = f"({SQL_DOCTITLES}[{SQL_D} + 1])"
SQL_ESURF = f"({SQL_EVENTS}[{SQL_E} + 1])"

SQL_PCANON = f"({SQL_PERSONS}[{SQL_P} + 1][1])"
SQL_OCANON = f"({SQL_ORGS}[{SQL_O} + 1][1])"

SQL_SENTENCE = (
    "(CASE " + SQL_T + " "
    f"WHEN 0 THEN {SQL_PSURF} || ' works at ' || {SQL_OSURF} || '.' "
    f"WHEN 1 THEN {SQL_PSURF} || ' is the CEO of ' || {SQL_OSURF} || '.' "
    f"WHEN 2 THEN {SQL_OSURF} || ' acquired ' || {SQL_O2SURF} || '.' "
    f"WHEN 3 THEN {SQL_PSURF} || ' moved to ' || {SQL_LSURF} || '.' "
    f"WHEN 4 THEN {SQL_PSURF} || ' founded ' || {SQL_OSURF} || '.' "
    f"WHEN 5 THEN {SQL_PSURF} || ' collaborates on ' || {SQL_JSURF} || '.' "
    f"WHEN 6 THEN {SQL_DSURF} || ' was authored by ' || {SQL_PSURF} || '.' "
    f"ELSE {SQL_PSURF} || ' participates in ' || {SQL_ESURF} || '.' END)"
)

# one row per (doc, sentence): the exploded grammar — base for mention/triple oracles
SQL_SENT_ROWS = (
    "SELECT documents.doc_id AS d, CAST(t.j AS BIGINT) AS j, documents.text AS soup "
    "FROM documents, range(4) t(j) WHERE t.j < 2 + documents.doc_id % 3"
)


def sql_pages(include_text: bool = True) -> str:
    """Subquery producing (d, url, warc_ts, text, lang, group_id)."""
    sent_concat = (
        f"(SELECT string_agg(s, ' ' ORDER BY j) FROM (SELECT j, {SQL_SENTENCE} AS s "
        f"FROM range(4) t(j) WHERE t.j < 2 + d % 3) sub)"
    )
    text_expr = f"('Document ' || d || chr(10) || {sent_concat} || chr(10) || soup)" if include_text else "NULL"
    return (
        f"SELECT d, {SQL_URL} AS url, {SQL_WARC_TS} AS warc_ts, {text_expr} AS text, "
        f"lang, {SQL_GROUP} AS group_id "
        f"FROM (SELECT doc_id AS d, text AS soup, lang FROM documents) pages_base"
    )


def sql_gold_triples() -> str:
    """Subquery: one row per extracted triple with GLOBAL canonical names.

    Columns: d, j, group_id, valid_at, epoch_us, subj, subj_label, pred,
    obj, obj_label, fact, subj_key, obj_key (arithmetic entity identity,
    e.g. 'P3' / 'O5' / 'L2' — used to compute per-group canonicals).
    """
    subj = (
        f"(CASE {SQL_T} WHEN 2 THEN {SQL_OCANON} WHEN 6 THEN {SQL_DSURF} ELSE {SQL_PCANON} END)"
    )
    subj_label = (
        f"(CASE {SQL_T} WHEN 2 THEN '{LABEL_ORG}' WHEN 6 THEN '{LABEL_DOC}' ELSE '{LABEL_PERSON}' END)"
    )
    obj = (
        f"(CASE {SQL_T} WHEN 2 THEN {SQL_O2SURF} WHEN 3 THEN {SQL_LSURF} WHEN 5 THEN {SQL_JSURF} "
        f"WHEN 6 THEN {SQL_PCANON} WHEN 7 THEN {SQL_ESURF} ELSE {SQL_OCANON} END)"
    )
    obj_label = (
        f"(CASE {SQL_T} WHEN 3 THEN '{LABEL_PLACE}' WHEN 5 THEN '{LABEL_PROJECT}' "
        f"WHEN 6 THEN '{LABEL_PERSON}' WHEN 7 THEN '{LABEL_EVENT}' ELSE '{LABEL_ORG}' END)"
    )
    pred = f"({SQL_PREDS}[{SQL_T} + 1])"
    subj_key = f"(CASE {SQL_T} WHEN 2 THEN 'O' || {SQL_O} WHEN 6 THEN 'D' || {SQL_D} ELSE 'P' || {SQL_P} END)"
    obj_key = (
        f"(CASE {SQL_T} WHEN 2 THEN 'O' || {SQL_O2} WHEN 3 THEN 'L' || {SQL_L} WHEN 5 THEN 'J' || {SQL_J} "
        f"WHEN 6 THEN 'P' || {SQL_P} WHEN 7 THEN 'E' || {SQL_E} ELSE 'O' || {SQL_O} END)"
    )
    subj_surf = f"(CASE {SQL_T} WHEN 2 THEN {SQL_OSURF} WHEN 6 THEN {SQL_DSURF} ELSE {SQL_PSURF} END)"
    obj_surf = (
        f"(CASE {SQL_T} WHEN 2 THEN {SQL_O2SURF} WHEN 3 THEN {SQL_LSURF} WHEN 5 THEN {SQL_JSURF} "
        f"WHEN 6 THEN {SQL_PSURF} WHEN 7 THEN {SQL_ESURF} ELSE {SQL_OSURF} END)"
    )
    return (
        f"SELECT d, j, {SQL_GROUP} AS group_id, {SQL_WARC_TS} AS valid_at, "
        f"CAST({SQL_EPOCH} AS BIGINT) * 1000000 AS epoch_us, "
        f"{subj} AS subj, {subj_label} AS subj_label, {pred} AS pred, "
        f"{obj} AS obj, {obj_label} AS obj_label, {SQL_SENTENCE} AS fact, "
        f"{subj_key} AS subj_key, {obj_key} AS obj_key, "
        f"{subj_surf} AS subj_surf, {obj_surf} AS obj_surf "
        f"FROM ({SQL_SENT_ROWS}) sent_rows"
    )


def sql_canonical_cte() -> str:
    """CTE text: gold triples + per-group canonical names.

    Per-group canonical = the longest surface form of the entity OBSERVED in
    that group (tie → lexicographically smallest) — exactly the engine's
    canonical-selection rule, since all alias variants of one entity always
    land in one component (they share the anchor token).

    Defines CTEs: gold, occ, canon, gold_canon (gold with subj_c/obj_c =
    per-group canonical names and subj_uuid/obj_uuid deterministic ids).
    """
    return f"""
gold AS ({sql_gold_triples()}),
occ AS (
  SELECT group_id, subj_label AS label, subj_key AS key, subj_surf AS surface FROM gold
  UNION ALL
  SELECT group_id, obj_label AS label, obj_key AS key, obj_surf AS surface FROM gold
),
canon AS (
  SELECT DISTINCT group_id, label, key,
         first_value(surface) OVER (
           PARTITION BY group_id, label, key
           ORDER BY length(surface) DESC, surface
         ) AS canon_name
  FROM occ
),
gold_canon AS (
  SELECT g.*, cs.canon_name AS subj_c, co.canon_name AS obj_c,
         md5('ent:' || g.group_id || ':' || g.subj_label || ':' || cs.canon_name) AS subj_uuid,
         md5('ent:' || g.group_id || ':' || g.obj_label || ':' || co.canon_name) AS obj_uuid,
         md5('ep:' || 'https://host' || (g.d % 13) || '.example/doc/' || g.d) AS episode_uuid
  FROM gold g
  JOIN canon cs ON cs.group_id = g.group_id AND cs.label = g.subj_label AND cs.key = g.subj_key
  JOIN canon co ON co.group_id = g.group_id AND co.label = g.obj_label AND co.key = g.obj_key
)"""
