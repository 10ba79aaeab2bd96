"""Corpus cleaning ops for training-data pipelines (SURVEY.md "beyond the
reference" family, sibling of functions/dedup and functions/textstats).

- ``PiiScrub``              — actor-pool stage: emails / phone numbers /
  IPv4 / long digit runs replaced with typed placeholders, per-category
  hit counts emitted as columns (regexes compiled once per actor).
- ``dedup_paragraphs_batch``— WITHIN-doc exact paragraph dedup (first
  occurrence kept) — stateless vectorized map, no shuffle.
- ``remove_boilerplate_lines`` — CORPUS-level frequent-line removal
  (CCNet-style): explode line hashes with per-batch partial counts →
  bucketed count shuffle → frequent-line set broadcast via ``ray.put``
  (size-gated; above the gate callers should join instead) → map-side
  line filter. The shuffle carries (line_hash, partial_count) rows only —
  line text never enters the exchange.
- ``cap_per_domain``        — per-domain document cap (hash-bucketed by
  registrable host, deterministic keep = smallest ``id_col`` values), the
  head-domain guard every web-scale crawl ingest needs.
- ``dedup_spans_global``    — CROSS-doc duplicated-SPAN removal (the
  exact-substring dedup of Lee et al., window form): every k-token
  window occurring more than once corpus-wide survives only at its
  globally first (doc, pos); tokens covered by losing windows are
  spliced out. Two narrow exchanges — window-hash coords (no text), then
  markers meeting the doc rows.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray

# Per-worker token-hash cache for dedup_spans_global (Zipfian corpora: one
# md5 per DISTINCT token, not per window). Both md5 halves are kept so the
# two window-hash lanes draw on independent 64-bit token values — two
# distinct tokens colliding in one lane almost surely differ in the other.
_TOK_PAIR_CACHE: dict[str, tuple[int, int]] = {}
_TOK_PAIR_CACHE_MAX = 1 << 20


def _tok_hash_pair(tok: str) -> tuple[int, int]:
    h = _TOK_PAIR_CACHE.get(tok)
    if h is None:
        d = hashlib.md5(tok.encode()).digest()
        h = (int.from_bytes(d[:8], "little"), int.from_bytes(d[8:], "little"))
        if len(_TOK_PAIR_CACHE) >= _TOK_PAIR_CACHE_MAX:
            _TOK_PAIR_CACHE.clear()
        _TOK_PAIR_CACHE[tok] = h
    return h


PII_PATTERNS: dict[str, str] = {
    # application order matters (dict order is preserved): emails and IPs
    # first (they contain digit substrings), then bare long digit runs,
    # then phone shapes — with a left digit guard so a phone pattern can
    # never bite the tail of a longer run
    "email": r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}",
    "ipv4": r"\b(?:\d{1,3}\.){3}\d{1,3}\b",
    "digit_run": r"(?<!\d)\d{9,}(?!\d)",  # SSN/CC-shaped long digit runs
    "phone": r"(?<!\d)\+?\d{1,3}[-. (]{0,2}\d{3}[-. )]{0,2}\d{3}[-. ]?\d{4}\b",
}


class PiiScrub:
    """Actor-pool stage: replace PII spans with ``<CATEGORY>`` placeholders
    and append ``n_pii_<category>`` count columns. Patterns compile once
    per actor (``__init__``); batches are processed with the compiled
    regexes only."""

    def __init__(self, text_col: str = "text", patterns: dict[str, str] | None = None):
        self.text_col = text_col
        self._rx = {name: re.compile(p) for name, p in (patterns or PII_PATTERNS).items()}

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.text_col).to_pylist()
        counts = {name: np.zeros(len(texts), np.int64) for name in self._rx}
        out = []
        for i, t in enumerate(texts):
            for name, rx in self._rx.items():
                t, n = rx.subn(f"<{name.upper()}>", t)
                counts[name][i] = n
            out.append(t)
        idx = batch.schema.get_field_index(self.text_col)
        batch = batch.set_column(idx, self.text_col, pa.array(out, pa.string()))
        for name in self._rx:
            batch = batch.append_column(f"n_pii_{name}", pa.array(counts[name], pa.int64()))
        return batch


def dedup_paragraphs_batch(batch: pa.Table, text_col: str = "text", sep: str = "\n") -> pa.Table:
    """Drop exact repeated paragraphs within each document (keep first
    occurrence, preserve order) and append ``n_dropped_paragraphs``."""
    texts = batch.column(text_col).to_pylist()
    out, dropped = [], []
    for t in texts:
        seen: set[str] = set()
        kept = []
        n_drop = 0
        for p in t.split(sep):
            if p in seen:
                n_drop += 1
                continue
            seen.add(p)
            kept.append(p)
        out.append(sep.join(kept))
        dropped.append(n_drop)
    idx = batch.schema.get_field_index(text_col)
    batch = batch.set_column(idx, text_col, pa.array(out, pa.string()))
    return batch.append_column("n_dropped_paragraphs", pa.array(dropped, pa.int64()))


def _line_hash(line: str) -> int:
    return int.from_bytes(hashlib.md5(line.encode()).digest()[:8], "little") >> 1


BOILERPLATE_BROADCAST_MAX = 2_000_000  # frequent-line set size gate


def remove_boilerplate_lines(
    docs: "ray.data.Dataset",
    min_doc_frac: float = 0.5,
    text_col: str = "text",
    id_col: str = "doc_id",
    sep: str = "\n",
    min_line_len: int = 4,
) -> "ray.data.Dataset":
    """Remove lines that appear in ≥ ``min_doc_frac`` of documents (nav
    bars, cookie banners, footers). Two passes over the corpus:

    pass 1 (count): per-batch DISTINCT-per-doc line hashes pre-counted
      (combiner) → bucketed sum per hash → hashes above the doc-count
      threshold collected (these are by construction ≤ 1/min_doc_frac
      times fewer than documents — a bounded set, broadcast via ray.put;
      the gate guards pathological parameterizations);
    pass 2 (filter): map-side per-doc line filter against the broadcast
      set; appends ``n_dropped_lines``.

    The input is consumed three times (count, count-pass, filter-pass) —
    pass a parquet-backed or materialized dataset, not an expensive lazy
    lineage.
    """
    from ..stages.shuffle import bucketed_group_apply

    # total docs (cheap metadata count)
    n_docs = docs.count()
    threshold = max(2, int(np.ceil(min_doc_frac * n_docs)))

    def partial_counts(t: pa.Table) -> pa.Table:
        counts: dict[int, int] = {}
        for x in t.column(text_col).to_pylist():
            for h in {
                _line_hash(ln) for ln in x.split(sep) if len(ln) >= min_line_len
            }:  # distinct per doc
                counts[h] = counts.get(h, 0) + 1
        return pa.table(
            {
                "h": pa.array(list(counts.keys()), pa.int64()),
                "n": pa.array(list(counts.values()), pa.int64()),
            }
        )

    def sum_bucket(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("h", as_index=False)["n"].sum()
        return g[g["n"] >= threshold]

    frequent = bucketed_group_apply(
        docs.map_batches(partial_counts, batch_format="pyarrow"), ["h"], sum_bucket
    ).to_pandas()
    if len(frequent) > BOILERPLATE_BROADCAST_MAX:
        raise ValueError(
            f"{len(frequent)} frequent lines exceed the broadcast gate "
            f"({BOILERPLATE_BROADCAST_MAX}); raise min_doc_frac or switch to a join filter"
        )
    bad = frozenset(int(h) for h in frequent["h"]) if len(frequent) else frozenset()
    bad_ref = ray.put(bad)

    def strip(t: pa.Table) -> pa.Table:
        bad_set = ray.get(bad_ref)
        out, dropped = [], []
        for x in t.column(text_col).to_pylist():
            kept = []
            n_drop = 0
            for ln in x.split(sep):
                if len(ln) >= min_line_len and _line_hash(ln) in bad_set:
                    n_drop += 1
                    continue
                kept.append(ln)
            out.append(sep.join(kept))
            dropped.append(n_drop)
        idx = t.schema.get_field_index(text_col)
        t = t.set_column(idx, text_col, pa.array(out, pa.string()))
        return t.append_column("n_dropped_lines", pa.array(dropped, pa.int64()))

    return docs.map_batches(strip, batch_format="pyarrow")


_HOST_RX = re.compile(r"^[a-z][a-z0-9+.-]*://([^/@]*@)?([^/:]+)", re.I)


def host_of(url: str) -> str:
    m = _HOST_RX.match(url)
    return (m.group(2) if m else url).lower()


def cap_per_domain(
    docs: "ray.data.Dataset",
    cap: int,
    url_col: str = "url",
    id_col: str = "doc_id",
) -> "ray.data.Dataset":
    """Keep at most ``cap`` documents per host (deterministic: smallest
    ``id_col`` values win) — the head-domain guard for crawl ingest. One
    bucketed shuffle keyed by host; a hot domain's rows co-locate but the
    per-bucket work is a vectorized sort + head."""
    from ..stages.shuffle import bucketed_group_apply

    def add_host(t: pa.Table) -> pa.Table:
        hosts = [host_of(u) for u in t.column(url_col).to_pylist()]
        return t.append_column("_host", pa.array(hosts, pa.string()))

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([id_col], kind="mergesort")
        return df.groupby("_host", sort=False).head(cap).drop(columns=["_host"])

    with_host = docs.map_batches(add_host, batch_format="pyarrow")
    return bucketed_group_apply(with_host, ["_host"], keep)


def dedup_paragraphs_global(
    docs: "ray.data.Dataset",
    text_col: str = "text",
    id_col: str = "doc_id",
    sep: str = "\n",
    num_buckets: int | None = None,
) -> "ray.data.Dataset":
    """CCNet-style CROSS-document paragraph dedup: each distinct paragraph
    survives only at its globally FIRST occurrence (smallest
    ``(doc_id, par_idx)``); every later copy — in the same doc or any other
    doc — is removed. Complements ``dedup_paragraphs_batch`` (within-doc
    only) and ``remove_boilerplate_lines`` (drops a line EVERYWHERE once
    frequent; this keeps exactly one copy of every paragraph).

    Scale shape — paragraph text crosses the wire ONCE:
    - exchange 1 (keyed by paragraph md5, coords only — 3 narrow columns):
      per hash bucket the winner is min (doc_id, par_idx); losers emit
      (doc_id, par_idx) drop markers. No text in this shuffle.
    - exchange 2 (keyed by doc_id): the exploded text rows and the drop
      markers meet in the doc's bucket; reassembly filters dropped
      positions, rejoins with ``sep`` in original order, and counts drops.
      Two text rows with one ``(id, par_idx)`` mean two docs share an id:
      reassembly raises ``ValueError`` naming it rather than merge them.
    Duplicate-heavy corpora shrink exchange 2's marker side, never grow it
    past the paragraph count.

    Returns (id_col, text, n_dropped_paragraphs) — one row per input doc
    (docs whose every paragraph was dropped return the empty string).
    EMPTY paragraphs (the blank-line structure of ``sep+sep``) are exempt
    from the election and survive in place in every doc.

    BRANCH POINT: ``docs`` is consumed TWICE (once per exchange above).
    If its lineage is expensive (actor pools, upstream shuffles),
    ``.materialize()`` it first or the prefix executes twice — measured
    2× end-to-end in ``pipelines/corpus.prepare_training_set``. A raw
    ``read_parquet`` input is fine to leave lazy (re-reading is cheap).
    """
    import hashlib as _hl

    from ..stages.shuffle import bucketed_group_apply

    def explode_coords(t: pa.Table) -> pa.Table:
        ids, idxs, hs = [], [], []
        for d, txt in zip(t.column(id_col).to_pylist(), t.column(text_col).to_pylist()):
            for i, p in enumerate((txt or "").split(sep)):
                if p == "":
                    # blank-line STRUCTURE, not content: exempt from the
                    # winner election or every doc after the globally
                    # first would lose its paragraph separators
                    continue
                ids.append(d)
                idxs.append(i)
                hs.append(_hl.md5(p.encode()).hexdigest())
        return pa.table(
            {
                id_col: pa.array(ids, t.column(id_col).type),
                "par_idx": pa.array(idxs, pa.int64()),
                "h": pa.array(hs, pa.string()),
            }
        )

    def losers(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([id_col, "par_idx"], kind="mergesort")
        drop = g.groupby("h", sort=False).tail(-1)  # everything but the first
        return drop[[id_col, "par_idx"]]

    drops = bucketed_group_apply(
        docs.map_batches(explode_coords, batch_format="pyarrow"), ["h"], losers,
        num_buckets=num_buckets,
    )

    def explode_text(t: pa.Table) -> pa.Table:
        ids, idxs, ps = [], [], []
        for d, txt in zip(t.column(id_col).to_pylist(), t.column(text_col).to_pylist()):
            for i, p in enumerate((txt or "").split(sep)):
                ids.append(d)
                idxs.append(i)
                ps.append(p)
        return pa.table(
            {
                id_col: pa.array(ids, t.column(id_col).type),
                "par_idx": pa.array(idxs, pa.int64()),
                "par_text": pa.array(ps, pa.string()),
                "_drop": pa.array([0] * len(ids), pa.int64()),
            }
        )

    def mark(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_col: t.column(id_col),
                "par_idx": t.column("par_idx"),
                "par_text": pa.array([""] * t.num_rows, pa.string()),
                "_drop": pa.array([1] * t.num_rows, pa.int64()),
            }
        )

    both = docs.map_batches(explode_text, batch_format="pyarrow").union(
        drops.map_batches(mark, batch_format="pyarrow")
    )

    def reassemble(g: pd.DataFrame) -> pd.DataFrame:
        out_ids, out_texts, out_drops = [], [], []
        for d, rows in g.groupby(id_col, sort=False):
            dropped = set(rows.loc[rows["_drop"] == 1, "par_idx"])
            body = rows[rows["_drop"] == 0].sort_values("par_idx", kind="mergesort")
            if body["par_idx"].duplicated().any():
                raise ValueError(f"duplicate {id_col} {d!r}: ids must be unique per document")
            kept = body[~body["par_idx"].isin(dropped)]
            out_ids.append(d)
            out_texts.append(sep.join(kept["par_text"]))
            out_drops.append(len(dropped))
        return pd.DataFrame({id_col: out_ids, "text": out_texts, "n_dropped_paragraphs": out_drops})

    return bucketed_group_apply(both, [id_col], reassemble, num_buckets=num_buckets)


def dedup_spans_global(
    docs: "ray.data.Dataset",
    k: int = 20,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_buckets: int | None = None,
) -> "ray.data.Dataset":
    """Cross-document duplicated-SPAN removal — the window form of exact
    substring dedup (Lee et al., "Deduplicating Training Data Makes
    Language Models Better"): every length-``k`` token window (stride 1,
    whitespace tokens) that occurs more than once corpus-wide survives
    only at its globally FIRST occurrence (smallest ``(doc_id, pos)``);
    every token covered by a later occurrence's window is removed. A
    duplicated region of length L ≥ k therefore disappears wholesale from
    all but its first site (all its windows lose), which is the paper's
    behavior; up to k-1 tokens adjoining a duplicated region can be
    removed beyond the minimal span (window granularity — documented,
    deterministic).

    Scale shape (mirrors ``dedup_paragraphs_global``):
    - exchange 1 carries (window hash as TWO independent int64 lanes, doc,
      pos) coords — 4 narrow integer columns per TOKEN, never the text and
      never a hex string (ints sort ~2.5× cheaper and ship 4× smaller);
      losers are everything but the per-hash first occurrence. One coord
      row per token is the honest cost of exact substring dedup (the
      suffix-array formulation pays comparably). The lanes are vectorized
      rolling mixes over per-distinct-token md5 halves (one numpy matvec
      per doc instead of one md5 per WINDOW — the same kernel family as
      ``dedup._token_hashes``); equal token windows always collide, and
      two distinct windows collide only if both 64-bit lanes do
      (~2^-128 pairwise, the md5-of-window discrimination this replaces).
    - exchange 2 carries the doc rows + the (doc, pos) markers keyed by
      doc; the splice happens in the doc's bucket. Docs with no losing
      window pass through BYTE-IDENTICAL; spliced docs rejoin with single
      spaces.

    Returns (id_col, text, n_removed_tokens), one row per input doc.

    BRANCH POINT: ``docs`` is consumed twice (one per exchange) — same
    materialize-first rule as ``dedup_paragraphs_global``."""
    from ..stages.shuffle import bucketed_group_apply

    from .dedup import _finalize, _mix_weights

    w = _mix_weights(2 * k)
    w1, w2 = np.ascontiguousarray(w[:k]), np.ascontiguousarray(w[k:])

    def explode_coords(t: pa.Table) -> pa.Table:
        ids, counts = [], []
        h1_parts, h2_parts, pos_parts = [], [], []
        for d, txt in zip(t.column(id_col).to_pylist(), t.column(text_col).to_pylist()):
            toks = (txt or "").split()
            n_w = len(toks) - k + 1
            if n_w <= 0:
                continue
            th1 = np.empty(len(toks), np.uint64)
            th2 = np.empty(len(toks), np.uint64)
            for i, tok in enumerate(toks):
                th1[i], th2[i] = _tok_hash_pair(tok)
            acc1 = np.zeros(n_w, np.uint64)
            acc2 = np.zeros(n_w, np.uint64)
            with np.errstate(over="ignore"):
                for j in range(k):
                    acc1 += th1[j : j + n_w] * w1[j]
                    acc2 += th2[j : j + n_w] * w2[j]
            ids.append(d)
            counts.append(n_w)
            h1_parts.append(_finalize(acc1))
            h2_parts.append(_finalize(acc2))
            pos_parts.append(np.arange(n_w, dtype=np.int64))
        if not counts:
            return pa.table(
                {
                    id_col: pa.array([], t.column(id_col).type),
                    "pos": pa.array([], pa.int64()),
                    "h1": pa.array([], pa.int64()),
                    "h2": pa.array([], pa.int64()),
                }
            )
        rep = [d for d, c in zip(ids, counts) for d in [d] * c]
        return pa.table(
            {
                id_col: pa.array(rep, t.column(id_col).type),
                "pos": pa.array(np.concatenate(pos_parts), pa.int64()),
                "h1": pa.array(np.concatenate(h1_parts).view(np.int64), pa.int64()),
                "h2": pa.array(np.concatenate(h2_parts).view(np.int64), pa.int64()),
            }
        )

    def losers(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([id_col, "pos"], kind="mergesort")
        drop = g.groupby(["h1", "h2"], sort=False).tail(-1)  # all but the global first
        return drop[[id_col, "pos"]]

    marks = bucketed_group_apply(
        docs.map_batches(explode_coords, batch_format="pyarrow"), ["h1", "h2"], losers,
        num_buckets=num_buckets,
    )

    def tag_docs(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_col: t.column(id_col),
                "pos": pa.array([-1] * t.num_rows, pa.int64()),
                "body": t.column(text_col).cast(pa.string()),
            }
        )

    def tag_marks(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_col: t.column(id_col),
                "pos": t.column("pos"),
                "body": pa.nulls(t.num_rows, pa.string()),
            }
        )

    both = docs.map_batches(tag_docs, batch_format="pyarrow").union(
        marks.map_batches(tag_marks, batch_format="pyarrow")
    )

    def splice(g: pd.DataFrame) -> pd.DataFrame:
        out_ids, out_texts, out_rm = [], [], []
        for d, rows in g.groupby(id_col, sort=False):
            body_rows = rows[rows["pos"] == -1]
            txt = body_rows["body"].iloc[0]
            bad_pos = rows.loc[rows["pos"] >= 0, "pos"]
            out_ids.append(d)
            if bad_pos.empty:
                out_texts.append(txt)       # untouched: byte-identical
                out_rm.append(0)
                continue
            toks = (txt or "").split()
            bad = np.zeros(len(toks), bool)
            for p in bad_pos:
                bad[p : p + k] = True
            out_texts.append(" ".join(t for t, b in zip(toks, bad) if not b))
            out_rm.append(int(bad.sum()))
        return pd.DataFrame(
            {id_col: out_ids, "text": out_texts, "n_removed_tokens": out_rm}
        )

    return bucketed_group_apply(both, [id_col], splice, num_buckets=num_buckets)
