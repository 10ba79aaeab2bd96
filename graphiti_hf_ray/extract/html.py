"""Pinned HTML→text extractor (SURVEY.md M11) — FROZEN GOLDEN CODE v1.

The north rule requires byte-identical extracted ``text`` per url vs the
reference extractor. The reference repo has no HTML extractor (its episodes
are already text — graphiti_core/nodes.py:353-363 takes ``content: str``),
so THIS implementation is the pinned reference: version it, never change
its observable behavior. Tests assert ``extract_text(html) == text`` for
every fixture page (pages carry ground-truth ``text``).

Semantics (v1):
- title = contents of the first ``<title>…</title>``, HTML-unescaped;
- body  = contents of each ``<p>…</p>`` in document order, HTML-unescaped;
- output = ``title\\n`` + ``\\n``-joined paragraphs;
- nav / footer / script / other markup is dropped.

Vectorized as a plain function over Arrow batches, called by the extract
phase's shard tasks (stateless; regexes compiled at module import, once
per worker process).
"""

from __future__ import annotations

import html as _htmlmod
import re

import pyarrow as pa

EXTRACTOR_VERSION = "v1"

_TITLE_RE = re.compile(rb"<title>(.*?)</title>", re.S)
_P_RE = re.compile(rb"<p>(.*?)</p>", re.S)


def extract_text(html_bytes: bytes) -> str:
    """Pinned scalar extractor. Do not change (frozen v1)."""
    m = _TITLE_RE.search(html_bytes)
    parts = []
    if m:
        parts.append(_htmlmod.unescape(m.group(1).decode("utf-8", "replace")))
    for pm in _P_RE.finditer(html_bytes):
        parts.append(_htmlmod.unescape(pm.group(1).decode("utf-8", "replace")))
    return "\n".join(parts)


def extract_text_batch(batch: pa.Table) -> pa.Table:
    """pages batch → same batch with ``text`` replaced by extractor output.

    Drops the wide ``html`` column immediately after extraction so downstream
    blocks stay small (SURVEY.md §7.4 "Wide rows").
    """
    htmls = batch.column("html")
    texts = pa.array(
        [extract_text(h) for h in htmls.to_pylist()], pa.string()
    )
    out = batch.drop_columns(["html", "text"]) if "text" in batch.column_names else batch.drop_columns(["html"])
    return out.append_column("text", texts)
