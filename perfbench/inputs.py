"""Seeded input generation. The same seed always yields the same inputs;
the engine only ever sees what these functions return.

- crawl pages: ``fixtures.pages.pages_batch`` over a doc-id range shifted
  by the seed, with seeded filler text, so the gold triple set is known
  from the fixture grammar (``n_sentences`` / ``sentence``);
- ingest scripts: grammar sentences written to a fresh group;
- corpus segments: a base set plus re-crawl segments with a planted number
  of exact re-fetches and near duplicates.
"""

from __future__ import annotations

import random

import pyarrow as pa

from graphiti_hf_ray.fixtures import pages as fx

# lowercase filler: the pinned extractor only matches the capitalised
# fixture vocabulary, so filler adds text volume but never a triple
FILLER = (
    "lorem ipsum dolor sit amet consectetur adipiscing elit sed do eiusmod "
    "tempor incididunt labore dolore magna aliqua enim minim veniam quis "
    "nostrud exercitation ullamco laboris nisi aliquip commodo consequat duis "
    "aute irure reprehenderit voluptate velit esse cillum fugiat nulla pariatur"
).split()

INGEST_GROUP = "live"


def doc_offset(seed: int) -> int:
    """First doc id of the seed's page range."""
    return (seed % 9973) * 100_003


def pages_table(seed: int, n_pages: int, offset: int = 0) -> pa.Table:
    """``n_pages`` crawl pages (PAGES schema plus ``group_id``)."""
    rng = random.Random(f"pages:{seed}:{offset}")
    start = doc_offset(seed) + offset
    ids = list(range(start, start + n_pages))
    soup = [" ".join(rng.choice(FILLER) for _ in range(24)) for _ in ids]
    docs = pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(soup, pa.string()),
            "lang": pa.array(["en"] * n_pages, pa.string()),
        }
    )
    pages = fx.pages_batch(docs)
    return pages.append_column("group_id", pa.array([fx.group_of(d) for d in ids], pa.string()))


def gold_triple_count(seed: int, n_pages: int, offset: int = 0) -> int:
    start = doc_offset(seed) + offset
    return sum(fx.n_sentences(d) for d in range(start, start + n_pages))


def grammar_fact(rng: random.Random, seed: int, n_pages: int) -> tuple[str, str]:
    """(sentence, predicate) of one fact stated on one of the seed's pages."""
    d = doc_offset(seed) + rng.randrange(n_pages)
    j = rng.randrange(fx.n_sentences(d))
    return fx.sentence(d, j), fx.PREDS[fx.template_id(d, j)]


def ingest_script(seed: int, n_pages: int, n_ops: int) -> list[dict]:
    """``n_ops`` single-sentence episodes for ``INGEST_GROUP``."""
    rng = random.Random(f"ingest:{seed}")
    out = []
    for i in range(n_ops):
        text, pred = grammar_fact(rng, seed, n_pages)
        out.append({"name": f"ep-{seed}-{i}", "body": text, "pred": pred})
    return out


# ---------------------------------------------------------------- corpus

CORPUS_VOCAB = [f"t{i:04d}" for i in range(5000)]
NEAR_DUP_SUFFIX = " tweaked footer"


def _doc(rng: random.Random) -> str:
    return " ".join(rng.choice(CORPUS_VOCAB) for _ in range(80))


def corpus_base(seed: int, n_docs: int) -> pa.Table:
    rng = random.Random(f"corpus:{seed}")
    return pa.table(
        {
            "doc_id": pa.array(range(n_docs), pa.int64()),
            "text": pa.array([_doc(rng) for _ in range(n_docs)], pa.string()),
        }
    )


def contamination_texts(seed: int) -> list[str]:
    """Benchmark texts for the decontamination stage, from a vocabulary the
    corpus never uses (so decontamination drops nothing)."""
    rng = random.Random(f"contam:{seed}")
    return [" ".join(f"b{rng.randrange(999)}" for _ in range(40)) for _ in range(3)]


def corpus_segment(seed: int, base: pa.Table, index: int, n_docs: int, n_exact: int, n_near: int, n_pairs: int) -> tuple[pa.Table, dict]:
    """One re-crawl segment: ``n_exact`` verbatim re-fetches and ``n_near``
    tweaked copies of distinct base docs, ``n_pairs`` new docs each with a
    tweaked copy of its own, the rest new. Returns the segment and the drop
    counts an exact screen must report."""
    rng = random.Random(f"segment:{seed}:{index}")
    base_text = base.column("text").to_pylist()
    picked = rng.sample(range(len(base_text)), n_exact + n_near)
    texts = [base_text[i] for i in picked[:n_exact]]
    texts += [base_text[i] + NEAR_DUP_SUFFIX for i in picked[n_exact:]]
    for _ in range(n_pairs):
        t = _doc(rng)
        texts += [t, t + NEAR_DUP_SUFFIX]
    texts += [_doc(rng) for _ in range(n_docs - len(texts))]
    rng.shuffle(texts)
    first = 10_000_000 * (index + 1)
    seg = pa.table(
        {
            "doc_id": pa.array(range(first, first + n_docs), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    expect = {
        "n_new_doc_keys": n_docs - n_exact,
        "fuzzy_dropped_docs": n_pairs,
        "cross_fuzzy_dropped_docs": n_near,
        "cross_minhash_capped_docs": 0,
    }
    return seg, expect
