"""Benchmark decontamination: flag / drop corpus documents that overlap a
held-out evaluation set by whole n-grams.

The standard training-data hygiene pass (n-gram collision against the
benchmark suite, as popularized by large-LM training reports): any document
sharing at least one length-``n`` token window with a benchmark text is
contaminated and must be excluded from training. The reference has no such
operator (its corpus is the user's own graph episodes); at 100 TB ingest it
is non-optional, so it ships as a first-class corpus op alongside the dedup
family (``functions/dedup.py``).

Scale shape — broadcast small side, stream the corpus, zero shuffle:

- the benchmark suite is tiny relative to the corpus BY DEFINITION (eval
  sets are thousands of documents, the corpus is billions). Its n-gram set
  is built once and broadcast via ``ray.put``; every map task reads the
  same object-store copy — never re-shipped per batch.
- the corpus pass is one stateless ``map_batches``: each task slides an
  n-token window per doc and counts membership hits in the broadcast set,
  unpickled once per worker (``stages.memo``). No exchange, no
  materialization; output adds two narrow columns.
- when the gram set is too big to broadcast as Python strings (a 100M-gram
  suite is ~10 GB of str objects PER WORKER), ``method="bloom_join"`` keeps
  the screen exact at a fraction of the memory: a ~1.2 GB-per-100M-gram
  Bloom filter broadcasts instead, the corpus pass emits candidate windows
  only where the Bloom hits (false-positive rate ``bloom_fpr``; false
  negatives impossible), and ONE hash-partitioned join against the true
  gram set confirms them — the output is bit-identical to the broadcast
  path (parity-tested), and only Bloom-hit windows ever enter the exchange.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from ..stages.memo import map_with_state

__all__ = [
    "BloomFilter",
    "benchmark_ngrams",
    "collision_positions",
    "redact_tokens",
    "ngram_decontaminate",
]

_BLOOM_KEY2 = "fedcba9876543210"  # second fixed siphash key for double hashing


class BloomFilter:
    """Deterministic Bloom filter over strings: double hashing from two
    fixed-key vectorized siphashes (``pd.util.hash_array`` — the same
    process-independent primitive the shuffle bucketing uses), bits packed
    in a numpy uint64 array. ~``1.44·log2(1/fpr)`` bits per item; no false
    negatives; identical across processes and runs."""

    __slots__ = ("bits", "m", "k")

    def __init__(self, n_items: int, fpr: float = 1e-3):
        n = max(1, int(n_items))
        self.m = max(64, int(math.ceil(-n * math.log(fpr) / (math.log(2) ** 2))))
        self.k = max(1, round(self.m / n * math.log(2)))
        self.bits = np.zeros((self.m + 63) // 64, np.uint64)

    def _indices(self, vals: list[str]) -> np.ndarray:
        arr = np.asarray(vals, dtype=object)
        h1 = pd.util.hash_array(arr)
        h2 = pd.util.hash_array(arr, hash_key=_BLOOM_KEY2) | np.uint64(1)
        j = np.arange(self.k, dtype=np.uint64)
        with np.errstate(over="ignore"):
            return (h1[:, None] + j[None, :] * h2[:, None]) % np.uint64(self.m)

    def add_many(self, vals: list[str]) -> None:
        if not vals:
            return
        idx = self._indices(vals).reshape(-1)
        np.bitwise_or.at(self.bits, idx >> np.uint64(6), np.uint64(1) << (idx & np.uint64(63)))

    def contains_many(self, vals: list[str]) -> np.ndarray:
        if not vals:
            return np.zeros(0, bool)
        idx = self._indices(vals)
        hit = (self.bits[idx >> np.uint64(6)] >> (idx & np.uint64(63))) & np.uint64(1)
        return hit.all(axis=1)


def benchmark_ngrams(texts: list[str], n: int = 8) -> frozenset[str]:
    """All length-``n`` whitespace-token windows of the benchmark texts
    (every position; texts shorter than ``n`` tokens contribute nothing —
    too short to be evidence of contamination)."""
    grams: set[str] = set()
    for t in texts:
        toks = (t or "").split()
        for i in range(len(toks) - n + 1):
            grams.add(" ".join(toks[i : i + n]))
    return frozenset(grams)


def collision_positions(toks: list[str], grams: frozenset[str], n: int) -> list[int]:
    """Start positions ``i`` where ``toks[i:i+n]`` is a benchmark n-gram."""
    return [
        i for i in range(len(toks) - n + 1) if " ".join(toks[i : i + n]) in grams
    ]


def redact_tokens(
    toks: list[str], grams: frozenset[str], n: int
) -> tuple[list[str], int]:
    """Remove every token covered by a colliding n-gram window, to a
    FIXPOINT: splicing the survivors together can create NEW collisions
    (``a b [X Y] c d`` → ``a b c d`` may newly contain the gram ``b c``),
    so re-scan until clean. Terminates because each round strictly removes
    tokens. Returns (surviving tokens — a subsequence of the input —,
    n_removed). Invariant (property-tested): the result contains no
    benchmark n-gram."""
    removed = 0
    while True:
        hits = collision_positions(toks, grams, n)
        if not hits:
            return toks, removed
        bad = [False] * len(toks)
        for i in hits:
            for j in range(i, i + n):
                bad[j] = True
        toks = [t for t, b in zip(toks, bad) if not b]
        removed += sum(bad)


class _ContamCounter:
    """Map stage: count benchmark n-gram collisions per document. Built
    once per worker from the broadcast gram set (``stages.memo``), not
    per batch."""

    def __init__(self, grams: frozenset[str], n: int, text_col: str, redact: bool = False):
        self.grams = grams
        self.n = n
        self.text_col = text_col
        self.redact = redact

    def __call__(self, batch: pa.Table) -> pa.Table:
        n, grams = self.n, self.grams
        counts: list[int] = []
        removed: list[int] = []
        texts_out: list[str] = []
        for t in batch.column(self.text_col).to_pylist():
            toks = (t or "").split()
            counts.append(len(collision_positions(toks, grams, n)))
            if self.redact:
                if counts[-1] == 0:
                    # untouched docs keep their original whitespace exactly
                    removed.append(0)
                    texts_out.append(t)
                else:
                    kept, gone = redact_tokens(toks, grams, n)
                    removed.append(gone)
                    texts_out.append(" ".join(kept))
        out = batch.append_column("n_contaminated_ngrams", pa.array(counts, pa.int64()))
        out = out.append_column(
            "contaminated", pa.array([c > 0 for c in counts], pa.bool_())
        )
        if self.redact:
            i = out.schema.get_field_index(self.text_col)
            out = out.set_column(i, self.text_col, pa.array(texts_out, pa.string()))
            out = out.append_column("n_redacted_tokens", pa.array(removed, pa.int64()))
        return out


class _BloomCandidates:
    """Map stage 1 of the bloom_join path: emit one (doc key, gram) row per
    WINDOW the broadcast Bloom filter hits — clean docs (the vast majority)
    emit nothing and never enter the exchange."""

    def __init__(self, bloom: BloomFilter, n: int, text_col: str, id_col: str):
        self.bloom = bloom
        self.n = n
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = self.n
        keys: list[str] = []
        grams: list[str] = []
        ids = batch.column(self.id_col).to_pylist()
        for d, t in zip(ids, batch.column(self.text_col).to_pylist()):
            toks = (t or "").split()
            wins = [" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)]
            for w, hit in zip(wins, self.bloom.contains_many(wins)):
                if hit:
                    keys.append(str(d))
                    grams.append(w)
        return pa.table({"k": pa.array(keys, pa.string()), "g": pa.array(grams, pa.string())})


def _bloom_join_counts(
    docs: "ray.data.Dataset",
    grams: frozenset[str],
    n: int,
    text_col: str,
    id_col: str,
    bloom_fpr: float,
    num_buckets: int | None,
) -> dict[str, int]:
    """Exact per-doc collision-position counts via Bloom pre-filter +
    hash-partitioned verification join. Returns {str(doc id): count} for
    contaminated docs only — bounded by the contamination rate, which is
    tiny by definition (else the corpus IS the benchmark)."""
    import ray.data as rd

    from ..stages.shuffle import bucketed_group_apply

    bloom = BloomFilter(len(grams), fpr=bloom_fpr)
    bloom.add_many(list(grams))

    cand = map_with_state(docs, _BloomCandidates, ray.put(bloom), n, text_col, id_col)
    truth = rd.from_arrow(
        pa.table({"g": pa.array(sorted(grams), pa.string())})
    ).map_batches(
        lambda t: pa.table(
            {"k": pa.nulls(t.num_rows, pa.string()), "g": t.column("g"),
             "is_g": pa.array([True] * t.num_rows)}
        ),
        batch_format="pyarrow",
    )
    cand = cand.map_batches(
        lambda t: t.append_column("is_g", pa.array([False] * t.num_rows)),
        batch_format="pyarrow",
    )

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        is_g = df["is_g"].astype(bool)
        true_g = set(df.loc[is_g, "g"])
        hits = df.loc[~is_g & df["g"].isin(true_g)]
        if hits.empty:
            return pd.DataFrame({"k": pd.Series([], dtype=str), "c": pd.Series([], dtype="int64")})
        return hits.groupby("k", sort=False).size().rename("c").reset_index()

    partials = bucketed_group_apply(cand.union(truth), ["g"], verify, num_buckets=num_buckets)
    # partial counts are per (doc, bucket); total rows ≤ contaminated-window
    # count — the small side by construction, safe to fold on the driver
    out: dict[str, int] = {}
    for r in partials.iter_rows():
        out[r["k"]] = out.get(r["k"], 0) + int(r["c"])
    return out


def ngram_decontaminate(
    docs: "ray.data.Dataset",
    benchmark_texts: list[str],
    n: int = 8,
    text_col: str = "text",
    mode: str = "mark",
    method: str = "broadcast",
    id_col: str = "doc_id",
    bloom_fpr: float = 1e-3,
    num_buckets: int | None = None,
) -> "ray.data.Dataset":
    """Mark (``mode="mark"``), drop (``mode="filter"``), or span-redact
    (``mode="redact"``) documents whose text shares any length-``n`` token
    window with ``benchmark_texts``.

    ``mark`` appends ``n_contaminated_ngrams`` (collision positions, not
    distinct grams) and ``contaminated``; ``filter`` returns only the clean
    rows with the probe columns removed (training-set shape); ``redact``
    keeps every row but removes the contaminated token spans from
    ``text_col`` (to a fixpoint — the result provably contains no benchmark
    n-gram; see ``redact_tokens``), appending the probe columns plus
    ``n_redacted_tokens``. Redacted docs lose their original whitespace
    (tokens rejoin with single spaces); untouched docs are byte-identical.

    ``method="broadcast"`` (default) broadcasts the gram set once through
    the object store and each worker unpickles it once — right for real
    benchmark sizes. ``method="bloom_join"`` is the huge-suite scale path
    (mark/filter only; needs ``id_col``): a Bloom
    filter broadcasts instead (~10-15 bits/gram vs ~100 bytes/gram of str
    objects), Bloom-hit windows are verified exactly through one
    gram-partitioned join, and the per-doc counts — nonzero only for
    contaminated docs, tiny by definition — fold back as a broadcast map.
    Output is identical to the broadcast path (parity-tested)."""
    if mode not in ("mark", "filter", "redact"):
        raise ValueError(f"unknown mode {mode!r}")
    if method not in ("broadcast", "bloom_join"):
        raise ValueError(f"unknown method {method!r}")
    if method == "bloom_join":
        if mode == "redact":
            raise ValueError("redact requires method='broadcast' (needs the gram set in hand)")
        counts = _bloom_join_counts(
            docs, benchmark_ngrams(benchmark_texts, n=n), n, text_col, id_col,
            bloom_fpr, num_buckets,
        )
        cref = ray.put(counts)

        def mark_from_counts(t: pa.Table) -> pa.Table:
            cm = ray.get(cref)
            cs = [cm.get(str(d), 0) for d in t.column(id_col).to_pylist()]
            out = t.append_column("n_contaminated_ngrams", pa.array(cs, pa.int64()))
            return out.append_column("contaminated", pa.array([c > 0 for c in cs], pa.bool_()))

        marked = docs.map_batches(mark_from_counts, batch_format="pyarrow")
    else:
        grams_ref = ray.put(benchmark_ngrams(benchmark_texts, n=n))
        marked = map_with_state(docs, _ContamCounter, grams_ref, n, text_col, mode == "redact")
    if mode in ("mark", "redact"):
        return marked

    def keep_clean(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        clean = t.filter(pc.equal(t.column("n_contaminated_ngrams"), pa.scalar(0)))
        return clean.drop_columns(["n_contaminated_ngrams", "contaminated"])

    return marked.map_batches(keep_clean, batch_format="pyarrow")
