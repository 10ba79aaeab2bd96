"""Model-based document quality scoring (hashed n-gram linear classifier).

The heuristic quality gates (``textstats.doc_profile``'s Gopher rules)
catch structural junk; real webtext pipelines (CCNet, DCLM, RefinedWeb)
additionally run a LEARNED quality classifier — typically a fasttext-style
linear model over hashed n-gram buckets — and keep documents above a
score threshold. This module provides that stage in the engine's usual
two-layer form:

- ``HashedNgramQuality``: the hashing-trick linear scorer itself, an
  actor-pool ``map_batches`` class. Features are whitespace unigrams +
  bigrams; each feature hashes to one of ``n_buckets`` weight slots
  (bucket = int(md5(feature)[:8], 16) % n_buckets — md5 so the driver
  oracle can reproduce scores exactly in SQL); the document score is the
  sum of bucket weights over all features WITH multiplicity, plus the
  feature count. Pass a trained ``weights`` vector (float, e.g. exported
  from a hashing-trick logistic regression) for real scoring; without
  one, deterministic integer stub weights (``stub_quality_weights``, each
  slot's weight derived from md5 of its bucket id) make every score
  integer-exact and SQL-reconstructible — the same honest-stub pattern
  as the deterministic extractor.
- the real fasttext adapter lives in ``models.FastTextQualityScorer``
  (lazy import, contract-tested offline), matching the reference's
  model-client seams (graphiti_core/embedder/client.py et al.).

Scale shape: pure streaming map — the weight vector is actor state
(loaded once per actor in ``__init__``, a few MB even at 2^22 buckets),
md5 is computed per DISTINCT feature per batch with a per-actor memo,
and per-doc sums are one ``np.add.reduceat``. No exchange, no
materialization; at 100 TB this stage is embarrassingly parallel.

The same hashed feature space also powers DSIR importance resampling
(``dsir_resample``, Xie et al. 2023): hashed n-gram bag models of a
trusted target corpus vs the raw corpus → per-doc log importance
weights (scored by ``HashedNgramQuality`` with the log-ratio vector as
weights) → Gumbel-top-k selection of ~k docs ∝ w without replacement —
one narrow counts exchange, one streaming scoring map, and a
sort+limit over per-batch top-k partials.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

DEFAULT_N_BUCKETS = 1 << 16

# per-actor memo cap: feature -> bucket. 4M object-keyed entries is a few
# hundred MB worst-case; a real crawl's feature stream is heavy-tailed so
# the memo mostly holds the head. Cleared wholesale when full (cheaper and
# flatter than LRU bookkeeping in the hot path).
_MEMO_MAX = 1 << 22


def stub_quality_weights(n_buckets: int = DEFAULT_N_BUCKETS) -> np.ndarray:
    """Deterministic integer weights: slot b holds
    int(md5('w:'+str(b))[:4], 16) - 32768 (symmetric around 0). Used when
    no trained vector is supplied; every downstream score is then exactly
    reproducible by the DuckDB oracle (q36's fused probe)."""
    return np.array(
        [int(hashlib.md5(f"w:{b}".encode()).hexdigest()[:4], 16) - 32768 for b in range(n_buckets)],
        dtype=np.int64,
    )


def _features(text: str) -> list[str]:
    """Whitespace unigrams + adjacent bigrams (joined by one space) —
    fasttext's default wordNgrams=2 shape. ''.split(' ') == [''] so every
    doc has >= 1 feature (keeps the segment-sum below branch-free)."""
    toks = (text or "").split(" ")
    if len(toks) >= 2:
        return toks + [toks[i] + " " + toks[i + 1] for i in range(len(toks) - 1)]
    return toks


def _feature_bucket(feat: str, n_buckets: int) -> int:
    """Hashed-feature bucket: first 8 hex chars of md5(feature) mod
    ``n_buckets``. Quality scoring and both DSIR count passes share it, so
    DSIR weights index the buckets the scorer looks up."""
    return int(hashlib.md5(feat.encode()).hexdigest()[:8], 16) % n_buckets


class HashedNgramQuality:
    """Actor-pool stage: append ``quality_logit`` (sum of hashed-bucket
    weights over unigram+bigram features, int64 for the stub weights /
    float64 for trained ones) and ``n_quality_feats`` (int64) to each row.

    Reference seam parity: the reference scores/filters via pluggable
    model clients (graphiti_core/embedder/client.py pattern); this class
    is the engine's injectable quality-model seam — swap in trained
    weights, or replace the whole class with models.FastTextQualityScorer.
    """

    def __init__(
        self,
        weights: "np.ndarray | None" = None,
        n_buckets: int = DEFAULT_N_BUCKETS,
        text_col: str = "text",
    ):
        if weights is not None:
            self.weights = np.asarray(weights)
            if self.weights.ndim != 1 or len(self.weights) == 0:
                raise ValueError("weights must be a non-empty 1-D vector")
        else:
            self.weights = stub_quality_weights(n_buckets)
        self.n_buckets = len(self.weights)
        self.text_col = text_col
        self._is_int = np.issubdtype(self.weights.dtype, np.integer)
        self._memo: dict[str, int] = {}

    def _bucket(self, feat: str) -> int:
        b = self._memo.get(feat)
        if b is None:
            b = _feature_bucket(feat, self.n_buckets)
            if len(self._memo) >= _MEMO_MAX:
                self._memo.clear()
            self._memo[feat] = b
        return b

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.text_col).to_pylist()
        feats: list[str] = []
        counts = np.empty(len(texts), np.int64)
        for i, t in enumerate(texts):
            f = _features(t)
            feats.extend(f)
            counts[i] = len(f)
        if len(texts) == 0:
            logit_arr = pa.array([], pa.int64() if self._is_int else pa.float64())
            return batch.append_column("quality_logit", logit_arr).append_column(
                "n_quality_feats", pa.array([], pa.int64())
            )
        # md5 once per DISTINCT feature (memoized across batches), then a
        # single segment-sum per doc
        uniq, inv = np.unique(np.asarray(feats, dtype=object), return_inverse=True)
        buckets = np.fromiter((self._bucket(f) for f in uniq), np.int64, len(uniq))
        per_feat = self.weights[buckets[inv]]
        starts = np.r_[0, np.cumsum(counts)[:-1]]
        logits = np.add.reduceat(per_feat, starts)
        if self._is_int:
            logit_arr = pa.array(logits.astype(np.int64), pa.int64())
        else:
            logit_arr = pa.array(logits.astype(np.float64), pa.float64())
        return batch.append_column("quality_logit", logit_arr).append_column(
            "n_quality_feats", pa.array(counts, pa.int64())
        )


def score_quality(
    ds,
    weights: "np.ndarray | None" = None,
    n_buckets: int = DEFAULT_N_BUCKETS,
    text_col: str = "text",
    concurrency=(1, 8),
):
    """Append quality columns to a documents Dataset (streaming map)."""
    return ds.map_batches(
        HashedNgramQuality,
        fn_constructor_kwargs={"weights": weights, "n_buckets": n_buckets, "text_col": text_col},
        batch_format="pyarrow",
        concurrency=concurrency,
    )


def quality_filter(
    ds,
    min_mean_weight: float,
    weights: "np.ndarray | None" = None,
    n_buckets: int = DEFAULT_N_BUCKETS,
    text_col: str = "text",
    concurrency=(1, 8),
):
    """Keep documents whose MEAN feature weight (quality_logit /
    n_quality_feats) clears ``min_mean_weight`` — the length-normalized
    form real pipelines threshold on (a raw logit sum scales with doc
    length). The helper columns are dropped from the output so the stage
    composes transparently inside a pipeline."""
    scored = score_quality(ds, weights, n_buckets, text_col, concurrency)

    def keep(t: pa.Table) -> pa.Table:
        logit = t.column("quality_logit").to_numpy(zero_copy_only=False).astype(np.float64)
        n = t.column("n_quality_feats").to_numpy(zero_copy_only=False).astype(np.float64)
        mask = logit >= min_mean_weight * n  # no divide: exact for int weights
        kept = t.filter(pa.array(mask))
        return kept.drop_columns(["quality_logit", "n_quality_feats"])

    return scored.map_batches(keep, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Unigram LM surprisal (the CCNet perplexity-filter shape, integer-bits form)
# ---------------------------------------------------------------------------


def _floor_log2(v: np.ndarray) -> np.ndarray:
    """Exact floor(log2(v)) for int64 v in [1, 2^53) — frexp's exponent is
    exact wherever the float64 conversion is (a 100 TB corpus is ~2^45
    tokens, far inside the bound; guarded anyway)."""
    if v.size and int(v.max()) >= (1 << 53):
        raise ValueError("count ratio exceeds exact float64 range")
    return (np.frexp(v.astype(np.float64))[1] - 1).astype(np.int64)


def unigram_count_bits(
    ds,
    text_col: str = "text",
    min_count: int = 1,
    num_buckets: int | None = None,
):
    """Pass 1 of the unigram-surprisal scorer: corpus-wide token counts →
    per-token surprisal bits, broadcast once.

    Shape: map-side partial counts (np.unique per batch — the combiner),
    ONE narrow (token, count) exchange to merge, then a vocabulary-sized
    driver collect (same cardinality argument as the BM25 vocabulary and
    the canonical map: a token TYPE table, not the corpus). The bits table
    ships to workers via ``ray.put`` exactly once.

    ``min_count`` is the 100-TB pruning knob: token types below it are
    dropped from the broadcast (webtext type counts follow Zipf — the
    singleton tail is most of the vocabulary but carries no reusable
    signal) and score as unseen. Unseen/pruned tokens cost
    ``default_bits`` = floor(log2(N)) — the count-1 surprisal.

    Returns ``(bits_ref, default_bits, n_total_tokens)`` where bits(t) =
    floor(log2(N // c(t))) — integer-exact, so the DuckDB oracle
    (length(bin(N // c)) - 1) can never drift on float rounding."""
    import ray

    from ..stages.shuffle import bucketed_group_apply

    def partial_counts(t: pa.Table) -> pa.Table:
        toks: list[str] = []
        for x in t.column(text_col).to_pylist():
            toks.extend((x or "").split(" "))
        u, c = np.unique(np.asarray(toks, dtype=object), return_counts=True)
        return pa.table({"t": pa.array(u, pa.string()), "c": pa.array(c, pa.int64())})

    def merge(df):
        return df.groupby("t", as_index=False, sort=False)["c"].sum()

    counts = bucketed_group_apply(
        ds.select_columns([text_col]).map_batches(partial_counts, batch_format="pyarrow"),
        ["t"],
        merge,
        num_buckets=num_buckets,
    ).to_pandas()  # vocabulary-sized (token TYPES)
    # an ALL-empty dataset loses its schema entirely (no 'c' column, not
    # just zero rows) — e.g. every doc was gated out upstream
    n_total = 0 if counts.empty else int(counts["c"].sum())
    if n_total == 0:
        return ray.put({}), 0, 0
    kept = counts[counts["c"] >= min_count]
    bits = _floor_log2((n_total // kept["c"].to_numpy(np.int64)))
    default_bits = int(_floor_log2(np.array([n_total], np.int64))[0])
    return ray.put(dict(zip(kept["t"], (int(b) for b in bits)))), default_bits, n_total


class UnigramSurprisal:
    """Actor-pool stage (pass 2): append ``unigram_surprisal_bits`` — the
    sum of per-token surprisal bits over a doc's tokens (higher = more
    rare-token mass; the integer-exact stand-in for CCNet's KenLM document
    perplexity). The bits table is fetched from the object store once per
    actor in ``__init__``, never per batch."""

    def __init__(self, bits_ref, default_bits: int, text_col: str = "text"):
        import ray

        self.bits = ray.get(bits_ref) if not isinstance(bits_ref, dict) else bits_ref
        self.default_bits = int(default_bits)
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.text_col).to_pylist()
        toks: list[str] = []
        counts = np.empty(len(texts), np.int64)
        for i, x in enumerate(texts):
            tt = (x or "").split(" ")
            toks.extend(tt)
            counts[i] = len(tt)
        if not texts:
            return batch.append_column("unigram_surprisal_bits", pa.array([], pa.int64()))
        uniq, inv = np.unique(np.asarray(toks, dtype=object), return_inverse=True)
        w = np.fromiter(
            (self.bits.get(t, self.default_bits) for t in uniq), np.int64, len(uniq)
        )
        per_tok = w[inv]
        starts = np.r_[0, np.cumsum(counts)[:-1]]
        sums = np.add.reduceat(per_tok, starts)
        return batch.append_column(
            "unigram_surprisal_bits", pa.array(sums.astype(np.int64), pa.int64())
        )


def unigram_surprisal(
    ds,
    text_col: str = "text",
    min_count: int = 1,
    num_buckets: int | None = None,
    concurrency=(1, 8),
):
    """Two-pass unigram surprisal over one Dataset: counts (executes
    eagerly, one exchange + vocab collect) then a streaming scoring map.
    The input lineage RUNS TWICE — callers whose upstream is more than a
    read should ``materialize()`` first (same rule as the pipeline branch
    points)."""
    bits_ref, default_bits, _ = unigram_count_bits(ds, text_col, min_count, num_buckets)
    return ds.map_batches(
        UnigramSurprisal,
        fn_constructor_kwargs={
            "bits_ref": bits_ref,
            "default_bits": default_bits,
            "text_col": text_col,
        },
        batch_format="pyarrow",
        concurrency=concurrency,
    )


def surprisal_filter(
    ds,
    max_mean_bits: float,
    text_col: str = "text",
    min_count: int = 1,
    num_buckets: int | None = None,
    concurrency=(1, 8),
):
    """Drop documents whose MEAN token surprisal exceeds ``max_mean_bits``
    — the CCNet move (filter on document perplexity under a corpus LM):
    high mean surprisal = rare-token mass = gibberish/noise. Divide-free
    compare (bits_sum <= max * n_toks) so integer thresholds stay exact.

    Consumes ``ds`` TWICE (counts pass, then the scoring pass) — callers
    with a non-trivial upstream lineage must ``materialize()`` first (the
    corpus pipeline does)."""
    scored = unigram_surprisal(ds, text_col, min_count, num_buckets, concurrency)

    def keep(t: pa.Table) -> pa.Table:
        bits = t.column("unigram_surprisal_bits").to_numpy(zero_copy_only=False)
        n = np.array(
            [len((x or "").split(" ")) for x in t.column(text_col).to_pylist()], np.int64
        )
        kept = t.filter(pa.array(bits <= max_mean_bits * n))
        return kept.drop_columns(["unigram_surprisal_bits"])

    return scored.map_batches(keep, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# DSIR importance resampling (Xie et al. 2023, "Data Selection for Language
# Models via Importance Resampling") — hashed n-gram form. The published
# recipe: estimate hashed n-gram bag models of a trusted TARGET corpus and
# the raw corpus, weight every raw doc by w(x) = p̂_target(x)/p̂_raw(x), and
# sample k docs ∝ w without replacement (Gumbel top-k).
# ---------------------------------------------------------------------------


def _gumbel_keys(doc_ids: "np.ndarray", seed: int) -> "np.ndarray":
    """Deterministic per-doc Gumbel(0,1) noise: u from 52 md5 bits of
    (seed, doc_id), g = -log(-log(u)). No RNG — rerun-stable like every
    other sampler in this engine (functions/sample.py's md5 thresholds)."""
    out = np.empty(len(doc_ids), np.float64)
    for i, d in enumerate(doc_ids):
        v = int(hashlib.md5(f"dsir:{seed}:{int(d)}".encode()).hexdigest()[:13], 16)
        out[i] = (v + 0.5) / float(1 << 52)
    return -np.log(-np.log(out))


class _BucketCountPartials:
    """Actor-pool partial counter for ``hashed_bucket_counts``: per-batch
    sparse (bucket, count) rows, md5 once per DISTINCT feature with the
    same per-actor memo discipline as HashedNgramQuality."""

    def __init__(self, n_buckets: int, text_col: str):
        self.n_buckets = n_buckets
        self.text_col = text_col
        self._memo: dict[str, int] = {}

    def __call__(self, t: pa.Table) -> pa.Table:
        feats: list[str] = []
        for x in t.column(self.text_col).to_pylist():
            feats.extend(_features(x))
        if not feats:
            return pa.table({"b": pa.array([], pa.int64()), "c": pa.array([], pa.int64())})
        uniq, counts = np.unique(np.asarray(feats, dtype=object), return_counts=True)
        bks = np.empty(len(uniq), np.int64)
        for i, f in enumerate(uniq):
            b = self._memo.get(f)
            if b is None:
                b = _feature_bucket(f, self.n_buckets)
                if len(self._memo) >= _MEMO_MAX:
                    self._memo.clear()
                self._memo[f] = b
            bks[i] = b
        # several features can hash to one bucket: second reduce map-side
        dense = np.bincount(bks, weights=counts.astype(np.float64))
        nz = np.nonzero(dense)[0]
        return pa.table(
            {
                "b": pa.array(nz.astype(np.int64), pa.int64()),
                "c": pa.array(dense[nz].astype(np.int64), pa.int64()),
            }
        )


def hashed_bucket_counts(
    ds,
    text_col: str = "text",
    n_buckets: int = DEFAULT_N_BUCKETS,
    num_buckets: int | None = None,
    concurrency=(1, 8),
) -> "np.ndarray":
    """Corpus-wide hashed-feature bucket counts (the DSIR raw-distribution
    pass): map-side SPARSE partials → one narrow (bucket, count) exchange →
    a feature-space-sized driver collect (≤ n_buckets rows — a bucket
    table, not the corpus; same cardinality argument as
    unigram_count_bits' vocabulary collect)."""
    from ..stages.shuffle import bucketed_group_apply

    def merge(df):
        return df.groupby("b", as_index=False, sort=False)["c"].sum()

    rows = bucketed_group_apply(
        ds.select_columns([text_col]).map_batches(
            _BucketCountPartials,
            fn_constructor_kwargs={"n_buckets": n_buckets, "text_col": text_col},
            batch_format="pyarrow",
            concurrency=concurrency,
        ),
        ["b"], merge, num_buckets=num_buckets,
    ).to_pandas()  # ≤ n_buckets rows
    out = np.zeros(n_buckets, np.int64)
    if not rows.empty:
        out[rows["b"].to_numpy(np.int64)] = rows["c"].to_numpy(np.int64)
    return out


def driver_bucket_counts(texts, n_buckets: int = DEFAULT_N_BUCKETS) -> "np.ndarray":
    """Bucket counts of a DRIVER-SIDE text list — the DSIR target corpus,
    small by definition (it is the exemplar set you trust, e.g. a
    Wikipedia/textbook sample)."""
    out = np.zeros(n_buckets, np.int64)
    memo: dict[str, int] = {}
    for x in texts:
        for f in _features(x):
            b = memo.get(f)
            if b is None:
                b = _feature_bucket(f, n_buckets)
                memo[f] = b
            out[b] += 1
    return out


def dsir_log_ratio(
    raw_counts: "np.ndarray", target_counts: "np.ndarray", alpha: float = 1.0
) -> "np.ndarray":
    """Per-bucket log importance ratio log p̂_target(b) − log p̂_raw(b),
    add-``alpha`` smoothed so unseen buckets stay finite. Plugged into
    ``HashedNgramQuality`` as the weight vector, a document's
    ``quality_logit`` is then exactly its DSIR log importance weight
    log w(x) = Σ_features log-ratio(bucket(feature))."""
    raw = raw_counts.astype(np.float64)
    tgt = target_counts.astype(np.float64)
    n = len(raw)
    if len(tgt) != n:
        raise ValueError(f"bucket-count vectors disagree: {len(tgt)} vs {n}")
    return (np.log(tgt + alpha) - np.log(tgt.sum() + alpha * n)) - (
        np.log(raw + alpha) - np.log(raw.sum() + alpha * n)
    )


def dsir_resample(
    docs,
    target_texts,
    k: int,
    *,
    seed: int = 0,
    alpha: float = 1.0,
    n_buckets: int = DEFAULT_N_BUCKETS,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_buckets: int | None = None,
    broadcast_max_winners: int = 2_000_000,
    concurrency=(1, 8),
    metrics_out: dict | None = None,
):
    """Row-keeping DSIR selection: keep the ``k`` documents of ``docs``
    with the largest Gumbel-perturbed log importance weights
    log w(x) + g — i.e. sample ~k docs without replacement ∝ w, moving
    the selection's n-gram distribution toward the target's.

    Scale shape, stage by stage:

    1. raw bucket counts: one narrow (bucket, count) exchange + a
       feature-space-sized driver collect (``hashed_bucket_counts``);
       target counts are driver-side;
    2. scoring: the log-ratio vector ships once per actor and scoring is
       the existing ``HashedNgramQuality`` streaming map (no exchange);
    3. selection: per-batch local top-k FIRST (the combiner), then a
       global sort+limit over the reduced stream (≤ k rows per input
       block — corpus-independent, so the all-to-all stays cheap at any
       scale);
    4. the winner id set filters ``docs`` via one broadcast (≤
       ``broadcast_max_winners``) or, above the gate, a distributed
       ``semi_join`` — nothing driver-sized on either path.

    ``docs`` is consumed three times (counts, scoring, final filter) —
    materialize upstream lineages first (the corpus pipeline does).
    Deterministic for a fixed input and ``seed``; a seed change is a
    fresh draw. ``metrics_out`` receives ``dsir_selected`` and the two
    feature totals."""
    import ray

    if k <= 0:
        raise ValueError("k must be positive")
    if not target_texts:
        raise ValueError("target_texts must be non-empty (the DSIR target corpus)")

    raw_counts = hashed_bucket_counts(docs, text_col, n_buckets, num_buckets, concurrency)
    tgt_counts = driver_bucket_counts(target_texts, n_buckets)
    lr = dsir_log_ratio(raw_counts, tgt_counts, alpha)
    if metrics_out is not None:
        metrics_out["dsir_raw_feats"] = int(raw_counts.sum())
        metrics_out["dsir_target_feats"] = int(tgt_counts.sum())

    scored = score_quality(
        docs, weights=lr, n_buckets=n_buckets, text_col=text_col, concurrency=concurrency
    )

    def local_topk(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        logw = t.column("quality_logit").to_numpy(zero_copy_only=False).astype(np.float64)
        key = logw + _gumbel_keys(ids, seed)
        if len(key) > k:
            keep = np.argpartition(key, len(key) - k)[len(key) - k :]
            ids, key = ids[keep], key[keep]
        return pa.table(
            {id_col: pa.array(ids, pa.int64()), "dsir_key": pa.array(key, pa.float64())}
        )

    reduced = scored.map_batches(local_topk, batch_format="pyarrow")
    winners = reduced.sort("dsir_key", descending=True).limit(k).materialize()
    n_sel = winners.count()
    if metrics_out is not None:
        metrics_out["dsir_selected"] = n_sel

    if n_sel <= broadcast_max_winners:
        ref = ray.put(frozenset(winners.to_pandas()[id_col].astype("int64").tolist()))

        class _KeepWinners:
            def __init__(self, r, id_col: str):
                self.value_set = pa.array(sorted(ray.get(r)), pa.int64())
                self.id_col = id_col

            def __call__(self, t: pa.Table) -> pa.Table:
                import pyarrow.compute as pc

                return t.filter(
                    pc.is_in(t.column(self.id_col).cast(pa.int64()), value_set=self.value_set)
                )

        return docs.map_batches(
            _KeepWinners, fn_constructor_kwargs={"r": ref, "id_col": id_col},
            batch_format="pyarrow", concurrency=concurrency,
        )

    from .joins import _arrow_types, semi_join

    return semi_join(
        docs, winners.select_columns([id_col]), id_col,
        num_buckets=num_buckets, data_types=_arrow_types(docs),
    )
