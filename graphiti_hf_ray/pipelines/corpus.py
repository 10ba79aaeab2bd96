"""End-to-end corpus → training-set preparation pipeline.

Composes the training-data operator family into the one pipeline a 100 TB
crawl ingest actually runs before any KG or model work (the corpus-side
complement to ``pipelines/kg.build_graph``; the reference starts from
curated episodes, graphiti_hf/graphiti.py:200-260, so this stage has no
reference twin — it is what produces such a corpus):

1. **exact dedup** — one row per distinct text, smallest doc_id wins, in
   a single fused exchange (``functions/dedup.exact_dedup_rows``); with
   ``fuzzy_jaccard`` set, a corpus-wide MinHash fuzzy dedup follows (one
   survivor per near-dup cluster, ``functions/dedup.fuzzy_dedup_rows``);
2. **decontamination** — drop docs colliding with the benchmark suite by
   whole n-grams (``functions/decontam``, broadcast small side);
3. **language / length gate** — keep allowlisted LangId predictions with
   at least ``min_tokens`` whitespace tokens (one stateful actor pass);
   with ``quality_gate=True``, the Gopher quality rules follow (token
   count, mean token length, stopword fraction —
   ``functions/textstats.gopher_quality_batch``, integer-exact);
4. **global paragraph dedup** — every distinct paragraph survives once
   corpus-wide (``functions/textclean.dedup_paragraphs_global``); with
   ``span_dedup_k`` set, a duplicated-SPAN removal pass follows (exact
   substring dedup in window form,
   ``functions/textclean.dedup_spans_global``) to catch repeated regions
   shorter than a paragraph split;
4c. **static domain reweighting** (optional, ``mixture_weights=``) —
   per-stratum weights that may exceed 1 emit epoch-tagged repeats
   (``functions/sample.mixture_sample``), applied after every dedup
   stage so the repeats survive; copies get composite ids;
5. **chunk** — overlapping token windows (``functions/textchunk``);
6. **pack** — fixed-budget training sequences (``functions/textpack``);
   with ``shuffle_seed`` set, packs gain a deterministic ``shuffle_key``
   and are globally sorted by it (one exchange over the PACKED output,
   the smallest table in the chain), so a training reader streams the
   files in a rerun-stable shuffled order;
7. **sink** — partitioned Parquet with an atomic manifest
   (``io.write_table_distributed``), resumable by fingerprint.

Every stage is a streaming Dataset transform; the only exchanges are the
ones the operators themselves declare (dedup hash partitions, the
paragraph-dedup coord/reassembly pair, the pack bucketing). Nothing
materializes the corpus on the driver.
"""

from __future__ import annotations

import hashlib
import os

import pyarrow as pa

__all__ = [
    "prepare_training_set",
    "append_training_set",
    "load_packs",
    "load_tokenizer",
    "iter_training_batches",
]


def _append_knob_dict(
    contam_n: int,
    allow: tuple,
    min_tokens: int,
    max_tokens: int,
    overlap: int,
    pack_budget: int,
) -> dict:
    """The gate/chunk/pack knobs an append must repeat verbatim — built by
    this ONE helper on both sides (prepare's manifest stamp and append's
    parity check) so the two dicts can never drift: a key added to one
    side but not the other would otherwise fail every append (or skip
    validating the new knob)."""
    return {
        "contam_n": contam_n,
        "lang_allow": list(allow),
        "min_tokens": min_tokens,
        "max_tokens": max_tokens,
        "overlap": overlap,
        "pack_budget": pack_budget,
    }


def _shuffle_key_batch(seed: int):
    """Batch fn appending the rerun-stable shuffle key: signed-int64 from
    md5(seed:pack_id). Shared by the pipeline's write-time shuffle and
    ``load_packs``'s read-time epoch reshuffle so both orders agree."""

    def add_key(t: pa.Table) -> pa.Table:
        keys = [
            int.from_bytes(hashlib.md5(f"{seed}:{p}".encode()).digest()[:8], "little", signed=True)
            for p in t.column("pack_id").to_pylist()
        ]
        return t.append_column("shuffle_key", pa.array(keys, pa.int64()))

    return add_key


def load_packs(out_dir: str, shuffle_seed: int | None = None, columns: list[str] | None = None):
    """Read a finished training set back as a streaming Dataset.

    With ``shuffle_seed``, the packs are re-keyed and globally sorted by
    md5(seed:pack_id) ON READ — this is what makes an epoch reshuffle a
    seed change rather than a data rewrite: train epoch k by
    ``load_packs(out, shuffle_seed=k)``; the files on disk never move.
    (The write-time ``shuffle_seed`` in ``prepare_training_set`` bakes
    ONE order into the file layout for readers that just stream files in
    order; this is the multi-epoch form.) The sort is one exchange over
    the packed output — the smallest table in the chain. A stale
    ``shuffle_key`` column from a write-time shuffle is replaced."""
    from .. import io as gio

    ds = gio.read_table_dir_ds(out_dir, "packs", columns=columns)
    # packs are an ORDER-delivering API (baked file order / seeded epoch
    # order), so pin preserve_order on this lineage: Ray's default (False)
    # lets the streaming executor permute blocks between the read/sort and
    # the consumer under load — a baked-order read flaked exactly that way
    # in a loaded full-suite run. Scoped to this dataset's context copy,
    # not the global DataContext.
    ds.context.execution_options.preserve_order = True
    if shuffle_seed is None:
        return ds
    if columns is not None and "pack_id" not in columns:
        raise ValueError("shuffle_seed needs the pack_id column")
    if "shuffle_key" in ds.schema().names:
        ds = ds.drop_columns(["shuffle_key"])
    return ds.map_batches(_shuffle_key_batch(shuffle_seed), batch_format="pyarrow").sort(
        "shuffle_key"
    )


# default-tokenizer memo, MODULE scope: one md5 per distinct token per
# worker process, not per batch. CAPPED: webtext vocabulary grows
# near-linearly with corpus size (the Zipf singleton tail), so an
# unbounded memo is a slow per-worker leak across a long epoch — on
# overflow the whole dict resets (ids are pure hashes, a re-derivation
# costs one md5; no correctness dependence on cache state).
_TOKEN_ID_CACHE: dict[str, int] = {}
_TOKEN_ID_CACHE_MAX = 1_000_000


def load_tokenizer(out_dir: str):
    """The corpus-trained ``BpeTokenizer`` shipped with a training set
    written with ``bpe_vocab_size=`` (``{out_dir}/bpe.json``), or None if
    the set has no tokenizer artifact. Pass its ``.encode`` as
    ``iter_training_batches(tokenize=)``.

    The artifact carries the pack set's fingerprint; a bpe.json whose
    stamp doesn't match the packs beside it (a re-prepare crashed between
    the two writes, or rewrote the packs without retraining) is rejected —
    a tokenizer trained on a DIFFERENT survivor distribution must never
    silently feed the trainer."""
    import json
    import os

    p = os.path.join(out_dir, "bpe.json")
    if not os.path.exists(p):
        return None
    from .. import io as gio
    from ..functions.bpe import BpeTokenizer, load_bpe

    art = load_bpe(p)
    man = os.path.join(out_dir, "packs", gio.MANIFEST)
    try:
        with open(man) as f:
            pack_fp = json.load(f).get("fingerprint")
    except (OSError, ValueError):
        pack_fp = None
    if art.get("set_fingerprint") != pack_fp or pack_fp is None:
        # both cases reject — a tokenizer that can't be PROVEN to match the
        # survivor distribution beside it must never feed the trainer — but
        # the remedies differ: an unstamped artifact may well be valid, and
        # re-running prepare with the SAME knobs resumes the pack write
        # (manifest no-op) and only retrains + stamps the tokenizer
        why = (
            "predates fingerprint stamping, so it cannot be verified against the pack set "
            "beside it — re-run prepare_training_set(bpe_vocab_size=...) with the same knobs "
            "(the pack write resumes; the tokenizer retrains and lands stamped)"
            if art.get("set_fingerprint") is None and pack_fp is not None
            else "was not trained on the pack set beside it (a re-prepare crashed between the "
            "two writes, or rewrote the packs without retraining) — re-run "
            "prepare_training_set(bpe_vocab_size=...) to retrain"
        )
        raise ValueError(f"stale tokenizer artifact: {p} {why}")
    return BpeTokenizer(art)


def _default_tokenize(text: str) -> list:
    memo = _TOKEN_ID_CACHE
    ids = []
    for w in text.split():
        i = memo.get(w)
        if i is None:
            if len(memo) >= _TOKEN_ID_CACHE_MAX:
                memo.clear()
            i = memo[w] = (
                int.from_bytes(hashlib.md5(w.encode()).digest()[:4], "little") & 0x7FFFFFFF
            )
        ids.append(i)
    return ids


def pad_token_lists(col: pa.ListArray, width: int | None, pad_id: int):
    """list<int32> Arrow column → (ids, lengths): a padded int32 matrix of
    shape (n, width) and the unpadded lengths. One vectorized scatter —
    ``within`` = position inside its row, ``abs_idx`` = index into the
    child buffer (offsets need not start at 0 after slicing), truncation
    via the keep mask. Pure kernel; property-tested against a naive pad
    (including sliced/offset arrays)."""
    import numpy as np

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
        if isinstance(col, pa.ChunkedArray):  # older pyarrow keeps the wrapper
            col = col.chunk(0) if col.num_chunks else pa.array([], col.type)
    offsets = col.offsets.to_numpy(zero_copy_only=False)
    flat = col.values.to_numpy(zero_copy_only=False)  # full child buffer
    raw_len = np.diff(offsets)
    n = len(raw_len)
    width = int(width) if width is not None else int(max(raw_len.max(initial=1), 1))
    lengths = np.minimum(raw_len, width).astype(np.int32)
    total = int(raw_len.sum())
    starts = np.cumsum(raw_len) - raw_len
    within = np.arange(total) - np.repeat(starts, raw_len)
    abs_idx = np.repeat(offsets[:-1], raw_len) + within
    keep = within < np.repeat(lengths, raw_len)
    rows = np.repeat(np.arange(n), raw_len)[keep]
    ids = np.full((n, width), pad_id, dtype=np.int32)
    ids[rows, within[keep]] = flat[abs_idx[keep]]
    return ids, lengths


def iter_training_batches(
    out_dir: str,
    batch_size: int,
    *,
    seq_len: int | None = None,
    shuffle_seed: int | None = None,
    approx_shuffle_buffer: int | None = None,
    pad_id: int = 0,
    tokenize=None,
):
    """Stream trainer-ready fixed-shape batches from a finished training
    set — the last hop between the packed Parquet and a training step.

    Yields dicts of numpy arrays: ``input_ids`` int32 of shape
    (≤batch_size, seq_len) padded with ``pad_id``, ``lengths`` int32, and
    ``pack_ids`` (object). With the DEFAULT tokenizer, ``seq_len`` =
    the pack budget the set was written with means no truncation (packs
    never exceed it); a custom ``tokenize`` may emit more ids than the
    budget counts tokens (byte-level BPE tokenizes whitespace and splits
    rare words), so there size ``seq_len`` to the custom tokenizer's
    measured bound or leave it None. Left None, each batch pads to its
    own max length (dynamic shapes).
    ``shuffle_seed`` selects the epoch order via ``load_packs``.

    Two shuffle regimes, picked by ``approx_shuffle_buffer``:

    - ``None`` (default): EXACT epoch order — ``load_packs``'s global
      md5(seed:pack_id) sort. One all-to-all over the packed output;
      right up to the scale where a full sort of the training set is
      affordable.
    - ``N``: the two-level approximate shuffle a 100 TB trainer actually
      runs — deterministic seeded block-order randomization (metadata
      only, ZERO exchange) + an N-row seeded reservoir shuffle inside
      ``iter_batches``. Epoch k is still just a seed change; the order
      is reproducible for a fixed seed but is not the global-sort order.

    ``tokenize`` (text → list[int]) is the injectable seam for a real BPE
    tokenizer; the default hashes whitespace tokens to int31 by md5
    (memoized per distinct token per worker) — deterministic and
    vocab-free, so the plumbing (shape, padding, epoch order) is testable
    without model assets, the same gated-seam pattern as the
    embedder/cross-encoder adapters in ``models.py``.

    Streaming shape: tokenization runs DISTRIBUTED (one zero-exchange
    ``map_batches`` over the packs — the cluster tokenizes, not the
    trainer process); the driver only pads list<int32> rows into the
    dense array. ``iter_batches`` pulls blocks with backpressure, so
    nothing materializes beyond one batch; the only up-front cost is
    ``load_packs``'s single sort when a seed is set."""
    import numpy as np

    tok = tokenize

    def to_ids(t: pa.Table) -> pa.Table:
        f = tok if tok is not None else _default_tokenize
        toks = [f(x or "") for x in t.column("text").to_pylist()]
        return pa.table(
            {
                "pack_id": t.column("pack_id"),
                "token_ids": pa.array(toks, pa.list_(pa.int32())),
            }
        )

    if approx_shuffle_buffer is not None:
        ds = load_packs(out_dir)  # no global sort
        if shuffle_seed is not None:
            ds = ds.randomize_block_order(seed=shuffle_seed)
        iter_kwargs = dict(
            local_shuffle_buffer_size=approx_shuffle_buffer,
            local_shuffle_seed=shuffle_seed,
        )
    else:
        ds = load_packs(out_dir, shuffle_seed=shuffle_seed)
        iter_kwargs = {}
    ds = ds.map_batches(to_ids, batch_format="pyarrow")
    for t in ds.iter_batches(batch_size=batch_size, batch_format="pyarrow", **iter_kwargs):
        ids, lengths = pad_token_lists(t.column("token_ids"), seq_len, pad_id)
        yield {
            "input_ids": ids,
            "lengths": lengths,
            "pack_ids": np.asarray(t.column("pack_id").to_pylist(), dtype=object),
        }


def _lang_length_gate(docs, allow: tuple, min_tokens: int):
    """Stage-3 gate shared by prepare and append: LangId actor pool +
    whitespace-token length floor over the normalized ``text`` column.
    ``allow=()`` disables the language half — and skips the LangId actor
    pool entirely (no point scoring a column the gate never reads)."""
    import pyarrow.compute as pc

    allow = tuple(allow)
    if allow:
        from ..functions.textstats import LangId

        docs = docs.map_batches(LangId, batch_format="pyarrow", concurrency=(1, 4))

    def gate(t: pa.Table) -> pa.Table:
        n_toks = pa.array(
            [len((x or "").split()) for x in t.column("text").to_pylist()], pa.int64()
        )
        keep = pc.greater_equal(n_toks, pa.scalar(min_tokens))
        if allow:
            keep = pc.and_(keep, pc.is_in(t.column("lang_pred"), value_set=pa.array(allow)))
            return t.filter(keep).drop_columns(["lang_pred"])
        return t.filter(keep)

    return docs.map_batches(gate, batch_format="pyarrow")


def _distinct_fps(docs, num_buckets: int):
    """Narrow (fp) table of the distinct md5 fingerprints of the ``text``
    column — the cross-run dedup state ``append_training_set`` anti-joins
    against. One bucketed exchange over 32-byte rows; text never ships."""
    from ..functions.dedup import md5_fp_batch
    from ..stages.shuffle import bucketed_group_apply

    def add(t: pa.Table) -> pa.Table:
        return md5_fp_batch(t, "text", out_col="fp").select(["fp"])

    def uniq(df):
        return df.drop_duplicates("fp")

    return bucketed_group_apply(
        docs.select_columns(["text"]).map_batches(add, batch_format="pyarrow"),
        ["fp"],
        uniq,
        num_buckets=num_buckets,
    )


def prepare_training_set(
    docs: "object",
    benchmark_texts: list[str],
    out_dir: str,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    contam_n: int = 8,
    fuzzy_jaccard: float | None = None,
    span_dedup_k: int | None = None,
    quality_gate: bool = False,
    model_quality_min: float | None = None,
    model_quality_weights=None,
    surprisal_max_bits: float | None = None,
    mixture_weights: dict[str, float] | None = None,
    mixture_col: str = "lang",
    dsir_target_texts: list[str] | None = None,
    dsir_k: int | None = None,
    dsir_seed: int = 0,
    bpe_vocab_size: int | None = None,
    bpe_max_words: int = 32768,
    track_doc_keys: bool = False,
    track_minhash_jaccard: float | None = None,
    lang_allow: tuple[str, ...] = ("en",),
    min_tokens: int = 8,
    max_tokens: int = 512,
    overlap: int = 64,
    pack_budget: int = 1024,
    shuffle_seed: int | None = None,
    fingerprint: str = "corpus-v1",
    collect_counts: bool = False,
    shuffle_buckets: int = 64,
) -> dict:
    """Run the 7-stage corpus pipeline; write packs under
    ``{out_dir}/packs``; return metrics (always ``n_packs`` from the sink
    manifest; per-stage row counts only with ``collect_counts=True``).

    ``track_doc_keys=True`` additionally persists the input's distinct text
    fingerprints (the ``append_training_set`` exact anti-join state);
    ``track_minhash_jaccard=<thr>`` (requires it) widens that state with
    binary-packed MinHash signatures so appends ALSO near-dup-screen new
    batches at Jaccard ≥ thr — see ``append_training_set``'s docstring for
    the screen's semantics and migration notes.

    ``collect_counts`` materializes each stage boundary so the count is
    free and the lineage is never re-executed (counting a LAZY stage would
    re-run everything upstream once per count — and re-entering an
    actor-pool stage from two consumers can deadlock a small cluster).
    Leave it False for production-size runs: the pipeline then streams
    end-to-end with no barrier, and the only count is the manifest's.

    ``lang_allow=()`` disables the language gate (length gate still
    applies); packs are deterministic for a fixed input and knob set, so
    ``fingerprint`` should encode the knobs when callers vary them.

    ``mixture_weights`` requires integer ``id_col`` values (type-checked
    up front — composite copy ids are ``id*stride+epoch``) that are
    unique across the corpus: uniqueness is already what makes pack
    provenance meaningful, and a duplicated id would silently fan out
    through the stage-4c join.

    ``shuffle_buckets`` pins the sort width of EVERY exchange in the chain
    (dedup, join, paragraph-dedup pair; packing has its own fixed bucket
    count — see below). This pipeline chains ~6
    all-to-all stages; left unbounded, each sort emits ~input-many blocks
    and the chained near-empty block counts compound (measured 2.2× slower
    end-to-end at sf0.1) — the bound costs one streaming split/merge per
    exchange and keeps the block count flat. Size it ~2× cluster cores."""
    import pyarrow.compute as pc

    from .. import io as gio
    from ..functions.decontam import ngram_decontaminate
    from ..functions.dedup import exact_dedup_rows, fuzzy_dedup_rows
    from ..functions.textchunk import chunk_documents
    from ..functions.textclean import dedup_paragraphs_global, dedup_spans_global
    from ..functions.textpack import pack_chunks

    def checkpoint(ds, key: str):
        """Optionally materialize + count a stage boundary."""
        if not collect_counts:
            return ds
        ds = ds.materialize()
        metrics[key] = ds.count()
        return ds

    if track_minhash_jaccard is not None and not track_doc_keys:
        raise ValueError("track_minhash_jaccard requires track_doc_keys=True")
    if (dsir_k is None) != (dsir_target_texts is None):
        raise ValueError("dsir_k and dsir_target_texts must be passed together")
    if dsir_k is not None:
        # fail BEFORE the expensive dedup prefix runs, not inside stage 4b2
        if dsir_k <= 0:
            raise ValueError("dsir_k must be positive")
        if not dsir_target_texts:
            raise ValueError("dsir_target_texts must be non-empty (the DSIR target corpus)")

    metrics: dict = {}
    # normalize the text column name ONCE at entry: several stages
    # (LangId, the paragraph/span dedup reassembly) produce/consume the
    # literal "text", so a custom text_col is renamed up front (zero-copy
    # Arrow metadata change) rather than threaded through every stage
    if text_col != "text":
        _orig_text_col = text_col

        def _canon_text(t: pa.Table) -> pa.Table:
            if "text" in t.schema.names:
                raise ValueError(
                    f"input already has a 'text' column alongside text_col="
                    f"{_orig_text_col!r}; rename one"
                )
            return t.rename_columns(
                ["text" if n == _orig_text_col else n for n in t.schema.names]
            )

        docs = docs.map_batches(_canon_text, batch_format="pyarrow")
        text_col = "text"
    # normalized INPUT reference for the optional doc-keys state (stage 7b):
    # re-reading the read-backed input is the documented cheap path (same
    # rule as the mixture strata projection below)
    input_docs = docs
    docs = checkpoint(docs, "n_input")
    # narrow (id, stratum) projection for the optional mixture stage (4c);
    # taken from the INPUT so the stratum is ground-truth metadata (crawl
    # source/domain/lang), not a post-dedup recomputation. Consuming it at
    # join time re-executes the input lineage once — pass a read-backed
    # (or pre-materialized) Dataset when the input prefix is expensive.
    # PRECONDITIONS validated up front (fail fast, before the expensive
    # dedup stages): integer ids (the composite id = id*stride+epoch needs
    # them; ids must already be unique for pack provenance to mean
    # anything — duplicates would fan out through the stage-4c join).
    strata = None
    strata_types: dict = {}
    if mixture_weights is not None:
        from ..functions.joins import _arrow_types

        strata = docs.select_columns([id_col, mixture_col])
        # _arrow_types resolves pandas-block object dtypes by sampling —
        # the input is read-backed here, so the probe is metadata-cheap
        strata_types = _arrow_types(strata)
        if not pa.types.is_integer(strata_types[id_col]):
            raise ValueError(
                f"mixture_weights requires an integer {id_col!r} column "
                f"(composite copy ids are id*stride+epoch); got {strata_types[id_col]}"
            )

    # 1. exact dedup, fused: the min-doc_id row per distinct text survives
    # in ONE exchange (the doc rows shuffle by text fingerprint directly —
    # parity-tested against the composed exact_dedup + semi-join form,
    # which shipped the same text through a second join exchange)
    docs = exact_dedup_rows(
        docs, num_buckets=shuffle_buckets, id_col=id_col, text_col=text_col
    )
    docs = checkpoint(docs, "n_after_exact_dedup")

    # 1b. optional corpus-wide fuzzy dedup (MinHash-LSH clusters → the
    # min-id doc per near-dup cluster survives). BRANCH POINT: the pair
    # generator consumes its input twice (band rows, then shingle payloads)
    # and the loser filter a third time — materialize the boundary so the
    # upstream prefix runs once (same rule as the paragraph-dedup stage).
    if fuzzy_jaccard is not None:
        if (id_col, text_col) != ("doc_id", "text"):
            raise ValueError("fuzzy_jaccard requires doc_id/text column names")
        if not collect_counts:
            docs = docs.materialize()
        docs = fuzzy_dedup_rows(
            docs, fuzzy_jaccard, num_buckets=shuffle_buckets, metrics_out=metrics
        )
        docs = checkpoint(docs, "n_after_fuzzy_dedup")

    # 2. benchmark decontamination (filter mode: clean rows only)
    docs = ngram_decontaminate(docs, benchmark_texts, n=contam_n, text_col=text_col, mode="filter")
    docs = checkpoint(docs, "n_after_decontam")

    # 3. language + length gate
    allow = tuple(lang_allow)
    docs = _lang_length_gate(docs, allow, min_tokens)
    docs = checkpoint(docs, "n_after_gate")

    # 3b. optional Gopher quality gate (integer-exact thresholds: token
    # count, mean token length, stopword fraction — the q13 probe rules,
    # here as a filter). One more narrow map pass, no exchange.
    if quality_gate:
        from ..functions.textstats import gopher_quality_batch

        def qgate(t: pa.Table) -> pa.Table:
            g = gopher_quality_batch(
                pa.table({"doc_id": t.column(id_col), "text": t.column(text_col)})
            )
            return t.filter(g.column("passes_gopher"))

        docs = docs.map_batches(qgate, batch_format="pyarrow")
        docs = checkpoint(docs, "n_after_quality_gate")

    # 3c. optional MODEL quality gate (fasttext-style hashed n-gram linear
    # scorer, functions/quality.py): keep docs whose mean feature weight
    # clears the bar. Weight vector is actor state, loaded once per
    # worker; another pure streaming map, no exchange. Pass trained
    # weights via ``model_quality_weights`` (stub weights otherwise —
    # useful for tests, meaningless as a real quality signal).
    if model_quality_min is not None:
        from ..functions.quality import quality_filter

        docs = quality_filter(
            docs, model_quality_min, weights=model_quality_weights, text_col=text_col
        )
        docs = checkpoint(docs, "n_after_model_quality")

    # 3d. optional corpus-LM surprisal gate (functions/quality.py): drop
    # docs whose mean token surprisal under the corpus's own unigram LM
    # exceeds the bar — the CCNet perplexity filter in integer-bits form.
    # BRANCH POINT: the operator consumes its input twice (global counts
    # pass, then scoring), so the boundary materializes first.
    if surprisal_max_bits is not None:
        from ..functions.quality import surprisal_filter

        if not collect_counts:
            docs = docs.materialize()
        docs = surprisal_filter(
            docs, surprisal_max_bits, text_col=text_col, num_buckets=shuffle_buckets
        )
        docs = checkpoint(docs, "n_after_surprisal")

    # 4. global paragraph dedup (single-paragraph docs == sentence-level
    # exact dedup already ran, so this bites on multi-paragraph corpora).
    # BRANCH POINT: the operator consumes its input twice (a coords-only
    # pass that elects winners, then the text pass the markers rejoin) —
    # un-materialized, the whole upstream prefix (read → dedup → join →
    # decontam → gate) would execute twice (measured 2× end-to-end at
    # sf0.1). Same rule as pipelines/kg.py's branch points; the object
    # store spills if the gated corpus exceeds memory.
    if not collect_counts:  # checkpoint() already materialized this boundary
        docs = docs.materialize()
    docs = dedup_paragraphs_global(
        docs.select_columns([id_col, text_col]), text_col=text_col, id_col=id_col,
        num_buckets=shuffle_buckets,
    )
    docs = docs.filter(expr="text != ''")
    docs = checkpoint(docs, "n_after_paragraph_dedup")

    # 4b. optional cross-doc duplicated-SPAN removal (exact substring
    # dedup, window form): repeated regions shorter than a paragraph —
    # boilerplate headers, license blurbs — survive stages 1 and 4; this
    # splices them out everywhere but their globally first site. BRANCH
    # POINT: the operator consumes its input twice (coords pass, then the
    # marker/doc reassembly) — same materialize rule as stage 4.
    if span_dedup_k is not None:
        if not collect_counts:  # checkpoint() already materialized the boundary
            docs = docs.materialize()
        docs = dedup_spans_global(
            docs.select_columns([id_col, "text"]), k=span_dedup_k,
            id_col=id_col, num_buckets=shuffle_buckets,
        )
        docs = docs.filter(expr="text != ''")
        docs = checkpoint(docs, "n_after_span_dedup")

    # 4b2. optional DSIR importance resampling (Xie et al. 2023): keep the
    # dsir_k docs whose hashed-n-gram distribution best matches the trusted
    # target corpus (Gumbel-top-k ∝ importance weight). AFTER the dedup
    # stages — duplicates would each get their own Gumbel draw and a viral
    # near-dup cluster could crowd the selection — and BEFORE the mixture
    # stage (reweighting applies to the selected set). BRANCH POINT: the
    # operator consumes its input three times (counts, scoring, filter).
    if dsir_k is not None:
        from ..functions.quality import dsir_resample

        if not collect_counts:
            docs = docs.materialize()
        docs = docs.select_columns([id_col, text_col])  # drop stage count cols
        docs = dsir_resample(
            docs, dsir_target_texts, dsir_k, seed=dsir_seed,
            id_col=id_col, text_col=text_col, num_buckets=shuffle_buckets,
            metrics_out=metrics,
        )
        docs = checkpoint(docs, "n_after_dsir")

    # 4c. optional static domain reweighting (mixture_sample, weights may
    # exceed 1): AFTER every dedup stage — repeats added earlier would
    # collapse straight back out of the exact/paragraph/span passes — and
    # BEFORE chunking so pack budgets see the reweighted stream. The
    # stratum rejoins from the input projection through ONE partitioned
    # hash join (narrow (id, stratum) right side); each emitted copy gets
    # a composite id (doc_id * stride + epoch) so chunk/pack provenance
    # stays unique per copy — decode with divmod(id, stride), stride
    # recorded in metrics["mixture_id_stride"].
    if mixture_weights is not None:
        from ..functions.joins import hash_join
        from ..functions.sample import mixture_sample

        # {} is coherent ("drop every stratum") — stride just needs a value
        stride = max((int(w) + 1 for w in mixture_weights.values()), default=1)
        metrics["mixture_id_stride"] = stride
        # BRANCH-POINT + schema-probe rule: docs here is the lazy output of
        # the dedup suffix; hash_join would otherwise probe its schema
        # (re-executing that suffix) and then execute it again for the join
        # itself. Materialize the boundary and pass both sides' types
        # explicitly so no probe runs at all.
        if not collect_counts:  # checkpoint() already materialized otherwise
            docs = docs.materialize()
        # explicit projection: the join keeps exactly left_types' columns,
        # so drop the dedup stages' count columns HERE, visibly, rather
        # than letting the join's column selection do it silently
        docs = docs.select_columns([id_col, text_col])
        docs = hash_join(
            docs, strata, id_col, id_col, num_buckets=shuffle_buckets,
            left_types={id_col: strata_types[id_col], text_col: pa.string()},
            right_types=dict(strata_types),
        )
        docs = mixture_sample(docs, id_col, mixture_col, mixture_weights)

        def composite(t: pa.Table) -> pa.Table:
            new_id = pc.add(
                pc.multiply(
                    t.column(id_col).cast(pa.int64()), pa.scalar(stride, pa.int64())
                ),
                t.column("epoch"),
            )
            return (
                t.drop_columns([id_col, mixture_col, "epoch"]).append_column(id_col, new_id)
            )

        docs = docs.map_batches(composite, batch_format="pyarrow")
        docs = checkpoint(docs, "n_after_mixture")

    # 4d. optional corpus-trained tokenizer: ship the vocabulary WITH the
    # training set (the post-dedup/gate/mixture survivors ARE the
    # distribution the model will train on — upsampled strata weigh more,
    # exactly as they do in the token stream). Artifact lands at
    # {out_dir}/bpe.json; read it back with ``load_tokenizer``. BRANCH
    # POINT: train_bpe consumes the stream once more — materialize the
    # boundary so the dedup suffix runs once (same rule as stages 4/4b).
    bpe_art = None
    if bpe_vocab_size is not None:
        from ..functions.bpe import train_bpe

        if not collect_counts:
            docs = docs.materialize()
        bpe_art = train_bpe(
            docs.select_columns([text_col]), text_col=text_col,
            vocab_size=bpe_vocab_size, max_words=bpe_max_words,
            num_buckets=shuffle_buckets,
        )
        metrics["bpe_merges"] = len(bpe_art["merges"])

    # 5-6. chunk then pack
    chunks = chunk_documents(docs, max_tokens=max_tokens, overlap=overlap, id_col=id_col, text_col=text_col)
    # pack_chunks keeps its own FIXED num_buckets: bucket count defines
    # pack COMPOSITION, which must not vary with the cluster-sizing knob
    packs = pack_chunks(chunks, budget=pack_budget, id_col=id_col)

    # 6b. optional deterministic global shuffle: a rerun-stable
    # shuffle_key (md5 of seed:pack_id) + one sort over the packed
    # output — epoch reshuffles are a seed change, never a data rewrite.
    # Composition is untouched; only the emission order moves.
    if shuffle_seed is not None:
        packs = packs.map_batches(
            _shuffle_key_batch(shuffle_seed), batch_format="pyarrow"
        ).sort("shuffle_key")
        # the baked-order guarantee ("readers that stream files in order
        # get this order") needs the sink's (task, block) file indices to
        # follow the sorted block order — pin preserve_order for THIS
        # lineage's execution (context is shared along it, so the seeded
        # write trades a little scheduling freedom for determinism; the
        # unseeded default path is untouched)
        packs.context.execution_options.preserve_order = True

    # 7. partitioned, resumable sink
    # mixture_col only reaches the fingerprint when the stage is ON — a
    # stratum-column name with no weights has no effect on the output
    mix_fp = (
        (sorted(mixture_weights.items()), mixture_col) if mixture_weights is not None else None
    )
    # EVERY output-shaping input belongs in the fingerprint — a retrained
    # quality model or an updated benchmark suite with identical scalar
    # knobs must NOT resume the stale pack set
    bt_fp = hashlib.md5("\x1f".join(benchmark_texts).encode()).hexdigest()
    w_fp = None
    # weights only shape the output when the gate is ON — weights passed
    # with no threshold must not bust resume for an identical output
    if model_quality_weights is not None and model_quality_min is not None:
        import numpy as _np

        w_fp = hashlib.md5(
            _np.ascontiguousarray(
                _np.asarray(model_quality_weights, dtype=_np.float64)
            ).tobytes()
        ).hexdigest()
    # DSIR selection shapes the output only when enabled; the TARGET texts
    # are part of the knob (a different exemplar set = a different set)
    dsir_fp = (
        None
        if dsir_k is None
        else (
            dsir_k,
            dsir_seed,
            hashlib.md5("\x1f".join(dsir_target_texts).encode()).hexdigest(),
        )
    )
    fp = hashlib.md5(
        f"{fingerprint}:{contam_n}:{bt_fp}:{fuzzy_jaccard}:{span_dedup_k}:{quality_gate}:"
        f"{model_quality_min}:{w_fp}:{surprisal_max_bits}:{mix_fp}:{dsir_fp}:"
        f"{allow}:{min_tokens}:{max_tokens}:{overlap}:{pack_budget}:{shuffle_seed}".encode()
    ).hexdigest()
    # the knobs an append must repeat are stamped into the manifest so
    # append_training_set can validate parity instead of trusting the
    # caller (a mismatched pack_budget would silently mix pack shapes)
    metrics["n_packs"] = gio.write_table_distributed(
        packs,
        f"{out_dir}/packs",
        fp,
        metrics={
            "append_knobs": _append_knob_dict(
                contam_n, allow, min_tokens, max_tokens, overlap, pack_budget
            )
        },
    )

    # 7a. the tokenizer artifact is stamped with the pack set's fingerprint
    # and written AFTER the packs (a crash between the two leaves a stale-
    # stamped bpe.json that load_tokenizer rejects, never a tokenizer that
    # silently mismatches the survivor distribution it sits beside). A
    # bpe-less re-prepare that rewrote the packs sweeps a stale artifact
    # for the same reason; an artifact whose stamp matches the (unchanged)
    # set is kept — same packs, same distribution, still valid.
    bpe_path = os.path.join(out_dir, "bpe.json")
    if bpe_art is not None:
        from ..functions.bpe import save_bpe

        bpe_art["set_fingerprint"] = fp
        save_bpe(bpe_art, bpe_path)
    elif os.path.exists(bpe_path):
        import json as _json

        try:
            with open(bpe_path) as f:
                stale = _json.load(f).get("set_fingerprint") != fp
        except (OSError, ValueError):
            stale = True
        if stale:
            os.remove(bpe_path)

    # 7b. optional cross-run dedup state (what append_training_set
    # anti-joins new batches against): the distinct text fingerprints of
    # the INPUT — not the survivors, so a doc any gate dropped still
    # blocks an identical future copy (it would be dropped again anyway).
    # Written AFTER the packs on purpose: the safe crash order is
    # packs-then-keys (keys-first + crash would make a rerun's anti-join
    # drop everything and bake an empty pack set under a valid manifest).
    # A knob change rebuilds the packs (new fp ⇒ rmtree), so stale append
    # keys are swept with the same trigger.
    if track_doc_keys:
        import shutil

        keys_root = os.path.join(out_dir, "doc_keys")
        if track_minhash_jaccard is None:
            keys_fp, keys_rows, keys_man = fp, _distinct_fps(input_docs, shuffle_buckets), None
        else:
            # near-dup append screening: widen the state with binary-packed
            # MinHash signatures + band keys per distinct INPUT text (same
            # "anything ever seen blocks its future copies" semantics as the
            # exact fps — here extended to copies within estimator noise of
            # the threshold). The keys fingerprint folds the minhash params
            # in so toggling the knob rebuilds the state even though the
            # BASE packs (which don't depend on it) resume untouched; the
            # rebuild sweep below also removes every append slot (packs AND
            # keys) so previously appended batches re-run from scratch.
            from ..functions.dedup import N_BANDS, N_PERM, minhash_state_rows

            keys_fp = hashlib.md5(
                f"{fp}:mh:{track_minhash_jaccard}:{N_PERM}:{N_BANDS}".encode()
            ).hexdigest()
            keys_rows = minhash_state_rows(input_docs, num_buckets=shuffle_buckets)
            keys_man = {
                "minhash": {
                    "jaccard": track_minhash_jaccard,
                    "n_perm": N_PERM,
                    "n_bands": N_BANDS,
                }
            }
        if not gio.manifest_matches(os.path.join(keys_root, "base"), keys_fp):
            # the keys state is being rebuilt (first prepare, or the minhash
            # knob toggled under an UNCHANGED pack fingerprint). Any append
            # slots' keys die with it, so their PACK slots must go too:
            # left behind, every batch's re-run would trip the half-written
            # check on the OTHER stranded batches (an unrecoverable cycle),
            # and the packs would serve docs the rebuilt seen-set no longer
            # masks. Same semantics as every other knob change — re-prepare
            # sweeps appends by design (there, via the pack-fp rewrite).
            shutil.rmtree(keys_root, ignore_errors=True)
            packs_root = os.path.join(out_dir, "packs")
            if os.path.isdir(packs_root):
                for nm in os.listdir(packs_root):
                    if nm.startswith("append-"):
                        shutil.rmtree(os.path.join(packs_root, nm), ignore_errors=True)
        metrics["n_doc_keys"] = gio.write_table_distributed(
            keys_rows, os.path.join(keys_root, "base"), keys_fp, metrics=keys_man
        )
    return metrics


def append_training_set(
    docs_new,
    benchmark_texts: list[str],
    out_dir: str,
    *,
    fingerprint: str,
    id_col: str = "doc_id",
    text_col: str = "text",
    contam_n: int = 8,
    lang_allow: tuple[str, ...] = ("en",),
    min_tokens: int = 8,
    max_tokens: int = 512,
    overlap: int = 64,
    pack_budget: int = 1024,
    shuffle_buckets: int = 64,
) -> dict:
    """Incrementally append a new document batch to an existing training
    set — the corpus-side mirror of the KG pipeline's TS8 incremental
    model (new crawl snapshots land as new pack files; nothing already
    written moves). The batch is exact-deduped WITHIN itself, anti-joined
    against the set's ``doc_keys`` state (every text fingerprint ever
    ingested — one bucketed exchange over 32-byte fp rows, the scale path
    when the seen-set outgrows a broadcast), then decontaminated, gated,
    chunked and packed with the SAME stage code as ``prepare_training_set``
    and written under a per-batch slot ``packs/append-<md5('batch:'+name)>/``
    (full 32-hex digest — truncating it could collide two batch names and
    sweep the wrong slot) with per-batch-salted pack ids. ``load_packs`` /
    ``iter_training_batches`` serve the union automatically; read-time
    epoch reshuffles keep working (seeded keys are per-pack-id).

    Requirements and scope, explicit:

    - the base set must be prepared with ``track_doc_keys=True`` and
      WITHOUT a write-time ``shuffle_seed`` (a baked file order cannot
      incorporate future appends; read-time seeds are the multi-epoch
      form anyway) — both validated up front, as is doc_keys/base's
      manifest fingerprint matching the pack set's (a stale keys state —
      base re-prepared without the flag — would silently anti-join every
      doc away);
    - pass the SAME chunk/pack knobs as the base (not verifiable from the
      output; a mismatched ``pack_budget`` silently mixes shapes);
    - ``fingerprint`` names the batch (e.g. the crawl-segment id) and
      keys idempotence: re-running the same append is a manifest no-op;
      re-running the same batch NAME with CHANGED knobs or benchmark
      texts rebuilds that batch in place (its slot — packs and keys — is
      swept before the anti-join, so a benchmark update re-screens the
      batch's own docs instead of baking an empty append beside stale
      packs); a crash between the two writes resumes correctly because
      packs land BEFORE the doc-keys extension (keys-first + crash would
      make the rerun's anti-join drop everything), and a half-written
      slot BLOCKS other batches until its own batch re-runs (a different
      batch appended over it would serve shared docs twice — the crashed
      batch's keys never landed);
    - appends are single-writer: run them one at a time (batch B's
      anti-join must see batch A's keys);
    - cross-run dedup is exact-document scope by default. A base prepared
      with ``track_minhash_jaccard=<thr>`` additionally carries per-doc
      MinHash signatures in its doc_keys state, and appends then run a
      NEAR-dup screen too: within-batch fuzzy dedup (exact-Jaccard
      verified, prepare's stage-1b operator) plus a cross-run screen
      against every signature ever ingested (Jaccard ESTIMATED from
      signature agreement — the state's text is never re-read; see
      ``functions.dedup.fuzzy_cross_dedup_rows`` for the broadcast/scan
      shape and its batch-size gate). Toggling the knob on an existing
      set keeps the BASE packs (they don't depend on it) but rebuilds the
      keys state and sweeps every append slot — packs and keys — so
      previously appended batches re-run from scratch (stranded pack
      slots would otherwise serve docs the rebuilt seen-set no longer
      masks, and would block every other batch's re-run on the
      half-written check). Paragraph/span dedup, mixtures and
      BPE training remain prepare-time passes — re-prepare to refresh
      those (which sweeps appends by design).

    Returns ``{"n_packs_appended", "n_new_doc_keys"}``; near-dup-screened
    appends add ``fuzzy_dropped_docs`` (within batch),
    ``cross_fuzzy_dropped_docs`` and ``cross_minhash_capped_docs`` (hot-key
    cap — nonzero voids the screen's completeness for those keys)."""
    import json
    import shutil

    import pyarrow.parquet as pq

    from .. import io as gio
    from ..functions.decontam import ngram_decontaminate
    from ..functions.dedup import exact_dedup_rows
    from ..functions.joins import _arrow_types, semi_join
    from ..functions.textchunk import chunk_documents
    from ..functions.textpack import pack_chunks

    # a falsy/non-string name would poison the slot hash AND the manifest
    # batch-match sweep (None == a missing "batch" key)
    if not fingerprint or not isinstance(fingerprint, str):
        raise ValueError("fingerprint must name the batch (non-empty string)")
    if not os.path.exists(os.path.join(out_dir, "packs", gio.MANIFEST)):
        raise ValueError(f"no completed pack set under {out_dir} — run prepare_training_set first")
    keys_root = os.path.join(out_dir, "doc_keys")
    if not os.path.isdir(keys_root):
        raise ValueError(
            "base set has no doc_keys state — prepare_training_set(track_doc_keys=True) is "
            "the precondition for appends"
        )
    # the keys state must belong to THIS pack set: prepare writes both
    # under the same fingerprint (plus the minhash-param suffix when the
    # state carries signatures), so a doc_keys/base whose manifest carries
    # a different fp is stale (the base was re-prepared without
    # track_doc_keys=True, toggled minhash tracking, or crashed between the
    # pack and key writes) — anti-joining against it would silently drop
    # every doc the swept pack set once held and bake an empty append under
    # a valid manifest
    def _man(d: str) -> dict:
        try:
            with open(os.path.join(d, gio.MANIFEST)) as f:
                return json.load(f)
        except (OSError, ValueError):
            return {}

    with open(os.path.join(out_dir, "packs", gio.MANIFEST)) as f:
        base_man = json.load(f)
    base_fp = base_man.get("fingerprint")
    mh = _man(os.path.join(keys_root, "base")).get("minhash")
    expect_kfp = (
        base_fp
        if mh is None
        else hashlib.md5(
            f"{base_fp}:mh:{mh.get('jaccard')}:{mh.get('n_perm')}:{mh.get('n_bands')}".encode()
        ).hexdigest()
    )
    if not gio.manifest_matches(os.path.join(keys_root, "base"), expect_kfp):
        raise ValueError(
            "doc_keys state is stale: doc_keys/base's fingerprint does not match the pack "
            "set's — re-run prepare_training_set(track_doc_keys=True) before appending"
        )
    if mh is not None:
        # signature-bearing state: the screen re-derives signatures for the
        # batch, so the engine's parameters must match the state's (a code
        # upgrade that changed them would silently corrupt every estimate)
        from ..functions.dedup import N_BANDS, N_PERM

        if mh.get("n_perm") != N_PERM or mh.get("n_bands") != N_BANDS:
            raise ValueError(
                f"doc_keys minhash state was built with n_perm={mh.get('n_perm')}/"
                f"n_bands={mh.get('n_bands')} but this engine uses {N_PERM}/{N_BANDS} — "
                "re-prepare the base"
            )
        if id_col != "doc_id":
            raise ValueError(
                "near-dup append screening requires id_col='doc_id' (the pair "
                "machinery's contract, same as prepare's fuzzy_jaccard stage)"
            )
    # knob parity with the base, validated from the manifest stamp rather
    # than trusted (a mismatched pack_budget silently mixes pack shapes;
    # a mismatched gate changes which docs survive)
    allow = tuple(lang_allow)
    want = base_man.get("append_knobs")
    got = _append_knob_dict(contam_n, allow, min_tokens, max_tokens, overlap, pack_budget)
    if want is not None and want != got:
        diff = {
            k: (want.get(k), got.get(k)) for k in set(want) | set(got) if want.get(k) != got.get(k)
        }
        raise ValueError(
            f"append knobs must match the base set's (base, append): {diff} — "
            "re-prepare to change them"
        )
    # a baked (write-time shuffled) base cannot absorb appends in order
    for dirpath, dirnames, filenames in os.walk(os.path.join(out_dir, "packs")):
        gio._prune_tmp(dirnames)
        part = next((f for f in sorted(filenames) if f.endswith(".parquet")), None)
        if part is not None:
            if "shuffle_key" in pq.read_schema(os.path.join(dirpath, part)).names:
                raise ValueError(
                    "base set was written with shuffle_seed (baked order); appends require an "
                    "unseeded base — use read-time seeds (load_packs(shuffle_seed=)) for epochs"
                )
            break

    # input validation BEFORE anything destructive (the rebuild path
    # sweeps this batch's live slot below — a refusal over a bad input
    # schema must come first, or the refusal costs the batch its packs):
    # the rename is lazy, but the schema probe surfaces both collision
    # checks eagerly (metadata-cheap on read-backed inputs, one small
    # task on mapped ones — the same price _arrow_types already paid)
    docs = docs_new
    if text_col != "text":
        def _canon(t: pa.Table) -> pa.Table:
            if "text" in t.schema.names:
                raise ValueError(f"input already has a 'text' column alongside text_col={text_col!r}")
            return t.rename_columns(["text" if n == text_col else n for n in t.schema.names])
        docs = docs_new.map_batches(_canon, batch_format="pyarrow")
    in_types = _arrow_types(docs)
    if "fp" in in_types:
        raise ValueError("input already has an 'fp' column — rename it; 'fp' is the join key")

    bt_fp = hashlib.md5("\x1f".join(benchmark_texts).encode()).hexdigest()
    # the minhash params reach the append fingerprint only when the state
    # carries them (toggling the knob must rebuild re-run batches, while
    # signature-less sets keep their recorded fingerprints byte-identical)
    mh_fp = "" if mh is None else f":mh:{mh['jaccard']}:{mh['n_perm']}:{mh['n_bands']}"
    afp = hashlib.md5(
        f"append:{fingerprint}:{contam_n}:{bt_fp}:{allow}:{min_tokens}:{max_tokens}:"
        f"{overlap}:{pack_budget}{mh_fp}".encode()
    ).hexdigest()
    # dirs are keyed by the batch NAME alone; the manifest fingerprint
    # carries the full knob set. Same NAME + same knobs = no-op; same NAME
    # + changed knobs/benchmark = rebuild THIS batch (sweep its slot before
    # the anti-join reads the seen-set, so the batch's own old keys can't
    # mask its docs from the rebuild — otherwise a benchmark update would
    # bake an empty new append while the stale packs kept serving)
    # full digest: a truncated slot hash colliding across two batch NAMES
    # would silently destroy the earlier batch's slot as "stale"
    slot = hashlib.md5(f"batch:{fingerprint}".encode()).hexdigest()
    pack_dir = os.path.join(out_dir, "packs", f"append-{slot}")
    keys_dir = os.path.join(keys_root, f"append-{slot}")
    if gio.manifest_matches(pack_dir, afp) and gio.manifest_matches(keys_dir, afp):
        pman0 = _man(pack_dir)
        out = {
            "n_packs_appended": pman0.get("rows", 0),
            "n_new_doc_keys": _man(keys_dir).get("rows", 0),
        }
        if mh is not None:  # the no-op echoes the recorded screen metrics
            for k in (
                "fuzzy_dropped_docs",
                "minhash_dropped_docs",
                "cross_fuzzy_dropped_docs",
                "cross_minhash_capped_docs",
            ):
                out[k] = pman0.get(k, 0)
        return out

    # crash hygiene across OTHER batches — and it runs BEFORE any sweep,
    # so a refusal can never follow a destructive step: packs land before
    # keys, so a slot with exactly one complete side is a crash remnant.
    # Appending a DIFFERENT batch over it would either serve duplicates
    # (packs without keys: that batch's docs are absent from the seen-set)
    # or lose documents (keys without packs: masked yet never served) —
    # refuse and name the batch to re-run. Slots whose manifests carry
    # THIS batch's name (the current slot, or an older slot layout) are
    # ours to rebuild: collected read-only here, swept after validation.
    packs_root = os.path.join(out_dir, "packs")
    names: set = set()
    for root in (packs_root, keys_root):
        if os.path.isdir(root):
            names.update(n for n in os.listdir(root) if n.startswith("append-"))
    # two older layouts are claimable as ours: slots stamped with this
    # batch's name under any directory name, and the pre-stamp layout
    # whose name was the truncated digest (its manifests carry no batch
    # key, so only the name identifies it — without this match a complete
    # pre-stamp slot would defeat the rebuild: its keys stay in the
    # seen-set, mask every doc, and the rebuild bakes an empty slot while
    # the stale packs keep serving)
    mine = [f"append-{slot}", f"append-{slot[:12]}"]
    for nm in sorted(names - set(mine)):
        pman = _man(os.path.join(packs_root, nm))
        kman = _man(os.path.join(keys_root, nm))
        if fingerprint in (pman.get("batch"), kman.get("batch")):
            mine.append(nm)
            continue
        if not (
            pman.get("complete")
            and kman.get("complete")
            and pman.get("fingerprint") == kman.get("fingerprint")
        ):
            b = pman.get("batch") or kman.get("batch")
            hint = (
                f"re-run batch {b!r} before appending others"
                if b is not None
                # pre-stamp crash remnant: no manifest names its batch, so
                # a re-run can't claim it — manual removal is the remedy
                else f"it predates batch stamping — remove {os.path.join(packs_root, nm)} "
                f"and {os.path.join(keys_root, nm)} and re-run its batch before appending others"
            )
            raise ValueError(
                f"half-written append slot {nm}: its packs and doc_keys disagree — {hint}"
            )
        if mh is not None:
            # every surviving keys slot must carry signatures: the cross-run
            # screen reads band_keys/sig across the WHOLE state, and a
            # signature-less slot (appended before the base toggled minhash
            # tracking) would crash the read mid-append. Read-only check —
            # it runs before any sweep, over every part's footer.
            parts = gio.part_files(os.path.join(keys_root, nm))
            if any("band_keys" not in pq.read_schema(p).names for p in parts):
                raise ValueError(
                    f"append slot {nm} (batch {kman.get('batch')!r}) predates minhash "
                    "tracking — re-run that batch before appending others"
                )
    for nm in mine:
        shutil.rmtree(os.path.join(packs_root, nm), ignore_errors=True)
        shutil.rmtree(os.path.join(keys_root, nm), ignore_errors=True)

    # keep_fp: the dedup pass already hashed every text — reuse that
    # fingerprint for the anti-join and the keys extension instead of
    # re-hashing the whole batch
    docs = exact_dedup_rows(
        docs, num_buckets=shuffle_buckets, id_col=id_col, text_col="text", keep_fp="fp"
    )
    seen = gio.read_table_dir_ds(out_dir, "doc_keys", columns=["fp"])
    fresh = semi_join(
        docs, seen, "fp", anti=True, num_buckets=shuffle_buckets,
        data_types={**in_types, "fp": pa.string()},
    )
    if mh is not None:
        # signature columns computed ONCE, before the branch point: the
        # screen consumes them several times and the keys extension persists
        # them (binary-packed; add_minhash_cols)
        from ..functions.dedup import add_minhash_cols

        nb = int(mh["n_bands"])
        fresh = fresh.map_batches(
            lambda t: add_minhash_cols(t, "text", nb), batch_format="pyarrow"
        )
    # BRANCH POINT: fresh feeds the pack chain AND the doc-keys extension
    fresh = fresh.materialize()

    am: dict = {}
    if mh is not None:
        # near-dup screening, both scopes of prepare's fuzzy stage: (1)
        # WITHIN the batch (exact-Jaccard-verified MinHash clusters, the
        # min-id doc survives — same operator as prepare stage 1b), then
        # (2) ACROSS runs against the persisted signature state (Jaccard
        # estimated from signature agreement — no text is ever re-read).
        # Both consume their input repeatedly; fresh is materialized and
        # the intermediate is batch-sized, so materialize that too.
        from ..functions.dedup import fuzzy_cross_dedup_rows, fuzzy_dedup_rows

        kept_rows = fuzzy_dedup_rows(
            fresh, mh["jaccard"], num_buckets=shuffle_buckets, metrics_out=am,
            sig_col="sig",  # reuse the signatures computed above, not a second pass
        ).materialize()
        state = gio.read_table_dir_ds(out_dir, "doc_keys", columns=["fp", "band_keys", "sig"])
        kept_rows = fuzzy_cross_dedup_rows(
            kept_rows, state, mh["jaccard"], n_bands=nb,
            num_buckets=shuffle_buckets, metrics_out=am,
        ).materialize()
    else:
        kept_rows = fresh

    kept = ngram_decontaminate(kept_rows, benchmark_texts, n=contam_n, text_col="text", mode="filter")
    kept = _lang_length_gate(kept, allow, min_tokens)
    chunks = chunk_documents(
        kept.select_columns([id_col, "text"]), max_tokens=max_tokens, overlap=overlap, id_col=id_col
    )
    packs = pack_chunks(chunks, budget=pack_budget, id_col=id_col, id_salt=afp[:12])
    screen_metrics = (
        {}
        if mh is None
        else {
            "fuzzy_dropped_docs": am.get("fuzzy_dropped_docs", 0),
            # within-batch LSH bucket-cap drops VOID the screen's exactness
            # for the dropped docs — surfaced, not swallowed
            "minhash_dropped_docs": am.get("minhash_dropped_docs", 0),
            "cross_fuzzy_dropped_docs": am.get("cross_fuzzy_dropped_docs", 0),
            "cross_minhash_capped_docs": am.get("cross_minhash_capped_docs", 0),
        }
    )
    n_packs = gio.write_table_distributed(
        packs, pack_dir, afp, metrics={"batch": fingerprint, **screen_metrics}
    )
    # keys extension LAST (see crash-order note in the docstring); records
    # every genuinely-new distinct text — including ones the screens or
    # decontam/gate dropped, which would be dropped again anyway (for the
    # near-dup screen: anything within estimator noise of a dropped doc is
    # itself a near-dup of the state that dropped it)
    key_cols = ["fp"] if mh is None else ["fp", "band_keys", "sig"]
    n_keys = gio.write_table_distributed(
        fresh.select_columns(key_cols), keys_dir, afp, metrics={"batch": fingerprint}
    )
    return {"n_packs_appended": n_packs, "n_new_doc_keys": n_keys, **screen_metrics}
