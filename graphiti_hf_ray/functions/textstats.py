"""Text analysis over a documents table (SURVEY.md "training-data ops").

Language-ID (n-gram heuristic), quality scoring, token counting and
document fingerprinting, each as vectorized ``map_batches`` stages over
Arrow/pandas batches. Tokenization is a single-space split so the DuckDB
oracle (``string_split(text, ' ')``) expresses the identical computation.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

# must match the SQL list in __ray_entry__ exactly
STOPWORDS = ["the", "a", "of", "to", "and", "in", "is", "on", "for", "with"]
_STOP = set(STOPWORDS)


def _text_list(batch: pa.Table, col: str = "text") -> list[str]:
    """Text column → Python list with the engine-wide null convention:
    null text = empty doc (oracle mirror: coalesce(text, ''))."""
    return [x or "" for x in batch.column(col).to_pylist()]


def doc_stats_batch(batch: pa.Table) -> pa.Table:
    """doc_id, n_chars, n_tokens, n_uniq_tokens, fingerprint (md5 of text)."""
    texts = pc.fill_null(batch.column("text"), "")
    n_chars = pc.utf8_length(texts)
    split = pc.split_pattern(texts, " ")
    n_tokens = pc.list_value_length(split)
    uniq = pa.array([len(set(t)) for t in split.to_pylist()], pa.int64())
    fp = pa.array([hashlib.md5(t.encode()).hexdigest() for t in texts.to_pylist()], pa.string())
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_chars": pc.cast(n_chars, pa.int64()),
            "n_tokens": pc.cast(n_tokens, pa.int64()),
            "n_uniq_tokens": uniq,
            "fingerprint": fp,
        }
    )


PII_PROBE_SUFFIX = " Contact doc{d}@example.org or 192.168.{a}.{b} now."
# the oracle-expressible PII subset: email + ipv4 have no lookarounds, so
# DuckDB's RE2 regexp_* reconstruct them exactly; digit_run/phone (which
# need lookbehinds) stay pytest-covered via the full PiiScrub stage
_PII_ORACLE_KEYS = ("email", "ipv4")


def _pii_rx():
    import re

    from .textclean import PII_PATTERNS

    return {k: re.compile(PII_PATTERNS[k]) for k in _PII_ORACLE_KEYS}


_PII_RX_MEMO: list = []


def doc_profile_batch(batch: pa.Table) -> pa.Table:
    """Single-pass per-document profile fusing the structural stats
    (``doc_stats_batch``), quality counters, Gopher flags
    (``gopher_quality_batch``) and a PII-scrub probe — one tokenization per
    document instead of three separate stages. All counters INTEGER-exact;
    the Gopher ratio thresholds compare as cross-multiplied ints (float
    rounding can never flip the SQL oracle).

    PII columns: the corpus text carries no PII shapes (zero digits in the
    fixture), which would make a raw-text oracle vacuously all-zero — so
    each row is scrubbed WITH a deterministic doc_id-derived contact
    suffix appended (one email + one ipv4, the same fixture-synthesis
    technique the pages table uses), exercising match+replacement per row;
    ``pii_fingerprint`` hashes the scrubbed result so the oracle must
    reproduce the placeholder rewrite byte-exactly, in application order
    (email first, then ipv4 over the already-scrubbed text).

    Repetition signals (the Gopher paper's duplicate-text rules, token
    form, INTEGER-exact so the oracle can never drift on float rounding;
    the denominator is the ``n_chars`` column):

    - ``top2gram_chars`` = occurrences of the most frequent 2-gram ×
      characters of that 2-gram (ties broken by the lexicographically
      smallest gram; 0 when the doc has < 2 tokens);
    - ``dup5gram_chars`` = Σ over distinct 5-grams occurring ≥ 2 times of
      count × gram characters (overlaps counted per occurrence — a
      deterministic upper bound of the paper's span measure; 0 when < 5
      tokens).

    Columns: doc_id, n_chars, n_tokens, n_uniq_tokens, n_stopwords,
    sum_token_len, passes_gopher, fingerprint, n_pii_email, n_pii_ipv4,
    pii_fingerprint, top2gram_chars, dup5gram_chars.
    """
    from collections import Counter
    if not _PII_RX_MEMO:
        _PII_RX_MEMO.append(_pii_rx())  # compiled once per worker process
    rx = _PII_RX_MEMO[0]
    # null text = empty doc, engine-wide convention (oracle: coalesce)
    texts_col = pc.fill_null(batch.column("text"), "")
    texts = texts_col.to_pylist()
    doc_ids = batch.column("doc_id").to_pylist()
    n_tok, n_uniq, n_stop, sum_len, passes = [], [], [], [], []
    n_email, n_ipv4, pii_fp = [], [], []
    top2, dup5 = [], []
    for d, x in zip(doc_ids, texts):
        toks = x.split(" ")
        n = len(toks)
        sl = sum(len(w) for w in toks)
        st = sum(1 for w in toks if w in _STOP)
        n_tok.append(n)
        n_uniq.append(len(set(toks)))
        n_stop.append(st)
        sum_len.append(sl)
        if n >= 2:
            c2 = Counter(" ".join(toks[i : i + 2]) for i in range(n - 1))
            g, cnt = min(c2.items(), key=lambda kv: (-kv[1], kv[0]))
            top2.append(cnt * len(g))
        else:
            top2.append(0)
        if n >= 5:
            c5 = Counter(" ".join(toks[i : i + 5]) for i in range(n - 4))
            dup5.append(sum(v * len(k) for k, v in c5.items() if v >= 2))
        else:
            dup5.append(0)
        passes.append(
            GOPHER_MIN_TOKENS <= n <= GOPHER_MAX_TOKENS
            and 3 * n <= sl <= 10 * n
            and 100 * st >= 2 * n
        )
        # the synthetic probe needs integer ids (the oracle reconstructs it
        # from doc_id arithmetic); non-integer-id corpora scan the raw
        # text. Integral FLOATS keep the probe — an int64 column that
        # picked up a null float-ifies through pandas, and skipping the
        # probe there would silently diverge from the doc_id-arithmetic
        # oracle for the whole corpus
        if isinstance(d, (int, np.integer)):
            di = int(d)
        elif (
            isinstance(d, (float, np.floating))
            and float(d).is_integer()
            and abs(d) < 2**53  # beyond this a float cannot name the int exactly
        ):
            di = int(d)
        else:
            di = None
        probe = (
            x + PII_PROBE_SUFFIX.format(d=di, a=di % 256, b=di % 100)
            if di is not None
            else x
        )
        s, ne = rx["email"].subn("<EMAIL>", probe)
        s, ni = rx["ipv4"].subn("<IPV4>", s)
        n_email.append(ne)
        n_ipv4.append(ni)
        pii_fp.append(hashlib.md5(s.encode()).hexdigest())
    fp = pa.array([hashlib.md5(x.encode()).hexdigest() for x in texts], pa.string())
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_chars": pc.cast(pc.utf8_length(texts_col), pa.int64()),
            "n_tokens": pa.array(n_tok, pa.int64()),
            "n_uniq_tokens": pa.array(n_uniq, pa.int64()),
            "n_stopwords": pa.array(n_stop, pa.int64()),
            "sum_token_len": pa.array(sum_len, pa.int64()),
            "passes_gopher": pa.array(passes, pa.bool_()),
            "fingerprint": fp,
            "n_pii_email": pa.array(n_email, pa.int64()),
            "n_pii_ipv4": pa.array(n_ipv4, pa.int64()),
            "pii_fingerprint": pa.array(pii_fp, pa.string()),
            "top2gram_chars": pa.array(top2, pa.int64()),
            "dup5gram_chars": pa.array(dup5, pa.int64()),
        }
    )


# language-ID: tiny stopword-profile scorer (deterministic heuristic)
_LANG_PROFILES = {
    "en": {"the", "and", "of", "to", "is", "in"},
    "de": {"der", "die", "das", "und", "ist", "nicht"},
    "fr": {"le", "la", "les", "et", "est", "une"},
    "es": {"el", "los", "las", "es", "una"},
    "zh": set(),  # no-latin-stopword fallback bucket
}


class LangId:
    """Actor-pool stage: predict language from stopword-profile overlap.

    Ties / no hits → 'und'. (On the synthetic corpus every text is the same
    English-ish word soup, so this exists to exercise the stage shape; the
    driver table's ``lang`` column is the labeled ground truth.)"""

    def __init__(self):
        self.profiles = {k: frozenset(v) for k, v in _LANG_PROFILES.items()}

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = _text_list(batch)
        preds = []
        for t in texts:
            toks = set(t.lower().split(" "))
            best, best_n = "und", 0
            for lang, prof in sorted(self.profiles.items()):
                n = len(toks & prof)
                if n > best_n:
                    best, best_n = lang, n
            preds.append(best)
        return batch.append_column("lang_pred", pa.array(preds, pa.string()))


def winnow_fingerprints(
    docs: "pa.Table | object", k: int = 4, w: int = 5
):
    """Winnowing document fingerprints (Schleimer et al., SIGMOD 2003):
    k-token-gram hashes, sliding windows of ``w`` consecutive gram hashes,
    one fingerprint per window = the window MINIMUM, deduplicated per doc.
    Guarantees any shared run of ``w + k - 1`` tokens yields a shared
    fingerprint — the local-fingerprint basis for plagiarism-style overlap
    detection at corpus scale.

    Gram hash = first 8 hex chars of md5(gram) as int (SQL-reproducible);
    the window minimum is a vectorized numpy sliding-window min. Returns a
    Dataset of distinct (doc_id, fp) rows.
    """
    import ray

    def per_batch(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_pylist()
        texts = _text_list(t)
        out_id, out_fp = [], []
        for d, x in zip(ids, texts):
            toks = x.split(" ")
            if len(toks) < k:
                grams = [" ".join(toks)]
            else:
                grams = [" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)]
            h = np.array(
                [int(hashlib.md5(g.encode()).hexdigest()[:8], 16) for g in grams], np.int64
            )
            if len(h) <= w:
                fps = {int(h.min())}
            else:
                wins = np.lib.stride_tricks.sliding_window_view(h, w).min(axis=1)
                fps = set(int(v) for v in np.unique(wins))
            out_id.extend([d] * len(fps))
            out_fp.extend(sorted(fps))
        return pa.table({"doc_id": pa.array(out_id, pa.int64()), "fp": pa.array(out_fp, pa.int64())})

    return docs.map_batches(per_batch, batch_format="pyarrow")


# BPE-ish pre-tokenizer pattern (GPT-2 style minus lookaheads, which RE2 —
# and hence the DuckDB oracle — cannot express): letter runs, digit runs,
# single punctuation marks. Compiled once per actor.
BPE_PATTERN = r"[a-zA-Z]+|[0-9]+|[^a-zA-Z0-9 ]"


class BpeTokenCount:
    """Actor-pool stage: doc_id, n_bpe_tokens via one compiled-regex pass
    per document (the whitespace counter in doc_stats_batch is the cheap
    path; this approximates subword pre-tokenization for budget checks)."""

    def __init__(self, pattern: str = BPE_PATTERN):
        import re

        self._rx = re.compile(pattern)

    def __call__(self, t: pa.Table) -> pa.Table:
        counts = [len(self._rx.findall(x)) for x in _text_list(t)]
        return pa.table(
            {"doc_id": t.column("doc_id"), "n_bpe_tokens": pa.array(counts, pa.int64())}
        )


# Gopher-style document quality rules (Rae et al. 2021, public thresholds):
# token-count window, mean-token-length window, stopword-fraction floor.
GOPHER_MIN_TOKENS = 50
GOPHER_MAX_TOKENS = 100_000
GOPHER_MIN_MEAN_TOKEN_LEN = 3.0
GOPHER_MAX_MEAN_TOKEN_LEN = 10.0
GOPHER_MIN_STOPWORD_FRAC = 0.02


def gopher_quality_batch(t: pa.Table) -> pa.Table:
    """doc_id, n_tokens, sum_token_len, n_stopwords, passes_gopher — all
    INTEGER-exact (ratio thresholds compare as cross-multiplied ints, so
    the SQL oracle can never diverge on float rounding)."""
    ids = t.column("doc_id")
    texts = _text_list(t)
    n_tok, sum_len, n_stop, passes = [], [], [], []
    for x in texts:
        toks = x.split(" ")
        n = len(toks)
        sl = sum(len(w) for w in toks)
        st = sum(1 for w in toks if w in _STOP)
        n_tok.append(n)
        sum_len.append(sl)
        n_stop.append(st)
        passes.append(
            GOPHER_MIN_TOKENS <= n <= GOPHER_MAX_TOKENS
            and 3 * n <= sl <= 10 * n  # mean token length in [3, 10]
            and 100 * st >= 2 * n  # stopword fraction >= 0.02
        )
    return pa.table(
        {
            "doc_id": ids,
            "n_tokens": pa.array(n_tok, pa.int64()),
            "sum_token_len": pa.array(sum_len, pa.int64()),
            "n_stopwords": pa.array(n_stop, pa.int64()),
            "passes_gopher": pa.array(passes, pa.bool_()),
        }
    )
