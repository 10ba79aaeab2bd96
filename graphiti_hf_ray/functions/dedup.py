"""Deduplication family over a documents table (training-data ops).

All variants follow the same Ray-Data shape (ray_guide.md "Aggregation at
scale"): vectorized signature computation inside ``map_batches`` →
hash-partitioned ``groupby`` on the signature/bucket key → per-group
resolution. Nothing materializes the corpus driver-side — candidate-pair
verification runs as bucketed shuffle joins, not driver loops.

Every bucketed pair generator (MinHash bands, SimHash bands, n-gram
shingles, LSH sign buckets) runs one in-bucket kernel, ``bucket_pairs``:
per key group the distinct ids ascending, the upper-triangle pairs once,
the operator's score (Hamming, n-gram sizes, cosine) as a keep-mask plus
columns. The drop rule: a capped group keeps its ``cap`` smallest ids and
emits one sentinel row (``DROP_SENTINEL``, the key's hash, the ids left
out); ``_strip_drops`` sums those into ``DROP_METRICS``/``metrics_out``
and removes them. n-gram and LSH cosine pass no cap. ``embedding_neardup``
keeps its bipartite block enumeration (the triangle would also score each
block's intra-part pairs) and shares the cosine body (``_cosines``) with
the LSH path. Loser and band-key membership filters are stateless tasks
over one broadcast sorted int64 array (``_in_sorted``), no actor pools.

- ``exact_dedup``            — md5(text) → groupby(hash).first (D1 analog)
- ``exact_dedup_rows``       — row-keeping variant: one fused exchange,
                               full schema preserved (corpus stage 1)
- ``fuzzy_dedup_rows``       — corpus-wide row-keeping fuzzy dedup
                               (CCNet/RefinedWeb shape): MinHash-LSH pairs
                               → connected components (auto-gated driver /
                               distributed) → min-doc_id cluster winner;
                               losers removed by broadcast filter or, past
                               the broadcast gate, one bucketed anti-join
- ``semantic_dedup_rows``    — SemDeDup shape: exact cosine pairs over the
                               embedding sidecar → same cluster-winner tail
- ``dedup_rows_from_pairs``  — the shared tail: any (doc_a, doc_b) pair
                               set → components → min-id winner kept
- ``minhash_state_rows``     — (fp, band_keys, sig) per distinct text: the
                               PERSISTED cross-run near-dup state (binary-
                               packed MinHash signatures + banded LSH keys)
- ``fuzzy_cross_dedup_rows`` — screen a new batch against that state:
                               batch band keys broadcast once, the state
                               streams through one membership filter, two
                               narrow bucketed joins estimate Jaccard from
                               signature agreement (incremental-append
                               near-dup dedup without re-reading any text)
- ``add_minhash_cols``       — the shared per-row kernel both use
- ``components_of_pairs``    — (doc_a, doc_b) pairs → (node, root) with
                               root = smallest reachable doc_id
- ``minhash_lsh_candidates`` — k-shingle → 64-perm MinHash → banded LSH
                               buckets → candidate pairs → exact-Jaccard
                               verification via two bucketed shuffle joins
- ``simhash_pairs``          — 64-bit SimHash + 4×16-bit band buckets →
                               Hamming-verified near-dup pairs. For
                               ``max_hamming <= 3`` the banding is EXACT
                               (pigeonhole: ≤3 differing bits leave ≥1 of
                               the 4 bands identical), so the output equals
                               the full O(n²) scan and is SQL-oracle-able.
- ``ngram_jaccard_pairs``    — exact n-gram Jaccard via shingle explode +
                               pair counting (the SQL-oracle-able variant)
- ``embedding_neardup``      — EXACT cosine >= t pairs over an embedding
                               column via distributed block-pair matmuls
                               (no whole-matrix driver materialization)
- ``embedding_neardup_lsh``  — approximate scale path: sign-plane LSH
                               buckets + in-bucket matmuls
"""

from __future__ import annotations

import hashlib
import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray

from ..stages.shuffle import bucketed_group_apply
from .vectors import embedding_matrix, float64_array, int64_array, l2_normalize

logger = logging.getLogger(__name__)

MERSENNE = (1 << 61) - 1
N_PERM = 64
N_BANDS = 8  # default: 8 bands x 8 rows
SHINGLE_K = 5
MAX_BUCKET_DOCS = 512  # per-band-bucket candidate cap (log drops)


# Per-worker token-hash cache: corpora are Zipfian, so md5-per-distinct-
# token + a vectorized rolling mix replaces md5-per-SHINGLE (the round-1
# hot loop — ~one md5 per token position per doc) at equal discrimination.
_TOK_CACHE: dict[str, int] = {}
_TOK_CACHE_MAX = 1 << 20


def _fetch_arrow_blocks(ds) -> list[pa.Table]:
    """ray.get the dataset's block refs as Arrow tables, dropping empties.
    ``to_arrow_refs`` hands back raw pandas blocks when the lineage ends in
    a pandas-format stage (e.g. map_groups), so normalize per block."""
    out = []
    for b in ray.get(ds.to_arrow_refs()):
        if not isinstance(b, pa.Table):
            b = pa.Table.from_pandas(b, preserve_index=False)
        if b.num_rows:
            out.append(b)
    return out


def _tok_hash(tok: str) -> int:
    h = _TOK_CACHE.get(tok)
    if h is None:
        h = int.from_bytes(hashlib.md5(tok.encode()).digest()[:8], "little")
        if len(_TOK_CACHE) >= _TOK_CACHE_MAX:
            _TOK_CACHE.clear()
        _TOK_CACHE[tok] = h
    return h


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix_weights(n: int) -> np.ndarray:
    """Deterministic odd position multipliers (powers of the 64-bit golden
    ratio) so permuted windows hash differently."""
    w = np.empty(n, np.uint64)
    acc = np.uint64(1)
    with np.errstate(over="ignore"):
        for i in range(n):
            acc = acc * _GOLDEN + np.uint64(1)
            w[i] = acc | np.uint64(1)
    return w


def _finalize(h: np.ndarray) -> np.ndarray:
    """splitmix64-style scramble to break the linearity of the window sum."""
    with np.errstate(over="ignore"):
        h = h ^ (h >> np.uint64(30))
        h = h * np.uint64(0xBF58476D1CE4E5B9)
        h = h ^ (h >> np.uint64(27))
        h = h * np.uint64(0x94D049BB133111EB)
        h = h ^ (h >> np.uint64(31))
    return h


def _token_hashes(text: str, k: int = SHINGLE_K) -> np.ndarray:
    """Distinct k-shingle hashes of ``text`` — set-equivalent to hashing
    the shingle STRINGS (collision probability ~2^-64 per pair), which is
    what the exact-Jaccard SQL oracles compare against."""
    toks = text.split(" ")
    th = np.fromiter((_tok_hash(t) for t in toks), np.uint64, len(toks))
    if len(toks) < k:
        w = _mix_weights(len(toks))
        with np.errstate(over="ignore"):
            acc = np.array([(th * w).sum()], np.uint64)
        return _finalize(acc)
    n_sh = len(toks) - k + 1
    w = _mix_weights(k)
    acc = np.zeros(n_sh, np.uint64)
    with np.errstate(over="ignore"):
        for j in range(k):
            acc += th[j : j + n_sh] * w[j]
    return np.unique(_finalize(acc))


# deterministic permutation parameters (no RNG): a_i, b_i from md5 of i
def _perm_params(n: int = N_PERM) -> tuple[np.ndarray, np.ndarray]:
    a = np.empty(n, np.uint64)
    b = np.empty(n, np.uint64)
    for i in range(n):
        d = hashlib.md5(f"perm:{i}".encode()).digest()
        a[i] = (int.from_bytes(d[:8], "little") % (MERSENNE - 1)) + 1
        b[i] = int.from_bytes(d[8:16], "little") % MERSENNE
    return a, b


_PA, _PB = _perm_params()


def minhash_signature(text: str) -> np.ndarray:
    h = _token_hashes(text)
    if h.size == 0:
        return np.zeros(N_PERM, np.uint64)
    # (a*h + b) mod 2^64, min over shingles, per permutation — pure uint64
    # wraparound arithmetic (a valid universal-ish hash family, ~50× faster
    # than bigint mod-Mersenne; deterministic across platforms)
    with np.errstate(over="ignore"):
        vals = h[:, None] * _PA[None, :] + _PB[None, :]
    return np.min(vals, axis=0)


def _signatures(texts: list) -> np.ndarray:
    """(n, N_PERM) MinHash signatures, a null text hashing as ''."""
    sigs = np.empty((len(texts), N_PERM), np.uint64)
    for i, x in enumerate(texts):
        sigs[i] = minhash_signature(x or "")
    return sigs


def _band_hashes(sigs: np.ndarray, n_bands: int) -> np.ndarray:
    """(n, n_bands) LSH band hashes: each band's N_PERM // n_bands signature
    rows mixed by odd position weights, then scrambled."""
    rows_per_band = N_PERM // n_bands
    with np.errstate(over="ignore"):
        bh = (sigs.reshape(len(sigs), n_bands, rows_per_band) * _mix_weights(rows_per_band)).sum(axis=2)
    return _finalize(bh.astype(np.uint64))


# ---------------------------------------------------------------------------


def exact_dedup(docs: "ray.data.Dataset", num_buckets: int | None = None) -> "ray.data.Dataset":
    """One row per distinct text: (fingerprint, keep_doc_id = min, n_dups)."""

    def add_hash(t: pa.Table) -> pa.Table:
        # the shared mapper (nulls hash as '' like every other text entry
        # point; oracle mirror: md5(coalesce(text, ''))), renamed to this
        # op's published output column
        fp = md5_fp_batch(t, out_col="fingerprint").column("fingerprint")
        return pa.table({"fingerprint": fp, "doc_id": t.column("doc_id")})

    def first(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("fingerprint", as_index=False, sort=False).agg(
            keep_doc_id=("doc_id", "min"), n_dups=("doc_id", "size")
        )

    return bucketed_group_apply(
        docs.map_batches(add_hash, batch_format="pyarrow"), ["fingerprint"], first,
        num_buckets=num_buckets,
    )


def md5_fp_batch(t: pa.Table, text_col: str = "text", out_col: str = "_fp") -> pa.Table:
    """Append the md5-hex fingerprint of ``text_col`` as ``out_col`` — the
    ONE text-fingerprint mapper shared by exact dedup, the corpus doc_keys
    state and the append anti-join (so the three can never drift)."""
    fp = pa.array(
        [hashlib.md5((x or "").encode()).hexdigest() for x in t.column(text_col).to_pylist()]
    )
    return t.append_column(out_col, fp).replace_schema_metadata(None)


def exact_dedup_rows(
    docs: "ray.data.Dataset",
    num_buckets: int | None = None,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    keep_fp: str | None = None,
) -> "ray.data.Dataset":
    """Row-KEEPING exact dedup in ONE exchange: the min-``id_col`` row per
    distinct ``text_col`` survives with its full schema intact.

    Equivalent to ``exact_dedup`` followed by a semi-join of the winners
    back onto the doc rows (parity-tested), but fuses the two exchanges
    into one: the doc rows themselves shuffle by text fingerprint and each
    bucket keeps the first row per fingerprint. The composed form ships
    the text through the join exchange anyway, so the fusion halves the
    exchange count without shipping anything new — this is the shape the
    corpus pipeline's stage 1 runs at 100 TB.

    ``keep_fp`` retains the text fingerprint on the survivors under that
    column name (instead of dropping it) — append_training_set reuses it
    for the cross-run anti-join rather than re-hashing the whole batch."""

    def add_hash(t: pa.Table) -> pa.Table:
        return md5_fp_batch(t, text_col)

    def keep_first(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(id_col, kind="stable").drop_duplicates("_fp", keep="first")
        if keep_fp:
            if keep_fp in df.columns and keep_fp != "_fp":
                raise ValueError(f"keep_fp={keep_fp!r} collides with an input column")
            return df.rename(columns={"_fp": keep_fp})
        return df.drop(columns=["_fp"])

    return bucketed_group_apply(
        docs.map_batches(add_hash, batch_format="pyarrow"), ["_fp"], keep_first,
        num_buckets=num_buckets,
    )


# Driver-visible cap-drop counters (ADVICE: a log line alone is invisible
# to callers). Updated at each function's driver sync point; sentinel rows
# (id == DROP_SENTINEL) carry per-group drop counts through the shuffle.
DROP_METRICS: dict[str, int] = {}
DROP_SENTINEL = -1


def bucket_pairs(
    df: pd.DataFrame,
    keys: list[str],
    id_col: str,
    cap: int | None = None,
    score=None,
    cols: dict[str, str] | None = None,
) -> pd.DataFrame:
    """The one in-bucket pair kernel of the near-dup operators (the body
    each runs under ``stages.shuffle.bucketed_group_apply``). Per ``keys``
    group of the bucket:

    - the distinct ``id_col`` values in ascending order, one row each;
    - past ``cap`` ids the ``cap`` smallest are kept, the drop is logged
      and one counted-drop sentinel row is emitted: ``doc_a =
      DROP_SENTINEL``, ``doc_b`` = the group key's hash (so a later
      ``(doc_a, doc_b)`` distinct keeps one per capped group), ``dropped``
      = the ids left out. A boilerplate cluster of B docs would otherwise
      emit B²/2 pairs;
    - every upper-triangle pair (``doc_a < doc_b``) is enumerated once;
    - ``score(rows, ia, ib)`` (the kept id rows and the pairs' row
      positions) returns ``(keep mask or None, extra columns of the kept
      pairs)``; ``cols`` gives those columns' dtypes, so an empty bucket
      and a sentinel row carry the same schema.

    Output: ``doc_a, doc_b``, the score columns and, when ``cap`` is set,
    ``dropped`` (``_strip_drops`` counts and removes the sentinels)."""
    schema = {"doc_a": "int64", "doc_b": "int64", **(cols or {})}
    if cap is not None:
        schema["dropped"] = "int64"
    frames = []
    for key, g in df.groupby(keys, sort=False):
        ids, first = np.unique(g[id_col].to_numpy(np.int64), return_index=True)
        if cap is not None and len(ids) > cap:
            logger.warning("bucket %s: %d ids > cap %d; pairing the %d smallest", key, len(ids), cap, cap)
            sentinel = {c: np.zeros(1, t) for c, t in schema.items()}
            sentinel.update(doc_a=[DROP_SENTINEL], doc_b=[hash(key)], dropped=[len(ids) - cap])
            frames.append(pd.DataFrame(sentinel))
            ids, first = ids[:cap], first[:cap]
        if len(ids) < 2:
            continue
        ia, ib = np.triu_indices(len(ids), k=1)
        extra = {}
        if score is not None:
            keep, extra = score(g.iloc[first], ia, ib)
            if keep is not None:
                ia, ib = ia[keep], ib[keep]
        frame = {"doc_a": ids[ia], "doc_b": ids[ib], **extra}
        if cap is not None:
            frame["dropped"] = np.zeros(len(ia), np.int64)
        frames.append(pd.DataFrame(frame))
    if not frames:
        return pd.DataFrame({c: pd.Series([], dtype=t) for c, t in schema.items()})
    return pd.concat(frames, ignore_index=True)


def _strip_drops(
    ds: "ray.data.Dataset", key: str, metrics_out: dict | None, id_col: str = "doc_a"
) -> "ray.data.Dataset":
    """Sum the counted-drop sentinels' ``dropped`` into ``DROP_METRICS[key]``
    (and ``metrics_out[key]``) and return ``ds`` without the sentinel rows
    or the ``dropped`` column. ``ds`` is materialized: both read it."""
    ds = ds.materialize()
    n = int(ds.sum("dropped") or 0)
    DROP_METRICS[key] = n
    if metrics_out is not None:
        metrics_out[key] = n
    return ds.filter(expr=f"{id_col} != {DROP_SENTINEL}").drop_columns(["dropped"])


def _in_sorted(values: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Elementwise membership of int64 ``values`` in the sorted, non-empty
    int64 ``members`` — one ``np.searchsorted``, no per-batch set build."""
    pos = np.minimum(np.searchsorted(members, values), len(members) - 1)
    return members[pos] == values


def _join_pairs_to_payload(
    pairs: "ray.data.Dataset",
    payload: "ray.data.Dataset",
    pair_key: str,
    payload_out_col: str,
) -> "ray.data.Dataset":
    """Bucketed shuffle join: attach ``payload.sh`` (keyed by ``doc_id``) to
    each pair row on ``pairs[pair_key]``. Both sides shuffle by the shared
    key; the in-bucket merge is a vectorized ``Series.map``. No driver
    materialization — this is the scale shape for candidate verification.
    """
    def tag_pairs(t: pa.Table) -> pa.Table:
        out = t.append_column("key", t.column(pair_key).cast(pa.int64()))
        return out.replace_schema_metadata(None)

    def tag_payload(t: pa.Table) -> pa.Table:
        return pa.table(
            {"key": t.column("doc_id").cast(pa.int64()), "_sh_payload": t.column("sh")}
        )

    combined = pairs.map_batches(tag_pairs, batch_format="pyarrow").union(
        payload.map_batches(tag_payload, batch_format="pyarrow")
    )

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        is_payload = df["_sh_payload"].notna() if "_sh_payload" in df else pd.Series(False, index=df.index)
        m = df.loc[is_payload].drop_duplicates("key").set_index("key")["_sh_payload"]
        rows = df.loc[~is_payload].drop(columns=["_sh_payload"], errors="ignore").copy()
        rows[payload_out_col] = rows["key"].map(m).fillna("")
        return rows.drop(columns=["key"])

    return bucketed_group_apply(combined, ["key"], merge)


BROADCAST_MAX_PAIRS = 250_000  # below this, verification broadcasts


def minhash_lsh_candidates(
    docs: "ray.data.Dataset",
    jaccard_threshold: float = 0.5,
    n_bands: int = N_BANDS,
    max_bucket_docs: int = MAX_BUCKET_DOCS,
    broadcast_max_pairs: int = BROADCAST_MAX_PAIRS,
    metrics_out: dict | None = None,
    sig_col: str | None = None,
) -> "ray.data.Dataset":
    """Near-dup pairs via MinHash banding, then exact-Jaccard verified.

    Emits (doc_a, doc_b, jaccard) with doc_a < doc_b, jaccard >= threshold.
    Band rows shuffle by (band_id, band_hash) with a per-bucket pair cap
    (logged drops). Verification is two-path, gated on the candidate count
    (candidates ≪ corpus by LSH design — the cap above bounds them even on
    boilerplate clusters):

    - ``n_pairs <= broadcast_max_pairs``: the shingle payloads of ONLY the
      candidate docs are gathered (distributed ``is_in`` filter, then one
      ``ray.put`` broadcast) and verification is a single map over the pair
      rows — 1 tiny collect instead of 2 corpus-wide shuffles.
    - above the gate: fall back to two bucketed shuffle joins (one per pair
      side) — nothing driver-sized materializes at ANY candidate count.

    ``sig_col`` names a precomputed binary signature column
    (``add_minhash_cols``' packing) to reuse instead of recomputing the
    64-perm MinHash per doc — the corpus append path computes signatures
    once for its persisted state and feeds them back here.

    With ``n_bands=16`` (4 rows/band) the per-pair miss probability at the
    fixture's near-dup similarity (J ≥ 0.85) is < 1e-6, so the verified
    output equals the exact-Jaccard O(n²) scan and is SQL-oracle-able —
    PROVIDED no band bucket exceeds ``max_bucket_docs``: a boilerplate
    cluster beyond the cap silently loses true near-dup pairs for the
    dropped docs. Drops are COUNTED, not just logged: pass ``metrics_out``
    to receive ``minhash_dropped_docs`` caller-scoped (the module-global
    ``DROP_METRICS`` is also updated as a fallback, but concurrent or
    back-to-back runs clobber it — prefer ``metrics_out``); a nonzero count
    voids the exactness claim and should fail any oracle comparison loudly.
    """
    def sig_rows(t: pa.Table) -> pa.Table:
        """Band rows carry (band_id, band_hash, doc_id) ONLY — text never
        enters the shuffle (n_bands band rows per doc would ship it n×).
        Band hashes are int64 (vectorized mix over the signature rows, no
        per-band md5) — integers sort ~2.5× cheaper than hex strings in
        the band-bucket exchange."""
        ids = t.column("doc_id").to_pylist()
        n = len(ids)
        if sig_col is not None:
            sigs = np.frombuffer(b"".join(t.column(sig_col).to_pylist()), "<u8").reshape(n, N_PERM)
        else:
            sigs = _signatures(t.column("text").to_pylist())
        bh = _band_hashes(sigs, n_bands)
        return pa.table(
            {
                "band_id": pa.array(np.tile(np.arange(n_bands, dtype=np.int32), n)),
                "band_hash": pa.array(bh.reshape(-1).astype(np.int64)),
                "doc_id": pa.array(np.repeat(np.asarray(ids, np.int64), n_bands)),
            }
        )

    keys = ["band_id", "band_hash"]

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        return bucket_pairs(df, keys, "doc_id", cap=max_bucket_docs).drop_duplicates(["doc_a", "doc_b"])

    # pairs are deduped within each hash bucket here; the cross-band global
    # distinct happens per verify path (driver-side for the broadcast path,
    # one bucketed shuffle for the join path). Candidates are tiny by LSH
    # design; the drop count is recorded at this driver sync point.
    cand_pairs = _strip_drops(
        bucketed_group_apply(
            docs.map_batches(sig_rows, batch_format="pyarrow", batch_size=512), keys, per_bucket
        ),
        "minhash_dropped_docs", metrics_out,
    )

    # shingle payload per doc: sorted hash csv (the exact-Jaccard basis)
    def shingles_of(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_pylist()
        hs = [",".join(map(str, sorted(_token_hashes(x).tolist()))) for x in t.column("text").to_pylist()]
        return pa.table({"doc_id": pa.array(ids, pa.int64()), "sh": pa.array(hs, pa.string())})

    sh_rows = docs.map_batches(shingles_of, batch_format="pyarrow")

    def _verify_pair_lists(a_ids, b_ids, sh_a, sh_b) -> pa.Table:
        a_out, b_out, j_out = [], [], []
        for a, b, xa, xb in zip(a_ids, b_ids, sh_a, sh_b):
            sa = set(map(int, xa.split(","))) if xa else set()
            sb = set(map(int, xb.split(","))) if xb else set()
            union = len(sa | sb)
            jac = len(sa & sb) / union if union else 0.0
            if jac >= jaccard_threshold:
                a_out.append(int(a))
                b_out.append(int(b))
                j_out.append(round(jac, 6))
        return pa.table(
            {
                "doc_a": pa.array(a_out, pa.int64()),
                "doc_b": pa.array(b_out, pa.int64()),
                "jaccard": pa.array(j_out, pa.float64()),
            }
        )

    n_pairs = cand_pairs.count()
    if n_pairs == 0:
        return ray.data.from_arrow(
            pa.table({"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64()),
                      "jaccard": pa.array([], pa.float64())})
        )

    if n_pairs <= broadcast_max_pairs:
        # small-candidate fast path: gather ONLY candidate docs' shingles
        # (distributed filter first — the collect is candidate-sized, never
        # corpus-sized) and verify in one map over the pair rows. The
        # global cross-band dedupe happens here, in the same collect.
        # Blocks are fetched as whole Arrow refs (one parallel ray.get),
        # not row-iterated — take_all over many post-shuffle mini-blocks
        # costs seconds of pure round-trip overhead.
        blocks = _fetch_arrow_blocks(cand_pairs)
        pairs_df = (
            pa.concat_tables(blocks)
            .to_pandas()
            .drop_duplicates(["doc_a", "doc_b"])
            .sort_values(["doc_a", "doc_b"])
        )
        cand_pairs = ray.data.from_arrow(pa.Table.from_pandas(pairs_df[["doc_a", "doc_b"]], preserve_index=False))
        cand_ids = np.union1d(pairs_df["doc_a"].to_numpy(np.int64), pairs_df["doc_b"].to_numpy(np.int64))

        def only_cands(t: pa.Table) -> pa.Table:
            return t.filter(pa.array(_in_sorted(int64_array(t.column("doc_id")), cand_ids)))

        sh_blocks = _fetch_arrow_blocks(sh_rows.map_batches(only_cands, batch_format="pyarrow"))
        sh_tbl = pa.concat_tables(sh_blocks) if sh_blocks else pa.table({"doc_id": pa.array([], pa.int64()), "sh": pa.array([], pa.string())})
        sh_map = dict(zip(sh_tbl.column("doc_id").to_pylist(), sh_tbl.column("sh").to_pylist()))
        ref = ray.put(sh_map)

        def verify_bcast(t: pa.Table, _ref=ref) -> pa.Table:
            m = ray.get(_ref)
            a_ids = t.column("doc_a").to_pylist()
            b_ids = t.column("doc_b").to_pylist()
            return _verify_pair_lists(
                a_ids, b_ids, [m.get(int(a), "") for a in a_ids], [m.get(int(b), "") for b in b_ids]
            )

        return cand_pairs.map_batches(verify_bcast, batch_format="pyarrow")

    # large-candidate path: global distinct + two bucketed shuffle joins,
    # no driver collect at any size
    cand_pairs = bucketed_group_apply(
        cand_pairs, ["doc_a", "doc_b"], lambda df: df.drop_duplicates(["doc_a", "doc_b"])
    )
    with_a = _join_pairs_to_payload(cand_pairs, sh_rows, "doc_a", "sh_a")
    with_ab = _join_pairs_to_payload(with_a, sh_rows, "doc_b", "sh_b")

    def verify(t: pa.Table) -> pa.Table:
        return _verify_pair_lists(
            t.column("doc_a").to_pylist(), t.column("doc_b").to_pylist(),
            t.column("sh_a").to_pylist(), t.column("sh_b").to_pylist(),
        )

    return with_ab.map_batches(verify, batch_format="pyarrow")


def components_of_pairs(
    pairs: "ray.data.Dataset",
    driver_max_pairs: int = 1_000_000,
    num_buckets: int | None = None,
) -> "ray.data.Dataset":
    """Connected components over near-dup pair rows (doc_a, doc_b int64 ≥ 0)
    → (node, root) int64, root = the SMALLEST doc_id reachable. One row per
    doc that appears in any pair; singletons are absent (their root is
    themselves by definition).

    Auto-gated like canonicalization (stages/canonicalize.py): pair counts
    at or below ``driver_max_pairs`` run the driver union-find (pairs are
    candidate-capped ≪ corpus by LSH design, so this is the common case);
    above it, the distributed hash-min label propagation. Both paths use
    zero-padded decimal keys so the lexicographic-min root the union-find
    keeps IS the numeric min."""
    import ray.data as rd

    empty = pa.table({"node": pa.array([], pa.int64()), "root": pa.array([], pa.int64())})
    pairs = pairs.select_columns(["doc_a", "doc_b"]).materialize()
    n_pairs = pairs.count()
    if n_pairs == 0:
        return rd.from_arrow(empty)

    if n_pairs <= driver_max_pairs:
        from ..stages.canonicalize import components_driver

        pdf = pairs.to_pandas()  # ≤ driver_max_pairs rows by the gate
        comp = components_driver(
            zip(
                (f"{a:020d}" for a in pdf["doc_a"].astype("int64")),
                (f"{b:020d}" for b in pdf["doc_b"].astype("int64")),
            )
        )
        return rd.from_arrow(
            pa.table(
                {
                    "node": pa.array([int(k) for k in comp], pa.int64()),
                    "root": pa.array([int(v) for v in comp.values()], pa.int64()),
                }
            )
        )

    from ..stages.canonicalize import connected_components_distributed

    def pad(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "a": pc.utf8_lpad(t.column("doc_a").cast(pa.string()), 20, "0"),
                "b": pc.utf8_lpad(t.column("doc_b").cast(pa.string()), 20, "0"),
            }
        )

    labels = connected_components_distributed(
        pairs.map_batches(pad, batch_format="pyarrow"), num_buckets=num_buckets
    )
    return labels.map_batches(
        lambda t: pa.table(
            {
                "node": t.column("node").cast(pa.int64()),
                "root": t.column("root").cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def fuzzy_dedup_rows(
    docs: "ray.data.Dataset",
    jaccard_threshold: float = 0.8,
    *,
    n_bands: int = N_BANDS,
    id_col: str = "doc_id",
    broadcast_max_losers: int = 2_000_000,
    num_buckets: int | None = None,
    metrics_out: dict | None = None,
    sig_col: str | None = None,
) -> "ray.data.Dataset":
    """Corpus-wide row-KEEPING fuzzy dedup (the CCNet/RefinedWeb shape):
    MinHash-LSH verified near-dup pairs → connected components → the
    min-``doc_id`` doc per cluster survives with its full schema; every
    other cluster member is dropped. Requires ``doc_id``/``text`` columns
    (the pair generator's contract); ``id_col`` names the id column of the
    rows being filtered when it differs from the pair key.

    Loser removal is gated on the loser count: at or below
    ``broadcast_max_losers`` (~16 MB of int64 at the default) the sorted
    loser ids broadcast once via ``ray.put`` and the corpus streams through
    one stateless filter with ZERO shuffle; above it, a bucketed anti-join
    (the corpus rows shuffle once by id). ``metrics_out`` receives
    ``fuzzy_dropped_docs`` plus the pair generator's
    ``minhash_dropped_docs`` (nonzero = LSH bucket caps voided exactness
    for the dropped docs).

    ``docs`` is consumed up to three times (band rows, shingle payloads,
    the loser filter) — when it sits atop an expensive lineage, materialize
    it first (pipelines/corpus.py does; a plain ``read_parquet`` input just
    re-reads)."""
    pairs = minhash_lsh_candidates(
        docs, jaccard_threshold, n_bands=n_bands, metrics_out=metrics_out,
        sig_col=sig_col,
    )
    return dedup_rows_from_pairs(
        docs, pairs, id_col=id_col, broadcast_max_losers=broadcast_max_losers,
        num_buckets=num_buckets, metrics_out=metrics_out,
        metric_key="fuzzy_dropped_docs",
    )


def semantic_dedup_rows(
    docs: "ray.data.Dataset",
    emb: "ray.data.Dataset",
    cosine_threshold: float = 0.95,
    *,
    id_col: str = "doc_id",
    n_parts: int = 8,
    broadcast_max_losers: int = 2_000_000,
    num_buckets: int | None = None,
    metrics_out: dict | None = None,
) -> "ray.data.Dataset":
    """SemDeDup-style row-KEEPING semantic dedup: EXACT cosine ≥ threshold
    pairs over the embedding table (``embedding_neardup``'s block-pair
    matmuls) → connected components → the min-id doc per cluster survives.

    ``emb`` carries (vec_id, embedding) with ``vec_id`` keyed to
    ``docs[id_col]`` — the sidecar shape of the testdata ``embeddings``
    table. Only the (small) embedding table enters the all-pairs stage;
    the doc rows stream through one loser filter (broadcast set or, past
    the gate, a bucketed anti-join). For corpora where exact O(n²) scoring
    is off the table, generate pairs with ``embedding_neardup_lsh`` and
    call ``dedup_rows_from_pairs`` directly."""
    pairs = embedding_neardup(emb, cosine_threshold, n_parts=n_parts).map_batches(
        lambda t: pa.table(
            {"doc_a": t.column("vec_a").cast(pa.int64()),
             "doc_b": t.column("vec_b").cast(pa.int64())}
        ),
        batch_format="pyarrow",
    )
    return dedup_rows_from_pairs(
        docs, pairs, id_col=id_col, broadcast_max_losers=broadcast_max_losers,
        num_buckets=num_buckets, metrics_out=metrics_out,
        metric_key="semantic_dropped_docs",
    )


def dedup_rows_from_pairs(
    docs: "ray.data.Dataset",
    pairs: "ray.data.Dataset",
    *,
    id_col: str = "doc_id",
    broadcast_max_losers: int = 2_000_000,
    num_buckets: int | None = None,
    metrics_out: dict | None = None,
    metric_key: str = "pair_dedup_dropped_docs",
) -> "ray.data.Dataset":
    """Row-keeping dedup given any near-dup PAIR dataset (doc_a, doc_b):
    connected components (auto-gated driver / distributed) elect the
    min-id winner per cluster; every other member is dropped from
    ``docs``. The shared tail of ``fuzzy_dedup_rows`` /
    ``semantic_dedup_rows`` — usable directly with any pair generator
    (``simhash_pairs``, ``ngram_jaccard_pairs``,
    ``embedding_neardup_lsh`` after a rename to doc_a/doc_b)."""
    comp = components_of_pairs(pairs, num_buckets=num_buckets).materialize()
    losers = comp.filter(expr="node != root").materialize()
    n_losers = losers.count()
    if metrics_out is not None:
        metrics_out[metric_key] = n_losers
    return _drop_rows_by_id(
        docs, losers, n_losers, id_col=id_col,
        broadcast_max_losers=broadcast_max_losers, num_buckets=num_buckets,
    )


def _drop_rows_by_id(
    docs: "ray.data.Dataset",
    losers: "ray.data.Dataset",
    n_losers: int,
    *,
    id_col: str,
    broadcast_max_losers: int,
    num_buckets: int | None,
) -> "ray.data.Dataset":
    """Shared loser-removal tail: drop the rows of ``docs`` whose ``id_col``
    appears in ``losers`` (a materialized dataset with a ``node`` int64
    column). Size-gated: broadcast set + streaming filter at or below
    ``broadcast_max_losers``; one bucketed anti-join above it."""
    if n_losers == 0:
        return docs

    if n_losers <= broadcast_max_losers:
        # stateless tasks over one broadcast sorted array: each batch reads
        # it zero-copy from local plasma (the knn.py engine rule)
        ref = ray.put(np.sort(losers.to_pandas()["node"].to_numpy(np.int64)))

        def drop_losers(t: pa.Table) -> pa.Table:
            return t.filter(pa.array(~_in_sorted(int64_array(t.column(id_col)), ray.get(ref))))

        return docs.map_batches(drop_losers, batch_format="pyarrow")

    # huge-loser fallback: bucketed anti-join — corpus rows and loser ids
    # co-locate on the id hash, each bucket drops the marked rows. Ships
    # the full rows through one exchange; only reached when the loser set
    # itself exceeds a broadcastable size.
    doc_schema = _arrow_schema(docs)
    doc_cols = list(doc_schema.names)

    def tag_docs(t: pa.Table) -> pa.Table:
        out = t.select(doc_cols).append_column("_k", t.column(id_col).cast(pa.int64()))
        return out.append_column("_loser", pa.array([False] * t.num_rows)).replace_schema_metadata(None)

    def tag_losers(t: pa.Table) -> pa.Table:
        # null-pad to the doc schema so the union is schema-uniform
        cols = {f.name: pa.nulls(t.num_rows, f.type) for f in doc_schema}
        cols["_k"] = t.column("node").cast(pa.int64())
        cols["_loser"] = pa.array([True] * t.num_rows)
        return pa.table(cols)

    def drop_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        is_loser = df["_loser"].astype(bool)
        bad = set(df.loc[is_loser, "_k"])
        keep = df.loc[~is_loser & ~df["_k"].isin(bad), doc_cols].copy()
        # the null-padded loser rows float-ified int/bool columns in the
        # pandas union; no PADDED nulls survive the filter, so restore the
        # dtypes — but nulls from the ORIGINAL doc rows can, so those
        # columns restore to the pandas NULLABLE dtype (Arrow round-trips
        # it back to the same nullable int/bool type)
        for name, typ in zip(doc_schema.names, doc_schema.types):
            if pa.types.is_integer(typ):
                t = str(typ)
                nullable = "UInt" + t[4:] if t.startswith("uint") else t.capitalize()
                keep[name] = keep[name].astype(
                    nullable if keep[name].isna().any() else t
                )
            elif pa.types.is_boolean(typ):
                keep[name] = keep[name].astype(
                    "boolean" if keep[name].isna().any() else bool
                )
        return keep

    tagged = docs.map_batches(tag_docs, batch_format="pyarrow").union(
        losers.map_batches(tag_losers, batch_format="pyarrow")
    )
    return bucketed_group_apply(tagged, ["_k"], drop_in_bucket, num_buckets=num_buckets)


# ---------------------------------------------------------------------------
# Cross-run fuzzy dedup: persisted MinHash signature state (corpus appends).
# The reference dedups only within one bulk call (bulk_utils.py:258-388);
# this extends the same MinHash machinery across ingestion runs by persisting
# per-document signatures, the piece an incremental 100-TB crawl needs: a
# re-crawled page with a tweaked footer must not re-enter the training set.


def add_minhash_cols(
    t: pa.Table, text_col: str = "text", n_bands: int = N_BANDS
) -> pa.Table:
    """Append two fixed-width BINARY columns per row: ``band_keys``
    (``n_bands`` × uint64 LE — the LSH band hashes with the band INDEX mixed
    in, so equal hashes in different bands can never meet as candidates) and
    ``sig`` (``N_PERM`` × uint64 LE — the full MinHash signature, the
    cross-run Jaccard estimator's basis).

    Binary instead of list columns on purpose: the values ride bucketed
    pandas exchanges and the parquet state table byte-for-byte and decode
    zero-copy on the other side (``np.frombuffer``); Arrow lists degrade to
    object arrays inside the pandas bucket bodies."""
    sigs = _signatures(t.column(text_col).to_pylist())
    n = len(sigs)
    with np.errstate(over="ignore"):
        keys = _finalize(_band_hashes(sigs, n_bands) + _GOLDEN * np.arange(1, n_bands + 1, dtype=np.uint64))
    kb, sb = keys.astype("<u8").tobytes(), sigs.astype("<u8").tobytes()
    kw, sw = 8 * n_bands, 8 * N_PERM
    return t.append_column(
        "band_keys", pa.array([kb[i * kw : (i + 1) * kw] for i in range(n)], pa.binary())
    ).append_column(
        "sig", pa.array([sb[i * sw : (i + 1) * sw] for i in range(n)], pa.binary())
    )


def minhash_state_rows(
    docs: "ray.data.Dataset",
    *,
    text_col: str = "text",
    n_bands: int = N_BANDS,
    num_buckets: int | None = None,
) -> "ray.data.Dataset":
    """(fp, band_keys, sig) per DISTINCT text of ``docs`` — the persisted
    cross-run near-dup state ``fuzzy_cross_dedup_rows`` screens future
    batches against. One bucketed exchange over ~(32 + 8·n_bands + 8·N_PERM)-
    byte rows; the text itself never ships (fp/bands/sig are computed
    map-side and duplicates are byte-identical, so keep-first per fp is
    exact)."""

    def add(t: pa.Table) -> pa.Table:
        t = md5_fp_batch(t, text_col, out_col="fp")
        return add_minhash_cols(t, text_col, n_bands).select(["fp", "band_keys", "sig"])

    def uniq(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates("fp")

    return bucketed_group_apply(
        docs.select_columns([text_col]).map_batches(add, batch_format="pyarrow"),
        ["fp"], uniq, num_buckets=num_buckets,
    )


def fuzzy_cross_dedup_rows(
    fresh: "ray.data.Dataset",
    state: "ray.data.Dataset",
    jaccard_threshold: float,
    *,
    id_col: str = "doc_id",
    n_bands: int = N_BANDS,
    num_buckets: int | None = None,
    broadcast_max_keys: int = 64_000_000,
    max_key_docs: int = MAX_BUCKET_DOCS,
    broadcast_max_losers: int = 2_000_000,
    metrics_out: dict | None = None,
) -> "ray.data.Dataset":
    """Drop the rows of ``fresh`` that are near-duplicates of any document
    in ``state`` (a persisted (fp, band_keys, sig) table from
    ``minhash_state_rows`` — both sides MUST carry the same ``n_bands``).
    ``fresh`` must already carry ``band_keys``/``sig`` (``add_minhash_cols``)
    and is consumed several times — materialize it first.

    Shape, sized for a huge state and a batch-sized ``fresh`` (the corpus
    append contract — an incoming batch approaching base size should be
    re-prepared, not appended):

    1. the batch's distinct band keys broadcast once (``ray.put``; 8 bytes ×
       n_bands × batch docs — gated at ``broadcast_max_keys``, above which
       the call refuses and the operational answer is smaller batches);
    2. the state STREAMS through one map-side membership filter
       (``np.searchsorted`` per batch) — only colliding (band_key, fp, sig)
       rows leave the scan, candidate-sized by LSH design;
    3. two narrow bucketed joins pair them with the batch's band rows and
       signatures; per-pair Jaccard is ESTIMATED as the fraction of agreeing
       signature positions (unbiased, σ ≈ √(J(1−J)/N_PERM) ≈ 0.045 at
       J=0.85 — the honest verifier when re-reading state text would cost a
       corpus-sized read per append; within-run dedup keeps exact-Jaccard
       verification);
    4. estimated J ≥ threshold marks the batch row a loser; losers are
       removed by the shared size-gated tail.

    The estimate's errors are not symmetric in effect: a doc whose true
    Jaccard sits just under the threshold is still dropped a nontrivial
    fraction of the time (about one in six at one σ below), and that drop
    cannot be undone (the append records its text in the seen-set, so it
    is never offered again); a doc just above the threshold can slip
    through into the packs.

    Hot band keys (boilerplate clusters) are capped at ``max_key_docs``
    STATE docs per key with counted drops (``metrics_out
    ['cross_minhash_capped_docs']``) — a capped key can miss a true cross-run
    near-dup, so a nonzero count voids the screen's completeness for those
    keys. ``metrics_out['cross_fuzzy_dropped_docs']`` counts removed rows."""
    # 1. batch band-key set → one broadcast (distinct map-side first: the
    # driver sees at most n_bands × batch-docs uint64s, gated below)
    def keys_of(t: pa.Table) -> pa.Table:
        a = np.frombuffer(b"".join(t.column("band_keys").to_pylist()), "<u8")
        return pa.table({"k": pa.array(np.unique(a).astype(np.int64), pa.int64())})

    blocks = _fetch_arrow_blocks(
        fresh.select_columns(["band_keys"]).map_batches(keys_of, batch_format="pyarrow")
    )
    if not blocks:
        return fresh
    keys = np.unique(np.concatenate([int64_array(b.column("k")) for b in blocks]))
    if keys.size > broadcast_max_keys:
        raise ValueError(
            f"append batch has {keys.size} distinct band keys > broadcast_max_keys="
            f"{broadcast_max_keys} — split the append into smaller batches (cross-run "
            "fuzzy dedup broadcasts the batch's band keys), or re-prepare the base "
            "with the batch folded in"
        )
    keys_ref = ray.put(keys)  # sorted by np.unique

    # 2. state scan: membership of each state doc's band keys in the batch's
    # key set; only colliding rows (one per colliding band) leave the scan
    def state_hits(t: pa.Table) -> pa.Table:
        bk = np.frombuffer(b"".join(t.column("band_keys").to_pylist()), "<i8").reshape(-1, n_bands)
        rows, bands = np.nonzero(_in_sorted(bk, ray.get(keys_ref)))
        sel = t.take(rows)
        return pa.table(
            {
                "bkey": pa.array(bk[rows, bands], pa.int64()),
                "fp": sel.column("fp"),
                "sig_state": sel.column("sig"),
            }
        )

    hits = state.map_batches(state_hits, batch_format="pyarrow")

    # 3a. join 1 on band key: candidate (doc_id, fp, sig_state) pairs.
    # Union is schema-uniform via null padding; the bucket body caps STATE
    # rows per hot key (counted via sentinel rows — the same mechanism as
    # minhash_lsh_candidates' pair cap).
    def new_band_rows(t: pa.Table) -> pa.Table:
        n = t.num_rows
        ids_arr = t.column(id_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        if n and int(ids_arr.min()) < 0:
            # DROP_SENTINEL (-1) is load-bearing in the pair/estimate
            # buckets; a negative batch id would be conflated with it
            raise ValueError(
                f"fuzzy_cross_dedup_rows requires non-negative {id_col} values "
                "(the drop-count sentinel is -1)"
            )
        bk = np.frombuffer(b"".join(t.column("band_keys").to_pylist()), "<u8")
        return pa.table(
            {
                "bkey": pa.array(bk.astype(np.int64), pa.int64()),
                "fp": pa.nulls(n * n_bands, pa.string()),
                "sig_state": pa.nulls(n * n_bands, pa.binary()),
                "doc_id": pa.array(np.repeat(ids_arr, n_bands), pa.int64()),
                "_side": pa.array(np.ones(n * n_bands, np.int8), pa.int8()),
            }
        )

    def pad_hits(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "bkey": t.column("bkey"),
                "fp": t.column("fp"),
                "sig_state": t.column("sig_state"),
                "doc_id": pa.nulls(t.num_rows, pa.int64()),
                "_side": pa.array(np.zeros(t.num_rows, np.int8), pa.int8()),
            }
        )

    combined = hits.map_batches(pad_hits, batch_format="pyarrow").union(
        fresh.map_batches(new_band_rows, batch_format="pyarrow")
    )

    def pair_bucket(df: pd.DataFrame) -> pd.DataFrame:
        st = df.loc[df["_side"] == 0, ["bkey", "fp", "sig_state"]]
        nw = df.loc[df["_side"] == 1, ["bkey", "doc_id"]]
        if st.empty or nw.empty:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype="int64"),
                    "fp": pd.Series([], dtype=object),
                    "sig_state": pd.Series([], dtype=object),
                    "dropped": pd.Series([], dtype="int64"),
                }
            )
        capped = st.sort_values(["bkey", "fp"], kind="stable").groupby("bkey").head(max_key_docs)
        n_capped = len(st) - len(capped)
        pairs = capped.merge(nw, on="bkey").drop_duplicates(["doc_id", "fp"])[
            ["doc_id", "fp", "sig_state"]
        ].assign(dropped=0)
        if n_capped:
            pairs = pd.concat(
                [
                    pairs,
                    pd.DataFrame(
                        {"doc_id": [DROP_SENTINEL], "fp": [None], "sig_state": [b""], "dropped": [n_capped]}
                    ),
                ],
                ignore_index=True,
            )
        return pairs

    cand = bucketed_group_apply(combined, ["bkey"], pair_bucket, num_buckets=num_buckets)

    # 3b. join 2 on doc_id: attach the batch row's own signature, estimate J
    # per pair, emit loser ids. Ships each batch doc's sig once (narrow).
    def new_sig_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t.column(id_col).cast(pa.int64()),
                "fp": pa.nulls(t.num_rows, pa.string()),
                "sig_state": t.column("sig"),
                "dropped": pa.array(np.zeros(t.num_rows, np.int64), pa.int64()),
                "_side": pa.array(np.ones(t.num_rows, np.int8), pa.int8()),
            }
        )

    def pad_cand(t: pa.Table) -> pa.Table:
        # explicit casts: an all-empty pandas bucket block can round-trip
        # its object columns as null-typed Arrow, which would poison the
        # union's schema
        cols = {
            "doc_id": t.column("doc_id").cast(pa.int64()),
            "fp": t.column("fp").cast(pa.string()),
            "sig_state": t.column("sig_state").cast(pa.binary()),
            "dropped": t.column("dropped").cast(pa.int64()),
            "_side": pa.array(np.zeros(t.num_rows, np.int8), pa.int8()),
        }
        return pa.table(cols)

    def est_bucket(df: pd.DataFrame) -> pd.DataFrame:
        cands = df.loc[(df["_side"] == 0) & (df["doc_id"] != DROP_SENTINEL)]
        sent = df.loc[(df["_side"] == 0) & (df["doc_id"] == DROP_SENTINEL)]
        out_n = int(sent["dropped"].sum())
        mine = df.loc[df["_side"] == 1, ["doc_id", "sig_state"]]
        nodes: list[int] = []
        if not cands.empty and not mine.empty:
            m = cands.merge(mine, on="doc_id", suffixes=("", "_new"))
            if not m.empty:
                a = np.frombuffer(b"".join(m["sig_state"]), "<u8").reshape(-1, N_PERM)
                b = np.frombuffer(b"".join(m["sig_state_new"]), "<u8").reshape(-1, N_PERM)
                est = (a == b).mean(axis=1)
                nodes = m.loc[est >= jaccard_threshold, "doc_id"].astype("int64").unique().tolist()
        if out_n:
            nodes.append(DROP_SENTINEL)
        return pd.DataFrame(
            {
                "node": pd.Series(nodes, dtype="int64"),
                "dropped": pd.Series(
                    [int(out_n) if v == DROP_SENTINEL else 0 for v in nodes], dtype="int64"
                ),
            }
        )

    tagged = cand.map_batches(pad_cand, batch_format="pyarrow").union(
        fresh.map_batches(new_sig_rows, batch_format="pyarrow")
    )
    losers = _strip_drops(
        bucketed_group_apply(tagged, ["doc_id"], est_bucket, num_buckets=num_buckets),
        "cross_minhash_capped_docs", metrics_out, id_col="node",
    ).materialize()
    n_losers = losers.count()
    if metrics_out is not None:
        metrics_out["cross_fuzzy_dropped_docs"] = n_losers
    return _drop_rows_by_id(
        fresh, losers, n_losers, id_col=id_col,
        broadcast_max_losers=broadcast_max_losers, num_buckets=num_buckets,
    )


def _arrow_schema(ds: "ray.data.Dataset") -> pa.Schema:
    """Arrow schema of a Dataset regardless of block format (pandas-backed
    datasets report numpy/Python types; one row converts them exactly)."""
    s = ds.schema()
    base = getattr(s, "base_schema", None)
    if isinstance(base, pa.Schema):
        return base
    return pa.Table.from_pandas(ds.limit(1).to_pandas(), preserve_index=False).schema


def simhash64(text: str) -> int:
    """64-bit SimHash over whitespace tokens (md5 token hashes, cached per
    distinct token; bit unpacking vectorized across the token axis)."""
    toks = text.split(" ")
    th = np.fromiter((_tok_hash(t) for t in toks), np.uint64, len(toks))
    shifts = np.arange(64, dtype=np.uint64)
    bits = ((th[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int64)
    acc = (2 * bits - 1).sum(axis=0)
    out = 0
    for i in range(64):
        if acc[i] > 0:
            out |= 1 << i
    return out


def simhash_pairs(
    docs: "ray.data.Dataset",
    max_hamming: int = 3,
    max_bucket_docs: int = MAX_BUCKET_DOCS,
    metrics_out: dict | None = None,
) -> "ray.data.Dataset":
    """Near-dup pairs with Hamming(simhash) <= max_hamming, found via
    4x16-bit band bucketing. For ``max_hamming <= 3`` this is EXACT
    (pigeonhole: any pair within distance 3 shares at least one band) —
    PROVIDED no band bucket exceeds ``max_bucket_docs``: beyond the cap,
    excess docs are dropped from pairing (counted, not just logged — pass
    ``metrics_out`` to receive ``simhash_dropped_docs``, also kept in
    ``DROP_METRICS``; nonzero means the exactness claim no longer holds for
    the dropped docs)."""

    def sig_rows(t: pa.Table) -> pa.Table:
        sh = np.array([simhash64(x) for x in t.column("text").to_pylist()], np.uint64)
        bands = (sh[:, None] >> (np.uint64(16) * np.arange(4, dtype=np.uint64))) & np.uint64(0xFFFF)
        return pa.table(
            {
                "band_id": pa.array(np.tile(np.arange(4, dtype=np.int32), len(sh))),
                "band_val": pa.array(bands.reshape(-1).astype(np.int64)),
                "doc_id": pa.array(np.repeat(int64_array(t.column("doc_id")), 4)),
                "simhash": pa.array(np.repeat(sh, 4)),
            }
        )

    def hamming(rows: pd.DataFrame, ia: np.ndarray, ib: np.ndarray):
        sigs = rows["simhash"].to_numpy(np.uint64)
        x = sigs[ia] ^ sigs[ib]  # popcount of the xor, one bit row per pair
        ham = np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1, dtype=np.int64)
        keep = ham <= max_hamming
        return keep, {"hamming": ham[keep]}

    keys = ["band_id", "band_val"]

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        return bucket_pairs(df, keys, "doc_id", cap=max_bucket_docs, score=hamming, cols={"hamming": "int64"})

    pairs = bucketed_group_apply(
        docs.map_batches(sig_rows, batch_format="pyarrow", batch_size=512), keys, per_bucket
    )
    deduped = bucketed_group_apply(
        pairs, ["doc_a", "doc_b"], lambda df: df.drop_duplicates(["doc_a", "doc_b"])
    )
    return _strip_drops(deduped, "simhash_dropped_docs", metrics_out)


def ngram_jaccard_pairs(docs: "ray.data.Dataset", k: int = 3, threshold: float = 0.5) -> "ray.data.Dataset":
    """EXACT n-gram Jaccard >= threshold pairs via shingle explode +
    pair-count aggregation — the fully SQL-expressible variant (the DuckDB
    oracle mirrors it with unnest + self-join).

    Shuffle shape: explode to (shingle, doc, n_shingles) rows — each row
    carries its doc's shingle count so pair verification needs NO side
    lookup (the round-1 driver-side size dict is gone); groupby(shingle)
    emits per-bucket co-occurring pairs with counts and both sizes, second
    groupby sums intersections and filters on the exact Jaccard.
    """

    def shingle_rows(t: pa.Table) -> pa.Table:
        """Distinct shingles as int64 hashes (vectorized rolling mix over
        cached token hashes — set-equivalent to the shingle strings the SQL
        oracle joins on, and ~3× cheaper to shuffle than md5 hex strings)."""
        ids, texts = t.column("doc_id").to_pylist(), t.column("text").to_pylist()
        per_doc = [_token_hashes(x, k) for x in texts]
        counts = np.array([len(h) for h in per_doc], np.int64)
        sid = np.concatenate(per_doc) if per_doc else np.array([], np.uint64)
        return pa.table(
            {
                "shingle": pa.array(sid.astype(np.int64)),
                "doc_id": pa.array(np.repeat(np.asarray(ids, np.int64), counts)),
                "n_shingles": pa.array(np.repeat(counts, counts)),
            }
        )

    shingles = docs.map_batches(shingle_rows, batch_format="pyarrow")

    def sizes(rows: pd.DataFrame, ia: np.ndarray, ib: np.ndarray):
        n = rows["n_shingles"].to_numpy(np.int64)
        return None, {"na": n[ia], "nb": n[ib]}

    def co_pairs(df: pd.DataFrame) -> pd.DataFrame:
        out = bucket_pairs(df, ["shingle"], "doc_id", score=sizes, cols={"na": "int64", "nb": "int64"})
        # partial pre-aggregation: count co-occurrences within this bucket
        return out.groupby(["doc_a", "doc_b"], as_index=False, sort=False).agg(
            na=("na", "first"), nb=("nb", "first"), n=("doc_a", "size")
        )

    co = bucketed_group_apply(shingles, ["shingle"], co_pairs)

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        agg = df.groupby(["doc_a", "doc_b"], as_index=False, sort=False).agg(
            na=("na", "first"), nb=("nb", "first"), n=("n", "sum")
        )
        union = agg["na"] + agg["nb"] - agg["n"]
        jac = agg["n"] / union.where(union > 0, 1)
        keep = jac >= threshold
        out = agg.loc[keep, ["doc_a", "doc_b"]].reset_index(drop=True)
        out["jaccard"] = jac[keep].round(6).values
        return out

    return bucketed_group_apply(co, ["doc_a", "doc_b"], verify)


# ---------------------------------------------------------------------------
# embedding near-dup
# ---------------------------------------------------------------------------

def _stack_embeddings(col) -> np.ndarray:
    """Normalize a pandas object column of per-row vectors (the per-bucket
    pandas bodies). Arrow columns go through the zero-copy
    ``vectors.embedding_matrix`` instead."""
    return l2_normalize(np.stack([np.asarray(v, np.float64) for v in col]))


def _cosines(col_a, col_b, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """The cosine body both embedding scorers share: unit-normalize each
    side (``col_b=None``: the same rows), one matmul, threshold →
    (similarities, hit mask)."""
    ma = _stack_embeddings(col_a)
    sims = ma @ (ma if col_b is None else _stack_embeddings(col_b)).T
    return sims, sims >= threshold


def _rounded(x: np.ndarray, round_dp: int | None) -> np.ndarray:
    return x if round_dp is None else np.round(x, round_dp)


def embedding_neardup(
    emb: "ray.data.Dataset",
    threshold: float = 0.95,
    n_parts: int = 8,
    round_dp: int | None = 6,
) -> "ray.data.Dataset":
    """EXACT cosine-similar pairs over an embedding column, distributed.

    Block-pair all-pairs: each vector belongs to part ``p = vec_id mod
    n_parts`` and is replicated to the ``n_parts`` blocks ``(min(p,q),
    max(p,q))`` — every unordered part pair (and the diagonal) meets in
    exactly one block, so each candidate pair is scored exactly once by one
    in-bucket matmul. Shuffle cost is ``n_parts`` × the embedding table
    (the unavoidable replication factor of exact all-pairs); nothing is
    materialized on the driver. For corpus sizes where exact O(n²) scoring
    is off the table, use ``embedding_neardup_lsh``.
    """

    def replicate(t: pa.Table) -> pa.Table:
        ids = int64_array(t.column("vec_id"))
        part = ids % n_parts
        tables = []
        for q in range(n_parts):
            blk = np.minimum(part, q) * n_parts + np.maximum(part, q)
            tables.append(
                t.append_column("part", pa.array(part, pa.int32()))
                .append_column("block", pa.array(blk.astype(np.int32), pa.int32()))
                .replace_schema_metadata(None)
            )
        return pa.concat_tables(tables)

    def score_block(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for blk, g in df.groupby("block", sort=False):
            i, j = int(blk) // n_parts, int(blk) % n_parts
            g = g.drop_duplicates(["vec_id", "part"])
            ga = g[g["part"] == i]
            gb = g[g["part"] == j]
            if ga.empty or gb.empty:
                continue
            ids_a = np.asarray(ga["vec_id"], np.int64)
            ids_b = np.asarray(gb["vec_id"], np.int64)
            sims, hit = _cosines(ga["embedding"].tolist(), gb["embedding"].tolist(), threshold)
            if i == j:
                # same row set on both sides: the id inequality alone picks
                # each unordered pair exactly once (rows are not id-sorted)
                hit &= ids_a[:, None] < ids_b[None, :]
            ia, ib = np.nonzero(hit)
            if ia.size == 0:
                continue
            va, vb = ids_a[ia], ids_b[ib]
            lo, hi = np.minimum(va, vb), np.maximum(va, vb)
            outs.append(pd.DataFrame({"vec_a": lo, "vec_b": hi, "cosine": _rounded(sims[ia, ib], round_dp)}))
        if not outs:
            return pd.DataFrame(
                {
                    "vec_a": pd.Series([], dtype="int64"),
                    "vec_b": pd.Series([], dtype="int64"),
                    "cosine": pd.Series([], dtype="float64"),
                }
            )
        return pd.concat(outs, ignore_index=True)

    replicated = emb.map_batches(replicate, batch_format="pyarrow", batch_size=1024)
    return bucketed_group_apply(replicated, ["block"], score_block)


def weighted_neardup(
    docs: "ray.data.Dataset",
    emb: "ray.data.Dataset",
    w_text: float = 0.6,
    w_emb: float = 0.4,
    threshold: float = 0.8,
    n_parts: int = 8,
    candidates: str = "exact",
) -> "ray.data.Dataset":
    """Weighted multi-signal near-dup (reference ``deduplicator.py:26-35,
    221-293``: tunable TF-IDF/embedding/attribute weight mix). The rebuild's
    two signals are exact distinct-token Jaccard (``w_text``) and embedding
    cosine (``w_emb``); a pair is a duplicate when
    ``w_text*jaccard + w_emb*cosine >= threshold``.

    Scale shape: EXACT with a sound pruning bound — since ``jaccard <= 1``,
    any qualifying pair has ``cosine >= (threshold - w_text) / w_emb``, so
    stage 1 is the block-pair cosine scorer at that floor (the only O(n²)
    stage, same replication contract as ``embedding_neardup``; swap in
    ``embedding_neardup_lsh`` candidates for the approximate scale path),
    and stage 2 re-joins the candidate pairs with the two text sides (two
    partitioned hash joins, texts shuffled once each) and applies the exact
    weighted filter vectorized. With ``threshold <= w_text`` the floor is
    vacuous and stage 1 degenerates to exact all-pairs — choose production
    thresholds above ``w_text``.

    ``candidates='lsh'`` swaps stage 1 for the sign-plane-bucketed scorer
    (``embedding_neardup_lsh``): O(n²/2^planes) work, recall < 1 by design
    — the output is always a SUBSET of the exact mode at the same
    parameters (tested).

    ``docs``: (doc_id, text); ``emb``: (vec_id, embedding) with
    ``vec_id == doc_id``. Returns (doc_a, doc_b) pairs, doc_a < doc_b.
    """
    from .joins import hash_join

    if w_emb == 0:
        # text-only weighting (a legitimate point in the reference's tunable
        # mix): the cosine stage is pruned entirely and candidates come from
        # the exact unigram-Jaccard generator at the implied text floor —
        # w_text*jaccard >= threshold  ⇔  jaccard >= threshold/w_text.
        # (k=1 shingles ARE the distinct-token sets the score stage uses.)
        if w_text <= 0:
            raise ValueError("weighted_neardup needs w_text > 0 or w_emb > 0")
        text_floor = threshold / w_text

        def as_cands(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "vec_a": t.column("doc_a").cast(pa.int64()),
                    "vec_b": t.column("doc_b").cast(pa.int64()),
                    "cosine": pa.array(np.zeros(t.num_rows), pa.float64()),
                }
            )

        cands = ngram_jaccard_pairs(docs, k=1, threshold=text_floor).map_batches(
            as_cands, batch_format="pyarrow"
        )
    else:
        floor = max(-1.0, (threshold - w_text) / w_emb)
        if candidates == "lsh":
            cands = embedding_neardup_lsh(emb, threshold=floor, round_dp=None)
        else:
            cands = embedding_neardup(emb, threshold=floor, n_parts=n_parts, round_dp=None)

    def side(name_id: str, name_text: str):
        def f(t: pa.Table) -> pa.Table:
            return pa.table({name_id: t.column("doc_id"), name_text: t.column("text")})

        return f

    ta = docs.map_batches(side("ta_id", "text_a"), batch_format="pyarrow")
    tb = docs.map_batches(side("tb_id", "text_b"), batch_format="pyarrow")
    j1 = hash_join(cands, ta, "vec_a", "ta_id")
    j2 = hash_join(j1, tb, "vec_b", "tb_id")

    def score(t: pa.Table) -> pa.Table:
        a_tok = [set(x.split(" ")) for x in t.column("text_a").to_pylist()]
        b_tok = [set(x.split(" ")) for x in t.column("text_b").to_pylist()]
        inter = np.array([len(a & b) for a, b in zip(a_tok, b_tok)], np.float64)
        union = np.array([len(a | b) for a, b in zip(a_tok, b_tok)], np.float64)
        jac = inter / np.maximum(union, 1.0)
        cos = float64_array(t.column("cosine"))
        w = w_text * jac + w_emb * cos
        keep = w >= threshold
        return pa.table(
            {
                "doc_a": pa.array(int64_array(t.column("vec_a"))[keep], pa.int64()),
                "doc_b": pa.array(int64_array(t.column("vec_b"))[keep], pa.int64()),
            }
        )

    return j2.map_batches(score, batch_format="pyarrow")


def embedding_neardup_lsh(
    emb: "ray.data.Dataset",
    threshold: float = 0.95,
    n_planes: int = 4,
    round_dp: int | None = 6,
) -> "ray.data.Dataset":
    """Approximate scale path: sign-plane LSH bucket both sides, in-bucket
    matmul. Misses cross-bucket pairs (recall < 1 by design — the price of
    O(n²/2^planes) work); output is always a subset of
    ``embedding_neardup`` at the same threshold."""
    from .knn import sign_buckets

    def add_bucket(t: pa.Table) -> pa.Table:
        buckets = sign_buckets(l2_normalize(embedding_matrix(t.column("embedding"))), n_planes)
        return t.append_column("lsh_bucket", pa.array(buckets, pa.int32())).replace_schema_metadata(None)

    def cosine(rows: pd.DataFrame, ia: np.ndarray, ib: np.ndarray):
        sims, hit = _cosines(rows["embedding"].tolist(), None, threshold)
        keep = hit[ia, ib]
        return keep, {"cosine": _rounded(sims[ia[keep], ib[keep]], round_dp)}

    def score(df: pd.DataFrame) -> pd.DataFrame:
        out = bucket_pairs(df, ["lsh_bucket"], "vec_id", score=cosine, cols={"cosine": "float64"})
        return out.drop_duplicates(["doc_a", "doc_b"]).rename(columns={"doc_a": "vec_a", "doc_b": "vec_b"})

    bucketed = emb.map_batches(add_bucket, batch_format="pyarrow", batch_size=1024)
    return bucketed_group_apply(bucketed, ["lsh_bucket"], score)
