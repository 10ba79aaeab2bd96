"""Similarity search over an embedding column (training-data ops).

- ``knn_brute``   — exact top-k cosine: broadcast the query matrix via
  ``ray.put``, one numpy matmul per batch, per-batch local top-k rows, then
  a tiny driver-side merge of the ≤ k-per-batch candidates — the exchange
  moves only candidate rows (k per batch), never the corpus.
- ``knn_ivf``     — IVF-style scale path: deterministic coarse centroids
  (hash-seeded k-means-free binning), per-bucket scan of only the probed
  buckets.
- ``train_ivf_centroids`` / ``train_pq_codebooks`` — deterministic
  quantizer training (spherical k-means lists; per-subspace product-
  quantizer codebooks) on a bounded partition-independent modulo sample;
  ``pq_encode`` / ``pq_adc_lut`` / ``pq_adc_scores`` are the vectorized
  code/score kernels the persisted IVF-PQ sidecar builds on
  (``search.index.build_ivfpq_index``).

This module is the one home of the quantizer math: ``sign_buckets`` (the
sign-plane LSH hash over the memoized md5 planes), ``nearest_lists`` (IVF
list assignment) and ``probe_order`` (nearest-first list probing). The
streaming scorers here, the persisted sidecars (``search.index``), the
embedding-bucket communities and the LSH near-dup screen all call them,
so one row always lands in the same bucket or list on every path.

Scoring runs as stateless TASKS (broadcast ref read per batch from local
plasma), not actor pools: the per-query state is one small array, and
actor-pool spin-up (~1-2 s for a fresh pool) would dominate small-corpus
latency — the engine-wide rule that pools are for genuinely heavy state
(BASELINE.md design notes).
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from .vectors import embedding_matrix, int64_array, l2_normalize


def _score_batch(t: pa.Table, qref=None, k: int = 10) -> pa.Table:
    q = ray.get(qref)  # local plasma read, cached per worker
    ids = int64_array(t.column("vec_id"))
    m = l2_normalize(embedding_matrix(t.column("embedding")))
    sims = m @ q
    order = np.lexsort((ids, -sims))[:k]  # local top-k
    return pa.table(
        {
            "vec_id": pa.array(ids[order], pa.int64()),
            "cosine": pa.array(np.round(sims[order], 6), pa.float64()),
        }
    )


def _merge_topk(cands: "ray.data.Dataset", k: int) -> pd.DataFrame:
    """Global merge of the per-batch candidates: ≤ k rows per input batch
    survive the map, so this is a k·n_batches-row frame — a driver-side
    sort is the cheap exact merge (a sort-exchange operator would shuffle
    the same handful of rows through a full AllToAll stage)."""
    df = cands.to_pandas()
    if df.empty:
        return pd.DataFrame({"vec_id": pd.Series([], dtype="int64"), "cosine": pd.Series([], dtype="float64")})
    return (
        df.sort_values(["cosine", "vec_id"], ascending=[False, True], kind="mergesort")
        .head(k)
        .reset_index(drop=True)
    )


def knn_brute(emb: "ray.data.Dataset", query_vec: np.ndarray, k: int = 10) -> pd.DataFrame:
    """Exact cosine top-k of ``query_vec`` over the ``embedding`` column.

    Returns a DataFrame (vec_id, cosine) — k rows, cosine rounded to 6 dp,
    ties broken by vec_id (deterministic)."""
    q = l2_normalize(np.asarray(query_vec, np.float64))
    qref = ray.put(q)
    cands = emb.map_batches(
        functools.partial(_score_batch, qref=qref, k=k),
        batch_format="pyarrow", batch_size=4096,
    )
    return _merge_topk(cands, k)


def _score_multi_batch(t: pa.Table, qref=None, k: int = 10) -> pa.Table:
    q = ray.get(qref)
    ids = int64_array(t.column("vec_id"))
    m = l2_normalize(embedding_matrix(t.column("embedding")))
    sims = q @ m.T  # (n_queries, batch)
    kk = min(k, sims.shape[1])
    out_q, out_i, out_s = [], [], []
    for qi in range(sims.shape[0]):
        order = np.lexsort((ids, -sims[qi]))[:kk]
        out_q.append(np.full(kk, qi, np.int64))
        out_i.append(ids[order])
        out_s.append(np.round(sims[qi][order], 6))
    return pa.table(
        {
            "query_idx": pa.array(np.concatenate(out_q)),
            "vec_id": pa.array(np.concatenate(out_i)),
            "cosine": pa.array(np.concatenate(out_s), pa.float64()),
        }
    )


def knn_brute_multi(
    emb: "ray.data.Dataset", query_mat: np.ndarray, k: int = 10
) -> pd.DataFrame:
    """Batched exact top-k: ALL queries broadcast as one matrix
    (``ray.put`` once), ONE matmul per batch scores every query against the
    batch, per-(query, batch) local top-k rows survive, then one bucketed
    per-query merge — the corpus streams once no matter how many queries.
    (The merge stays a shuffle here: candidate volume grows with the query
    count, unlike the single-query path.)

    Returns (query_idx, vec_id, cosine) with k rows per query, ranked
    (cosine desc, vec_id asc)."""
    q = l2_normalize(np.asarray(query_mat, np.float64))
    qref = ray.put(q)
    cands = emb.map_batches(
        functools.partial(_score_multi_batch, qref=qref, k=k),
        batch_format="pyarrow", batch_size=4096,
    )

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["query_idx", "cosine", "vec_id"], ascending=[True, False, True], kind="mergesort")
        return df.groupby("query_idx", sort=False).head(k)

    from ..stages.shuffle import bucketed_group_apply

    return (
        bucketed_group_apply(cands, ["query_idx"], topk)
        .to_pandas()
        .sort_values(["query_idx", "cosine", "vec_id"], ascending=[True, False, True])
        .reset_index(drop=True)
    )


def bucket_of(vec: np.ndarray, n_planes: int = 4) -> int:
    """Deterministic LSH sign-bucket: sign bits vs md5-seeded hyperplanes."""
    return int(sign_buckets(vec, n_planes))


def _plane(i: int, dim: int) -> np.ndarray:
    out = np.empty(dim)
    for d in range(dim):
        h = int.from_bytes(hashlib.md5(f"plane:{i}:{d}".encode()).digest()[:8], "little")
        out[d] = (h / 2**63) - 1.0
    return out


_PLANES_MEMO: dict[tuple[int, int], np.ndarray] = {}


def _planes_for(n_planes: int, dim: int) -> np.ndarray:
    """Module-level memo: one md5 derivation per (n_planes, dim) per worker
    process, not per batch."""
    key = (n_planes, dim)
    if key not in _PLANES_MEMO:
        _PLANES_MEMO[key] = np.stack([_plane(i, dim) for i in range(n_planes)])
    return _PLANES_MEMO[key]


def sign_buckets(m: np.ndarray, n_planes: int) -> np.ndarray:
    """Sign-plane LSH bucket id of each row of ``m`` (a scalar for one
    vector): bit i is set when the row lies on the positive side of plane
    i. The rows are hashed as given — callers that bucket normalized
    vectors normalize first, so each keeps its exact historical bits."""
    planes = _planes_for(n_planes, m.shape[-1])
    return (m @ planes.T > 0).astype(np.int64) @ (1 << np.arange(n_planes))


def nearest_lists(m: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Trained-IVF list of each normalized row: its nearest centroid."""
    return np.argmax(m @ C.T, axis=1).astype(np.int64)


def probe_order(C: np.ndarray, q: np.ndarray, n_probe: int) -> np.ndarray:
    """The ``n_probe`` lists nearest the normalized query, nearest first
    (stable ties, so the probe set is deterministic)."""
    return np.argsort(-(C @ q), kind="stable")[:n_probe]


def _score_ivf_batch(t: pa.Table, qref=None, k: int = 10, n_planes: int = 4) -> pa.Table:
    q, probe = ray.get(qref)
    ids = int64_array(t.column("vec_id"))
    m = l2_normalize(embedding_matrix(t.column("embedding")))
    mask = np.isin(sign_buckets(m, n_planes), list(probe))
    ids, m = ids[mask], m[mask]
    if ids.size == 0:
        return pa.table({"vec_id": pa.array([], pa.int64()), "cosine": pa.array([], pa.float64())})
    sims = m @ q
    order = np.lexsort((ids, -sims))[:k]
    return pa.table(
        {
            "vec_id": pa.array(ids[order], pa.int64()),
            "cosine": pa.array(np.round(sims[order], 6), pa.float64()),
        }
    )


def probe_buckets(target: int, n_planes: int, probe_hamming: int = 1) -> frozenset[int]:
    """Multi-probe set: every bucket whose sign word is within
    ``probe_hamming`` bit flips of the query's (FAISS nprobe analog —
    ``probe_hamming >= n_planes`` scans everything = exact)."""
    return frozenset(
        b for b in range(1 << n_planes) if bin(b ^ target).count("1") <= probe_hamming
    )


def knn_ivf(
    emb: "ray.data.Dataset",
    query_vec: np.ndarray,
    k: int = 10,
    n_planes: int = 4,
    probe_hamming: int = 1,
) -> pd.DataFrame:
    """LSH-bucketed ANN: scan only rows in buckets within ``probe_hamming``
    bit flips of the query's sign bucket. ``n_planes`` sets the partition
    granularity (scan fraction ~ C(n_planes, <=probe_hamming)/2^n_planes),
    ``probe_hamming`` the recall knob — both configurable end to end (same
    knobs as the persisted sidecar, search/index.query_vector_index).
    Approximate — the recall/speed trade is the point; brute force is the
    correctness baseline, and ``ann_recall_curve`` measures the trade."""
    q = l2_normalize(np.asarray(query_vec, np.float64))
    probe = probe_buckets(bucket_of(q, n_planes), n_planes, probe_hamming)
    qref = ray.put((q, probe))
    cands = emb.map_batches(
        functools.partial(_score_ivf_batch, qref=qref, k=k, n_planes=n_planes),
        batch_format="pyarrow", batch_size=4096,
    )
    return _merge_topk(cands, k)


def _sample_key(ids_col: pa.ChunkedArray) -> np.ndarray:
    """Deterministic per-row sample key: int ids pass through, string ids
    hash via pandas' fixed-key siphash (vectorized, process-independent)."""
    if pa.types.is_integer(ids_col.type):
        return int64_array(ids_col)
    vals = ids_col.combine_chunks().to_numpy(zero_copy_only=False)
    return pd.util.hash_array(np.asarray(vals, object)).astype(np.int64) & 0x7FFFFFFFFFFFFFFF


def _sample_matrix(
    emb: "ray.data.Dataset", sample_max: int, id_col: str, emb_col: str, need: int
) -> np.ndarray:
    """Deterministic bounded training sample: rows whose sample key
    ``% step == 0`` (key = the int id itself, or a fixed-key hash for
    string ids — step sized so ≤ ``sample_max`` rows reach the driver,
    bounded at any corpus size), concatenated in id order and
    L2-normalized. ``need`` is the minimum row count the caller can seed
    its quantizer from."""
    n = emb.count()
    step = max(1, int(np.ceil(n / sample_max)))

    def take_sample(t: pa.Table) -> pa.Table:
        mask = pa.array(_sample_key(t.column(id_col)) % step == 0)
        return t.filter(mask)

    # bounded: ≤ sample_max rows total; flat-buffer reshape, no per-row loop
    parts = [
        p for p in ray.get(
            emb.map_batches(take_sample, batch_format="pyarrow").to_arrow_refs()
        )
        if p.num_rows
    ]
    if not parts:
        raise ValueError(f"empty sample cannot seed {need} codewords")
    samp = pa.concat_tables(parts).sort_by(id_col)
    X = l2_normalize(embedding_matrix(samp.column(emb_col)))
    if len(X) < need:
        raise ValueError(f"sample of {len(X)} rows cannot seed {need} codewords")
    return X


def train_ivf_centroids(
    emb: "ray.data.Dataset",
    n_lists: int = 32,
    iters: int = 25,
    sample_max: int = 32768,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    sample: np.ndarray | None = None,
) -> np.ndarray:
    """Deterministic IVF coarse quantizer: spherical k-means on a
    partition-independent modulo sample of the corpus (rows whose sample
    key ``% step == 0``; key = the int id itself, or a fixed-key hash for
    string ids — step sized so ≤ ``sample_max`` rows reach the driver,
    bounded at any corpus size). Init = the first ``n_lists`` sample
    vectors in id order, fixed Lloyd iteration count — no RNG, so the same
    corpus always trains the same centroids. Returns an (n_lists, dim)
    L2-normalized matrix. ``sample`` short-circuits the extraction with a
    precomputed (already normalized) sample matrix so a caller training
    several quantizers pays for ONE corpus pass (build_ivfpq_index)."""
    X = sample if sample is not None else _sample_matrix(emb, sample_max, id_col, emb_col, need=n_lists)
    if len(X) < n_lists:
        raise ValueError(f"sample of {len(X)} rows cannot seed {n_lists} codewords")
    C = X[:n_lists].copy()
    for _ in range(iters):
        a = nearest_lists(X, C)
        for j in range(n_lists):
            pts = X[a == j]
            if len(pts):
                C[j] = pts.mean(0)
        C = l2_normalize(C)
    return C


def train_pq_codebooks(
    emb: "ray.data.Dataset",
    m: int = 8,
    nbits: int = 8,
    iters: int = 25,
    sample_max: int = 32768,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    sample: np.ndarray | None = None,
) -> np.ndarray:
    """Deterministic product-quantizer training (Jégou et al., PQ): split
    the L2-normalized vector into ``m`` contiguous subvectors and train an
    independent ``2**nbits``-codeword Euclidean k-means per subspace on the
    same partition-independent bounded sample as ``train_ivf_centroids``
    (init = first codewords in id order, fixed Lloyd count — no RNG).
    Returns an (m, 2**nbits, dim//m) float64 codebook tensor. Codes are
    uint8 on disk, so ``nbits`` ≤ 8. A reconstructed vector is the
    concatenation of its codewords; with normalized inputs the ADC inner
    product approximates cosine directly."""
    if not 1 <= nbits <= 8:
        raise ValueError(f"nbits must be in [1, 8] (uint8 codes), got {nbits}")
    ncode = 1 << nbits
    X = sample if sample is not None else _sample_matrix(emb, sample_max, id_col, emb_col, need=ncode)
    if len(X) < ncode:
        raise ValueError(f"sample of {len(X)} rows cannot seed {ncode} codewords")
    dim = X.shape[1]
    if dim % m:
        raise ValueError(f"dim {dim} not divisible by m={m} subspaces")
    dsub = dim // m
    books = np.empty((m, ncode, dsub), np.float64)
    for j in range(m):
        Xj = np.ascontiguousarray(X[:, j * dsub : (j + 1) * dsub])
        C = Xj[:ncode].copy()
        for _ in range(iters):
            # ||x - c||² ranks like -2 x·c + ||c||² (||x||² constant per row)
            a = np.argmin(-2.0 * (Xj @ C.T) + (C * C).sum(axis=1), axis=1)
            for c in range(ncode):
                pts = Xj[a == c]
                if len(pts):
                    C[c] = pts.mean(0)
        books[j] = C
    return books


def pq_encode(X: np.ndarray, codebooks: np.ndarray) -> np.ndarray:
    """Encode L2-normalized rows to (n, m) uint8 codes: per subspace, the
    nearest (Euclidean) codeword. One (batch × ncode) matmul per subspace —
    no per-row Python."""
    m, ncode, dsub = codebooks.shape
    codes = np.empty((len(X), m), np.uint8)
    for j in range(m):
        Xj = X[:, j * dsub : (j + 1) * dsub]
        C = codebooks[j]
        codes[:, j] = np.argmin(-2.0 * (Xj @ C.T) + (C * C).sum(axis=1), axis=1)
    return codes


def pq_adc_lut(q: np.ndarray, codebooks: np.ndarray) -> np.ndarray:
    """Asymmetric-distance lookup table for one L2-normalized query:
    LUT[j, c] = q_j · codebook[j][c], so a stored code scores as
    ``LUT[arange(m), codes].sum(axis=1)`` ≈ cosine(q, x) — m table lookups
    + one sum per row instead of a dim-wide dot product."""
    m, ncode, dsub = codebooks.shape
    return np.einsum("mcd,md->mc", codebooks, np.asarray(q, np.float64).reshape(m, dsub))


def pq_adc_scores(codes: np.ndarray, lut: np.ndarray) -> np.ndarray:
    """Vectorized ADC scoring of (n, m) uint8 codes against a query LUT."""
    m = lut.shape[0]
    return lut[np.arange(m)[None, :], codes].sum(axis=1)


def _score_ivf_trained_batch(t: pa.Table, ref=None, k: int = 10) -> pa.Table:
    q, C, probe = ray.get(ref)
    ids = int64_array(t.column("vec_id"))
    m = l2_normalize(embedding_matrix(t.column("embedding")))
    mask = np.isin(nearest_lists(m, C), probe)
    ids, m = ids[mask], m[mask]
    if ids.size == 0:
        return pa.table({"vec_id": pa.array([], pa.int64()), "cosine": pa.array([], pa.float64())})
    sims = m @ q
    order = np.lexsort((ids, -sims))[:k]
    return pa.table(
        {
            "vec_id": pa.array(ids[order], pa.int64()),
            "cosine": pa.array(np.round(sims[order], 6), pa.float64()),
        }
    )


def knn_ivf_trained(
    emb: "ray.data.Dataset",
    query_vec: np.ndarray,
    centroids: np.ndarray,
    k: int = 10,
    n_probe: int = 8,
) -> pd.DataFrame:
    """Trained-centroid IVF ANN, INDEX-FREE streaming form: stream the
    whole embeddings table, re-derive each row's nearest centroid, score
    only rows whose list is probed. This reads (and argmaxes) the full
    corpus per query — fine for one-off queries over data with no sidecar,
    WRONG as the repeated-query scale path. The 100-TB path is the
    PERSISTED form: ``search.index.build_ivf_index`` assigns each row once
    at build time into list-partitioned Parquet and
    ``search.index.query_ivf_index`` reads only the probed lists' files
    (identical results given the same centroids — parity-tested; measured
    bytes-read fractions in BASELINE.md). Centroids come from
    ``train_ivf_centroids``; data-adaptive lists beat the data-oblivious
    sign-plane buckets on recall at equal scan (``ivf_recall_curve``)."""
    q = l2_normalize(np.asarray(query_vec, np.float64))
    C = l2_normalize(np.asarray(centroids, np.float64))
    ref = ray.put((q, C, probe_order(C, q, n_probe)))
    cands = emb.map_batches(
        functools.partial(_score_ivf_trained_batch, ref=ref, k=k),
        batch_format="pyarrow", batch_size=4096,
    )
    return _merge_topk(cands, k)


def ivf_recall_curve(
    emb: "ray.data.Dataset",
    query_vecs: np.ndarray,
    k: int = 10,
    configs: tuple[tuple[int, int], ...] = ((16, 4), (32, 4), (32, 8), (64, 8)),
) -> pd.DataFrame:
    """Measured recall-vs-scan trade for the TRAINED IVF knobs
    (n_lists, n_probe), mirroring ``ann_recall_curve``. One training +
    one occupancy histogram per n_lists; exact scan fractions."""
    qs = l2_normalize(np.asarray(query_vecs, np.float64))
    brute = [set(_merge_topk(emb.map_batches(
        functools.partial(_score_batch, qref=ray.put(q), k=k),
        batch_format="pyarrow", batch_size=4096,
    ), k)["vec_id"]) for q in qs]

    rows = []
    for n_lists in sorted({nl for nl, _ in configs}):
        C = train_ivf_centroids(emb, n_lists=n_lists)
        cref = ray.put(C)

        def hist(t: pa.Table) -> pa.Table:
            C_ = ray.get(cref)
            m = l2_normalize(embedding_matrix(t.column("embedding")))
            b, c = np.unique(nearest_lists(m, C_), return_counts=True)
            return pa.table({"list_id": pa.array(b, pa.int64()), "n": pa.array(c, pa.int64())})

        h = emb.map_batches(hist, batch_format="pyarrow").to_pandas()
        occ = h.groupby("list_id")["n"].sum().to_dict()
        total = sum(occ.values())
        for nl, n_probe in configs:
            if nl != n_lists:
                continue
            hits = scanned = 0
            for qi, q in enumerate(qs):
                probe = probe_order(C, q, n_probe)
                scanned += sum(occ.get(int(b), 0) for b in probe)
                got = set(knn_ivf_trained(emb, q, C, k=k, n_probe=n_probe)["vec_id"])
                hits += len(got & brute[qi])
            rows.append(
                {
                    "n_lists": n_lists,
                    "n_probe": n_probe,
                    "scan_frac": round(scanned / (total * len(qs)), 4),
                    "recall": round(hits / (k * len(qs)), 4),
                    "scan_reduction": round(total * len(qs) / max(1, scanned), 2),
                }
            )
    return pd.DataFrame(rows)


def ann_recall_curve(
    emb: "ray.data.Dataset",
    query_vecs: np.ndarray,
    k: int = 10,
    configs: tuple[tuple[int, int], ...] = ((4, 1), (6, 1), (6, 2), (8, 1), (8, 2)),
) -> pd.DataFrame:
    """Measured recall-vs-scan trade for the ANN knobs: for each
    (n_planes, probe_hamming) config, recall@k vs brute force averaged
    over the query set, plus the EXACT scan fraction (probed-bucket
    occupancy / corpus size, from one streaming histogram pass per
    n_planes). Rows: (n_planes, probe_hamming, scan_frac, recall,
    scan_reduction)."""
    qs = l2_normalize(np.asarray(query_vecs, np.float64))
    brute = [set(_merge_topk(emb.map_batches(
        functools.partial(_score_batch, qref=ray.put(q), k=k),
        batch_format="pyarrow", batch_size=4096,
    ), k)["vec_id"]) for q in qs]

    def hist(t: pa.Table, n_planes: int = 4) -> pa.Table:
        m = l2_normalize(embedding_matrix(t.column("embedding")))
        b, c = np.unique(sign_buckets(m, n_planes), return_counts=True)
        return pa.table({"bucket": pa.array(b, pa.int64()), "n": pa.array(c, pa.int64())})

    occupancy: dict[int, dict[int, int]] = {}
    for n_planes in sorted({np_ for np_, _ in configs}):
        h = emb.map_batches(
            functools.partial(hist, n_planes=n_planes), batch_format="pyarrow"
        ).to_pandas()
        occupancy[n_planes] = h.groupby("bucket")["n"].sum().to_dict()

    rows = []
    for n_planes, width in configs:
        occ = occupancy[n_planes]
        total = sum(occ.values())
        hits = scanned = 0
        for qi, q in enumerate(qs):
            probe = probe_buckets(bucket_of(q, n_planes), n_planes, width)
            scanned += sum(occ.get(b, 0) for b in probe)
            got = set(knn_ivf(emb, q, k=k, n_planes=n_planes, probe_hamming=width)["vec_id"])
            hits += len(got & brute[qi])
        rows.append(
            {
                "n_planes": n_planes,
                "probe_hamming": width,
                "scan_frac": round(scanned / (total * len(qs)), 4),
                "recall": round(hits / (k * len(qs)), 4),
                "scan_reduction": round(total * len(qs) / max(1, scanned), 2),
            }
        )
    return pd.DataFrame(rows)
