"""Persisted per-partition vector-index sidecars (SURVEY.md S4/ST3;
reference FAISS shard persistence, graphiti_hf/search/vector_search.py:
326-389 save/load of per-table indices).

Ray-Data-native index = partitioned Parquet, not a FAISS binary. Three
layouts share one write path and the same query machinery:

- **sign-plane** (data-oblivious): vectors hash to deterministic LSH sign
  buckets (``functions.knn.sign_buckets``), one directory per bucket.
- **trained IVF** (data-adaptive — the 100-TB recommendation): vectors are
  assigned ONCE at build time to their nearest trained centroid
  (``functions.knn.train_ivf_centroids``), one directory per list;
  centroids persist in the manifest so queries never touch the corpus.
  Measured recall at equal scan is far better than sign-plane buckets
  (BASELINE.md ANN section), and unlike the streaming ``knn_ivf_trained``
  re-scorer a query reads ONLY the probed lists' files — the scan
  fraction is bytes actually read, not a post-hoc mask.
- **IVF-PQ** (compressed — FAISS IndexIVFPQ shape): the trained-IVF list
  layout, but rows store m-byte product-quantizer CODES instead of full
  vectors (32× smaller probed scans at dim=64/m=8); queries score by ADC
  table lookup, and an optional refine stage re-ranks the ADC shortlist
  exactly against a same-centroid full-vector sidecar (reads the SAME
  probed lists, never the corpus). Measured trade in BASELINE.md.

A query reads only the probed partitions' files (partition pruning — the
Parquet analog of probing IVF lists), scoring them with the same
vectorized kernel as the streaming path. Exactness knobs:
``probe_hamming=n_planes`` / ``n_probe=n_lists`` read every partition
(= exact, just pre-partitioned); smaller values trade recall for IO, like
FAISS nprobe.

Layout::

    index_dir/
      _index_manifest.json        # n_planes|centroids, dim, cols, counts
      bucket=0003/part=0000/part-0.parquet + _manifest.json
      list=0007/part=0001/...
      list=0007/epoch=ab12cd34ef56/part=0000/...   # incremental adds
      ...

One write path: a ``build_*`` function only trains or validates its
quantizers and fills the manifest fields; ``_write_index`` does the rest
for every layout. ``_layout`` derives the row encoder from the manifest
itself, so a build and every later append assign and encode rows
identically. Each row is assigned once and the keyed rows materialized;
one cheap occupancy histogram over them sizes per-partition part counts
(``ceil(rows / rows_per_part)`` — skew-exact, a hot partition gets more
parts), then ONE bucketed shuffle on the (partition, salt) key whose
groups are part-sized — never a whole partition in one task (a 4-plane
index has only 16 buckets; at 100 TB one bucket per task is a guaranteed
OOM). Each part is written atomically (io.write_shard_atomic) so a killed
build resumes per part; stale parts are swept, row and byte counts are
rescanned from disk, and the manifest is committed atomically.

Incremental adds (``append_to_index``, the FAISS ``index.add`` contract):
new rows are assigned with the PERSISTED centroids/planes/codebooks and
written as an epoch subdir per partition — no collision with base parts,
no rebuild, query path unchanged (it walks probed partitions
recursively). A full rebuild sweeps every epoch.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from .. import io as gio
from ..functions.knn import (
    bucket_of, nearest_lists, pq_encode, probe_buckets, probe_order, sign_buckets,
)
from ..functions.vectors import embedding_matrix, l2_normalize

INDEX_MANIFEST = "_index_manifest.json"
DEFAULT_ROWS_PER_PART = 262_144


def _salt_of(ids: np.ndarray, n_salts: np.ndarray) -> np.ndarray:
    """Deterministic per-row salt in [0, n_salts_of_that_row): fixed-key
    siphash (process-independent), vectorized."""
    arr = np.asarray(ids)
    if arr.dtype.kind in "iu":
        h = pd.util.hash_array(arr.astype(np.int64, copy=False))
    else:
        h = pd.util.hash_array(arr.astype(object))
    h = h.astype(np.int64) & 0x7FFFFFFFFFFFFFFF
    return h % np.maximum(n_salts, 1)


def _probe_dim(probe_vec) -> int:
    return int(np.asarray(probe_vec).shape[-1])


def _partition_parquet_files(index_dir: str, dirnames: list[str]) -> list[str]:
    """All part files under the named partition dirs (recursive — parts are
    atomic shard SUBdirs), skipping in-flight .tmp- writers."""
    paths = []
    for d in dirnames:
        root = os.path.join(index_dir, d)
        if not os.path.isdir(root):
            continue
        for dirpath, dn, filenames in os.walk(root):
            gio._prune_tmp(dn)
            for fn in sorted(filenames):
                if fn.endswith(".parquet"):
                    paths.append(os.path.join(dirpath, fn))
    return paths


def _part_is_current(part_dir: str, fingerprint: str) -> bool:
    man_p = os.path.join(part_dir, gio.MANIFEST)
    if not os.path.exists(man_p):
        return False
    with open(man_p) as f:
        return json.load(f).get("fingerprint", "").startswith(fingerprint + ":")


def _sweep_stale_parts(
    index_dir: str, prefix: str, expected: set[tuple[int, int]], fingerprint: str, epoch: str | None
) -> None:
    """Remove what a previous write (different fingerprint or salt sizing,
    or a crashed attempt) left behind — the query path globs every part in
    a probed partition, so stale parts would silently double rows.

    A FULL build (``epoch=None``) owns each whole partition dir: append
    epochs from any earlier generation, ``.tmp-`` writers and legacy
    flat-layout remains (part-N.parquet files and the bucket-level
    _manifest.json of the pre-sub-shard build) all go. An append owns only
    its own ``epoch=<tag>`` subdir; base parts and other epochs stay."""
    for d in sorted(os.listdir(index_dir)):
        if not d.startswith(prefix + "="):
            continue
        pid = int(d.split("=", 1)[1])
        root = os.path.join(index_dir, d, *([] if epoch is None else [f"epoch={epoch}"]))
        if not os.path.isdir(root):
            continue
        for sub in sorted(os.listdir(root)):
            p = os.path.join(root, sub)
            if (
                sub.startswith("part=")
                and (pid, int(sub.split("=", 1)[1])) in expected
                and _part_is_current(p, fingerprint)
            ):
                continue
            if os.path.isdir(p):
                shutil.rmtree(p, ignore_errors=True)
            else:
                try:
                    os.remove(p)
                except OSError:
                    pass
        if not os.listdir(root):
            os.rmdir(root)


def _scan_partition_stats(index_dir: str, prefix: str) -> tuple[dict[int, int], dict[int, int]]:
    """(rows, bytes) per partition, rescanned from the part-shard manifests
    and file sizes on disk — the idempotent ground truth after appends or
    resumed/crashed builds (driver-held counts can be stale)."""
    rows: dict[int, int] = {}
    bts: dict[int, int] = {}
    for d in sorted(os.listdir(index_dir)):
        if not d.startswith(prefix + "="):
            continue
        pid = int(d.split("=", 1)[1])
        pdir = os.path.join(index_dir, d)
        r = b = 0
        for dirpath, dn, filenames in os.walk(pdir):
            gio._prune_tmp(dn)
            for fn in filenames:
                if fn == gio.MANIFEST:
                    with open(os.path.join(dirpath, fn)) as f:
                        r += int(json.load(f).get("rows", 0))
                elif fn.endswith(".parquet"):
                    b += os.path.getsize(os.path.join(dirpath, fn))
        if r or b:
            rows[pid], bts[pid] = r, b
    return rows, bts


def _layout(man: dict):
    """``(partition prefix, payload column, encode)`` for the manifest's
    kind, where ``encode(batch) -> (payload array, partition ids)``. Built
    from the persisted manifest only, so a build and every later append
    assign and encode rows identically. The quantizer arrays travel as one
    object-store ref, not inside the pickled closure."""
    kind, emb_col = man.get("kind"), man["emb_col"]
    if kind == "sign_plane":
        n_planes = man["n_planes"]

        def encode(t: pa.Table):
            col = t.column(emb_col)
            return col, sign_buckets(l2_normalize(embedding_matrix(col)), n_planes)

        return "bucket", emb_col, encode
    if kind not in ("ivf_trained", "ivf_pq"):
        raise ValueError(f"unknown index kind {kind!r}")
    C = np.asarray(man["centroids"], np.float64)
    if kind == "ivf_trained":
        cref = ray.put(C)

        def encode(t: pa.Table):
            col = t.column(emb_col)
            return col, nearest_lists(l2_normalize(embedding_matrix(col)), ray.get(cref))

        return "list", emb_col, encode
    qref = ray.put((C, np.asarray(man["codebooks"], np.float64)))
    m = int(man["m"])

    def encode(t: pa.Table):
        C_, B_ = ray.get(qref)
        X = l2_normalize(embedding_matrix(t.column(emb_col)))
        codes = pa.FixedSizeListArray.from_arrays(pa.array(pq_encode(X, B_).reshape(-1), pa.uint8()), m)
        return codes, nearest_lists(X, C_)

    return "list", man["code_col"], encode


def _write_index(
    ds: "ray.data.Dataset",
    index_dir: str,
    man: dict,
    fingerprint: str,
    rows_per_part: int,
    epoch: str | None = None,
) -> dict:
    """The one sidecar write path: assign each row once → histogram →
    (partition, salt) shuffle with atomic part-dir writes inside the group
    task (rows never return to the driver) → stale-part sweep → rescan →
    atomic manifest commit. Returns the committed manifest.

    ``epoch`` (append mode): parts land under
    ``{prefix}=NNNN/epoch=<epoch>/part=MMMM`` — a namespace the base
    build's part ids can never collide with — and the sweep is scoped to
    that epoch, so existing data is never touched."""
    if not fingerprint:
        # part resume keys on the fingerprint: reusing one (e.g. the empty
        # default) over changed input would keep serving the old parts
        raise ValueError("index writes require a non-empty fingerprint naming the input")
    prefix, payload_col, encode = _layout(man)
    id_col = man["id_col"]

    def assign(t: pa.Table) -> pa.Table:
        payload, part = encode(t)
        out = pa.table({id_col: t.column(id_col), payload_col: payload, "_p": pa.array(part, pa.int32())})
        return out.replace_schema_metadata(None)

    # materialized once: the histogram and the keyed write both replay
    # these blocks instead of re-reading storage or re-assigning rows
    keyed = ds.map_batches(assign, batch_format="pyarrow").materialize()

    def hist(t: pa.Table) -> pa.Table:
        b, c = np.unique(t.column("_p").to_numpy(), return_counts=True)
        return pa.table({"p": pa.array(b, pa.int64()), "n": pa.array(c, pa.int64())})

    h = keyed.map_batches(hist, batch_format="pyarrow").to_pandas()
    # ≤ n_partitions rows; an empty input loses even the column names
    occ = {} if h.empty else h.groupby("p")["n"].sum().to_dict()
    salts = {int(p): max(1, math.ceil(n / rows_per_part)) for p, n in occ.items()}
    max_salts = max(salts.values(), default=1)
    # salt lookup as a dense numpy LUT (partition ids are small ints from
    # the histogram) — no per-row Python in the write path's key tagging
    lut = np.ones(max(salts, default=0) + 2, np.int64)
    for p, n in salts.items():
        lut[p] = n

    def add_key(t: pa.Table) -> pa.Table:
        part = t.column("_p").to_numpy().astype(np.int64)
        ids = t.column(id_col).combine_chunks().to_numpy(zero_copy_only=False)
        salt = _salt_of(ids, lut[np.minimum(part, len(lut) - 1)])
        return t.append_column("_pkey", pa.array(part * (max_salts + 1) + salt, pa.int64()))

    os.makedirs(index_dir, exist_ok=True)
    sub = "" if epoch is None else f"epoch={epoch}"

    def write_part(g: pd.DataFrame) -> pd.DataFrame:
        p = int(g["_p"].iloc[0])
        s = int(g["_pkey"].iloc[0]) - p * (max_salts + 1)
        t = pa.Table.from_pandas(
            g.drop(columns=["_p", "_pkey"]).sort_values(id_col), preserve_index=False
        )
        gio.write_shard_atomic(
            t,
            os.path.join(index_dir, f"{prefix}={p:04d}", sub, f"part={s:04d}"),
            fingerprint + f":{prefix}{p}:s{s}/{salts[p]}",
        )
        return pd.DataFrame({"p": [p]})

    (
        keyed.map_batches(add_key, batch_format="pyarrow")
        .groupby("_pkey")
        .map_groups(write_part, batch_format="pandas")
        .materialize()
    )
    expected = {(p, s) for p, ns in salts.items() for s in range(ns)}
    _sweep_stale_parts(index_dir, prefix, expected, fingerprint, epoch)
    rows, bts = _scan_partition_stats(index_dir, prefix)
    man.update({prefix + "s": rows, "bytes": bts, "rows": int(sum(rows.values()))})
    tmp = os.path.join(index_dir, INDEX_MANIFEST + ".tmp-rw")
    with open(tmp, "w") as f:
        json.dump(man, f)
    os.replace(tmp, os.path.join(index_dir, INDEX_MANIFEST))
    return man


def build_vector_index(
    ds: "ray.data.Dataset",
    index_dir: str,
    emb_col: str,
    id_col: str = "uuid",
    n_planes: int = 4,
    fingerprint: str = "",
    rows_per_part: int = DEFAULT_ROWS_PER_PART,
) -> dict:
    """Build (or resume) the sign-plane bucket-partitioned sidecar for one
    embedding column. Parts are (bucket, salt) sub-shards capped near
    ``rows_per_part`` rows so no single task or file ever carries a whole
    bucket (2^n_planes buckets × 100 TB ÷ 16 was the old funnel).
    ``fingerprint`` must name the input: a rebuild under the same one
    resumes the existing parts."""
    probe = ds.take(1)
    if not probe:
        raise ValueError("empty dataset")
    man = {
        "kind": "sign_plane",
        "n_planes": n_planes,
        "dim": _probe_dim(probe[0][emb_col]),
        "emb_col": emb_col,
        "id_col": id_col,
        "fingerprint": fingerprint,
    }
    return _write_index(ds, index_dir, man, fingerprint, rows_per_part)


def build_ivf_index(
    ds: "ray.data.Dataset",
    index_dir: str,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    n_lists: int = 32,
    centroids: np.ndarray | None = None,
    fingerprint: str = "",
    rows_per_part: int = DEFAULT_ROWS_PER_PART,
) -> dict:
    """Persisted trained-IVF sidecar (VERDICT r4 #1): every row is assigned
    to its nearest centroid ONCE at build time and written into
    list-partitioned Parquet; the centroid matrix persists in the manifest.
    Queries (``query_ivf_index``) then read only the probed lists' files —
    the reference's FAISS save/query contract (vector_search.py:229-285,
    326-389) with Parquet partitions instead of a binary index. The
    streaming ``functions.knn.knn_ivf_trained`` remains the index-free
    fallback; results are identical given the same centroids
    (parity-tested). Per-list bytes let scan fractions be reported as
    bytes actually read, not a row mask."""
    from ..functions.knn import train_ivf_centroids

    if centroids is None:
        centroids = train_ivf_centroids(ds, n_lists=n_lists, id_col=id_col, emb_col=emb_col)
    C = l2_normalize(np.asarray(centroids, np.float64))
    man = {
        "kind": "ivf_trained",
        "n_lists": int(C.shape[0]),
        "dim": int(C.shape[1]),
        "emb_col": emb_col,
        "id_col": id_col,
        "fingerprint": fingerprint,
        "centroids": C.tolist(),  # float64 — json round-trips exactly
    }
    return _write_index(ds, index_dir, man, fingerprint, rows_per_part)


def build_ivfpq_index(
    ds: "ray.data.Dataset",
    index_dir: str,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    n_lists: int = 32,
    m: int = 8,
    nbits: int = 8,
    centroids: np.ndarray | None = None,
    codebooks: np.ndarray | None = None,
    fingerprint: str = "",
    rows_per_part: int = DEFAULT_ROWS_PER_PART,
) -> dict:
    """IVF-PQ sidecar (FAISS ``IndexIVFPQ`` shape): same list partitioning
    as ``build_ivf_index``, but each row stores an m-byte product-quantizer
    CODE instead of the full vector — for dim=64/float32 and m=8 that is a
    32× smaller probed-list scan, the compression a 100-TB embedding table
    needs before ANY per-query scan is affordable. Assignment and encoding
    happen ONCE at build time in one streaming pass (list = nearest trained
    centroid, code = per-subspace nearest codeword); centroids AND
    codebooks persist in the manifest so queries never touch the corpus.
    Queries (``query_ivfpq_index``) read only the probed lists' code files
    and score by ADC table lookup; an optional refine step re-ranks the
    ADC shortlist exactly against a full-vector ``build_ivf_index`` sidecar
    sharing the same centroids. Training is deterministic
    (``functions.knn.train_pq_codebooks``). Reference contract: the FAISS
    index save/query surface (graphiti_hf/search/vector_search.py:229-285,
    326-389) — same persistence semantics, quantized storage instead of a
    flat binary index."""
    from ..functions.knn import _sample_matrix, train_ivf_centroids, train_pq_codebooks

    # uint8 codes cap nbits at 8 regardless of where the codebooks come
    # from (caller-supplied books skip train_pq_codebooks' own guard)
    if not 1 <= nbits <= 8:
        raise ValueError(f"nbits must be in [1, 8] (uint8 codes), got {nbits}")
    # both quantizers train on the same deterministic bounded sample —
    # extract it ONCE (one corpus pass, not one per trainer)
    sample = None
    if centroids is None or codebooks is None:
        sample = _sample_matrix(ds, 32768, id_col, emb_col, need=1)
    if centroids is None:
        centroids = train_ivf_centroids(
            ds, n_lists=n_lists, id_col=id_col, emb_col=emb_col, sample=sample
        )
    C = l2_normalize(np.asarray(centroids, np.float64))
    if codebooks is None:
        codebooks = train_pq_codebooks(
            ds, m=m, nbits=nbits, id_col=id_col, emb_col=emb_col, sample=sample
        )
    B = np.asarray(codebooks, np.float64)
    m, ncode, dsub = (int(x) for x in B.shape)
    if C.shape[1] != m * dsub:
        raise ValueError(f"codebooks cover dim {m * dsub} != centroid dim {C.shape[1]}")
    if ncode != 1 << nbits:
        # caller-supplied codebooks must agree with nbits: ncode > 256 would
        # silently wrap in the uint8 code column, a mismatch records a lie
        raise ValueError(f"codebooks have {ncode} codewords != 2**nbits ({1 << nbits})")
    man = {
        "kind": "ivf_pq",
        "n_lists": int(C.shape[0]),
        "dim": int(C.shape[1]),
        "m": m,
        "nbits": int(nbits),
        "emb_col": emb_col,
        "code_col": "pq_code",
        "id_col": id_col,
        "fingerprint": fingerprint,
        "centroids": C.tolist(),  # float64 — json round-trips exactly
        "codebooks": B.tolist(),
    }
    return _write_index(ds, index_dir, man, fingerprint, rows_per_part)


def _epoch_tag(fingerprint: str) -> str:
    return hashlib.md5(fingerprint.encode()).hexdigest()[:12]


def append_to_index(
    ds: "ray.data.Dataset",
    index_dir: str,
    fingerprint: str,
    rows_per_part: int = DEFAULT_ROWS_PER_PART,
) -> dict:
    """Incrementally add vectors to an EXISTING sidecar of any layout — the
    reference's FAISS ``index.add`` contract (graphiti_hf/search/
    vector_search.py:229-285) without rebuilding or retraining: new rows
    are assigned (and, for IVF-PQ, encoded) with the PERSISTED planes,
    centroids and codebooks, so they land exactly where a one-shot build
    would put them, and are written as a new append epoch
    (``list=NNNN/epoch=<tag>/part=MMMM``) that can never collide with the
    base parts or other epochs; the query path picks the new parts up with
    no change (it walks each probed partition recursively).

    ``fingerprint`` must uniquely name this batch of additions — re-running
    the same append is a resume (finished parts skip via their shard
    manifests), not a duplication; a DIFFERENT batch needs a different
    fingerprint. Row/byte counts in the index manifest are rescanned from
    disk, so the recorded totals are exact even after crashes. The
    quantizers stay fixed — after appending many times the data drifts
    from the trained quantization, so periodically rebuild (a full build
    sweeps every epoch)."""
    man = _manifest(index_dir)
    probe = ds.take(1)
    dim = _probe_dim(probe[0][man["emb_col"]]) if probe else man["dim"]
    if dim != man["dim"]:
        raise ValueError(f"append dim {dim} != index dim {man['dim']}")
    gens = man.setdefault("generations", [man["fingerprint"]])
    if fingerprint not in gens:
        gens.append(fingerprint)
    return _write_index(
        ds, index_dir, man, fingerprint, rows_per_part, epoch=_epoch_tag(fingerprint)
    )


def load_index_manifest(index_dir: str) -> dict | None:
    p = os.path.join(index_dir, INDEX_MANIFEST)
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return json.load(f)


def _manifest(index_dir: str, *kinds: str) -> dict:
    """The index manifest, refusing a missing index (FileNotFoundError) or
    one of another layout than ``kinds`` (ValueError)."""
    man = load_index_manifest(index_dir)
    if man is None:
        raise FileNotFoundError(f"no index manifest under {index_dir}")
    if kinds and man.get("kind") not in kinds:
        raise ValueError(f"{index_dir} holds a {man.get('kind')!r} index, not {' or '.join(kinds)}")
    return man


def query_vector_index(
    index_dir: str,
    query_vec: np.ndarray,
    k: int = 10,
    probe_hamming: int = 1,
    min_score: float = 0.6,
) -> pd.DataFrame:
    """Top-k cosine over ONLY the probed buckets (partition pruning).

    ``probe_hamming`` = how many sign bits may disagree with the query's
    bucket (FAISS nprobe analog); ``probe_hamming >= n_planes`` reads every
    bucket and is exact."""
    import ray.data as rd

    man = _manifest(index_dir, "sign_plane")
    n_planes = man["n_planes"]
    q = l2_normalize(np.asarray(query_vec, np.float64))
    probe = probe_buckets(bucket_of(q, n_planes), n_planes, probe_hamming)
    paths = _partition_parquet_files(index_dir, [f"bucket={b:04d}" for b in sorted(probe)])
    if not paths:
        return pd.DataFrame({man["id_col"]: [], "score": pd.Series([], dtype="float64")})
    from .vector import cosine_topk

    ds = rd.read_parquet(paths, columns=[man["id_col"], man["emb_col"]])
    return cosine_topk(ds, q, emb_col=man["emb_col"], id_col=man["id_col"], k=k, min_score=min_score)


def _ivf_probe_lists(man: dict, q: np.ndarray, n_probe: int) -> np.ndarray:
    return probe_order(np.asarray(man["centroids"], np.float64), q, n_probe)


def query_ivf_index(
    index_dir: str,
    query_vec: np.ndarray,
    k: int = 10,
    n_probe: int = 8,
) -> pd.DataFrame:
    """Trained-IVF query: read ONLY the ``n_probe`` nearest lists' part
    files, score with the streaming kernel, merge the ≤ k-per-batch
    candidates on the driver. Returns (id_col, cosine) ranked
    (cosine desc, id asc) — identical to ``knn_ivf_trained`` with the same
    centroids (parity-tested), at a fraction of the IO (bytes actually
    read = the probed lists' files; ``ivf_scan_stats`` reports it)."""
    import functools

    import ray.data as rd

    man = _manifest(index_dir, "ivf_trained")
    q = l2_normalize(np.asarray(query_vec, np.float64))
    probe = _ivf_probe_lists(man, q, n_probe)
    paths = _partition_parquet_files(
        index_dir, [f"list={int(b):04d}" for b in sorted(int(x) for x in probe)]
    )
    id_col, emb_col = man["id_col"], man["emb_col"]
    if not paths:
        return pd.DataFrame({id_col: [], "cosine": pd.Series([], dtype="float64")})
    qref = ray.put(q)

    def score(t: pa.Table, qref=qref) -> pa.Table:
        q_ = ray.get(qref)
        ids = t.column(id_col).combine_chunks().to_numpy(zero_copy_only=False)
        m = l2_normalize(embedding_matrix(t.column(emb_col)))
        sims = m @ q_
        order = np.lexsort((ids, -sims))[:k]
        return pa.table(
            {
                id_col: pa.array(ids[order].tolist(), t.column(id_col).type),
                "cosine": pa.array(np.round(sims[order], 6), pa.float64()),
            }
        )

    cands = rd.read_parquet(paths, columns=[id_col, emb_col]).map_batches(
        functools.partial(score), batch_format="pyarrow", batch_size=4096
    )
    df = cands.to_pandas()
    if df.empty:
        return pd.DataFrame({id_col: [], "cosine": pd.Series([], dtype="float64")})
    return (
        df.sort_values(["cosine", id_col], ascending=[False, True], kind="mergesort")
        .head(k)
        .reset_index(drop=True)
    )


def query_ivfpq_index(
    index_dir: str,
    query_vec: np.ndarray,
    k: int = 10,
    n_probe: int = 8,
    refine_index_dir: str | None = None,
    refine_factor: int = 4,
) -> pd.DataFrame:
    """IVF-PQ query: read ONLY the ``n_probe`` nearest lists' CODE files
    (m bytes/row instead of the full vector), score by ADC table lookup,
    merge the ≤ shortlist-per-batch candidates on the driver. Returns
    (id_col, adc_score) ranked by the approximate score.

    ``refine_index_dir`` (FAISS refine stage): re-rank the top
    ``k * refine_factor`` ADC candidates EXACTLY against a full-vector
    ``build_ivf_index`` sidecar built with the SAME centroids — the
    shortlist's rows live in the same probed lists by construction, so the
    refine pass reads only those lists' files too (never the corpus) and
    returns (id_col, cosine) with exact cosines."""
    import ray.data as rd

    from ..functions.knn import pq_adc_lut, pq_adc_scores

    man = _manifest(index_dir, "ivf_pq")
    q = l2_normalize(np.asarray(query_vec, np.float64))
    lut = pq_adc_lut(q, np.asarray(man["codebooks"], np.float64))
    probe = _ivf_probe_lists(man, q, n_probe)
    probe_dirs = [f"list={int(b):04d}" for b in sorted(int(x) for x in probe)]
    id_col, code_col = man["id_col"], man["code_col"]
    shortlist_k = max(k, k * refine_factor) if refine_index_dir is not None else k
    out_score = "cosine" if refine_index_dir is not None else "adc_score"
    empty = pd.DataFrame({id_col: [], out_score: pd.Series([], dtype="float64")})
    rman = None
    if refine_index_dir is not None:
        # validate the refine sidecar BEFORE the distributed ADC scan — a
        # stale/mismatched sidecar must fail fast, not after the IO
        rman = _manifest(refine_index_dir, "ivf_trained")
        if rman["id_col"] != id_col:
            raise ValueError(f"refine id_col {rman['id_col']!r} != index id_col {id_col!r}")
        if rman["centroids"] != man["centroids"]:
            raise ValueError("refine sidecar was built with different centroids")
        if rman["lists"] != man["lists"]:
            raise ValueError(
                "refine sidecar rows don't match the pq index (stale after an "
                "append? append to BOTH sidecars, or rebuild)"
            )
    paths = _partition_parquet_files(index_dir, probe_dirs)
    if not paths:
        return empty
    lref = ray.put(lut)

    def score(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:  # embedding_matrix gives (0, 0) — skip the LUT kernel
            return pa.table(
                {id_col: pa.array([], t.column(id_col).type), "adc_score": pa.array([], pa.float64())}
            )
        lut_ = ray.get(lref)
        ids = t.column(id_col).combine_chunks().to_numpy(zero_copy_only=False)
        # round BEFORE the per-batch cut so shortlist membership at rounding
        # ties is independent of file/batch layout (append epochs re-batch)
        sims = np.round(pq_adc_scores(embedding_matrix(t.column(code_col), np.uint8), lut_), 6)
        order = np.lexsort((ids, -sims))[:shortlist_k]
        return pa.table(
            {
                id_col: pa.array(ids[order].tolist(), t.column(id_col).type),
                "adc_score": pa.array(sims[order], pa.float64()),
            }
        )

    df = (
        rd.read_parquet(paths, columns=[id_col, code_col])
        .map_batches(score, batch_format="pyarrow", batch_size=4096)
        .to_pandas()
    )
    if df.empty:
        return empty
    short = (
        df.sort_values(["adc_score", id_col], ascending=[False, True], kind="mergesort")
        .head(shortlist_k)
        .reset_index(drop=True)
    )
    if refine_index_dir is None:
        return short.head(k).reset_index(drop=True)

    rpaths = _partition_parquet_files(refine_index_dir, probe_dirs)
    if not rpaths:
        return empty
    remb = rman["emb_col"]
    wref = ray.put(short[id_col].to_numpy())
    qref = ray.put(q)

    def exact(t: pa.Table) -> pa.Table:
        w, q_ = ray.get(wref), ray.get(qref)
        ids = t.column(id_col).combine_chunks().to_numpy(zero_copy_only=False)
        mask = np.isin(ids, w)
        id_type = t.column(id_col).type
        if not mask.any():
            return pa.table({id_col: pa.array([], id_type), "cosine": pa.array([], pa.float64())})
        X = l2_normalize(embedding_matrix(t.column(remb)))[mask]
        ids = ids[mask]
        sims = np.round(X @ q_, 6)
        order = np.lexsort((ids, -sims))[:k]
        return pa.table(
            {
                id_col: pa.array(ids[order].tolist(), id_type),
                "cosine": pa.array(sims[order], pa.float64()),
            }
        )

    rdf = (
        rd.read_parquet(rpaths, columns=[id_col, remb])
        .map_batches(exact, batch_format="pyarrow", batch_size=4096)
        .to_pandas()
    )
    if rdf.empty:
        return empty
    return (
        rdf.sort_values(["cosine", id_col], ascending=[False, True], kind="mergesort")
        .head(k)
        .reset_index(drop=True)
    )


def ivf_scan_stats(index_dir: str, query_vec: np.ndarray, n_probe: int = 8) -> dict:
    """IO accounting for one query: bytes/rows of the probed lists vs the
    whole index — BYTES READ, not a mask fraction (the r4 verdict's exact
    complaint about the streaming path's 'scan_frac')."""
    man = _manifest(index_dir, "ivf_trained", "ivf_pq")
    q = l2_normalize(np.asarray(query_vec, np.float64))
    probe = {int(x) for x in _ivf_probe_lists(man, q, n_probe)}
    rows_total = sum(man["lists"].values())
    bytes_total = sum(man["bytes"].values())
    rows_probed = sum(n for b, n in man["lists"].items() if int(b) in probe)
    bytes_probed = sum(n for b, n in man["bytes"].items() if int(b) in probe)
    return {
        "rows_probed": rows_probed,
        "rows_total": rows_total,
        "bytes_probed": bytes_probed,
        "bytes_total": bytes_total,
        "bytes_frac": round(bytes_probed / bytes_total, 4) if bytes_total else 0.0,
        "rows_frac": round(rows_probed / rows_total, 4) if rows_total else 0.0,
    }


def build_graph_indices(out_dir: str, n_planes: int = 4) -> dict:
    """Sidecar indices for the graph's two embedding columns (the
    reference's auto_rebuild_indices surface, huggingface_driver.py:
    1298-1304). Index dirs live beside the tables they index.

    Each build is fingerprinted by the indexed table's part files
    (relative path, size, mtime_ns) and the plane count: table edits go
    through tmp + os.replace, so any edit re-indexes instead of resuming
    the previous parts, and an unchanged table resumes as a no-op."""
    import ray.data as rd

    built = {}
    for table, emb_col in (("nodes", "name_embedding"), ("edges", "fact_embedding")):
        troot = os.path.join(out_dir, table)
        if not os.path.isdir(troot):
            continue
        fp = gio.part_files_fingerprint(troot, f"planes={n_planes}")[:16]
        ds = rd.read_parquet(troot, columns=["uuid", emb_col])
        idx_dir = os.path.join(out_dir, f"_index_{table}_{emb_col}")
        built[table] = build_vector_index(ds, idx_dir, emb_col, "uuid", n_planes, fp)
    return built
