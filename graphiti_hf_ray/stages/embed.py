"""Deterministic hash embedder (SURVEY.md M6 / ST2, FIXTURES.md F6).

Stands in for the reference's EmbedderClient
(graphiti_core/embedder/client.py; batch path nodes.py:870-877 — newline →
space normalization kept). Character-trigram feature hashing into
``EMBED_DIM`` float32 buckets with a deterministic md5-derived sign/bucket,
L2-normalized — identical vectors in every process, so dedup-threshold tests
(node cos ≥ 0.8, edge cos ≥ 0.6 — bulk_utils.py:258, 347) are reproducible.

``Embedder`` below adds a fixed-size-list column to an Arrow batch. Every
caller runs it as a stateless ``map_batches`` function or calls it on one
table; the trigram cache is module-global, so it fills once per process. A
real model drops in by replacing the class (same signature), e.g. with
``num_gpus=…`` on the stage.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from ..schemas import EMBED_DIM


def _trigram_hash(tri: str) -> tuple[int, float]:
    h = int.from_bytes(hashlib.md5(tri.encode("utf-8")).digest()[:8], "little")
    return h % EMBED_DIM, 1.0 if (h >> 62) & 1 else -1.0


_CACHE: dict[str, tuple[int, float]] = {}


def embed_text(text: str, dim: int = EMBED_DIM) -> np.ndarray:
    """Deterministic embedding of one string (L2-normalized float32[dim])."""
    s = " " + text.replace("\n", " ").lower() + " "
    v = np.zeros(dim, dtype=np.float64)
    for i in range(len(s) - 2):
        tri = s[i : i + 3]
        bh = _CACHE.get(tri)
        if bh is None:
            bh = _trigram_hash(tri)
            if len(_CACHE) < 1_000_000:
                _CACHE[tri] = bh
        v[bh[0]] += bh[1]
    n = np.linalg.norm(v)
    if n > 0:
        v /= n
    return v.astype(np.float32)


def embed_many(texts, dim: int = EMBED_DIM) -> np.ndarray:
    return np.stack([embed_text(t, dim) for t in texts]) if len(texts) else np.zeros((0, dim), np.float32)


class Embedder:
    """Batch function: add ``<out_col>`` fixed-size-list<float32, D> column
    embedding ``<text_col>``. It holds no model state; the trigram cache is
    module-global, one per process."""

    def __init__(self, text_col: str, out_col: str, dim: int = EMBED_DIM):
        self.text_col, self.out_col, self.dim = text_col, out_col, dim

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.text_col).to_pylist()
        mat = embed_many(texts, self.dim)
        arr = pa.FixedSizeListArray.from_arrays(pa.array(mat.ravel(), pa.float32()), self.dim)
        return batch.append_column(self.out_col, arr)
