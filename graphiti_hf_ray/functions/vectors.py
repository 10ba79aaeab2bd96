"""Zero-copy Arrow→numpy embedding kernels.

Embedding columns (``list<float>`` / ``fixed_size_list<float>``) dominate
bytes at scale; converting them through per-row Python lists
(``to_pylist()`` + ``np.stack``) allocates one list object per row per
batch. Every equal-width list column instead reshapes straight from the
flat Arrow child buffer: one vectorized ``list_value_length`` check, one
``flatten()`` (offset-aware, no copy for the no-null case), one
``reshape`` — the only copy left is the float32→float64 upcast the cosine
kernels need for oracle-grade precision.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def embedding_matrix(col, dtype=np.float64) -> np.ndarray:
    """Arrow list-of-float column → ``(n, dim)`` matrix without per-row
    Python lists. Ragged or null-bearing input (never produced by the
    engine's embedding writers) falls back to the row loop."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.zeros((0, 0), dtype)
    if col.null_count == 0 and (
        pa.types.is_list(col.type) or pa.types.is_large_list(col.type) or pa.types.is_fixed_size_list(col.type)
    ):
        widths = pc.list_value_length(col).to_numpy()
        w = int(widths[0])
        if w > 0 and (widths == w).all():
            flat = col.flatten().to_numpy(zero_copy_only=False)
            return flat.reshape(n, w).astype(dtype, copy=False)
    return np.stack([np.asarray(v, dtype) for v in col.to_pylist()])


def l2_normalize(m: np.ndarray) -> np.ndarray:
    """Unit-length rows (or one unit vector); zero rows stay zero."""
    return m / np.maximum(np.linalg.norm(m, axis=-1, keepdims=True), 1e-12)


def int64_array(col) -> np.ndarray:
    """Arrow integer column → int64 numpy array (no Python list hop)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)


def float64_array(col) -> np.ndarray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col.to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
