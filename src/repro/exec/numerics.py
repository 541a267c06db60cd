"""Serial and per-block kernel numerics shared by the execution engine.

The serial functions are the exact numerics the kernels ran before the
engine existed (moved here from ``repro.kernels.gnnone.spmm`` so the
engine does not import the kernel layer); the block functions compute
one row block / NZE range of the same result, writing into a caller
slice of the pooled output buffer.

Bit-identity argument: scipy's ``csr @ dense`` is one C loop per row
accumulating NZEs in CSR order (``csr_matvecs``); running the same loop
per row block over absolute ``indptr`` slices of the *same* shared
``cols``/``vals`` arrays performs the identical per-row instruction
sequence, so block outputs match the serial sweep bit-for-bit.

SDDMM accumulates each edge dot in ascending feature order: start at
0.0, then add ``X[r, k] * Y[c, k]`` for ``k = 0, 1, ...``.  That is the
*defined* summation order every backend reproduces — a scalar ``for k``
loop (the numba backend) performs the identical add sequence.  The
kernel is cache-blocked and feature-major: the operands are transposed
once to ``(F, n)`` rows, and the edges are walked in chunks of
``SDDMM_CHUNK``; per chunk and feature, ``take`` gathers the chunk's row
and column features into two small reused buffers, multiplies them in
place and adds the product into the chunk's output slice, so the
working set stays in cache and no ``(nnz, F)`` gather is ever built.
Chunking preserves bit-identity because every edge's dot depends only
on its own two feature rows: cutting the edge list into chunks (or into
thread/process blocks) changes which edges share a vectorized pass, not
the add sequence within any one edge.  ``np.einsum`` would skip the
feature passes but uses SIMD partial accumulators, so its last-bit
results are not reproducible by a scalar kernel.

The fused-GAT edge softmax keeps ``np.maximum.reduceat`` (max is
association-free), ``np.add.reduceat`` and ``np.exp`` as its canonical
kernels; compiled backends may re-implement the elementwise pieces but
must reuse numpy for the pairwise segment sum and libm ``exp``.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.coo import COOMatrix

try:  # scipy >= 1.8 private module (stable for a decade; guarded anyway)
    from scipy.sparse import _sparsetools as _st
except ImportError:  # pragma: no cover - ancient scipy
    _st = None


def csr_spmm_serial(A: COOMatrix, edge_values: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``Y = A_w @ X`` over the memoized CSR structural view (one C loop)."""
    import scipy.sparse as sp

    indptr, cols, perm = A.csr_arrays()
    data = np.asarray(edge_values, dtype=np.float64)
    if perm is not None:
        data = data[perm]
    M = sp.csr_matrix((data, cols, indptr), shape=A.shape)
    return M @ np.asarray(X)


#: Edges per cache block of the SDDMM kernel: the two chunk buffers, the
#: chunk's indices and its output slice stay cache-resident across all
#: feature passes (4k-32k measured within noise of each other on G14).
SDDMM_CHUNK = 16384


def _sddmm_into(
    rows: np.ndarray, cols: np.ndarray, X: np.ndarray, Y: np.ndarray, out: np.ndarray
) -> None:
    """``out[e] = <X[rows[e]], Y[cols[e]]>``, feature-ascending per edge.

    ``out`` is overwritten.  Casting both operands to their common type
    up front is exact and is what ``X[r, k] * Y[c, k]`` does implicitly.
    """
    n = out.shape[0]
    if not n:
        return
    if rows.max() >= X.shape[0] or cols.max() >= Y.shape[0]:
        raise IndexError("SDDMM edge index out of range of the operand rows")
    dtype = np.result_type(X.dtype, Y.dtype)
    XT = np.ascontiguousarray(X.T, dtype=dtype)
    YT = np.ascontiguousarray(Y.T, dtype=dtype)
    bx = np.empty(min(n, SDDMM_CHUNK), dtype=dtype)
    by = np.empty_like(bx)
    for s in range(0, n, SDDMM_CHUNK):
        e = min(s + SDDMM_CHUNK, n)
        # intp indices once per chunk, not once per take; "wrap" skips
        # take's buffered bounds check (the guard above covers it).
        r = rows[s:e].astype(np.intp, copy=False)
        c = cols[s:e].astype(np.intp, copy=False)
        x, y, o = bx[: e - s], by[: e - s], out[s:e]
        o[...] = 0.0
        for k in range(XT.shape[0]):
            np.take(XT[k], r, out=x, mode="wrap")
            np.take(YT[k], c, out=y, mode="wrap")
            np.multiply(x, y, out=x)
            np.add(o, x, out=o)


def sddmm_serial(A: COOMatrix, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``W[e] = <X[row_e], Y[col_e]>`` in the caller's edge order."""
    X, Y = np.asarray(X), np.asarray(Y)
    out = np.empty(A.nnz, dtype=np.result_type(X.dtype, Y.dtype, np.float64))
    _sddmm_into(A.rows, A.cols, X, Y, out)
    return out


def csr_block_spmm(
    indptr: np.ndarray,
    cols: np.ndarray,
    data: np.ndarray,
    X: np.ndarray,
    out: np.ndarray,
    row_start: int,
    row_end: int,
    nnz_start: int,
    nnz_end: int,
    num_cols: int,
) -> None:
    """Accumulate rows ``[row_start, row_end)`` of ``A_w @ X`` into ``out``.

    ``out`` rows must be zero on entry (the C kernel accumulates).  The
    ``indptr`` slice keeps its absolute values so ``cols``/``data`` stay
    the full shared arrays — a zero-copy view of the block.
    """
    n_rows = row_end - row_start
    y = out[row_start:row_end]
    if n_rows <= 0:
        return
    if _st is not None:
        if X.ndim == 1:
            _st.csr_matvec(
                n_rows, num_cols, indptr[row_start : row_end + 1], cols, data, X, y
            )
        else:
            _st.csr_matvecs(
                n_rows,
                num_cols,
                X.shape[1],
                indptr[row_start : row_end + 1],
                cols,
                data,
                X.ravel(),
                y.ravel(),
            )
        return
    # Fallback: rebase the indptr slice and let scipy build the block.
    import scipy.sparse as sp  # pragma: no cover - exercised only w/o _sparsetools

    block_ptr = indptr[row_start : row_end + 1].astype(np.int64) - nnz_start
    M = sp.csr_matrix(
        (data[nnz_start:nnz_end], cols[nnz_start:nnz_end], block_ptr),
        shape=(n_rows, num_cols),
    )
    y[...] = M @ X


def sddmm_block(
    rows: np.ndarray,
    cols: np.ndarray,
    X: np.ndarray,
    Y: np.ndarray,
    out: np.ndarray,
    nnz_start: int,
    nnz_end: int,
) -> None:
    """Fill edges ``[nnz_start, nnz_end)`` of the blocked SDDMM."""
    s = slice(nnz_start, nnz_end)
    _sddmm_into(rows[s], cols[s], X, Y, out[s])


def gat_edge_softmax_serial(
    A: COOMatrix,
    el: np.ndarray,
    er: np.ndarray,
    *,
    negative_slope: float = 0.2,
) -> np.ndarray:
    """Fused-GAT edge pipeline: leaky-relu scores + per-row softmax.

    ``A`` must be CSR-ordered so each row's edges form one contiguous
    segment.  This is the canonical alpha every backend must match
    bit-for-bit; the segment reductions deliberately stay on numpy's
    ``reduceat`` kernels (see module docstring).
    """
    rows, cols = A.rows, A.cols
    scores = el[rows] + er[cols]
    scores = np.where(scores > 0, scores, negative_slope * scores)
    if not A.nnz:
        return scores
    bounds = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    seg_max = np.maximum.reduceat(scores, bounds)
    full_max = np.zeros(A.num_rows)
    full_max[rows[bounds]] = seg_max
    ex = np.exp(scores - full_max[rows])
    seg_sum = np.add.reduceat(ex, bounds)
    full_sum = np.ones(A.num_rows)
    full_sum[rows[bounds]] = seg_sum
    return ex / full_sum[rows]
