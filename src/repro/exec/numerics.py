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
0.0, then add ``X[r, k] * Y[c, k]`` for ``k = 0, 1, ...``, rounding
each product and each add separately.  That is the *defined* summation
order every backend reproduces — a scalar ``for k`` loop (the numba
backend) performs the identical add sequence.  The kernel walks the
edges in chunks of about ``SDDMM_CHUNK`` elements and makes two compiled
calls per chunk: ``X.take(rows, axis=0)`` copies each edge's whole X row
into one reused ``(edges, F)`` block, then scipy's BSR matvec
(``bsr_matvec`` with 1×F blocks, block ``e`` in column ``cols[e]``)
forms the dots.  Its inner loop is a gemv, ``dot = y[i]; for k: dot +=
A[k] * x[k]``, run on a zeroed ``out`` — exactly the canonical order.
An FMA-contracting scipy build would round ``dot + A*x`` once and break
this; ``TestSddmmOrder`` carries a canary input that tells the two
apart.  Chunking preserves bit-identity because every edge's dot
depends only on its own two feature rows: cutting the edge list into
chunks (or into thread/process blocks) changes which edges share a
call, not the add sequence within any one edge.  ``np.einsum`` would
also avoid the per-feature passes but uses SIMD partial accumulators,
so its last-bit results are not reproducible by a scalar kernel.

The fused-GAT edge softmax keeps ``np.maximum.reduceat`` (max is
association-free), ``np.add.reduceat`` and ``np.exp`` as its canonical
kernels; compiled backends may re-implement the elementwise pieces but
must reuse numpy for the pairwise segment sum and libm ``exp``.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import _sparsetools as _st  # private; present in every scipy >= 1.8

from repro.sparse.coo import COOMatrix


def csr_spmm_serial(A: COOMatrix, edge_values: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``Y = A_w @ X`` over the memoized CSR structural view (one C loop)."""
    import scipy.sparse as sp

    indptr, cols, perm = A.csr_arrays()
    data = np.asarray(edge_values, dtype=np.float64)
    if perm is not None:
        data = data[perm]
    M = sp.csr_matrix((data, cols, indptr), shape=A.shape)
    return M @ np.asarray(X)


#: Elements (edges × F) per SDDMM chunk: the ``(edges, F)`` float64 row
#: block stays near 256 KiB, so it is still in cache when the gemv reads
#: it.  Sizing by elements matters: on G14, F=1 wants >=16k edges per
#: chunk and F=64 ~512-1024; a fixed 1024-edge chunk made F=1 ~2x slower.
SDDMM_CHUNK = 32768


def _sddmm_into(
    rows: np.ndarray, cols: np.ndarray, X: np.ndarray, Y: np.ndarray, out: np.ndarray
) -> None:
    """``out[e] = <X[rows[e]], Y[cols[e]]>``, feature-ascending per edge.

    ``out`` is overwritten.  Operands are cast to float64 first, so the
    products are formed in float64 whatever the input dtypes.
    """
    n = out.shape[0]
    if not n:
        return
    X = np.asarray(X, dtype=np.float64)
    Y = np.ascontiguousarray(Y, dtype=np.float64)
    # bsr_matvec reads Y unchecked: reject every index outside the rows
    # and a feature length that would misalign Y's rows.
    if X.shape[1] != Y.shape[1]:
        raise ValueError(f"SDDMM feature lengths differ: {X.shape[1]} vs {Y.shape[1]}")
    if (
        rows.min() < 0 or rows.max() >= X.shape[0]
        or cols.min() < 0 or cols.max() >= Y.shape[0]
    ):
        raise IndexError("SDDMM edge index out of range of the operand rows")
    F = X.shape[1]
    if not F:
        out[...] = 0.0
        return
    edges = max(1, SDDMM_CHUNK // F)
    block = np.empty((min(n, edges), F))
    # Edge i of a chunk is BSR block row i holding one 1×F block.
    ptr = np.arange(block.shape[0] + 1, dtype=cols.dtype)
    y = Y.ravel()
    for s in range(0, n, edges):
        e = min(s + edges, n)
        b, o = block[: e - s], out[s:e]
        # "clip" skips take's buffered bounds check (the guard covers it).
        X.take(rows[s:e], axis=0, out=b, mode="clip")
        o[...] = 0.0
        _st.bsr_matvec(
            e - s, Y.shape[0], 1, F, ptr[: e - s + 1], cols[s:e], b.ravel(), y, o
        )


def sddmm_serial(A: COOMatrix, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``W[e] = <X[row_e], Y[col_e]>`` in the caller's edge order."""
    out = np.empty(A.nnz)
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
