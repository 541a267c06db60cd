"""Compiled backend — numba-JIT hot loops with an eager numpy fallback.

``profile``/``timeline`` show warm launches dominated by interpreter
and scipy dispatch overhead rather than memory bandwidth; this backend
replaces the sharded fan-out with one compiled whole-launch kernel
(``whole_launch = True``) that parallelizes internally via
``numba.prange``.  numba stays an **optional** dependency: when it is
not importable every launch runs the exact serial per-block numerics
instead ("eager" mode), so the backend is always selectable.

Bit-identity rules (the parity suite gates these):

* CSR SpMM/SpMV: scipy's ``csr_matvec(s)`` accumulates each output
  element over its NZEs in ascending ``jj`` order; the scalar prange
  loops below perform the identical per-element add sequence (each
  output row is owned by exactly one thread), so results match the
  serial path bit-for-bit at any thread count.
* SDDMM: the canonical numerics accumulate each edge dot from 0.0 in
  ascending feature order (:func:`repro.exec.numerics.sddmm_block`:
  a row gather plus scipy's compiled gemv per edge chunk, also the
  eager fallback); the scalar ``k`` loop below is the same add sequence
  per edge.
* Fused-GAT edge pipeline: the score pass (gather + leaky-relu) and
  segment max are compiled (both exact — elementwise ops and ``max``
  are association-free); ``np.exp`` and the segment-sum stay on the
  *same* numpy kernels the serial path uses, because re-associating a
  pairwise float sum or swapping libm for SVML would break cross-
  backend bit-identity for last-bit ulps.
"""

from __future__ import annotations

import os

import numpy as np

from repro.exec import numerics
from repro.exec.backends.base import (
    NumericsBackend,
    ShardLaunch,
    run_shard_with_retries,
)

try:  # optional dependency — the container may not ship numba
    import numba
    from numba import njit, prange

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised on numba-less hosts
    numba = None
    NUMBA_AVAILABLE = False


if NUMBA_AVAILABLE:  # pragma: no cover - requires numba in the env

    @njit(parallel=True, cache=True)
    def _nb_csr_spmm(indptr, cols, data, X, out, row_start, row_end):
        for i in prange(row_start, row_end):
            for jj in range(indptr[i], indptr[i + 1]):
                a = data[jj]
                c = cols[jj]
                for k in range(X.shape[1]):
                    out[i, k] += a * X[c, k]

    @njit(parallel=True, cache=True)
    def _nb_csr_spmv(indptr, cols, data, x, out, row_start, row_end):
        for i in prange(row_start, row_end):
            acc = out[i]
            for jj in range(indptr[i], indptr[i + 1]):
                acc += data[jj] * x[cols[jj]]
            out[i] = acc

    @njit(parallel=True, cache=True)
    def _nb_sddmm(rows, cols, X, Y, out, nnz_start, nnz_end):
        for e in prange(nnz_start, nnz_end):
            r = rows[e]
            c = cols[e]
            acc = 0.0
            for k in range(X.shape[1]):
                acc += X[r, k] * Y[c, k]
            out[e] = acc

    @njit(parallel=True, cache=True)
    def _nb_gat_scores(rows, cols, el, er, negative_slope):
        out = np.empty(rows.shape[0])
        for e in prange(rows.shape[0]):
            s = el[rows[e]] + er[cols[e]]
            out[e] = s if s > 0 else negative_slope * s
        return out

    @njit(parallel=True, cache=True)
    def _nb_segment_max(values, bounds, n_values):
        out = np.empty(bounds.shape[0])
        for s in prange(bounds.shape[0]):
            end = bounds[s + 1] if s + 1 < bounds.shape[0] else n_values
            m = values[bounds[s]]
            for i in range(bounds[s] + 1, end):
                if values[i] > m:
                    m = values[i]
            out[s] = m
        return out


class CompiledBackend(NumericsBackend):
    """Whole-launch JIT numerics (numba), eager numpy when absent."""

    name = "compiled"
    needs_workers = False
    whole_launch = True

    def __init__(self, engine):
        super().__init__(engine)
        self._threads_set = False

    def _ensure_threads(self) -> None:
        if not NUMBA_AVAILABLE or self._threads_set:
            return
        want = self.engine.workers if self.engine.workers > 1 else (os.cpu_count() or 1)
        numba.set_num_threads(max(1, min(want, numba.config.NUMBA_NUM_THREADS)))
        self._threads_set = True

    def _body(self, launch: ShardLaunch):
        if not NUMBA_AVAILABLE:

            def eager(b):
                launch.run_block(b)
                return "eager"

            return eager
        self._ensure_threads()

        def compiled(b):  # pragma: no cover - requires numba in the env
            if launch.op == "csr":
                if launch.X.ndim == 1:
                    _nb_csr_spmv(
                        launch.indptr, launch.cols, launch.data, launch.X,
                        launch.out, b.row_start, b.row_end,
                    )
                else:
                    _nb_csr_spmm(
                        launch.indptr, launch.cols, launch.data, launch.X,
                        launch.out, b.row_start, b.row_end,
                    )
            else:
                _nb_sddmm(
                    launch.rows, launch.cols, launch.X, launch.Y,
                    launch.out, b.nnz_start, b.nnz_end,
                )
            return f"numba[{numba.get_num_threads()}]"

        return compiled

    def run_blocks(self, launch: ShardLaunch) -> list[float]:
        body = self._body(launch)
        reset = launch.block_reset
        return [
            run_shard_with_retries(self.engine, launch.kind, b, body, reset)
            for b in launch.blocks
        ]

    def gat_alpha(self, A, el, er, negative_slope=0.2):
        if not NUMBA_AVAILABLE or A.nnz == 0:
            return numerics.gat_edge_softmax_serial(
                A, el, er, negative_slope=negative_slope
            )
        return self._gat_alpha_numba(A, el, er, negative_slope)

    def _gat_alpha_numba(self, A, el, er, negative_slope):  # pragma: no cover
        self._ensure_threads()
        rows = A.rows
        scores = _nb_gat_scores(
            rows, A.cols,
            np.asarray(el, dtype=np.float64), np.asarray(er, dtype=np.float64),
            float(negative_slope),
        )
        bounds = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
        seg_max = _nb_segment_max(scores, bounds, scores.shape[0])
        full_max = np.zeros(A.num_rows)
        full_max[rows[bounds]] = seg_max
        ex = np.exp(scores - full_max[rows])
        # Segment sum stays on np.add.reduceat: numpy's pairwise
        # accumulation is the canonical order shared with the serial path.
        seg_sum = np.add.reduceat(ex, bounds)
        full_sum = np.ones(A.num_rows)
        full_sum[rows[bounds]] = seg_sum
        return ex / full_sum[rows]
