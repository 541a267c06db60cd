"""DGL's kernels [35].

* :class:`DGLSDDMM` — DGL's own edge-parallel COO SDDMM: one warp per
  NZE with vanilla feature-parallel lanes.  Workload is perfectly
  balanced (the paper credits this) but there is **no data reuse**: the
  NZE ids are re-read per warp, row features are re-fetched for every
  edge of the same row, each lane issues one scalar load before the
  5-round tree reduction's memory barrier (ILP = 2: the X and Y loads),
  and lanes idle when F < 32.
* :class:`DGLSpMM` — DGL delegates SpMM to CuSparse's CSR kernel; the
  class wraps :class:`CuSparseSpMM` but accounts DGL's dual-format
  memory (CSR *and* COO resident) in :meth:`memory_bytes`, the cost the
  paper's single-format argument removes.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.gpusim.memory import feature_row_sectors
from repro.gpusim.trace import KernelTrace, LaunchConfig
from repro.gpusim.warp import feature_parallel_shape
from repro.kernels.base import SDDMMKernel, SpMMKernel
from repro.kernels.baselines.cusparse import CuSparseSpMM
from repro.sparse.coo import COOMatrix


class DGLSDDMM(SDDMMKernel):
    name = "dgl-sddmm"
    format = "coo"

    def execute(
        self, A: COOMatrix, X: np.ndarray, Y: np.ndarray, device: DeviceSpec
    ) -> tuple[KernelTrace, float]:
        F = X.shape[1]
        shape = feature_parallel_shape(F)
        ftiles = max(1, -(-F // 32))
        # One warp per (NZE, feature tile): perfectly balanced, no reuse.
        n_warps = A.nnz * ftiles
        threads_per_cta = 128
        warps_per_cta = threads_per_cta // 32
        grid = max(1, (n_warps + warps_per_cta - 1) // warps_per_cta)
        launch = LaunchConfig(grid, threads_per_cta, 30, 0)
        trace = KernelTrace(self.name, launch)
        tile_f = min(F, 32)
        # ids: two 4-byte broadcast reads per warp (no caching).
        trace.add_phase(
            "nze_id_load", "load", load_instrs=2.0, ilp=4.0, sectors=2.0
        )
        # features: one scalar load per lane for X[row] and Y[col]; the
        # shuffle reduction's barrier caps outstanding loads at these 2.
        trace.add_phase(
            "feature_load",
            "load",
            load_instrs=2.0,
            ilp=3.0,  # X + Y loads plus the next edge's prefetched id
            sectors=2.0 * feature_row_sectors(tile_f * 4),
            flops=2.0 * tile_f,
        )
        trace.add_phase(
            "tree_reduction",
            "reduce",
            shuffles=float(shape.reduction_rounds),
            barriers=1.0,
        )
        trace.add_phase("edge_store", "store", sectors=1.0, atomics=float(ftiles > 1))
        return trace, 0.0

    def memory_bytes(self, num_vertices: int, num_edges: int, feature_length: int) -> int:
        # DGL keeps COO (for SDDMM) and CSR (for SpMM) simultaneously.
        dual_format = 8 * num_edges + (4 * num_edges + 4 * (num_vertices + 1))
        return dual_format + 8 * num_vertices * feature_length + 4 * num_edges


class DGLSpMM(SpMMKernel):
    """DGL SpMM = CuSparse CSR SpMM + dual-format memory residency."""

    name = "dgl-spmm"
    format = "csr"

    def __init__(self) -> None:
        self._inner = CuSparseSpMM()

    def execute(
        self, A: COOMatrix, edge_values: np.ndarray, X: np.ndarray, device: DeviceSpec
    ) -> tuple[KernelTrace, float]:
        trace, prep = self._inner.execute(A, edge_values, X, device)
        trace.kernel_name = self.name
        return trace, prep

    def memory_bytes(self, num_vertices: int, num_edges: int, feature_length: int) -> int:
        dual_format = 8 * num_edges + (4 * num_edges + 4 * (num_vertices + 1))
        return dual_format + 4 * num_edges + 8 * num_vertices * feature_length
