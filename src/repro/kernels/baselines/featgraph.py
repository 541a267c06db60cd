"""FeatGraph (Hu et al., SC'20 [18]): TVM-generated CSR kernels.

Both kernels are vertex-parallel CSR with vanilla feature-parallel lane
mapping.  The TVM templates do not stage NZE ids in shared memory and
keep limited loads in flight (the generated code is generic, not
hand-unrolled), so FeatGraph sits below GE-SpMM on SpMM and below
dgSparse on SDDMM in the paper's measurements.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.gpusim.memory import feature_row_sectors
from repro.gpusim.trace import KernelTrace, LaunchConfig
from repro.gpusim.warp import feature_parallel_shape
from repro.kernels.base import SDDMMKernel, SpMMKernel
from repro.kernels.baselines.common import vertex_parallel_spmm_trace
from repro.sparse.coo import COOMatrix


class FeatGraphSpMM(SpMMKernel):
    name = "featgraph-spmm"
    format = "csr"

    def execute(
        self, A: COOMatrix, edge_values: np.ndarray, X: np.ndarray, device: DeviceSpec
    ) -> tuple[KernelTrace, float]:
        csr = A.to_csr()
        trace = vertex_parallel_spmm_trace(
            self.name,
            csr,
            X.shape[1],
            device,
            row_split=None,
            cache_col_ids=False,  # TVM template: per-NZE broadcast reads
            ilp=3.0,
            registers=44,
        )
        return trace, 0.0

    def memory_bytes(self, num_vertices: int, num_edges: int, feature_length: int) -> int:
        csr = 4 * num_edges + 4 * (num_vertices + 1)
        return csr + 4 * num_edges + 8 * num_vertices * feature_length


class FeatGraphSDDMM(SDDMMKernel):
    """Vertex-parallel CSR SDDMM: warp walks a row's NZEs.

    The row's X features are reused from registers across the row (free
    with vertex-centric traversal) but there is no NZE caching, the
    lanes are scalar feature-parallel, and hub rows serialize.
    """

    name = "featgraph-sddmm"
    format = "csr"

    def execute(
        self, A: COOMatrix, X: np.ndarray, Y: np.ndarray, device: DeviceSpec
    ) -> tuple[KernelTrace, float]:
        csr = A.to_csr()
        F = X.shape[1]
        shape = feature_parallel_shape(F)
        ftiles = max(1, -(-F // 32))
        deg = np.repeat(csr.row_degrees().astype(np.float64), ftiles)
        n_warps = csr.num_rows * ftiles
        threads_per_cta = 128
        wpc = threads_per_cta // 32
        grid = max(1, (n_warps + wpc - 1) // wpc)
        trace = KernelTrace(self.name, LaunchConfig(grid, threads_per_cta, 40, 0))
        tile_f = min(F, 32)
        # Row features: one load per row (register reuse).
        trace.add_phase(
            "row_feature_load", "load", load_instrs=1.0, ilp=1.0,
            sectors=float(feature_row_sectors(tile_f * 4)),
        )
        # Per NZE: broadcast col id + col feature row, then tree-reduce.
        trace.add_phase(
            "col_loads",
            "load",
            load_instrs=deg * 2.0,
            ilp=3.0,
            sectors=deg * (1.0 + feature_row_sectors(tile_f * 4)),
            flops=deg * 2.0 * tile_f,
        )
        trace.add_phase(
            "tree_reduction",
            "reduce",
            shuffles=deg * shape.reduction_rounds,
            barriers=deg * 0.5,
        )
        trace.add_phase("edge_store", "store", sectors=np.ceil(deg / 8.0))
        return trace, 0.0

    def memory_bytes(self, num_vertices: int, num_edges: int, feature_length: int) -> int:
        csr = 4 * num_edges + 4 * (num_vertices + 1)
        return csr + 4 * num_edges + 8 * num_vertices * feature_length
