"""GE-SpMM (Huang et al., SC'20 [19]): vertex-parallel CSR SpMM.

One warp per row (tiled over features), with *Coalesced Row Caching*:
32 column ids + values staged in shared memory per iteration — but only
when the feature length is at least 32; for shorter features the paper
notes GE-SpMM drops caching entirely.  No workload balancing: a hub row
serializes on its single warp, which is exactly where GNNOne's Fig-4
speedups come from on skewed graphs.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.gpusim.trace import KernelTrace
from repro.kernels.base import SpMMKernel
from repro.kernels.baselines.common import vertex_parallel_spmm_trace
from repro.sparse.coo import COOMatrix


class GeSpMM(SpMMKernel):
    name = "ge-spmm"
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
            cache_col_ids=True,  # automatically off for F < 32
            ilp=4.0,
            registers=32,
        )
        return trace, 0.0

    def memory_bytes(self, num_vertices: int, num_edges: int, feature_length: int) -> int:
        csr = 4 * num_edges + 4 * (num_vertices + 1)
        return csr + 4 * num_edges + 8 * num_vertices * feature_length
