"""Huang et al. (PPoPP'21 [20]): the stronger neighbor-group SpMM.

Same custom neighbor-group format as GNNAdvisor but better engineered —
vectorized feature loads and a leaner metadata path — making it the
paper's closest SpMM competitor (GNNOne still wins by ~1.34x at F=32,
more at smaller feature lengths where its lanes idle).
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.gpusim.trace import KernelTrace
from repro.kernels.base import SpMMKernel
from repro.kernels.baselines.gnnadvisor import neighbor_group_spmm_trace
from repro.sparse.coo import COOMatrix
from repro.sparse.formats.neighbor_group import build_neighbor_groups


class HuangSpMM(SpMMKernel):
    name = "huang-spmm"
    format = "neighbor-group"

    def execute(
        self, A: COOMatrix, edge_values: np.ndarray, X: np.ndarray, device: DeviceSpec
    ) -> tuple[KernelTrace, float]:
        fmt = build_neighbor_groups(A.to_csr(), group_size=32)
        trace = neighbor_group_spmm_trace(
            self.name,
            fmt,
            X.shape[1],
            device,
            registers=40,
            metadata_broadcast_barriers=0.5,  # fused into the staging sync
            ilp=8.0,  # vectorized/unrolled feature loads
        )
        return trace, fmt.preprocess_seconds

    def memory_bytes(self, num_vertices: int, num_edges: int, feature_length: int) -> int:
        csr = 4 * num_edges + 4 * (num_vertices + 1)
        groups = num_edges // 32 + num_vertices
        return csr + 12 * groups + 4 * num_edges + 8 * num_vertices * feature_length
