"""Dalton et al. (IPDPS'15 [6]): the other nonzero-split SpMV class.

Fetches NZEs and values fully coalesced (warp-sequential order), which
forbids thread-local reduction — every dot product is materialized to
shared memory and reduced inter-thread with barriers (Section 4.4's
trade-off discussion: Dalton = coalesced fetch + no local reduction;
Merrill = strided fetch + local reduction; GNNOne SpMM removes the
trade-off via Stage-1 caching, which degenerates at feature length 1).
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.gpusim.memory import streaming_sectors, unique_per_warp
from repro.gpusim.trace import KernelTrace, LaunchConfig
from repro.kernels.base import SpMVKernel
from repro.sparse.coo import COOMatrix
from repro.sparse.partition import edge_chunks, segments_in_slices


class DaltonSpMV(SpMVKernel):
    name = "dalton-spmv"
    format = "coo"

    def execute(
        self, A: COOMatrix, edge_values: np.ndarray, x: np.ndarray, device: DeviceSpec
    ) -> tuple[KernelTrace, float]:
        coo = A if A.is_csr_ordered() else A.sort_csr_order()
        per_warp = device.warp_size
        chunks = edge_chunks(coo.nnz, per_warp)
        segments = segments_in_slices(coo.rows, chunks.chunk_of_nze, chunks.n_chunks)

        threads_per_cta = 128
        wpc = threads_per_cta // 32
        grid = max(1, (chunks.n_chunks + wpc - 1) // wpc)
        smem = 4 * threads_per_cta  # materialized dot products
        trace = KernelTrace(self.name, LaunchConfig(grid, threads_per_cta, 30, smem))

        sizes = chunks.chunk_sizes.astype(np.float64)
        trace.add_phase(
            "nze_load",
            "load",
            load_instrs=3.0,
            ilp=3.0,
            sectors=3.0 * streaming_sectors(sizes, 4),
        )
        x_sectors = unique_per_warp(
            chunks.chunk_of_nze, coo.cols.astype(np.int64) // 8, chunks.n_chunks
        )
        trace.add_phase(
            "x_gather", "load", load_instrs=1.0, ilp=2.0, sectors=x_sectors,
            flops=sizes * 2.0,
        )
        # Inter-thread segmented reduction in shared memory: log2(32)
        # rounds, each bracketed by a barrier (the materialization cost).
        trace.add_phase(
            "smem_segmented_reduction",
            "reduce",
            shuffles=5.0,
            barriers=5.0,
            atomics=segments.astype(np.float64) / device.warp_size,
            atomic_conflict_degree=1.1,
        )
        trace.add_phase(
            "y_store", "store",
            sectors=unique_per_warp(
                chunks.chunk_of_nze, coo.rows.astype(np.int64) // 8, chunks.n_chunks
            ),
        )
        return trace, 0.0

    def memory_bytes(self, num_vertices: int, num_edges: int, feature_length: int) -> int:
        return 8 * num_edges + 4 * num_edges + 8 * num_vertices
