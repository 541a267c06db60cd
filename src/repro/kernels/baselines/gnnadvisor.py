"""GNNAdvisor (Wang et al., OSDI'21 [37]): neighbor-group SpMM.

Preprocesses the CSR into *neighbor groups* of <= 32 non-zero columns
(a custom format) and assigns one warp per group.  Balancing is much
better than vertex-parallel, but per the paper's analysis:

* tail groups are shorter than 32 — idle lanes and wasted slots
  (measured here by the format's ``occupancy_efficiency``);
* the group metadata (row id, length) is loaded by a couple of lanes
  and broadcast, costing a synchronization the COO row-id load avoids;
* the effective cache is pinned at 32 NZEs, so the shared-memory
  barrier fires 4x more often than GNNOne's CACHE_SIZE=128;
* scalar feature-parallel lanes idle when F < 32;
* every group's result is written with atomics (groups split rows).
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.atomics import conflict_degree
from repro.gpusim.device import DeviceSpec
from repro.gpusim.memory import feature_row_sectors, streaming_sectors
from repro.gpusim.trace import KernelTrace, LaunchConfig
from repro.kernels.base import SpMMKernel
from repro.sparse.coo import COOMatrix
from repro.sparse.formats.neighbor_group import NeighborGroupFormat, build_neighbor_groups


def neighbor_group_spmm_trace(
    kernel_name: str,
    fmt: NeighborGroupFormat,
    feature_length: int,
    device: DeviceSpec,
    *,
    registers: int,
    metadata_broadcast_barriers: float,
    ilp: float,
) -> KernelTrace:
    """Shared trace builder for GNNAdvisor / Huang-style kernels."""
    F = feature_length
    ftiles = max(1, -(-F // 32))
    lens = np.repeat(fmt.group_len.astype(np.float64), ftiles)
    n_warps = fmt.n_groups * ftiles
    threads_per_cta = 128
    wpc = threads_per_cta // 32
    grid = max(1, (n_warps + wpc - 1) // wpc)
    smem = (fmt.group_size * 8) * wpc
    trace = KernelTrace(kernel_name, LaunchConfig(grid, threads_per_cta, registers, smem))
    tile_f = min(F, 32)

    # Metadata: (row, start, len) fetched by lane 0-2, then broadcast.
    trace.add_phase(
        "group_metadata",
        "load",
        load_instrs=1.0,
        ilp=1.0,
        sectors=1.0,
        barriers=metadata_broadcast_barriers,
        shuffles=1.0,  # the broadcast itself
    )
    # Group's col ids + edge values: coalesced but <= 32 wide.
    trace.add_phase(
        "group_nze_load",
        "load",
        load_instrs=2.0,
        ilp=2.0,
        sectors=2.0 * streaming_sectors(lens, 4),
        barriers=1.0,  # smem staging barrier per (32-NZE) group
    )
    # Feature gathers: scalar lanes, idle when F < 32.
    trace.add_phase(
        "feature_load",
        "load",
        load_instrs=lens,
        ilp=ilp,
        sectors=lens * feature_row_sectors(tile_f * 4),
        flops=lens * 2.0 * tile_f,
    )
    conflict = conflict_degree(np.repeat(fmt.group_row, ftiles)) if fmt.n_groups else 1.0
    trace.add_phase(
        "atomic_writeback",
        "reduce",
        atomics=1.0,
        atomic_conflict_degree=conflict,
    )
    trace.add_phase(
        "output_store", "store",
        sectors=float(feature_row_sectors(tile_f * 4)),
    )
    return trace


class GNNAdvisorSpMM(SpMMKernel):
    name = "gnnadvisor-spmm"
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
            registers=48,
            metadata_broadcast_barriers=1.0,
            ilp=3.0,
        )
        return trace, fmt.preprocess_seconds

    def memory_bytes(self, num_vertices: int, num_edges: int, feature_length: int) -> int:
        csr = 4 * num_edges + 4 * (num_vertices + 1)
        # ~one group per 32 NZEs plus one per row; 12B metadata each.
        groups = num_edges // 32 + num_vertices
        return csr + 12 * groups + 4 * num_edges + 8 * num_vertices * feature_length
