"""GNNOne SpMV: nonzero-split over COO (the Fig-12 study).

With feature length 1 the Stage-1 cache is pointless (Section 4.4), so
the kernel follows the Merge-SpMV execution idea — equal NZE shares with
thread-local accumulation — but reads the row id of every NZE directly
from the COO with fully coalesced loads (4 extra bytes per NZE) instead
of broadcasting + binary-searching custom merge-path metadata.  The
paper's point: on SIMT hardware the straight coalesced load wins.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.atomics import conflict_degree
from repro.gpusim.device import DeviceSpec
from repro.gpusim.memory import streaming_sectors, unique_per_warp
from repro.gpusim.trace import KernelTrace, LaunchConfig
from repro.kernels.base import SpMVKernel
from repro.sparse.coo import COOMatrix
from repro.sparse.partition import edge_chunks, segments_in_slices


class GnnOneSpMV(SpMVKernel):
    """COO nonzero-split SpMV with coalesced row-id loads."""

    format = "coo"
    name = "gnnone-spmv"

    #: NZEs each thread accumulates locally (Merrill-style grain).
    items_per_thread = 4

    def simulate(self, A: COOMatrix, device: DeviceSpec) -> KernelTrace:
        """Structural half: NZE split, segment census, trace recording."""
        coo = A.sort_csr_order()
        per_warp = device.warp_size * self.items_per_thread
        chunks = edge_chunks(coo.nnz, per_warp)
        # Thread-local slices: thread t owns items [t*ipt, (t+1)*ipt).
        pos = np.arange(coo.nnz, dtype=np.int64) % per_warp
        thread_slices = chunks.chunk_of_nze * device.warp_size + pos // self.items_per_thread
        n_slices = chunks.n_chunks * device.warp_size
        segments = segments_in_slices(coo.rows, thread_slices, n_slices)
        seg_per_warp = np.bincount(
            np.arange(n_slices) // device.warp_size,
            weights=segments,
            minlength=chunks.n_chunks,
        )

        threads_per_cta = 128
        warps_per_cta = threads_per_cta // 32
        grid = max(1, (chunks.n_chunks + warps_per_cta - 1) // warps_per_cta)
        launch = LaunchConfig(grid, threads_per_cta, 28, 0)
        trace = KernelTrace(self.name, launch)

        sizes = chunks.chunk_sizes.astype(np.float64)
        # Coalesced streams: row ids, col ids, edge values.
        trace.add_phase(
            "nze_load",
            "load",
            load_instrs=3 * np.ceil(sizes / device.warp_size),
            ilp=float(device.max_outstanding_loads),
            sectors=3 * streaming_sectors(sizes, 4),
        )
        # Gather x[col]: scalar scattered loads, one sector per distinct
        # (warp, sector-of-x) in the worst case; dedupe within warp since
        # sectors overlap heavily for clustered columns.
        x_sectors = unique_per_warp(
            chunks.chunk_of_nze, coo.cols.astype(np.int64) // 8, chunks.n_chunks
        )
        trace.add_phase(
            "x_gather",
            "load",
            load_instrs=np.ceil(sizes / device.warp_size) * 1.0,
            ilp=float(self.items_per_thread),
            sectors=x_sectors,
            flops=sizes * 2.0,
        )
        conflict = conflict_degree(coo.rows[np.flatnonzero(
            np.r_[True, coo.rows[1:] != coo.rows[:-1]])]) if coo.nnz else 1.0
        trace.add_phase(
            "segment_writeback",
            "reduce",
            atomics=seg_per_warp / device.warp_size,
            atomic_conflict_degree=conflict,
        )
        trace.add_phase(
            "y_store",
            "store",
            sectors=unique_per_warp(
                chunks.chunk_of_nze, coo.rows.astype(np.int64) // 8, chunks.n_chunks
            ),
        )
        return trace

    def execute(
        self, A: COOMatrix, edge_values: np.ndarray, x: np.ndarray, device: DeviceSpec
    ) -> tuple[KernelTrace, float]:
        return self.simulate(A, device), 0.0

    def memory_bytes(self, num_vertices: int, num_edges: int, feature_length: int) -> int:
        return 8 * num_edges + 4 * num_edges + 8 * num_vertices  # COO + vals + x,y
