"""Merge-SpMV (Merrill & Garland, SC'16 [27]) — the Fig-12 comparator.

Perfectly balanced via merge-path coordinates (a custom format), at the
price the paper dissects in Section 5.4.5:

* each thread 2-D binary-searches the indptr diagonal to find its merge
  coordinates — ``log2`` scattered loads plus a broadcast/barrier;
* each thread then consumes *consecutive* NZEs (thread-local grain), so
  warp accesses to the value/col arrays are strided, not coalesced —
  Merrill's documented trade-off for thread-local reduction;
* carry-out partial sums cross thread boundaries through shared memory.
"""

from __future__ import annotations

import math

import numpy as np

from repro.gpusim.atomics import conflict_degree
from repro.gpusim.device import DeviceSpec
from repro.gpusim.memory import unique_per_warp
from repro.gpusim.trace import KernelTrace, LaunchConfig
from repro.kernels.base import SpMVKernel
from repro.sparse.coo import COOMatrix
from repro.sparse.formats.merge_path import build_merge_path
from repro.sparse.partition import edge_chunks, segments_in_slices


class MergeSpMV(SpMVKernel):
    name = "merge-spmv"
    format = "merge-path"

    items_per_thread = 4

    def execute(
        self, A: COOMatrix, edge_values: np.ndarray, x: np.ndarray, device: DeviceSpec
    ) -> tuple[KernelTrace, float]:
        coo = A if A.is_csr_ordered() else A.sort_csr_order()
        csr = coo.to_csr()
        fmt = build_merge_path(csr, self.items_per_thread)
        per_warp = device.warp_size * self.items_per_thread
        chunks = edge_chunks(coo.nnz, per_warp)
        pos = np.arange(coo.nnz, dtype=np.int64) % per_warp
        thread_slices = chunks.chunk_of_nze * device.warp_size + pos // self.items_per_thread
        n_slices = chunks.n_chunks * device.warp_size
        segments = segments_in_slices(coo.rows, thread_slices, n_slices)
        seg_per_warp = np.bincount(
            np.arange(n_slices) // device.warp_size, weights=segments,
            minlength=chunks.n_chunks,
        )

        threads_per_cta = 128
        wpc = threads_per_cta // 32
        grid = max(1, (chunks.n_chunks + wpc - 1) // wpc)
        trace = KernelTrace(self.name, LaunchConfig(grid, threads_per_cta, 36, 2048))

        sizes = chunks.chunk_sizes.astype(np.float64)
        # 2-D binary search: log(V) dependent indptr probes, mostly
        # L2-resident after the first wave (priced as half-latency).
        search_steps = math.ceil(math.log2(max(csr.num_rows, 2)) / 2)
        trace.add_phase(
            "merge_coordinate_search",
            "load",
            load_instrs=float(search_steps),
            ilp=2.0,
            sectors=float(search_steps),
            barriers=1.0,  # coordinate broadcast through smem
        )
        # Thread-local consecutive NZE reads: strided across the warp,
        # so a warp's 32 scattered 4B reads of val+col hit ~2 sectors
        # per item-group instead of 1 per 8 items.
        stride_penalty = min(float(self.items_per_thread), 8.0)
        trace.add_phase(
            "nze_load",
            "load",
            load_instrs=2.0 * np.ceil(sizes / 32.0),
            ilp=float(device.max_outstanding_loads),
            sectors=2.0 * np.ceil(sizes * 4.0 / 32.0) * stride_penalty / 2.0,
        )
        x_sectors = unique_per_warp(
            chunks.chunk_of_nze, coo.cols.astype(np.int64) // 8, chunks.n_chunks
        )
        trace.add_phase(
            "x_gather",
            "load",
            load_instrs=np.ceil(sizes / 32.0),
            ilp=float(self.items_per_thread),
            sectors=x_sectors,
            flops=sizes * 2.0,
        )
        conflict = 1.1
        trace.add_phase(
            "carry_out_fixup",
            "reduce",
            shuffles=2.0,
            barriers=1.0,
            atomics=seg_per_warp / device.warp_size,
            atomic_conflict_degree=conflict,
        )
        trace.add_phase(
            "y_store", "store",
            sectors=unique_per_warp(
                chunks.chunk_of_nze, coo.rows.astype(np.int64) // 8, chunks.n_chunks
            ),
        )
        return trace, fmt.preprocess_seconds

    def memory_bytes(self, num_vertices: int, num_edges: int, feature_length: int) -> int:
        csr = 4 * num_edges + 4 * (num_vertices + 1)
        coords = 16 * ((num_vertices + num_edges) // (32 * self.items_per_thread) + 1)
        return csr + coords + 4 * num_edges + 8 * num_vertices
