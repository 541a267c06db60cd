"""Classic CSR SpMV baselines: scalar and vector variants.

The textbook pair every SpMV study starts from (and the paper's §6
related-work backdrop): *CSR-scalar* assigns one thread per row (fully
uncoalesced column reads, terrible on skew), *CSR-vector* one warp per
row (coalesced within rows, still hub-bound).  They flank the
nonzero-split designs (GNNOne, Merrill, Dalton) in the extended Fig-12
study.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.gpusim.memory import streaming_sectors, unique_per_warp
from repro.gpusim.trace import KernelTrace, LaunchConfig
from repro.kernels.base import SpMVKernel
from repro.sparse.coo import COOMatrix


class CsrScalarSpMV(SpMVKernel):
    """One thread per row: the naive baseline."""

    name = "csr-scalar-spmv"
    format = "csr"

    def execute(
        self, A: COOMatrix, edge_values: np.ndarray, x: np.ndarray, device: DeviceSpec
    ) -> tuple[KernelTrace, float]:
        csr = A.to_csr()
        deg = csr.row_degrees().astype(np.float64)
        # 32 rows per warp; the warp's trip count is its longest row and
        # every per-thread read is scattered (one sector per element).
        n_warps = max(1, (csr.num_rows + 31) // 32)
        warp_of_row = np.arange(csr.num_rows) // 32
        warp_max = np.zeros(n_warps)
        np.maximum.at(warp_max, warp_of_row, deg)
        warp_sum = np.bincount(warp_of_row, weights=deg, minlength=n_warps)

        threads_per_cta = 128
        grid = max(1, (n_warps + 3) // 4)
        trace = KernelTrace(self.name, LaunchConfig(grid, threads_per_cta, 24, 0))
        trace.add_phase(
            "row_loop",
            "load",
            load_instrs=warp_max * 3.0,  # col id + value + x, per trip
            ilp=2.0,
            sectors=warp_sum * 3.0,  # every 4B element its own sector
            flops=warp_sum * 2.0,
        )
        trace.add_phase("y_store", "store", sectors=np.ceil(
            np.bincount(warp_of_row, minlength=n_warps).astype(np.float64) / 8.0))
        return trace, 0.0

    def memory_bytes(self, num_vertices: int, num_edges: int, feature_length: int) -> int:
        return 4 * num_edges + 4 * (num_vertices + 1) + 4 * num_edges + 8 * num_vertices


class CsrVectorSpMV(SpMVKernel):
    """One warp per row: coalesced but hub-serialized."""

    name = "csr-vector-spmv"
    format = "csr"

    def execute(
        self, A: COOMatrix, edge_values: np.ndarray, x: np.ndarray, device: DeviceSpec
    ) -> tuple[KernelTrace, float]:
        csr = A.to_csr()
        deg = csr.row_degrees().astype(np.float64)
        n_warps = max(1, csr.num_rows)
        threads_per_cta = 128
        grid = max(1, (n_warps + 3) // 4)
        trace = KernelTrace(self.name, LaunchConfig(grid, threads_per_cta, 28, 0))
        trips = np.ceil(deg / 32.0)
        x_sectors = unique_per_warp(
            A.rows.astype(np.int64), A.cols.astype(np.int64) // 8, n_warps
        )
        trace.add_phase(
            "row_gather",
            "load",
            load_instrs=trips * 2.0 + trips,  # ids+vals coalesced, x gather
            ilp=4.0,
            sectors=2.0 * streaming_sectors(deg, 4) + x_sectors,
            flops=deg * 2.0,
        )
        trace.add_phase(
            "warp_reduce", "reduce", shuffles=5.0, barriers=0.0,
        )
        trace.add_phase("y_store", "store", sectors=np.full(n_warps, 1.0) / 8.0)
        return trace, 0.0

    def memory_bytes(self, num_vertices: int, num_edges: int, feature_length: int) -> int:
        return 4 * num_edges + 4 * (num_vertices + 1) + 4 * num_edges + 8 * num_vertices


class BinnedSpMV(SpMVKernel):
    """Degree-binned SpMV (Enterprise/Gunrock style, §6 related work).

    Four launches, one per degree class, each with a matched grain.
    Within-bin imbalance remains (the paper's critique) — the cost model
    sees it through the per-bin critical paths.
    """

    name = "binned-spmv"
    format = "degree-bins"

    def execute(
        self, A: COOMatrix, edge_values: np.ndarray, x: np.ndarray, device: DeviceSpec
    ) -> tuple[KernelTrace, float]:
        from repro.sparse.formats.binning import build_degree_bins

        csr = A.to_csr()
        bins = build_degree_bins(csr)
        deg = csr.row_degrees().astype(np.float64)
        # Model the 4 launches as one trace with per-bin warp groups:
        # thread-bin rows pack 32/warp, warp-bin rows 1/warp, CTA/grid
        # bins split across many warps (near-balanced).
        warp_costs = []
        for i, rows in enumerate(bins.bins):
            if rows.size == 0:
                continue
            d = deg[rows]
            if i == 0:  # thread bin: 32 rows/warp, trip = max degree
                groups = np.array_split(np.sort(d)[::-1], max(1, len(d) // 32))
                warp_costs.extend(float(g.max()) * 3.0 for g in groups if g.size)
            elif i == 1:  # warp bin: 1 row/warp
                warp_costs.extend(np.ceil(d / 32.0) * 2.0)
            else:  # CTA/grid bins: split into 1024-NZE pieces
                for dd in d:
                    pieces = int(np.ceil(dd / 1024.0))
                    warp_costs.extend([32.0 * 2.0] * (pieces * (1024 // 32) // 32 or 1))
        warp_instrs = np.asarray(warp_costs, dtype=np.float64)
        n_warps = max(1, warp_instrs.size)
        grid = max(1, (n_warps + 3) // 4)
        trace = KernelTrace(self.name, LaunchConfig(grid, 128, 30, 0))
        x_sectors = A.nnz / max(n_warps, 1)
        trace.add_phase(
            "binned_gather",
            "load",
            load_instrs=warp_instrs if warp_instrs.size else 0.0,
            ilp=4.0,
            sectors=float(x_sectors) + 2.0 * streaming_sectors(A.nnz, 4) / n_warps,
            flops=2.0 * A.nnz / n_warps,
        )
        trace.add_phase("y_store", "store", sectors=0.2)
        return trace, bins.preprocess_seconds

    def memory_bytes(self, num_vertices: int, num_edges: int, feature_length: int) -> int:
        csr = 4 * num_edges + 4 * (num_vertices + 1)
        return csr + 4 * num_vertices + 4 * num_edges + 8 * num_vertices
