"""GNNOne SpMM: two-stage data load + running reduction over COO.

``Y <- A_w X`` where the sparse matrix carries per-NZE edge values.
Stage 1 streams NZE tuples + edge values into shared memory (edge
parallel, fully balanced); the symbiotic scheduler hands consecutive
cached NZEs to thread groups; Stage 2 gathers column features with
vector loads and folds the multiply into a thread-local running
reduction, flushed by atomicAdd at each row split (Sections 4.1-4.3).
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.gpusim.device import DeviceSpec
from repro.gpusim.trace import KernelTrace, LaunchConfig
from repro.kernels.base import SpMMKernel
from repro.kernels.gnnone.config import BASE_REGISTERS, DEFAULT_CONFIG, GnnOneConfig
from repro.kernels.gnnone.reduction import record_reduction_spmm
from repro.kernels.gnnone.scheduler import plan_schedule
from repro.kernels.gnnone.stage1 import plan_stage1, record_stage1
from repro.kernels.gnnone.stage2 import record_stage2_spmm
from repro.sparse.coo import COOMatrix


def segment_sum_spmm(A: COOMatrix, edge_values: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Running-reduction numerics: segment sums over the CSR-ordered COO.

    This mirrors the kernel's actual arithmetic (thread-local partial
    sums flushed per row segment) rather than delegating to a library
    SpMM, so tests comparing it against the scipy reference genuinely
    validate the two-stage computation.
    """
    if A.is_csr_ordered():
        coo = A
    else:
        coo = A.sort_csr_order()
        edge_values = edge_values[A.csr_order()]
    out = np.zeros((A.num_rows, X.shape[1]), dtype=np.float64)
    if coo.nnz == 0:
        return out
    products = edge_values[:, None] * X[coo.cols]
    boundaries = np.flatnonzero(np.r_[True, coo.rows[1:] != coo.rows[:-1]])
    sums = np.add.reduceat(products, boundaries, axis=0)
    out[coo.rows[boundaries]] = sums
    return out


def csr_replay_spmm(A: COOMatrix, edge_values: np.ndarray, X: np.ndarray) -> np.ndarray:
    """SpMM numerics over the memoized CSR structural view.

    Same per-row, ascending-column accumulation as
    :func:`segment_sum_spmm`, but runs in fused scipy C loops instead of
    materializing the ``|E| x F`` product matrix and reducing it per
    segment.  Routed through the sharded execution engine
    (:mod:`repro.exec`): serial at the default ``REPRO_EXEC_WORKERS=1``,
    executed as concurrent NNZ-balanced row blocks (bit-identical — row
    blocks never share an output row) on multi-core hosts.
    ``segment_sum_spmm`` stays the validation-grade mirror of the kernel
    arithmetic; the property suite pins the two together.
    """
    from repro.exec import get_engine

    return get_engine().spmm(A, edge_values, np.asarray(X, dtype=np.float64))


class GnnOneSpMM(SpMMKernel):
    """The paper's unified SpMM kernel (COO format)."""

    format = "coo"

    def __init__(self, config: GnnOneConfig = DEFAULT_CONFIG):
        self.config = config
        self.name = f"gnnone-spmm[c{config.cache_size},{config.schedule}]"

    def cache_token(self):
        # The display name omits ablation switches; key on the full config.
        return (type(self).__qualname__, self.config)

    def simulate(self, A: COOMatrix, F: int, device: DeviceSpec) -> KernelTrace:
        """Structural half: Stage-1 plan, schedule, and trace recording."""
        cfg = self.config
        coo = A.sort_csr_order()

        with obs.span("gnnone.stage1", kind="spmm", nnz=coo.nnz,
                      cache_size=cfg.cache_size) as sp:
            s1 = plan_stage1(
                coo.nnz, cfg.cache_size, with_edge_values=True, enable_cache=cfg.enable_nze_cache
            )
            sp.set(n_chunks=s1.chunks.n_chunks, smem_bytes_per_warp=s1.smem_bytes_per_warp)
        with obs.span("gnnone.schedule", kind="spmm", schedule=cfg.schedule, f=F) as sp:
            sched = plan_schedule(coo.rows, s1.chunks.chunk_of_nze, s1.chunks.n_chunks, cfg, F)
            sp.set(vector_width=sched.shape.vector_width,
                   threads_per_group=sched.shape.threads_per_group)

        grid = max(1, (s1.chunks.n_chunks + cfg.warps_per_cta - 1) // cfg.warps_per_cta)
        launch = LaunchConfig(
            grid_ctas=grid,
            threads_per_cta=cfg.threads_per_cta,
            registers_per_thread=BASE_REGISTERS + sched.shape.vector_width,
            shared_mem_per_cta=s1.smem_bytes_per_warp * cfg.warps_per_cta,
        )
        trace = KernelTrace(self.name, launch)
        with obs.span("gnnone.stage2", kind="spmm", f=F, grid_ctas=grid):
            record_stage1(trace, s1, device)
            record_stage2_spmm(trace, s1, sched, F, device, cols=coo.cols)
            record_reduction_spmm(trace, s1, sched, coo.rows, F, device)
        return trace

    def execute(
        self, A: COOMatrix, edge_values: np.ndarray, X: np.ndarray, device: DeviceSpec
    ) -> tuple[KernelTrace, float]:
        return self.simulate(A, X.shape[1], device), 0.0

    def memory_bytes(self, num_vertices: int, num_edges: int, feature_length: int) -> int:
        coo_topology = 8 * num_edges
        edge_vals = 4 * num_edges
        dense = 4 * num_vertices * feature_length * 2  # X and Y
        return coo_topology + edge_vals + dense
