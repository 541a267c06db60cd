"""Autograd-aware sparse operations backed by the simulated kernels.

This is where the paper's "forward SpMM -> backward SpMM + SDDMM"
structure lives:

* ``spmm`` forward runs the backend's SpMM kernel; its backward runs one
  SpMM on the transposed graph (dX) and one SDDMM (d edge-values) —
  every invocation charges its simulated time to the active SimClock.
* ``u_add_v`` (the GAT attention-score gather) is an SDDMM *variant*;
  ``edge_softmax`` is priced as its segment-reduction passes.  Both
  compute in NumPy and only *price* their kernels (``numerics=False``).

Numerics are plain vectorized NumPy, bit-identical across backends —
which is the Fig-5 claim (GNNOne trains to the same accuracy as DGL).

Every launch here goes through the kernel base classes and therefore
the structural plan cache (:mod:`repro.core.plancache`): a training
loop re-issues the same (topology, kernel, F, device) launches each
epoch — ``graph.coo`` and ``graph.coo_t`` are long-lived, so from epoch
2 on the forward SpMM, backward SpMM and backward SDDMM replay their
cached cost/trace and only the numerics run.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import stand_in_operands
from repro.kernels.gnnone import GnnOneSDDMM, GnnOneSpMM
from repro.kernels.registry import sddmm_kernel, spmm_kernel, spmv_kernel
from repro.nn.backend import TrainingBackend
from repro.nn.clock import charge, charge_elementwise, current_clock
from repro.nn.graph import GraphData
from repro.nn.tensor import Tensor


def _run_spmm(backend: TrainingBackend, coo, edge_values, X, tag: str) -> np.ndarray:
    clock = current_clock()
    if backend.spmm == "gnnone" and backend.gnnone_spmm_config is not None:
        kernel = GnnOneSpMM(backend.gnnone_spmm_config)
    else:
        kernel = spmm_kernel(backend.spmm)
    result = kernel(coo, edge_values, X, device=clock.device if clock else None)
    charge(f"spmm:{tag}", result.time_us)
    return result.output


def _sddmm_kernel(backend: TrainingBackend):
    if backend.sddmm == "gnnone" and backend.gnnone_sddmm_config is not None:
        return GnnOneSDDMM(backend.gnnone_sddmm_config)
    return sddmm_kernel(backend.sddmm)


def _run_sddmm(backend: TrainingBackend, coo, X, Y, tag: str) -> np.ndarray:
    clock = current_clock()
    result = _sddmm_kernel(backend)(coo, X, Y, device=clock.device if clock else None)
    charge(f"sddmm:{tag}", result.time_us)
    return result.output


def _charge_launch(kernel, coo, feature_length: int, tag: str) -> None:
    """Charge a launch by pricing it: the op computes its numerics in numpy."""
    clock = current_clock()
    result = kernel(
        coo, *stand_in_operands(kernel.kind, coo, feature_length),
        device=clock.device if clock else None, numerics=False,
    )
    charge(f"{kernel.kind}:{tag}", result.time_us)


def spmm(graph: GraphData, edge_values: Tensor, X: Tensor, backend: TrainingBackend) -> Tensor:
    """Differentiable ``Y = A_w X`` through the backend's kernels."""
    out_data = _run_spmm(backend, graph.coo, edge_values.data, X.data, "forward")
    out = Tensor(out_data, parents=(edge_values, X))

    def backward(g: np.ndarray) -> None:
        if X.requires_grad:
            ev_t = edge_values.data[graph.transpose_perm]
            X.accumulate_grad(_run_spmm(backend, graph.coo_t, ev_t, g, "backward_dX"))
        if edge_values.requires_grad:
            edge_values.accumulate_grad(
                _run_sddmm(backend, graph.coo, g, X.data, "backward_dW")
            )

    out._backward = backward
    return out


def sddmm(graph: GraphData, X: Tensor, Y: Tensor, backend: TrainingBackend) -> Tensor:
    """Differentiable ``W[e] = <X[row_e], Y[col_e]>``."""
    out_data = _run_sddmm(backend, graph.coo, X.data, Y.data, "forward")
    out = Tensor(out_data, parents=(X, Y))

    def backward(g: np.ndarray) -> None:
        # dX[r] += sum_e g_e Y[col_e]  ==  SpMM(A, g, Y)
        if X.requires_grad:
            X.accumulate_grad(_run_spmm(backend, graph.coo, g, Y.data, "backward_dX"))
        if Y.requires_grad:
            g_t = g[graph.transpose_perm]
            Y.accumulate_grad(_run_spmm(backend, graph.coo_t, g_t, X.data, "backward_dY"))

    out._backward = backward
    return out


def u_add_v(graph: GraphData, el: Tensor, er: Tensor, backend: TrainingBackend) -> Tensor:
    """GAT attention gather: ``e = el[row_e] + er[col_e]`` (SDDMM variant)."""
    rows, cols = graph.coo.rows, graph.coo.cols
    out = Tensor(el.data[rows] + er.data[cols], parents=(el, er))
    # Same data-load pattern as a feature-length-1 SDDMM: price it so.
    _charge_launch(_sddmm_kernel(backend), graph.coo, 1, "u_add_v")

    def backward(g: np.ndarray) -> None:
        charge_elementwise(graph.num_edges, reads=1, writes=1, name="u_add_v_bwd")
        if el.requires_grad:
            d = np.zeros_like(el.data)
            np.add.at(d, rows, g)
            el.accumulate_grad(d)
        if er.requires_grad:
            d = np.zeros_like(er.data)
            np.add.at(d, cols, g)
            er.accumulate_grad(d)

    out._backward = backward
    return out


def edge_softmax(graph: GraphData, scores: Tensor, backend: TrainingBackend) -> Tensor:
    """Softmax of edge scores per destination row (GAT's normalization)."""
    rows = graph.coo.rows
    bounds = graph.row_boundaries
    s = scores.data
    if s.size == 0:
        alpha_data = s.copy()
    else:
        seg_max = np.maximum.reduceat(s, bounds)
        row_of_seg = rows[bounds]
        full_max = np.zeros(graph.num_vertices)
        full_max[row_of_seg] = seg_max
        ex = np.exp(s - full_max[rows])
        seg_sum = np.add.reduceat(ex, bounds)
        full_sum = np.ones(graph.num_vertices)
        full_sum[row_of_seg] = seg_sum
        alpha_data = ex / full_sum[rows]
    out = Tensor(alpha_data, parents=(scores,))
    # Price: two segment reductions (max, sum) + two element-wise passes.
    _charge_launch(spmv_kernel(backend.spmv), graph.coo, 1, "edge_softmax_reduce")
    charge_elementwise(graph.num_edges, reads=2, writes=1, count=2, name="edge_softmax")

    def backward(g: np.ndarray) -> None:
        # d s = alpha * (g - segsum(alpha * g))
        if not scores.requires_grad:
            return
        weighted = alpha_data * g
        _charge_launch(spmv_kernel(backend.spmv), graph.coo, 1, "edge_softmax_bwd")
        charge_elementwise(graph.num_edges, reads=2, writes=1, name="edge_softmax_bwd")
        if g.size == 0:
            scores.accumulate_grad(g)
            return
        seg = np.add.reduceat(weighted, bounds)
        full = np.zeros(graph.num_vertices)
        full[rows[bounds]] = seg
        scores.accumulate_grad(alpha_data * (g - full[rows]))

    out._backward = backward
    return out


def gather_rows(x: Tensor, index: np.ndarray) -> Tensor:
    """Differentiable row gather (used by tests and custom models)."""
    out = Tensor(x.data[index], parents=(x,))

    def backward(g: np.ndarray) -> None:
        d = np.zeros_like(x.data)
        np.add.at(d, index, g)
        x.accumulate_grad(d)

    out._backward = backward
    return out
