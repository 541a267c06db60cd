"""Kernel interface shared by GNNOne and every baseline.

A *kernel* here is one simulated CUDA kernel: calling it computes the
exact numerical result with NumPy **and** a :class:`KernelTrace` of what
each simulated warp did, which the cost model prices into microseconds.

Signatures follow the paper's definitions (Section 2):

* ``spmm(A, edge_values, X) -> Y``  with ``Y = A_w @ X`` where ``A_w`` is
  the sparse matrix with per-NZE values ``edge_values``  (|V| x F out);
* ``sddmm(A, X, Y) -> W`` with ``W[e] = <X[row_e], Y[col_e]>``  (|E| out);
* ``spmv(A, edge_values, x) -> y``  (the Fig-12 study).

Every kernel also exposes :meth:`memory_bytes`, the device footprint of
its storage format(s) plus operands at an *arbitrary* scale — the
harness evaluates it at the paper-scale |V|/|E| so the OOM cells in
Figs 3/4/7 reproduce even though the compute runs on scaled graphs.

Each invocation is two independent halves:

* the **numerics** (:meth:`compute`) — depends on the operand values;
* the **structural simulation** (``execute``: trace recording, then the
  cost model) — depends only on (topology, kernel config, feature
  length, device).

``__call__`` exploits the split through the structural plan cache
(:mod:`repro.core.plancache`): a warm launch replays the cached
:class:`CostReport`/trace, skipping Stage-1 planning, scheduling, trace
recording and ``estimate_cost`` entirely.  Cold and warm launches run
the same numerics — ``compute`` once per launch, after the cache branch
— so a kernel's cold and warm outputs are bit-identical.  A *pricing*
launch, ``kernel(A, *operands, numerics=False)``, is the same launch
(validation, span, plan-cache key and fill) without ``compute``: it
returns the cost with ``output=None``.  ``execute`` reads operand shapes
only, so callers that want just the simulated time pass the zero-byte
stand-ins of :func:`stand_in_operands`.  The default
:meth:`compute` routes through the sharded execution engine
(:mod:`repro.exec`) — serial at the default ``REPRO_EXEC_WORKERS=1``,
executed as concurrent row blocks on multi-core hosts — so baselines
need no numerics of their own.  The engine in turn dispatches to the
numerics backend selected by ``REPRO_EXEC_BACKEND`` (thread pool,
shared-memory process pool, or numba-compiled kernels); kernels never
see the difference because every backend is bit-identical by
construction.  ``reference_*`` below are the independent ground truth
the tests and output checks compare against; no kernel computes with
them.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from typing import Hashable

import numpy as np

from repro import obs
from repro.errors import FormatError, UnsupportedFormatError
from repro.exec import get_engine
from repro.resilience.validation import ensure_structure_validated
from repro.gpusim.cost import CostReport, estimate_cost
from repro.gpusim.device import DeviceSpec, get_device
from repro.gpusim.trace import KernelTrace
from repro.sparse.coo import COOMatrix


def _plan_cache():
    # Imported lazily: repro.core.__init__ imports this module back.
    from repro.core import plancache

    return plancache


def _cache_lookup(kernel, A: COOMatrix, feature_length: int, device: DeviceSpec):
    """(key, cached entry or None); (None, None) when caching is off."""
    pc = _plan_cache()
    if not pc.plan_cache_enabled():
        return None, None
    key = pc.plan_key(
        A.structure_token, kernel.cache_token(), kernel.kind, feature_length, device
    )
    return key, pc.get_plan_cache().lookup(key)


def _cache_store(key, cost: CostReport, trace: KernelTrace, prep: float) -> None:
    pc = _plan_cache()
    pc.get_plan_cache().store(key, pc.CachedLaunch(cost, trace, prep))


def cost_span_attrs(cost: CostReport) -> dict[str, float | int | str]:
    """The CostReport fields every kernel span carries."""
    return {
        "time_us": cost.time_us,
        "cycles": cost.cycles,
        "dram_bytes": cost.dram_bytes,
        "occupancy_warps_per_sm": cost.occupancy.active_warps_per_sm,
        "occupancy_ctas_per_sm": cost.occupancy.active_ctas_per_sm,
        "occupancy_limiter": cost.occupancy.limiter,
        "sm_imbalance": cost.sm_imbalance,
    }


def launch_span_attrs(kernel, A: COOMatrix, device: DeviceSpec) -> dict:
    """Deep-profile context attached to every traced kernel span.

    The trace-dataset exporter (:mod:`repro.obs.dataset`) reads these
    straight off the span record: the graph's structural features
    (memoized per structure token), the kernel's full configuration
    token, and the device constants a learned cost model conditions on.
    Only computed when a trace sink is installed.
    """
    from repro.sparse.stats import graph_feature_dict

    return {
        "device": device.name,
        "device_num_sms": device.num_sms,
        "device_clock_ghz": device.clock_ghz,
        "device_dram_gbps": device.dram_bandwidth_gbps,
        "device_dram_latency_cycles": device.dram_latency_cycles,
        "config": str(kernel.cache_token()),
        "graph": graph_feature_dict(A),
    }


#: per-kind metric names, interned once (these sit on the warm hot path)
_KIND_METRIC_NAMES: dict[str, tuple[str, str, str]] = {}


def _kind_metric_names(kind: str) -> tuple[str, str, str]:
    names = _KIND_METRIC_NAMES.get(kind)
    if names is None:
        names = _KIND_METRIC_NAMES[kind] = (
            f"kernel.{kind}.calls",
            f"kernel.{kind}.time_us",
            f"kernel.{kind}.dram_mb",
        )
    return names


def _finish_kernel_span(sp, kind: str, result: "KernelResult") -> None:
    cost = result.cost
    if obs.tracing_enabled():
        launch = result.trace.launch
        sp.set(**cost_span_attrs(cost))
        # Hardware-model internals: per-stage busy cycles (the Fig-11
        # breakdown), aggregate warp counters, and the launch shape —
        # the profiler and the trace-dataset exporter read these.
        sp.set(
            kind_cycles={k: float(v) for k, v in cost.kind_cycles.items()},
            counters={k: float(v) for k, v in cost.counters.items()},
            grid_ctas=launch.grid_ctas,
            threads_per_cta=launch.threads_per_cta,
            registers_per_thread=launch.registers_per_thread,
            shared_mem_per_cta=launch.shared_mem_per_cta,
            preprocess_s=result.preprocess_seconds,
        )
    sp.add_sim_us(cost.time_us)
    metrics = obs.get_metrics()
    calls, time_us, dram_mb = _kind_metric_names(kind)
    metrics.counter(calls).inc()
    metrics.histogram(time_us).observe(cost.time_us)
    metrics.histogram(dram_mb).observe(cost.dram_bytes / 1e6)


@dataclass
class KernelResult:
    """Numerical output (``None`` if priced only) plus simulated execution report."""

    output: np.ndarray | None
    cost: CostReport
    trace: KernelTrace
    #: host-side preprocessing wall time (custom formats only)
    preprocess_seconds: float = 0.0

    @property
    def time_us(self) -> float:
        return self.cost.time_us


def _launch(kernel, A: COOMatrix, operands: tuple, f: int, dev: DeviceSpec, sp, numerics):
    """Plan-cache lookup, structural half on a miss, then the numerics.

    ``compute`` runs exactly once, after the cache branch, so a hit and
    a miss produce the same output; only the trace and its cost differ
    in where they come from.  A pricing launch skips it, and fills the
    same cache entry a later full launch replays.
    """
    key, hit = _cache_lookup(kernel, A, f, dev)
    if hit is not None:
        cost, trace, prep = hit.cost, hit.trace, hit.preprocess_seconds
    else:
        trace, prep = kernel.execute(A, *operands, dev)
        t0 = time.perf_counter()
        cost = estimate_cost(trace, dev)
        sp.set(cost_wall_ms=(time.perf_counter() - t0) * 1e3)
        if key is not None:
            _cache_store(key, cost, trace, prep)
    output = kernel.compute(A, *operands) if numerics else None
    result = KernelResult(output, cost, trace, prep)
    sp.set(cached=hit is not None)
    _finish_kernel_span(sp, kernel.kind, result)
    return result


def stand_in_operands(kind: str, A: COOMatrix, f: int) -> tuple:
    """Read-only float64 zeros shaped as a ``kind`` launch's operands, zero bytes each."""
    shapes = {"spmm": [(A.nnz,), (A.num_cols, f)], "sddmm": [(A.num_rows, f), (A.num_cols, f)],
              "spmv": [(A.nnz,), (A.num_cols,)]}[kind]
    return tuple(np.broadcast_to(np.float64(0.0), shape) for shape in shapes)


def validate_spmm_inputs(A: COOMatrix, edge_values: np.ndarray, X: np.ndarray) -> None:
    edge_values = np.asarray(edge_values)
    X = np.asarray(X)
    if edge_values.shape != (A.nnz,):
        raise FormatError(f"edge_values must have shape ({A.nnz},), got {edge_values.shape}")
    if X.ndim != 2 or X.shape[0] != A.num_cols:
        raise FormatError(f"X must have shape ({A.num_cols}, F), got {X.shape}")


def validate_sddmm_inputs(A: COOMatrix, X: np.ndarray, Y: np.ndarray) -> None:
    X, Y = np.asarray(X), np.asarray(Y)
    if X.ndim != 2 or X.shape[0] != A.num_rows:
        raise FormatError(f"X must have shape ({A.num_rows}, F), got {X.shape}")
    if Y.ndim != 2 or Y.shape[0] != A.num_cols:
        raise FormatError(f"Y must have shape ({A.num_cols}, F), got {Y.shape}")
    if X.shape[1] != Y.shape[1]:
        raise FormatError(f"feature length mismatch: {X.shape[1]} vs {Y.shape[1]}")


def validate_spmv_inputs(A: COOMatrix, edge_values: np.ndarray, x: np.ndarray) -> None:
    if np.asarray(edge_values).shape != (A.nnz,):
        raise FormatError(f"edge_values must have shape ({A.nnz},)")
    if np.asarray(x).shape != (A.num_cols,):
        raise FormatError(f"x must have shape ({A.num_cols},)")


class KernelCacheMixin:
    """Structural-cache identity shared by the three kernel ABCs."""

    def cache_token(self) -> Hashable:
        """Hashable identity of this kernel *and its configuration*.

        The display ``name`` is not enough on its own (GNNOne names omit
        ablation switches), so configurable kernels override this to
        include their full config.  The class qualname keeps subclasses
        that tweak behaviour without renaming from colliding.
        """
        return (type(self).__qualname__, self.name, self.format)


class SpMMKernel(KernelCacheMixin, abc.ABC):
    """Base class for SpMM (``Y <- A X``) kernels."""

    name: str = "spmm-base"
    format: str = "coo"
    kind = "spmm"

    def __call__(
        self,
        A: COOMatrix,
        edge_values: np.ndarray,
        X: np.ndarray,
        *,
        device: DeviceSpec | str | None = None,
        numerics: bool = True,
    ) -> KernelResult:
        validate_spmm_inputs(A, edge_values, X)
        ensure_structure_validated(A)
        dev = get_device(device)
        edge_values = np.asarray(edge_values, dtype=np.float64)
        X = np.asarray(X, dtype=np.float64)
        with obs.span(
            "kernel.spmm", kind="spmm", kernel=self.name, format=self.format,
            rows=A.num_rows, nnz=A.nnz, f=int(X.shape[1]),
        ) as sp:
            if obs.tracing_enabled():
                sp.set(**launch_span_attrs(self, A, dev))
            return _launch(self, A, (edge_values, X), X.shape[1], dev, sp, numerics)

    def compute(self, A: COOMatrix, edge_values: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Pure numerics (no trace/cost work), run by every full launch."""
        return get_engine().spmm(A, edge_values, X)

    @abc.abstractmethod
    def execute(
        self, A: COOMatrix, edge_values: np.ndarray, X: np.ndarray, device: DeviceSpec
    ) -> tuple[KernelTrace, float]:
        """Structural half of a cold launch: return (trace, preprocess_seconds).

        Reads the operands' shapes only; the output comes from
        :meth:`compute`.
        """

    @abc.abstractmethod
    def memory_bytes(self, num_vertices: int, num_edges: int, feature_length: int) -> int:
        """Device footprint (formats + operands + output) at the given scale."""


class SDDMMKernel(KernelCacheMixin, abc.ABC):
    """Base class for SDDMM (``W <- A ⊙ (X Y^T)``) kernels."""

    name: str = "sddmm-base"
    format: str = "coo"
    kind = "sddmm"

    def __call__(
        self,
        A: COOMatrix,
        X: np.ndarray,
        Y: np.ndarray,
        *,
        device: DeviceSpec | str | None = None,
        numerics: bool = True,
    ) -> KernelResult:
        validate_sddmm_inputs(A, X, Y)
        ensure_structure_validated(A)
        dev = get_device(device)
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64)
        with obs.span(
            "kernel.sddmm", kind="sddmm", kernel=self.name, format=self.format,
            rows=A.num_rows, nnz=A.nnz, f=int(X.shape[1]),
        ) as sp:
            if obs.tracing_enabled():
                sp.set(**launch_span_attrs(self, A, dev))
            return _launch(self, A, (X, Y), X.shape[1], dev, sp, numerics)

    def compute(self, A: COOMatrix, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Pure numerics (no trace/cost work), run by every full launch."""
        return get_engine().sddmm(A, X, Y)

    @abc.abstractmethod
    def execute(
        self, A: COOMatrix, X: np.ndarray, Y: np.ndarray, device: DeviceSpec
    ) -> tuple[KernelTrace, float]:
        """Structural half of a cold launch: return (trace, preprocess_seconds)."""

    @abc.abstractmethod
    def memory_bytes(self, num_vertices: int, num_edges: int, feature_length: int) -> int:
        ...


class SpMVKernel(KernelCacheMixin, abc.ABC):
    """Base class for SpMV (``y <- A x``) kernels (Fig-12 study)."""

    name: str = "spmv-base"
    format: str = "coo"
    kind = "spmv"

    def __call__(
        self,
        A: COOMatrix,
        edge_values: np.ndarray,
        x: np.ndarray,
        *,
        device: DeviceSpec | str | None = None,
        numerics: bool = True,
    ) -> KernelResult:
        validate_spmv_inputs(A, edge_values, x)
        ensure_structure_validated(A)
        dev = get_device(device)
        edge_values = np.asarray(edge_values, dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        with obs.span(
            "kernel.spmv", kind="spmv", kernel=self.name, format=self.format,
            rows=A.num_rows, nnz=A.nnz, f=1,
        ) as sp:
            if obs.tracing_enabled():
                sp.set(**launch_span_attrs(self, A, dev))
            return _launch(self, A, (edge_values, x), 1, dev, sp, numerics)

    def compute(self, A: COOMatrix, edge_values: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Pure numerics (no trace/cost work), run by every full launch."""
        return get_engine().spmv(A, edge_values, x)

    @abc.abstractmethod
    def execute(
        self, A: COOMatrix, edge_values: np.ndarray, x: np.ndarray, device: DeviceSpec
    ) -> tuple[KernelTrace, float]:
        """Structural half of a cold launch: return (trace, preprocess_seconds)."""

    @abc.abstractmethod
    def memory_bytes(self, num_vertices: int, num_edges: int, feature_length: int) -> int:
        ...


def reference_spmm(A: COOMatrix, edge_values: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Ground-truth SpMM via scipy (tests and output checks; no kernel uses it)."""
    return A.to_scipy(np.asarray(edge_values, dtype=np.float64)).tocsr() @ np.asarray(X)


def reference_sddmm(A: COOMatrix, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Ground-truth SDDMM: per-edge dot products (vectorized gather)."""
    X, Y = np.asarray(X), np.asarray(Y)
    return np.einsum("ef,ef->e", X[A.rows], Y[A.cols])


def reference_spmv(A: COOMatrix, edge_values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Ground-truth SpMV via scipy."""
    return A.to_scipy(np.asarray(edge_values, dtype=np.float64)).tocsr() @ np.asarray(x)


def require_format(kernel_name: str, fmt: str, expected: str) -> None:
    if fmt != expected:
        raise UnsupportedFormatError(f"{kernel_name} only supports {expected}, got {fmt}")
