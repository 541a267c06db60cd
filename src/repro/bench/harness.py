"""Experiment registry and shared sweep machinery.

Every table/figure of the paper has one experiment module under
``repro.bench.experiments``; this module provides their common
ingredients — the kernel sweep with paper-scale OOM accounting — and a
registry so ``run_experiment("fig03")`` (or the CLI:
``python -m repro.bench fig03``) regenerates any of them.

Every sweep point emits an :mod:`repro.obs` span (``bench.spmm`` /
``bench.sddmm``) keyed by kernel × dataset × feature length, carrying
the simulated time or the OOM/launch-failure outcome — the per-point
record ``python -m repro.obs diff`` compares across runs.

Sweep points are independent of each other, so figure experiments run
them through the sharded execution engine (:func:`sweep_points`): with
``REPRO_EXEC_WORKERS > 1`` the (dataset, dim) grid executes
concurrently on the engine's worker pool while row order stays
deterministic.  Kernel numerics invoked *inside* a concurrently
executed point degrade to serial automatically, so the pool never
deadlocks on nested parallelism.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

from repro import obs
from repro.core import plancache
from repro.errors import BenchmarkError, KernelLaunchError
from repro.exec import get_engine
from repro.gpusim.device import DeviceSpec, get_device
from repro.kernels.registry import sddmm_kernel, spmm_kernel
from repro.nn.memory import USABLE_FRACTION
from repro.bench.report import ExperimentResult
from repro.sparse.coo import COOMatrix
from repro.sparse.datasets import QUICK_KEYS, DatasetSpec, get_spec, load_dataset

#: Feature lengths the paper sweeps in Figs 3-4.
FEATURE_LENGTHS = (6, 16, 32, 64)

_REGISTRY: dict[str, Callable[..., ExperimentResult]] = {}


def experiment(exp_id: str):
    """Decorator registering an experiment entry point."""

    def wrap(fn: Callable[..., ExperimentResult]):
        _REGISTRY[exp_id] = fn
        return fn

    return wrap


def run_experiment(exp_id: str, *, quick: bool = False) -> ExperimentResult:
    try:
        fn = _REGISTRY[exp_id]
    except KeyError:
        raise BenchmarkError(
            f"unknown experiment {exp_id!r}; known: {sorted(_REGISTRY)}"
        ) from None
    cache = plancache.get_plan_cache()
    hits0, misses0 = cache.hits, cache.misses
    with obs.span("bench.experiment", experiment=exp_id, quick=quick) as sp:
        result = fn(quick=quick)
        # A figure sweep revisits each launch structure once per kernel
        # config; the hit share tells how much simulation was replayed.
        hits, misses = cache.hits - hits0, cache.misses - misses0
        sp.set(rows=len(result.rows), plancache_hits=hits, plancache_misses=misses)
    obs.get_metrics().counter("bench.experiments_run").inc()
    return result


def experiment_ids() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def sweep_points(
    fn: Callable,
    points: Iterable,
    *,
    label: str = "bench.sweep",
    error_row: Callable[[object, Exception], object] | None = None,
) -> list:
    """Run independent sweep points, concurrently when the engine allows.

    ``fn(point)`` is applied to every point through
    :meth:`repro.exec.ExecutionEngine.map` — order-preserving, so a
    figure's row order is identical at every worker count.  The
    enclosing span records the effective worker count alongside the
    grid size; each point's own ``bench.*`` span is emitted from the
    worker thread with correct parent linkage.

    With ``error_row``, a point that raises no longer aborts the sweep:
    the exception is recorded (``bench.point_failures`` counter and a
    ``bench.point_error`` obs event) and ``error_row(point, exc)``
    supplies the row that takes its place, so the rest of the grid
    still runs and the failure is visible in the figure instead of
    killing it.  Without ``error_row`` the exception propagates as
    before.
    """
    points = list(points)
    engine = get_engine()

    def guarded(point):
        try:
            return fn(point)
        except Exception as e:  # noqa: BLE001 - recorded, surfaced in the row
            if error_row is None:
                raise
            obs.get_metrics().counter("bench.point_failures").inc()
            obs.event("bench.point_error", label=label, point=repr(point),
                      error=f"{type(e).__name__}: {e}")
            return error_row(point, e)

    with obs.span(label, points=len(points), workers=engine.workers):
        return engine.map(guarded, points, label=label)


def kernel_fits(kernel, spec: DatasetSpec, feature_length: int, device: DeviceSpec) -> bool:
    """Does the kernel's footprint fit at *paper scale*?"""
    needed = kernel.memory_bytes(spec.paper_vertices, spec.paper_edges, feature_length)
    return needed <= USABLE_FRACTION * device.memory_bytes


# Sized to one quick grid (datasets x feature lengths, ~91 MB): Fig-4
# then reuses every operand set Fig-3 just built instead of regenerating
# each one after the LRU cycled it out.
@lru_cache(maxsize=len(QUICK_KEYS) * len(FEATURE_LENGTHS))
def sweep_operands(
    dataset_key: str, feature_length: int, seed: int = 0
) -> tuple[COOMatrix, np.ndarray, np.ndarray, np.ndarray]:
    """Memoized ``(A, edge_values, X_cols, X_rows)`` for one sweep point.

    A figure sweep revisits the same (dataset, feature-length) point
    once per kernel; without this cache each visit regenerated the
    operand arrays (and, before :func:`load_dataset` was memoized,
    rebuilt the COO) dozens of times per sweep.  Arrays are returned
    read-only since they are shared across kernel invocations.
    """
    A = load_dataset(dataset_key).coo
    rng = np.random.default_rng(seed)
    edge_values = rng.standard_normal(A.nnz)
    X_cols = rng.standard_normal((A.num_cols, feature_length))
    X_rows = rng.standard_normal((A.num_rows, feature_length))
    for arr in (edge_values, X_cols, X_rows):
        arr.setflags(write=False)
    return A, edge_values, X_cols, X_rows


def time_spmm(
    name: str, dataset_key: str, feature_length: int, *, device=None, seed: int = 0
) -> float | None:
    """Simulated microseconds, or None for OOM/launch failure."""
    dev = get_device(device)
    spec = get_spec(dataset_key)
    with obs.span("bench.spmm", kind="spmm", kernel=name, dataset=spec.key,
                  f=feature_length) as sp:
        kernel = spmm_kernel(name)
        if not kernel_fits(kernel, spec, feature_length, dev):
            sp.set(outcome="oom")
            return None
        A, vals, X, _ = sweep_operands(spec.key, feature_length, seed)
        try:
            result = kernel(A, vals, X, device=dev)
        except KernelLaunchError:
            sp.set(outcome="launch-error")
            return None
        time_us = result.time_us
        # The sweep only reads the simulated time; hand the output
        # buffer back so the next launch of this shape skips allocation.
        get_engine().release(result.output)
        sp.set(outcome="ok").add_sim_us(time_us)
        return time_us


def time_sddmm(
    name: str, dataset_key: str, feature_length: int, *, device=None, seed: int = 0
) -> float | None:
    dev = get_device(device)
    spec = get_spec(dataset_key)
    with obs.span("bench.sddmm", kind="sddmm", kernel=name, dataset=spec.key,
                  f=feature_length) as sp:
        kernel = sddmm_kernel(name)
        if not kernel_fits(kernel, spec, feature_length, dev):
            sp.set(outcome="oom")
            return None
        A, _, Y, X = sweep_operands(spec.key, feature_length, seed)
        try:
            result = kernel(A, X, Y, device=dev)
        except KernelLaunchError:
            sp.set(outcome="launch-error")
            return None
        time_us = result.time_us
        get_engine().release(result.output)
        sp.set(outcome="ok").add_sim_us(time_us)
        return time_us


# Import experiment modules for their registration side effects.
def _register_all() -> None:
    from repro.bench import experiments  # noqa: F401


_register_all()
