"""Sharded parallel execution engine for host-side kernel numerics.

After the structural plan cache (PR 2), a warm kernel launch runs
*only* its numerics — one serial scipy/NumPy call.  This module makes
that remaining half scale on multi-core hosts: each launch's numerics
run as NNZ-balanced row blocks (:mod:`repro.exec.sharding`) on a
pluggable :class:`~repro.exec.backends.NumericsBackend`, each block
writing its own rows/edges of a pooled pre-allocated output buffer.
``REPRO_EXEC_BACKEND`` selects the mechanism:

* ``thread`` (default) — the persistent ``ThreadPoolExecutor``; scipy's
  CSR loops and the SDDMM gather release the GIL, so blocks overlap.
* ``process`` — a spawn process pool over shared-memory resident
  shards (:mod:`repro.exec.backends.process`): graph structure uploads
  once per structure token, steady-state launches ship zero graph
  bytes, and scaling is no longer GIL-bound.
* ``compiled`` — numba-JIT whole-launch kernels
  (:mod:`repro.exec.backends.compiled`) when numba is importable, the
  exact eager numpy numerics otherwise.

Correctness invariant: row blocks never share an output row (SpMM/SpMV)
and NZE ranges never share an output edge (SDDMM), so no atomics are
needed and every backend's output is **bit-identical** to the serial
path (the parity property suite pins all three).  Simulated device
times are untouched — the engine only reorganizes host work.

``REPRO_EXEC_WORKERS`` selects the worker count (default 1 = the serial
path, so all simulated-time figures are unchanged);
``REPRO_EXEC_MIN_NNZ`` (default 4096) keeps tiny launches serial where
fan-out overhead would dominate.  The engine also exposes
:meth:`ExecutionEngine.map` for embarrassingly parallel sweeps (the
bench harness runs independent ``(dataset, F)`` points through it);
``map`` always runs on the engine's *thread* pool — sweep closures are
not picklable — and launches issued from inside a map worker are
pinned serial, so sweep-level parallelism never oversubscribes a
second shard pool (thread or process) per worker.

Resilience (:mod:`repro.resilience`): each shard gets a bounded retry
budget (``REPRO_EXEC_RETRIES``, exponential backoff on stalls and
worker exceptions); a shard that exhausts it — or a sharded output
that fails the finite-value guard — degrades the *launch* to the exact
serial numerics, which stay bit-identical to the fault-free run.  A
dead worker process (``BrokenProcessPool``) rebuilds the pool and
follows the same retry/degrade path as a thread fault.  Repeated
launch failures mark the pool unhealthy and route every subsequent
launch serially until :meth:`ExecutionEngine.reset_health`.  A caller's
bad edge index is no fault: its ``IndexError`` is raised at once.  Every
recovery emits ``resilience.retry`` / ``resilience.degraded`` counters
and obs events, so chaos runs are auditable from the trace.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, TypeVar

import numpy as np

from repro import obs
from repro.errors import ConfigError, ShardExecutionError
from repro.exec import numerics
from repro.exec.backends import create_backend, resolve_backend_name
from repro.exec.backends.base import (  # noqa: F401 - re-exported for compat
    INPUT_ERRORS,
    RETRY_BACKOFF_MAX_S,
    RETRY_BACKOFF_S,
    ShardLaunch,
)
from repro.exec.sharding import RowBlock, ShardPlan, edge_range_bounds, row_shard_plan
from repro.resilience import faults, validation
from repro.sparse.coo import COOMatrix

T = TypeVar("T")
R = TypeVar("R")

_ENV_WORKERS = "REPRO_EXEC_WORKERS"
_ENV_MIN_NNZ = "REPRO_EXEC_MIN_NNZ"
_ENV_RETRIES = "REPRO_EXEC_RETRIES"

#: below this NZE count a launch stays serial (fan-out costs ~10us per
#: shard; a 4k-NZE SpMM's numerics are in the same ballpark)
DEFAULT_MIN_PARALLEL_NNZ = 4096

#: per-shard attempts beyond the first (bounded retry budget)
DEFAULT_RETRIES = 2

#: consecutive failed parallel launches before the pool is deemed
#: unhealthy and everything degrades to serial until reset_health()
UNHEALTHY_AFTER = 3


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {raw!r}") from None
    if value < 0:
        raise ConfigError(f"{name} must be non-negative, got {value}")
    return value


def resolve_workers() -> int:
    """Worker count from ``REPRO_EXEC_WORKERS`` (default 1 = serial)."""
    return max(1, _env_int(_ENV_WORKERS, 1))


class BufferPool:
    """Reusable pre-allocated float64 output buffers, keyed by shape.

    ``acquire`` hands ownership of a buffer to the caller; a caller that
    is done with an engine-produced output (a numerics benchmark that
    reads only the simulated time) gives it back with
    ``release`` so the next launch of that shape skips the allocation.
    Only buffers the pool itself created are ever re-pooled — arbitrary
    caller arrays are refused, since pooling an array someone else still
    references would corrupt their data.
    """

    def __init__(self, max_free_per_shape: int = 4):
        self.max_free_per_shape = max_free_per_shape
        self._lock = threading.Lock()
        self._free: dict[tuple[int, ...], list[np.ndarray]] = {}
        self._issued: set[int] = set()

    def acquire(self, shape: tuple[int, ...], *, zero: bool = True) -> np.ndarray:
        metrics = obs.get_metrics()
        with self._lock:
            free = self._free.get(shape)
            buf = free.pop() if free else None
        if buf is None:
            metrics.counter("exec.pool.miss").inc()
            buf = np.zeros(shape) if zero else np.empty(shape)
        else:
            metrics.counter("exec.pool.hit").inc()
            if zero:
                buf.fill(0.0)
        with self._lock:
            self._issued.add(id(buf))
        return buf

    def release(self, buf: np.ndarray) -> bool:
        """Return an engine-issued buffer; True if it was re-pooled."""
        if not isinstance(buf, np.ndarray) or buf.base is not None:
            return False
        with self._lock:
            if id(buf) not in self._issued:
                return False
            self._issued.discard(id(buf))
            free = self._free.setdefault(buf.shape, [])
            if len(free) >= self.max_free_per_shape:
                return False
            free.append(buf)
        return True

    def clear(self) -> None:
        with self._lock:
            self._free.clear()
            self._issued.clear()


class ExecutionEngine:
    """Persistent runner for sharded kernel numerics on a backend."""

    def __init__(
        self,
        workers: int | None = None,
        *,
        min_parallel_nnz: int | None = None,
        backend: str | None = None,
    ):
        self.workers = resolve_workers() if workers is None else max(1, int(workers))
        self.min_parallel_nnz = (
            _env_int(_ENV_MIN_NNZ, DEFAULT_MIN_PARALLEL_NNZ)
            if min_parallel_nnz is None
            else int(min_parallel_nnz)
        )
        self.max_attempts = 1 + _env_int(_ENV_RETRIES, DEFAULT_RETRIES)
        self.pool = BufferPool()
        self._executor: ThreadPoolExecutor | None = None
        self._executor_lock = threading.Lock()
        self._tls = threading.local()
        self._health_lock = threading.Lock()
        self._consecutive_failures = 0
        self._unhealthy = False
        name = resolve_backend_name() if backend is None else str(backend).lower()
        self.backend = create_backend(name, self)
        obs.get_metrics().gauge("exec.workers").set(self.workers)

    # ------------------------------------------------------------- pool
    def _ensure_executor(self) -> ThreadPoolExecutor:
        """The engine's *thread* pool (thread-backend shards, ``map``)."""
        if self._executor is None:
            with self._executor_lock:
                if self._executor is None:
                    self._executor = ThreadPoolExecutor(
                        max_workers=self.workers,
                        thread_name_prefix="repro-exec",
                        initializer=self._mark_worker_thread,
                    )
        return self._executor

    def _mark_worker_thread(self) -> None:
        self._tls.in_worker = True

    def _in_worker(self) -> bool:
        return getattr(self._tls, "in_worker", False)

    def shutdown(self, wait: bool = True) -> None:
        with self._executor_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait)
        self.backend.shutdown(wait=wait)
        self.pool.clear()

    def _parallel_ok(self, nnz: int) -> bool:
        if self.backend.needs_workers and self.workers <= 1:
            return False
        return (
            nnz >= self.min_parallel_nnz
            and not self._in_worker()
            and not self._unhealthy
        )

    # ------------------------------------------------------------ health
    @property
    def healthy(self) -> bool:
        """False once repeated launch failures benched the worker pool."""
        return not self._unhealthy

    def reset_health(self) -> None:
        """Forgive past failures and re-enable parallel execution."""
        with self._health_lock:
            self._consecutive_failures = 0
            self._unhealthy = False

    def _record_launch_failure(self) -> None:
        with self._health_lock:
            self._consecutive_failures += 1
            if self._consecutive_failures >= UNHEALTHY_AFTER and not self._unhealthy:
                self._unhealthy = True
                obs.get_metrics().counter("resilience.pool_unhealthy").inc()
                obs.event(
                    "resilience.pool_unhealthy",
                    consecutive_failures=self._consecutive_failures,
                )

    def _record_launch_success(self) -> None:
        with self._health_lock:
            self._consecutive_failures = 0

    def _degrade(self, kind: str, reason: str) -> None:
        """Account one launch-level degrade-to-serial recovery."""
        self._record_launch_failure()
        obs.get_metrics().counter("resilience.degraded").inc()
        obs.event("resilience.degraded", kind=kind, reason=reason, backend=self.backend.name)

    # ---------------------------------------------------------- kernels
    def spmm(self, A: COOMatrix, edge_values: np.ndarray, X: np.ndarray) -> np.ndarray:
        """``Y = A_w @ X`` — sharded when workers allow, else serial."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            return self.spmv(A, edge_values, X)
        if not self._parallel_ok(A.nnz):
            obs.get_metrics().counter("exec.launch.serial").inc()
            return numerics.csr_spmm_serial(A, edge_values, X)
        return self._sharded_csr("spmm", A, edge_values, X)

    def spmv(self, A: COOMatrix, edge_values: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``y = A_w @ x`` — the F=1 slice of the same row-block split."""
        x = np.asarray(x, dtype=np.float64)
        if not self._parallel_ok(A.nnz):
            obs.get_metrics().counter("exec.launch.serial").inc()
            return numerics.csr_spmm_serial(A, edge_values, x)
        return self._sharded_csr("spmv", A, edge_values, x)

    def gat_alpha(
        self,
        A: COOMatrix,
        el: np.ndarray,
        er: np.ndarray,
        *,
        negative_slope: float = 0.2,
    ) -> np.ndarray:
        """Fused-GAT edge softmax (scores + segment softmax), backend-routed.

        ``A`` must be CSR-ordered (the fused kernels sort first).  The
        compiled backend JITs the score pass; every backend keeps the
        segment-sum and ``exp`` on the same numpy kernels, so alpha is
        bit-identical across backends.
        """
        el = np.asarray(el, dtype=np.float64)
        er = np.asarray(er, dtype=np.float64)
        return self.backend.gat_alpha(A, el, er, negative_slope=negative_slope)

    def _csr_blocks(self, A: COOMatrix) -> tuple[ShardPlan | None, list[RowBlock]]:
        """Shard plan + blocks for a row-parallel launch on this backend."""
        if self.backend.whole_launch:
            return None, [RowBlock(0, 0, A.num_rows, 0, A.nnz)]
        plan = row_shard_plan(A, self.workers)
        return plan, plan.nonempty_blocks()

    def _sharded_csr(self, kind: str, A: COOMatrix, edge_values, X) -> np.ndarray:
        plan, blocks = self._csr_blocks(A)
        if not self.backend.whole_launch and len(blocks) <= 1:
            obs.get_metrics().counter("exec.launch.serial").inc()
            return numerics.csr_spmm_serial(A, edge_values, X)
        indptr, cols, perm = A.csr_arrays()
        data = np.asarray(edge_values, dtype=np.float64)
        if perm is not None:
            data = data[perm]
        injector = faults.get_injector()
        if injector.enabled and injector.fire("exec.value_nan", kind=kind):
            # Corrupt a *scratch copy* of the edge values: the sharded
            # result will carry the NaN, the finite-output guard below
            # catches it, and the serial recompute uses the originals.
            data = np.array(data, dtype=np.float64)
            data[injector.value_index("exec.value_nan", data.shape[0])] = np.nan
        Xc = np.ascontiguousarray(X)
        shape = (A.num_rows,) if Xc.ndim == 1 else (A.num_rows, Xc.shape[1])
        out = self.pool.acquire(shape, zero=True)
        launch = ShardLaunch(
            kind=kind, op="csr", blocks=blocks, out=out,
            structure_token=A.structure_token,
            indptr=indptr, cols=cols, data=data, X=Xc, num_cols=A.num_cols,
        )
        try:
            self._run_blocks(plan, launch)
        except ShardExecutionError as e:
            self._degrade(kind, f"shard-failure: {e}")
            self.pool.release(out)
            return numerics.csr_spmm_serial(A, edge_values, X)
        if self._needs_output_guard(injector) and not validation.check_finite_output(out):
            self._degrade(kind, "non-finite-output")
            self.pool.release(out)
            return numerics.csr_spmm_serial(A, edge_values, X)
        self._record_launch_success()
        return out

    def sddmm(self, A: COOMatrix, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """``W[e] = <X[row_e], Y[col_e]>`` in the caller's edge order."""
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64)
        if not self._parallel_ok(A.nnz):
            obs.get_metrics().counter("exec.launch.serial").inc()
            return numerics.sddmm_serial(A, X, Y)
        # Per-edge outputs: row-aligned NZE ranges when the COO is
        # CSR-ordered (the common case — same blocks as SpMM), plain
        # equal ranges otherwise.  Either way output slices are disjoint.
        if self.backend.whole_launch:
            plan = None
            blocks = [RowBlock(0, 0, 0, 0, A.nnz)]
        elif A.is_csr_ordered():
            plan = row_shard_plan(A, self.workers)
            blocks = plan.nonempty_blocks()
        else:
            bounds = edge_range_bounds(A.nnz, self.workers)
            plan = None
            blocks = [
                RowBlock(i, 0, 0, int(bounds[i]), int(bounds[i + 1]))
                for i in range(len(bounds) - 1)
                if bounds[i + 1] > bounds[i]
            ]
        if not self.backend.whole_launch and len(blocks) <= 1:
            obs.get_metrics().counter("exec.launch.serial").inc()
            return numerics.sddmm_serial(A, X, Y)
        injector = faults.get_injector()
        Xs = X
        if injector.enabled and injector.fire("exec.value_nan", kind="sddmm"):
            # Corrupt a scratch copy of one gathered operand row; the
            # finite-output guard recovers with the pristine originals.
            Xs = np.array(X, dtype=np.float64)
            edge = injector.value_index("exec.value_nan", A.nnz)
            Xs[int(A.rows[edge]), 0] = np.nan
        out = self.pool.acquire((A.nnz,), zero=False)
        launch = ShardLaunch(
            kind="sddmm", op="sddmm", blocks=blocks, out=out,
            structure_token=A.structure_token,
            rows=A.rows, cols=A.cols, X=Xs, Y=Y,
        )
        try:
            self._run_blocks(plan, launch)
        except INPUT_ERRORS:
            self.pool.release(out)
            raise
        except ShardExecutionError as e:
            self._degrade("sddmm", f"shard-failure: {e}")
            self.pool.release(out)
            return numerics.sddmm_serial(A, X, Y)
        if self._needs_output_guard(injector) and not validation.check_finite_output(out):
            self._degrade("sddmm", "non-finite-output")
            self.pool.release(out)
            return numerics.sddmm_serial(A, X, Y)
        self._record_launch_success()
        return out

    def release(self, buf: np.ndarray) -> bool:
        """Give an engine-produced output buffer back to the pool."""
        return self.pool.release(buf)

    # ----------------------------------------------------------- fanout
    def _needs_output_guard(self, injector: faults.FaultInjector) -> bool:
        """Scan sharded outputs for NaN/Inf only when someone may have
        planted them (armed injector) or the user asked for paranoia
        (``REPRO_VALIDATE=full``) — the scan is O(output)."""
        return injector.armed("exec.value_nan") or validation.validation_level() == "full"

    def _run_blocks(self, plan: ShardPlan | None, launch: ShardLaunch) -> None:
        """One parallel launch on the backend, wrapped in accounting."""
        metrics = obs.get_metrics()
        metrics.counter("exec.launch.parallel").inc()
        imbalance = plan.imbalance if plan is not None else 1.0
        metrics.histogram("exec.shard_imbalance").observe(imbalance)
        blocks = launch.blocks
        with obs.span(
            "exec.parallel", kind=launch.kind, backend=self.backend.name,
            workers=self.workers, shards=len(blocks), shard_imbalance=imbalance,
        ) as sp:
            shard_ms = self.backend.run_blocks(launch)
            launch.shard_wall_ms = shard_ms
            if shard_ms:
                # Measured (wall) imbalance alongside the planned NNZ
                # imbalance: the timeline/profile views compare the two
                # to show whether the NNZ balancer predicts stragglers.
                mean_ms = sum(shard_ms) / len(shard_ms)
                sp.set(
                    shard_wall_ms_max=max(shard_ms),
                    shard_wall_ms_mean=mean_ms,
                    measured_imbalance=max(shard_ms) / mean_ms if mean_ms > 0 else 1.0,
                )

    def map(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        *,
        label: str = "exec.point",
    ) -> list[R]:
        """Run ``fn`` over independent items, concurrently when enabled.

        Order-preserving.  Falls back to a plain loop with one worker,
        a single item, or when called from inside an engine worker
        thread (so sweep-level and shard-level parallelism never nest
        into a deadlock on the shared pool).  Always runs on the
        engine's *thread* pool regardless of the shard backend — sweep
        closures are not picklable, and the in-worker pin above keeps a
        process backend from fanning a second pool out of every map
        worker.
        """
        items = list(items)
        if self.workers <= 1 or len(items) <= 1 or self._in_worker():
            return [fn(item) for item in items]
        executor = self._ensure_executor()
        futures = []
        for i, item in enumerate(items):
            ctx = contextvars.copy_context()
            futures.append(executor.submit(ctx.run, self._run_point, fn, item, i, label))
        return [f.result() for f in futures]

    def _run_point(self, fn, item, index: int, label: str):
        with obs.span(label, index=index, worker=threading.current_thread().name):
            return fn(item)


# ---------------------------------------------------------------- global
_default: ExecutionEngine | None = None
_default_lock = threading.Lock()


def get_engine() -> ExecutionEngine:
    """The process-global engine every kernel ``compute()`` consults."""
    global _default
    if _default is None:
        with _default_lock:
            if _default is None:
                _default = ExecutionEngine()
    return _default


def set_exec_workers(workers: int | None) -> None:
    """Replace the global engine (``None`` re-resolves from the env)."""
    global _default
    with _default_lock:
        old, _default = _default, ExecutionEngine(workers)
    if old is not None:
        old.shutdown()


@contextlib.contextmanager
def exec_workers(
    workers: int,
    *,
    min_parallel_nnz: int | None = None,
    backend: str | None = None,
):
    """Temporarily swap in an engine with the given worker count (tests)."""
    global _default
    override = ExecutionEngine(
        workers, min_parallel_nnz=min_parallel_nnz, backend=backend
    )
    with _default_lock:
        prev, _default = _default, override
    try:
        yield override
    finally:
        with _default_lock:
            _default = prev
        override.shutdown()
        obs.get_metrics().gauge("exec.workers").set(
            prev.workers if prev is not None else resolve_workers()
        )
