"""Backend interface for the execution engine's numerics fan-out.

The engine owns *policy* — when a launch shards, how operands are
prepared, retry budgets, degrade-to-serial, pool health — and a
:class:`NumericsBackend` owns *mechanism*: where the per-shard numerics
actually run (thread pool, process pool over shared memory, or a
JIT-compiled whole-launch kernel).  The contract:

* the engine hands :meth:`NumericsBackend.run_blocks` a fully prepared
  :class:`ShardLaunch` (operands coerced/permuted, scratch faults
  already planted, pooled output acquired and zeroed);
* the backend executes every block, honouring the engine's bounded
  retry budget (``engine.max_attempts``) with the shared
  :func:`run_shard_with_retries` semantics — one ``exec.shard`` span
  per attempt, ``resilience.retry`` accounting, exponential backoff;
* it returns per-shard wall milliseconds on success, or raises
  :class:`~repro.errors.ShardExecutionError` once any shard exhausts
  its budget — the engine then degrades the launch to the serial
  numerics, identically for a thread fault, a dead worker process, or
  a failed compiled kernel;
* a caller's bad operands (:data:`INPUT_ERRORS`) are not faults: they
  reach the caller from the first attempt, without retry or degrade;
* outputs must be **bit-identical** to the serial path.  Row blocks
  never share an output row and SDDMM edge ranges never share an
  output edge, so a backend that runs
  :meth:`ShardLaunch.run_block`-equivalent numerics per block in any
  order satisfies this by construction (the parity property suite pins
  it).
"""

from __future__ import annotations

import abc
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, ClassVar

import numpy as np

from repro import obs
from repro.errors import ShardExecutionError
from repro.exec import numerics
from repro.exec.sharding import RowBlock
from repro.resilience import faults

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.engine import ExecutionEngine
    from repro.sparse.coo import COOMatrix

#: base backoff before a shard retry; doubles per attempt, capped below
RETRY_BACKOFF_S = 0.001
RETRY_BACKOFF_MAX_S = 0.05

#: the numerics guard's errors for a caller's bad operands: every attempt
#: would fail alike, so they fail the launch at once, pool health untouched
INPUT_ERRORS = (IndexError, ValueError)


@dataclass
class ShardLaunch:
    """One sharded launch, fully prepared by the engine.

    ``op`` selects the numerics family: ``"csr"`` (SpMM/SpMV row blocks
    accumulating into ``out`` rows — rows must be zero on entry) or
    ``"sddmm"`` (per-edge dots overwriting disjoint ``out`` slices).
    Operand arrays are the exact buffers the serial path would read:
    ``data`` is already permuted to CSR order and carries any injected
    scratch corruption, ``X``/``Y`` are float64 and contiguous.
    """

    kind: str  # spmm | spmv | sddmm (span/metric label)
    op: str  # "csr" | "sddmm" (numerics family)
    blocks: list[RowBlock]
    out: np.ndarray
    structure_token: str
    # csr operands
    indptr: np.ndarray | None = None
    cols: np.ndarray | None = None
    data: np.ndarray | None = None
    X: np.ndarray | None = None
    num_cols: int = 0
    # sddmm operands (cols doubles as the COO column index array)
    rows: np.ndarray | None = None
    Y: np.ndarray | None = None
    #: filled by the backend: per-shard successful-attempt wall ms
    shard_wall_ms: list[float] = field(default_factory=list)

    def run_block(self, b: RowBlock) -> None:
        """The serial per-block numerics (thread + eager-compiled path)."""
        if self.op == "csr":
            numerics.csr_block_spmm(
                self.indptr, self.cols, self.data, self.X, self.out,
                b.row_start, b.row_end, self.num_cols,
            )
        else:
            numerics.sddmm_block(
                self.rows, self.cols, self.X, self.Y, self.out,
                b.nnz_start, b.nnz_end,
            )

    @property
    def block_reset(self) -> Callable[[RowBlock], None] | None:
        """Pre-retry cleanup: CSR blocks accumulate, so their output rows
        must be re-zeroed; SDDMM slices are overwritten and need none."""
        if self.op != "csr":
            return None

        def reset(b: RowBlock) -> None:
            self.out[b.row_start : b.row_end] = 0.0

        return reset


def run_shard_with_retries(
    engine: "ExecutionEngine",
    kind: str,
    block: RowBlock,
    body: Callable[[RowBlock], str | None],
    block_reset: Callable[[RowBlock], None] | None = None,
) -> float:
    """One shard with a bounded retry budget and exponential backoff.

    Returns the successful attempt's wall milliseconds (fed into the
    launch's measured-imbalance attribution).  ``body`` runs the shard
    and may return a worker label to stamp on the attempt's
    ``exec.shard`` span (the process backend reports ``pid:<N>`` after
    the result lands; thread/compiled bodies return ``None`` and keep
    the executing thread's name).  Injected faults consume a fresh
    injector occurrence per attempt, so transient failures clear on
    retry exactly like flaky real workers; a shard that fails every
    attempt raises :class:`ShardExecutionError` and the launch degrades
    to serial.
    """
    injector = faults.get_injector()
    metrics = obs.get_metrics()
    last_error: BaseException | None = None
    for attempt in range(engine.max_attempts):
        try:
            t0 = time.perf_counter()
            with obs.span(
                "exec.shard", kind=kind, shard=block.index,
                rows=block.num_rows, nnz=block.nnz, attempt=attempt,
                worker=threading.current_thread().name,
            ) as sp:
                if injector.enabled:
                    injector.maybe_raise(
                        "exec.worker_raise", kind=kind, shard=block.index
                    )
                    injector.maybe_stall(
                        "exec.shard_stall", kind=kind, shard=block.index
                    )
                label = body(block)
                if label is not None:
                    sp.set(worker=label)
            wall_ms = (time.perf_counter() - t0) * 1e3
            metrics.histogram("exec.shard_wall_ms").observe(wall_ms)
            return wall_ms
        except INPUT_ERRORS:
            raise
        except Exception as e:  # noqa: BLE001 - bounded retry, then typed raise
            last_error = e
            if attempt + 1 >= engine.max_attempts:
                break
            metrics.counter("resilience.retry").inc()
            obs.event(
                "resilience.retry", kind=kind, shard=block.index,
                attempt=attempt, error=type(e).__name__,
            )
            if block_reset is not None:
                block_reset(block)
            time.sleep(min(RETRY_BACKOFF_S * 2**attempt, RETRY_BACKOFF_MAX_S))
    raise ShardExecutionError(
        f"shard {block.index} ({kind}) failed after "
        f"{engine.max_attempts} attempts: {last_error}"
    ) from last_error


class NumericsBackend(abc.ABC):
    """Where sharded numerics run.  One instance per engine.

    Class attributes describe the backend's shape to the engine:
    ``needs_workers`` — parallel launches require ``engine.workers > 1``
    (the thread and process pools do; a compiled kernel parallelizes
    internally); ``whole_launch`` — the backend consumes each launch as
    a single full-range block instead of the NNZ-balanced shard plan.
    """

    name: ClassVar[str] = "abstract"
    needs_workers: ClassVar[bool] = True
    whole_launch: ClassVar[bool] = False

    def __init__(self, engine: "ExecutionEngine"):
        self.engine = engine

    @abc.abstractmethod
    def run_blocks(self, launch: ShardLaunch) -> list[float]:
        """Execute every block of ``launch``; return per-shard wall ms.

        Raises :class:`ShardExecutionError` when any shard exhausts the
        engine's retry budget (the engine degrades the launch to
        serial).  Must not return before every in-flight shard has
        finished — a straggler writing into a released buffer would
        corrupt a later launch.
        """

    def gat_alpha(
        self,
        A: "COOMatrix",
        el: np.ndarray,
        er: np.ndarray,
        negative_slope: float = 0.2,
    ) -> np.ndarray:
        """Fused-GAT edge softmax; default is the serial numerics."""
        return numerics.gat_edge_softmax_serial(
            A, el, er, negative_slope=negative_slope
        )

    def shutdown(self, wait: bool = True) -> None:
        """Release backend resources (pools, shared-memory segments)."""
