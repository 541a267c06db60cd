"""Process-pool backend over shared-memory resident shards.

Threads scale the engine only as far as the GIL and scipy's released
sections allow; this backend fans shard blocks out to a spawn-context
``ProcessPoolExecutor`` instead.  The trick that makes that cheap is
*residency*: the graph's structural arrays (CSR ``indptr``/``cols`` for
SpMM/SpMV, COO ``rows``/``cols`` for SDDMM) are copied **once** into
``multiprocessing.shared_memory`` segments keyed by the structure
token and kept alive across launches.  Workers attach to a segment the
first time they see its name and cache the mapping, so a steady-state
launch ships only a handful of small task dicts — (segment name,
offsets, block extents) — and **zero graph bytes**.  Per-launch values
(edge data, feature operands) travel through a small pool of recycled
scratch segments, and every block writes its disjoint rows/edges into
a preallocated shared output buffer the parent copies back on success.

Resilience mirrors the thread backend exactly: each shard has the
engine's bounded retry budget with per-attempt ``exec.shard`` spans
(labelled ``pid:<N>`` so ``timeline`` renders per-process lanes),
``resilience.retry`` accounting and exponential backoff; a dead worker
surfaces as ``BrokenProcessPool``, the pool is rebuilt and the shard
retried, and an exhausted budget raises
:class:`~repro.errors.ShardExecutionError` so the engine degrades the
launch to serial — exactly like a thread fault.

Lifecycle/cleanup: segments are unlinked when a graph entry is evicted
from the small resident LRU, when the owning engine shuts down, and at
interpreter exit (``atexit``); only the creating process ever unlinks
(a forked child must not destroy its parent's segments).  Workers
attach untracked (``track=False`` on Python ≥3.13, a
``resource_tracker.register`` shim earlier) so attachment never
triggers the spurious cross-process unlink warnings of pre-3.13
CPython.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory

import numpy as np

from repro import obs
from repro.errors import ShardExecutionError
from repro.exec import numerics
from repro.exec.backends.base import (
    RETRY_BACKOFF_MAX_S,
    RETRY_BACKOFF_S,
    NumericsBackend,
    ShardLaunch,
)
from repro.resilience import faults

_ALIGN = 64


def _aligned(n: int) -> int:
    return (n + _ALIGN - 1) & ~(_ALIGN - 1)


class _Seg:
    """One shared-memory segment; unlinked only by its creator process."""

    __slots__ = ("shm", "creator_pid", "nbytes")

    def __init__(self, nbytes: int):
        self.nbytes = int(nbytes)
        self.shm = shared_memory.SharedMemory(create=True, size=self.nbytes)
        self.creator_pid = os.getpid()

    @property
    def name(self) -> str:
        return self.shm.name

    def destroy(self) -> None:
        if self.creator_pid != os.getpid():
            return
        try:
            self.shm.close()
            self.shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - already gone
            pass


def _pack_layout(arrays: list[tuple[str, np.ndarray]]):
    """(total nbytes, {name: (offset, shape, dtype-str)}) for one segment."""
    off = 0
    layout: dict[str, tuple[int, tuple[int, ...], str]] = {}
    for name, arr in arrays:
        off = _aligned(off)
        layout[name] = (off, tuple(arr.shape), arr.dtype.str)
        off += arr.nbytes
    return max(1, off), layout


def _write_into(seg: _Seg, arrays: list[tuple[str, np.ndarray]], layout) -> None:
    for name, arr in arrays:
        off, shape, dtype = layout[name]
        np.ndarray(shape, dtype=dtype, buffer=seg.shm.buf, offset=off)[...] = arr


class SharedShardStore:
    """Parent-side owner of resident graph + recycled scratch segments."""

    MAX_GRAPHS = 8
    MAX_FREE_SCRATCH = 4  # recycled segments kept per size class

    def __init__(self):
        self._lock = threading.Lock()
        self._graphs: OrderedDict[str, tuple[_Seg, dict]] = OrderedDict()
        self._scratch_free: dict[int, list[_Seg]] = {}
        self._closed = False

    def graph_layout(self, launch: ShardLaunch) -> dict:
        """Resident structural arrays for ``launch``; uploads on first use."""
        if launch.op == "csr":
            key = f"{launch.structure_token}:csr"
            arrays = [("indptr", launch.indptr), ("gcols", launch.cols)]
        else:
            key = f"{launch.structure_token}:coo"
            arrays = [("rows", launch.rows), ("gcols", launch.cols)]
        with self._lock:
            hit = self._graphs.get(key)
            if hit is not None:
                self._graphs.move_to_end(key)
                seg, layout = hit
                obs.get_metrics().counter("exec.shm.graph_hit").inc()
                return {"name": seg.name, **layout}
        arrays = [(n, np.ascontiguousarray(a)) for n, a in arrays]
        nbytes, layout = _pack_layout(arrays)
        seg = _Seg(nbytes)
        _write_into(seg, arrays, layout)
        obs.get_metrics().counter("exec.shm.graph_upload").inc()
        evicted: list[_Seg] = []
        with self._lock:
            if self._closed:
                evicted.append(seg)
            else:
                self._graphs[key] = (seg, layout)
                while len(self._graphs) > self.MAX_GRAPHS:
                    _, (old, _) = self._graphs.popitem(last=False)
                    evicted.append(old)
        for old in evicted:
            old.destroy()
        return {"name": seg.name, **layout}

    def pack_operands(self, launch: ShardLaunch):
        """Copy the launch's value operands into one scratch segment."""
        if launch.op == "csr":
            arrays = [("data", launch.data), ("X", launch.X)]
        else:
            arrays = [("X", launch.X), ("Y", launch.Y)]
        arrays = [(n, np.ascontiguousarray(a)) for n, a in arrays]
        nbytes, layout = _pack_layout(arrays)
        seg = self.acquire_scratch(nbytes)
        _write_into(seg, arrays, layout)
        return seg, layout

    def acquire_scratch(self, nbytes: int) -> _Seg:
        size = 1 << max(12, (int(nbytes) - 1).bit_length())
        with self._lock:
            free = self._scratch_free.get(size)
            if free:
                return free.pop()
        return _Seg(size)

    def release_scratch(self, seg: _Seg) -> None:
        with self._lock:
            if not self._closed:
                free = self._scratch_free.setdefault(seg.nbytes, [])
                if len(free) < self.MAX_FREE_SCRATCH:
                    free.append(seg)
                    return
        seg.destroy()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            doomed = [seg for seg, _ in self._graphs.values()]
            doomed += [s for lst in self._scratch_free.values() for s in lst]
            self._graphs.clear()
            self._scratch_free.clear()
        for seg in doomed:
            seg.destroy()


# --------------------------------------------------------------- workers
_ATTACHED: OrderedDict[str, shared_memory.SharedMemory] = OrderedDict()
_MAX_ATTACHED = 64


def _patch_resource_tracker() -> None:
    """Pre-3.13 CPython registers *attached* shared memory with the
    resource tracker, which then unlinks segments the parent still owns
    when a worker exits.  Workers never own segments, so drop the
    registration entirely (3.13+ uses ``track=False`` instead)."""
    try:
        from multiprocessing import resource_tracker
    except ImportError:  # pragma: no cover - always present on CPython
        return
    if getattr(resource_tracker, "_repro_shm_untracked", False):
        return
    orig_register = resource_tracker.register

    def register(name, rtype):
        if rtype == "shared_memory":
            return
        orig_register(name, rtype)

    resource_tracker.register = register
    resource_tracker._repro_shm_untracked = True


def _worker_init() -> None:
    """Spawn-hook: pin the child serial and make shm attachment inert.

    A worker must never build its own parallel engine (oversubscription)
    or re-arm the fault injector (the parent injects deterministically
    on its side of the submit boundary).
    """
    os.environ["REPRO_EXEC_WORKERS"] = "1"
    os.environ["REPRO_EXEC_BACKEND"] = "thread"
    os.environ.pop("REPRO_FAULT_PROFILE", None)
    os.environ["REPRO_OBS"] = "off"
    _patch_resource_tracker()


def _attach(name: str) -> shared_memory.SharedMemory:
    shm = _ATTACHED.get(name)
    if shm is not None:
        _ATTACHED.move_to_end(name)
        return shm
    while len(_ATTACHED) >= _MAX_ATTACHED:
        _, old = _ATTACHED.popitem(last=False)
        old.close()
    try:
        shm = shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track kwarg (register() is shimmed)
        shm = shared_memory.SharedMemory(name=name)
    _ATTACHED[name] = shm
    return shm


def _view(shm: shared_memory.SharedMemory, spec) -> np.ndarray:
    off, shape, dtype = spec
    return np.ndarray(tuple(shape), dtype=dtype, buffer=shm.buf, offset=off)


def _worker_run(task: dict):
    """Execute one shard block against attached segments (in a worker)."""
    t0 = time.perf_counter()
    g = _attach(task["graph"])
    s = _attach(task["scratch"])
    o = _attach(task["out"])
    out = np.ndarray(tuple(task["out_shape"]), dtype=np.float64, buffer=o.buf)
    if task["op"] == "csr":
        numerics.csr_block_spmm(
            _view(g, task["indptr"]), _view(g, task["gcols"]),
            _view(s, task["data"]), _view(s, task["X"]), out,
            task["row_start"], task["row_end"], task["num_cols"],
        )
    else:
        numerics.sddmm_block(
            _view(g, task["rows"]), _view(g, task["gcols"]),
            _view(s, task["X"]), _view(s, task["Y"]), out,
            task["nnz_start"], task["nnz_end"],
        )
    return os.getpid(), (time.perf_counter() - t0) * 1e3


def _task_for(launch: ShardLaunch, b, graph: dict, scratch_name: str,
              slayout: dict, out_name: str) -> dict:
    task = {
        "op": launch.op,
        "graph": graph["name"],
        "scratch": scratch_name,
        "out": out_name,
        "out_shape": tuple(launch.out.shape),
        "row_start": b.row_start, "row_end": b.row_end,
        "nnz_start": b.nnz_start, "nnz_end": b.nnz_end,
    }
    if launch.op == "csr":
        task["num_cols"] = launch.num_cols
        task["indptr"] = graph["indptr"]
        task["gcols"] = graph["gcols"]
        task["data"] = slayout["data"]
        task["X"] = slayout["X"]
    else:
        task["rows"] = graph["rows"]
        task["gcols"] = graph["gcols"]
        task["X"] = slayout["X"]
        task["Y"] = slayout["Y"]
    return task


class ProcessBackend(NumericsBackend):
    """Shards on a spawn process pool over resident shared memory."""

    name = "process"

    def __init__(self, engine):
        super().__init__(engine)
        self._store = SharedShardStore()
        self._executor: ProcessPoolExecutor | None = None
        self._executor_lock = threading.Lock()
        atexit.register(self._store.close)

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            with self._executor_lock:
                if self._executor is None:
                    self._executor = ProcessPoolExecutor(
                        max_workers=self.engine.workers,
                        mp_context=multiprocessing.get_context("spawn"),
                        initializer=_worker_init,
                    )
        return self._executor

    def _rebuild_executor(self) -> None:
        with self._executor_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
        obs.get_metrics().counter("exec.pool_rebuild").inc()
        obs.event("resilience.pool_rebuild", backend=self.name)

    def shutdown(self, wait: bool = True) -> None:
        with self._executor_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait)
        self._store.close()

    def run_blocks(self, launch: ShardLaunch) -> list[float]:
        graph = self._store.graph_layout(launch)
        scratch, slayout = self._store.pack_operands(launch)
        out_seg = self._store.acquire_scratch(launch.out.nbytes)
        try:
            return self._run_rounds(launch, graph, scratch, slayout, out_seg)
        finally:
            self._store.release_scratch(out_seg)
            self._store.release_scratch(scratch)

    def _run_rounds(self, launch, graph, scratch, slayout, out_seg):
        injector = faults.get_injector()
        metrics = obs.get_metrics()
        out_view = np.ndarray(
            launch.out.shape, dtype=np.float64, buffer=out_seg.shm.buf
        )
        if launch.op == "csr":
            out_view[...] = 0.0  # block kernels accumulate
        tasks = {
            b.index: _task_for(launch, b, graph, scratch.name, slayout, out_seg.name)
            for b in launch.blocks
        }
        attempts = {b.index: 0 for b in launch.blocks}
        wall_by_index: dict[int, float] = {}
        pending = list(launch.blocks)
        round_no = 0
        while pending:
            executor = self._ensure_executor()
            submitted = []
            for b in pending:
                try:
                    submitted.append((b, executor.submit(_worker_run, tasks[b.index]), None))
                except Exception as e:  # noqa: BLE001 - broken pool at submit
                    submitted.append((b, None, e))
            retry: list = []
            exhausted: list[tuple] = []
            broken = False
            # Drain the whole round before raising anything: a straggler
            # worker must never keep writing into a scratch segment the
            # parent has already recycled for another launch.
            for b, fut, err in submitted:
                attempt = attempts[b.index]
                try:
                    with obs.span(
                        "exec.shard", kind=launch.kind, shard=b.index,
                        rows=b.num_rows, nnz=b.nnz, attempt=attempt,
                        worker="pid:?",
                    ) as sp:
                        if err is not None:
                            raise err
                        # Wait for the worker *first*: once result() returns
                        # the block's writes are complete, so an injected
                        # fault below can safely zero-and-retry the rows.
                        pid, worker_ms = fut.result()
                        sp.set(worker=f"pid:{pid}")
                        if injector.enabled:
                            injector.maybe_raise(
                                "exec.worker_raise", kind=launch.kind, shard=b.index
                            )
                            injector.maybe_stall(
                                "exec.shard_stall", kind=launch.kind, shard=b.index
                            )
                    wall_by_index[b.index] = worker_ms
                    metrics.histogram("exec.shard_wall_ms").observe(worker_ms)
                except Exception as e:  # noqa: BLE001 - bounded retry below
                    if isinstance(e, BrokenProcessPool):
                        broken = True
                    attempts[b.index] = attempt + 1
                    if attempts[b.index] >= self.engine.max_attempts:
                        exhausted.append((b, e))
                    else:
                        metrics.counter("resilience.retry").inc()
                        obs.event(
                            "resilience.retry", kind=launch.kind, shard=b.index,
                            attempt=attempt, error=type(e).__name__,
                        )
                        retry.append(b)
            if broken:
                self._rebuild_executor()
            if exhausted:
                b, e = exhausted[0]
                raise ShardExecutionError(
                    f"shard {b.index} ({launch.kind}) failed after "
                    f"{self.engine.max_attempts} attempts: {e}"
                ) from e
            if retry:
                if launch.op == "csr":
                    for b in retry:  # accumulating rows must restart from zero
                        out_view[b.row_start : b.row_end] = 0.0
                time.sleep(min(RETRY_BACKOFF_S * 2**round_no, RETRY_BACKOFF_MAX_S))
            pending = retry
            round_no += 1
        np.copyto(launch.out, out_view)
        return [wall_by_index[b.index] for b in launch.blocks]
