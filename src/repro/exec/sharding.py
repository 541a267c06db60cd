"""Row-block sharding of a CSR-ordered COO for host-parallel numerics.

The paper argues SpMM/SDDMM should execute as balanced fixed-size units
of work; GE-SpMM's row-split decomposition shows the same kernels cut
cleanly along the row dimension.  This module is the host-side
analogue: :func:`row_shard_plan` slices the CSR row space into
``n_workers`` NNZ-balanced row blocks, each a *zero-copy view* of the
memoized CSR structural arrays — an ``indptr`` slice (absolute values,
so the block indexes the shared ``cols``/``vals`` arrays directly) plus
the block's row and NZE extents.

Because row blocks never share an output row, block-parallel SpMM and
SpMV need no atomics and produce bit-identical results to the serial
sweep; SDDMM's per-edge outputs make any contiguous NZE split safe.

Shard plans are value-independent (pure topology), so they memoize in
the structural plan cache (:mod:`repro.core.plancache`) alongside the
existing cost/trace entries, keyed on
``("", structure_token, "exec.row-shard", "shard", n_workers, None)``
(the leading namespace slot stays the shared default: topology-only
plans are safely shared across serve tenants).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.sparse.coo import COOMatrix
from repro.sparse.partition import nnz_balanced_row_blocks


@dataclass(frozen=True)
class RowBlock:
    """One worker's slice of the row space (zero-copy CSR view)."""

    index: int
    row_start: int
    row_end: int
    nnz_start: int
    nnz_end: int

    @property
    def num_rows(self) -> int:
        return self.row_end - self.row_start

    @property
    def nnz(self) -> int:
        return self.nnz_end - self.nnz_start


@dataclass(frozen=True)
class ShardPlan:
    """NNZ-balanced row blocks covering ``[0, num_rows)`` disjointly."""

    n_workers: int
    #: row boundaries, length ``n_blocks + 1``, non-decreasing
    row_starts: np.ndarray
    #: NZE boundaries (``indptr[row_starts]``), length ``n_blocks + 1``
    nnz_starts: np.ndarray

    @property
    def n_blocks(self) -> int:
        return len(self.row_starts) - 1

    @property
    def total_nnz(self) -> int:
        return int(self.nnz_starts[-1] - self.nnz_starts[0])

    def block_nnz(self) -> np.ndarray:
        return np.diff(self.nnz_starts)

    @property
    def imbalance(self) -> float:
        """Largest block's NZE share over the ideal equal share (>= 1)."""
        sizes = self.block_nnz()
        if sizes.size == 0 or self.total_nnz == 0:
            return 1.0
        ideal = self.total_nnz / len(sizes)
        return float(sizes.max() / ideal)

    def blocks(self) -> Iterator[RowBlock]:
        for i in range(self.n_blocks):
            yield RowBlock(
                index=i,
                row_start=int(self.row_starts[i]),
                row_end=int(self.row_starts[i + 1]),
                nnz_start=int(self.nnz_starts[i]),
                nnz_end=int(self.nnz_starts[i + 1]),
            )

    def nonempty_blocks(self) -> list[RowBlock]:
        """Blocks that own at least one NZE (empty ones have no work)."""
        return [b for b in self.blocks() if b.nnz > 0]


def build_row_shard_plan(A: COOMatrix, n_workers: int) -> ShardPlan:
    """Cut ``A``'s CSR row space into ``n_workers`` NNZ-balanced blocks."""
    indptr, _, _ = A.csr_arrays()
    row_starts = nnz_balanced_row_blocks(indptr, n_workers)
    nnz_starts = np.asarray(indptr, dtype=np.int64)[row_starts]
    return ShardPlan(n_workers=n_workers, row_starts=row_starts, nnz_starts=nnz_starts)


def plan_is_valid(plan: ShardPlan, A: COOMatrix) -> bool:
    """Does the plan still describe a disjoint cover of ``A``'s rows?

    Cheap (the boundary arrays have ~``n_workers`` entries), so every
    cache hit is re-checked before the engine trusts a plan with
    disjoint-slice writes into a shared output buffer — a corrupted
    boundary would silently double-accumulate or drop rows.
    """
    rs, ns = plan.row_starts, plan.nnz_starts
    if len(rs) < 2 or len(ns) != len(rs):
        return False
    if rs[0] != 0 or rs[-1] != A.num_rows:
        return False
    if np.any(np.diff(rs) < 0) or np.any(np.diff(ns) < 0):
        return False
    if ns[0] != 0 or ns[-1] != A.nnz:
        return False
    indptr, _, _ = A.csr_arrays()
    return bool(np.array_equal(np.asarray(indptr, dtype=np.int64)[rs], ns))


def _shard_key(A: COOMatrix, n_workers: int):
    # Same 6-tuple shape as plancache.PlanKey; the device slot is unused
    # (host-side sharding) and the kind tag keeps shard plans from ever
    # colliding with cost/trace entries.  The namespace slot is pinned to
    # the shared default ("") rather than the caller's tenant namespace:
    # a shard plan is pure topology, so serve tenants can safely share
    # one entry per (structure, workers) instead of duplicating it.
    return ("", A.structure_token, "exec.row-shard", "shard", int(n_workers), None)


def row_shard_plan(A: COOMatrix, n_workers: int) -> ShardPlan:
    """Memoized shard plan: consults the structural plan cache first.

    Cached plans are re-validated against the topology before use; a
    corrupted plan (bit-rot, or the fault injector's
    ``shard.plan_corrupt`` site) is invalidated and rebuilt from the
    CSR view, so a poisoned cache can never mis-shard a launch.
    """
    from repro.core import plancache  # lazy: avoids package import cycle
    from repro.resilience import faults

    if not plancache.plan_cache_enabled():
        return build_row_shard_plan(A, n_workers)
    cache = plancache.get_plan_cache()
    key = _shard_key(A, n_workers)
    hit = cache.lookup(key)
    if hit is not None:
        injector = faults.get_injector()
        if (
            injector.enabled
            and len(hit.row_starts) > 2
            and injector.fire("shard.plan_corrupt", n_workers=n_workers)
        ):
            # Simulated bit-rot: shift an interior boundary out of place.
            hit.row_starts[1] = hit.row_starts[-1] + 1
        if plan_is_valid(hit, A):
            return hit
        cache.invalidate(key)
    plan = build_row_shard_plan(A, n_workers)
    cache.store(key, plan)
    return plan


def edge_range_bounds(nnz: int, n_workers: int) -> np.ndarray:
    """Equal contiguous NZE ranges (for SDDMM on unsorted edge order).

    SDDMM output is per-edge, so *any* disjoint edge split is safe; when
    the COO is not CSR-ordered the row blocks of the sorted view do not
    map to the caller's edge order, and a plain range split preserves
    bit-identity with the serial blocked feature-ascending dot.
    """
    n = max(1, int(n_workers))
    return (np.arange(n + 1, dtype=np.int64) * nnz) // n
