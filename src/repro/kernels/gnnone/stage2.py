"""Stage 2 of the unified data load: vertex-feature fetch (Section 4.2).

Thread groups walk their assigned slice of cached NZEs in lockstep; each
thread issues vector loads (``float4`` when aligned) for its share of
the feature row, keeping memory coalescing at thread-group granularity
while multiplying the loads in flight before the reduction's memory
barrier (SDDMM) — the paper's central ILP argument.

Counters are exact per warp, computed from the real index arrays:

* column-feature loads never dedupe (every NZE needs its column's row);
* row-feature loads in SDDMM occur once per *segment* when row reuse is
  enabled — the Consecutive policy makes segments long, Round-robin
  shatters them (Fig 10);
* sector counts use the coalesced row-read closed form (the scheduler
  never breaks coalescing thanks to vector loads, Section 4.2.1).
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.gpusim.memory import feature_row_sectors, sorted_distinct
from repro.gpusim.trace import KernelTrace
from repro.kernels.gnnone.scheduler import SchedulePlan
from repro.kernels.gnnone.stage1 import Stage1Plan


def _warp_feature_sectors(
    count_per_warp: np.ndarray, feature_length: int
) -> np.ndarray:
    return count_per_warp * feature_row_sectors(feature_length * 4)


def record_stage2_spmm(
    trace: KernelTrace,
    s1: Stage1Plan,
    sched: SchedulePlan,
    feature_length: int,
    device: DeviceSpec,
    *,
    cols: np.ndarray | None = None,
) -> None:
    """SpMM Stage 2: load column features, FMA into running accumulators.

    No inter-thread communication happens between NZEs (the running
    reduction is thread-local), so loads across steps are independent:
    ILP is bounded only by the hardware's outstanding-load limit.  The
    edge value and NZE ids come from shared memory (cheap); without the
    Stage-1 cache (ablation) they are re-read from global memory here.

    Data locality (the Fig-10 effect): under the Consecutive policy a
    thread group sweeps NZEs of the same (and adjacent) rows, whose
    column sets overlap in community-structured graphs, so a column
    feature row it just loaded is often re-requested while still cache
    resident — measured below as duplicate columns within a slice.  The
    Round-robin policy interleaves the groups across the whole cache
    line, evicting before reuse (no dedupe credit).
    """
    shape = sched.shape
    steps = sched.steps_per_warp(s1.chunks.chunk_sizes.astype(np.float64))
    col_loads = steps * shape.loads_per_thread
    nze_per_warp = s1.chunks.chunk_sizes.astype(np.float64)
    if cols is not None and sched.consecutive and len(cols):
        stride = int(cols.max()) + 1
        combined = sched.slice_of_nze * stride + cols.astype(np.int64)
        uniq_slices = sorted_distinct(combined) // stride
        groups = shape.groups_per_warp
        distinct = np.bincount(
            (uniq_slices // groups).astype(np.int64), minlength=sched.n_warps
        ).astype(np.float64)
        sectors = _warp_feature_sectors(distinct, feature_length)
    else:
        sectors = _warp_feature_sectors(nze_per_warp, feature_length)

    extra_loads = np.zeros_like(col_loads)
    extra_sectors = np.zeros_like(sectors)
    if not s1.smem_bytes_per_warp:
        # Ablated cache: every thread re-reads the NZE ids + edge value
        # from global memory at each step (uncoalesced broadcast reads).
        extra_loads = steps * s1.n_arrays
        extra_sectors = nze_per_warp * s1.n_arrays  # one sector per scalar
    trace.add_phase(
        "stage2_feature_load",
        "load",
        load_instrs=col_loads + extra_loads,
        ilp=float(device.max_outstanding_loads),
        sectors=sectors + extra_sectors,
        flops=nze_per_warp * 2.0 * feature_length,  # val*feat FMA per NZE
    )


def record_stage2_sddmm(
    trace: KernelTrace,
    s1: Stage1Plan,
    sched: SchedulePlan,
    feature_length: int,
    device: DeviceSpec,
    *,
    row_reuse: bool,
) -> None:
    """SDDMM Stage 2: load row+column features, dot-product per NZE.

    The per-NZE tree reduction (recorded by the reduction module) imposes
    a memory barrier, so only the loads belonging to one NZE step can be
    in flight together: ILP = (row load + col load) x loads_per_thread —
    exactly the quantity ``float4`` quadruples versus scalar
    feature-parallel designs.
    """
    shape = sched.shape
    steps = sched.steps_per_warp(s1.chunks.chunk_sizes.astype(np.float64))
    nze_per_warp = s1.chunks.chunk_sizes.astype(np.float64)

    col_loads = steps * shape.loads_per_thread
    col_sectors = _warp_feature_sectors(nze_per_warp, feature_length)

    if row_reuse:
        segments = sched.segments_per_warp().astype(np.float64)
        row_loads = np.ceil(segments / shape.groups_per_warp) * shape.loads_per_thread
        row_sectors = _warp_feature_sectors(segments, feature_length)
    else:
        row_loads = col_loads
        row_sectors = col_sectors.copy()

    extra_loads = np.zeros_like(col_loads)
    extra_sectors = np.zeros_like(col_sectors)
    if not s1.smem_bytes_per_warp:
        extra_loads = steps * s1.n_arrays
        extra_sectors = nze_per_warp * s1.n_arrays

    # Independent loads in flight before the reduction barrier: the row
    # and column vector loads of the NZEs processed in one step.
    ilp = min(2.0 * shape.loads_per_thread, device.max_outstanding_loads)
    trace.add_phase(
        "stage2_feature_load",
        "load",
        load_instrs=col_loads + row_loads + extra_loads,
        ilp=ilp,
        sectors=col_sectors + row_sectors + extra_sectors,
        flops=nze_per_warp * 2.0 * feature_length,  # the dot products
    )
