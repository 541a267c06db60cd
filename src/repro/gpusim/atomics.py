"""Atomic-operation contention model.

GNNOne's SpMM writes each thread group's running reduction to the output
with ``atomicAdd`` at every row split (Section 4.3).  The cost of an
atomic depends on how many concurrent atomics collide on the same
address: this module estimates the mean collision degree from the actual
target-row multiset, which the cost model converts into serialization
cycles.
"""

from __future__ import annotations

import numpy as np


def conflict_degree(target_rows: np.ndarray, window: int = 256) -> float:
    """Mean number of concurrent atomics hitting the same output row.

    Atomics issued close together in the schedule contend; we model the
    in-flight window as ``window`` consecutive atomic operations and
    average the per-row collision count inside each window.  Returns 1.0
    for conflict-free streams (all distinct rows) and grows toward the
    window size for a single hot row (e.g. a celebrity vertex in a
    power-law graph).
    """
    rows = np.asarray(target_rows, dtype=np.int64).ravel()
    n = rows.size
    if n == 0:
        return 1.0
    # One sort of the (window, row) key finds every window's collision
    # groups at once; runs of equal keys are the groups.  Each atomic in
    # a group of size c waits behind c-1 others on average /2, but we
    # report the raw mean group size sum(c*c) / sum(c) per window; the
    # cost model applies its own per-extra-colliding-op charge.
    lo = rows.min()
    span = rows.max() - lo + 1
    keys = np.sort(np.arange(n, dtype=np.int64) // window * span + (rows - lo))
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    counts = np.diff(np.r_[starts, n])
    group_win = keys[starts] // span
    win_starts = np.flatnonzero(np.r_[True, group_win[1:] != group_win[:-1]])
    degrees = np.add.reduceat(counts * counts, win_starts) / np.add.reduceat(
        counts, win_starts
    )
    return float(degrees.mean())


def atomics_per_warp(
    group_rows: np.ndarray, group_warp_ids: np.ndarray, n_warps: int
) -> np.ndarray:
    """Count atomic writes per warp given each group's emitted rows.

    ``group_rows``/``group_warp_ids`` list one entry per (thread-group,
    row-segment) pair — i.e. per atomicAdd actually issued.
    """
    return np.bincount(
        np.asarray(group_warp_ids, dtype=np.int64), minlength=n_warps
    ).astype(np.float64)
