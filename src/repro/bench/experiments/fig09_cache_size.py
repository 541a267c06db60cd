"""Fig 9: Stage-1 cache size — 128 NZEs per warp vs 32 (SpMM, dim 16).

Caching 128 lets every thread issue 4 loads per array before the
shared-memory barrier, amortizing it 4x (paper: 1.31x speedup).
"""

from __future__ import annotations

from repro.bench.harness import experiment
from repro.bench.report import ExperimentResult
from repro.kernels.base import stand_in_operands
from repro.kernels.gnnone import GnnOneConfig, GnnOneSpMM
from repro.sparse.datasets import DESIGN_SWEEP_KEYS, QUICK_KEYS, load_dataset

DIM = 16


@experiment("fig09")
def run(*, quick: bool = False) -> ExperimentResult:
    keys = QUICK_KEYS if quick else DESIGN_SWEEP_KEYS
    result = ExperimentResult(
        "fig09",
        f"SpMM Stage-1 CACHE_SIZE at dim {DIM}: 32 vs 128 NZEs per warp",
        ["dataset", "cache32_us", "cache128_us", "speedup"],
    )
    k32 = GnnOneSpMM(GnnOneConfig(cache_size=32))
    k128 = GnnOneSpMM(GnnOneConfig(cache_size=128))
    for key in keys:
        A = load_dataset(key).coo
        vals, X = stand_in_operands("spmm", A, DIM)
        t32 = k32(A, vals, X, numerics=False).time_us
        t128 = k128(A, vals, X, numerics=False).time_us
        result.add_row(dataset=key, cache32_us=t32, cache128_us=t128, speedup=t32 / t128)
    result.notes.append(
        f"geomean speedup of 128 over 32: {result.geomean('speedup'):.2f}x (paper 1.31x)"
    )
    return result
