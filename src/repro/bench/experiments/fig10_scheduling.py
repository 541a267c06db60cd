"""Fig 10: Consecutive vs Round-robin thread-group scheduling (SpMM).

The paper measures *data-load* performance only (reduction excluded; it
would favor Consecutive even more), finding Consecutive slightly above
10% faster thanks to the data locality of consecutive NZEs sharing a
row.  We therefore price only the kernels' load phases here and report
the full-kernel ratio alongside.
"""

from __future__ import annotations

from repro.bench.harness import experiment
from repro.bench.report import ExperimentResult
from repro.gpusim.cost import estimate_cost
from repro.gpusim.device import A100
from repro.kernels.base import stand_in_operands
from repro.kernels.gnnone import CONSECUTIVE, ROUND_ROBIN, GnnOneConfig, GnnOneSpMM
from repro.sparse.datasets import DESIGN_SWEEP_KEYS, QUICK_KEYS, load_dataset

DIM = 32


@experiment("fig10")
def run(*, quick: bool = False) -> ExperimentResult:
    keys = QUICK_KEYS if quick else DESIGN_SWEEP_KEYS
    result = ExperimentResult(
        "fig10",
        f"SpMM NZE scheduling at dim {DIM}: Consecutive vs Round-robin",
        ["dataset", "consecutive_load_us", "round_robin_load_us", "load_speedup", "full_speedup"],
    )
    for key in keys:
        A = load_dataset(key).coo
        vals, X = stand_in_operands("spmm", A, DIM)
        times = {}
        full = {}
        for sched in (CONSECUTIVE, ROUND_ROBIN):
            kernel = GnnOneSpMM(GnnOneConfig(schedule=sched))
            res = kernel(A, vals, X, numerics=False)
            load_cost = estimate_cost(res.trace, A100, phase_kinds=("load",))
            times[sched] = load_cost.time_us
            full[sched] = res.time_us
        result.add_row(
            dataset=key,
            consecutive_load_us=times[CONSECUTIVE],
            round_robin_load_us=times[ROUND_ROBIN],
            load_speedup=times[ROUND_ROBIN] / times[CONSECUTIVE],
            full_speedup=full[ROUND_ROBIN] / full[CONSECUTIVE],
        )
    result.notes.append(
        f"geomean load-only speedup: {result.geomean('load_speedup'):.2f}x "
        "(paper: 'slightly above 10%'); including reduction favors Consecutive further: "
        f"{result.geomean('full_speedup'):.2f}x"
    )
    return result
