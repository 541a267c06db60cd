"""figures-cold: regenerate the Fig-3 (SDDMM) and Fig-4 (SpMM) quick grids.

Runs in a fresh process, as a reproduction user's
``python -m repro.bench fig03 --quick`` does: GNNOne and every baseline
of each figure on G3/G6/G14 at the figure feature lengths, each launch
through ``repro.bench.harness.time_sddmm`` / ``time_spmm`` with the
workload seed as operand seed.  The plan cache starts empty, so every
launch is cold: trace, cost model and baseline numerics do the work.

Output checks: the simulated-µs table must equal ``expected_sim.json``
(recorded from the program; simulated time depends only on topology,
kernel and feature length, never on the operand seed), and every GNNOne
output must match ``kernels.base.reference_*``.  GNNOne's ``execute``
computes its output with the same ``compute`` a warm launch runs, so
the output check launches warm, after the timed sweep.

``python3 -m perfbench.figures`` re-records ``expected_sim.json``.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np

EXPECTED = Path(__file__).resolve().parent / "expected_sim.json"
#: float64 outputs: the SDDMM reference sums features in another order
RTOL, ATOL = 1e-10, 1e-10


def grid():
    """(kind, harness function name, kernels, dataset keys, dims) per figure."""
    from repro.bench.experiments import fig03_sddmm, fig04_spmm
    from repro.bench.harness import FEATURE_LENGTHS
    from repro.sparse.datasets import QUICK_KEYS

    return [
        ("sddmm", "time_sddmm", ("gnnone", *fig03_sddmm.BASELINES), QUICK_KEYS, FEATURE_LENGTHS),
        ("spmm", "time_spmm", ("gnnone", *fig04_spmm.BASELINES), QUICK_KEYS, FEATURE_LENGTHS),
    ]


def setup() -> None:
    from repro.exec import get_engine
    from repro.sparse.datasets import QUICK_KEYS, load_dataset

    for key in QUICK_KEYS:
        load_dataset(key)
    get_engine()


def sweep(seed: int) -> tuple[list[float], dict[str, float | None], list[float]]:
    """One cold pass over both figure grids, in the figures' own order.

    Returns per-launch wall seconds, the simulated-µs table and the
    wall seconds of each figure.
    """
    from repro import core
    from repro.bench import harness

    core.clear_plan_cache()
    launches, table, figure_walls = [], {}, []
    for kind, fn_name, kernels, keys, dims in grid():
        fn = getattr(harness, fn_name)  # looked up late: the traced run wraps it
        t_fig = time.perf_counter()
        for key in keys:
            for dim in dims:
                for kernel in kernels:
                    t0 = time.perf_counter()
                    table[f"{kind}/{kernel}/{key}/{dim}"] = fn(kernel, key, dim, seed=seed)
                    launches.append(time.perf_counter() - t0)
        figure_walls.append(time.perf_counter() - t_fig)
    return launches, table, figure_walls


def table_failures(table: dict[str, float | None], expected: dict) -> int:
    """Launches whose simulated µs (or OOM/launch-error outcome) differs,
    plus recorded launches the sweep no longer makes."""
    bad = len(set(expected) - set(table))
    for key, got in table.items():
        want = expected.get(key, "missing")
        if got is None or want is None:
            bad += got is not want
        elif not isinstance(want, float) or not math.isclose(got, want, rel_tol=1e-9):
            bad += 1
    return bad


def output_failures(seed: int, table: dict[str, float | None]) -> int:
    """GNNOne outputs that differ from the reference numerics."""
    from repro.bench.harness import sweep_operands
    from repro.kernels.base import reference_sddmm, reference_spmm
    from repro.kernels.gnnone import GnnOneSDDMM, GnnOneSpMM

    bad = 0
    for kind, _fn, _kernels, keys, dims in grid():
        for key in keys:
            for dim in dims:
                if table.get(f"{kind}/gnnone/{key}/{dim}") is None:
                    continue
                A, vals, X_cols, X_rows = sweep_operands(key, dim, seed)
                if kind == "spmm":
                    got = GnnOneSpMM()(A, vals, X_cols).output
                    want = reference_spmm(A, vals, X_cols)
                else:
                    got = GnnOneSDDMM()(A, X_rows, X_cols).output
                    want = reference_sddmm(A, X_rows, X_cols)
                bad += not np.allclose(got, want, rtol=RTOL, atol=ATOL)
    return bad


def load_expected() -> dict:
    with open(EXPECTED) as fh:
        return json.load(fh)


def gnnone_sim_us(table: dict[str, float | None]) -> float:
    return sum(v for k, v in table.items() if "/gnnone/" in k and v is not None)


def run(seed: int, seconds: float, tracer) -> dict:
    """Cold sweeps for ``seconds`` (whole sweeps, at least one).

    Traced: one untraced sweep, then one traced sweep; their wall times
    give the tracing overhead.
    """
    from perfbench import common
    from perfbench.spans import percentile

    expected = load_expected()
    if tracer is None:
        launches, tables, first_fig = [], [], None
        t0 = time.perf_counter()
        while True:
            lat, table, walls = sweep(seed)
            launches += lat
            tables.append(table)
            first_fig = walls[0] if first_fig is None else first_fig
            elapsed = time.perf_counter() - t0
            if elapsed + elapsed / len(tables) > seconds:
                break
        rss = common.peak_rss_mb()
        failed = sum(table_failures(t, expected) for t in tables)
        failed += output_failures(seed, tables[0])
        n = len(launches)
        # The grid's launches are a fixed, heterogeneous set: a percentile
        # falls between clusters of launch sizes and jumps run to run, so
        # the tail is the mean of the slowest tenth.
        slowest = sorted(launches)[-max(1, n // 10):]
        return {
            "attempted": n,
            "failed": failed,
            "metrics": {
                "peak_rss_mb": (rss, 1, "sweep process"),
                "ops_per_s": (n / sum(launches), n, f"cold launches/s over {len(tables)} sweep(s)"),
                "op_p50_ms": (percentile(launches, 50) * 1e3, n, "cold launch"),
                "op_tail_ms": (sum(slowest) / len(slowest) * 1e3, len(slowest),
                               "mean of the slowest tenth of cold launches"),
                "first_op_ms": (first_fig * 1e3, 1, "first figure (Fig-3 quick grid)"),
            },
            "notes": [f"sweeps: {len(tables)} x {len(tables[0])} launches, {elapsed:.2f} s; "
                      f"simulated GNNOne us over both grids {gnnone_sim_us(tables[0]):.6f}"],
        }
    from perfbench import layers

    t0 = time.perf_counter()
    _, table0, _ = sweep(seed)
    untraced = time.perf_counter() - t0
    layers.install(tracer)
    from repro import core

    with tracer.span("bench.window"):
        t1 = time.perf_counter()
        lat, table1, _ = sweep(seed)
        # sweep() cleared the cache at its start, so its stats are this pass's
        stats = core.get_plan_cache().stats()
        traced = time.perf_counter() - t1
    tracer.uninstall()
    failed = table_failures(table0, expected) + table_failures(table1, expected)
    failed += output_failures(seed, table1)
    return {
        "attempted": 2 * len(table1),
        "failed": failed,
        "traced_wall_s": traced,
        "trace_overhead_pct": (traced / untraced - 1.0) * 100.0,
        "plancache": {"hits": stats["plancache_hits"], "misses": stats["plancache_misses"]},
        "notes": [f"untraced sweep {untraced:.2f} s, traced sweep {traced:.2f} s"],
    }


if __name__ == "__main__":
    import sys

    from perfbench import common

    common.strip_program_env()
    common.use_program()
    setup()
    _, recorded, _ = sweep(seed=0)
    with open(EXPECTED, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(recorded)} launches to {EXPECTED}", file=sys.stderr)
