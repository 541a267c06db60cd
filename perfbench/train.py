"""train-gat: the Fig-6 quick configuration, trained epoch by epoch.

Full-graph GAT (2 layers, hidden 16, F=32, Adam, lr 0.01) on G14, the
Reddit-class graph (~867k edges with self loops), through
``Trainer.train_epoch``.  Epoch 0 runs on a cold plan cache; from epoch
1 every launch replays its cached plan, so SDDMM/SpMM numerics and
autograd do the work.  Features, labels and weights come from the
workload seed.

Output checks: before timing, ``core.spmm`` / ``core.sddmm`` on the
workload's graph and features must match ``kernels.base.reference_*``;
every loss must be finite and the last below epoch 0's.
"""

from __future__ import annotations

import math
import time

import numpy as np

DATASET = "G14"
FEATURES, HIDDEN, LAYERS, LR = 32, 16, 2, 0.01
#: warm epochs per pass of a traced run (untraced, then traced)
TRACED_WARM_EPOCHS = 3
MIN_WARM_EPOCHS = 3
RTOL, ATOL = 1e-10, 1e-10


def setup(seed: int) -> dict:
    from repro.nn import GraphData, synthesize
    from repro.sparse.datasets import load_dataset

    dataset = load_dataset(DATASET)
    data = synthesize(dataset, feature_length=FEATURES, seed=seed)
    graph = GraphData(dataset.coo).warm(data.features)
    return {"graph": graph, "data": data, "trainer": trainer(graph, data, seed)}


def trainer(graph, data, seed: int):
    from repro.nn import GAT, Trainer

    model = GAT(data.feature_length, HIDDEN, data.num_classes,
                num_layers=LAYERS, backend="gnnone", seed=seed)
    return Trainer(model, graph, data, lr=LR)


def kernel_failures(graph, data) -> int:
    """core.spmm / core.sddmm on the workload's inputs vs the references."""
    from repro import core
    from repro.kernels.base import reference_sddmm, reference_spmm

    X = data.features
    spmm, _ = core.spmm(graph.coo, graph.gcn_edge_values, X)
    sddmm, _ = core.sddmm(graph.coo, X, X)
    bad = not np.allclose(spmm, reference_spmm(graph.coo, graph.gcn_edge_values, X),
                          rtol=RTOL, atol=ATOL)
    bad += not np.allclose(sddmm, reference_sddmm(graph.coo, X, X), rtol=RTOL, atol=ATOL)
    # the check filled the plan cache; epoch 0 must start cold
    core.clear_plan_cache()
    return int(bad)


def loss_failures(losses: list[float]) -> int:
    bad = sum(not math.isfinite(x) for x in losses)
    return bad + (not losses or not losses[-1] < losses[0])


def sim_failures(sims: list[float]) -> int:
    """Warm epochs replay cached plans: their simulated time must repeat."""
    return sum(s != sims[1] for s in sims[2:])


def epochs(tr, seconds: float, min_warm: int, max_warm: int | None = None):
    """Epoch 0, then warm epochs until ``seconds`` have passed."""
    walls, losses, sims = [], [], []
    t0 = time.perf_counter()
    epoch = 0
    while True:
        t = time.perf_counter()
        rec = tr.train_epoch(epoch)
        walls.append(time.perf_counter() - t)
        losses.append(rec.loss)
        sims.append(rec.sim_us)
        epoch += 1
        warm = epoch - 1
        if max_warm is not None and warm >= max_warm:
            break
        if warm >= min_warm and time.perf_counter() - t0 >= seconds:
            break
    return walls, losses, sims


def first_epoch(state: dict) -> tuple[float, int]:
    """Wall seconds of epoch 0 in a fresh process (a set-up probe's
    sample) and the kernel check's failures.  The check runs first, as
    in the measured process, so every sample starts from the same state."""
    failed = kernel_failures(state["graph"], state["data"])
    t = time.perf_counter()
    state["trainer"].train_epoch(0)
    return time.perf_counter() - t, failed


def run(state: dict, seed: int, seconds: float, tracer) -> dict:
    from perfbench import common
    from perfbench.spans import percentile

    graph, data = state["graph"], state["data"]
    failed = kernel_failures(graph, data)
    if tracer is None:
        walls, losses, sims = epochs(state["trainer"], seconds, MIN_WARM_EPOCHS)
        rss = common.peak_rss_mb()
        failed += loss_failures(losses) + sim_failures(sims)
        warm = walls[1:]
        # a handful of epochs has no percentile with ten samples beyond it,
        # and the single slowest one moved 23% between runs of one code
        slowest = sorted(warm)[-max(1, len(warm) // 4):]
        return {
            "attempted": len(walls) + 2,
            "failed": failed,
            "metrics": {
                "peak_rss_mb": (rss, 1, "training process"),
                "ops_per_s": (len(warm) / sum(warm), len(warm), "warm epochs/s"),
                "op_p50_ms": (percentile(warm, 50) * 1e3, len(warm), "warm epoch"),
                "op_tail_ms": (sum(slowest) / len(slowest) * 1e3, len(slowest),
                               "mean of the slowest quarter of warm epochs"),
                "first_op_ms": (walls[0] * 1e3, 1, "epoch 0, cold plan cache"),
            },
            "notes": ["losses: " + " ".join(f"{x:.4f}" for x in losses),
                      f"simulated us per warm epoch {sims[-1]:.6f}"],
        }
    from repro import core
    from perfbench import layers

    t0 = time.perf_counter()
    _, losses0, _ = epochs(state["trainer"], 0.0, TRACED_WARM_EPOCHS, TRACED_WARM_EPOCHS)
    untraced = time.perf_counter() - t0
    core.clear_plan_cache()
    tr = trainer(graph, data, seed)
    layers.install(tracer)
    with tracer.span("bench.window"):
        t1 = time.perf_counter()
        _, losses1, _ = epochs(tr, 0.0, TRACED_WARM_EPOCHS, TRACED_WARM_EPOCHS)
        stats = core.get_plan_cache().stats()
        traced = time.perf_counter() - t1
    tracer.uninstall()
    failed += loss_failures(losses0) + loss_failures(losses1)
    return {
        "attempted": len(losses0) + len(losses1) + 2,
        "failed": failed,
        "traced_wall_s": traced,
        "trace_overhead_pct": (traced / untraced - 1.0) * 100.0,
        "plancache": {"hits": stats["plancache_hits"], "misses": stats["plancache_misses"]},
        "notes": [f"untraced {len(losses0)} epochs {untraced:.2f} s, "
                  f"traced {len(losses1)} epochs {traced:.2f} s"],
    }
