"""Layer boundaries the traced run wraps, and the per-layer metrics.

Layers are named after the program's modules: ``sparse``, ``gpusim``,
``kernels``, ``core`` (plan cache), ``exec``, ``nn``, ``serve``
(service and scheduler), ``transport`` (transport, protocol, client),
plus ``bench`` for this benchmark's own generator.  Every traced run
reports every per-layer metric; a layer a workload leaves idle reads 0,
which is itself the prediction for that workload (see README.md).
"""

from __future__ import annotations

import time
from collections import defaultdict

from perfbench.spans import Span, Tracer, fold, percentile, self_times


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the program in this process."""
    from repro.bench import harness
    from repro.core import api as core_api
    from repro.core import plancache
    from repro.exec.engine import ExecutionEngine
    from repro.gpusim import cost as gpusim_cost
    from repro.kernels import base as kbase
    from repro.nn import data as nn_data
    from repro.nn import sparse_ops
    from repro.nn.graph import GraphData
    from repro.nn.models.gat import GAT
    from repro.nn.models.gcn import GCN
    from repro.nn.optim import SGD, Adam
    from repro.nn.tensor import Tensor
    from repro.nn.trainer import Trainer
    from repro.serve import protocol
    from repro.serve.client import ServeClient
    from repro.serve.service import InferenceService, _bucket
    from repro.serve.transport import ServeTransport
    from repro.sparse import datasets

    w = tracer.wrap
    # sparse: dataset generation and the figure sweep's operands
    w(datasets, "load_dataset", "sparse.load", everywhere=True)
    w(harness, "sweep_operands", "sparse.load")
    w(harness, "time_sddmm", "harness.point")
    w(harness, "time_spmm", "harness.point")

    # kernels: one span per launch; a launch that misses the plan cache
    # runs execute (trace + numerics) and estimate_cost under it
    def miss_count(args, kwargs):
        return plancache.get_plan_cache().misses

    def launch_attrs(args, kwargs, result, out, misses_before):
        out["kind"] = args[0].kind
        out["hit"] = plancache.get_plan_cache().misses == misses_before
        if result is not None:
            out["sim_us"] = float(result.cost.time_us)
            out["dram_bytes"] = float(result.cost.dram_bytes)

    for abc in (kbase.SpMMKernel, kbase.SDDMMKernel, kbase.SpMVKernel):
        w(abc, "__call__", "kernels.call", pre=miss_count, attrs=launch_attrs)
        for cls in _subclasses(abc):
            if "execute" in cls.__dict__:
                w(cls, "execute", "gpusim.execute")
    w(gpusim_cost, "estimate_cost", "gpusim.cost", everywhere=True)
    for fn in ("reference_spmm", "reference_sddmm", "reference_spmv"):
        w(kbase, fn, "kernels.reference", everywhere=True)

    # exec: the numerics of every launch
    def sddmm_bytes(args, kwargs, result, out, state):
        A, X = args[1], args[2]
        # computed, not measured: gather X[row] and Y[col] (F float64
        # each), read two int64 indices, write one float64 per edge
        out["bytes"] = float(A.nnz) * (16.0 * X.shape[1] + 24.0)

    w(ExecutionEngine, "spmm", "exec.spmm")
    w(ExecutionEngine, "sddmm", "exec.sddmm", attrs=sddmm_bytes)
    w(ExecutionEngine, "spmv", "exec.spmv")
    w(ExecutionEngine, "gat_alpha", "exec.gat_alpha")

    # core: the public kernel API
    w(core_api, "spmm", "core.spmm", everywhere=True)
    w(core_api, "sddmm", "core.sddmm", everywhere=True)

    # nn: set-up, training steps and the autograd sparse ops
    w(nn_data, "synthesize", "nn.setup", everywhere=True)
    w(GraphData, "warm", "nn.setup")
    w(Trainer, "train_epoch", "nn.epoch")
    w(Trainer, "evaluate", "nn.eval")
    w(GAT, "forward", "nn.forward")
    w(GCN, "forward", "nn.forward")
    w(Tensor, "backward", "nn.backward")
    w(Adam, "step", "nn.optim")
    w(SGD, "step", "nn.optim")
    for fn in ("spmm", "sddmm", "edge_softmax", "u_add_v"):
        w(sparse_ops, fn, f"nn.{fn}", everywhere=True)

    # serve: admission to response, fused batches, predict forwards
    def batch_attrs(args, kwargs, result, out, state):
        _self, kind, _tenant, requests = args[:4]
        out["kind"] = kind
        out["n"] = len(requests)
        if kind == "propagate":
            useful = sum(int(r.payload.shape[1]) for r in requests)
            out["useful_cols"] = useful
            out["launched_cols"] = _bucket(useful)

    def batch_start(args, kwargs):
        now = time.perf_counter()
        for req in args[3]:
            tracer.samples["serve.queue_wait_ms"].append((now - req.t_admit_p) * 1e3)

    w(InferenceService, "submit_nowait", "serve.service", future=True)
    w(InferenceService, "_run_group", "serve.batch", pre=batch_start, attrs=batch_attrs)
    w(InferenceService, "_forward", "serve.forward")

    # transport: server dispatch, client round trips, wire encoding
    w(ServeTransport, "_handle_request", "transport.handle",
      rid=lambda args, kwargs: args[2].get("id"))

    def rpc_rid(args, kwargs, result, out, state):
        out["rid"] = args[1].get("id")

    w(ServeClient, "_call", "transport.rpc", attrs=rpc_rid)
    w(protocol, "encode_frame", "protocol.encode", everywhere=True)
    w(protocol, "array_header", "protocol.encode", everywhere=True)
    w(protocol, "decode_payload", "protocol.decode", everywhere=True)


def _subclasses(cls: type) -> list[type]:
    out, todo = [], list(cls.__subclasses__())
    while todo:
        sub = todo.pop()
        out.append(sub)
        todo.extend(sub.__subclasses__())
    return out


def layer_metrics(
    spans: list[Span],
    samples: dict[str, list[float]],
    *,
    wall_s: float,
    plancache: dict[str, int],
    serve_stats: dict[str, int],
    trace_overhead_pct: float,
) -> dict[str, tuple[float, int]]:
    """Per-layer metric name -> (value, sample count).

    ``wall_s`` is the traced timed window; ``plancache`` holds the plan
    cache's hit/miss deltas over it (summed over processes);
    ``serve_stats`` the server's shed/timeout/retry counter deltas.
    """
    rows = {r.name: r for r in fold(spans, wall_s)}
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def busy(name):
        row = rows.get(name)
        return (row.busy_s, row.count) if row else (0.0, 0)

    def count(name):
        return float(len(by_name[name])), len(by_name[name])

    def pct(values, q, scale=1.0):
        return percentile(values, q) * scale, len(values)

    launches = by_name["kernels.call"]
    cold = [s.duration for s in launches if not s.attrs.get("hit")]
    warm_self = [selfs[s.id] for s in launches if s.attrs.get("hit")]
    lookups = plancache["hits"] + plancache["misses"]
    sddmm = by_name["exec.sddmm"]
    sddmm_busy = sum(s.duration for s in sddmm)
    batches = by_name["serve.batch"]
    prop = [s for s in batches if s.attrs.get("kind") == "propagate"]
    launched_cols = sum(s.attrs["launched_cols"] for s in prop)
    service = {s.rid: s.duration for s in by_name["serve.service"] if s.rid is not None}
    rpc = by_name["transport.rpc"]
    paired = [s.duration - service[s.rid] for s in rpc if s.rid in service]
    if paired:
        overhead = pct(paired, 50, 1e3)
    else:
        overhead = (max(0.0, percentile([s.duration for s in rpc], 50)
                        - percentile(list(service.values()), 50)) * 1e3, len(rpc))
    lags = samples.get("bench.gen_lag_ms", [])
    window_self = [selfs[s.id] for s in by_name["bench.window"]]

    m: dict[str, tuple[float, int]] = {
        "sparse.load_s": busy("sparse.load"),
        "nn.setup_s": busy("nn.setup"),
        "kernels.launches": count("kernels.call"),
        "kernels.cold_launches": (float(len(cold)), len(launches)),
        "core.plancache.hit_ratio": (plancache["hits"] / lookups if lookups else 0.0, lookups),
        "kernels.cold_launch_p50_ms": pct(cold, 50, 1e3),
        "kernels.cold_launch_p99_ms": pct(cold, 99, 1e3),
        "kernels.warm_dispatch_us": pct(warm_self, 50, 1e6),
        "gpusim.trace_s": (sum(selfs[s.id] for s in by_name["gpusim.execute"]),
                           len(by_name["gpusim.execute"])),
        "gpusim.cost_s": busy("gpusim.cost"),
        "gpusim.sim_us": (sum(s.attrs.get("sim_us", 0.0) for s in launches), len(launches)),
        "gpusim.dram_mb": (sum(s.attrs.get("dram_bytes", 0.0) for s in launches) / 1e6,
                           len(launches)),
        "exec.sddmm_gbps": (sum(s.attrs["bytes"] for s in sddmm) / sddmm_busy / 1e9
                            if sddmm_busy > 0 else 0.0, len(sddmm)),
        "kernels.reference_s": busy("kernels.reference"),
        "serve.service_p50_ms": pct([s.duration for s in by_name["serve.service"]], 50, 1e3),
        "serve.service_p99_ms": pct([s.duration for s in by_name["serve.service"]], 99, 1e3),
        "serve.launch_ms": pct([s.duration for s in by_name["core.spmm"]], 50, 1e3),
        "serve.launches": count("serve.batch"),
        "serve.forward_ms": pct([s.duration for s in by_name["serve.forward"]], 50, 1e3),
        "serve.queue_wait_ms": pct(samples.get("serve.queue_wait_ms", []), 50),
        "serve.occupancy": (sum(s.attrs["n"] for s in batches) / len(batches)
                            if batches else 0.0, len(batches)),
        "serve.pad_ratio": (sum(s.attrs["useful_cols"] for s in prop) / launched_cols
                            if launched_cols else 0.0, len(prop)),
        "serve.shed": (float(serve_stats.get("shed", 0)), 1),
        "serve.timeouts": (float(serve_stats.get("timeouts", 0)), 1),
        "serve.retries": (float(serve_stats.get("retries", 0)), 1),
        "transport.rpc_p50_ms": pct([s.duration for s in rpc], 50, 1e3),
        "transport.rpc_p99_ms": pct([s.duration for s in rpc], 99, 1e3),
        "transport.overhead_ms": overhead,
        "protocol.encode_us": pct([s.duration for s in by_name["protocol.encode"]], 50, 1e6),
        "protocol.decode_us": pct([s.duration for s in by_name["protocol.decode"]], 50, 1e6),
        "bench.gen_lag_p50_ms": pct(lags, 50),
        "bench.gen_lag_p99_ms": pct(lags, 99),
        "unattributed_s": (sum(window_self), len(window_self)),
        "trace_overhead_pct": (trace_overhead_pct, 1),
    }
    for kind in ("spmm", "sddmm", "spmv", "gat_alpha"):
        m[f"exec.{kind}_s"] = busy(f"exec.{kind}")
        m[f"exec.{kind}_calls"] = count(f"exec.{kind}")
    for name in ("forward", "backward", "optim", "eval", "sddmm", "spmm",
                 "edge_softmax", "u_add_v"):
        m[f"nn.{name}_s"] = busy(f"nn.{name}")
    return m
