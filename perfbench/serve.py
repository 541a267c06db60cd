"""serve-tcp: ``InferenceService`` behind ``ServeTransport``, driven over TCP.

The server (GCN model and features over G0, Cora-class, ~10.8k edges)
runs in a child process; this process is the single load generator,
with one ``ServeClient`` connection.  Traffic is 80% ``propagate`` (one
|V| column) and 20% ``predict`` (2-4 node ids), drawn from seeded
pools.  Three phases share the run's seconds:

(a) one request outstanding at a time (45%) - the latency figures;
(b) closed loop, 32 requests outstanding (30%) - the capacity figure;
    (a) and (b) alternate in ``ROUNDS`` slices, so that each figure
    averages the host's speed over the whole run;
(c) open-loop Poisson arrivals at ``inputs.OPEN_LOOP_RPS`` (25%),
    each request timed from its due time, with the generator's own
    lateness reported and a phase where it fell behind flagged.  Its
    latencies are printed but not bounded: on a 2-CPU virtual machine
    their run-to-run spread was several times any usable bound.

The kernels are tiny, so the per-request path dominates: protocol,
socket, scheduler, batching and launch dispatch.

Output checks: every response must equal the serial ``core.spmm`` of
its column (propagate) or the rows of a standalone model forward
(predict), both computed here before the timed phases.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import os
import statistics
import sys
import threading
import time

import numpy as np

from perfbench import common, inputs
from perfbench.spans import percentile

DATASET = "G0"
FEATURES, HIDDEN = 16, 16
#: share of the run's seconds for phases (a), (b), (c)
PHASE_SHARES = (0.45, 0.3, 0.25)
#: a phase (c) whose generator sent its p99 request later than this
#: behind schedule did not deliver the intended arrival process
GEN_LAG_LIMIT_MS = 5.0
#: fresh servers per untraced run: the set-up samples
SERVER_STARTS = 5
#: phases (a) and (b) run in this many alternating slices, each round
#: led by first requests of new tenants.  The
#: host's speed swings by a third from one second to the next; a figure
#: taken from one stretch of the run follows those swings, one gathered
#: across the run averages them.
ROUNDS = 10
FIRSTS_PER_ROUND = 5
#: tenant names never used before on this run's server
_NEW_TENANTS = (f"tenant-{i}" for i in itertools.count())


def build(seed: int):
    """Graph, model and features; identical in the server and generator."""
    from repro.nn import GCN, GraphData, synthesize
    from repro.sparse.datasets import load_dataset

    dataset = load_dataset(DATASET)
    data = synthesize(dataset, feature_length=FEATURES, seed=seed)
    graph = GraphData(dataset.coo).warm(data.features)
    model = GCN(data.feature_length, HIDDEN, data.num_classes, seed=seed)
    return graph, model, data.features


# ---------------------------------------------------------------- server


def pin(cpu: int) -> list[int]:
    """Pin this process to ``cpu``; returns the CPUs it now runs on."""
    os.sched_setaffinity(0, {cpu})
    return sorted(os.sched_getaffinity(0))


def server_main(seed: int, cpu: int, tracer) -> int:
    """Child process: serve until stdin closes; answer stdin commands.

    ``trace`` installs the layer wrappers; ``dump <path>`` writes the
    spans; end of input shuts down gracefully and prints ``RESULT``.
    """
    from perfbench import layers
    from repro import core
    from repro.serve import InferenceService
    from repro.serve.transport import ServeTransport

    cpus = pin(cpu)
    if tracer is not None:
        layers.install(tracer)  # set-up spans only; "trace" re-installs
    graph, model, features = build(seed)
    if tracer is not None:
        tracer.uninstall()
    service = InferenceService(graph, model=model, features=features)
    loop = asyncio.new_event_loop()
    transport = ServeTransport(service, port=0)
    loop.run_until_complete(transport.start())

    def counters() -> dict:
        stats = service.stats
        pc = core.get_plan_cache()
        return {"requests": stats.requests, "shed": stats.shed + stats.deadline_shed
                + stats.breaker_fastfail, "timeouts": stats.timeouts,
                "retries": stats.retries, "hits": pc.hits, "misses": pc.misses,
                "batches": stats.batches}

    base: dict = {}

    def command(line: str) -> tuple[str, dict]:
        if line == "trace":
            base.update(counters())
            layers.install(tracer)
            return "TRACING", {}
        if line.startswith("dump "):
            tracer.uninstall()
            tracer.dump(line[5:])
            now = counters()
            return "DUMPED", {k: now[k] - base.get(k, 0) for k in now}
        return "ERROR", {"unknown": line}

    def stdin_loop() -> None:
        for raw in sys.stdin:
            fut = asyncio.run_coroutine_threadsafe(_call(command, raw.strip()), loop)
            tag, body = fut.result()
            common.say(tag, body)
        asyncio.run_coroutine_threadsafe(transport.shutdown(), loop).result()
        loop.call_soon_threadsafe(loop.stop)

    common.say("READY", {"port": transport.port, "cpus": cpus, **common.program_config()})
    reader = threading.Thread(target=stdin_loop, daemon=True)
    reader.start()
    loop.run_forever()
    reader.join(timeout=30)
    common.say("RESULT", {"peak_rss_mb": common.peak_rss_mb(), **counters(),
                          **common.program_config()})
    loop.close()
    return 0


async def _call(fn, arg):
    return fn(arg)


# ------------------------------------------------------------- generator


class Checker:
    """Expected responses, computed serially before any timed phase."""

    def __init__(self, seed: int):
        from repro import core
        from repro.nn.tensor import Tensor

        graph, model, features = build(seed)
        self.pool = inputs.serve_pool(seed, graph.num_vertices)
        self.propagate = [
            core.spmm(graph.coo, graph.gcn_edge_values, col[:, None])[0][:, 0]
            for col in self.pool.columns
        ]
        model.eval()
        logits = np.asarray(model(graph, Tensor(features)).data)
        self.predict = [logits[ids] for ids in self.pool.id_sets]

    def ok(self, req: inputs.Request, response) -> bool:
        want = (self.propagate if req.kind == "propagate" else self.predict)[req.index]
        return isinstance(response, np.ndarray) and np.array_equal(response, want)


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, int] = {}


async def send(client, checker: Checker, req: inputs.Request, tally: Tally,
               tenant: str = "") -> bool:
    tally.attempted += 1
    try:
        if req.kind == "propagate":
            response = await client.propagate(checker.pool.columns[req.index], tenant=tenant)
        else:
            response = await client.predict(checker.pool.id_sets[req.index], tenant=tenant)
    except Exception as e:  # noqa: BLE001 - every failure is counted, typed or not
        name = type(e).__name__
        tally.errors[name] = tally.errors.get(name, 0) + 1
        tally.failed += 1
        return False
    if not checker.ok(req, response):
        tally.errors["wrong"] = tally.errors.get("wrong", 0) + 1
        tally.failed += 1
        return False
    return True


async def phase_single(client, checker, stream, seconds, tally) -> list[float]:
    lat = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        t = time.perf_counter()
        await send(client, checker, next(stream), tally)
        lat.append(time.perf_counter() - t)
    return lat


async def phase_closed(client, checker, stream, seconds, tally) -> float:
    """Requests/s completed within the slice."""
    t0 = time.perf_counter()
    end = t0 + seconds
    done: list[float] = []

    async def worker():
        while time.perf_counter() < end:
            await send(client, checker, next(stream), tally)
            done.append(time.perf_counter())

    await asyncio.gather(*(worker() for _ in range(inputs.CLOSED_OUTSTANDING)))
    return sum(t <= end for t in done) / seconds


async def phase_open(client, checker, seed, seconds, tally) -> tuple[list[float], list[float]]:
    """Latency from each request's due time, and how late each was sent."""
    due, reqs = inputs.open_loop_schedule(seed, seconds)
    lat, lag, tasks = [], [], set()

    async def timed(req, target):
        await send(client, checker, req, tally)
        lat.append(time.perf_counter() - target)

    t0 = time.perf_counter()
    for offset, req in zip(due, reqs):
        target = t0 + float(offset)
        delay = target - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lag.append(time.perf_counter() - target)
        task = asyncio.get_running_loop().create_task(timed(req, target))
        tasks.add(task)
        task.add_done_callback(tasks.discard)
    while tasks:
        await asyncio.gather(*list(tasks))
    return lat, lag


async def phases(port, checker, seed, seconds, tally) -> dict:
    """The three phases; each round of (a) and (b) is led by first
    requests of new tenants."""
    from repro.serve.client import ServeClient

    s_a, s_b, s_c = (seconds * share for share in PHASE_SHARES)
    single_stream = inputs.request_stream(seed, inputs.PHASE_SINGLE)
    closed_stream = inputs.request_stream(seed, inputs.PHASE_CLOSED)
    single, rates, first_ms = [], [], []
    # The generator is not the system under test: keep its own garbage
    # collector from stalling the sends
    gc.collect()
    gc.disable()
    try:
        async with ServeClient(port=port) as client:
            for _ in range(ROUNDS):
                for _ in range(FIRSTS_PER_ROUND):
                    first_ms.append(await first_request(port, checker, tally,
                                                        tenant=next(_NEW_TENANTS)))
                single += await phase_single(client, checker, single_stream, s_a / ROUNDS, tally)
                rates.append(await phase_closed(client, checker, closed_stream,
                                                s_b / ROUNDS, tally))
            lat, lag = await phase_open(client, checker, seed, s_c, tally)
    finally:
        gc.enable()
    return {"single": single, "closed": rates, "open": (lat, lag), "firsts": first_ms}


async def probe(port: int) -> None:
    """The health probe that ends a server's set-up."""
    from repro.serve.client import ServeClient

    async with ServeClient(port=port) as client:
        await client.health()


async def first_request(port: int, checker: Checker, tally: Tally, tenant: str = "") -> float:
    """A new client's first request: connect, handshake and a propagate
    whose plan is not cached yet (on a fresh server, or of a new tenant,
    whose plans have a key space of their own)."""
    from repro.serve.client import ServeClient

    t0 = time.perf_counter()
    async with ServeClient(port=port) as client:
        await send(client, checker, inputs.Request("propagate", 0), tally, tenant)
        return time.perf_counter() - t0


def start_server(seed: int, trace: bool, cpu: int):
    """Spawn a server child pinned to ``cpu``; returns (child, READY
    body, seconds to ready)."""
    child = common.Child("server", "--seed", str(seed), "--trace", str(int(trace)),
                         "--cpu", str(cpu))
    try:
        ready = child.expect("READY", 120)
        if ready["cpus"] != [cpu]:
            raise common.ChildError(f"server runs on CPUs {ready['cpus']}, not [{cpu}]")
        asyncio.run(probe(ready["port"]))
    except BaseException:
        child.close()
        raise
    return child, ready, time.perf_counter() - child.started


def stop_server(child) -> dict:
    """End of input: the server drains, prints ``RESULT`` and exits."""
    try:
        child.proc.stdin.close()
        return child.expect("RESULT", 60)
    finally:
        child.close()


def run(seed: int, seconds: float, trace: bool) -> dict:
    """The generator side of a whole run; returns what ``common.emit`` needs.

    Untraced: ``SERVER_STARTS`` fresh servers, each timed to ready and
    sent one first request; the last one then serves the three phases,
    with first requests of new tenants in each round.

    The generator and the server share one CPU, on purpose.  A request
    then costs the CPU time of both sides (the program's client and
    protocol code as well as its service), and no figure waits on the
    hypervisor to run two virtual CPUs at the same moment.  On a 2-vCPU
    virtual machine, five interleaved pairs of runs spread 39% (closed-loop
    rate) and 28% (one-outstanding p50) with a CPU each, and 7% and 9%
    sharing one.
    """
    checker = Checker(seed)
    tally = Tally()
    # the last CPU: the first takes the virtio network interrupts
    cpu = max(os.sched_getaffinity(0))
    gen_cpus = pin(cpu)
    if trace:
        child, ready, _ = start_server(seed, True, cpu)
        try:
            out = _traced(child, ready, checker, seed, seconds, tally)
        finally:
            stop_server(child)
        out["program"].update(generator_cpus=gen_cpus, server_cpus=ready["cpus"])
        return out
    setups, fresh = [], []
    for i in range(SERVER_STARTS):
        child, ready, took = start_server(seed, False, cpu)
        try:
            setups.append(took)
            fresh.append(asyncio.run(first_request(ready["port"], checker, tally)))
            if i == SERVER_STARTS - 1:
                out = asyncio.run(phases(ready["port"], checker, seed, seconds, tally))
        finally:
            server = stop_server(child)
    out = _report(out, server, setups, fresh, tally)
    out["program"].update(generator_cpus=gen_cpus, server_cpus=ready["cpus"])
    return out


def _report(out: dict, server: dict, setups, fresh, tally: Tally) -> dict:
    single, rates, firsts = out["single"], out["closed"], out["firsts"]
    lat, lag = out["open"]
    lag_p99 = percentile(lag, 99) * 1e3
    p90, p99 = percentile(single, 90), percentile(single, 99)
    band = [x for x in single if p90 <= x <= p99]
    notes = [
        "first requests to fresh servers (ms): " + " ".join(f"{x * 1e3:.2f}" for x in fresh),
        f"first requests of new tenants (ms): min {min(firsts) * 1e3:.2f} "
        f"p50 {percentile(firsts, 50) * 1e3:.2f} max {max(firsts) * 1e3:.2f}",
        f"phase a: {len(single)} requests, one outstanding, p90 {p90 * 1e3:.3f} ms, "
        f"p99 {p99 * 1e3:.3f} ms",
        f"phase b: {inputs.CLOSED_OUTSTANDING} outstanding, req/s per slice: "
        + " ".join(f"{w:.0f}" for w in rates),
        f"phase c: {len(lat)} requests at {inputs.OPEN_LOOP_RPS:.0f}/s, latency from due "
        f"time p50 {percentile(lat, 50) * 1e3:.3f} ms p99 {percentile(lat, 99) * 1e3:.3f} ms; "
        f"generator lag p50 {percentile(lag, 50) * 1e3:.3f} ms p99 {lag_p99:.3f} ms",
        f"server: {server['batches']} batches, {server['requests']} requests, "
        f"shed {server['shed']}, timeouts {server['timeouts']}",
    ]
    if tally.errors:
        notes.append(f"failures: {tally.errors}")
    behind = lag_p99 > GEN_LAG_LIMIT_MS
    if behind:
        notes.append(f"FLAG: generator fell behind in phase c (lag p99 {lag_p99:.2f} ms "
                     f"> {GEN_LAG_LIMIT_MS} ms); its latencies include the lag")
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "setups": setups,
        "program": {k: server[k] for k in ("exec_backend", "exec_workers", "repro_env")},
        "generator_behind": behind,
        "metrics": {
            "peak_rss_mb": (server["peak_rss_mb"], 1, "server process"),
            "ops_per_s": (statistics.median(rates), len(rates),
                          "closed loop, median of the slices"),
            "op_p50_ms": (percentile(single, 50) * 1e3, len(single), "one outstanding"),
            # The slow fifth of the mix (predicts) sits above p80 and is
            # broad, so one percentile inside it moves with the predict
            # mode mix; the p99 follows how often the host stalls a process
            # for ~20 ms.  The mean between the two moves with neither.
            "op_tail_ms": (statistics.mean(band) * 1e3, len(band),
                           "one outstanding, mean of the p90-p99 band"),
            # a single first request per fresh server spread 25% between
            # runs; the median of many, spread over the run, does not
            "first_op_ms": (statistics.median(firsts) * 1e3, len(firsts),
                            "new client's first request, new tenant so its plan "
                            "is uncached, median"),
        },
        "notes": notes,
    }


def _traced(child, ready, checker, seed, seconds, tally) -> dict:
    """Untraced phases, then the same phases traced on both sides."""
    from perfbench import layers, spans

    half = seconds / 2
    base = asyncio.run(phases(ready["port"], checker, seed, half, tally))
    tracer = spans.Tracer()
    child.send("trace")
    child.expect("TRACING", 30)
    layers.install(tracer)

    async def window():
        with tracer.span("bench.window"):
            t0 = time.perf_counter()
            out = await phases(ready["port"], checker, seed, half, tally)
            return out, time.perf_counter() - t0

    out, wall = asyncio.run(window())
    tracer.uninstall()
    tracer.samples["bench.gen_lag_ms"] = [x * 1e3 for x in out["open"][1]]
    common.OUT_DIR.mkdir(exist_ok=True)
    path = common.OUT_DIR / f"server-{child.proc.pid}.json"
    child.send(f"dump {path}")
    server = child.expect("DUMPED", 60)
    server_spans, server_samples = spans.load(str(path))
    path.unlink()
    all_spans = tracer.spans + server_spans
    samples = {**tracer.samples, **server_samples}
    rps0 = statistics.median(base["closed"])
    rps1 = statistics.median(out["closed"])
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "spans": all_spans,
        "samples": samples,
        "traced_wall_s": wall,
        "trace_overhead_pct": (rps0 / rps1 - 1.0) * 100.0,
        "plancache": {"hits": server["hits"], "misses": server["misses"]},
        "serve_stats": server,
        "program": {k: ready[k] for k in ("exec_backend", "exec_workers", "repro_env")},
        "notes": [f"closed loop untraced {rps0:.0f}/s, traced {rps1:.0f}/s",
                  f"server spans {len(server_spans)}, generator spans {len(tracer.spans)}"],
    }
