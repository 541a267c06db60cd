"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload figures-cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the
end-to-end metrics untraced; ``--trace 1`` runs the workload untraced
and then traced, and reports the per-layer metrics.  Every metric is
printed by name with its unit and sample count, then the output
verdict; the last line is the JSON result.  The metric names and units
are those of ``BENCHMARK.json``; README.md says what each one measures.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

WORKLOADS = {"figures-cold": "figures", "train-gat": "train", "serve-tcp": "serve"}
#: a run must end within 180 s; leave room to print and clean up
BUDGET_S = 170.0


def run_child_workload(role: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """Set up ``common.SETUPS`` fresh processes (one when traced); run the last.

    Training probes also time their first epoch, so ``first_op_ms`` is a
    median over fresh processes like ``setup_s``.
    """
    setups, firsts, probe_failed = [], [], 0
    n = 1 if trace else common.SETUPS
    for i in range(n):
        child = common.Child(role, "--seed", str(seed), "--seconds", str(seconds),
                             "--trace", str(int(trace)))
        try:
            child.expect("READY", deadline - time.monotonic())
            setups.append(time.perf_counter() - child.started)
            if i == n - 1:
                child.send("run")
                result = child.expect("RESULT", deadline - time.monotonic())
            elif role == "train":
                child.send("first")
                first = child.expect("FIRST", deadline - time.monotonic())
                firsts.append(first["first_s"])
                probe_failed += first["failed"]
        finally:
            child.close()
    if firsts:
        # each probe made the same two kernel checks as the measured process
        result["attempted"] += 2 * len(firsts)
        result["failed"] += probe_failed
        value, _, note = result["metrics"]["first_op_ms"]
        samples = [value / 1e3, *firsts]
        result["metrics"]["first_op_ms"] = (statistics.median(samples) * 1e3, len(samples),
                                            note + f", median of {len(samples)} processes")
    if trace:
        from perfbench import spans

        result["spans"], result["samples"] = spans.load(result.pop("spans_path"))
    result["setups"] = setups
    return result


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not common.program_present():
        print(f"perfbench: no program to measure under {common.ROOT} "
              f"(src/repro or BENCHMARK.json missing)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    removed = common.strip_program_env()
    cpus_usable = len(os.sched_getaffinity(0))
    common.use_program()
    trace = bool(args.trace)
    role = WORKLOADS[args.workload]
    try:
        if role == "serve":
            from perfbench import serve

            res = serve.run(args.seed, args.seconds, trace)
        else:
            res = run_child_workload(role, args.seed, args.seconds, trace, deadline)
    except common.ChildError as e:
        print(f"perfbench: {args.workload}: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(common.OUT_DIR, ignore_errors=True)

    record = common.run_record(removed, cpus_usable, res["program"])
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace)
    attempted, failed = res["attempted"], res["failed"]
    if not trace:
        setups = res["setups"]
        record["setup_samples_s"] = setups
        if "generator_behind" in res:
            record["generator_behind"] = res["generator_behind"]
        metrics = dict(res["metrics"])
        metrics["setup_s"] = (statistics.median(setups), len(setups),
                              "median of fresh-process set-ups")
        metrics["ok_share"] = ((attempted - failed) / attempted if attempted else 0.0,
                               attempted, "correct operations / attempted")
        return common.emit(args.workload, False, metrics, attempted=attempted,
                           failed=failed, record=record, notes=res["notes"])
    return emit_traced(args.workload, res, record)


def emit_traced(workload: str, res: dict, record: dict) -> int:
    from perfbench import layers, spans

    all_spans, samples = res["spans"], res["samples"]
    wall = res["traced_wall_s"]
    record["traced_wall_s"] = wall
    values = layers.layer_metrics(
        all_spans, samples, wall_s=wall, plancache=res["plancache"],
        serve_stats=res.get("serve_stats", {}),
        trace_overhead_pct=res["trace_overhead_pct"],
    )
    metrics = {name: (value, n, "") for name, (value, n) in values.items()}
    return common.emit(workload, True, metrics, attempted=res["attempted"],
                       failed=res["failed"], record=record, notes=res["notes"],
                       fold_rows=spans.fold(all_spans, wall))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
