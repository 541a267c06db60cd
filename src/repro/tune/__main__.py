"""CLI: train, evaluate, and apply the learned tuning stack.

Usage::

    python -m repro.tune train --data train.jsonl --val val.jsonl \\
        --out model.npz                         # fit + persist + eval
    python -m repro.tune predict --model model.npz --data val.jsonl
    python -m repro.tune search --model model.npz --dataset G3 \\
        --kind spmm --f 32 [--exhaustive]       # pruned autotune
    python -m repro.tune explore --dataset G3 --kind spmm --f 32 \\
        --strategy evolve --budget 64 -o traj.jsonl
    python -m repro.tune report traj.jsonl      # trajectory summary

``train``/``predict`` consume the flat JSONL datasets exported by
``python -m repro.obs dataset`` (optionally pre-split with its
``--split`` flag).  All verbs print JSON to stdout so they compose
with ``jq`` and the bench scripts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.obs.dataset import validate_record
from repro.sparse.datasets import load_dataset
from repro.tune.explore import (
    STRATEGIES,
    DesignSpace,
    explore,
    read_trajectory,
    trajectory_report,
)
from repro.tune.model import (
    ALGORITHMS,
    evaluate_model,
    load_model,
    train_model,
)
from repro.tune.search import DEFAULT_TOP_K, learned_autotune, measure_regret


def read_records(path: str | Path) -> list[dict]:
    """Read a dataset JSONL file, dropping malformed/invalid records."""
    records: list[dict] = []
    skipped = 0
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            skipped += 1
            continue
        if isinstance(rec, dict) and not validate_record(rec):
            records.append(rec)
        else:
            skipped += 1
    if skipped:
        print(f"[tune] skipped {skipped} invalid record(s) in {path}",
              file=sys.stderr)
    return records


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_train(args: argparse.Namespace) -> int:
    records = read_records(args.data)
    if not records:
        print(f"[tune] no valid records in {args.data}", file=sys.stderr)
        return 1
    model = train_model(records, algorithm=args.algorithm, seed=args.seed)
    out = Path(args.out)
    model.save(out)
    payload = {
        "out": str(out),
        "algorithm": model.algorithm,
        "n_train": len(records),
        "train": evaluate_model(model, records).to_dict(),
        "meta": model.meta,
    }
    if args.val:
        val = read_records(args.val)
        payload["n_val"] = len(val)
        if val:
            payload["val"] = evaluate_model(model, val).to_dict()
    _emit(payload)
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    records = read_records(args.data)
    if not records:
        print(f"[tune] no valid records in {args.data}", file=sys.stderr)
        return 1
    report = evaluate_model(model, records)
    payload: dict = {"model": str(args.model), "eval": report.to_dict()}
    if args.show:
        from repro.tune.features import feature_matrix, target_vector

        pred = model.predict(feature_matrix(records))
        actual = target_vector(records)
        payload["records"] = [
            {
                "kernel": r.get("kernel"),
                "kind": r.get("kind"),
                "f": r.get("f"),
                "rows": r.get("rows"),
                "nnz": r.get("nnz"),
                "sim_us": float(a),
                "predicted_us": float(p),
            }
            for r, p, a in list(zip(records, pred, actual))[: args.show]
        ]
    _emit(payload)
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    A = load_dataset(args.dataset).coo
    if args.exhaustive:
        rep = measure_regret(
            A, args.f, args.kind, model,
            device=args.device, top_k=args.top_k,
        )
        _emit({"dataset": args.dataset, **rep.to_dict()})
        return 0
    res = learned_autotune(
        A, args.f, args.kind, model=model,
        device=args.device, top_k=args.top_k,
    )
    _emit(
        {
            "dataset": args.dataset,
            "kind": args.kind,
            "f": args.f,
            "config": {
                "cache_size": res.config.cache_size,
                "schedule": res.config.schedule,
            },
            "time_us": res.time_us,
            "trials_simulated": len(res.trials),
            "trials_avoided": res.trials_avoided,
            "candidates": res.candidates,
        }
    )
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    A = load_dataset(args.dataset).coo
    res = explore(
        A, args.f, args.kind,
        strategy=args.strategy, space=DesignSpace(), budget=args.budget,
        seed=args.seed, device=args.device, trajectory_path=args.out,
    )
    payload = {"dataset": args.dataset, "kind": args.kind, "f": args.f,
               **res.to_dict()}
    if args.out:
        payload["trajectory"] = str(args.out)
    _emit(payload)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    rows: list[dict] = []
    for path in args.trajectories:
        rows.extend(read_trajectory(path))
    if not rows:
        print("[tune] no trajectory rows", file=sys.stderr)
        return 1
    _emit(trajectory_report(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.tune",
        description="learned cost model, pruned autotuning, design-space explorer",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    t = sub.add_parser("train", help="fit a cost model on dataset JSONL")
    t.add_argument("--data", required=True, help="training records (JSONL)")
    t.add_argument("--val", default=None, help="held-out records (JSONL)")
    t.add_argument("--out", required=True, help="model artifact path (.npz)")
    t.add_argument("--algorithm", choices=ALGORITHMS, default="ridge")
    t.add_argument("--seed", type=int, default=0)
    t.set_defaults(fn=_cmd_train)

    pr = sub.add_parser("predict", help="evaluate a model on dataset JSONL")
    pr.add_argument("--model", required=True)
    pr.add_argument("--data", required=True)
    pr.add_argument("--show", type=int, default=0,
                    help="also print the first N per-record predictions")
    pr.set_defaults(fn=_cmd_predict)

    s = sub.add_parser("search", help="model-pruned autotune on a seed graph")
    s.add_argument("--model", required=True)
    s.add_argument("--dataset", required=True, help="dataset key, e.g. G3")
    s.add_argument("--kind", choices=("spmm", "sddmm"), default="spmm")
    s.add_argument("--f", type=int, default=32)
    s.add_argument("--top-k", type=int, default=DEFAULT_TOP_K)
    s.add_argument("--device", default=None)
    s.add_argument("--exhaustive", action="store_true",
                   help="also run exhaustive search and report regret")
    s.set_defaults(fn=_cmd_search)

    e = sub.add_parser("explore", help="design-space exploration")
    e.add_argument("--dataset", required=True, help="dataset key, e.g. G3")
    e.add_argument("--kind", choices=("spmm", "sddmm"), default="spmm")
    e.add_argument("--f", type=int, default=32)
    e.add_argument("--strategy", choices=STRATEGIES, default="random")
    e.add_argument("--budget", type=int, default=64)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--device", default=None)
    e.add_argument("-o", "--out", default=None, help="trajectory JSONL path")
    e.set_defaults(fn=_cmd_explore)

    r = sub.add_parser("report", help="summarize trajectory JSONL files")
    r.add_argument("trajectories", nargs="+")
    r.set_defaults(fn=_cmd_report)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
