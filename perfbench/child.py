"""Child-process entry: ``python -m perfbench.child <role> --seed N ...``.

Roles ``figures`` and ``train`` set up, print ``READY``, then either
exit (a set-up probe), or on a ``first`` line time one first epoch
(``train`` probes), or on a ``run`` line run the timed workload and
print ``RESULT``.  Role ``server`` is the serve-tcp server
(see ``perfbench.serve``).  Traced children wrap the layer boundaries
during set-up, then only for the traced pass.
"""

from __future__ import annotations

import argparse
import os
import sys
import time


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("role", choices=("figures", "train", "server"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cpu", type=int, help="server: the CPU to run on")
    args = parser.parse_args(argv)

    from perfbench import common, layers, spans

    common.use_program()
    tracer = spans.Tracer() if args.trace else None
    if args.role == "server":
        from perfbench import serve

        return serve.server_main(args.seed, args.cpu, tracer)

    from perfbench import figures, train

    t0 = time.perf_counter()
    if tracer is not None:
        layers.install(tracer)
    if args.role == "figures":
        figures.setup()
        state = None
    else:
        state = train.setup(args.seed)
    if tracer is not None:
        tracer.uninstall()
    common.say("READY", {"setup_s": time.perf_counter() - t0})
    command = sys.stdin.readline().strip()
    if command == "first" and args.role == "train":
        first_s, failed = train.first_epoch(state)
        common.say("FIRST", {"first_s": first_s, "failed": failed})
        return 0
    if command != "run":
        return 0
    if args.role == "figures":
        result = figures.run(args.seed, args.seconds, tracer)
    else:
        result = train.run(state, args.seed, args.seconds, tracer)
    result["program"] = common.program_config()
    if tracer is not None:
        common.OUT_DIR.mkdir(exist_ok=True)
        path = common.OUT_DIR / f"{args.role}-{os.getpid()}.json"
        tracer.dump(str(path))
        result["spans_path"] = str(path)
    common.say("RESULT", result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
