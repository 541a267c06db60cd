"""Process handling, run records and the result line.

Nothing here imports the program: ``run.py`` must be able to refuse a
checkout that lacks it before anything else happens.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import queue
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
#: scratch space for span dumps, inside the checkout and git-ignored
OUT_DIR = ROOT / ".perfbench_out"

#: every workload runs with the program's own configuration unset
ENV_PREFIX = "REPRO_"
#: fresh-process set-ups per untraced run; setup_s is their median
SETUPS = 3


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file() and BENCHMARK_JSON.is_file()


def strip_program_env() -> list[str]:
    """Unset every ``REPRO_*`` variable in this process; returns the names."""
    names = sorted(k for k in os.environ if k.startswith(ENV_PREFIX))
    for k in names:
        del os.environ[k]
    return names


def use_program() -> None:
    """Make the checkout's ``src`` importable here and in child processes."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    paths = [str(ROOT), str(SRC)]
    old = os.environ.get("PYTHONPATH")
    if old:
        paths.append(old)
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)


def load_spec() -> dict:
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def say(tag: str, body: dict) -> None:
    """One ``TAG {json}`` protocol line on stdout (child processes)."""
    sys.stdout.write(f"{tag} {json.dumps(body)}\n")
    sys.stdout.flush()


def peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------------ children


class ChildError(RuntimeError):
    pass


class Child:
    """A ``python -m perfbench.child`` process speaking a line protocol.

    The child prints ``TAG {json}`` lines on stdout and reads commands
    from stdin; a reader thread feeds a queue so every wait has a
    timeout.
    """

    def __init__(self, *args: str):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.child", *args],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def expect(self, tag: str, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ChildError(f"child sent no {tag} within {timeout:.0f} s")
            try:
                line = self._lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise ChildError(f"child exited (code {self.proc.wait()}) before {tag}")
            if line.startswith(tag + " "):
                return json.loads(line[len(tag) + 1:])
            sys.stderr.write(line)

    def send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def close(self, timeout: float = 10.0) -> int:
        """Close stdin (the child's cue to exit), wait, kill if it hangs."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._reader.join(timeout=5)
        return code


# ---------------------------------------------------------------- the record


def run_record(removed_env: list[str], cpus_usable: int, program: dict) -> dict:
    """The effective configuration a run executed under.

    ``cpus_usable`` is taken at start, before a workload pins itself.
    """
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "cpus_usable": cpus_usable,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "repro_env_unset": removed_env,
        **program,
    }


def program_config() -> dict:
    """Exec backend, worker count and ``REPRO_*`` of the calling process."""
    from repro.exec import get_engine

    engine = get_engine()
    return {
        "exec_backend": getattr(engine.backend, "name", type(engine.backend).__name__),
        "exec_workers": engine.workers,
        "repro_env": {k: v for k, v in os.environ.items() if k.startswith(ENV_PREFIX)},
    }


# ------------------------------------------------------------------- output


def emit(
    workload: str,
    trace: bool,
    metrics: dict[str, tuple[float, int, str]],
    *,
    attempted: int,
    failed: int,
    record: dict,
    notes: list[str],
    fold_rows: list | None = None,
) -> int:
    """Print the report and the result line; returns the exit code.

    ``metrics`` maps name -> (value, sample count, note).  The names
    must be exactly the ``end_to_end`` (untraced) or ``per_layer``
    (traced) names of BENCHMARK.json.
    """
    spec = load_spec()
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        missing = sorted(set(units) - set(metrics))
        extra = sorted(set(metrics) - set(units))
        print(f"perfbench: metric names differ from BENCHMARK.json: "
              f"missing {missing}, undeclared {extra}", file=sys.stderr)
        return 3
    correct = failed == 0 and attempted > 0
    print(f"== perfbench {workload} ({'traced, per-layer' if trace else 'untraced, end-to-end'})")
    print("record: " + json.dumps(record, sort_keys=True))
    for note in notes:
        print(note)
    if fold_rows is not None:
        wall = record.get("traced_wall_s", 0.0)
        print(f"{'span':24} {'count':>7} {'busy_s':>9} {'self_s':>9} "
              f"{'p50_ms':>9} {'p99_ms':>9} {'share':>6}   (wall {wall:.3f} s)")
        for r in fold_rows:
            print(f"{r.name:24} {r.count:7d} {r.busy_s:9.4f} {r.self_s:9.4f} "
                  f"{r.p50_ms:9.3f} {r.p99_ms:9.3f} {r.share:6.1%}")
    print(f"{'metric':28} {'value':>14} {'unit':>8} {'n':>7}  note")
    for m in declared:
        value, n, note = metrics[m["name"]]
        print(f"{m['name']:28} {value:14.6g} {m['unit']:>8} {n:7d}  {note}")
    ok_ops = attempted - failed
    print(f"outputs: {'CORRECT' if correct else 'WRONG'} "
          f"({ok_ops} of {attempted} operations correct, {failed} failed)")
    result = {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name][0]), "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1
