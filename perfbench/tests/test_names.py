"""The printed metric names are exactly those of BENCHMARK.json."""

import json
import subprocess
import sys

import pytest

from perfbench import common, layers

SPEC = common.load_spec()
E2E = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def test_layer_metrics_cover_per_layer_exactly():
    values = layers.layer_metrics([], {}, wall_s=1.0, plancache={"hits": 0, "misses": 0},
                                  serve_stats={}, trace_overhead_pct=0.0)
    assert sorted(values) == sorted(PER_LAYER)


@pytest.mark.parametrize("trace, names", [(False, E2E), (True, PER_LAYER)])
def test_emit_prints_every_declared_name(capsys, trace, names):
    metrics = {name: (1.5, 3, "") for name in names}
    code = common.emit("w", trace, metrics, attempted=4, failed=1, record={}, notes=[])
    out = capsys.readouterr().out.splitlines()
    result = json.loads(out[-1])
    assert code == 1 and result["correct"] is False
    assert (result["attempted"], result["failed"]) == (4, 1)
    assert list(result["metrics"]) == names
    table = [line.split()[0] for line in out if line.split() and line.split()[0] in names]
    assert table == names


def test_emit_refuses_undeclared_names(capsys):
    metrics = {name: (1.0, 1, "") for name in E2E[1:]}
    metrics["not_declared"] = (1.0, 1, "")
    assert common.emit("w", False, metrics, attempted=1, failed=0, record={}, notes=[]) == 3
    assert capsys.readouterr().out == ""


def test_refuses_a_directory_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in common.ROOT.joinpath("perfbench").glob("*.py"):
        bench.joinpath(path.name).write_bytes(path.read_bytes())
    tmp_path.joinpath("BENCHMARK.json").write_bytes(common.BENCHMARK_JSON.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-tcp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_a_short_run_prints_the_declared_names():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-tcp", "--seed", "3",
         "--seconds", "2", "--trace", "0"],
        cwd=common.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == E2E
    assert all(result["metrics"][name]["value"] > 0 for name in E2E)
