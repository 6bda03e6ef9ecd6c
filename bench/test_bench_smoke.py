"""Smoke test of the benchmark harness: every workload shrunk to 16x16 for
two steps, untraced and traced, plus the agreement of BENCHMARK.json with the
harness and the refusal to run without the relaxdiff sources."""

import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def test_benchmark_json_matches_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_workload_smoke(name, trace, tmp_path):
    result = bench.measure(name, seed=3, seconds=0, trace=trace, work_root=tmp_path, size=16, steps=2)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(bench.PER_LAYER if trace else bench.END_TO_END)
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if trace:
        solver = "baselines.cg_iters" if bench.WORKLOADS[name].mode == "catte" else "integrate.cg_iters_main"
        assert values[solver] > 0 and values["grid.operator_applies"] > values[solver]
        assert values["trace.overhead_s"] > 0
    else:
        assert values["ok_frac"] == 1.0 and values["wall_s"] > values["setup_s"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "bench/run.py", "--workload", "rgb256-default", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
