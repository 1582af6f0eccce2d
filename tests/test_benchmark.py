"""The benchmark's result line: strict JSON, checks passed, every declared metric present.

A run that exits 0 but whose last line of standard output is not such a
result measures nothing, so a short ``series`` run is checked here in
both trace modes.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _reject(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_series_result_line_is_strict_json_with_every_declared_metric(trace, kind):
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmark" / "run.py"), "--workload", "series",
         "--seconds", "0.3", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject)
    assert result["correct"] is True
    assert result["attempted"] > 0
    assert declared <= set(result["metrics"]), declared - set(result["metrics"])
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_traced_barrier_run_reports_every_simulator_layer():
    # the series workload never enters the simulator, so a short traced
    # barrier run checks that the stream and kernel metrics are measured
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmark" / "run.py"), "--workload", "barrier-long",
         "--seconds", "0.3", "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject)
    assert result["correct"] is True
    metrics = result["metrics"]
    wanted = {name for name in declared if name.startswith("simulate.")}
    assert wanted <= set(metrics), wanted - set(metrics)
    assert metrics["simulate.fill_us_per_path"]["value"] > 0.0
    assert metrics["simulate.draws_per_path"]["value"] > 0.0
    assert metrics["simulate.kernel_us_per_path"]["value"] > 0.0
    assert metrics["simulate.accumulate_self_us_per_path"]["value"] > 0.0
    # the floor benchmark/README.md sets for the spans' share of timed wall time
    assert metrics["trace.span_coverage"]["value"] >= 0.9


def test_traced_impulse_run_reports_every_simulator_layer():
    # the tracer reads the impulse event loop's time from the name
    # simulate._impulse_kernel; a short traced impulse run checks that the
    # name still exists and that its spans cover the timed work
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmark" / "run.py"), "--workload", "impulse-mc",
         "--seconds", "0.3", "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject)
    assert result["correct"] is True
    metrics = result["metrics"]
    for name in ("simulate.impulse_path_us", "simulate.fill_us_per_path",
                 "simulate.draws_per_path", "simulate.accumulate_self_us_per_path"):
        assert metrics[name]["value"] > 0.0, name
    assert metrics["trace.span_coverage"]["value"] >= 0.9
