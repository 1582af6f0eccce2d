"""Run one benchmark workload over dividend2d and print its result.

    python3 benchmark/run.py --workload barrier-long --seed 0 --seconds 10 --trace 0
    python3 benchmark/run.py --workload all --seed 0 --seconds 10

Run from the repository root or anywhere else: the library is loaded
from ``src/`` next to this directory, and the run stops with exit code 2
when it is not there.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0`` and the per-layer metrics of a
separate traced run with ``--trace 1``.  ``--workload all`` runs every
workload in a process of its own and prints a summary table.  Each run
also writes a record (and, traced, its spans) under ``records/``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one thread per workload process

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RECORDS = HERE / "records"
NAMES = ("barrier-long", "barrier-short", "impulse-mc", "impulse-routes", "series")
#: fresh processes timed for setup_s, of which the median is reported
SETUP_RUNS = 3
_CLI = "import sys; sys.path.insert(0, sys.argv[1]); from dividend2d.cli import main; sys.exit(main(sys.argv[2:]))"


def measure_setup(argv: list[str]) -> list[float]:
    """Reference seconds from process start to exit for the CLI's first result, per run."""
    from workloads import reference_kernel, speed_factor

    times = []
    for _ in range(SETUP_RUNS):
        before = reference_kernel()
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _CLI, str(SRC), *argv],
            capture_output=True, text=True, timeout=170,
        )
        dt = perf_counter() - t0
        times.append(dt / speed_factor(before, reference_kernel()))
        if proc.returncode != 0:
            raise RuntimeError(f"setup command {argv} exited {proc.returncode}: {proc.stderr[-500:]}")
    return times


def run_one(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list]:
    sys.path.insert(0, str(SRC))
    import dividend2d

    if Path(dividend2d.__file__).resolve().parent != (SRC / "dividend2d").resolve():
        raise RuntimeError(f"dividend2d was loaded from {dividend2d.__file__}, not {SRC}")
    import tracing
    import workloads

    fn, setup_argv = workloads.WORKLOADS[name]
    setup = tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    else:
        setup = measure_setup([a.format(seed=seed) for a in setup_argv])
    run = workloads.Run(seed=seed, seconds=seconds, tracer=tracer)
    cache0 = tracing.cache_counts()
    figures = fn(run)
    cache1 = tracing.cache_counts()
    if trace:
        tracer.restore()
        run.work["rounds"] = run.rounds
        cache_delta = None if cache0 is None else (cache1[0] - cache0[0], cache1[1] - cache0[1])
        metrics = tracing.layer_metrics(tracer, run.work, run.timed_wall, cache_delta)
    else:
        metrics = {
            "setup_s": {"value": median(setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "rate_per_s": {"value": figures["rate_per_s"], "unit": "1/s"},
            "time_to_answer_s": {"value": figures["time_to_answer_s"], "unit": "s"},
        }
    result = {
        "correct": all(c["ok"] for c in run.checks),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    RECORDS.mkdir(exist_ok=True)
    stem = RECORDS / f"{name}-seed{seed}-trace{int(trace)}"
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "rounds": run.rounds, "timed_wall_s": run.timed_wall, "work": run.work,
        "setup_samples_s": setup, "figures": figures, "checks": run.checks,
        "wall_samples_s": run.wall_samples, "speed_samples": run.speed_samples,
        "details": run.details, "result": result,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        tracer.dump(stem.with_suffix(".spans.json"))
    return result, run.checks


def show(name: str, result: dict, checks: list | None = None) -> None:
    print(f"{name}: attempted {result['attempted']} failed {result['failed']} correct {str(result['correct']).lower()}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:40s} {m['value']:14.6g} {m['unit']}")
    for c in checks or []:
        print(f"  check {c['name']:28s} {'ok ' if c['ok'] else 'FAIL'} {c['detail']}")


def run_all(seed: int, seconds: float, trace: int) -> int:
    results = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"{name}: exited {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        show(name, results[name])
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0.0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "dividend2d" / "__init__.py").is_file():
        print(f"error: the dividend2d sources are not at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result, checks = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    show(args.workload, result, checks)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
