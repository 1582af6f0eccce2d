#!/usr/bin/env python3
"""Run benchmark workloads in alternating pairs on two source trees.

    python3 scripts/bench_pairs.py --base ../parent --change . \\
        --workload series --seeds 401-410 --out BENCH_7.json

Each pair runs ``python3 <tree>/benchmark/run.py --workload W --seed S
--seconds T --trace 0`` once on the base tree and once on the change
tree, where T is the ``run_seconds`` of the change tree's
``BENCHMARK.json``, and the tree that runs first alternates from pair to
pair.  The last line of each run's output is its JSON result.  For every
end-to-end metric that the same file declares, the summary holds the
per-pair values, each side's median and quartiles, and how many pairs
the change won (ties count for neither side); for each side it also
holds the failed and attempted operations and the runs whose checks did
not all pass.  Before each pair, ``parallel_speedup`` records whether a
second core was free: the time of a fixed pure-Python spin run twice in
this process over the time of the same two spins run at once, one here
and one in a forked child (about 2 with a free second core, 1 without);
the summary holds it per pair.  An existing ``--out`` file keeps the
workloads this call does not run.

With ``--cold-starts`` the script times only each workload's setup
command instead (the CLI command whose cold start ``setup_s`` times, as
the change tree's ``benchmark/workloads.py`` gives it), once per seed on
each tree, in fresh processes, the tree that runs first alternating from
seed to seed.  Each run is timed as ``setup_s`` times it: wall seconds
from process start to exit, scaled to reference seconds by the
benchmark's reference kernel timed before and after.  Both sides'
medians and quartiles, of reference and of wall seconds, go to the
``cold_starts`` entry of ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

SIDES = ("base", "change")

#: runs ``dividend2d.cli.main`` on ``argv[2:]`` with ``argv[1]`` first on the path
_CLI = ("import sys; sys.path.insert(0, sys.argv[1]); "
        "from dividend2d.cli import main; sys.exit(main(sys.argv[2:]))")


def parse_seeds(text: str) -> list[int]:
    """``401-410`` or ``401,405,409`` (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def tree_state(tree: Path) -> str:
    """Short commit of a git tree, with ``+dirty`` when it has uncommitted edits."""
    git = ["git", "-C", str(tree)]
    head = subprocess.run([*git, "rev-parse", "--short", "HEAD"], capture_output=True, text=True)
    if head.returncode != 0:
        return "unknown"
    dirty = subprocess.run([*git, "status", "--porcelain", "--untracked-files=no"],
                           capture_output=True, text=True).stdout.strip()
    return head.stdout.strip() + ("+dirty" if dirty else "")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(tree / "benchmark" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=1800)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spin(n: int = 5_000_000) -> int:
    total = 0
    for i in range(n):
        total += i
    return total


def parallel_speedup() -> float:
    """Two spins in turn over two spins at once, here and in a forked child."""
    start = time.perf_counter()
    spin()
    spin()
    serial = time.perf_counter() - start
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            spin()
        finally:
            os._exit(0)
    spin()
    os.waitpid(pid, 0)
    return serial / (time.perf_counter() - start)


def spread(values: list[float]) -> dict:
    q1, q2, q3 = quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median(values), "q1": q1, "q3": q3, "quartile_distance": q3 - q1}


def summarise(pairs: list[dict], better: dict[str, str]) -> dict:
    metrics = {}
    for name, direction in better.items():
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (c - b) > 0.0 for b, c in zip(values["base"], values["change"]))
        metrics[name] = {
            "better": direction,
            "unit": pairs[0]["base"]["metrics"][name]["unit"],
            "pairs": [{"seed": p["seed"], "base": b, "change": c}
                      for p, b, c in zip(pairs, values["base"], values["change"])],
            **{side: spread(values[side]) for side in SIDES},
            "change_wins": wins,
        }
    operations = {
        side: {
            "failed": sum(p[side]["failed"] for p in pairs),
            "attempted": sum(p[side]["attempted"] for p in pairs),
            "runs_not_correct": sum(not p[side]["correct"] for p in pairs),
        }
        for side in SIDES
    }
    return {"n_pairs": len(pairs), "seeds": [p["seed"] for p in pairs],
            "first": [p["first"] for p in pairs],
            "parallel_speedup": [p["parallel_speedup"] for p in pairs],
            "metrics": metrics, "operations": operations}


def cold_starts(trees: dict[str, Path], workload: str, seeds: list[int]) -> dict:
    """Reference and wall seconds of ``workload``'s setup command on each
    tree, one fresh process per seed and tree, and the seeds on which the
    change was faster in reference seconds."""
    from workloads import WORKLOADS, reference_kernel, speed_factor

    template = WORKLOADS[workload][1]
    times = {side: {"reference_s": [], "wall_s": []} for side in SIDES}
    for i, seed in enumerate(seeds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            before = reference_kernel()
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", _CLI, str(trees[side] / "src"),
                            *(a.format(seed=seed) for a in template)],
                           capture_output=True, check=True, timeout=170)
            wall = time.perf_counter() - start
            times[side]["wall_s"].append(wall)
            times[side]["reference_s"].append(wall / speed_factor(before, reference_kernel()))
        print(f"{workload} seed {seed}: setup " + " -> ".join(
            f"{times[side]['reference_s'][-1]:.3f}" for side in SIDES) + " s", flush=True)
    wins = sum(c < b for b, c in zip(*(times[side]["reference_s"] for side in SIDES)))
    return {"command": " ".join(template), "seeds": seeds, "first": [SIDES[i % 2] for i in range(len(seeds))],
            **{side: {unit: {**spread(v), "samples": v} for unit, v in times[side].items()}
               for side in SIDES},
            "change_wins": wins}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="source tree of the parent")
    parser.add_argument("--change", type=Path, required=True, help="source tree of the change")
    parser.add_argument("--workload", action="append", required=True, help="repeat for several")
    parser.add_argument("--seeds", required=True, help="for example 401-410 or 401,403")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--cold-starts", action="store_true",
                        help="time only each workload's setup command, once per seed and tree")
    args = parser.parse_args(argv)

    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    if args.cold_starts:
        # the setup commands and the reference kernel, as the change tree runs them
        sys.path[:0] = [str(trees["change"] / "benchmark"), str(trees["change"] / "src")]
        entry = out.setdefault("cold_starts", {})
        for workload in args.workload:
            entry[workload] = cold_starts(trees, workload, parse_seeds(args.seeds))
            entry[workload]["trees"] = {side: tree_state(trees[side]) for side in SIDES}
            args.out.write_text(json.dumps(out, indent=1) + "\n")
        return 0
    out.update({
        "command": "benchmark/run.py --workload W --seed S --seconds "
                   f"{seconds:g} --trace 0",
        "trees": {side: tree_state(trees[side]) for side in SIDES},
    })
    workloads = out.setdefault("workloads", {})
    for workload in args.workload:
        pairs = []
        for i, seed in enumerate(parse_seeds(args.seeds)):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0], "parallel_speedup": parallel_speedup()}
            for side in order:
                pair[side] = run_once(trees[side], workload, seed, seconds)
            pairs.append(pair)
            print(f"{workload} seed {seed} (parallel speedup {pair['parallel_speedup']:.2f}): " + ", ".join(
                f"{m} {pair['base']['metrics'][m]['value']:.4g} -> {pair['change']['metrics'][m]['value']:.4g}"
                for m in better), flush=True)
        workloads[workload] = summarise(pairs, better)
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
