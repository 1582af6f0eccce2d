#!/usr/bin/env python3
"""Check that two source trees print and write the same bytes.

    python3 scripts/same_outputs.py --base ../parent --change .

Runs one fixed list of CLI commands (``COMMANDS``) on each tree, with
``<tree>/src`` first on the import path.  Each command runs in a temporary
directory of its own, so a ``wrote <file>`` line names the same relative
file on both sides.  Its stdout, stderr and exit code are saved there next
to the files it writes.  Every file of every command is then compared
between the trees; each difference is printed and the script exits 1 if
there is one, 0 if there is none.  Use it for changes meant to leave every
printed number as it was.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

#: runs ``dividend2d.cli.main`` on ``argv[2:]`` with ``argv[1]`` first on the path
_CLI = ("import sys; sys.path.insert(0, sys.argv[1]); "
        "from dividend2d.cli import main; sys.exit(main(sys.argv[2:]))")

_SIM = ["--paths", "20000", "--moments", "1,2"]

#: (name, argv) of every command compared
COMMANDS = [
    ("table1", ["table", "1", "--out", "table1.csv"]),
    ("table2", ["table", "2", "--out", "table2.csv"]),
    ("table3", ["table", "3", "--out", "table3.csv"]),
    ("validate", ["validate"]),
    ("validate-dump", ["validate", "--dump-gammas", "gammas.csv"]),
    ("validate-slopes", ["validate", "--a-values", "0.05,0.3,0.9,1.4", "--b", "6"]),
    ("optimize-table-grid", ["optimize", "--u1", "1", "--u2", "2", "--a-grid", "0.1,0.2,0.5,1",
                             "--b-grid", "6,8,14,15,20,28", "--out", "sweep.csv"]),
    ("optimize-alpha0.6", ["optimize", "--u1", "1", "--u2", "2", "--a-grid", "0.05,0.15,0.3,0.7",
                           "--b-grid", "5,9,12,17,24", "--alpha", "0.6", "--out", "sweep.csv"]),
    # sweeps through each error path: a slope whose step fails beside a primed
    # seed that overflows first (exit 2), every cell cancelling below its
    # rounding (exit 3), and no barrier (a >= c2, a NaN slope) or a start
    # above the line beside a valid cell
    ("optimize-c1e100", ["optimize", "--u1", "1", "--u2", "2", "--a-grid", "0.1",
                         "--b-grid", "14,800", "--c1", "1e100", "--out", "sweep.csv"]),
    ("optimize-q1e-16", ["optimize", "--u1", "1", "--u2", "2", "--a-grid", "0.1,0.2,0.5,1",
                         "--b-grid", "6,14,28", "--q", "1e-16", "--out", "sweep.csv"]),
    ("optimize-invalid", ["optimize", "--u1", "1", "--u2", "2", "--a-grid", "0.1,3,3.5,nan",
                          "--b-grid", "1.5,14", "--out", "sweep.csv"]),
    ("value-barrier-table1", ["value-barrier", "--u1", "1", "--u2", "2", "--a", "0.1", "--b", "14"]),
    ("value-barrier-table3", ["value-barrier", "--u1", "0.4", "--u2", "0.6", "--a", "0.9",
                              "--b", "1.8"]),
    ("value-barrier-far", ["value-barrier", "--u1", "1", "--u2", "2", "--a", "0.1", "--b", "800"]),
    # error paths: a series that cancels below its rounding (exit 3), an exponent
    # step that fails (exit 3), and a primed seed exp(g2*b) that overflows before
    # that step's failure is reported (exit 2)
    *((f"value-barrier-{name}", ["value-barrier", "--u1", "1", "--u2", "2", "--a", "0.1", *flags])
      for name, flags in (("q1e-16", ["--b", "14", "--q", "1e-16"]),
                          ("c1e100", ["--b", "14", "--c1", "1e100"]),
                          ("c1e100-far", ["--b", "800", "--c1", "1e100"]))),
    ("value-impulse", ["value-impulse", "--u1", "3", "--u2", "2", "--cost", "0.5"]),
    ("value-impulse-below", ["value-impulse", "--u1", "1", "--u2", "2", "--cost", "0.5"]),
    # the quadrature across u1 < u2, at the seam u1 = u2, and at another claim rate
    *((f"value-impulse-below-{u1}", ["value-impulse", "--u1", u1, "--u2", "2", "--cost", "0.5"])
      for u1 in ("0.5", "1.5", "1.999")),
    ("value-impulse-seam", ["value-impulse", "--u1", "2", "--u2", "2", "--cost", "0.5"]),
    ("value-impulse-below-alpha0.6", ["value-impulse", "--u1", "1", "--u2", "2", "--cost", "0.5",
                                      "--alpha", "0.6"]),
    ("value-impulse-below-q0.02", ["value-impulse", "--u1", "1", "--u2", "2", "--cost", "0.5",
                                   "--q", "0.02"]),
    ("value-impulse-below-alpha5", ["value-impulse", "--u1", "0.5", "--u2", "2", "--cost", "0.5",
                                    "--alpha", "5"]),
    # a wide gap valued in many passes, and a claim interval so short that
    # both differences in q are zero
    ("value-impulse-below-wide", ["value-impulse", "--u1", "0.05", "--u2", "4", "--cost", "0.5"]),
    ("value-impulse-below-1e-12", ["value-impulse", "--u1", "1e-12", "--u2", "2", "--cost", "0.5"]),
    # error paths: c1 so close to c2 that the node rules miss the crossing
    # density, and a horizon (R = 1e5) at which they do not converge
    *((f"value-impulse-below-c1-{c1}", ["value-impulse", "--u1", "1", "--u2", "2", "--cost", "0.5",
                                        "--c1", c1])
      for c1 in ("3.000001", "3.00001")),
    ("simulate-barrier", ["simulate", "barrier", *_SIM, "--seed", "7", "--u1", "1", "--u2", "2",
                          "--a", "0.1", "--b", "14", "--trace", "path.csv"]),
    ("simulate-barrier-table3", ["simulate", "barrier", *_SIM, "--seed", "7", "--u1", "0",
                                 "--u2", "0.2", "--a", "0.9", "--b", "1.8", "--trace", "path.csv"]),
    ("simulate-barrier-horizon", ["simulate", "barrier", *_SIM, "--seed", "7", "--u1", "1",
                                  "--u2", "2", "--a", "0.1", "--b", "14", "--max-time", "3"]),
    # a horizon that censors 17,647 of the 20,000 paths, below the line and
    # in the payout set
    ("simulate-barrier-table3-horizon", ["simulate", "barrier", *_SIM, "--seed", "7", "--u1", "0.4",
                                         "--u2", "0.6", "--a", "0.9", "--b", "1.8",
                                         "--max-time", "0.5"]),
    # error paths: a horizon at t = 0, rejected before the trace is written,
    # and a horizon given to impulse paths, which have none
    ("simulate-barrier-horizon0", ["simulate", "barrier", *_SIM, "--seed", "7", "--u1", "1",
                                   "--u2", "2", "--a", "0.1", "--b", "14", "--max-time", "0",
                                   "--trace", "path.csv"]),
    ("simulate-impulse-horizon", ["simulate", "impulse", *_SIM, "--seed", "9", "--u1", "3",
                                  "--u2", "2", "--cost", "0.5", "--max-time", "5"]),
    # a set where the payout drift used to round into sliding along the line,
    # and c1 + 1 rounding to c1, which leaves company 1 no drain (exit 2)
    ("simulate-barrier-rounding", ["simulate", "barrier", *_SIM, "--seed", "7", "--c1",
                                   "3.8142564242796815", "--c2", "3.0561574969534915",
                                   "--u1", "1", "--u2", "2", "--a", "2.53614303382828",
                                   "--b", "6"]),
    ("simulate-barrier-c1e100", ["simulate", "barrier", *_SIM, "--seed", "7", "--u1", "1",
                                 "--u2", "2", "--a", "0.1", "--b", "14", "--c1", "1e100"]),
    ("simulate-barrier-alpha0.6", ["simulate", "barrier", *_SIM, "--seed", "7", "--u1", "1",
                                   "--u2", "2", "--a", "0.1", "--b", "14", "--alpha", "0.6"]),
    ("simulate-barrier-u1-above-u2", ["simulate", "barrier", *_SIM, "--seed", "7", "--u1", "3",
                                      "--u2", "2", "--a", "0.1", "--b", "14"]),
    ("simulate-impulse", ["simulate", "impulse", *_SIM, "--seed", "9", "--u1", "3", "--u2", "2",
                          "--cost", "0.5"]),
    ("simulate-impulse-below", ["simulate", "impulse", *_SIM, "--seed", "9", "--u1", "1",
                                "--u2", "2", "--cost", "0.5"]),
    # lumps below 0, and other claims from below the diagonal
    ("simulate-impulse-cost50", ["simulate", "impulse", *_SIM, "--seed", "9", "--u1", "3",
                                 "--u2", "2", "--cost", "50"]),
    ("simulate-impulse-alpha0.6", ["simulate", "impulse", *_SIM, "--seed", "9", "--u1", "1",
                                   "--u2", "2", "--cost", "0.5", "--alpha", "0.6"]),
    # a single path, a block of 100 paths, and an estimate of four blocks
    *((f"simulate-impulse-{n}", ["simulate", "impulse", "--paths", str(n), "--moments", "1,2",
                                 "--seed", "9", "--u1", "3", "--u2", "2", "--cost", "0.5"])
      for n in (1, 100, 25_000)),
    # short paths at the table-3 barrier, on blocks whose first chunks are
    # 64, 8 and 1 columns wide
    *((f"simulate-barrier-table3-{n}", ["simulate", "barrier", "--paths", str(n), "--moments", "1,2",
                                        "--seed", "9", "--u1", "0.4", "--u2", "0.6", "--a", "0.9",
                                        "--b", "1.8"])
      for n in (1, 1024, 16_384)),
]


def run_all(tree: Path, out: Path) -> None:
    """Run every command on ``tree``, each in ``out/<name>``."""
    src = str((tree / "src").resolve())
    for name, argv in COMMANDS:
        cwd = out / name
        cwd.mkdir()
        done = subprocess.run([sys.executable, "-c", _CLI, src, *argv], cwd=cwd,
                              capture_output=True)
        (cwd / "stdout.txt").write_bytes(done.stdout)
        (cwd / "stderr.txt").write_bytes(done.stderr)
        (cwd / "exit.txt").write_text(f"{done.returncode}\n")


def differences(base: Path, change: Path) -> list[str]:
    """One line per file that is missing on one side or differs."""
    out = []
    names = {p.relative_to(base) for p in base.rglob("*") if p.is_file()}
    names |= {p.relative_to(change) for p in change.rglob("*") if p.is_file()}
    for name in sorted(names):
        x, y = base / name, change / name
        if not (x.is_file() and y.is_file()):
            out.append(f"{name}: only in {'base' if x.is_file() else 'change'}")
        elif x.read_bytes() != y.read_bytes():
            out.append(f"{name}: differs")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True, help="source tree compared against")
    ap.add_argument("--change", type=Path, required=True, help="source tree being checked")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        sides = {side: Path(tmp) / side for side in ("base", "change")}
        for side, tree in (("base", args.base), ("change", args.change)):
            sides[side].mkdir()
            run_all(tree, sides[side])
        diff = differences(sides["base"], sides["change"])
    for line in diff:
        print(line)
    print(f"{len(COMMANDS)} commands, {len(diff)} differences")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
