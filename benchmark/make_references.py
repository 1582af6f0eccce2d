"""Remake the stored Monte Carlo estimates behind the two known-fault checks.

    python3 benchmark/make_references.py      # from the repository root

Both estimates take longer than a benchmark round, so they are stored in
``references.json`` rather than run each time.  Each entry keeps its
inputs, its seed and this command.  Neither depends on the benchmark's
``--seed``, so the two checks fail identically in every run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from dividend2d.impulse import ImpulseSpec  # noqa: E402
from dividend2d.model import BarrierSpec, ExponentialClaims, ModelParams, Reserves  # noqa: E402
from dividend2d.simulate import (  # noqa: E402
    SimConfig,
    estimate_barrier_moments,
    estimate_impulse_moments,
)

COMMAND = "python3 benchmark/make_references.py"


def main() -> None:
    params = ModelParams(c1=4.0, c2=3.0, lam=1.0, claims=ExponentialClaims(rate=2.0), q=0.1)
    spec = ImpulseSpec(1.0, 2.0, 0.5)
    est = estimate_impulse_moments(spec, params, SimConfig(400_000, 9090))
    impulse_low = {
        "what": "impulse MC at (u1, u2, K) = (1, 2, 0.5), benchmark parameters",
        "u1": spec.u1, "u2": spec.u2, "K": spec.K,
        "n_paths": est.n_paths, "master_seed": 9090,
        "mean": est.moments[1][0], "se": est.moments[1][1],
        "command": COMMAND,
    }

    p06 = ModelParams(c1=4.0, c2=3.0, lam=1.0, claims=ExponentialClaims(rate=0.6), q=0.1)
    barrier = BarrierSpec.reflection(0.1, 14.0, p06)
    est = estimate_barrier_moments(Reserves(1.0, 2.0), barrier, p06, SimConfig(50_000, 2009))
    company2_ruin = {
        "what": "barrier MC at u=(1, 2), a=0.1, b=14 with alpha=0.6, q=0.1",
        "alpha": 0.6, "q": 0.1, "u1": 1.0, "u2": 2.0, "a": 0.1, "b": 14.0,
        "n_paths": est.n_paths, "master_seed": 2009,
        "mean": est.moments[1][0], "se": est.moments[1][1],
        "n_censored": est.n_censored,
        "command": COMMAND,
    }
    out = {"impulse_low_vs_mc": impulse_low, "series_vs_mc_company2_ruin": company2_ruin}
    (HERE / "references.json").write_text(json.dumps(out, indent=2) + "\n")
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
