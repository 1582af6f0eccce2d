"""The benchmark's workloads over dividend2d.

Each workload repeats whole rounds of the same operations until the run
length has passed, times only the calls into the library, and checks the
outputs outside the timed part.  Inputs come from the run's ``--seed``
through NumPy seed sequences; the library sees only the generated
inputs.  Every workload reports the same two end-to-end figures:

* ``rate_per_s``: its cheap repeated operation per second (Monte Carlo
  paths, closed-form valuations, or series points at a cached barrier);
* ``time_to_answer_s``: seconds to its user-level answer (Monte Carlo:
  wall time per path times the paths needed for the stated standard
  error; quadrature: one valuation; series: one fresh 144-cell sweep).

Timings are given in reference seconds.  The benchmark was tuned on a
shared 2-vCPU Xeon virtual machine whose speed drifted by up to 1.7x
over tens of seconds, so a fixed reference kernel (plain Python and
NumPy, no dividend2d) is timed before and after every timed section, and
the section's wall time is scaled by ``REFERENCE_S`` over the kernel's
mean time.  A reference second is a
wall second while the kernel takes ``REFERENCE_S``.  Raw wall times and
the speed factors go to the record.

See README.md for why each workload exists and which layer it stresses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from dividend2d import barrier, gammas, impulse, optimize, simulate, tables
from dividend2d.impulse import ImpulseSpec
from dividend2d.model import BarrierSpec, ExponentialClaims, ModelParams, Reserves
from dividend2d.simulate import SimConfig, default_max_time

from refsim import reference_barrier_mean

PARAMS = tables.TABLE_PARAMS
REFERENCES = json.loads((Path(__file__).resolve().parent / "references.json").read_text())

#: agreement tolerance, in standard errors, for checks against Monte Carlo
Z_OK = 4.0
#: the known-fault checks use the 3-SE gate of the acceptance suite
Z_FAULT = 3.0
#: a fixed scale near the reference kernel's time on the 2-vCPU Xeon host
#: the benchmark was tuned on, in its common, slower state (the kernel
#: took 1.7 to 3.5 ms there)
REFERENCE_S = 0.0030


_KERNEL_IN = np.random.default_rng(0).standard_exponential(100_000)
_KERNEL_OUT = np.empty_like(_KERNEL_IN)


def reference_kernel() -> float:
    """Wall seconds of a fixed interpreter-and-NumPy kernel that shares no code
    with dividend2d; its drift measures the machine's, not the program's.

    The best of three passes, on preallocated arrays, so that the cache and
    heap state the workload leaves behind weigh little.
    """
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        s = 0.0
        for i in range(20_000):
            s += math.exp(-1e-5 * i) * 1.0001
        np.exp(np.negative(_KERNEL_IN, out=_KERNEL_OUT), out=_KERNEL_OUT)
        np.multiply(_KERNEL_OUT, _KERNEL_IN, out=_KERNEL_OUT).sum()
        best = min(best, perf_counter() - t0)
    return best


def speed_factor(before: float, after: float) -> float:
    """How much slower than ``REFERENCE_S`` the kernel ran around a section."""
    return 0.5 * (before + after) / REFERENCE_S


@dataclass
class Run:
    """One benchmark run: its inputs, timed sections, counts and checks."""

    seed: int
    seconds: float
    tracer: object | None = None
    timed_wall: float = 0.0
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    work: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    details: dict = field(default_factory=dict)
    wall_samples: list = field(default_factory=list)
    speed_samples: list = field(default_factory=list)

    def timed(self, fn, *args):
        """Call ``fn(*args)`` as a timed section; returns (result, reference seconds)."""
        before = reference_kernel()
        if self.tracer is not None:
            self.tracer.active = True
        t0 = perf_counter()
        try:
            out = fn(*args)
        finally:
            dt = perf_counter() - t0
            if self.tracer is not None:
                self.tracer.active = False
        speed = speed_factor(before, reference_kernel())
        self.timed_wall += dt
        self.wall_samples.append(dt)
        self.speed_samples.append(speed)
        return out, dt / speed

    def round_indices(self, min_rounds: int = 1):
        """Whole rounds until the run length has passed (at least ``min_rounds``)."""
        start = perf_counter()
        k = 0
        while k < min_rounds or perf_counter() - start < self.seconds:
            yield k
            k += 1
            self.rounds = k

    def rng(self, *tags: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *tags])

    def master_seed(self, *tags: int) -> int:
        return int(np.random.SeedSequence([self.seed, *tags]).generate_state(1)[0])

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def known_fault(self, name: str, value: float, ref: dict) -> None:
        """One operation per round that fails until the named fault is mended."""
        z = (value - ref["mean"]) / ref["se"]
        self.attempted += 1
        if abs(z) > Z_FAULT:
            self.failed += 1
        self.details.setdefault("known_faults", {})[name] = {
            "value": value, "mc_mean": ref["mean"], "mc_se": ref["se"], "z": z,
            "failed": abs(z) > Z_FAULT,
        }


def _pool(estimates) -> tuple[float, float, float]:
    """Mean, standard error and variance of D over equal-sized estimates."""
    n = sum(e.n_paths for e in estimates)
    m1 = sum(e.moments[1][0] for e in estimates) / len(estimates)
    m2 = sum(e.moments[2][0] for e in estimates) / len(estimates)
    var = max(m2 - m1 * m1, 0.0)
    return m1, math.sqrt(var / n), var


def _mc_rounds(run: Run, tag: int, estimate, batch: int, check_batches: int, target_se: float):
    """Repeat ``estimate(cfg)`` on fresh master seeds.

    The first ``check_batches`` estimates form the checked estimate, so it
    is the same for a seed however long the run; the run makes at least
    that many.  The variance behind ``time_to_answer_s`` pools every
    estimate of the run.
    """
    per_path, done = [], []
    for k in run.round_indices(check_batches):
        cfg = SimConfig(batch, run.master_seed(tag, k), moment_orders=(1, 2))
        est, dt = run.timed(estimate, cfg)
        run.attempted += 1
        per_path.append(dt / batch)
        done.append(est)
    run.work["mc_paths"] = batch * run.rounds
    mean, se, _ = _pool(done[:check_batches])
    var = _pool(done)[2]
    censored = sum(e.n_censored for e in done)
    bias = max(e.truncation_bias_bound for e in done)
    sec_per_path = median(per_path)
    run.details.update(
        mc_mean=mean, mc_se=se, mc_checked_paths=batch * check_batches, mc_sd=math.sqrt(var),
        mc_censored=censored, mc_max_bias_bound=bias, target_se=target_se,
    )
    metrics = {
        "rate_per_s": 1.0 / sec_per_path,
        "time_to_answer_s": var / target_se**2 * sec_per_path,
    }
    return metrics, mean, se, censored, bias


# ---------------------------------------------------------------------------
# barrier Monte Carlo

BARRIER_BATCH = 16384
BARRIER_CHECK_BATCHES = 8


def _barrier_mc(run: Run, tag: int, u: Reserves, a: float, b: float, target_se: float):
    bar = BarrierSpec.reflection(a, b, PARAMS)

    def estimate(cfg):
        return simulate.estimate_barrier_moments(u, bar, PARAMS, cfg)

    return bar, _mc_rounds(run, tag, estimate, BARRIER_BATCH, BARRIER_CHECK_BATCHES, target_se)


def barrier_long(run: Run) -> dict:
    """Table-1 argmax: about 25 claims per path, never censored."""
    u = Reserves(1.0, 2.0)
    bar, (metrics, mean, se, censored, bias) = _barrier_mc(run, 1, u, 0.1, 14.0, target_se=0.01)
    series = barrier.v1_barrier(u, bar, PARAMS).value
    z = (mean - series) / se
    run.check("mc_vs_series", abs(z) <= Z_OK, f"MC {mean:.6f} +- {se:.6f} vs series {series:.6f}, z={z:+.2f}")
    run.check("no_censoring", censored == 0, f"{censored} censored paths")
    run.check("truncation_bias", bias <= 1e-4, f"largest truncation_bias_bound {bias:.3g}")
    return metrics


def barrier_short(run: Run) -> dict:
    """Table-3 barrier: about 0.9 claims per path, checked by the scalar simulator."""
    u, a, b = Reserves(0.4, 0.6), 0.9, 1.8
    bar, (metrics, mean, se, censored, bias) = _barrier_mc(run, 2, u, a, b, target_se=0.002)
    alpha = PARAMS.claims.rate
    ref, ref_se = reference_barrier_mean(
        u.u1, u.u2, a, b, PARAMS.c1, PARAMS.c2, PARAMS.lam, alpha, PARAMS.q,
        default_max_time(PARAMS, bar.delta0), 400_000, run.master_seed(2, 10**6),
    )
    z = (mean - ref) / math.hypot(se, ref_se)
    run.check(
        "mc_vs_reference_simulator", abs(z) <= Z_OK,
        f"MC {mean:.6f} +- {se:.6f} vs scalar reference {ref:.6f} +- {ref_se:.6f}, z={z:+.2f}",
    )
    run.check("truncation_bias", bias <= 1e-4, f"largest truncation_bias_bound {bias:.3g}")
    return metrics


# ---------------------------------------------------------------------------
# impulse

IMPULSE_SPEC = ImpulseSpec(3.0, 2.0, 0.5)
IMPULSE_BATCH = 2048
IMPULSE_CHECK_BATCHES = 16


def impulse_mc(run: Run) -> dict:
    """Impulse Monte Carlo at (3, 2, K=0.5) against the closed form."""

    def estimate(cfg):
        return simulate.estimate_impulse_moments(IMPULSE_SPEC, PARAMS, cfg)

    metrics, mean, se, censored, _ = _mc_rounds(
        run, 3, estimate, IMPULSE_BATCH, IMPULSE_CHECK_BATCHES, target_se=0.03
    )
    closed = impulse.impulse_v1_high(IMPULSE_SPEC, PARAMS).value
    z = (mean - closed) / se
    run.check("mc_vs_closed_form", abs(z) <= Z_OK, f"MC {mean:.5f} +- {se:.5f} vs closed form {closed:.5f}, z={z:+.2f}")
    run.check("no_censoring", censored == 0, f"{censored} censored paths")
    return metrics


QUAD_U2, QUAD_K = 2.0, 0.5
QUAD_U1 = (0.0, 0.5, 1.0, 1.5, 2.0)
CLOSED_CALLS, CLOSED_CHUNK = 4000, 250


def _value_all(fn, specs):
    return [fn(s, PARAMS) for s in specs]


def impulse_routes(run: Run) -> dict:
    """Quadrature on a u1 grid below u2, and many closed-form valuations."""
    quad_wall = {u1: 0.0 for u1 in QUAD_U1 if u1 > 0.0}
    quad_speed = dict(quad_wall)
    closed_rates = []
    c1, lam, q = PARAMS.c1, PARAMS.lam, PARAMS.q
    seam = impulse.impulse_v1_high(ImpulseSpec(QUAD_U2 + 1e-6, QUAD_U2, QUAD_K), PARAMS).value
    bad_closed = 0
    for k in run.round_indices():
        vals = []
        for u1 in QUAD_U1:
            val, dt = run.timed(impulse.impulse_v1_low, ImpulseSpec(u1, QUAD_U2, QUAD_K), PARAMS)
            vals.append(val.value)
            if u1 > 0.0:
                quad_wall[u1] += run.wall_samples[-1]
                quad_speed[u1] += run.speed_samples[-1]
        run.work["quad_valuations"] = run.work.get("quad_valuations", 0) + len(quad_wall)

        rng = run.rng(4, k)
        u2s = rng.uniform(0.5, 4.0, CLOSED_CALLS)
        u1s = u2s + rng.uniform(0.01, 4.0, CLOSED_CALLS)
        specs = [ImpulseSpec(x, y, QUAD_K) for x, y in zip(u1s.tolist(), u2s.tolist())]
        for c in range(0, CLOSED_CALLS, CLOSED_CHUNK):
            outs, dt = run.timed(_value_all, impulse.impulse_v1_high, specs[c : c + CLOSED_CHUNK])
            closed_rates.append(CLOSED_CHUNK / dt)
            bad_closed += sum(
                not (0.0 <= v.p < 1.0 and v.value > 0.0 and abs(v.value - v.A / (1.0 - v.p)) <= 1e-12 * v.value)
                for v in outs
            )
        run.attempted += len(QUAD_U1) + CLOSED_CALLS
        run.known_fault("impulse_low_vs_mc", vals[QUAD_U1.index(1.0)], REFERENCES["impulse_low_vs_mc"])

    v0 = c1 / (q + lam)
    run.check("v_at_zero", abs(vals[0] - v0) <= 1e-12 * v0, f"V(0,{QUAD_U2}) = {vals[0]!r}, c1/(q+lam) = {v0!r}")
    run.check(
        "rises_with_u1", all(x < y for x, y in zip(vals, vals[1:])),
        "V(u1, 2) at u1 = " + ", ".join(f"{u}: {v:.6f}" for u, v in zip(QUAD_U1, vals)),
    )
    rel = abs(vals[-1] - seam) / seam
    run.check("seam_u1_eq_u2", rel <= 1e-9, f"quadrature {vals[-1]!r} vs closed form {seam!r}, rel {rel:.1e}")
    run.check("closed_form_renewal", bad_closed == 0, f"{bad_closed} closed-form values break 0<=p<1, V>0, V=A/(1-p)")
    run.details["quadrature_values"] = dict(zip(map(str, QUAD_U1), vals))
    # The u1 points differ in cost, so each gets its own time, averaged over
    # the points.  A run holds only a few valuations of each, too few for a
    # median: a point's time is its total wall time over its total speed factor.
    per_valuation = sum(quad_wall[u1] / quad_speed[u1] for u1 in quad_wall) / len(quad_wall)
    return {"rate_per_s": median(closed_rates), "time_to_answer_s": per_valuation}


# ---------------------------------------------------------------------------
# barrier series

SWEEP_U = Reserves(1.0, 2.0)
GRID_A, GRID_B = 12, 12  # 144 fresh cells a round, more than sequences_for's 128
SURFACE_A, SURFACE_B = tables.TABLE1_ARGMAX
SURFACE_POINTS = 1000
P_ALPHA06 = ModelParams(c1=4.0, c2=3.0, lam=1.0, claims=ExponentialClaims(rate=0.6), q=0.1)


def _below_line(rng: np.random.Generator, n: int, a: float, b: float, lo: float, margin: float):
    """Points with lo <= u1 < 5 and u1 < u2 strictly below the line b - a*u1."""
    u1 = rng.uniform(lo, 5.0, n)
    u2 = u1 + rng.uniform(margin, 1.0 - margin, n) * (b - a * u1 - u1)
    return [Reserves(x, y) for x, y in zip(u1.tolist(), u2.tolist())]


def _surface(bar: BarrierSpec, points):
    v1 = barrier.v1_barrier
    return [v1(p, bar, PARAMS).value for p in points]


def series(run: Run) -> dict:
    """Fresh (a, b) sweeps, then a value surface at one cached barrier."""
    surface_bar = BarrierSpec.reflection(SURFACE_A, SURFACE_B, PARAMS)
    fault = REFERENCES["series_vs_mc_company2_ruin"]
    fault_u = Reserves(fault["u1"], fault["u2"])
    fault_bar = BarrierSpec.reflection(fault["a"], fault["b"], P_ALPHA06)
    sweep_s, point_rates = [], []
    errors = []
    for k in run.round_indices():
        rng = run.rng(5, k)
        a_vals = sorted(rng.uniform(0.05, 1.5, GRID_A).tolist())
        b_vals = sorted(rng.uniform(4.0, 30.0, GRID_B).tolist())
        sweep, dt = run.timed(optimize.sweep_barrier, SWEEP_U, a_vals, b_vals, PARAMS)
        sweep_s.append(dt)
        bad = [c for c in sweep.grid if c.error is not None]
        errors += [f"a={c.a!r} b={c.b!r}: {c.error}" for c in bad]
        run.attempted += len(sweep.grid)
        run.failed += len(bad)

        points = _below_line(rng, SURFACE_POINTS, SURFACE_A, SURFACE_B, 0.0, 0.01)
        gammas.sequences_for(surface_bar, PARAMS)  # the surface measures cached sequences
        _, dt = run.timed(_surface, surface_bar, points)
        point_rates.append(len(points) / dt)
        run.attempted += len(points)

        value = barrier.v1_barrier(fault_u, fault_bar, P_ALPHA06).value
        run.known_fault("series_vs_mc_company2_ruin", value, fault)

    run.check("no_sweep_errors", not errors, "; ".join(errors[:3]) or f"{run.rounds} grids of {GRID_A * GRID_B} cells")
    t1 = optimize.sweep_barrier(tables.TABLE1_RESERVES, list(tables.TABLE1_A), list(tables.TABLE1_B), PARAMS)
    run.check("table1_argmax", t1.argmax == tables.TABLE1_ARGMAX, f"argmax {t1.argmax} value {t1.argmax_value:.6f}")
    corners = [surface_bar] + [
        BarrierSpec.reflection(a, b, PARAMS) for a in (a_vals[0], a_vals[-1]) for b in (b_vals[0], b_vals[-1])
    ]
    worst = max(abs(barrier.v1_barrier(Reserves(0.0, c.b), c, PARAMS).value) for c in corners)
    run.check("corner_vanishes", worst <= 1e-6, f"max |V(0, b)| over {len(corners)} barriers = {worst:.2e}")
    lamq = PARAMS.lam + PARAMS.q
    worst_ratio = 0.0
    for p in _below_line(run.rng(5, 10**6), 4, SURFACE_A, SURFACE_B, 0.2, 0.05):
        value = barrier.v1_barrier(p, surface_bar, PARAMS).value
        res = barrier.pide_residual(p, surface_bar, PARAMS)
        worst_ratio = max(worst_ratio, abs(res) / (lamq * value))
    run.check("pide_residual", worst_ratio < 1e-4, f"max |residual| / ((lam+q) V) = {worst_ratio:.2e} (tol 1e-4)")
    return {"rate_per_s": median(point_rates), "time_to_answer_s": median(sweep_s)}


#: name -> (workload function, CLI arguments whose cold start setup_s times;
#: ``{seed}`` stands for the run's seed)
WORKLOADS = {
    "barrier-long": (barrier_long, ["simulate", "barrier", "--paths", "1024", "--seed", "{seed}", "--u1", "1", "--u2", "2", "--a", "0.1", "--b", "14"]),
    "barrier-short": (barrier_short, ["simulate", "barrier", "--paths", "1024", "--seed", "{seed}", "--u1", "0.4", "--u2", "0.6", "--a", "0.9", "--b", "1.8"]),
    "impulse-mc": (impulse_mc, ["simulate", "impulse", "--paths", "128", "--seed", "{seed}", "--u1", "3", "--u2", "2", "--cost", "0.5"]),
    "impulse-routes": (impulse_routes, ["value-impulse", "--u1", "3", "--u2", "2", "--cost", "0.5"]),
    "series": (series, ["value-barrier", "--u1", "1", "--u2", "2", "--a", "0.1", "--b", "14"]),
}
