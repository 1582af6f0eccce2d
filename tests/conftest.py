"""Shared fixtures and independent oracle helpers.

The oracles here deliberately avoid the library's closed forms: plain
interval bisection for roots, quadrature plus finite differences for
derivative identities, and small direct simulations of the tilted
dynamics.  Expected values frozen into tests were produced with these.
"""

import math
import random

import numpy as np
import pytest

from dividend2d import BarrierSpec, ExponentialClaims, ModelParams


@pytest.fixture(scope="session")
def params() -> ModelParams:
    """The example parameter set used by all benchmark tables."""
    return ModelParams(c1=4.0, c2=3.0, lam=1.0, claims=ExponentialClaims(rate=2.0), q=0.1)


@pytest.fixture(scope="session")
def barrier(params) -> BarrierSpec:
    return BarrierSpec.reflection(0.1, 14.0, params)


def bisect(f, lo: float, hi: float, tol: float = 1e-14, itmax: int = 200) -> float:
    """Plain interval bisection; the sign change is asserted, not assumed."""
    flo, fhi = f(lo), f(hi)
    assert flo * fhi < 0.0, f"no sign change on [{lo}, {hi}]"
    for _ in range(itmax):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or (hi - lo) < tol:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def tilted_horizon_survival(
    tilt, params: ModelParams, start: float, horizon: float, n_paths: int, seed: int
):
    """P(company-1 path from ``start`` stays >= 0 up to ``horizon``) and the
    surviving end levels, simulated directly under the tilted dynamics.

    Claims inside the horizon are placed as sorted uniforms given a
    Poisson count, which is an exact construction of the claim process.
    """
    rng = np.random.default_rng(seed)
    c1 = params.c1
    counts = rng.poisson(tilt.lambda_q * horizon, n_paths)
    survived = np.zeros(n_paths, dtype=bool)
    end_level = np.empty(n_paths)
    for i in range(n_paths):
        n = counts[i]
        if n == 0:
            survived[i] = True
            end_level[i] = start + c1 * horizon
            continue
        times = np.sort(rng.random(n)) * horizon
        sizes = rng.exponential(1.0 / tilt.alpha_q, n)
        levels = start + c1 * times - np.cumsum(sizes)
        if np.all(levels >= 0.0):
            survived[i] = True
            end_level[i] = start + c1 * horizon - np.sum(sizes)
    return survived, end_level


def impulse_cycle_mc(spec, params: ModelParams, n_cycles: int, seed: int):
    """Direct simulation of single impulse cycles.

    Returns arrays (discount, tau_weight) per cycle: ``discount`` is
    e^{-q(e + tau)} on completed cycles (else 0), ``tau_weight`` is
    tau * e^{-q tau} on completed cycles (else 0).  Their means estimate
    p/(lam/(q+lam)) and the crossing-time integral respectively.
    """
    rng = np.random.default_rng(seed)
    lam, q, c2 = params.lam, params.q, params.c2
    alpha = params.claims.rate
    mn = min(spec.u1, spec.u2)
    gap = spec.u2 - spec.u1
    slope = params.c1 - params.c2
    disc = np.zeros(n_cycles)
    tauw = np.zeros(n_cycles)
    for i in range(n_cycles):
        e = rng.exponential(1.0 / lam)
        x = rng.exponential(1.0 / alpha)
        if x > mn:
            continue
        z = spec.u2 - x
        s = 0.0
        while True:
            t_reach = (spec.u2 - z) / c2
            w = rng.exponential(1.0 / lam)
            if t_reach < w:
                tau = s + t_reach
                disc[i] = math.exp(-q * (e + tau))
                tauw[i] = tau * math.exp(-q * tau)
                break
            s += w
            z += c2 * w - rng.exponential(1.0 / alpha)
            if z < max(0.0, gap - slope * s):
                break
    return disc, tauw


def impulse_path_mc(spec, params: ModelParams, n_paths: int, seed: int) -> list[float]:
    """Direct simulation of whole impulse paths, one cycle after another
    until one ends in ruin; returns each path's discounted payout D.

    Plain Python on ``random.Random``: it shares neither the library's
    streams nor its event code, and it does not use ``V1 = A/(1-p)``.
    In each cycle company 1 pays out its premium c1 until the first
    claim; a claim above min(u1, u2) ruins, and otherwise company 2
    climbs back from u2 - x at rate c2 while claims keep arriving.  If it
    reaches u2 after tau, company 1 pays the lump (c1 - c2) tau - K then
    and the next cycle starts; it ruins first if a claim takes company 2
    below 0 or company 1 below 0, that is company 2 below gap - (c1 - c2) s.
    """
    rng = random.Random(seed)
    lam, q, c1, c2 = params.lam, params.q, params.c1, params.c2
    alpha = params.claims.rate
    mn = min(spec.u1, spec.u2)
    gap = spec.u2 - spec.u1
    out = []
    for _ in range(n_paths):
        D = t = 0.0
        ruined = False
        while not ruined:
            e = rng.expovariate(lam)
            D += c1 * (math.exp(-q * t) - math.exp(-q * (t + e))) / q
            t += e
            x = rng.expovariate(alpha)
            if x > mn:
                break
            z, s = spec.u2 - x, 0.0
            while True:
                w = rng.expovariate(lam)
                if (spec.u2 - z) / c2 < w:
                    tau = s + (spec.u2 - z) / c2
                    t += tau
                    D += ((c1 - c2) * tau - spec.K) * math.exp(-q * t)
                    break
                s += w
                z += c2 * w - rng.expovariate(alpha)
                if z < max(0.0, gap - (c1 - c2) * s):
                    ruined = True
                    break
        out.append(D)
    return out
