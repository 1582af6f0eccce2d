"""Impulse-payout valuation: lump dividends resetting to a fixed point.

Whenever company 2's reserve returns to ``u2``, company 1 is cut back to
``u1`` (paying the excess minus a fixed cost ``K``) and the pair then
sits at ``(u1, u2)`` paying out company 1's premium until the next claim.
The value is a geometric renewal sum ``V1 = A / (1 - p)`` with ``A`` the
expected discounted payout of one cycle and ``p`` the expected discount
factor of a completed cycle.

For ``u1 > u2`` only company 2 can ruin and everything is closed form in
the scale function.  For ``u1 <= u2`` the first-passage race runs against
a declining lower boundary; the crossing transform is expressed under an
exponentially tilted measure through a survival functional evaluated by
quadrature over a ballot-type crossing density.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable

import numpy as np

from .model import (
    ModelParams,
    NonConvergenceError,
    ParameterError,
    require_exponential,
)
from .scale import TiltedModel, phi_inverse, scale_params


@dataclass(frozen=True)
class ImpulseSpec:
    """Reset point (u1, u2) and fixed transaction cost K per impulse."""

    u1: float
    u2: float
    K: float

    def __post_init__(self):
        v = []
        if not 0.0 <= self.u1 < math.inf:
            v.append(f"0 <= u1 < inf violated ({self.u1})")
        if not 0.0 <= self.u2 < math.inf:
            v.append(f"0 <= u2 < inf violated ({self.u2})")
        if not 0.0 < self.K < math.inf:
            v.append(f"0 < K < inf violated ({self.K})")
        if v:
            raise ParameterError(v)


class ImpulseMethod(Enum):
    CLOSED_FORM_HIGH = "closed-form-high"
    QUADRATURE_LOW = "quadrature-low"


@dataclass(frozen=True)
class ImpulseValuation:
    """Renewal decomposition of the impulse value.

    ``value = A / (1 - p)`` with ``p`` in [0, 1); ``tau_integral`` is the
    claim-averaged discounted crossing-time moment entering A.
    """

    value: float
    p: float
    A: float
    method: ImpulseMethod
    tau_integral: float


@functools.lru_cache(maxsize=None)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per n.

    The node-doubling schedules ask for a handful of n, so the cache stays
    small.  The arrays are shared by every caller, so they are read-only.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


_ROUNDING_RTOL = 1e-13
# absolute tolerances: survival functional, ballot convolution (a hundred
# times looser, as it sits inside the functional's integrand), claim average
_V_Q_TOL = 1e-8
_BALLOT_TOL = 1e-6
_CLAIM_TOL = 1e-8


def _gauss_nodes(n: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    x, w = _leggauss(n)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * x, half * w


def _doubling(rule: Callable[[int], float | np.ndarray], tol: float, n0: int = 16):
    """``(rule(n), n)`` at the first of ``n0, 2*n0, ...`` that has converged.

    Converged means every element moved from the previous rule by at most
    ``tol`` (absolute) or ``_ROUNDING_RTOL`` of its size, below which
    rounding decides the difference whatever the node count.  Six
    doublings at most; raises on non-convergence.
    """
    n = n0
    prev = rule(n)
    for _ in range(6):
        n *= 2
        cur = rule(n)
        d = abs(cur - prev)
        ok = (d <= tol) | (d <= _ROUNDING_RTOL * abs(cur))
        # scalar rules give a plain bool, which skips NumPy's dispatch
        if ok is True or np.all(ok):
            return cur, n
        prev = cur
    raise NonConvergenceError(f"node doubling not within {tol} at {n} nodes")


def adaptive_gauss(
    f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, tol: float, n0: int = 16
) -> float:
    """Integrate a vectorized smooth integrand by Gauss-Legendre node doubling."""
    if hi <= lo:
        return 0.0

    def rule(n: int) -> float:
        x, w = _gauss_nodes(n, lo, hi)
        return float(np.sum(w * f(x)))

    return _doubling(rule, tol, n0)[0]


def _renewal(
    p: float,
    tau_integral: float,
    spec: ImpulseSpec,
    params: ModelParams,
    method: ImpulseMethod,
) -> ImpulseValuation:
    """``V1 = A / (1 - p)`` from the cycle discount factor and crossing moment."""
    if not 0.0 <= p < 1.0:
        raise NonConvergenceError(f"cycle discount factor p={p} outside [0, 1)")
    c1, c2, lam, q = params.c1, params.c2, params.lam, params.q
    A = c1 / (q + lam) - spec.K * p + lam * (c1 - c2) / (q + lam) * tau_integral
    if A < 0.0:
        warnings.warn(
            f"per-cycle payout A={A:.6g} is negative (cost K={spec.K} exceeds"
            " the expected cycle income); dividends run at a loss",
            stacklevel=3,
        )
    return ImpulseValuation(
        value=A / (1.0 - p), p=p, A=A, method=method, tau_integral=tau_integral
    )


# ---------------------------------------------------------------------------
# u1 > u2: closed form

def impulse_v1_high(spec: ImpulseSpec, params: ModelParams) -> ImpulseValuation:
    """Closed-form valuation for ``u1 > u2``.

    Between impulses company 2 must climb back from ``u2 - x`` to ``u2``
    before ruining; the discounted crossing transform and its q-derivative
    (for the crossing-time moment) are two-sided exit identities in the
    scale function, integrated against the claim density in closed form.
    """
    alpha = require_exponential(params.claims).rate
    if not spec.u1 > spec.u2:
        raise ParameterError(
            [f"closed form needs u1 > u2, got ({spec.u1}, {spec.u2}); use the quadrature case"]
        )
    sp = scale_params(params)
    c2, lam, q, u2 = params.c2, params.lam, params.q, spec.u2
    qp, qm = sp.q_plus, sp.q_minus
    w_u2 = sp.w_q(u2)

    # H = int_0^{u2} W(u2 - x) alpha e^{-alpha x} dx * (c2/alpha)
    H = (math.exp(qp * u2) - math.exp(qm * u2)) / (qp - qm)
    p = lam * alpha * H / (c2 * (q + lam) * w_u2)

    # E_pm = int e^{q_pm (u2-x)} alpha e^{-alpha x} dx / alpha,
    # J_pm the same with an extra (u2 - x) factor (from d/dq of exponents)
    Ep = (math.exp(qp * u2) - math.exp(-alpha * u2)) / (qp + alpha)
    Em = (math.exp(qm * u2) - math.exp(-alpha * u2)) / (qm + alpha)
    Jp = u2 * math.exp(qp * u2) / (qp + alpha) - Ep / (qp + alpha)
    Jm = u2 * math.exp(qm * u2) / (qm + alpha) - Em / (qm + alpha)
    dnum = (alpha / c2) * (
        sp.dA_plus * Ep
        - sp.dA_minus * Em
        + sp.dq_plus * sp.A_plus * Jp
        - sp.dq_minus * sp.A_minus * Jm
    )
    tau_integral = sp.dw_dq(u2) / w_u2**2 * (alpha / c2) * H - dnum / w_u2
    return _renewal(p, tau_integral, spec, params, ImpulseMethod.CLOSED_FORM_HIGH)


# ---------------------------------------------------------------------------
# u1 <= u2: tilted-measure quadrature

def erlang_mixture_density(j: int, t, x, tilt: TiltedModel, params: ModelParams):
    """Density of the scaled tilted aggregate claims ``S(t)/c_j`` at x.

    A Poisson(``mu = lambda_q t``) mixture of Erlang densities with rate
    ``beta = alpha_q * c_j``.  The sum has the closed form
    ``beta sqrt(mu / (beta x)) I1(2 sqrt(mu beta x)) exp(-mu - beta x)``,
    evaluated with the exponentially scaled Bessel function ``i1e``; what
    remains of the exponent is ``-(sqrt(mu) - sqrt(beta x))**2 <= 0``, so
    nothing overflows.  The zero-claims atom (mass ``exp(-lambda_q t)`` at
    x = 0) is excluded; callers account for it explicitly.  Vectorized over
    ``t`` and ``x``.
    """
    if j not in (1, 2):
        raise ValueError(f"company index must be 1 or 2, got {j}")
    cj = params.c1 if j == 1 else params.c2
    beta = tilt.alpha_q * cj
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    t_b, x_b = np.broadcast_arrays(t, x)
    out = np.zeros(t_b.shape)
    mask = (t_b > 0.0) & (x_b > 0.0)
    if np.any(mask):
        # SciPy is loaded here, on first use, so the routes that never
        # reach this quadrature start without it
        from scipy.special import i1e

        s = np.sqrt(tilt.lambda_q * t_b[mask])
        r = np.sqrt(beta * x_b[mask])
        out[mask] = beta * (s / r) * i1e(2.0 * s * r) * np.exp(-((s - r) ** 2))
    if out.ndim == 0:
        return float(out)
    return out


def tilted_ruin_probability(z, tilt: TiltedModel, params: ModelParams):
    """Ruin probability of the tilted single-company surplus from level z."""
    z = np.asarray(z, dtype=float)
    if np.any(z < 0.0):
        raise ValueError("ruin probability domain is z >= 0")
    c2 = params.c2
    rho = tilt.lambda_q / (c2 * tilt.alpha_q)
    out = rho * np.exp(-(tilt.alpha_q - tilt.lambda_q / c2) * z)
    return float(out) if out.ndim == 0 else out


def ballot_crossing_density(
    z,
    R: float,
    v: float,
    tilt: TiltedModel,
    params: ModelParams,
):
    """Density in z of surviving to R with company 1 at level z.

    Company 1 starts at ``c1*v`` and must stay nonnegative up to the
    horizon R under the tilted dynamics.  The unrestricted density is
    corrected by paths that touched zero: an explicit no-claims-after-
    touch term plus a crossing-time convolution with a ballot weight.
    All three pieces are densities of the scaled aggregate-claims
    variable, so the change to the z variable carries a 1/c1 factor.

    Vectorized over z; the convolution uses node-doubling quadrature
    with absolute tolerance ``_BALLOT_TOL``.
    """
    if R <= 0.0:
        raise ValueError(f"horizon R must be positive, got {R}")
    if v < 0.0:
        raise ValueError(f"start scale v must be nonnegative, got {v}")
    c1 = params.c1
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    phi_z = v - z_arr / c1 + R
    if np.any(phi_z < -1e-12):
        raise ValueError("z beyond the no-claims maximum: phi(z) < 0")
    phi_z = np.maximum(phi_z, 0.0)

    dens = erlang_mixture_density(1, R, phi_z, tilt, params)
    inside = z_arr / c1 < R
    if np.any(inside):
        t2 = np.zeros_like(z_arr)
        t2[inside] = np.exp(-tilt.lambda_q * z_arr[inside] / c1) * erlang_mixture_density(
            1, R - z_arr[inside] / c1, phi_z[inside], tilt, params
        )
        dens = dens - t2

    conv = np.zeros_like(z_arr)
    has_conv = phi_z > v + 1e-15
    if np.any(has_conv):
        zs = z_arr[has_conv]
        ps = phi_z[has_conv]

        def conv_at(n: int) -> np.ndarray:
            # nodes w in (v, phi(z)) per z, all evaluated in one batch
            xg, wg = _leggauss(n)
            half = 0.5 * (ps - v)
            w_nodes = (v + half)[:, None] + half[:, None] * xg[None, :]
            weights = half[:, None] * wg[None, :]
            t_first = R + v - w_nodes
            f_first = erlang_mixture_density(1, t_first, ps[:, None] - w_nodes, tilt, params)
            f_entry = erlang_mixture_density(1, w_nodes - v, w_nodes, tilt, params)
            kern = zs[:, None] / (c1 * t_first)
            return np.sum(weights * kern * f_first * f_entry, axis=1)

        conv[has_conv] = _doubling(conv_at, _BALLOT_TOL)[0]

    out = (dens - conv) / c1
    if np.isscalar(z) or np.asarray(z).ndim == 0:
        return float(out[0])
    return out


def v_q(y: float, spec: ImpulseSpec, tilt: TiltedModel, params: ModelParams) -> float:
    """Tilted probability that the pair survives forever from level y.

    Company 2 sits at ``y`` and company 1 at ``y - (u2 - u1)``; survival
    means staying above the declining boundary (company 1 alive) until it
    hits zero at time ``R = (u2-u1)/(c1-c2)`` and above zero afterwards.
    Splitting at R turns this into the crossing density integrated
    against the one-company survival probability, plus the atom of the
    no-claims-by-R event.
    """
    gap = spec.u2 - spec.u1
    if y < gap:
        raise ParameterError([f"survival functional needs y >= u2 - u1 ({y} < {gap})"])
    if gap == 0.0:
        return 1.0 - float(tilted_ruin_probability(y, tilt, params))
    c1, c2 = params.c1, params.c2
    R = gap / (c1 - c2)
    v = (y - gap) / c1
    z_max = y + c2 * R

    def integrand(z: np.ndarray) -> np.ndarray:
        dens = ballot_crossing_density(z, R, v, tilt, params)
        return dens * (1.0 - tilted_ruin_probability(z, tilt, params))

    split = min(c1 * R, z_max)
    total = adaptive_gauss(integrand, 0.0, split, _V_Q_TOL / 2.0, n0=24)
    total += adaptive_gauss(integrand, split, z_max, _V_Q_TOL / 2.0, n0=24)
    atom = math.exp(-tilt.lambda_q * R)
    total += atom * (1.0 - float(tilted_ruin_probability(z_max, tilt, params)))
    return total


def crossing_transform(
    x: float, spec: ImpulseSpec, tilt: TiltedModel, params: ModelParams
) -> float:
    """Discounted transform of reaching u2 before ruin after a claim of x.

    Identity under the tilted measure: ``e^{-phi x} V^q(u2-x) / V^q(u2)``.
    """
    return (
        math.exp(-tilt.phi * x)
        * v_q(spec.u2 - x, spec, tilt, params)
        / v_q(spec.u2, spec, tilt, params)
    )


def _transform_claim_integral(
    qq: float, spec: ImpulseSpec, params: ModelParams, n_nodes: int
) -> float:
    """int_0^{u1} crossing_transform(x) alpha e^{-alpha x} dx at discount qq.

    The upper limit is u1: a first claim larger than u1 ruins company 1
    immediately, so larger claims cannot contribute a completed cycle.
    """
    alpha = require_exponential(params.claims).rate
    tilt = phi_inverse(replace(params, q=qq))
    v_u2 = v_q(spec.u2, spec, tilt, params)
    x, w = _gauss_nodes(n_nodes, 0.0, spec.u1)
    vals = np.array(
        [
            math.exp(-tilt.phi * xi) * v_q(spec.u2 - xi, spec, tilt, params) / v_u2
            for xi in x
        ]
    )
    return float(np.sum(w * vals * alpha * np.exp(-alpha * x)))


def impulse_v1_low(spec: ImpulseSpec, params: ModelParams) -> ImpulseValuation:
    """Quadrature valuation for ``u1 <= u2``.

    The crossing-time moment has no closed q-derivative here; it is taken
    by central differences in q of step ``h = 1e-4 * q`` of the
    claim-averaged crossing transform, Richardson-extrapolated once,
    rebuilding the tilted dynamics at each shifted discount rate.  The
    claim-quadrature node count is fixed by doubling at the base rate and
    reused at every q so the difference quotient is not polluted by node
    changes.
    """
    require_exponential(params.claims)
    if not spec.u1 <= spec.u2:
        raise ParameterError(
            [f"quadrature case needs u1 <= u2, got ({spec.u1}, {spec.u2}); use the closed form"]
        )
    method = ImpulseMethod.QUADRATURE_LOW
    if spec.u1 == 0.0:
        # every claim ruins company 1 at once: a single half-open cycle
        return _renewal(0.0, 0.0, spec, params, method)

    lam, q = params.lam, params.q
    base, n_nodes = _doubling(
        lambda n: _transform_claim_integral(q, spec, params, n), _CLAIM_TOL
    )
    h = 1e-4 * q
    at = lambda qq: _transform_claim_integral(qq, spec, params, n_nodes)
    d_h = (at(q + h) - at(q - h)) / (2.0 * h)
    d_h2 = (at(q + h / 2.0) - at(q - h / 2.0)) / h
    tau_integral = -(4.0 * d_h2 - d_h) / 3.0
    return _renewal(lam / (q + lam) * base, tau_integral, spec, params, method)


def value_impulse(spec: ImpulseSpec, params: ModelParams) -> ImpulseValuation:
    """Dispatch on the reset-point geometry."""
    if spec.u1 > spec.u2:
        return impulse_v1_high(spec, params)
    return impulse_v1_low(spec, params)
