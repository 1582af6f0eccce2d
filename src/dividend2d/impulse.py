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

#: elements of the widest array in one pass of the survival functional,
#: the ballot convolution's entry density: levels x 48 z-nodes x 32
#: crossing nodes once both rules have doubled, so a pass takes 10 levels
_LEVEL_ELEMENTS = 1 << 14
_LEVELS_PER_PASS = _LEVEL_ELEMENTS // (2 * 24 * 2 * 16)


def _gauss_nodes(n: int, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point rule on ``[lo, hi]``; array bounds
    give one interval per row."""
    x, w = _leggauss(n)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    if np.ndim(half):
        mid, half = mid[..., None], half[..., None]
    return mid + half * x, half * w


def _doubling(
    rule: Callable[[int], float | np.ndarray], tol: float, n0: int = 16, n: int | None = None
):
    """``(rule(n), n)`` at the first of ``n0, 2*n0, ...`` that has converged.

    Converged means every element moved from the previous rule by at most
    ``tol`` (absolute) or ``_ROUNDING_RTOL`` of its size, below which
    rounding decides the difference whatever the node count.  Six
    doublings at most; raises on non-convergence.

    Given a count ``n``, it returns ``(rule(n), n)`` without doubling: the
    quadrature's shifted discount rates evaluate each rule once at the
    count the base rate's doubling chose.
    """
    if n is not None:
        return rule(n), n
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
    z, R: float, v, tilt: TiltedModel, params: ModelParams, nodes: list[int] | None = None
):
    """Density in z of surviving to R with company 1 at level z.

    Company 1 starts at ``c1*v`` and must stay nonnegative up to the
    horizon R under the tilted dynamics.  The unrestricted density is
    corrected by paths that touched zero: an explicit no-claims-after-
    touch term plus a crossing-time convolution with a ballot weight.
    All three pieces are densities of the scaled aggregate-claims
    variable, so the change to the z variable carries a 1/c1 factor.

    Vectorized over z and over the start scale v, which broadcasts with
    z: the survival functional passes one row of z-nodes and a column of
    starts, one per level of its pass.  The convolution runs over the
    first touch of zero at ``w = v + s`` for ``s`` in ``(0, g)``, with
    ``g = R - z/c1 = phi(z) - v``: its time ``R - s``, the level
    ``g - s`` climbed after it, the ballot kernel and the weights depend
    on z alone, so they are computed on z's own shape and shared by every
    start; only the entry density at ``s`` up to ``v + s`` is broadcast
    against v.  It uses node-doubling quadrature with absolute tolerance
    ``_BALLOT_TOL``, judged jointly over every z and start of the call.

    ``nodes``, a list, carries the convolution's node count: an empty list
    receives the count the doubling chose, and a list holding a count has
    the rule evaluated once at that count, without doubling.
    """
    if R <= 0.0:
        raise ValueError(f"horizon R must be positive, got {R}")
    v_arr = np.asarray(v, dtype=float)
    if np.any(v_arr < 0.0):
        raise ValueError(f"start scale v must be nonnegative, got {v_arr.min()}")
    c1 = params.c1
    z_own = np.asarray(z, dtype=float)
    z_arr, v_arr = np.broadcast_arrays(z_own, v_arr)
    shape = z_arr.shape
    z_arr, v_arr = z_arr.ravel(), v_arr.ravel()
    phi_z = v_arr - z_arr / c1 + R
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

    # z's own elements, as the trailing axes of the broadcast shape, and
    # one row of starts for each
    z_own = np.broadcast_to(z_own, shape[len(shape) - z_own.ndim:]).ravel()
    v_rows = v_arr.reshape(-1, z_own.size)
    g = R - z_own / c1
    has_conv = g > 1e-15
    conv = np.zeros(v_rows.shape)
    if np.any(has_conv):
        zs = z_own[has_conv, None]
        half = 0.5 * g[has_conv, None]
        vs = v_rows[:, has_conv, None]

        def conv_at(n: int) -> np.ndarray:
            xg, wg = _leggauss(n)
            s = half * (1.0 + xg)
            t_first = R - s
            first = (
                half * wg
                * (zs / (c1 * t_first))
                * erlang_mixture_density(1, t_first, half * (1.0 - xg), tilt, params)
            )
            return np.sum(first * erlang_mixture_density(1, s, vs + s, tilt, params), axis=-1)

        conv[:, has_conv], n = _doubling(conv_at, _BALLOT_TOL, n=nodes[0] if nodes else None)
        if nodes == []:
            nodes.append(n)

    out = (dens - conv.ravel()) / c1
    return out.reshape(shape) if shape else float(out[0])


def v_q(
    y,
    spec: ImpulseSpec,
    tilt: TiltedModel,
    params: ModelParams,
    plan: list[list[int]] | None = None,
):
    """Tilted probability that the pair survives forever from level y.

    Company 2 sits at ``y`` and company 1 at ``y - (u2 - u1)``; survival
    means staying above the declining boundary (company 1 alive) until it
    hits zero at time ``R = (u2-u1)/(c1-c2)`` and above zero afterwards.
    Splitting at R turns this into the crossing density integrated
    against the one-company survival probability, plus the atom of the
    no-claims-by-R event.

    ``y`` is a level or an array of levels, and the result is the same
    kind.  An array is valued in passes of up to ``_LEVELS_PER_PASS``
    levels, so that a claim average costs a few array sweeps instead of a
    Python call chain per claim node.  In a pass the first integral, over
    ``[0, c1 R]``, holds one row of z-nodes for every level, so the ballot
    convolution's factors that depend on z alone are computed once per
    z-node; the second, over ``[c1 R, y + c2 R]``, holds a row per level.
    Each doubling judges the pass's levels jointly, as the ballot
    convolution judges its z.  Passes rather than one sweep over every
    level keep the widest array within ``_LEVEL_ELEMENTS``, so batching
    does not raise peak memory.

    ``plan``, a list, carries each pass's node counts (see
    :func:`_survival_pass`): a pass it has no counts for appends the ones
    its doublings chose, and a pass it has counts for evaluates each rule
    once at them.  So an empty list records the counts of one call, and a
    later call on as many levels at another discount rate replays them.

    Every level is checked against the bracket
    ``1 - psi(y - gap) <= v_q(y) <= 1 - psi(y)``, with ``psi`` the tilted
    ruin probability and ``gap = u2 - u1``: company 2 staying above
    ``gap`` keeps company 1 alive, and company 1 alive needs company 2
    alive.  A level outside it by more than ``_V_Q_TOL`` raises
    :class:`NonConvergenceError`, as does a pass whose node rules do not
    converge; this is how a horizon ``R`` so long that the node rules miss
    the crossing density (``c1`` close to ``c2``) shows, where two
    near-zero sums would pass the doubling test.  Both messages name ``R``.
    """
    gap = spec.u2 - spec.u1
    y_arr = np.asarray(y, dtype=float)
    if np.any(y_arr < gap):
        raise ParameterError(
            [f"survival functional needs y >= u2 - u1 ({y_arr.min()} < {gap})"]
        )
    if gap == 0.0:
        out = 1.0 - tilted_ruin_probability(y_arr, tilt, params)
    else:
        flat = y_arr.ravel()
        horizon = f"(horizon R={gap / (params.c1 - params.c2):.6g})"
        passes = np.array_split(flat, max(1, -(-flat.size // _LEVELS_PER_PASS)))
        plan = [] if plan is None else plan
        plan += [[] for _ in range(len(passes) - len(plan))]
        try:
            out = np.concatenate([
                _survival_pass(levels, gap, tilt, params, nodes)
                for levels, nodes in zip(passes, plan)
            ])
        except NonConvergenceError as exc:
            raise NonConvergenceError(
                f"survival functional failed on {flat.size} levels {horizon}: {exc}"
            ) from exc
        lo = 1.0 - tilted_ruin_probability(flat - gap, tilt, params)
        hi = 1.0 - tilted_ruin_probability(flat, tilt, params)
        bad = (out < lo - _V_Q_TOL) | (out > hi + _V_Q_TOL)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise NonConvergenceError(
                f"survival functional {out[i]:.6g} at y={flat[i]:.6g} outside its bracket"
                f" [{lo[i]:.6g}, {hi[i]:.6g}] at {int(bad.sum())} of {flat.size} levels {horizon}"
            )
        out = out.reshape(y_arr.shape)
    return float(out) if y_arr.ndim == 0 else out


def _survival_pass(
    y: np.ndarray, gap: float, tilt: TiltedModel, params: ModelParams, nodes: list[int]
) -> np.ndarray:
    """``v_q`` at the levels ``y``, the same formulas in one array sweep.

    The first integral runs over ``[0, c1 R]`` at every level, so its
    z-nodes are one row, and the ballot convolution's factor that depends
    on z alone is computed once for the whole pass; only the entry density
    and the start-dependent terms are computed per level.

    ``nodes`` holds the pass's node counts: the first integral's z rule,
    the ballot convolution inside the rule it converged at, and the tail
    integral's z rule (None without a tail).  An empty list receives the
    counts the doublings chose; a full one has each rule evaluated once,
    at its count.
    """
    c1, c2 = params.c1, params.c2
    R = gap / (c1 - c2)
    v = (y - gap) / c1
    z_max = y + c2 * R
    n_first, n_ballot, n_tail = nodes or (None, None, None)

    def integral(v: np.ndarray, lo, hi, n: int | None, n_ballot: int | None):
        ballot = {}  # the ballot's node count in the rule at each z-node count

        def rule(n: int) -> np.ndarray:
            z, w = _gauss_nodes(n, lo, hi)
            ballot[n] = [] if n_ballot is None else [n_ballot]
            dens = ballot_crossing_density(z, R, v[:, None], tilt, params, ballot[n])
            return np.sum(w * (dens * (1.0 - tilted_ruin_probability(z, tilt, params))), axis=1)

        total, n = _doubling(rule, _V_Q_TOL / 2.0, n0=24, n=n)
        return total, n, ballot[n][0] if ballot[n] else None

    # z_max >= c1 R at every level, up to rounding at y = u2 - u1
    split = c1 * R
    total, n_first, n_ballot = integral(v, 0.0, split, n_first, n_ballot)
    tail = split < z_max  # empty at y = u2 - u1 only
    if np.any(tail):
        part, n_tail, _ = integral(v[tail], split, z_max[tail], n_tail, None)
        total[tail] += part
    nodes[:] = n_first, n_ballot, n_tail
    atom = math.exp(-tilt.lambda_q * R)
    total += atom * (1.0 - tilted_ruin_probability(z_max, tilt, params))
    return total


def _transform_claim_integral(
    qq: float,
    spec: ImpulseSpec,
    params: ModelParams,
    n_nodes: int,
    plan: list[list[int]] | None = None,
) -> float:
    """int_0^{u1} e^{-phi x} V^q(u2-x) / V^q(u2) alpha e^{-alpha x} dx at
    discount qq: the tilted identity for the discounted transform of
    reaching u2 before ruin after a claim of x, averaged over the claim.

    The upper limit is u1: a first claim larger than u1 ruins company 1
    immediately, so larger claims cannot contribute a completed cycle.
    ``v_q`` is called once, on the ``n_nodes + 1`` levels ``u2`` and
    ``u2 - x`` at the nodes x, which it values a pass of levels at a time
    rather than one Python call per node.  ``plan`` goes to ``v_q``: an
    empty list receives the node counts its passes chose, and the counts
    recorded at the base rate fix them at a shifted one.
    """
    alpha = require_exponential(params.claims).rate
    tilt = phi_inverse(replace(params, q=qq))
    x, w = _gauss_nodes(n_nodes, 0.0, spec.u1)
    v_u2, *v_nodes = v_q(np.concatenate(([spec.u2], spec.u2 - x)), spec, tilt, params, plan)
    # math.exp, not np.exp, whose last bit can differ
    vals = np.array(
        [math.exp(-tilt.phi * xi) * vi / v_u2 for xi, vi in zip(x, v_nodes)]
    )
    return float(np.sum(w * vals * alpha * np.exp(-alpha * x)))


def impulse_v1_low(spec: ImpulseSpec, params: ModelParams) -> ImpulseValuation:
    """Quadrature valuation for ``u1 <= u2``.

    The crossing-time moment has no closed q-derivative here; it is taken
    by central differences in q of step ``h = 1e-4 * q`` of the
    claim-averaged crossing transform, Richardson-extrapolated once,
    rebuilding the tilted dynamics at each shifted discount rate.  The
    base rate's doublings fix every node count for the difference
    quotient: the claim nodes, and in each pass of the survival functional
    the z-nodes of both integrals and the ballot convolution's nodes.  The
    four shifted rates evaluate each rule once at those counts, so the
    quotient is not polluted by node changes, and no rule is run at a
    coarser count only to judge convergence there.
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
    plans = {}  # claim-node count -> the node counts its survival passes chose

    def claim_average(n: int) -> float:
        plans[n] = []
        return _transform_claim_integral(q, spec, params, n, plans[n])

    base, n_nodes = _doubling(claim_average, _CLAIM_TOL)
    h = 1e-4 * q
    at = lambda qq: _transform_claim_integral(qq, spec, params, n_nodes, plans[n_nodes])
    d_h = (at(q + h) - at(q - h)) / (2.0 * h)
    d_h2 = (at(q + h / 2.0) - at(q - h / 2.0)) / h
    # + 0.0 turns the -0.0 of two zero differences into 0.0 and leaves
    # every other float as it is
    tau_integral = -(4.0 * d_h2 - d_h) / 3.0 + 0.0
    return _renewal(lam / (q + lam) * base, tau_integral, spec, params, method)


def value_impulse(spec: ImpulseSpec, params: ModelParams) -> ImpulseValuation:
    """Dispatch on the reset-point geometry."""
    if spec.u1 > spec.u2:
        return impulse_v1_high(spec, params)
    return impulse_v1_low(spec, params)
