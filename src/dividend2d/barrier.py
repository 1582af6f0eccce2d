"""Barrier-reflection valuation and its residual self-checks.

``v1_barrier`` sums the two-family exponential series below the barrier
at one point, ``v1_values`` at arrays of points; ``pide_residual`` and
``boundary_residual`` plug any valuation back into the governing
integro-differential equation and the on-barrier flux condition by finite
differences plus quadrature, giving an independent consistency check
whose size should be dominated by the stencil error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gammas import GammaSequences, sequences_for
from .impulse import adaptive_gauss
from .model import (
    ON_LINE_TOL,
    AnalyticDomainError,
    BarrierSpec,
    ModelParams,
    ParameterError,
    Region,
    Reserves,
    classify_point,
    require_exponential,
)

_INTEGRAL_TOL = 1e-10  # absolute, for the claim integral in the PIDE residual


class StencilError(ValueError):
    """A finite-difference stencil would leave the valid region."""


@dataclass(frozen=True)
class BarrierValuation:
    value: float
    terms_used: int
    tail_estimate: float
    sequences_ref: str


def _check_method(barrier: BarrierSpec, params: ModelParams) -> None:
    require_exponential(params.claims)
    if not barrier.is_reflection(params):
        raise AnalyticDomainError(
            "series solution is derived for the reflection drift only; "
            "use the simulator for general rates"
        )


def _check_domain(u: Reserves, barrier: BarrierSpec, params: ModelParams) -> None:
    _check_method(barrier, params)
    region = classify_point(u, barrier)
    if region == Region.OUTSIDE_QUADRANT:
        raise AnalyticDomainError(f"point {u} lies outside the positive quadrant")
    if region == Region.INTERIOR:
        raise AnalyticDomainError(
            f"point {u} lies strictly above the barrier; the series covers the"
            " region below it (use the simulator for interior starts)"
        )
    if not u.u1 < u.u2:
        raise AnalyticDomainError(
            f"series solution needs u1 < u2, got u1={u.u1}, u2={u.u2};"
            " route u1 >= u2 starts to the simulator"
        )
    if u.u2 > barrier.b:
        # u2 == b occurs only at the corner (0, b), where the matching
        # constant makes the value vanish at the build tolerance
        raise AnalyticDomainError(f"series converges only for u2 <= b ({u.u2} > {barrier.b})")


def _terms(u1, u2, seqs: GammaSequences, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Base and primed series terms at ``(u1, u2)``, shaped ``(..., terms)``.

    ``u1`` and ``u2`` are floats or arrays of shape ``(..., 1, 1)``.  Each
    point's terms are contiguous, so summing along the last axis adds them
    in the same order however many points are evaluated together.
    """
    g1, g2, g3 = seqs.g1, seqs.g2, seqs.g3
    rho = (g3 + g2 + alpha) / (g1 + g2 + alpha)
    terms = (
        seqs.D_scaled
        * (np.exp(g1 * u1) - rho * np.exp(g3 * u1))
        * np.exp(g2 * (u2 - seqs.b))
    )
    return terms[..., 0, :], seqs.E * terms[..., 1, :]


def v1_barrier(
    u: Reserves,
    barrier: BarrierSpec,
    params: ModelParams,
    tol: float = 1e-12,
    sequences: GammaSequences | None = None,
) -> BarrierValuation:
    """Expected discounted dividends until ruin, started below the barrier.

    Terms of both series are summed in full; ``terms_used`` reports how
    many were needed before each term fell below ``tol`` relative to the
    running sum, and ``tail_estimate`` bounds the truncation left beyond
    the built sequences (last-term magnitude; the term ratio decays to 0
    so this is conservative).
    """
    if not 0.0 < tol < math.inf:
        raise ParameterError([f"0 < tol < inf violated ({tol})"])
    _check_domain(u, barrier, params)
    alpha = require_exponential(params.claims).rate
    seqs = sequences if sequences is not None else sequences_for(barrier, params)
    t_base, t_primed = _terms(u.u1, u.u2, seqs, alpha)
    # array methods, not np.sum and friends: the same reductions without
    # the dispatch layer, which costs more than the sums on ~12 terms
    value = float(t_base.sum() + t_primed.sum())

    combined = np.abs(t_base) + np.abs(t_primed)
    partial = (t_base + t_primed).cumsum()
    scale = np.maximum(np.abs(partial), 1e-300)
    small = combined <= tol * scale
    below = small.nonzero()[0]
    terms_used = int(below[0]) + 1 if below.size else len(combined)
    tail = float(combined[-1])
    return BarrierValuation(
        value=value,
        terms_used=terms_used,
        tail_estimate=tail,
        sequences_ref=seqs.key,
    )


def v1_values(
    u1,
    u2,
    barrier: BarrierSpec,
    params: ModelParams,
    sequences: GammaSequences | None = None,
) -> np.ndarray:
    """Series values at arrays of points ``(u1, u2)``, broadcast together.

    Each value equals ``v1_barrier(Reserves(u1, u2), ...).value`` bit for
    bit; the truncation diagnostics are left out.  A point outside the
    series domain raises the error ``v1_barrier`` would raise for it.
    """
    _check_method(barrier, params)
    u1, u2 = np.broadcast_arrays(np.asarray(u1, dtype=float), np.asarray(u2, dtype=float))
    inside = (
        (u1 >= 0.0)
        & (u1 < u2)
        & (u2 <= barrier.b)
        & (u2 - barrier.line_height(u1) <= ON_LINE_TOL)
    )
    if not np.all(inside):
        i = np.flatnonzero(~inside)[0]
        u = Reserves(float(u1.flat[i]), float(u2.flat[i]))
        _check_domain(u, barrier, params)
        raise AnalyticDomainError(f"point {u} lies outside the series domain")
    alpha = require_exponential(params.claims).rate
    seqs = sequences if sequences is not None else sequences_for(barrier, params)
    t_base, t_primed = _terms(u1[..., None, None], u2[..., None, None], seqs, alpha)
    return t_base.sum(axis=-1) + t_primed.sum(axis=-1)


def _default_step(u: Reserves) -> float:
    return 1e-4 * max(1.0, abs(u.u1), abs(u.u2))


def _integral_term(u: Reserves, barrier: BarrierSpec, params: ModelParams, V) -> float:
    """lam * int_0^min(u1,u2) V(u - (v,v)) dF(v) for exponential claims.

    Along the down-diagonal the gap u2 - u1 is constant and the point
    stays below the barrier, so the integrand has no interior kinks for
    valid inputs; the ray only meets an axis at the endpoint.  Gauss-
    Legendre node doubling evaluates ``V`` once per rule on all nodes.
    """
    alpha = require_exponential(params.claims).rate
    upper = min(u.u1, u.u2)
    if upper <= 0.0:
        return 0.0

    def integrand(v: np.ndarray) -> np.ndarray:
        return V(u.u1 - v, u.u2 - v) * alpha * np.exp(-alpha * v)

    return params.lam * adaptive_gauss(integrand, 0.0, upper, _INTEGRAL_TOL)


def _stencil(V, x1: list[float], x2: list[float]) -> np.ndarray:
    """``V`` at the stencil points in one call, broadcast to one value each."""
    x1, x2 = np.array(x1), np.array(x2)
    return np.broadcast_to(V(x1, x2), x1.shape)


def pide_residual(
    u: Reserves,
    barrier: BarrierSpec,
    params: ModelParams,
    h: float | None = None,
    value_fn=None,
) -> float:
    """Residual of the valuation equation at an interior point below the barrier.

    Central differences of step h for the gradient, Gauss-Legendre
    quadrature for the claim integral.  For the exact solution the result
    is O(h^2) plus quadrature error.  ``value_fn(u1, u2)`` substitutes
    another candidate solution (diagnostics and harness tests); it is
    called with arrays of points and may return anything that broadcasts
    against them.
    """
    if h is None:
        h = _default_step(u)
    _check_domain(u, barrier, params)
    if classify_point(u, barrier) != Region.COMPLEMENT:
        raise StencilError("residual needs a point strictly below the barrier")
    safe = (
        u.u1 > 2.0 * h
        and u.u2 > 2.0 * h
        and u.u2 + 2.0 * h < barrier.line_height(u.u1 + 2.0 * h)
        and u.u1 + 2.0 * h < u.u2 - 2.0 * h
    )
    if not safe:
        raise StencilError(f"stencil of step {h} leaves the valid region around {u}")
    if value_fn is None:
        seqs = sequences_for(barrier, params)
        V = lambda x1, x2: v1_values(x1, x2, barrier, params, sequences=seqs)
    else:
        V = value_fn
    u1, u2 = u.u1, u.u2
    east, west, north, south, centre = _stencil(
        V, [u1 + h, u1 - h, u1, u1, u1], [u2, u2, u2 + h, u2 - h, u2]
    )
    dv1 = (east - west) / (2.0 * h)
    dv2 = (north - south) / (2.0 * h)
    lamq = params.lam + params.q
    return float(
        params.c1 * dv1
        + params.c2 * dv2
        - lamq * centre
        + _integral_term(u, barrier, params, V=V)
    )


def boundary_residual(
    u_on_line: Reserves,
    barrier: BarrierSpec,
    params: ModelParams,
    h: float | None = None,
) -> float:
    """Residual of the on-barrier flux condition, one-sided from below.

    The diverted drift dotted with the value gradient must equal the
    total payout rate delta0; derivatives are second-order one-sided
    stencils into the no-payout side.
    """
    if h is None:
        h = _default_step(u_on_line)
    if classify_point(u_on_line, barrier) != Region.ON_LINE:
        raise StencilError(f"{u_on_line} is not on the barrier line")
    if not u_on_line.u1 > 2.0 * h:
        raise StencilError("need u1 > 2h to difference along u1")
    _check_domain(u_on_line, barrier, params)
    seqs = sequences_for(barrier, params)
    V = lambda x1, x2: v1_values(x1, x2, barrier, params, sequences=seqs)
    u1, u2 = u_on_line.u1, u_on_line.u2
    centre, west1, west2, south1, south2 = _stencil(
        V, [u1, u1 - h, u1 - 2.0 * h, u1, u1], [u2, u2, u2, u2 - h, u2 - 2.0 * h]
    )
    d1 = (3.0 * centre - 4.0 * west1 + west2) / (2.0 * h)
    d2 = (3.0 * centre - 4.0 * south1 + south2) / (2.0 * h)
    return float(
        (params.c1 + 1.0) * d1
        + (params.c2 - barrier.a) * d2
        - barrier.delta0
    )
