"""Exponent triples and coefficients behind the barrier-value series.

The expected discounted dividend under reflection separates into terms
``D_k * (exp(g1*u1) - rho*exp(g3*u1)) * exp(g2*u2)``.  For a fixed slope
the admissible pairs ``(g, g2)`` solve one quadratic; two families of
triples are generated recursively, one seeded from the barrier slope
``a`` and one from the auxiliary slope ``a' = (a - c2)/(c1 + 1)``.  The
recursion is tied together by the linkage ``g3[k] - a*g2[k] =
g1[k+1] - a*g2[k+1]`` (same slope ``a`` for both families), which makes
the on-barrier flux sum telescope.

Raw ``D_k`` coefficients underflow for large k because they carry
``exp(-g2*b)``; all arithmetic therefore runs on the rescaled
``D_scaled = D * exp(g2*b)``, which decays to zero instead.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import (
    BarrierSpec,
    ModelParams,
    NonConvergenceError,
    ParameterError,
    require_exponential,
    validate_barrier,
    validate_model,
)


#: per-step fields of both families, in the order of the ``GammaSequences`` arrays
_FIELDS = ("g1", "g2", "g3", "D", "D_scaled", "disc_g1", "disc_g2")


@dataclass(frozen=True, eq=False)
class GammaSequences:
    """Both triple families, the matching constant E, and the slopes.

    Each per-step field is a read-only ``(2, terms)`` array: row 0 holds
    the family seeded at the barrier slope ``a``, row 1 the primed family
    seeded at ``a_prime``.  ``D_scaled = D * exp(g2 * b)`` is the
    representation used in series sums; ``D`` itself may underflow to 0
    at large k (kept for diagnostics only).
    """

    g1: np.ndarray
    g2: np.ndarray
    g3: np.ndarray
    D: np.ndarray
    D_scaled: np.ndarray
    disc_g1: np.ndarray
    disc_g2: np.ndarray
    E: float
    a_prime: float
    a: float
    b: float
    tail_ratio: float  # achieved relative size of the last E-sum terms

    @property
    def steps(self) -> np.recarray:
        """Base-family steps as read-only records (``steps[k].g2``)."""
        return self._records(0)

    @property
    def primed_steps(self) -> np.recarray:
        """Primed-family steps as read-only records."""
        return self._records(1)

    def _records(self, row: int) -> np.recarray:
        rec = np.rec.fromarrays([getattr(self, f)[row] for f in _FIELDS], names=_FIELDS)
        rec.flags.writeable = False
        return rec

    @property
    def key(self) -> str:
        """Identifier for valuations produced from these sequences."""
        return f"gamma[a={self.a!r},b={self.b!r},terms={self.g2.shape[1]}]"

    def arrays(self, primed: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(g1, g2, g3, D_scaled) of one family, as views of the stored rows."""
        r = int(primed)
        return self.g1[r], self.g2[r], self.g3[r], self.D_scaled[r]


def _quadratic_roots(A: float, B: float, C: float) -> tuple[float, float, float]:
    """Roots of A x^2 + B x + C as (larger, smaller, discriminant).

    The root of larger magnitude comes from the non-cancelling branch,
    the other from the product of roots; coefficients grow with k so the
    naive formula would lose digits.
    """
    disc = B * B - 4.0 * A * C
    if disc < 0.0:
        raise NonConvergenceError(f"negative discriminant {disc} in root recursion")
    sq = math.sqrt(disc)
    r1 = (-B - sq) / (2.0 * A) if B >= 0.0 else (-B + sq) / (2.0 * A)
    r2 = C / (A * r1) if r1 != 0.0 else -B / A
    return (max(r1, r2), min(r1, r2), disc)


def _sqeq_coeffs(g2: float, params: ModelParams) -> tuple[float, float, float]:
    """Coefficients of the pair quadratic in g at fixed g2."""
    alpha = require_exponential(params.claims).rate
    c1, c2, lam, q = params.c1, params.c2, params.lam, params.q
    B = (c1 + c2) * g2 + (alpha * c1 - q - lam)
    C = c2 * g2 * g2 + (alpha * c2 - q - lam) * g2 - alpha * q
    return c1, B, C


def sqeq_residual(g: float, g2: float, params: ModelParams) -> float:
    """Relative residual of (g, g2) in the pair quadratic."""
    A, B, C = _sqeq_coeffs(g2, params)
    scale = abs(A * g * g) + abs(B * g) + abs(C)
    return abs(A * g * g + B * g + C) / max(scale, 1e-300)


def _seed_coeffs(m: float, params: ModelParams) -> tuple[float, float, float]:
    """Coefficients of the slope-m seed quadratic in g2.

    Substituting ``g1 = m*g2`` into the pair quadratic yields a quadratic
    in g2 with constant term ``-alpha*q < 0`` whose leading coefficient
    is positive for the barrier slope and, thanks to ``c1 > c2``, for the
    auxiliary slope as well.
    """
    alpha = require_exponential(params.claims).rate
    c1, c2, lam, q = params.c1, params.c2, params.lam, params.q
    A = (m * m + m) * c1 + (1.0 + m) * c2
    if not A > 0.0:
        raise ParameterError(
            [f"seed quadratic has non-positive leading coefficient {A} for slope {m}"]
        )
    B = m * (alpha * c1 - q - lam) + alpha * c2 - q - lam
    return A, B, -alpha * q


def gamma2_initial(m: float, params: ModelParams) -> float:
    """Unique positive root of the slope-m seed quadratic.

    The constant term is negative, so the roots straddle zero and the
    larger one is the positive one.
    """
    return _quadratic_roots(*_seed_coeffs(m, params))[0]


def solve_g1_g3(g2: float, params: ModelParams) -> tuple[float, float]:
    """Both roots of the pair quadratic at fixed ``g2``; g1 > g3."""
    hi, lo, _ = _quadratic_roots(*_sqeq_coeffs(g2, params))
    return (hi, lo)


def _step(
    prev: tuple[float, float, float] | None, slope: float, params: ModelParams
) -> tuple[float, float, float, float, float]:
    """(g1, g2, g3, disc_g1, disc_g2) of one step of a family.

    ``prev = None`` gives the seed of the family of slope ``slope``:
    ``g1 = slope*g2`` with g2 the root from :func:`gamma2_initial`.
    Otherwise ``prev = (g1, g2, g3)`` and the step follows it under the
    linkage at ``slope``: with ``s = g3[k] - slope*g2[k]``, requiring
    ``s + slope*g2`` to solve the pair quadratic at ``g2`` gives a
    quadratic in ``g2`` whose roots are the previous g2 and the next one;
    the larger root is the next.  Either way g1 is a root of the pair
    quadratic by construction, and g3 is its companion from the product
    of roots.
    """
    if prev is None:
        g2, _, disc_g2 = _quadratic_roots(*_seed_coeffs(slope, params))
        g1 = slope * g2
    else:
        alpha = require_exponential(params.claims).rate
        c1, c2, lam, q = params.c1, params.c2, params.lam, params.q
        a, p2 = slope, prev[1]
        s = prev[2] - a * p2
        A = (a * a + a) * c1 + (1.0 + a) * c2
        B = s * (2.0 * c1 * a + c1 + c2) - (lam + q) * (1.0 + a) + alpha * (a * c1 + c2)
        C = c1 * s * s + (c1 * alpha - lam - q) * s - alpha * q
        g2, _, disc_g2 = _quadratic_roots(A, B, C)
        if not g2 > p2:
            raise NonConvergenceError(f"g2 recursion not increasing: {g2} after {p2}")
        g1 = s + a * g2
    A, B, C = _sqeq_coeffs(g2, params)
    return g1, g2, C / (A * g1), B * B - 4.0 * A * C, disc_g2


def advance_gamma2(prev, slope: float, params: ModelParams) -> float:
    """Next g2 after the step ``prev`` (anything with ``g1, g2, g3``),
    under the linkage at ``slope``; see :func:`_step`."""
    return _step((prev.g1, prev.g2, prev.g3), slope, params)[1]


def _flux(g: float, g2: float, barrier: BarrierSpec, params: ModelParams) -> float:
    """Coefficient of a series term in the on-barrier flux condition."""
    return g * (params.c1 + 1.0) + g2 * (params.c2 - barrier.a)


def _rho(g1: float, g2: float, g3: float, alpha: float) -> float:
    return (g3 + g2 + alpha) / (g1 + g2 + alpha)


def build_sequences(
    barrier: BarrierSpec,
    params: ModelParams,
    max_terms: int = 200,
    tail_tol: float = 1e-12,
    min_terms: int = 2,
) -> GammaSequences:
    """Construct both families plus E, truncated by the corner-sum tails.

    Both families advance in lockstep, and each step adds its term to
    the corner sums at (0, b), the numerator and denominator of E.  The
    build stops once the k-th term of both sums drops below ``tail_tol``
    relative to the running totals, but never before ``min_terms``.  E
    then zeroes the value at (0, b) by construction, up to the shared
    truncation.

    The rescaled coefficients follow ``D_scaled[k+1] = D_scaled[k] *
    rho[k] * flux(g3[k], g2[k]) / flux(g1[k+1], g2[k+1])``.  The base
    family starts from ``D0 = delta0 / flux(g1, g2)``, the primed family
    from ``D0 = 1``, that is ``D_scaled = exp(g2*b)``.
    """
    validate_model(params)
    validate_barrier(barrier, params)
    alpha = require_exponential(params.claims).rate
    if not barrier.is_reflection(params):
        raise ParameterError(
            ["series solution needs the reflection drift delta = (c1 + 1, c2 - a)"]
        )
    a, b = float(barrier.a), float(barrier.b)
    a_prime = (a - params.c2) / (params.c1 + 1.0)
    if not 2 <= min_terms <= max_terms:
        raise ParameterError([f"need 2 <= min_terms <= max_terms, got {min_terms}, {max_terms}"])

    families: tuple[list, list] = ([], [])  # rows in _FIELDS order
    sums = [0.0, 0.0]  # corner sums: numerator and denominator of E
    tail = math.inf
    for k in range(max_terms):
        terms = []
        for f, (rows, seed_slope) in enumerate(zip(families, (a, a_prime))):
            if k == 0:
                g1, g2, g3, disc_g1, disc_g2 = _step(None, seed_slope, params)
                if f == 0:
                    scaled = barrier.delta0 / _flux(g1, g2, barrier, params)
                else:
                    scaled = math.exp(g2 * b)
            else:
                p1, p2, p3, _, p_scaled, _, _ = rows[-1]
                g1, g2, g3, disc_g1, disc_g2 = _step((p1, p2, p3), a, params)
                scaled = p_scaled * (
                    _rho(p1, p2, p3, alpha)
                    * _flux(p3, p2, barrier, params)
                    / _flux(g1, g2, barrier, params)
                )
            d_raw = scaled * math.exp(-g2 * b)  # underflows to 0 at large k
            rows.append((g1, g2, g3, d_raw, scaled, disc_g1, disc_g2))
            terms.append(scaled * (g1 - g3) / (g1 + g2 + alpha))
            sums[f] += terms[f]
        if k >= 1:
            tail = max(abs(t) / max(abs(s), 1e-300) for t, s in zip(terms, sums))
            if tail < tail_tol and k + 1 >= min_terms:
                break
    else:
        raise NonConvergenceError(
            f"corner sums not converged in {max_terms} terms (tail ratio {tail:.2e})"
        )
    data = np.array(families, dtype=float).transpose(2, 0, 1).copy()  # (field, family, k)
    data.flags.writeable = False
    return GammaSequences(
        *data,
        E=float(-sums[0] / sums[1]),
        a_prime=a_prime,
        a=a,
        b=b,
        tail_ratio=float(tail),
    )


@lru_cache(maxsize=128)
def sequences_for(
    barrier: BarrierSpec,
    params: ModelParams,
    max_terms: int = 200,
    tail_tol: float = 1e-12,
    min_terms: int = 2,
) -> GammaSequences:
    """Cached :func:`build_sequences`; triples depend on (barrier, params) only."""
    return build_sequences(barrier, params, max_terms, tail_tol, min_terms)


def sequences_to_csv(seqs: GammaSequences) -> str:
    """Diagnostic dump, one row per k."""
    out = io.StringIO()
    out.write("k,g1,g2,g3,D,g1p,g2p,g3p,Dp\n")
    cols = [getattr(seqs, f)[r].tolist() for r in (0, 1) for f in ("g1", "g2", "g3", "D")]
    for k, row in enumerate(zip(*cols)):
        out.write(f"{k}," + ",".join(map(repr, row)) + "\n")
    return out.getvalue()


def invariant_violations(
    seqs: GammaSequences, params: ModelParams, rel_tol: float = 1e-9
) -> list[str]:
    """Check sign, ordering, monotonicity, linkage and root residuals.

    Returns human-readable violation strings; empty means all hold.
    """
    a = seqs.a
    out: list[str] = []
    for name, steps, slope0 in (
        ("base", seqs.steps, a),
        ("primed", seqs.primed_steps, seqs.a_prime),
    ):
        for k, s in enumerate(steps):
            if not s.g2 > 0.0:
                out.append(f"{name}[{k}]: g2 <= 0 ({s.g2})")
            if not s.g3 < 0.0:
                out.append(f"{name}[{k}]: g3 >= 0 ({s.g3})")
            if not s.g1 > s.g3:
                out.append(f"{name}[{k}]: g1 <= g3")
            if not (s.disc_g2 > 0.0 and s.disc_g1 > 0.0):
                out.append(f"{name}[{k}]: non-positive discriminant")
            for g in (s.g1, s.g3):
                r = sqeq_residual(g, s.g2, params)
                if r > rel_tol:
                    out.append(f"{name}[{k}]: pair-quadratic residual {r:.2e}")
            if k > 0:
                p = steps[k - 1]
                if not s.g2 > p.g2:
                    out.append(f"{name}[{k}]: g2 not increasing")
                if not s.g3 < p.g3:
                    out.append(f"{name}[{k}]: g3 not decreasing")
                link = (p.g3 - a * p.g2) - (s.g1 - a * s.g2)
                scale = max(abs(p.g3), abs(a * p.g2), abs(s.g1), 1.0)
                if abs(link) / scale > rel_tol:
                    out.append(f"{name}[{k}]: linkage residual {abs(link)/scale:.2e}")
        seed_gap = abs(steps[0].g1 - slope0 * steps[0].g2)
        if seed_gap > rel_tol * max(1.0, abs(steps[0].g1)):
            out.append(f"{name}[0]: seed identity g1 = slope*g2 off by {seed_gap:.2e}")
    if not seqs.a_prime < 0.0:
        out.append(f"a_prime >= 0 ({seqs.a_prime})")
    if abs(seqs.primed_steps[0].D - 1.0) > 1e-12:
        out.append(f"primed D0 != 1 ({seqs.primed_steps[0].D})")
    return out


def asymptotic_ratio_violations(
    seqs: GammaSequences, params: ModelParams, k: int, rtol: float = 0.01
) -> list[str]:
    """Finite-k checks of the limiting exponent ratios.

    At large k the step ratio g2[k+1]/g2[k] approaches
    (c1*a + c1)/(c1*a + c2) and the in-step ratios g3/g2 and g1/g2
    approach -1 and -c2/c1.
    """
    c1, c2, a = params.c1, params.c2, seqs.a
    step_limit = (c1 * a + c1) / (c1 * a + c2)
    out: list[str] = []
    for name, steps in (("base", seqs.steps), ("primed", seqs.primed_steps)):
        if k + 1 >= len(steps):
            out.append(f"{name}: need at least {k + 2} terms for the ratio check")
            continue
        r = steps[k + 1].g2 / steps[k].g2
        if abs(r - step_limit) / step_limit > rtol:
            out.append(f"{name}[{k}]: g2 step ratio {r} vs limit {step_limit}")
        last = steps[-1]
        if abs(last.g3 / last.g2 - (-1.0)) > rtol:
            out.append(f"{name}: g3/g2 ratio {last.g3 / last.g2} vs -1")
        if abs(last.g1 / last.g2 - (-c2 / c1)) / (c2 / c1) > rtol:
            out.append(f"{name}: g1/g2 ratio {last.g1 / last.g2} vs {-c2 / c1}")
    return out
