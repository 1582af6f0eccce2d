"""Exponent triples and coefficients behind the barrier-value series.

The expected discounted dividend under reflection separates into terms
``D_k * (exp(g1*u1) - rho*exp(g3*u1)) * exp(g2*u2)``.  For a fixed slope
the admissible pairs ``(g, g2)`` solve one quadratic; two families of
triples are generated recursively, one seeded from the barrier slope
``a`` and one from the auxiliary slope ``a' = (a - c2)/(c1 + 1)``.  The
recursion is tied together by the linkage ``g3[k] - a*g2[k] =
g1[k+1] - a*g2[k+1]`` (same slope ``a`` for both families), which makes
the on-barrier flux sum telescope.

The triples depend on the slope ``a`` and the model only, so each slope's
families are built once by the scalar recursion and cached as arrays,
grown only when a barrier needs more terms.  A barrier's height ``b`` and
payout rate ``delta0`` enter through the two seeds of the coefficients
alone: each barrier takes a cumulative product of the slope's step
factors from its seeds, then cumulative corner sums to find its
truncation point and the matching constant E.

Raw ``D_k`` coefficients underflow for large k because they carry
``exp(-g2*b)``; all arithmetic therefore runs on the rescaled
``D_scaled = D * exp(g2*b)``, which decays to zero instead, and raw
``D`` is derived from it only for diagnostics.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import (
    AnalyticDomainError,
    BarrierSpec,
    ModelParams,
    NonConvergenceError,
    ParameterError,
    require_exponential,
)


#: per-step fields of the ``steps`` and ``primed_steps`` records
_FIELDS = ("g1", "g2", "g3", "D", "D_scaled", "disc_g1", "disc_g2")

#: relative tolerance of the root, linkage and seed checks in ``invariant_violations``
_INVARIANT_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class GammaSequences:
    """Both triple families, the matching constant E, and the slopes.

    Each per-step field is a read-only ``(2, terms)`` array: row 0 holds
    the family seeded at the barrier slope ``a``, row 1 the primed family
    seeded at ``a_prime``.  ``D_scaled = D * exp(g2 * b)`` is the
    representation used in series sums; the raw ``D`` is derived from it
    on access and may underflow to 0 at large k (diagnostics only).
    """

    g1: np.ndarray
    g2: np.ndarray
    g3: np.ndarray
    D_scaled: np.ndarray
    disc_g1: np.ndarray
    disc_g2: np.ndarray
    E: float
    a_prime: float
    a: float
    b: float
    tail_ratio: float  # achieved relative size of the last E-sum terms

    @property
    def D(self) -> np.ndarray:
        """Raw coefficients ``D_scaled * exp(-g2 * b)``, read-only ``(2, terms)``."""
        b = self.b
        d = np.array(
            [
                [s * math.exp(-g2 * b) for s, g2 in zip(scaled, g2s)]
                for scaled, g2s in zip(self.D_scaled.tolist(), self.g2.tolist())
            ]
        )
        d.flags.writeable = False
        return d

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


class _Slope:
    """Both families at one slope ``a``, grown step by step on demand.

    ``data`` is a read-only ``(8, 2, n)`` array: per field, family and
    step it holds ``g1, g2, g3, disc_g1, disc_g2``, the ``D_scaled`` step
    factor ``rho[k-1] * flux(g3[k-1], g2[k-1]) / flux(g1[k], g2[k])``
    (1 at k = 0, where a barrier puts its seed), ``g1 - g3`` and
    ``g1 + g2 + alpha``.  Here ``rho = (g3 + g2 + alpha) / (g1 + g2 +
    alpha)`` and ``flux(g, g2) = g*(c1 + 1) + g2*(c2 - a)`` is the
    coefficient of a series term in the on-barrier flux condition.

    Growth runs the corner sums of the barrier that first asked for the
    slope, so the arrays end where that barrier's sums converge.  Its
    terms are its seeds times products of these fields, so the seeds
    cancel out of the tail ratio: the same length suits every barrier of
    the slope, up to rounding.
    """

    def __init__(self, a: float, params: ModelParams):
        self.a, self.params = a, params
        self.a_prime = (a - params.c2) / (params.c1 + 1.0)
        self.data = np.empty((8, 2, 0))
        self.flux0 = self.g2_primed0 = math.nan  # seed inputs, set with step 0
        self.error: str | None = None  # message of the step that failed, if one did
        self.sums = (0.0, 0.0)  # corner sums of the first barrier at the last step held
        self.tail = math.inf  # their tail ratio there, from k = 1
        self._last: tuple = ()  # (g1, g2, g3) of both families at the last step held
        self._carry: list = []  # per family: rho * flux(g3, g2) and D_scaled there

    @property
    def n(self) -> int:
        return self.data.shape[2]

    def grow(self, need: int, tail_tol: float, max_terms: int, barrier: BarrierSpec) -> None:
        """Step until ``need`` steps are held and the tail ratio is below
        ``tail_tol``, until ``max_terms`` are held, or until a step fails.

        ``barrier`` seeds the corner sums when the slope has no steps yet.
        """
        a, params = self.a, self.params
        alpha = require_exponential(params.claims).rate
        c1p, c2a = params.c1 + 1.0, params.c2 - a
        last, carry, (sum0, sum1), tail = self._last, self._carry, self.sums, self.tail
        flat: list[float] = []
        n = self.n
        while n < max_terms and not (n >= need and tail < tail_tol):
            try:
                if n:
                    steps = (_step(last[0], a, params), _step(last[1], a, params))
                else:
                    steps = (_step(None, a, params), _step(None, self.a_prime, params))
            except NonConvergenceError as exc:
                self.error = str(exc)
                break
            if not n:
                self.flux0 = steps[0][0] * c1p + steps[0][1] * c2a
                self.g2_primed0 = steps[1][1]
                seeds = (barrier.delta0 / self.flux0, _primed_seed(self.g2_primed0, float(barrier.b)))
                carry = [(0.0, seed) for seed in seeds]
            terms, next_carry = [], []
            for (g1, g2, g3, disc_g1, disc_g2), (rho_flux, scaled) in zip(steps, carry):
                g1_g3, g1_g2_alpha = g1 - g3, g1 + g2 + alpha
                factor = rho_flux / (g1 * c1p + g2 * c2a) if n else 1.0
                scaled *= factor
                terms.append(scaled * g1_g3 / g1_g2_alpha)
                next_carry.append(((g3 + g2 + alpha) / g1_g2_alpha * (g3 * c1p + g2 * c2a), scaled))
                flat += (g1, g2, g3, disc_g1, disc_g2, factor, g1_g3, g1_g2_alpha)
            sum0, sum1 = sum0 + terms[0], sum1 + terms[1]
            if n:
                tail = max(
                    abs(terms[0]) / max(abs(sum0), 1e-300), abs(terms[1]) / max(abs(sum1), 1e-300)
                )
            last, carry = (steps[0][:3], steps[1][:3]), next_carry
            n += 1
        if flat:
            new = np.fromiter(flat, float, len(flat)).reshape(-1, 2, 8).transpose(2, 1, 0)
            data = np.concatenate((self.data, new), axis=2)
            data.flags.writeable = False
            self.data, self._last, self._carry = data, last, carry
            self.sums, self.tail = (sum0, sum1), tail


def _primed_seed(g2_primed0: float, b: float) -> float:
    """``exp(g2*b)``, the primed family's first ``D_scaled`` at barrier ``b``."""
    try:
        return math.exp(g2_primed0 * b)
    except OverflowError:
        raise AnalyticDomainError(
            f"exp(g2*b) overflows at b={b} (g2={g2_primed0:.6g}); the series cannot be"
            " scaled to a barrier this far out"
        ) from None


@lru_cache(maxsize=128)
def _slope(a: float, params: ModelParams) -> _Slope:
    """The families at slope ``a``, shared by every barrier of that slope."""
    return _Slope(a, params)


def build_sequences(
    barrier: BarrierSpec,
    params: ModelParams,
    max_terms: int = 200,
    tail_tol: float = 1e-12,
    min_terms: int = 2,
) -> GammaSequences:
    """Construct both families plus E, truncated by the corner-sum tails.

    The triples come from the slope's cached families; the barrier sets
    only the two seeds of the rescaled coefficients.  These follow
    ``D_scaled[k+1] = D_scaled[k] * rho[k] * flux(g3[k], g2[k]) /
    flux(g1[k+1], g2[k+1])``, a cumulative product of the slope's step
    factors.  The base family starts from ``D0 = delta0 / flux(g1, g2)``,
    the primed family from ``D0 = 1``, that is ``D_scaled = exp(g2*b)``.

    Each step adds its term to the corner sums at (0, b), the numerator
    and denominator of E.  The sequences end at the first step whose
    term in both sums is below ``tail_tol`` relative to the running
    totals, but never before ``min_terms``.  E then zeroes the value at
    (0, b) by construction, up to the shared truncation.
    """
    require_exponential(params.claims)
    if not barrier.is_reflection(params):
        raise ParameterError(
            ["series solution needs the reflection drift delta = (c1 + 1, c2 - a)"]
        )
    a, b = float(barrier.a), float(barrier.b)
    if not 2 <= min_terms <= max_terms:
        raise ParameterError([f"need 2 <= min_terms <= max_terms, got {min_terms}, {max_terms}"])

    slope = _slope(a, params)
    fresh = slope.n == 0  # then the slope grows on this barrier's own corner sums
    need = min_terms
    while True:
        if slope.n < need:
            slope.grow(need, tail_tol, max_terms, barrier)
        data = slope.data
        n = min(data.shape[2], max_terms)
        factors = data[5, :, :n].copy()
        factors[0, 0] = barrier.delta0 / slope.flux0
        factors[1, 0] = _primed_seed(slope.g2_primed0, b)
        scaled = factors.cumprod(axis=1)
        if fresh and n >= min_terms and slope.tail < tail_tol:
            # the slope grew on this barrier's corner sums, which stopped at its cut
            k, (sum0, sum1), tail_k = n - 1, slope.sums, slope.tail
            break
        terms = scaled * data[6, :, :n] / data[7, :, :n]
        sums = terms.cumsum(axis=1)
        ratio = np.abs(terms) / np.maximum(np.abs(sums), 1e-300)
        tail = np.where(ratio[1] > ratio[0], ratio[1], ratio[0])  # max(), first on ties
        hits = (tail[min_terms - 1 :] < tail_tol).nonzero()[0]
        if hits.size:
            k = min_terms - 1 + int(hits[0])
            (sum0, sum1), tail_k = sums[:, k], tail[k]
            break
        if n >= max_terms:
            raise NonConvergenceError(
                f"corner sums not converged in {max_terms} terms (tail ratio {tail[-1]:.2e})"
            )
        if slope.error is not None:
            raise NonConvergenceError(slope.error)
        need, fresh = n + 1, False
    fields = data[:5, :, : k + 1].copy()  # (field, family, k), apart from the slope's arrays
    fields.flags.writeable = False
    d_scaled = scaled[:, : k + 1].copy()
    d_scaled.flags.writeable = False
    g1, g2, g3, disc_g1, disc_g2 = fields
    return GammaSequences(
        g1=g1,
        g2=g2,
        g3=g3,
        D_scaled=d_scaled,
        disc_g1=disc_g1,
        disc_g2=disc_g2,
        E=float(-sum0 / sum1),
        a_prime=slope.a_prime,
        a=a,
        b=b,
        tail_ratio=float(tail_k),
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


def invariant_violations(seqs: GammaSequences, params: ModelParams) -> list[str]:
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
                if r > _INVARIANT_RTOL:
                    out.append(f"{name}[{k}]: pair-quadratic residual {r:.2e}")
            if k > 0:
                p = steps[k - 1]
                if not s.g2 > p.g2:
                    out.append(f"{name}[{k}]: g2 not increasing")
                if not s.g3 < p.g3:
                    out.append(f"{name}[{k}]: g3 not decreasing")
                link = (p.g3 - a * p.g2) - (s.g1 - a * s.g2)
                scale = max(abs(p.g3), abs(a * p.g2), abs(s.g1), 1.0)
                if abs(link) / scale > _INVARIANT_RTOL:
                    out.append(f"{name}[{k}]: linkage residual {abs(link)/scale:.2e}")
        seed_gap = abs(steps[0].g1 - slope0 * steps[0].g2)
        if seed_gap > _INVARIANT_RTOL * max(1.0, abs(steps[0].g1)):
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
