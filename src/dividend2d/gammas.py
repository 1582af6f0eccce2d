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
alone, which scale every term of a family alike, so the slope decides
where every barrier's series ends.  The barriers of one slope take one
array pass over their kept terms, the barrier axis leading: a cumulative
product of the slope's step factors from each barrier's seeds, then
cumulative corner sums for each matching constant E (``build_row``).  A
single barrier's sequences are that pass over a row of one
(``build_sequences``).

Raw ``D_k`` coefficients underflow for large k because they carry
``exp(-g2*b)``; all arithmetic therefore runs on the rescaled
``D_scaled = D * exp(g2*b)``, which decays to zero instead, and raw
``D`` is derived from it only for diagnostics.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .model import (
    AnalyticDomainError,
    BarrierSpec,
    ModelParams,
    NonConvergenceError,
    ParameterError,
    check_barrier,
    require_exponential,
)


#: per-step fields of the ``steps`` and ``primed_steps`` records
_FIELDS = ("g1", "g2", "g3", "D", "D_scaled")

#: relative tolerance of the root, linkage and seed checks in ``invariant_violations``
_INVARIANT_RTOL = 1e-9

#: most steps a slope holds, and the tail ratio below which a step ends the series
_MAX_TERMS, _TAIL_TOL = 200, 1e-12


@dataclass(frozen=True, eq=False)
class GammaSequences:
    """Both triple families, the matching constant E, and the slopes.

    The stored fields ``g1, g2, g3, D_scaled`` are read-only ``(2, terms)``
    arrays: row 0 holds the family seeded at the barrier slope ``a``, row 1
    the primed family seeded at ``a_prime``.  ``D_scaled = D * exp(g2 * b)``
    is the representation used in series sums; the raw ``D`` is derived
    from it on access and may underflow to 0 at large k (diagnostics only).
    ``steps`` and ``primed_steps`` view one row of each field as records.
    """

    g1: np.ndarray
    g2: np.ndarray
    g3: np.ndarray
    D_scaled: np.ndarray
    E: float
    a_prime: float
    a: float
    b: float
    tail_ratio: float  # the slope's tail ratio of the corner sums at the last step kept

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

    @cached_property
    def key(self) -> str:
        """Identifier for valuations produced from these sequences (made once:
        every valuation at a cached barrier carries it)."""
        return sequence_key(self.a, self.b, self.g2.shape[1])


def sequence_key(a: float, b: float, terms: int) -> str:
    """Identifier of the sequences of barrier ``(a, b)`` with ``terms`` terms."""
    return f"gamma[a={a!r},b={b!r},terms={terms}]"


def _larger_root(A: float, B: float, C: float) -> float:
    """Larger root of A x^2 + B x + C.

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
    return max(r1, r2)


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


def _step(
    prev: tuple[float, float, float] | None, slope: float, params: ModelParams
) -> tuple[float, float, float]:
    """(g1, g2, g3) of one step of a family.

    ``prev = None`` gives the seed of the family of slope ``slope``:
    ``g1 = slope*g2`` with g2 the positive root of the seed quadratic
    (its constant term is negative, so the roots straddle zero).
    Otherwise ``prev = (g1, g2, g3)`` and the step follows it under the
    linkage at ``slope``: with ``s = g3[k] - slope*g2[k]``, requiring
    ``s + slope*g2`` to solve the pair quadratic at ``g2`` gives a
    quadratic in ``g2`` whose roots are the previous g2 and the next one;
    the larger root is the next.  Either way g1 is a root of the pair
    quadratic by construction, and g3 is its companion from the product
    of roots.  A step with g1 = 0 or a value that is not finite fails
    with ``NonConvergenceError``, as a g2 that does not grow does.
    """
    if prev is None:
        g2 = _larger_root(*_seed_coeffs(slope, params))
        g1 = slope * g2
    else:
        alpha = require_exponential(params.claims).rate
        c1, c2, lam, q = params.c1, params.c2, params.lam, params.q
        a, p2 = slope, prev[1]
        s = prev[2] - a * p2
        A = (a * a + a) * c1 + (1.0 + a) * c2
        B = s * (2.0 * c1 * a + c1 + c2) - (lam + q) * (1.0 + a) + alpha * (a * c1 + c2)
        C = c1 * s * s + (c1 * alpha - lam - q) * s - alpha * q
        g2 = _larger_root(A, B, C)
        if not g2 > p2:
            raise NonConvergenceError(f"g2 recursion not increasing: {g2} after {p2}")
        g1 = s + a * g2
    A, _, C = _sqeq_coeffs(g2, params)
    g3 = C / (A * g1) if g1 else math.nan
    if not math.isfinite(g1 + g2 + g3):  # finite only if each is: inf - inf is nan
        raise NonConvergenceError(f"exponent step not finite: (g1, g2, g3) = ({g1}, {g2}, {g3})")
    return g1, g2, g3


class _Slope:
    """Both families at one slope ``a``, grown step by step on demand.

    ``data`` is a read-only ``(7, 2, n)`` array: per field, family and
    step it holds ``g1, g2, g3``, the ``D_scaled`` step factor ``rho[k-1]
    * flux(g3[k-1], g2[k-1]) / flux(g1[k], g2[k])`` (1 at k = 0, where a
    barrier puts its seed), ``g1 - g3``, ``g1 + g2 + alpha`` and the
    running sum of ``|term|`` of the corner sum seeded at 1.  Here ``rho =
    (g3 + g2 + alpha) / (g1 + g2 + alpha)`` and ``flux(g, g2) = g*(c1 + 1)
    + g2*(c2 - a)`` is the coefficient of a series term in the on-barrier
    flux condition.  ``tails`` holds each step's tail ratio, the larger
    ``|term| / |corner sum|`` of the two families.

    Nothing here depends on a barrier: a barrier's terms are its seeds
    times the same products of step factors, so it ends where ``tails``
    first falls below ``_TAIL_TOL``.
    """

    def __init__(self, a: float, params: ModelParams):
        self.a, self.params = a, params
        self.a_prime = (a - params.c2) / (params.c1 + 1.0)
        self.data = np.empty((7, 2, 0))
        self.tails = np.empty(0)
        self.error: str | None = None  # message of the step that failed, if one did
        self._last: tuple = (None, None)  # (g1, g2, g3) of both families at the last step held
        # per family at the last step, seed 1: rho * flux(g3, g2), D_scaled, corner sum, sum |term|
        self._carry = [(0.0, 1.0, 0.0, 0.0)] * 2

    @property
    def n(self) -> int:
        return self.data.shape[2]

    def grow(self, need: int) -> None:
        """Step until ``need`` steps are held and the last tail ratio is
        below ``_TAIL_TOL``, until ``_MAX_TERMS`` are held, or until a step
        fails; a slope whose step failed is not stepped again."""
        a, params = self.a, self.params
        alpha = require_exponential(params.claims).rate
        c1p, c2a = params.c1 + 1.0, params.c2 - a
        last, carry, slopes = self._last, self._carry, (a, self.a_prime)
        n = self.n
        tail = self.tails[-1] if n else math.inf
        flat, tails = [], []
        while self.error is None and n < _MAX_TERMS and not (n >= need and tail < _TAIL_TOL):
            try:  # the primed family is seeded at a_prime, then steps at a like the base
                steps = tuple(_step(p, a if n else m, params) for p, m in zip(last, slopes))
            except NonConvergenceError as exc:
                self.error = str(exc)
                break
            ratios, next_carry = [], []
            for (g1, g2, g3), (rho_flux, scaled, total, size) in zip(steps, carry):
                g1_g3, g1_g2_alpha = g1 - g3, g1 + g2 + alpha
                factor = rho_flux / (g1 * c1p + g2 * c2a) if n else 1.0
                scaled *= factor
                term = scaled * g1_g3 / g1_g2_alpha
                total += term
                size += abs(term)
                ratios.append(abs(term) / max(abs(total), 1e-300))
                next_carry.append(
                    ((g3 + g2 + alpha) / g1_g2_alpha * (g3 * c1p + g2 * c2a), scaled, total, size)
                )
                flat += (g1, g2, g3, factor, g1_g3, g1_g2_alpha, size)
            tail = max(ratios)
            tails.append(tail)
            last, carry = steps, next_carry
            n += 1
        if flat:
            new = np.fromiter(flat, float, len(flat)).reshape(-1, 2, 7).transpose(2, 1, 0)
            data = np.concatenate((self.data, new), axis=2)
            data.flags.writeable = False
            self.data, self._last, self._carry = data, last, carry
            self.tails = np.concatenate((self.tails, tails))


def _primed_seed(g2_primed0: float, b: float) -> float:
    """``exp(g2*b)``, the primed family's first ``D_scaled`` at barrier ``b``."""
    try:
        return math.exp(g2_primed0 * b)
    except OverflowError:
        raise AnalyticDomainError(
            f"exp(g2*b) overflows at b={b} (g2={g2_primed0:.6g}); the series cannot be"
            " scaled to a barrier this far out"
        ) from None


def check_series_method(barrier: BarrierSpec, params: ModelParams) -> None:
    """Raise unless the series applies: exponential claims and a barrier
    of ``params`` (:func:`check_barrier`)."""
    require_exponential(params.claims)
    check_barrier(barrier, params)


@lru_cache(maxsize=128)
def _slope(a: float, params: ModelParams) -> _Slope:
    """The families at slope ``a``, shared by every barrier of that slope."""
    return _Slope(a, params)


@dataclass(frozen=True, eq=False)
class SequenceRow:
    """Coefficients of barriers that share one slope, the barrier axis leading.

    ``g1, g2, g3`` are the slope's read-only ``(2, terms)`` triples, which
    every barrier of the row shares.  ``D_scaled`` is ``(n, 2, terms)``;
    ``E`` and ``b`` are shaped ``(n, 1)`` and ``(n, 1, 1)``, so each
    broadcasts against the terms as a :class:`GammaSequences`' scalar does.
    ``errors[i]`` is the error :func:`build_sequences` raises for barrier
    ``i``, or None; such a barrier's coefficients are NaN, and when every
    barrier has an error the row holds no terms.
    """

    g1: np.ndarray
    g2: np.ndarray
    g3: np.ndarray
    D_scaled: np.ndarray
    E: np.ndarray
    b: np.ndarray
    a: float
    a_prime: float
    tail_ratio: float  # the slope's tail ratio at the last step kept
    errors: tuple[Exception | None, ...]


def build_row(
    barriers: Sequence[BarrierSpec], params: ModelParams, min_terms: int = 2
) -> SequenceRow:
    """Both families plus E for barriers of one slope, in one array pass.

    The triples come from the slope's cached families; a barrier sets only
    the two seeds of the rescaled coefficients.  These follow
    ``D_scaled[k+1] = D_scaled[k] * rho[k] * flux(g3[k], g2[k]) /
    flux(g1[k+1], g2[k+1])``, a cumulative product of the slope's step
    factors.  The base family starts from ``D0 = delta0 / flux(g1, g2)``,
    the primed family from ``D0 = 1``, that is ``D_scaled = exp(g2*b)``
    (``math.exp`` for each height, so its bits do not hang on NumPy's
    SIMD kernels).

    Each step adds its term to the corner sums at (0, b), the numerator
    and denominator of E.  The sequences end at the slope's first step
    ``k``, not before ``min_terms``, whose tail ratio is below
    ``_TAIL_TOL`` (``NonConvergenceError`` if none of ``_MAX_TERMS`` is).
    E then zeroes the value at (0, b) by construction, up to the shared
    truncation.

    A value of the series is a difference of the base terms and E times
    the primed terms, which can cancel far below their size.  So the
    rounding bound of the corner sums, ``2**-52 * (|seed0| S0 + |E|
    |seed1| S1)`` with ``S`` the slope's seed-1 sums of ``|term|`` at k,
    must stay within ``1e-6 * delta0 / (lam + q)``, a millionth of the
    value's scale (a relative test would fail at the corner, whose value
    is 0); otherwise ``NonConvergenceError``, naming an overflow when the
    bound or a corner sum is not finite.

    A barrier's error is the first that applies of: the slope's seed step
    failed, ``exp(g2*b)`` overflows (``AnalyticDomainError``), the corner
    sums do not converge, the rounding bound.  It is kept in ``errors``
    rather than raised.  The caller checks the series method.
    """
    a = float(barriers[0].a)
    if not 2 <= min_terms <= _MAX_TERMS:
        raise ParameterError([f"need 2 <= min_terms <= {_MAX_TERMS}, got {min_terms}"])
    if any(float(bar.a) != a for bar in barriers):
        raise ParameterError(["a row of barriers needs one slope"])

    slope = _slope(a, params)
    if slope.n < min_terms:
        slope.grow(min_terms)
    data, tails = slope.data, slope.tails
    heights = [float(bar.b) for bar in barriers]
    n, k = len(barriers), -1  # k: the last step kept, -1 while no barrier has terms
    if not slope.n:  # the seed step failed
        errors = [NonConvergenceError(slope.error)] * n
    else:
        seeds1, errors, g2_primed0 = [], [], float(data[1, 1, 0])
        for b in heights:
            try:
                seeds1.append(_primed_seed(g2_primed0, b))
                errors.append(None)
            except AnalyticDomainError as exc:
                seeds1.append(math.nan)
                errors.append(exc)
        hits = (tails[min_terms - 1 :] < _TAIL_TOL).nonzero()[0]
        if not hits.size:
            failed = NonConvergenceError(
                slope.error
                or f"corner sums not converged in {_MAX_TERMS} terms (tail ratio {tails[-1]:.2e})"
            )
            errors = [exc or failed for exc in errors]
        elif not all(errors):
            k = min_terms - 1 + int(hits[0])
    g1, g2, g3 = data[:3, :, : k + 1].copy()  # apart from the slope's arrays
    E = [math.nan] * n
    if k < 0:
        scaled = np.empty((n, 2, 0))
    else:
        g1_0, g2_0 = float(data[0, 0, 0]), float(data[1, 0, 0])
        flux0 = g1_0 * (params.c1 + 1.0) + g2_0 * (params.c2 - a)
        seeds0 = [bar.delta0 / flux0 for bar in barriers]
        factors = np.empty((n, 2, k + 1))
        factors[:] = data[3, :, : k + 1]
        factors[:, 0, 0], factors[:, 1, 0] = seeds0, seeds1
        with np.errstate(all="ignore"):  # an overflow fails the check below
            scaled = factors.cumprod(axis=-1)
            sums = (scaled * data[4, :, : k + 1] / data[5, :, : k + 1]).cumsum(axis=-1)
        # E and the rounding bound are two scalars a barrier: plain floats
        # cost less than a dozen array operations on a row of ~12 heights
        size_base, size_primed = data[6, :, k].tolist()
        corners = sums[:, :, k].tolist()
        for i, bar in enumerate(barriers):
            if errors[i] is None:
                (corner, corner_primed), seed0, seed1 = corners[i], seeds0[i], seeds1[i]
                if 0.0 < abs(corner_primed) < math.inf:
                    E[i] = -corner / corner_primed
                rounding = 2.0**-52 * (
                    abs(seed0) * size_base + abs(E[i]) * abs(seed1) * size_primed
                )
                scale = bar.delta0 / (params.lam + params.q)
                if not rounding <= 1e-6 * scale:
                    errors[i] = _rounding_error(corner, corner_primed, rounding, scale, k)
                    E[i] = math.nan
            if errors[i] is not None:
                scaled[i] = math.nan
    E = np.array(E)[:, None]
    for field in (g1, g2, g3, scaled, E):
        field.flags.writeable = False
    return SequenceRow(
        g1=g1,
        g2=g2,
        g3=g3,
        D_scaled=scaled,
        E=E,
        b=np.array(heights)[:, None, None],
        a=a,
        a_prime=slope.a_prime,
        tail_ratio=float(tails[k]) if k >= 0 else math.nan,
        errors=tuple(errors),
    )


def _rounding_error(
    corner: float, corner_primed: float, rounding: float, scale: float, k: int
) -> NonConvergenceError:
    """The error of a barrier whose corner sums fail the rounding bound."""
    if not all(map(math.isfinite, (rounding, corner, corner_primed))):
        return NonConvergenceError(
            f"a corner sum overflows: sums ({corner:.3g}, {corner_primed:.3g}) at (0, b),"
            f" rounding bound {rounding:.3g}, over {k + 1} terms"
        )
    return NonConvergenceError(
        f"series cancels below its rounding: bound {rounding:.3g} against delta0/(lam+q)"
        f" = {scale:.6g} over {k + 1} terms"
    )


def build_sequences(
    barrier: BarrierSpec, params: ModelParams, min_terms: int = 2
) -> GammaSequences:
    """Both families plus E for one barrier: :func:`build_row` of that
    barrier alone, whose error it raises."""
    check_series_method(barrier, params)
    row = build_row([barrier], params, min_terms)
    if row.errors[0] is not None:
        raise row.errors[0]
    return GammaSequences(
        g1=row.g1,
        g2=row.g2,
        g3=row.g3,
        D_scaled=row.D_scaled[0],
        E=float(row.E[0, 0]),
        a_prime=row.a_prime,
        a=row.a,
        b=float(barrier.b),
        tail_ratio=row.tail_ratio,
    )


@lru_cache(maxsize=128)
def sequences_for(
    barrier: BarrierSpec, params: ModelParams, min_terms: int = 2
) -> GammaSequences:
    """Cached :func:`build_sequences`; the slope decides how many terms it keeps."""
    return build_sequences(barrier, params, min_terms)


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
