"""Domain types for the two-company risk process and barrier geometry.

Two companies share every claim in full and collect premiums at rates
``c1 > c2``.  The reserve pair drifts at ``(c1, c2)`` between claims and
jumps by ``-(x, x)`` at each claim.  A linear barrier ``y = b - a*x``
splits the positive quadrant; while the controlled process sits on or
above the barrier, the drift ``(c1 + 1, c2 - a)`` is diverted to the
shareholders.  That is the one payout drift: on the line the pair moves
with velocity ``(-1, a)``, along the line toward ``(0, b)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

#: absolute tolerance for deciding that a point sits on the barrier line
ON_LINE_TOL = 1e-12


class ParameterError(ValueError):
    """Raised for invalid model/control parameters.

    ``violations`` lists every failed condition, not just the first.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class UnsupportedDistributionError(TypeError):
    """Analytic formulas are implemented for exponential claims only."""


class AnalyticDomainError(ValueError):
    """The series solution is not defined at the requested point or barrier."""


class NonConvergenceError(RuntimeError):
    """A numerical procedure failed to reach its tolerance."""


class ClaimDistribution:
    """Claim-size distribution: a mean and an inverse CDF."""

    def mean(self) -> float:
        raise NotImplementedError

    def ppf(self, u: np.ndarray) -> np.ndarray:
        """Claim sizes at the uniforms ``u`` in (0, 1)."""
        raise NotImplementedError


@dataclass(frozen=True)
class ExponentialClaims(ClaimDistribution):
    """Exponential claim sizes with rate ``rate`` (mean ``1/rate``)."""

    rate: float

    def __post_init__(self):
        if not (self.rate > 0.0 and math.isfinite(self.rate)):
            raise ParameterError([f"claim rate must be positive and finite, got {self.rate}"])

    def mean(self) -> float:
        return 1.0 / self.rate

    def ppf(self, u: np.ndarray) -> np.ndarray:
        return -np.log1p(-u) / self.rate


@dataclass(frozen=True)
class SampledClaims(ClaimDistribution):
    """Monte-Carlo-only distribution given by its inverse CDF.

    Rejected by every analytic routine; only the simulator accepts it.
    """

    inverse_cdf: Callable[[np.ndarray], np.ndarray]
    mean_value: float

    def mean(self) -> float:
        return self.mean_value

    def ppf(self, u: np.ndarray) -> np.ndarray:
        return np.asarray(self.inverse_cdf(u), dtype=float)


def require_exponential(claims: ClaimDistribution) -> ExponentialClaims:
    if not isinstance(claims, ExponentialClaims):
        raise UnsupportedDistributionError(
            f"analytic formulas need exponential claims, got {type(claims).__name__}"
        )
    return claims


@dataclass(frozen=True)
class ModelParams:
    """Premium rates, claim arrivals and discounting.

    c1, c2   premium rates of company 1 and 2 (reserve per time)
    lam      claim arrival intensity (per time)
    claims   claim-size distribution, shared by both companies
    q        discount rate (per time)

    Construction raises :class:`ParameterError` with every condition of
    :func:`model_violations` that fails, so a model that exists is valid.
    """

    c1: float
    c2: float
    lam: float
    claims: ClaimDistribution
    q: float

    def __post_init__(self):
        v = model_violations(self)
        if v:
            raise ParameterError(v)


def model_violations(params: ModelParams) -> list[str]:
    """All violated validity conditions of ``params`` (empty when valid)."""
    v = []
    if not params.c1 > params.c2:
        v.append(f"c1 > c2 violated ({params.c1} <= {params.c2})")
    if not params.c1 < math.inf:
        v.append(f"c1 < inf violated ({params.c1})")
    if not params.c2 > 0.0:
        v.append(f"c2 > 0 violated ({params.c2})")
    if not params.lam > 0.0:
        v.append(f"lambda > 0 violated ({params.lam})")
    if not params.q > 0.0:
        v.append(f"q > 0 violated ({params.q})")
    if not params.q < math.inf:
        v.append(f"q < inf violated ({params.q})")
    mean = params.claims.mean()
    if not (math.isfinite(mean) and mean > 0.0):
        v.append(f"claim mean must be finite and positive ({mean})")
    else:
        outflow = params.lam * mean
        if not params.c1 > outflow:
            v.append(f"net profit for company 1 violated ({params.c1} <= {outflow})")
        if not params.c2 > outflow:
            v.append(f"net profit for company 2 violated ({params.c2} <= {outflow})")
    return v


@dataclass(frozen=True)
class Reserves:
    """Initial reserve pair.  Negative coordinates classify as ruined."""

    u1: float
    u2: float


@dataclass(frozen=True)
class BarrierSpec:
    """Linear payout barrier ``y = b - a*x`` and its payout rate ``delta0``.

    On and above the line the drift ``(c1 + 1, c2 - a)`` is diverted to the
    shareholders at the total rate ``delta0 = (c1 + 1) + (c2 - a)``, so the
    on-line velocity is ``(-1, a)``: motion along the line toward ``(0, b)``.
    Build one with :meth:`reflection`; :func:`check_barrier` checks it
    against a model.
    """

    a: float
    b: float
    delta0: float

    def __post_init__(self):
        v = []
        if not 0.0 < self.a < math.inf:
            v.append(f"0 < a < inf violated ({self.a})")
        if not 0.0 < self.b < math.inf:
            v.append(f"0 < b < inf violated ({self.b})")
        if v:
            raise ParameterError(v)

    @classmethod
    def reflection(cls, a: float, b: float, params: ModelParams) -> "BarrierSpec":
        """The barrier ``y = b - a*x`` of ``params``, paying ``(c1 + 1, c2 - a)``."""
        if a >= params.c2:  # a NaN slope goes on to __post_init__, which names it
            raise ParameterError([f"reflection needs c2 > a ({params.c2} <= {a})"])
        return cls(a=a, b=b, delta0=(params.c1 + 1.0) + (params.c2 - a))

    def line_height(self, u1: float) -> float:
        return self.b - self.a * u1


def check_barrier(barrier: BarrierSpec, params: ModelParams) -> None:
    """Raise :class:`ParameterError` unless ``barrier`` pays the payout rate
    of the drift ``(c1 + 1, c2 - a)`` of ``params``, bit for bit, as
    :meth:`BarrierSpec.reflection` builds it; a barrier built for another
    model fails."""
    rate = (params.c1 + 1.0) + (params.c2 - barrier.a)
    if barrier.delta0 != rate:
        raise ParameterError([
            f"delta0 = (c1 + 1) + (c2 - a) violated ({barrier.delta0} != {rate});"
            " build the barrier for this model with BarrierSpec.reflection"
        ])


class Region(Enum):
    """Partition of the plane relative to the barrier and the quadrant."""

    INTERIOR = "interior"  # strictly above the line, payout region
    ON_LINE = "on_line"
    COMPLEMENT = "complement"  # strictly below the line, no payout
    OUTSIDE_QUADRANT = "outside_quadrant"


def classify_point(u: Reserves, barrier: BarrierSpec) -> Region:
    """Exactly one region for every input point."""
    if min(u.u1, u.u2) < 0.0:
        return Region.OUTSIDE_QUADRANT
    gap = u.u2 - barrier.line_height(u.u1)
    if abs(gap) <= ON_LINE_TOL:
        return Region.ON_LINE
    return Region.INTERIOR if gap > 0.0 else Region.COMPLEMENT
