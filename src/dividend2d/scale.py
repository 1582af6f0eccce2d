"""Scale function, Laplace exponent and exponential tilting for one company.

The single-company surplus ``drift*t - S(t)`` with exponential claims has
Laplace exponent ``psi(theta) = drift*theta - lam*theta/(alpha + theta)``.
Its q-scale function is a two-exponential combination whose exponents are
the roots of ``psi(theta) = q``; everything here is closed form,
including the q-derivatives needed for discounted first-passage moments.

The drift is ``c2``: the reinsurer's surplus is the one raced against
barriers in the impulse model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, require_exponential


def laplace_exponent(theta, drift: float, lam: float, alpha: float):
    """psi(theta) = drift*theta - lam*theta/(alpha + theta); vectorized."""
    theta = np.asarray(theta, dtype=float)
    out = drift * theta - lam * theta / (alpha + theta)
    return float(out) if out.ndim == 0 else out


def _exponent_roots(q: float, drift: float, lam: float, alpha: float):
    """Roots of psi(theta) = q with their q-derivatives.

    ``psi(theta) = q`` is ``drift*theta^2 + (drift*alpha - lam - q)*theta
    - q*alpha = 0``.  The root with a cancellation-prone branch is taken
    from the product of roots ``q_plus * q_minus = -q*alpha/drift``.
    """
    X = q + lam - alpha * drift  # = -(quadratic's linear coefficient)
    disc = X * X + 4.0 * drift * q * alpha
    sq = math.sqrt(disc)
    if X >= 0.0:
        q_plus = (X + sq) / (2.0 * drift)
        q_minus = -q * alpha / (drift * q_plus)
    else:
        q_minus = (X - sq) / (2.0 * drift)
        q_plus = -q * alpha / (drift * q_minus)
    dq_plus = (1.0 + (q + lam + alpha * drift) / sq) / (2.0 * drift)
    dq_minus = (1.0 - (q + lam + alpha * drift) / sq) / (2.0 * drift)
    return q_plus, q_minus, dq_plus, dq_minus


@dataclass(frozen=True)
class ScaleParams:
    """Closed-form pieces of the q-scale function and their q-derivatives."""

    q_plus: float
    q_minus: float
    A_plus: float
    A_minus: float
    dq_plus: float
    dq_minus: float
    dA_plus: float
    dA_minus: float
    drift: float
    lam: float
    alpha: float
    q: float

    def w_q(self, x):
        """Scale function value(s); increasing, w_q(0) = 1/drift."""
        x = np.asarray(x, dtype=float)
        if np.any(x < 0.0):
            raise ValueError("scale function domain is x >= 0")
        out = (
            self.A_plus * np.exp(self.q_plus * x)
            - self.A_minus * np.exp(self.q_minus * x)
        ) / self.drift
        return float(out) if out.ndim == 0 else out

    def dw_dq(self, x):
        """q-derivative of the scale function.

        Both coefficients and exponents move with q, so each exponential
        carries an ``x``-weighted term alongside the coefficient term.
        """
        x = np.asarray(x, dtype=float)
        if np.any(x < 0.0):
            raise ValueError("scale function domain is x >= 0")
        ep = np.exp(self.q_plus * x)
        em = np.exp(self.q_minus * x)
        out = (
            self.dA_plus * ep
            + self.dq_plus * self.A_plus * x * ep
            - self.dA_minus * em
            - self.dq_minus * self.A_minus * x * em
        ) / self.drift
        return float(out) if out.ndim == 0 else out


def scale_params(params: ModelParams) -> ScaleParams:
    """Build :class:`ScaleParams` at drift ``c2``."""
    alpha = require_exponential(params.claims).rate
    drift = params.c2
    qp, qm, dqp, dqm = _exponent_roots(params.q, drift, params.lam, alpha)
    gap = qp - qm
    dgap = dqp - dqm
    A_plus = (alpha + qp) / gap
    A_minus = (alpha + qm) / gap
    dA_plus = (dqp * gap - (alpha + qp) * dgap) / (gap * gap)
    dA_minus = (dqm * gap - (alpha + qm) * dgap) / (gap * gap)
    return ScaleParams(
        q_plus=qp,
        q_minus=qm,
        A_plus=A_plus,
        A_minus=A_minus,
        dq_plus=dqp,
        dq_minus=dqm,
        dA_plus=dA_plus,
        dA_minus=dA_minus,
        drift=drift,
        lam=params.lam,
        alpha=alpha,
        q=params.q,
    )


@dataclass(frozen=True)
class TiltedModel:
    """Exponentially tilted dynamics that absorb the discounting.

    Under the tilted measure the claim arrival rate drops to ``lambda_q``
    and claim sizes stay exponential with the larger rate ``alpha_q``,
    so the tilted surplus drifts upward.
    """

    phi: float
    lambda_q: float
    alpha_q: float


def phi_inverse(params: ModelParams) -> TiltedModel:
    """Right inverse of the Laplace exponent at q, with tilted rates.

    For this two-exponential model the inverse coincides with the
    positive root ``q_plus`` of ``psi(theta) = q``.
    """
    alpha = require_exponential(params.claims).rate
    qp, _, _, _ = _exponent_roots(params.q, params.c2, params.lam, alpha)
    return TiltedModel(phi=qp, lambda_q=params.lam * alpha / (alpha + qp), alpha_q=alpha + qp)
