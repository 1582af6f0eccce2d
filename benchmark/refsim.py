"""Scalar reference simulator for the reflection barrier, apart from dividend2d.

It shares no code and no random stream with ``dividend2d.simulate``: one
path at a time, plain Python arithmetic, and a PCG64 generator of its
own.  Either company may ruin.  Under the reflection drift
``(c1 + 1, c2 - a)`` a path that reaches the line ``y2 = b - a*y1`` moves
along it with velocity ``(-1, a)`` while paying ``delta0`` per unit time,
until the next claim pushes it below the line or company 1's reserve
reaches 0 at the corner ``(0, b)``, which is ruin.
"""

from __future__ import annotations

import math

import numpy as np


def reference_barrier_mean(
    u1: float,
    u2: float,
    a: float,
    b: float,
    c1: float,
    c2: float,
    lam: float,
    alpha: float,
    q: float,
    horizon: float,
    n_paths: int,
    seed: int,
) -> tuple[float, float]:
    """Mean and standard error of the discounted dividends over ``n_paths``.

    Payouts after ``horizon`` are dropped, as in the library's estimator.
    """
    if not (u1 >= 0.0 and u2 >= 0.0 and u2 < b - a * u1):
        raise ValueError("start must lie in the quadrant, strictly below the line")
    delta0 = (c1 + 1.0) + (c2 - a)
    approach = c2 + a * c1  # growth of y2 - (b - a*y1) below the line
    draws = _exponentials(np.random.default_rng(seed))
    total = total_sq = 0.0
    for _ in range(n_paths):
        y1, y2, t, d = u1, u2, 0.0, 0.0
        on_line = False
        while True:
            w = next(draws) / lam
            if not on_line:
                t_hit = (b - a * y1 - y2) / approach
                on_line = t_hit < w
                step = t_hit if on_line else w
                y1 += c1 * step
                y2 = b - a * y1 if on_line else y2 + c2 * step
                t += step
                w -= step
                if t >= horizon:
                    break
            if on_line:
                dt = min(w, y1, horizon - t)
                d += delta0 * (math.exp(-q * t) - math.exp(-q * (t + dt))) / q
                t += dt
                if dt == y1 or t >= horizon:  # the corner (company 1 ruins) or the horizon
                    break
                y1 -= dt
                y2 += a * dt
            x = next(draws) / alpha
            y1 -= x
            y2 -= x
            on_line = False
            if y1 < 0.0 or y2 < 0.0:
                break
        total += d
        total_sq += d * d
    mean = total / n_paths
    var = max(total_sq / n_paths - mean * mean, 0.0)
    return mean, math.sqrt(var / n_paths)


def _exponentials(rng: np.random.Generator, chunk: int = 65536):
    """Unit exponentials, one at a time, drawn from ``rng`` in chunks."""
    while True:
        yield from rng.standard_exponential(chunk).tolist()
