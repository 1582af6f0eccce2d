"""Barrier parameter sweeps and local refinement of (a, b).

The objective is the analytic series value only: it is deterministic and
cheap once the exponent sequences are cached per (a, b), so grids of a
few hundred cells run in seconds.  Monte Carlo never enters here; it
serves as validation elsewhere.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

from .barrier import AnalyticDomainError, v1_barrier
from .model import (
    BarrierSpec,
    ModelParams,
    ParameterError,
    Reserves,
    UnsupportedDistributionError,
)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
#: points per axis of the seed grid that starts a refinement
_SEED_GRID = 5

SWEEP_HEADER = "a,b,u1,u2,v1,terms,tail"


@dataclass(frozen=True)
class SweepCell:
    a: float
    b: float
    u1: float
    u2: float
    v1: float | None
    terms: int
    tail: float
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    """Grid of valuations; argmax ties resolve to the first cell in order."""

    grid: tuple[SweepCell, ...]
    argmax: tuple[float, float] | None
    argmax_value: float


def _evaluate_cell(u: Reserves, a: float, b: float, params: ModelParams) -> SweepCell:
    try:
        barrier = BarrierSpec.reflection(a, b, params)
        val = v1_barrier(u, barrier, params)
        return SweepCell(a, b, u.u1, u.u2, val.value, val.terms_used, val.tail_estimate)
    except (ParameterError, AnalyticDomainError, UnsupportedDistributionError) as exc:
        return SweepCell(a, b, u.u1, u.u2, None, 0, math.nan, error=str(exc))


def sweep_barrier(
    u: Reserves,
    a_values: list[float],
    b_values: list[float],
    params: ModelParams,
) -> SweepResult:
    """Evaluate the full (a, b) grid in row-major order.

    Invalid cells are recorded with their error and skipped for the
    argmax; the sweep itself never aborts on a cell.
    """
    cells = [_evaluate_cell(u, a, b, params) for a in a_values for b in b_values]
    best = None
    best_val = -math.inf
    for c in cells:
        if c.v1 is not None and c.v1 > best_val:
            best, best_val = (c.a, c.b), c.v1
    return SweepResult(grid=tuple(cells), argmax=best, argmax_value=best_val)


def sweep_to_csv(result: SweepResult) -> str:
    """Sweep grid as CSV plus an ``argmax`` footer row.

    Numbers are written as plain floats, whatever scalar type the grid
    was given in.
    """
    num = lambda x: repr(float(x))
    out = io.StringIO()
    out.write(SWEEP_HEADER + "\n")
    for c in result.grid:
        v = "" if c.v1 is None else num(c.v1)
        tail = "" if c.v1 is None else num(c.tail)
        out.write(f"{num(c.a)},{num(c.b)},{num(c.u1)},{num(c.u2)},{v},{c.terms},{tail}\n")
    if result.argmax is not None:
        a, b = result.argmax
        out.write(f"argmax,{num(a)},{num(b)},,{num(result.argmax_value)},,\n")
    return out.getvalue()


@dataclass(frozen=True)
class RefineResult:
    a: float
    b: float
    v1: float
    evaluations: int
    budget_exhausted: bool


def _golden_section(f, lo: float, hi: float, evals_left: int, x0: float, f0: float):
    """Bounded golden-section maximization; returns (x, f(x), evals used).

    Never returns a point worse than the incoming (x0, f0).
    """
    used = 0
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    used += 2
    while used < evals_left and (hi - lo) > 1e-6 * max(1.0, abs(hi)):
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = f(d)
        used += 1
    best_x, best_f = (c, fc) if fc >= fd else (d, fd)
    if f0 >= best_f:
        return x0, f0, used
    return best_x, best_f, used


def refine_barrier(
    u: Reserves,
    params: ModelParams,
    a_range: tuple[float, float],
    b_range: tuple[float, float],
    budget: int = 200,
) -> RefineResult:
    """Coordinate-descent golden-section refinement inside the given ranges.

    Starts from the argmax of a coarse seed grid and alternates
    golden-section line searches in a and b.  Accepted steps never
    decrease the objective, so the result is at least the best seed cell.
    """

    def objective(a: float, b: float) -> float:
        cell = _evaluate_cell(u, a, b, params)
        return -math.inf if cell.v1 is None else cell.v1

    a_lo, a_hi = a_range
    b_lo, b_hi = b_range
    a_seed = [a_lo + (a_hi - a_lo) * i / (_SEED_GRID - 1) for i in range(_SEED_GRID)]
    b_seed = [b_lo + (b_hi - b_lo) * i / (_SEED_GRID - 1) for i in range(_SEED_GRID)]
    seed = sweep_barrier(u, a_seed, b_seed, params)
    if seed.argmax is None:
        raise ParameterError(["no valid cell in the refinement seed grid"])
    a_best, b_best = seed.argmax
    f_best = seed.argmax_value
    evals = _SEED_GRID * _SEED_GRID

    for _ in range(6):  # alternating sweeps; budget is the binding limit
        if evals >= budget:
            break
        a_best, f_best, used = _golden_section(
            lambda a: objective(a, b_best), a_lo, a_hi, budget - evals, a_best, f_best
        )
        evals += used
        if evals >= budget:
            break
        b_best, f_best, used = _golden_section(
            lambda b: objective(a_best, b), b_lo, b_hi, budget - evals, b_best, f_best
        )
        evals += used
    return RefineResult(
        a=a_best,
        b=b_best,
        v1=f_best,
        evaluations=evals,
        budget_exhausted=evals >= budget,
    )
