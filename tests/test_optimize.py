import dataclasses
import math
import random
import struct

import numpy as np
import pytest

from dividend2d import (
    BarrierSpec,
    ExponentialClaims,
    ModelParams,
    Reserves,
    build_sequences,
    refine_barrier,
    sequences_to_csv,
    sweep_barrier,
    sweep_to_csv,
)
from dividend2d import barrier as barrier_module
from dividend2d import gammas
from dividend2d.gammas import sequences_for
from dividend2d.optimize import SWEEP_HEADER, _evaluate_cell

TABLE1_A = [0.1, 0.2, 0.5, 1.0]
TABLE1_B = [6.0, 8.0, 14.0, 15.0, 20.0, 28.0]


def test_single_cell_grid(params):
    res = sweep_barrier(Reserves(1.0, 2.0), [0.1], [14.0], params)
    assert res.argmax == (0.1, 14.0)
    assert len(res.grid) == 1
    assert res.argmax_value == res.grid[0].v1


def test_table1_grid_argmax(params):
    res = sweep_barrier(Reserves(1.0, 2.0), TABLE1_A, TABLE1_B, params)
    assert len(res.grid) == 24
    assert all(c.error is None for c in res.grid)
    assert res.argmax == (0.1, 14.0)
    assert res.argmax_value == pytest.approx(37.94089598319128, rel=1e-12)


def test_sweep_deterministic_and_cache_neutral(params):
    u = Reserves(1.0, 2.0)
    first = sweep_barrier(u, TABLE1_A, TABLE1_B, params)
    sequences_for.cache_clear()
    second = sweep_barrier(u, TABLE1_A, TABLE1_B, params)
    for x, y in zip(first.grid, second.grid):
        assert x.v1 == pytest.approx(y.v1, abs=1e-14)
    assert first.argmax == second.argmax


def test_invalid_cells_recorded_not_fatal(params):
    # b = 1.5 puts the start point above the barrier: cell error, sweep survives
    res = sweep_barrier(Reserves(1.0, 2.0), [0.1], [1.5, 14.0], params)
    assert res.grid[0].v1 is None and res.grid[0].error
    assert res.grid[1].v1 is not None
    assert res.argmax == (0.1, 14.0)


def test_csv_format(params):
    res = sweep_barrier(Reserves(1.0, 2.0), [0.1], [14.0, 15.0], params)
    lines = sweep_to_csv(res).strip().splitlines()
    assert lines[0] == SWEEP_HEADER == "a,b,u1,u2,v1,terms,tail,error"
    assert len(lines) == 4  # header + 2 cells + argmax footer
    assert lines[-1].startswith("argmax,")


def test_csv_cells_are_plain_floats_for_numpy_inputs(params):
    # NumPy scalars must not reach the text as np.float64(...)
    grid = list(np.linspace(0.1, 0.2, 2))
    sweep = sweep_to_csv(sweep_barrier(Reserves(1.0, 2.0), grid, [14.0], params))
    bar = BarrierSpec.reflection(np.float64(0.1), np.float64(14.0), params)
    seqs = build_sequences(bar, params)
    for dump in (sweep, sequences_to_csv(seqs)):
        for line in dump.strip().splitlines()[1:]:
            for cell in line.split(","):
                if cell not in ("", "argmax"):
                    float(cell)
    assert seqs.key == "gamma[a=0.1,b=14.0,terms=%d]" % len(seqs.steps)


def test_refine_beats_grid(params):
    grid = sweep_barrier(Reserves(1.0, 2.0), TABLE1_A, TABLE1_B, params)
    ref = refine_barrier(Reserves(1.0, 2.0), params, (0.05, 1.0), (6.0, 28.0), budget=120)
    assert ref.v1 >= grid.argmax_value - 1e-12
    assert ref.evaluations <= 121


def test_optimum_depends_on_reserves(params):
    r12 = refine_barrier(Reserves(1.0, 2.0), params, (0.05, 1.0), (6.0, 28.0), budget=120)
    r23 = refine_barrier(Reserves(2.0, 3.0), params, (0.05, 1.0), (6.0, 28.0), budget=120)
    assert (r12.a, r12.b, r12.v1) != (r23.a, r23.b, r23.v1)


def test_a_cell_whose_series_does_not_converge_is_recorded_and_skipped():
    # at c1 = 2e8 the corner sums of slope 1 are not converged in 200
    # terms; the NonConvergenceError used to abort the whole sweep
    params = ModelParams(c1=2e8, c2=3.0, lam=1.0, claims=ExponentialClaims(rate=2.0), q=0.1)
    u = Reserves(1.0, 2.0)
    res = sweep_barrier(u, [0.1, 1.0], [14.0], params)
    good, bad = res.grid
    assert good.error is None and res.argmax == (0.1, 14.0) and res.argmax_value == good.v1
    assert bad.v1 is None and bad.error.startswith("corner sums not converged in 200 terms")
    # refinement sees such a cell as -inf and keeps to the others
    ref = refine_barrier(u, params, (0.1, 1.0), (10.0, 14.0), budget=40)
    assert math.isfinite(ref.v1) and ref.v1 >= good.v1


def _fields(cell):
    """Every field of a sweep cell, with ``v1`` and ``tail`` as their bits."""
    bits = lambda x: None if x is None else struct.pack("<d", x)
    return (cell.a, cell.b, cell.u1, cell.u2, bits(cell.v1), cell.terms, bits(cell.tail),
            cell.error, cell.numerical)


def _per_cell(u, a_values, b_values, params):
    return [_fields(_evaluate_cell(u, a, b, params)) for a in a_values for b in b_values]


@pytest.mark.parametrize("rate", [2.0, 0.6])
def test_sweep_cells_equal_the_per_cell_evaluation(rate):
    # each slope row is valued in one array pass; every cell must still be
    # what _evaluate_cell gives it, bit for bit, error text included
    params = ModelParams(c1=4.0, c2=3.0, lam=1.0, claims=ExponentialClaims(rate=rate), q=0.1)
    rng = random.Random(3200 + int(10 * rate))
    valid = invalid = 0
    for _ in range(40):
        # starts on both sides of the line and of the diagonal
        u = Reserves(rng.uniform(0.0, 5.0), rng.uniform(0.0, 8.0))
        a_values = [rng.uniform(0.01, 2.99) for _ in range(rng.randint(1, 5))]
        b_values = [rng.uniform(0.5, 60.0) for _ in range(rng.randint(1, 6))]
        grid = sweep_barrier(u, a_values, b_values, params).grid
        assert [_fields(c) for c in grid] == _per_cell(u, a_values, b_values, params)
        valid += sum(c.error is None for c in grid)
        invalid += sum(c.error is not None for c in grid)
    assert valid > 50 and invalid > 50


@pytest.mark.parametrize("changes, a_values, b_values, errors", [
    ({}, [3.0, 3.5], [14.0], ["reflection needs c2 > a (3.0 <= 3.0)",
                              "reflection needs c2 > a (3.0 <= 3.5)"]),
    ({}, [0.1], [1.5], ["point Reserves(u1=1.0, u2=2.0) lies strictly above the barrier"]),
    ({"q": 1e-16}, [0.1], [14.0], ["series cancels below its rounding: bound 51.5"]),
    # the primed seed's overflow is checked before the slope's failed step,
    # so b = 800 is bad input (exit 2), not a numerical error
    ({"c1": 1e100}, [0.1], [14.0, 800.0], ["exponent step not finite: ",
                                           "exp(g2*b) overflows at b=800.0"]),
])
def test_sweep_takes_each_cells_first_failing_check(params, changes, a_values, b_values, errors):
    params = dataclasses.replace(params, **changes)
    u = Reserves(1.0, 2.0)
    grid = sweep_barrier(u, a_values, b_values, params).grid
    assert [_fields(c) for c in grid] == _per_cell(u, a_values, b_values, params)
    assert [c.error[: len(e)] for c, e in zip(grid, errors)] == errors
    assert [c.numerical for c in grid] == [e.startswith(("series", "exponent")) for e in errors]


def test_sweep_takes_numpy_floats_and_repeated_values(params):
    u = Reserves(1.0, 2.0)
    a_values = list(np.array([0.2, 0.1, 0.2]))
    b_values = list(np.array([14.0, 1.5, 14.0, 20.0]))
    grid = sweep_barrier(u, a_values, b_values, params).grid
    assert [_fields(c) for c in grid] == _per_cell(u, a_values, b_values, params)
    assert _fields(grid[0]) == _fields(grid[2]) == _fields(grid[8]) == _fields(grid[10])
    assert grid[1].error is not None and grid[3].v1 is not None


def test_sweep_builds_each_slope_row_once(params, monkeypatch):
    rows, builds = [], []
    build_row, build_sequences = barrier_module.build_row, gammas.build_sequences

    def counted_row(barriers, *args):
        rows.append(len(barriers))
        return build_row(barriers, *args)

    def counted_build(*args):
        builds.append(args)
        return build_sequences(*args)

    monkeypatch.setattr(barrier_module, "build_row", counted_row)
    monkeypatch.setattr(gammas, "build_sequences", counted_build)
    rng = np.random.default_rng(32)
    a_values = sorted(rng.uniform(0.05, 1.5, 12).tolist())
    b_values = sorted(rng.uniform(4.0, 30.0, 12).tolist())
    sequences_for.cache_clear()
    grid = sweep_barrier(Reserves(1.0, 2.0), a_values, b_values, params).grid
    assert all(c.error is None for c in grid)
    assert rows == [12] * 12 and builds == []
