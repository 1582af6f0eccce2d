import math

import numpy as np
import pytest
from scipy.integrate import quad

from dividend2d import (
    AnalyticDomainError,
    BarrierSpec,
    ExponentialClaims,
    ModelParams,
    Reserves,
    SampledClaims,
    SimConfig,
    StencilError,
    UnsupportedDistributionError,
    boundary_residual,
    estimate_barrier_moments,
    pide_residual,
    v1_barrier,
)
from dividend2d.barrier import _integral_term, v1_values
from dividend2d.gammas import build_sequences
from dividend2d.tables import TABLE3_BARRIER, TABLE3_REFERENCE

# regression pin: cross-validated against the path simulator to ~3 decimals
# (direct simulation at 3e5 paths gave 37.9459 +- 0.0111)
V1_TABLE1_ARGMAX_CELL = 37.94089598319128


def test_value_at_main_cell(params, barrier):
    val = v1_barrier(Reserves(1.0, 2.0), barrier, params)
    assert val.value == pytest.approx(V1_TABLE1_ARGMAX_CELL, rel=1e-12)
    assert val.value >= 0.0
    assert val.tail_estimate < 1e-12 * max(1.0, val.value)
    assert val.sequences_ref.startswith("gamma[")


def test_corner_value_vanishes(params, barrier):
    assert abs(v1_barrier(Reserves(0.0, barrier.b), barrier, params).value) < 1e-6


def test_agrees_with_simulator(params, barrier):
    est = estimate_barrier_moments(
        Reserves(1.0, 2.0), barrier, params, SimConfig(n_paths=40_000, master_seed=2024)
    )
    mean, se = est.moments[1]
    assert abs(mean - V1_TABLE1_ARGMAX_CELL) < 4.0 * se


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the series leaves out ruin of company 2, which the simulated model"
        " counts: at alpha=0.6, q=0.1, u=(1,2), a=0.1, b=14 the series gives"
        " 15.6484 against Monte Carlo 14.7209 +- 0.0559 at 5e4 paths"
        " (benchmark/references.json)"
    ),
)
def test_agrees_with_simulator_at_large_claims():
    params = ModelParams(c1=4.0, c2=3.0, lam=1.0, claims=ExponentialClaims(0.6), q=0.1)
    barrier = BarrierSpec.reflection(0.1, 14.0, params)
    u = Reserves(1.0, 2.0)
    series = v1_barrier(u, barrier, params).value
    est = estimate_barrier_moments(u, barrier, params, SimConfig(n_paths=20_000, master_seed=2024))
    mean, se = est.moments[1]
    assert abs(series - mean) <= 3.0 * se


def test_pide_residual_small(params, barrier):
    u = Reserves(1.0, 2.0)
    v = v1_barrier(u, barrier, params).value
    res = pide_residual(u, barrier, params, h=1e-4)
    assert abs(res) < 1e-5 * (params.lam + params.q) * v


def test_pide_residual_second_order(params, barrier):
    u = Reserves(2.0, 4.0)
    r1 = pide_residual(u, barrier, params, h=2e-3)
    r2 = pide_residual(u, barrier, params, h=1e-3)
    assert abs(r1 / r2) == pytest.approx(4.0, rel=0.5)


def test_pide_residual_on_constant_function(params, barrier):
    # closed form on constants: c.grad = 0 and the claim integral is
    # c0 * (1 - e^{-alpha u1}), so the residual is known exactly
    c0 = 3.7
    u = Reserves(1.0, 2.0)
    alpha = params.claims.rate
    res = pide_residual(u, barrier, params, h=1e-4, value_fn=lambda x1, x2: c0)
    expected = -(params.lam + params.q) * c0 + params.lam * c0 * (1.0 - math.exp(-alpha * u.u1))
    assert res == pytest.approx(expected, abs=1e-9)


def test_boundary_residual_small(params, barrier):
    for frac in (0.1, 0.4, 0.8):
        u1 = frac * barrier.b / (1.0 + barrier.a)
        u = Reserves(u1, barrier.line_height(u1))
        res = boundary_residual(u, barrier, params, h=1e-4)
        assert abs(res) < 1e-3 * barrier.delta0


def test_boundary_residual_refines(params, barrier):
    u1 = 3.0
    u = Reserves(u1, barrier.line_height(u1))
    r1 = boundary_residual(u, barrier, params, h=4e-3)
    r2 = boundary_residual(u, barrier, params, h=2e-3)
    assert abs(r2) < abs(r1)


def test_boundary_residual_rejects_corner(params, barrier):
    with pytest.raises(StencilError):
        boundary_residual(Reserves(0.0, barrier.b), barrier, params, h=1e-4)


def test_monotone_in_u1(params, barrier):
    # richer company 1 enters the payout line farther out and pays longer
    for u2 in (2.0, 5.0, 9.0):
        vals = [
            v1_barrier(Reserves(u1, u2), barrier, params).value
            for u1 in np.linspace(0.0, u2 * 0.95, 8)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def test_hump_shape_in_u2(params, barrier):
    # the value is NOT monotone in u2: more reserve reaches the payout
    # line sooner (less discounting) but enters it nearer the ruinous
    # corner (shorter payout ride); the resulting hump is confirmed by
    # the simulator (z = -0.6 and -0.8 at 1.5e5 paths at the two ends)
    vals = [
        v1_barrier(Reserves(1.0, u2), barrier, params).value
        for u2 in np.linspace(1.5, 12.0, 12)
    ]
    peak = int(np.argmax(vals))
    assert 0 < peak < len(vals) - 1
    assert all(b >= a for a, b in zip(vals[: peak + 1], vals[1 : peak + 1]))
    assert all(b <= a for a, b in zip(vals[peak:], vals[peak + 1 :]))


def test_vanishes_as_barrier_recedes(params):
    vals = []
    for b in (20.0, 40.0, 80.0):
        bar = BarrierSpec.reflection(0.1, b, params)
        vals.append(v1_barrier(Reserves(1.0, 2.0), bar, params).value)
    assert vals[0] > vals[1] > vals[2] > 0.0
    assert vals[2] < 0.2 * vals[0]


def test_truncation_stability(params, barrier):
    u = Reserves(1.0, 2.0)
    short = build_sequences(barrier, params)
    long = build_sequences(barrier, params, min_terms=2 * len(short.steps))
    v_short = v1_barrier(u, barrier, params, sequences=short).value
    v_long = v1_barrier(u, barrier, params, sequences=long).value
    assert abs(v_long - v_short) <= 10e-12 * abs(v_short)


def test_domain_rejections(params, barrier):
    with pytest.raises(AnalyticDomainError, match="above the barrier"):
        v1_barrier(Reserves(1.0, 14.5), barrier, params)
    with pytest.raises(AnalyticDomainError, match="u1 < u2"):
        v1_barrier(Reserves(2.0, 2.0), barrier, params)
    with pytest.raises(AnalyticDomainError):
        # above the intercept is also above the line, rejected either way
        v1_barrier(Reserves(0.0, 15.0), barrier, params)
    bad_claims = ModelParams(
        c1=params.c1,
        c2=params.c2,
        lam=params.lam,
        claims=SampledClaims(inverse_cdf=lambda u: u, mean_value=0.5),
        q=params.q,
    )
    with pytest.raises(UnsupportedDistributionError):
        v1_barrier(Reserves(1.0, 2.0), barrier, bad_claims)


def _random_barrier(rng, params):
    return BarrierSpec.reflection(rng.uniform(0.05, 1.5), rng.uniform(4.0, 30.0), params)


def _points_below(rng, bar, n):
    """n points with u1 < u2 strictly below the barrier line."""
    u1 = rng.uniform(0.0, 0.95 * bar.b / (1.0 + bar.a), n)
    u2 = u1 + rng.uniform(0.01, 0.99, n) * (bar.line_height(u1) - u1)
    return u1, u2


def test_v1_values_equal_v1_barrier(params):
    bar = BarrierSpec.reflection(*TABLE3_BARRIER, params)
    u1, u2 = np.array(list(TABLE3_REFERENCE)).T
    scalar = [v1_barrier(Reserves(x, y), bar, params).value for x, y in zip(u1, u2)]
    assert v1_values(u1, u2, bar, params).tolist() == scalar
    rng = np.random.default_rng(11)
    for _ in range(6):
        bar = _random_barrier(rng, params)
        u1, u2 = _points_below(rng, bar, 50)
        scalar = [v1_barrier(Reserves(x, y), bar, params).value for x, y in zip(u1, u2)]
        assert v1_values(u1, u2, bar, params).tolist() == scalar


def test_v1_values_rejects_points_as_v1_barrier_does(params, barrier):
    with pytest.raises(AnalyticDomainError, match="above the barrier"):
        v1_values([1.0, 1.0], [2.0, 14.5], barrier, params)
    with pytest.raises(AnalyticDomainError, match="u1 < u2"):
        v1_values(2.0, [3.0, 2.0], barrier, params)
    with pytest.raises(AnalyticDomainError, match="quadrant"):
        v1_values(-0.5, 1.0, barrier, params)


def test_integral_term_matches_adaptive_quad(params):
    # oracle: SciPy's adaptive quadrature over scalar series calls
    alpha = params.claims.rate
    rng = np.random.default_rng(12)
    for _ in range(40):
        bar = _random_barrier(rng, params)
        (u1,), (u2,) = _points_below(rng, bar, 1)
        got = _integral_term(
            Reserves(u1, u2), bar, params, V=lambda x1, x2: v1_values(x1, x2, bar, params)
        )
        ref, _ = quad(
            lambda v: v1_barrier(Reserves(u1 - v, u2 - v), bar, params).value
            * alpha * math.exp(-alpha * v),
            0.0, u1, epsabs=0.0, epsrel=1e-13, limit=200,
        )
        assert got == pytest.approx(params.lam * ref, rel=1e-12, abs=0.0)


def test_integral_term_converges_when_the_integral_is_large():
    # at small q the integral reaches 1e5-1e6, where successive Gauss rules
    # differ by rounding far above the 1e-10 absolute tolerance
    params = ModelParams(c1=4.0, c2=3.0, lam=1.0, claims=ExponentialClaims(0.6), q=1e-6)
    for b in (14.0, 30.0):
        bar = BarrierSpec.reflection(0.1, b, params)
        u1 = 0.4 * b / 1.1
        u = Reserves(u1, u1 + 0.3 * (bar.line_height(u1) - u1))
        got = _integral_term(u, bar, params, V=lambda x1, x2: v1_values(x1, x2, bar, params))
        ref, _ = quad(
            lambda v: v1_barrier(Reserves(u.u1 - v, u.u2 - v), bar, params).value
            * 0.6 * math.exp(-0.6 * v),
            0.0, u.u1, epsabs=0.0, epsrel=1e-13, limit=200,
        )
        assert got > 1e5
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)
        assert math.isfinite(pide_residual(u, bar, params))
