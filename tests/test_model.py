import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dividend2d import (
    BarrierSpec,
    ExponentialClaims,
    ModelParams,
    ParameterError,
    Region,
    Reserves,
    SampledClaims,
    SimConfig,
    UnsupportedDistributionError,
    check_barrier,
    classify_point,
    estimate_barrier_moments,
)
from dividend2d.model import ON_LINE_TOL, model_violations, require_exponential


def test_example_params_valid(params):
    assert model_violations(params) == []


def test_c1_equal_c2_rejected(params):
    with pytest.raises(ParameterError, match="c1 > c2"):
        ModelParams(c1=3.0, c2=3.0, lam=1.0, claims=params.claims, q=0.1)


def test_net_profit_company2_rejected(params):
    # lam * E[U] = 0.5 exceeds c2 = 0.4
    with pytest.raises(ParameterError, match="net profit for company 2"):
        ModelParams(c1=4.0, c2=0.4, lam=1.0, claims=params.claims, q=0.1)


def test_all_violations_reported():
    with pytest.raises(ParameterError) as err:
        ModelParams(c1=2.0, c2=3.0, lam=-1.0, claims=ExponentialClaims(2.0), q=0.0)
    v = err.value.violations
    assert len(v) >= 3
    joined = " ".join(v)
    assert "c1 > c2" in joined and "lambda" in joined and "q > 0" in joined


@pytest.mark.parametrize("c1, q, match", [(math.inf, 0.1, "c1 < inf"), (4.0, math.inf, "q < inf")])
def test_infinite_rate_rejected(params, c1, q, match):
    # the only non-finite values that meet every other condition
    with pytest.raises(ParameterError, match=match):
        ModelParams(c1=c1, c2=3.0, lam=1.0, claims=params.claims, q=q)


def test_replaced_model_is_checked(params):
    with pytest.raises(ParameterError, match="q > 0"):
        dataclasses.replace(params, q=0.0)


def test_exponential_claims():
    with pytest.raises(ParameterError):
        ExponentialClaims(rate=0.0)
    c = ExponentialClaims(rate=2.0)
    assert c.mean() == 0.5
    # the inverse CDF -log(1 - u) / rate, at known points and on a midpoint grid
    u = np.array([2.0**-54, 0.5, 1.0 - 2.0**-53])
    np.testing.assert_allclose(c.ppf(u), [2.0**-55, np.log(2.0) / 2.0, 53 * np.log(2.0) / 2.0], rtol=1e-15)
    grid = (np.arange(20000) + 0.5) / 20000
    xs = c.ppf(grid)
    assert np.all(np.diff(xs) > 0.0)
    assert abs(xs.mean() - 0.5) < 0.002


def test_sampled_claims_rejected_by_analytics():
    dist = SampledClaims(inverse_cdf=lambda u: 1.0 + 0.0 * u, mean_value=1.0)
    out = dist.ppf(np.linspace(0.1, 0.9, 5))
    assert out.dtype == float and np.all(out == 1.0)
    with pytest.raises(UnsupportedDistributionError):
        require_exponential(dist)


def test_reflection_construction(params):
    bar = BarrierSpec.reflection(0.1, 14.0, params)
    assert bar == BarrierSpec(0.1, 14.0, (params.c1 + 1.0) + (params.c2 - 0.1))
    check_barrier(bar, params)
    # the payout rate is checked bit for bit
    with pytest.raises(ParameterError, match="build the barrier for this model"):
        check_barrier(BarrierSpec(0.1, 14.0, math.nextafter(bar.delta0, 0.0)), params)
    with pytest.raises(ParameterError, match="c2 > a"):
        BarrierSpec.reflection(3.0, 14.0, params)


def test_reflection_names_a_nan_slope(params):
    # "c2 > a" holds for no NaN, and the message used to claim 3.0 <= nan
    with pytest.raises(ParameterError) as exc:
        BarrierSpec.reflection(np.nan, 14.0, params)
    assert "0 < a < inf violated (nan)" in exc.value.violations
    assert "c2 > a" not in str(exc.value)


@pytest.mark.parametrize("a, b", [(np.inf, 14.0), (0.1, np.inf), (np.nan, 14.0), (0.1, np.nan)])
def test_barrier_must_be_finite(a, b):
    with pytest.raises(ParameterError, match="< inf violated"):
        BarrierSpec(a=a, b=b, delta0=7.9)


def test_barrier_requires_company1_drain(params):
    # at c1 = 1e100 the barrier is the model's own, so check_barrier passes
    # it, but c1 + 1 rounds to c1 and the simulator's company 1 would not
    # drain while paying
    huge = dataclasses.replace(params, c1=1e100)
    bar = BarrierSpec.reflection(0.1, 14.0, huge)
    check_barrier(bar, huge)
    with pytest.raises(ParameterError, match="company 1 must drain while paying"):
        estimate_barrier_moments(Reserves(1.0, 2.0), bar, huge, SimConfig(10, 1))

def test_classify_examples(params, barrier):
    assert classify_point(Reserves(0.0, 14.0), barrier) == Region.ON_LINE
    assert classify_point(Reserves(1.0, 2.0), barrier) == Region.COMPLEMENT
    assert classify_point(Reserves(-0.5, 3.0), barrier) == Region.OUTSIDE_QUADRANT
    assert classify_point(Reserves(1.0, 14.5), barrier) == Region.INTERIOR


@given(
    u1=st.floats(-5.0, 40.0),
    u2=st.floats(-5.0, 40.0),
    a=st.floats(0.05, 2.5),
    b=st.floats(0.5, 30.0),
)
def test_classify_is_a_partition(u1, u2, a, b):
    bar = BarrierSpec(a=a, b=b, delta0=2.0)
    region = classify_point(Reserves(u1, u2), bar)
    if min(u1, u2) < 0.0:
        assert region == Region.OUTSIDE_QUADRANT
    elif abs(u2 - (b - a * u1)) <= ON_LINE_TOL:
        assert region == Region.ON_LINE
    elif u2 > b - a * u1:
        assert region == Region.INTERIOR
    else:
        assert region == Region.COMPLEMENT


@given(u1=st.floats(0.01, 10.0), t=st.floats(0.0, 1.0))
def test_reflection_velocity_stays_on_line(params, u1, t):
    # on-barrier velocity (c1 - (c1 + 1), c2 - (c2 - a)) = (-1, a): along the line toward (0, b)
    bar = BarrierSpec.reflection(0.4, 12.0, params)
    dt = t * u1  # stay within the segment
    y1 = u1 - dt
    y2 = bar.line_height(u1) + bar.a * dt
    assert classify_point(Reserves(y1, y2), bar) == Region.ON_LINE
