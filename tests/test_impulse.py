import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc, gammaln, i1e

from conftest import impulse_cycle_mc, tilted_horizon_survival
from dividend2d import (
    ExponentialClaims,
    ImpulseMethod,
    ImpulseSpec,
    ModelParams,
    NonConvergenceError,
    ParameterError,
    SimConfig,
    ballot_crossing_density,
    crossing_transform,
    erlang_mixture_density,
    estimate_impulse_moments,
    impulse_v1_high,
    impulse_v1_low,
    phi_inverse,
    scale_params,
    tilted_ruin_probability,
    v_q,
    value_impulse,
)
from dividend2d.impulse import _doubling, _leggauss, adaptive_gauss

# frozen from the finite-difference-of-quadrature oracle (h=1e-6, u2=2)
TAU_INTEGRAL_U2_2 = 0.16257591378687763


@pytest.fixture(scope="module")
def tilt(params):
    return phi_inverse(params)


# ---------------------------------------------------------------------------
# closed-form case u1 > u2

def test_high_case_p_in_unit_interval(params):
    val = impulse_v1_high(ImpulseSpec(3.0, 2.0, 0.5), params)
    assert 0.0 < val.p < 1.0
    assert val.method == ImpulseMethod.CLOSED_FORM_HIGH


def test_high_case_tau_integral_against_fd_oracle(params):
    val = impulse_v1_high(ImpulseSpec(3.0, 2.0, 0.5), params)
    assert val.tau_integral == pytest.approx(TAU_INTEGRAL_U2_2, rel=1e-8)

    # independent route: differentiate the quadrature of the exit ratio in q
    def exit_ratio_integral(qq: float) -> float:
        sp = scale_params(replace(params, q=qq))
        alpha = params.claims.rate
        f = lambda x: sp.w_q(2.0 - x) / sp.w_q(2.0) * alpha * math.exp(-alpha * x)
        out, _ = quad(f, 0.0, 2.0, epsabs=1e-13, limit=300)
        return out

    h = 1e-6
    fd = -(exit_ratio_integral(params.q + h) - exit_ratio_integral(params.q - h)) / (2 * h)
    assert val.tau_integral == pytest.approx(fd, rel=1e-5)


def test_high_case_renewal_identity(params):
    val = impulse_v1_high(ImpulseSpec(3.0, 2.0, 0.5), params)
    assert val.value == pytest.approx(val.A / (1.0 - val.p), rel=1e-12)


def test_high_case_cost_sensitivity(params):
    cheap = impulse_v1_high(ImpulseSpec(3.0, 2.0, 1e-12), params)
    base = impulse_v1_high(ImpulseSpec(3.0, 2.0, 0.5), params)
    with pytest.warns(UserWarning):  # K=5 pushes the cycle payout negative
        dear = impulse_v1_high(ImpulseSpec(3.0, 2.0, 5.0), params)
    assert cheap.value > base.value > dear.value
    assert cheap.p == base.p == dear.p  # p does not depend on the cost


def test_high_case_negative_payout_warns(params):
    with pytest.warns(UserWarning, match="negative"):
        val = impulse_v1_high(ImpulseSpec(3.0, 2.0, 100.0), params)
    assert val.value < 0.0  # reported, not clamped


def test_high_case_matches_cycle_mc(params):
    spec = ImpulseSpec(3.0, 2.0, 0.5)
    val = impulse_v1_high(spec, params)
    # the simulated cycle discount e^{-q(e + tau)} already carries the
    # waiting-time factor, so its mean estimates p directly
    disc, tauw = impulse_cycle_mc(spec, params, n_cycles=150_000, seed=99)
    p_mc = disc.mean()
    p_se = disc.std() / math.sqrt(len(disc))
    assert abs(val.p - p_mc) < 3.0 * p_se
    tau_mc = tauw.mean()
    tau_se = tauw.std() / math.sqrt(len(tauw))
    assert abs(val.tau_integral - tau_mc) < 3.0 * tau_se


def test_high_case_matches_path_simulator(params):
    spec = ImpulseSpec(3.0, 2.0, 0.5)
    val = impulse_v1_high(spec, params)
    est = estimate_impulse_moments(spec, params, SimConfig(n_paths=60_000, master_seed=5))
    mean, se = est.moments[1]
    assert abs(mean - val.value) < 4.0 * se


def test_case_routing(params):
    with pytest.raises(ParameterError, match="u1 > u2"):
        impulse_v1_high(ImpulseSpec(1.0, 2.0, 0.5), params)
    with pytest.raises(ParameterError, match="u1 <= u2"):
        impulse_v1_low(ImpulseSpec(3.0, 2.0, 0.5), params)
    assert value_impulse(ImpulseSpec(3.0, 2.0, 0.5), params).method == ImpulseMethod.CLOSED_FORM_HIGH
    assert value_impulse(ImpulseSpec(1.0, 2.0, 0.5), params).method == ImpulseMethod.QUADRATURE_LOW


# ---------------------------------------------------------------------------
# tilted building blocks

def test_mixture_mass_excludes_atom(params, tilt):
    for t in (0.1, 1.0, 5.0):
        mass, _ = quad(
            lambda x: erlang_mixture_density(1, t, x, tilt, params), 0.0, np.inf, limit=300
        )
        assert mass == pytest.approx(1.0 - math.exp(-tilt.lambda_q * t), abs=1e-8)


def test_mixture_mass_vanishes_at_short_times(params, tilt):
    mass, _ = quad(lambda x: erlang_mixture_density(2, 1e-6, x, tilt, params), 0.0, 10.0)
    assert mass < 2e-6


def test_mixture_against_bessel_closed_form(params, tilt):
    # the Poisson-Erlang sum collapses to a Bessel-I1 expression
    t = np.array([0.3, 1.0, 2.5])[:, None]
    x = np.array([0.05, 0.4, 1.1, 3.0])[None, :]
    for j, cj in ((1, params.c1), (2, params.c2)):
        beta = tilt.alpha_q * cj
        mu = tilt.lambda_q * t
        arg = 2.0 * np.sqrt(mu * beta * x)
        closed = (
            np.exp(-mu - beta * x + arg) * np.sqrt(mu * beta / x) * i1e(arg)
        )
        ours = erlang_mixture_density(j, t, x, tilt, params)
        assert np.allclose(ours, closed, rtol=1e-10)


def test_mixture_against_log_space_series(params):
    # independent oracle: the Poisson-Erlang series itself, 200 terms
    # summed in log space, on a grid spanning eight decades in t and ten
    # in x, both companies, two parameter sets
    other = ModelParams(c1=5.0, c2=2.5, lam=1.5, claims=ExponentialClaims(rate=1.2), q=0.05)
    t = np.geomspace(1e-6, 20.0, 37)[:, None]
    x = np.geomspace(1e-8, 15.0, 41)[None, :]
    i = np.arange(1, 201)[:, None, None]
    for model in (params, other):
        tilt = phi_inverse(model)
        for j, cj in ((1, model.c1), (2, model.c2)):
            beta = tilt.alpha_q * cj
            mu = tilt.lambda_q * t
            log_terms = (
                -mu + i * np.log(mu) - gammaln(i + 1)
                + i * math.log(beta) + (i - 1) * np.log(x) - beta * x - gammaln(i)
            )
            assert np.max(log_terms[-1]) < -200.0  # the series is summed out
            series = np.sum(np.exp(log_terms), axis=0)
            ours = erlang_mixture_density(j, t, x, tilt, model)
            assert np.max(np.abs(ours - series)) < 1e-13


def test_gauss_nodes_cached_read_only():
    x, w = _leggauss(32)
    assert _leggauss(32)[0] is x
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0


def test_adaptive_gauss_known_integral():
    exact = math.e - 1.0
    assert abs(adaptive_gauss(np.exp, 0.0, 1.0, 1e-14) - exact) <= 1e-14
    assert adaptive_gauss(np.exp, 1.0, 1.0, 1e-14) == 0.0

    # 16 nodes already integrate e^x to rounding, so the first doubling stops
    def rule(n):
        x, w = _leggauss(n)
        return 0.5 * float(np.sum(w * np.exp(0.5 + 0.5 * x)))

    est, n = _doubling(rule, 1e-14)
    assert n == 32
    assert abs(est - exact) <= 1e-14


def test_doubling_waits_for_every_element():
    # element 0 is exact from the start; element 1 moves by 1/n between the
    # rules at n/2 and n, which is within 5e-3 first at n = 256
    calls = []

    def rule(n):
        calls.append(n)
        return np.array([1.0, 1.0 + 1.0 / n])

    est, n = _doubling(rule, 5e-3)
    assert n == 256 and calls == [16, 32, 64, 128, 256]
    assert est[0] == 1.0 and est[1] == 1.0 + 1.0 / 256


def test_adaptive_gauss_raises_on_a_kink():
    # |x - 1/3| has a kink inside (0, 1): Gauss-Legendre converges only
    # algebraically and cannot reach 1e-15 in six doublings
    kinked = lambda x: np.abs(x - 1.0 / 3.0)
    with pytest.raises(NonConvergenceError, match="1024 nodes"):
        adaptive_gauss(kinked, 0.0, 1.0, 1e-15)
    # a reachable tolerance on the same integrand (exact value 5/18) passes
    assert abs(adaptive_gauss(kinked, 0.0, 1.0, 1e-5) - 5.0 / 18.0) < 1e-4


def test_mixture_against_sampled_distribution(params, tilt):
    # Kolmogorov-Smirnov distance of 1e6 exact draws of S(1)/c1 against
    # the mixture CDF; the zero-claims atom is checked separately and the
    # KS statistic runs on the continuous (at least one claim) part
    rng = np.random.default_rng(7)
    n = 1_000_000
    counts = rng.poisson(tilt.lambda_q, n)
    atom_frac = np.mean(counts == 0)
    atom = math.exp(-tilt.lambda_q)
    assert abs(atom_frac - atom) < 4.0 * math.sqrt(atom * (1 - atom) / n)
    samples = rng.standard_gamma(counts[counts > 0]) / (tilt.alpha_q * params.c1)
    xs = np.sort(samples)
    m = xs.size
    mu = tilt.lambda_q
    beta = tilt.alpha_q * params.c1
    i = np.arange(1, 81)
    pois = np.exp(-mu + i * np.log(mu) - np.cumsum(np.log(i)))
    cdf = np.sum(pois[None, :] * gammainc(i[None, :], beta * xs[:, None]), axis=1) / (1.0 - atom)
    ecdf_hi = np.arange(1, m + 1) / m
    ecdf_lo = np.arange(0, m) / m
    ks = max(np.max(np.abs(ecdf_hi - cdf)), np.max(np.abs(ecdf_lo - cdf)))
    assert ks < 0.01


def test_tilted_ruin_at_zero_and_decay(params, tilt):
    rho = tilt.lambda_q / (params.c2 * tilt.alpha_q)
    assert tilted_ruin_probability(0.0, tilt, params) == pytest.approx(rho, rel=1e-15)
    zs = np.linspace(0.0, 12.0, 30)
    vals = tilted_ruin_probability(zs, tilt, params)
    assert np.all(np.diff(vals) < 0.0)
    assert vals[-1] < 1e-8
    with pytest.raises(ValueError):
        tilted_ruin_probability(-0.1, tilt, params)


def _pk_ruin_oracle(z: float, tilt, params, n_terms: int = 60) -> float:
    """Compound-geometric ruin probability, ladder tails by quadrature.

    The ladder-height distribution of the tilted surplus is exponential
    with rate alpha_q, so the n-th convolution tail is an Erlang tail,
    integrated numerically here to stay independent of the closed form.
    """
    rho = tilt.lambda_q / (params.c2 * tilt.alpha_q)
    beta = tilt.alpha_q
    total = 0.0
    for n in range(1, n_terms + 1):
        pdf = lambda x: math.exp(
            n * math.log(beta) + (n - 1) * math.log(x) - beta * x - math.lgamma(n)
        )
        tail, _ = quad(pdf, z, np.inf, limit=200)
        total += (1.0 - rho) * rho**n * tail
    return total


def test_tilted_ruin_matches_compound_geometric_oracle(params, tilt):
    for z in (0.5, 2.0):
        oracle = _pk_ruin_oracle(z, tilt, params)
        ours = tilted_ruin_probability(z, tilt, params)
        assert abs(ours - oracle) < 1e-4


# ---------------------------------------------------------------------------
# ballot crossing density and the survival functional

def test_ballot_mass_matches_tilted_simulation(params, tilt):
    u1, u2 = 1.0, 2.0
    R = (u2 - u1) / (params.c1 - params.c2)
    y = 1.5
    v = (y - (u2 - u1)) / params.c1
    z_max = y + params.c2 * R
    mass, _ = quad(
        lambda z: ballot_crossing_density(z, R, v, tilt, params), 0.0, z_max, limit=300
    )
    mass += math.exp(-tilt.lambda_q * R)
    survived, _ = tilted_horizon_survival(tilt, params, params.c1 * v, R, 100_000, seed=21)
    p_mc = survived.mean()
    se = math.sqrt(p_mc * (1.0 - p_mc) / survived.size)
    assert abs(mass - p_mc) < 3.0 * se


def test_ballot_pointwise_against_histogram(params, tilt):
    u1, u2 = 1.0, 2.0
    R = (u2 - u1) / (params.c1 - params.c2)
    y = 1.5
    v = (y - (u2 - u1)) / params.c1
    z_max = y + params.c2 * R
    survived, end = tilted_horizon_survival(tilt, params, params.c1 * v, R, 200_000, seed=4)
    levels = end[survived & (end < z_max - 1e-9)]  # continuous part only
    edges = np.linspace(0.0, z_max, 24)
    hist, _ = np.histogram(levels, bins=edges)
    dens_mc = hist / (survived.size * np.diff(edges))
    centers = 0.5 * (edges[:-1] + edges[1:])
    dens = ballot_crossing_density(centers, R, v, tilt, params)
    assert float(np.max(np.abs(dens - dens_mc))) < 0.05


def test_ballot_short_horizon_degenerates_to_atom(params, tilt):
    R, v = 1e-4, 0.3
    z_max = params.c1 * (v + R)
    mass, _ = quad(lambda z: ballot_crossing_density(z, R, v, tilt, params), 0.0, z_max)
    assert math.exp(-tilt.lambda_q * R) > 0.999
    assert mass < 1e-3


def test_ballot_rejects_bad_geometry(params, tilt):
    with pytest.raises(ValueError, match="phi"):
        ballot_crossing_density(10.0, 1.0, 0.1, tilt, params)


def test_vq_monotone_and_degenerate(params, tilt):
    spec = ImpulseSpec(1.0, 2.0, 0.5)
    vals = [v_q(y, spec, tilt, params) for y in (1.0, 1.3, 1.7, 2.0)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    flat = ImpulseSpec(2.0, 2.0, 0.5)
    expected = 1.0 - tilted_ruin_probability(1.4, tilt, params)
    assert v_q(1.4, flat, tilt, params) == pytest.approx(expected, rel=1e-14)
    with pytest.raises(ParameterError):
        v_q(0.5, spec, tilt, params)


def test_vq_matches_tilted_simulation(params, tilt):
    spec = ImpulseSpec(1.0, 2.0, 0.5)
    R = (spec.u2 - spec.u1) / (params.c1 - params.c2)
    for y, seed in ((1.2, 31), (2.0, 32)):
        start = y - (spec.u2 - spec.u1)
        survived, end = tilted_horizon_survival(tilt, params, start, R, 40_000, seed=seed)
        contrib = np.where(
            survived, 1.0 - tilted_ruin_probability(np.maximum(end, 0.0), tilt, params), 0.0
        )
        mc = contrib.mean()
        se = contrib.std() / math.sqrt(contrib.size)
        assert abs(v_q(y, spec, tilt, params) - mc) < 3.0 * se


def test_crossing_transform_matches_scale_ratio_when_flat(params, tilt):
    # with u1 = u2 the declining boundary vanishes and the tilted identity
    # must collapse to the scale-function exit ratio
    spec = ImpulseSpec(2.0, 2.0, 0.5)
    sp = scale_params(params)
    for x in (0.2, 0.9, 1.7):
        lhs = crossing_transform(x, spec, tilt, params)
        rhs = sp.w_q(2.0 - x) / sp.w_q(2.0)
        assert lhs == pytest.approx(rhs, rel=1e-12)


# ---------------------------------------------------------------------------
# quadrature case u1 <= u2

def test_low_case_basic_properties(params):
    val = impulse_v1_low(ImpulseSpec(1.0, 2.0, 0.5), params)
    assert 0.0 < val.p < 1.0
    assert val.method == ImpulseMethod.QUADRATURE_LOW
    assert val.value == pytest.approx(val.A / (1.0 - val.p), rel=1e-12)


def test_low_case_near_simulator(params):
    # the renewal factorization behind the quadrature treats the decaying
    # boundary as fresh after each recovery, which biases the value up by
    # about 1% here; the pin below tracks the simulator within that band
    spec = ImpulseSpec(1.0, 2.0, 0.5)
    val = impulse_v1_low(spec, params)
    est = estimate_impulse_moments(spec, params, SimConfig(n_paths=50_000, master_seed=17))
    mean, _ = est.moments[1]
    assert abs(val.value - mean) / mean < 0.025


def test_low_case_seam_with_closed_form(params):
    # at u1 = u2 both routes describe the same horizontal-boundary race;
    # the closed form does not depend on u1, so any u1 > u2 spec works
    low = impulse_v1_low(ImpulseSpec(2.0, 2.0, 0.5), params)
    high = impulse_v1_high(ImpulseSpec(3.0, 2.0, 0.5), params)
    assert low.p == pytest.approx(high.p, rel=1e-10)
    assert low.tau_integral == pytest.approx(high.tau_integral, rel=1e-4)
    assert low.value == pytest.approx(high.value, rel=1e-4)


def test_low_case_degenerate_reset(params):
    val = impulse_v1_low(ImpulseSpec(0.0, 2.0, 0.5), params)
    assert val.p == 0.0
    assert val.value == pytest.approx(params.c1 / (params.q + params.lam), rel=1e-14)
