import math

import numpy as np
import pytest
from scipy.integrate import quad

from dividend2d import (
    BarrierSpec,
    ExponentialClaims,
    ImpulseSpec,
    ModelParams,
    ParameterError,
    Reserves,
    SimConfig,
    estimate_barrier_moments,
    estimate_impulse_moments,
    simulate_impulse_path,
    simulate_refracted_path,
    trace_refracted_path,
)
from dividend2d.simulate import (
    _NEED_MORE,
    _draw_chunk,
    _impulse_kernel,
    _path_rng,
    default_max_time,
)


def test_same_seed_is_bit_identical(params, barrier):
    cfg = SimConfig(n_paths=3000, master_seed=11, moment_orders=(1, 2))
    a = estimate_barrier_moments(Reserves(1.0, 2.0), barrier, params, cfg)
    b = estimate_barrier_moments(Reserves(1.0, 2.0), barrier, params, cfg)
    assert a == b
    c = estimate_barrier_moments(
        Reserves(1.0, 2.0), barrier, params, SimConfig(n_paths=3000, master_seed=12, moment_orders=(1, 2))
    )
    assert c.moments[1] != a.moments[1]


def test_partition_merge_equals_full_run(params, barrier):
    # emulates distributing paths over workers: per-path streams make the
    # estimate a pure function of (seed, path index)
    cfg = SimConfig(n_paths=400, master_seed=3)
    full = estimate_barrier_moments(Reserves(1.0, 2.0), barrier, params, cfg)
    total = 0.0
    for i in range(cfg.n_paths):
        res = simulate_refracted_path(
            Reserves(1.0, 2.0), barrier, params, _path_rng(cfg.master_seed, i)
        )
        total += res.D
    assert total / cfg.n_paths == full.moments[1][0]


def test_block_run_matches_single_paths_beyond_first_chunk():
    # small claims and an attracting line: paths slide for hundreds of
    # claims, outlive their first 256-draw chunk, and are rerun on longer
    # streams; the estimate must still equal the single-path runs exactly
    long = ModelParams(c1=4.0, c2=3.0, lam=1.0, claims=ExponentialClaims(20.0), q=0.01)
    bar = BarrierSpec(a=0.5, b=45.0, delta1=5.0, delta2=4.0)
    u = Reserves(1.0, 2.0)
    cfg = SimConfig(n_paths=8, master_seed=21)
    rows = trace_refracted_path(u, bar, long, seed=cfg.master_seed)
    assert sum(ev == "claim" for *_, ev in rows) > 256
    full = estimate_barrier_moments(u, bar, long, cfg)
    total = 0.0
    for i in range(cfg.n_paths):
        total += simulate_refracted_path(u, bar, long, _path_rng(cfg.master_seed, i)).D
    assert total / cfg.n_paths == full.moments[1][0]


def test_deterministic_path_without_claims(params):
    # claim-free stub: motion along the line from (u1, u2) reaches (0, b)
    # at t = u1 and crosses into ruin; payout is exact in closed form
    quiet = ModelParams(c1=4.0, c2=3.0, lam=0.0, claims=ExponentialClaims(2.0), q=0.1)
    bar = BarrierSpec(a=0.1, b=14.0, delta1=5.0, delta2=2.9)
    u1 = 3.0
    u = Reserves(u1, bar.line_height(u1))
    res = simulate_refracted_path(u, bar, quiet, _path_rng(0, 0), max_time=1e6)
    expected = bar.delta0 * (1.0 - math.exp(-quiet.q * u1)) / quiet.q
    assert not res.censored
    assert res.sigma == pytest.approx(u1, abs=1e-12)
    assert res.D == pytest.approx(expected, rel=1e-12)
    # diverted drift applies immediately to starts strictly inside the
    # payout set: same ruin time and payout, shifted start notwithstanding
    res_in = simulate_refracted_path(
        Reserves(u1, bar.line_height(u1) + 2.0), bar, quiet, _path_rng(0, 0), max_time=1e6
    )
    assert res_in.sigma == pytest.approx(u1, abs=1e-12)
    assert res_in.D == pytest.approx(expected, rel=1e-12)


def test_deterministic_general_drift_path(params):
    # general diverted rates with the payout-set drift pointing up-left:
    # the path stays in the payout set and company 1 drains to ruin
    quiet = ModelParams(c1=4.0, c2=3.0, lam=0.0, claims=ExponentialClaims(2.0), q=0.1)
    bar = BarrierSpec(a=0.1, b=14.0, delta1=6.0, delta2=0.5)
    u1 = 3.0
    u = Reserves(u1, bar.line_height(u1) + 1.0)  # strictly inside the payout set
    res = simulate_refracted_path(u, bar, quiet, _path_rng(0, 0), max_time=1e6)
    sigma = u1 / (bar.delta1 - quiet.c1)
    expected = bar.delta0 * (1.0 - math.exp(-quiet.q * sigma)) / quiet.q
    assert not res.censored
    assert res.sigma == pytest.approx(sigma, rel=1e-12)
    assert res.D == pytest.approx(expected, rel=1e-12)


def test_deterministic_sliding_path(params):
    # attracting line: payout drift points below it, premium drift above;
    # the path slides with the occupation fraction theta until company 2
    # drains at the x-axis intercept
    quiet = ModelParams(c1=4.0, c2=3.0, lam=0.0, claims=ExponentialClaims(2.0), q=0.1)
    a, b = 0.5, 6.0
    bar = BarrierSpec(a=a, b=b, delta1=5.0, delta2=4.0)
    v1b, v2b = quiet.c1 - bar.delta1, quiet.c2 - bar.delta2
    rate_f = v2b + a * v1b
    approach = quiet.c2 + a * quiet.c1
    theta = approach / (approach - rate_f)
    w2 = theta * v2b + (1.0 - theta) * quiet.c2
    assert rate_f < 0.0 < theta < 1.0 and w2 < 0.0
    u1 = 2.0
    u = Reserves(u1, bar.line_height(u1))
    res = simulate_refracted_path(u, bar, quiet, _path_rng(0, 0), max_time=1e6)
    sigma = u.u2 / (-w2)
    expected = theta * bar.delta0 * (1.0 - math.exp(-quiet.q * sigma)) / quiet.q
    assert res.sigma == pytest.approx(sigma, rel=1e-12)
    assert res.D == pytest.approx(expected, rel=1e-12)


def test_discounted_accrual_identity(params):
    # closed-form interval payout equals the quadrature of the rate
    q, rate, t1, t2 = params.q, 7.9, 1.3, 4.1
    closed = rate * (math.exp(-q * t1) - math.exp(-q * t2)) / q
    numeric, _ = quad(lambda t: rate * math.exp(-q * t), t1, t2, epsabs=1e-13)
    assert closed == pytest.approx(numeric, rel=1e-12)


def test_default_horizon_bounds_bias(params, barrier):
    T = default_max_time(params, barrier.delta0, bias_tol=1e-4)
    assert math.exp(-params.q * T) * barrier.delta0 / params.q == pytest.approx(1e-4, rel=1e-12)


def test_censoring_bias_within_reported_bound(params, barrier):
    u = Reserves(1.0, 2.0)
    short = estimate_barrier_moments(
        u, barrier, params, SimConfig(n_paths=30_000, master_seed=8, max_time=25.0)
    )
    long = estimate_barrier_moments(
        u, barrier, params, SimConfig(n_paths=30_000, master_seed=8, max_time=50.0)
    )
    assert short.n_censored > 0
    drift = long.moments[1][0] - short.moments[1][0]
    assert 0.0 <= drift < short.truncation_bias_bound


def test_second_moment_dominates_square(params, barrier):
    est = estimate_barrier_moments(
        Reserves(1.0, 2.0), barrier, params, SimConfig(n_paths=5000, master_seed=4, moment_orders=(1, 2))
    )
    m1, _ = est.moments[1]
    m2, _ = est.moments[2]
    assert m2 >= m1 * m1


def test_impulse_first_cycle_equals_per_cycle_payout(params):
    # truncating at one cycle isolates the A of the renewal decomposition
    from dividend2d import impulse_v1_high

    spec = ImpulseSpec(3.0, 2.0, 0.5)
    A = impulse_v1_high(spec, params).A
    n = 60_000
    total, total2 = 0.0, 0.0
    for i in range(n):
        res = simulate_impulse_path(spec, params, _path_rng(123, i), max_cycles=1)
        total += res.D
        total2 += res.D * res.D
    mean = total / n
    se = math.sqrt((total2 / n - mean * mean) / n)
    assert abs(mean - A) < 3.0 * se


def test_impulse_negative_lumps_not_clamped(params):
    spec = ImpulseSpec(3.0, 2.0, 50.0)
    ds = [simulate_impulse_path(spec, params, _path_rng(9, i)).D for i in range(400)]
    assert min(ds) < 0.0


def test_impulse_determinism(params):
    spec = ImpulseSpec(1.0, 2.0, 0.5)
    cfg = SimConfig(n_paths=2000, master_seed=77)
    assert estimate_impulse_moments(spec, params, cfg) == estimate_impulse_moments(spec, params, cfg)


def test_impulse_run_matches_single_paths_beyond_first_chunk(params):
    # at (3, 2, K=0.5) some paths complete enough cycles to outlive their
    # first 256-draw chunk and are rerun on longer streams; the estimate
    # must still equal the path-ordered sum of single-path runs exactly
    spec = ImpulseSpec(3.0, 2.0, 0.5)
    cfg = SimConfig(n_paths=16, master_seed=21, moment_orders=(1, 2))
    first_chunk = [
        _impulse_kernel(
            spec.u1, spec.u2, spec.K, params.c1, params.c2, params.q, 1_000_000,
            *_draw_chunk(_path_rng(cfg.master_seed, i), params),
        )[2]
        for i in range(cfg.n_paths)
    ]
    assert _NEED_MORE in first_chunk
    full = estimate_impulse_moments(spec, params, cfg)
    total = 0.0
    for i in range(cfg.n_paths):
        total += simulate_impulse_path(spec, params, _path_rng(cfg.master_seed, i)).D
    assert total / cfg.n_paths == full.moments[1][0]
    assert all(type(v) is float for moment in full.moments.values() for v in moment)


def test_trace_structure(params, barrier):
    rows = trace_refracted_path(Reserves(1.0, 2.0), barrier, params, seed=5)
    events = [ev for *_, ev in rows]
    assert events[0] == "start"
    assert events[-1] in ("ruin", "censored")
    times = [t for t, *_ in rows]
    assert times == sorted(times)
    if "enter_payout" in events:
        i = events.index("enter_payout")
        _, y1, y2, _ = rows[i]
        assert y2 == pytest.approx(barrier.line_height(y1), abs=1e-9)


def test_trace_ends_censored_below_line(params):
    # the horizon passes while the path is still below a distant line
    far = BarrierSpec.reflection(0.1, 400.0, params)
    rows = trace_refracted_path(Reserves(1.0, 2.0), far, params, seed=1, max_time=3.0)
    t, y1, y2, ev = rows[-1]
    assert ev == "censored" and t >= 3.0
    assert y2 < far.line_height(y1)


def test_seed_outside_the_key_range_is_rejected():
    # Philox keys are uint64: -1 and 2**64 used to overflow deep inside
    # the stream setup instead of failing as bad input
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=r"master_seed must lie in \[0, 2\*\*64\)"):
            SimConfig(n_paths=10, master_seed=seed)
    assert SimConfig(n_paths=10, master_seed=2**64 - 1).master_seed == 2**64 - 1


@pytest.mark.parametrize("max_time", [-5.0, 0.0, math.nan])
def test_horizon_must_be_positive(max_time):
    # a horizon at or before t = 0 censored every path and reported mean 0
    with pytest.raises(ValueError, match="max_time > 0 required"):
        SimConfig(n_paths=10, master_seed=1, max_time=max_time)


@pytest.mark.parametrize("u", [Reserves(-1.0, 2.0), Reserves(1.0, -0.5), Reserves(math.nan, 2.0),
                               Reserves(1.0, math.inf)])
def test_barrier_start_outside_the_quadrant_is_rejected(params, barrier, u):
    # ruin is tested only after a claim, so a negative start used to drift
    # back into the quadrant and collect dividends
    with pytest.raises(ParameterError, match="start needs finite u1, u2 >= 0"):
        estimate_barrier_moments(u, barrier, params, SimConfig(n_paths=10, master_seed=1))
    with pytest.raises(ParameterError, match="start needs finite u1, u2 >= 0"):
        simulate_refracted_path(u, barrier, params, _path_rng(1, 0))
