import concurrent.futures
import math
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from types import SimpleNamespace

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
from dividend2d import simulate
from dividend2d.model import SampledClaims
from dividend2d.simulate import (
    _MAX_COLUMNS,
    _NEED_MORE,
    _RUIN_C1,
    _RUIN_C2,
    DividendEstimate,
    PathResult,
    _accumulate,
    _fill_streams,
    _impulse_loop,
    _impulse_paths,
    _path_rng,
    _philox,
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
    # claims and resume on chunk after chunk of columns; the estimate must
    # still equal the single-path runs exactly
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
    # claim-free stub (the first wait, about 1e300, lies far beyond the
    # horizon): motion along the line from (u1, u2) reaches (0, b) at
    # t = u1 and crosses into ruin; payout is exact in closed form
    quiet = ModelParams(c1=4.0, c2=3.0, lam=1e-300, claims=ExponentialClaims(2.0), q=0.1)
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
    quiet = ModelParams(c1=4.0, c2=3.0, lam=1e-300, claims=ExponentialClaims(2.0), q=0.1)
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
    quiet = ModelParams(c1=4.0, c2=3.0, lam=1e-300, claims=ExponentialClaims(2.0), q=0.1)
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
    # truncating at one cycle isolates the A of the renewal decomposition;
    # the paths run as one block, whose rows equal the single-path calls
    from dividend2d import impulse_v1_high

    spec = ImpulseSpec(3.0, 2.0, 0.5)
    A = impulse_v1_high(spec, params).A
    n = 60_000
    D, sigma, censored, cause = _impulse_paths(spec, params, 123, np.arange(n), 1)
    for i in range(200):
        row = PathResult(float(D[i]), float(sigma[i]), bool(censored[i]), int(cause[i]))
        assert simulate_impulse_path(spec, params, _path_rng(123, i), max_cycles=1) == row
    mean = D.mean()
    se = math.sqrt((np.mean(D * D) - mean * mean) / n)
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
    # first chunk of columns and resume on the next; the estimate must
    # still equal the path-ordered sum of single-path runs exactly
    spec = ImpulseSpec(3.0, 2.0, 0.5)
    cfg = SimConfig(n_paths=16, master_seed=21, moment_orders=(1, 2))
    first_chunk = [
        _impulse_loop(
            spec.u1, spec.u2, spec.K, params.c1, params.c2, params.q, 1_000_000,
            *(a.tolist() for a in _path_rng(cfg.master_seed, i).columns(params, 0, _MAX_COLUMNS)),
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


@pytest.mark.parametrize("max_cycles", [0, -5])
def test_impulse_rejects_fewer_than_one_cycle(params, max_cycles):
    # a path used to come back censored at D = sigma = 0 without a word
    spec = ImpulseSpec(3.0, 2.0, 0.5)
    with pytest.raises(ValueError, match="max_cycles >= 1"):
        simulate_impulse_path(spec, params, _path_rng(1, 0), max_cycles=max_cycles)
    with pytest.raises(ValueError, match="max_cycles >= 1"):
        _impulse_paths(spec, params, 1, np.arange(300), max_cycles)


def test_numpy_exp_of_a_float_equals_its_array_lane():
    # the lockstep and scalar impulse loops hand paths to each other
    # exactly only if np.exp gives the same bits on a Python float as on
    # an array holding it, whatever the array's length and the lane
    q = 0.1
    ts = np.concatenate(([0.0, 1e-300, 5e-324], np.geomspace(1e-12, 1e4, 3001)))
    ts = np.concatenate((ts, np.random.default_rng(3).uniform(0.0, 400.0, 2000)))
    arg = -q * ts
    lanes = np.exp(arg)
    assert [np.exp(v).tobytes() for v in arg.tolist()] == [v.tobytes() for v in lanes]
    for n in (1, 3, 7, 8, 9, 255):
        assert np.array_equal(np.exp(arg[:n]), lanes[:n])


@pytest.mark.parametrize(
    "spec, claim_size, max_cycles",
    [
        (ImpulseSpec(3.0, 2.0, 0.5), None, 1),
        (ImpulseSpec(3.0, 2.0, 0.5), None, 3),
        (ImpulseSpec(3.0, 2.0, 0.5), None, 1_000_000),
        (ImpulseSpec(3.0, 2.0, 50.0), None, 1_000_000),  # negative lumps
        (ImpulseSpec(1.0, 2.0, 0.5), None, 1_000_000),  # u1 < u2
        (ImpulseSpec(3.0, 2.0, 0.5), 2.5, 1_000_000),  # company 2 ruins
    ],
)
def test_impulse_results_do_not_depend_on_the_handoff(params, monkeypatch, spec, claim_size, max_cycles):
    # lockstep to the end, the default handoff, and the scalar loop alone
    # give the same per-path arrays and estimates, bit for bit
    model = params if claim_size is None else _constant_claims(claim_size)
    paths = np.arange(1500)
    cfg = SimConfig(n_paths=1500, master_seed=31, moment_orders=(1, 2))
    runs = []
    for handoff in (0, simulate._HANDOFF, simulate._IMPULSE_BLOCK + 1):
        monkeypatch.setattr(simulate, "_HANDOFF", handoff)
        est = estimate_impulse_moments(spec, model, cfg) if max_cycles == 1_000_000 else None
        runs.append((_impulse_paths(spec, model, 31, paths, max_cycles), est))
    (lockstep, est), *others = runs
    for results, other in others:
        assert all(np.array_equal(a, b) for a, b in zip(lockstep, results))
        assert other == est
    D, sigma, censored, cause = lockstep
    for i in (0, 1, 777, 1499):
        row = PathResult(float(D[i]), float(sigma[i]), bool(censored[i]), int(cause[i]))
        assert simulate_impulse_path(spec, model, _path_rng(31, i), max_cycles) == row


def test_impulse_rejects_a_time_horizon(params):
    # impulse paths are censored by cycle count; a horizon used to be
    # ignored without a word
    cfg = SimConfig(n_paths=10, master_seed=1, max_time=5.0)
    with pytest.raises(ValueError, match="max_time must be None"):
        estimate_impulse_moments(ImpulseSpec(3.0, 2.0, 0.5), params, cfg)


def _loop_accumulate(cfg, payout_rate, params, blocks):
    """The per-path Python reduction the array one replaced, kept as its
    oracle."""
    orders = tuple(sorted(set(cfg.moment_orders)))
    sums = {n: 0.0 for n in orders}
    sq_sums = {n: 0.0 for n in orders}
    ruin_sum, ruin_count, censored, company2 = 0.0, 0, 0, 0
    bias_sum = 0.0
    for block in blocks:
        for D, sigma, is_censored, cause in zip(*(a.tolist() for a in block)):
            for n in orders:
                dn = D**n
                sums[n] += dn
                sq_sums[n] += dn * dn
            if is_censored:
                censored += 1
                bias_sum += math.exp(-params.q * sigma) * payout_rate / params.q
            else:
                ruin_sum += sigma
                ruin_count += 1
                company2 += cause == _RUIN_C2
    moments = {}
    for n in orders:
        mean = sums[n] / cfg.n_paths
        var = max(sq_sums[n] / cfg.n_paths - mean * mean, 0.0)
        moments[n] = (mean, math.sqrt(var / cfg.n_paths))
    return DividendEstimate(
        moments=moments,
        ruin_time_mean=ruin_sum / ruin_count if ruin_count else math.nan,
        truncation_bias_bound=bias_sum / cfg.n_paths,
        n_paths=cfg.n_paths,
        n_censored=censored,
        n_ruin_company2=company2,
    )


def test_array_reduction_matches_the_per_path_loop(params):
    # blocks of ruined (by either company) and censored paths, some with
    # negative payouts; sums over path order must come out as the loop's
    rng = np.random.default_rng(5)
    blocks = []
    for size in (1, 300, 7, 1000, 64):
        censored = rng.random(size) < 0.3
        cause = np.where(censored, 0, rng.choice([_RUIN_C1, _RUIN_C2], size)).astype(np.int8)
        D = rng.exponential(3.0, size) - 0.5
        sigma = np.where(censored, rng.uniform(20.0, 40.0, size), rng.exponential(5.0, size))
        blocks.append((D, sigma, censored, cause))
    n = sum(len(b[0]) for b in blocks)
    cfg = SimConfig(n_paths=n, master_seed=0, moment_orders=(3, 1, 2))
    got = _accumulate(cfg, 2.5, params, iter(blocks))
    want = _loop_accumulate(cfg, 2.5, params, blocks)
    all_D = np.concatenate([b[0] for b in blocks])
    assert want.moments[1][0] * n != np.sum(all_D)  # pairwise sums give other bits here
    assert 0 < want.n_ruin_company2 < n - want.n_censored and 0 < want.n_censored < n
    # D**1 and D*D round the same in NumPy and libm, so order 1 is exact;
    # NumPy's power and exp may differ from libm's pow and exp in the last
    # bit of a term
    assert got.moments[1] == want.moments[1]
    assert (got.ruin_time_mean, got.n_paths, got.n_censored, got.n_ruin_company2) == (
        want.ruin_time_mean, want.n_paths, want.n_censored, want.n_ruin_company2
    )
    for order in (2, 3):
        assert got.moments[order] == pytest.approx(want.moments[order], rel=1e-13, abs=0.0)
    assert got.truncation_bias_bound == pytest.approx(want.truncation_bias_bound, rel=1e-13, abs=0.0)
    assert all(type(v) is float for moment in got.moments.values() for v in moment)
    assert type(got.n_censored) is int and type(got.n_ruin_company2) is int


def test_estimates_do_not_depend_on_the_block_size(params, barrier, monkeypatch):
    # paths that ruin and paths cut off by the horizon, in blocks of the
    # default size and of 1000
    u = Reserves(1.0, 2.0)
    bar_cfg = SimConfig(n_paths=2500, master_seed=14, max_time=10.0, moment_orders=(1, 2, 3))
    imp_cfg = SimConfig(n_paths=2500, master_seed=14, moment_orders=(1, 2, 3))
    spec = ImpulseSpec(3.0, 2.0, 0.5)

    def run():
        return (
            estimate_barrier_moments(u, barrier, params, bar_cfg),
            estimate_impulse_moments(spec, params, imp_cfg),
        )

    default = run()
    assert 0 < default[0].n_censored < bar_cfg.n_paths
    assert simulate._BLOCK > bar_cfg.n_paths and simulate._IMPULSE_BLOCK < imp_cfg.n_paths
    monkeypatch.setattr(simulate, "_BLOCK", 1000)
    monkeypatch.setattr(simulate, "_IMPULSE_BLOCK", 1000)
    assert run() == default


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


@pytest.mark.parametrize("kwargs, match", [
    ({"master_seed": 9.7}, "master_seed must be an integer"),  # ran as seed 9
    ({"n_paths": 200.5}, "n_paths must be an integer"),  # failed deep in the block split
    ({"moment_orders": (1.5,)}, "each moment order must be an integer"),  # NaN for D < 0
    ({"moment_orders": ()}, "moment orders must be positive integers"),  # no moments at all
])
def test_config_rejects_non_integers_and_no_moment_orders(kwargs, match):
    with pytest.raises(ValueError, match=match):
        SimConfig(**{"n_paths": 200, "master_seed": 9, **kwargs})
    # NumPy integers are integers, stored as ints
    cfg = SimConfig(np.int64(200), np.uint64(9), moment_orders=(np.int32(1), 2))
    assert cfg == SimConfig(200, 9, moment_orders=(1, 2))
    assert type(cfg.n_paths) is type(cfg.master_seed) is type(cfg.moment_orders[0]) is int


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


def test_single_paths_check_the_barrier_like_the_estimator(params):
    # delta1 < c1: company 1 grows while paying, which the estimator
    # rejected and single paths and traces ran
    bar, u = BarrierSpec(a=0.1, b=14.0, delta1=3.0, delta2=1.0), Reserves(1.0, 2.0)
    match = "c1 - delta1 < 0 violated"
    with pytest.raises(ParameterError, match=match):
        estimate_barrier_moments(u, bar, params, SimConfig(n_paths=10, master_seed=1))
    with pytest.raises(ParameterError, match=match):
        simulate_refracted_path(u, bar, params, _path_rng(1, 0))
    with pytest.raises(ParameterError, match=match):
        trace_refracted_path(u, bar, params, seed=1)


@pytest.mark.parametrize("counter, key, expected", [
    ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
    ((0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2, (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
    ((0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344), (0xA4093822, 0x299F31D0),
     (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)),
])
def test_philox_known_answers(counter, key, expected):
    # the Random123 known-answer vectors of Philox4x32-10
    words = _philox(tuple(np.array([c], dtype=np.uint64) for c in counter), key)
    assert tuple(int(w[0]) for w in words) == expected


def _columns(params, seed, paths, start, stop):
    ts, xs = np.empty((len(paths), stop - start)), np.empty((len(paths), stop - start))
    _fill_streams(seed, np.asarray(paths), params, ts, xs, start)
    return ts, xs


def test_column_ranges_concatenate(params):
    seed, paths = 2**63 + 12345, [0, 7, 2**33 + 5]
    whole = _columns(params, seed, paths, 0, 16)
    parts = [_columns(params, seed, paths, lo, hi) for lo, hi in ((0, 8), (8, 16))]
    for k in range(2):
        assert np.array_equal(whole[k], np.hstack([parts[0][k], parts[1][k]]))
    # different paths and seeds get different draws, all in range
    assert len({tuple(row) for row in whole[0]}) == len(paths)
    assert not np.array_equal(whole[1], _columns(params, seed + 1, paths, 0, 16)[1])
    assert np.all(whole[0] > 0.0) and np.all(np.isfinite(whole[0])) and np.all(whole[1] > 0.0)


def test_path_stream_equals_its_block_row(params):
    ts, xs = _columns(params, 99, np.arange(40), 5, 37)
    for i in (0, 17, 39):
        t_row, x_row = _path_rng(99, i).columns(params, 5, 37)
        assert np.array_equal(t_row, ts[i]) and np.array_equal(x_row, xs[i])


def test_stream_moments_match_the_distributions(params):
    ts, xs = _columns(params, 4, np.arange(2000), 0, 16)
    n = ts.size
    assert abs(ts.mean() - 1.0 / params.lam) < 4.0 / (params.lam * math.sqrt(n))
    assert abs(xs.mean() - params.claims.mean()) < 4.0 * params.claims.mean() / math.sqrt(n)
    # waits and claims of a column are independent
    assert abs(np.corrcoef(ts.ravel(), xs.ravel())[0, 1]) < 4.0 / math.sqrt(n)


def _constant_claims(size):
    claims = SampledClaims(inverse_cdf=lambda u: np.full_like(u, size), mean_value=size)
    return ModelParams(c1=4.0, c2=3.0, lam=1.0, claims=claims, q=0.1)


def test_ruin_cause_company2_alone():
    # constant claims of 2 from (5, 1): a claim that finds company 2 below
    # 2 ruins it, while company 1 (ahead, and pulling away below the line)
    # cannot be; every path that does not reach the horizon is ruined by
    # company 2 alone
    const = _constant_claims(2.0)
    bar = BarrierSpec.reflection(0.1, 100.0, const)
    cfg = SimConfig(n_paths=3000, master_seed=6, max_time=20.0)
    est = estimate_barrier_moments(Reserves(5.0, 1.0), bar, const, cfg)
    assert est.n_ruin_company2 > 0
    assert est.n_ruin_company2 == cfg.n_paths - est.n_censored
    path = simulate_refracted_path(Reserves(5.0, 1.0), bar, const, _path_rng(6, 0), cfg.max_time)
    assert path.ruin_cause in (0, _RUIN_C2) and path.censored == (path.ruin_cause == 0)
    # from (1, 2), a claim of 2 ruins company 1 first (or both at once)
    short = SimConfig(n_paths=3000, master_seed=6, max_time=0.2)
    est = estimate_barrier_moments(Reserves(1.0, 2.0), bar, const, short)
    assert est.n_ruin_company2 == 0 and est.n_censored < short.n_paths


def test_impulse_ruin_cause_company2_alone():
    # constant claims of 2.5: from (3, 2) the first claim ruins company 2
    # alone, from (2, 3) it ruins company 1
    const = _constant_claims(2.5)
    cfg = SimConfig(n_paths=50, master_seed=1)
    assert estimate_impulse_moments(ImpulseSpec(3.0, 2.0, 0.5), const, cfg).n_ruin_company2 == 50
    assert estimate_impulse_moments(ImpulseSpec(2.0, 3.0, 0.5), const, cfg).n_ruin_company2 == 0


# ---------------------------------------------------------------------------
# blocks on worker processes


def _cores(monkeypatch, n):
    """Make the simulator see ``n`` cores to run on."""
    monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: set(range(n)))


def _compare_core_counts(monkeypatch, estimate, sizes):
    """Assert that ``estimate(cfg)`` of each of ``sizes`` paths is the same on
    one core and on two; return the set of sizes whose two-core run gave a
    worker a block."""
    pooled, worker_pool = set(), simulate._worker_pool

    def recording(workers):
        pool = worker_pool(workers)
        return SimpleNamespace(submit=lambda *args: pooled.add(n_paths) or pool.submit(*args))

    monkeypatch.setattr(simulate, "_worker_pool", recording)
    for n_paths in sizes:
        cfg = SimConfig(n_paths=n_paths, master_seed=16, moment_orders=(1, 2))
        runs = []
        for cores in (1, 2):
            _cores(monkeypatch, cores)
            runs.append(estimate(cfg))
        assert runs[0] == runs[1], n_paths
    return pooled


@pytest.mark.parametrize(
    "u, a, b",
    [
        (Reserves(1.0, 2.0), 0.1, 14.0),  # barrier-long
        (Reserves(0.4, 0.6), 0.9, 1.8),  # barrier-short
        (Reserves(0.0, 0.2), 0.9, 1.8),  # criterion-4 configuration 5
    ],
)
def test_barrier_estimates_do_not_depend_on_the_core_count(params, monkeypatch, u, a, b):
    # two blocks and a bit, and one block, which two cores cut in halves
    bar = BarrierSpec.reflection(a, b, params)
    sizes = [2 * simulate._BLOCK + 17, simulate._BLOCK]
    pooled = _compare_core_counts(monkeypatch, partial(estimate_barrier_moments, u, bar, params),
                                  sizes)
    assert simulate._pool is not None
    assert pooled == set(sizes)


@pytest.mark.parametrize("spec", [ImpulseSpec(3.0, 2.0, 0.5), ImpulseSpec(1.0, 2.0, 0.5)])
def test_impulse_estimates_do_not_depend_on_the_core_count(params, monkeypatch, spec):
    # several blocks; one block too small to cut; one block cut into two
    # parts of _MIN_PART paths; a full block and a block of one path
    sizes = [3 * simulate._IMPULSE_BLOCK + 5, 2 * simulate._MIN_PART - 1, 2 * simulate._MIN_PART,
             simulate._IMPULSE_BLOCK + 1]
    pooled = _compare_core_counts(monkeypatch, partial(estimate_impulse_moments, spec, params),
                                  sizes)
    assert simulate._pool is not None
    assert pooled == {sizes[0], *sizes[2:]}


@pytest.mark.parametrize("size, n_paths, blocks", [
    (simulate._BLOCK, 10_000, [5000, 5000]),  # not 8192 + 1808
    (simulate._BLOCK, 16_384, [8192, 8192]),
    (simulate._IMPULSE_BLOCK, 2 * simulate._MIN_PART, [1024, 1024]),
    (simulate._IMPULSE_BLOCK, 2 * simulate._MIN_PART - 1, [2047]),
])
def test_blocks_on_two_cores_are_balanced(monkeypatch, size, n_paths, blocks):
    _cores(monkeypatch, 2)
    assert list(simulate._in_order(len, n_paths, size, True)) == blocks


def test_one_core_starts_no_worker(params, barrier, monkeypatch):
    monkeypatch.setattr(simulate, "_pool", None)
    monkeypatch.setattr(simulate, "_BLOCK", 100)
    _cores(monkeypatch, 1)
    cfg = SimConfig(n_paths=300, master_seed=5)
    estimate_barrier_moments(Reserves(1.0, 2.0), barrier, params, cfg)
    assert simulate._pool is None


#: scale of ``_scaled_claims``, changed by a test after the pool exists
_CLAIM_SCALE = 0.5


def _scaled_claims(u):
    return -np.log1p(-u) * _CLAIM_SCALE


def test_claims_changed_after_the_pool_started_give_the_same_estimate(params, barrier,
                                                                     monkeypatch):
    # a module-level inverse CDF pickles by reference, so a worker forked
    # earlier would run it with the globals of its fork
    monkeypatch.setattr(simulate, "_BLOCK", 100)
    u, cfg = Reserves(1.0, 2.0), SimConfig(n_paths=300, master_seed=12, max_time=20.0)
    _cores(monkeypatch, 2)
    estimate_barrier_moments(u, barrier, params, cfg)
    assert simulate._pool is not None
    model = ModelParams(c1=4.0, c2=3.0, lam=1.0, q=0.1,
                        claims=SampledClaims(inverse_cdf=_scaled_claims, mean_value=0.5))
    bar = BarrierSpec.reflection(0.1, 14.0, model)
    before = estimate_barrier_moments(u, bar, model, cfg)
    monkeypatch.setitem(globals(), "_CLAIM_SCALE", 0.25)
    runs = []
    for cores in (1, 2):
        _cores(monkeypatch, cores)
        runs.append(estimate_barrier_moments(u, bar, model, cfg))
    assert runs[0] == runs[1] != before


def test_ctrl_c_leaves_the_pool_usable(params, barrier, monkeypatch):
    u, cfg = Reserves(1.0, 2.0), SimConfig(n_paths=300, master_seed=11)
    monkeypatch.setattr(simulate, "_BLOCK", 100)
    _cores(monkeypatch, 1)
    want = estimate_barrier_moments(u, barrier, params, cfg)
    _cores(monkeypatch, 2)
    pool = simulate._worker_pool(1)
    # Ctrl-C in a terminal signals the whole process group, workers included
    os.kill(pool.submit(os.getpid).result(timeout=60), signal.SIGINT)
    time.sleep(0.5)
    assert estimate_barrier_moments(u, barrier, params, cfg) == want
    assert simulate._pool is pool


@pytest.mark.parametrize("missing", ["sched_getaffinity", "fork"])
def test_platforms_without_affinity_or_fork_run_in_process(params, barrier, monkeypatch,
                                                           missing):
    u = Reserves(1.0, 2.0)
    monkeypatch.setattr(simulate, "_pool", None)
    monkeypatch.setattr(simulate, "_BLOCK", 100)
    monkeypatch.delattr(simulate.os, missing)
    for n_paths in (100, 300):
        estimate_barrier_moments(u, barrier, params, SimConfig(n_paths=n_paths, master_seed=5))
    assert simulate._pool is None


def test_a_pool_made_by_another_process_is_not_used(monkeypatch):
    # as after a fork: the module holds the parent's pool
    inherited = object()
    monkeypatch.setattr(simulate, "_pool", inherited)
    monkeypatch.setattr(simulate, "_pool_pid", os.getppid())
    pool = simulate._worker_pool(1)
    try:
        assert pool is not inherited and simulate._pool_pid == os.getpid()
        assert simulate._worker_pool(1) is pool
    finally:
        pool.shutdown()


def _slow_block(paths):
    time.sleep(0.2)
    return paths


def test_blocks_pending_when_the_consumer_stops_are_cancelled(monkeypatch):
    _cores(monkeypatch, 2)
    monkeypatch.setattr(simulate, "_AHEAD", 10)
    pool = simulate._worker_pool(1)
    submitted = []

    def submit(fn, *args):
        submitted.append(type(pool).submit(pool, fn, *args))
        return submitted[-1]

    monkeypatch.setattr(pool, "submit", submit)
    blocks = simulate._in_order(_slow_block, 400, 10, True)
    assert np.array_equal(next(blocks), np.arange(10))
    blocks.close()
    assert len(submitted) == 10
    # the worker finishes about one block while this process runs block 0,
    # and holds at most three more running or queued; the rest never start
    assert sum(f.cancelled() for f in submitted) >= len(submitted) - 5
    done, running = concurrent.futures.wait(submitted, timeout=60)
    assert not running


def test_an_estimate_stopped_early_leaves_the_pool_usable(params, barrier, monkeypatch):
    u, cfg = Reserves(1.0, 2.0), SimConfig(n_paths=1000, master_seed=9, moment_orders=(1, 2))
    monkeypatch.setattr(simulate, "_BLOCK", 100)
    _cores(monkeypatch, 1)
    want = estimate_barrier_moments(u, barrier, params, cfg)
    _cores(monkeypatch, 2)

    def interrupted(total, terms):
        raise KeyboardInterrupt

    with monkeypatch.context() as m:
        m.setattr(simulate, "_add_in_order", interrupted)
        with pytest.raises(KeyboardInterrupt):
            estimate_barrier_moments(u, barrier, params, cfg)
    assert estimate_barrier_moments(u, barrier, params, cfg) == want


def test_a_broken_pool_raises_and_the_next_estimate_starts_a_new_one(params, barrier, monkeypatch):
    u, cfg = Reserves(1.0, 2.0), SimConfig(n_paths=300, master_seed=10)
    monkeypatch.setattr(simulate, "_BLOCK", 100)
    _cores(monkeypatch, 1)
    want = estimate_barrier_moments(u, barrier, params, cfg)
    _cores(monkeypatch, 2)
    broken = simulate._worker_pool(1)
    with pytest.raises(BrokenProcessPool):
        broken.submit(os._exit, 1).result(timeout=60)  # the worker dies
    with pytest.raises(BrokenProcessPool):
        estimate_barrier_moments(u, barrier, params, cfg)
    assert simulate._pool is None
    assert estimate_barrier_moments(u, barrier, params, cfg) == want
    assert simulate._pool not in (None, broken)
