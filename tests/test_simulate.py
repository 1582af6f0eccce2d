import concurrent.futures
import dataclasses
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

from conftest import impulse_path_mc
from dividend2d import (
    BarrierSpec,
    ExponentialClaims,
    ImpulseSpec,
    ModelParams,
    NonConvergenceError,
    ParameterError,
    Reserves,
    SimConfig,
    build_sequences,
    estimate_barrier_moments,
    estimate_impulse_moments,
    simulate_impulse_path,
    simulate_refracted_path,
    trace_refracted_path,
    v1_barrier,
)
from dividend2d import simulate
from dividend2d.model import SampledClaims
from dividend2d.simulate import (
    _CENSORED,
    _MAX_COLUMNS,
    _RUIN_C1,
    _RUIN_C2,
    DividendEstimate,
    PathResult,
    PathStream,
    _accumulate,
    _fill_streams,
    _impulse_loop,
    _impulse_paths,
    _path_rng,
    _philox,
    _unit,
    default_max_time,
)


def _outcomes(block):
    """A finished block's D, sigma, censored mask and ruin cause (0 when
    censored)."""
    censored = block.end == _CENSORED
    return block.D, block.sigma, censored, np.where(censored, 0, block.end)


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
    # frequent small claims: paths run for hundreds of claims below and
    # along the line and resume on chunk after chunk of columns; the
    # estimate must still equal the single-path runs exactly
    long = ModelParams(c1=4.0, c2=3.0, lam=20.0, claims=ExponentialClaims(20.0), q=0.1)
    bar = BarrierSpec.reflection(0.5, 14.0, long)
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
    bar = BarrierSpec.reflection(0.1, 14.0, quiet)
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


def test_claim_free_path_moves_along_the_line_at_unit_speed():
    # here (c2 - (c2 - a)) + a*(c1 - (c1 + 1)) rounds a few ulp below 0,
    # which made the line "attract" and the path slide at another speed; the
    # payout drift is the one drift, so company 1 drains at (c1 + 1) - c1
    quiet = ModelParams(c1=3.8142564242796815, c2=3.0561574969534915, lam=1e-300,
                        claims=ExponentialClaims(2.0), q=0.1)
    bar = BarrierSpec.reflection(2.53614303382828, 6.0, quiet)
    u1 = 1.5
    u = Reserves(u1, bar.line_height(u1))
    res = simulate_refracted_path(u, bar, quiet, _path_rng(0, 0), max_time=1e6)
    assert res.sigma == u1 / (quiet.c1 + 1.0 - quiet.c1)
    rows = trace_refracted_path(u, bar, quiet, 0, max_time=1e6)
    assert [ev for *_, ev in rows] == ["start", "ruin"]  # no reach_line_above row


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
    cfg = SimConfig(n_paths=30_000, master_seed=8)
    short = estimate_barrier_moments(u, barrier, params, cfg, max_time=25.0)
    long = estimate_barrier_moments(u, barrier, params, cfg, max_time=50.0)
    assert short.n_censored > 0
    drift = long.moments[1][0] - short.moments[1][0]
    assert 0.0 <= drift < short.truncation_bias_bound


def test_barrier_paths_past_the_column_cap_are_censored_at_their_time(params, barrier, monkeypatch):
    # 11 columns: a 1,000-path block fills 8 and then 3, a single path 11;
    # a path still running then is censored at the time of its 11th claim
    u, seed, cap = Reserves(1.0, 2.0), 5, 11
    trace = trace_refracted_path(u, barrier, params, seed)
    claims = [t for t, _, _, event in trace if event == "claim"]
    assert len(claims) > cap
    monkeypatch.setattr(simulate, "_MAX_PATH_COLUMNS", cap)
    res = simulate_refracted_path(u, barrier, params, _path_rng(seed, 0))
    assert (res.censored, res.ruin_cause, res.sigma) == (True, 0, claims[cap - 1])
    cfg = SimConfig(n_paths=1000, master_seed=seed)
    est = estimate_barrier_moments(u, barrier, params, cfg)
    horizon = default_max_time(params, barrier.delta0)
    paths = np.arange(cfg.n_paths)
    D, sigma, censored, cause = _outcomes(
        simulate._barrier_paths(u, barrier, params, horizon, seed, paths)
    )
    assert 0 < est.n_censored == np.count_nonzero(censored) < cfg.n_paths
    assert not cause[censored].any() and (sigma[censored] < horizon).all()
    tail = np.exp(-params.q * sigma[censored]).sum() * barrier.delta0 / params.q / cfg.n_paths
    assert est.truncation_bias_bound == pytest.approx(tail, rel=1e-12)
    assert est.moments[1][0] == pytest.approx(D.mean(), rel=1e-12)


def test_second_moment_dominates_square(params, barrier):
    est = estimate_barrier_moments(
        Reserves(1.0, 2.0), barrier, params, SimConfig(n_paths=5000, master_seed=4, moment_orders=(1, 2))
    )
    m1, _ = est.moments[1]
    m2, _ = est.moments[2]
    assert m2 >= m1 * m1


@pytest.mark.parametrize(
    "spec, n", [(ImpulseSpec(3.0, 2.0, 0.5), 15_000), (ImpulseSpec(1.0, 2.0, 0.5), 30_000)]
)
def test_impulse_estimate_agrees_with_a_plain_python_whole_path_oracle(params, spec, n):
    # the oracle shares neither streams, event code nor V1 = A/(1-p) with
    # the library; its seed and the estimate's are fixed, not searched
    est = estimate_impulse_moments(spec, params, SimConfig(n, 2501, moment_orders=(1, 2)))
    D = np.array(impulse_path_mc(spec, params, n, seed=2502))
    assert est.n_censored == 0
    for k in (1, 2):
        mean, se = est.moments[k]
        dk = D**k
        z = (mean - dk.mean()) / math.hypot(se, dk.std() / math.sqrt(n))
        assert abs(z) < 3.0, (k, mean, dk.mean(), z)


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
            spec.u1, spec.u2, spec.K, params.c1, params.c2, params.q,
            *(a.tolist() for a in _path_rng(cfg.master_seed, i).columns(params, 0, _MAX_COLUMNS)),
        )[2]
        for i in range(cfg.n_paths)
    ]
    assert 0 in first_chunk  # cause 0: the columns ran out before a ruin
    full = estimate_impulse_moments(spec, params, cfg)
    total = 0.0
    for i in range(cfg.n_paths):
        total += simulate_impulse_path(spec, params, _path_rng(cfg.master_seed, i)).D
    assert total / cfg.n_paths == full.moments[1][0]
    assert all(type(v) is float for moment in full.moments.values() for v in moment)


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
    "spec, claim_size, cap",
    [
        # 26 of the 1,500 paths run past 300 columns: fewer than _HANDOFF,
        # so the scalar loop takes them over before the cap censors them
        (ImpulseSpec(3.0, 2.0, 0.5), None, 300),
        # claims of 0.1 ruin no path within 200 columns (it takes about 19
        # in one recovery), so the cap censors every path, in lockstep,
        # at the handoff and in the scalar loop
        (ImpulseSpec(3.0, 2.0, 0.5), 0.1, 200),
        # a cap that no path comes near
        (ImpulseSpec(3.0, 2.0, 0.5), None, 1_000_000),
        (ImpulseSpec(3.0, 2.0, 50.0), None, 1_000_000),  # negative lumps
        (ImpulseSpec(1.0, 2.0, 0.5), None, 1_000_000),  # u1 < u2
        (ImpulseSpec(3.0, 2.0, 0.5), 2.5, 1_000_000),  # company 2 ruins
    ],
)
def test_impulse_results_do_not_depend_on_the_handoff(params, monkeypatch, spec, claim_size, cap):
    # lockstep to the end, the default handoff, and the scalar loop alone
    # give the same per-path arrays and estimates, bit for bit; so does a
    # block of 100 paths, which starts in lockstep at the default handoff
    model = params if claim_size is None else _constant_claims(claim_size)
    monkeypatch.setattr(simulate, "_MAX_PATH_COLUMNS", cap)
    paths = np.arange(1500)
    cfg = SimConfig(n_paths=1500, master_seed=31, moment_orders=(1, 2))
    runs = []
    assert simulate._HANDOFF <= 100
    for handoff in (0, simulate._HANDOFF, simulate._BLOCK + 1):
        monkeypatch.setattr(simulate, "_HANDOFF", handoff)
        est = estimate_impulse_moments(spec, model, cfg)
        runs.append((_outcomes(_impulse_paths(spec, model, 31, paths)), est,
                     _outcomes(_impulse_paths(spec, model, 31, paths[:100]))))
    lockstep, est, _ = runs[0]
    for results, other, small in runs:
        assert all(np.array_equal(a, b) for a, b in zip(lockstep, results))
        assert all(np.array_equal(a[:100], b) for a, b in zip(lockstep, small))
        assert other == est
    D, sigma, censored, cause = lockstep
    assert est.n_censored == np.count_nonzero(censored) == np.count_nonzero(cause == 0)
    assert est.n_censored == {300: 26, 200: cfg.n_paths}.get(cap, 0)
    for i in (0, 1, 777, 1499):
        row = PathResult(float(D[i]), float(sigma[i]), bool(censored[i]), int(cause[i]))
        assert simulate_impulse_path(spec, model, _path_rng(31, i)) == row


@pytest.mark.parametrize("handoff", [None, 0, simulate._HANDOFF])
def test_impulse_path_reads_the_claim_of_the_column_whose_wait_it_used(params, monkeypatch,
                                                                        handoff):
    # from (3, 2): column 0 opens cycle 1 with a claim of 1.2; in column 1
    # company 2 reaches u2 before the claim, a claim of 10 that would ruin
    # company 1 if it were read; column 2 opens cycle 2 with a claim of 0.5,
    # and company 2 recovers in column 3, whose claim is 10 again
    spec = ImpulseSpec(3.0, 2.0, 0.5)
    waits, claims = np.full(_MAX_COLUMNS, 1.0), np.full(_MAX_COLUMNS, 10.0)
    claims[[0, 2]] = 1.2, 0.5
    c1, c2, q = params.c1, params.c2, params.q
    D = t = 0.0
    for wait, x in ((waits[0], claims[0]), (waits[2], claims[2])):
        D += c1 * (math.exp(-q * t) - math.exp(-q * (t + wait))) / q
        t += wait + x / c2  # company 2 climbs back from u2 - x
        D += ((c1 - c2) * x / c2 - spec.K) * math.exp(-q * t)
    cap = 4
    monkeypatch.setattr(simulate, "_MAX_PATH_COLUMNS", cap)
    if handoff is None:
        got_D, sigma, cause, _ = _impulse_loop(
            spec.u1, spec.u2, spec.K, c1, c2, q, waits[:cap].tolist(), claims[:cap].tolist()
        )
        censored = cause == 0
    else:
        # the lockstep loop (handoff 0) and the scalar loop behind the block
        def fill(master_seed, paths, params, ts, xs, start):
            ts[:] = waits[start : start + ts.shape[1]]
            xs[:] = claims[start : start + xs.shape[1]]

        monkeypatch.setattr(simulate, "_fill_streams", fill)
        monkeypatch.setattr(simulate, "_HANDOFF", handoff)
        block = _impulse_paths(spec, params, 0, np.arange(1))
        got_D, sigma, censored, cause = (a[0] for a in _outcomes(block))
    # both cycles complete: no ruin, censored after _MAX_PATH_COLUMNS = 4
    assert (bool(censored), int(cause)) == (True, 0)
    assert float(got_D) == pytest.approx(D, rel=1e-12)
    assert float(sigma) == pytest.approx(t, rel=1e-12)


def _loop_accumulate(cfg, payout_rate, params, blocks):
    """The per-path Python reduction the array one replaced, kept as its
    oracle."""
    orders = tuple(sorted(set(cfg.moment_orders)))
    sums = {n: 0.0 for n in orders}
    sq_sums = {n: 0.0 for n in orders}
    ruin_sum, ruin_count, censored, company2 = 0.0, 0, 0, 0
    bias_sum = 0.0
    for block in blocks:
        for D, sigma, is_censored, cause in zip(*(a.tolist() for a in _outcomes(block))):
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
        end = np.where(censored, _CENSORED, rng.choice([_RUIN_C1, _RUIN_C2], size))
        D = rng.exponential(3.0, size) - 0.5
        sigma = np.where(censored, rng.uniform(20.0, 40.0, size), rng.exponential(5.0, size))
        blocks.append(simulate._Block(size))
        blocks[-1].finish(slice(None), D, sigma, end)
    n = sum(b.D.size for b in blocks)
    cfg = SimConfig(n_paths=n, master_seed=0, moment_orders=(3, 1, 2))
    got = _accumulate(cfg, 2.5, params, iter(blocks))
    want = _loop_accumulate(cfg, 2.5, params, blocks)
    all_D = np.concatenate([b.D for b in blocks])
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
    cfg = SimConfig(n_paths=2500, master_seed=14, moment_orders=(1, 2, 3))
    spec = ImpulseSpec(3.0, 2.0, 0.5)

    def run():
        return (
            estimate_barrier_moments(u, barrier, params, cfg, max_time=10.0),
            estimate_impulse_moments(spec, params, cfg),
        )

    default = run()
    assert 0 < default[0].n_censored < cfg.n_paths
    assert simulate._BLOCK > cfg.n_paths
    monkeypatch.setattr(simulate, "_BLOCK", 1000)
    blocks, accumulate = [], simulate._accumulate

    def counted(cfg, payout_rate, params, results):
        results = list(results)
        blocks.append(len(results))
        return accumulate(cfg, payout_rate, params, results)

    monkeypatch.setattr(simulate, "_accumulate", counted)
    assert run() == default
    assert blocks == [3, 3]  # the impulse paths too ran in three blocks


def _fills(monkeypatch) -> list[tuple[int, int]]:
    """The (rows, columns) of every stream fill from now on."""
    fills, fill = [], simulate._fill_streams

    def counted(master_seed, paths, params, ts, xs, start=0):
        fills.append(ts.shape)
        fill(master_seed, paths, params, ts, xs, start)

    monkeypatch.setattr(simulate, "_fill_streams", counted)
    return fills


@pytest.mark.parametrize("n, first", [(8192, 1), (1024, 8), (128, 64), (1, 64)])
def test_a_blocks_first_chunk_draws_about_one_fill_slice(params, barrier, monkeypatch, n, first):
    # at the table-1 argmax a path reads about 25 columns, so every block
    # runs on chunks that double from the first up to _MAX_COLUMNS
    fills = _fills(monkeypatch)
    horizon = default_max_time(params, barrier.delta0)
    simulate._barrier_paths(Reserves(1.0, 2.0), barrier, params, horizon, 3, np.arange(n))
    widths = [columns for _, columns in fills]
    assert widths[0] == first
    assert widths[1:] == [min(first << k, _MAX_COLUMNS) for k in range(1, len(widths))]
    assert fills[0][0] == n and widths[-1] == _MAX_COLUMNS


def test_a_short_path_block_draws_under_two_columns_a_path(params, monkeypatch):
    """At the table-3 barrier from (0.4, 0.6) one block of 8,192 paths
    (seed 2024) fills 15,546 columns, on chunks of 1, 2 and 4 columns:
    31,092 draws (a wait and a claim each), 1.90 columns a path.  A fixed
    first chunk of 8 columns, which no path outlives, drew 131,072, 8
    columns a path."""
    fills = _fills(monkeypatch)
    bar = BarrierSpec.reflection(0.9, 1.8, params)
    horizon = default_max_time(params, bar.delta0)
    simulate._barrier_paths(Reserves(0.4, 0.6), bar, params, horizon, 2024, np.arange(8192))
    assert [columns for _, columns in fills] == [1, 2, 4]
    assert sum(2 * rows * columns for rows, columns in fills) == 31_092


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


def test_trace_ends_censored_at_the_column_cap(params, barrier, monkeypatch):
    # the path outlives three columns; the kernel that writes the trace
    # never sees the cap, which _run_chunks enforces
    monkeypatch.setattr(simulate, "_MAX_PATH_COLUMNS", 3)
    u = Reserves(1.0, 2.0)
    rows = trace_refracted_path(u, barrier, params, seed=5)
    path = simulate_refracted_path(u, barrier, params, _path_rng(5, 0))
    assert path.censored
    assert [ev for *_, ev in rows].count("claim") == 3
    assert rows[-2][3] == "claim" and rows[-1] == (path.sigma, *rows[-2][1:3], "censored")


def _pinned(m1, m2, m3, ruin_time_mean, bias, n_censored=0, n_ruin_company2=0):
    return DividendEstimate({1: m1, 2: m2, 3: m3}, ruin_time_mean, bias, 2000, n_censored,
                            n_ruin_company2)


# 2,000 paths, seed 7, moments 1-3: every branch of the barrier kernel, its
# bits frozen
@pytest.mark.parametrize("u, a, b, alpha, expected", [
    pytest.param((1.0, 2.0), 0.1, 14.0, 2.0, _pinned(
        (37.80657021705391, 0.14387404096148373), (1470.736230902201, 6.559383527148632),
        (57417.3637347067, 305.687263670618), 25.270626167356244, 0.0), id="table1-argmax"),
    pytest.param((0.4, 0.6), 0.9, 1.8, 2.0, _pinned(
        (5.125453337707683, 0.0414805019634918), (29.711536003305326, 0.30666989160136965),
        (177.1079784013121, 2.0877122117110223), 0.9249860085374295, 0.0), id="table3"),
    # about a third of the paths ruined by company 2 alone
    pytest.param((1.0, 2.0), 0.1, 14.0, 0.6, _pinned(
        (14.710491147002648, 0.28013978505589165), (373.3551481283656, 8.79386507450572),
        (10197.929532677705, 292.5873016436645), 34.59173744940231, 7.844060751799478e-06,
        161, 628), id="alpha0.6"),
])
def test_barrier_estimates_keep_their_bits(u, a, b, alpha, expected):
    model = ModelParams(c1=4.0, c2=3.0, lam=1.0, claims=ExponentialClaims(alpha), q=0.1)
    bar = BarrierSpec.reflection(a, b, model)
    cfg = SimConfig(n_paths=2000, master_seed=7, moment_orders=(1, 2, 3))
    assert estimate_barrier_moments(Reserves(*u), bar, model, cfg) == expected


def test_short_horizon_censors_below_the_line_and_in_the_payout_set(params):
    u, bar, horizon = Reserves(0.4, 0.6), BarrierSpec.reflection(0.9, 1.8, params), 0.3
    cfg = SimConfig(n_paths=2000, master_seed=7, moment_orders=(1, 2, 3))
    assert estimate_barrier_moments(u, bar, params, cfg, horizon) == _pinned(
        (1.0408548424357176, 0.007685549567374355), (1.2015141473270188, 0.010591933712765126),
        (1.4101940454357267, 0.013626128497664643), 0.1260767567803889, 63.811700461067815, 1853)
    # a path censored in the payout set stops at the horizon; one censored
    # below the line runs on to its claim or to the line
    _, sigma, censored, _ = _outcomes(simulate._barrier_paths(u, bar, params, horizon, 7,
                                                              np.arange(2000)))
    assert np.count_nonzero(censored & (sigma == horizon)) == 1718
    assert np.count_nonzero(censored & (sigma > horizon)) == 135


@pytest.mark.parametrize("u, a, b, seed, expected", [
    pytest.param((0.4, 0.6), 0.9, 1.8, 4, [
        (0.0, 0.4, 0.6, "start"),
        (0.1272727272727273, 0.9090909090909092, 0.9818181818181818, "enter_payout"),
        (0.14205940154418376, 0.3389123529236886, 0.4397343067667284, "claim"),
        (0.30194494330205524, 0.9784545199551746, 0.9193909320403428, "enter_payout"),
        (1.28039946325723, 0.0, 1.7999999999999998, "ruin"),
    ], id="table3"),
    # a start in the payout set: the path pays, drops below the line on its
    # claims and returns to it
    pytest.param((3.0, 2.0), 0.9, 1.8, 6, [
        (0.0, 3.0, 2.0, "start"),
        (0.2784865077407188, 2.5840245534508886, 2.113148918158254, "claim"),
        (0.3571672543123278, 2.4189995792526346, 2.0976173624460572, "claim"),
        (0.377543359490526, 1.695456961214549, 1.4127893442465482, "claim"),
        (1.334407036052739, 0.0006466388464474448, 1.5360200073466512, "claim"),
        (1.374315826612064, 0.16028180108374807, 1.6557463790246267, "enter_payout"),
        (1.5345976276958122, 0.0, 1.8, "ruin"),
    ], id="table3-from-the-payout-set"),
])
def test_traces_keep_their_bits(params, u, a, b, seed, expected):
    bar = BarrierSpec.reflection(a, b, params)
    assert trace_refracted_path(Reserves(*u), bar, params, seed) == expected


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
def test_horizon_must_be_positive(params, barrier, max_time):
    # a horizon at or before t = 0 censored every path with D = 0, and a NaN
    # one censored none; single paths and traces took either unchecked.  The
    # horizon is checked before the start
    cfg = SimConfig(n_paths=10, master_seed=1)
    for u in (Reserves(1.0, 2.0), Reserves(-1.0, 2.0)):
        with pytest.raises(ValueError, match="max_time > 0 required"):
            estimate_barrier_moments(u, barrier, params, cfg, max_time)
        with pytest.raises(ValueError, match="max_time > 0 required"):
            simulate_refracted_path(u, barrier, params, _path_rng(1, 0), max_time)
        with pytest.raises(ValueError, match="max_time > 0 required"):
            trace_refracted_path(u, barrier, params, 1, max_time)


def test_path_stream_rejects_non_integers(params, barrier):
    # PathStream(9.7, 2.5) ran as PathStream(9, 2), and a trace of seed 9.7
    # traced seed 9
    for seed, index, name in ((9.7, 2, "master_seed"), (9, 2.5, "path index")):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            PathStream(seed, index)
    with pytest.raises(ValueError, match="master_seed must be an integer"):
        trace_refracted_path(Reserves(1.0, 2.0), barrier, params, seed=9.7)
    # NumPy integers are integers, stored as ints
    stream = PathStream(np.uint64(9), np.int64(2))
    assert stream == PathStream(9, 2) and type(stream.master_seed) is type(stream.index) is int


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
    # a barrier built for another model pays another rate: every route
    # rejects it.  At c1 = 1e100, c1 + 1 rounds to c1 and company 1 stops
    # draining while it pays: the simulator rejects the barrier, and the
    # series fails numerically there, as it did before
    u, cfg = Reserves(1.0, 2.0), SimConfig(n_paths=10, master_seed=1)
    other = BarrierSpec.reflection(0.1, 14.0, dataclasses.replace(params, c1=5.0))
    huge = dataclasses.replace(params, c1=1e100)
    huge_bar = BarrierSpec.reflection(0.1, 14.0, huge)
    for model, bar, match in (
        (params, other, r"delta0 = \(c1 \+ 1\) \+ \(c2 - a\) violated \(8\.9 != 7\.9\)"),
        (huge, huge_bar,
         r"c1 - \(c1 \+ 1\) < 0 violated \(1e\+100 - 1e\+100\); company 1 must drain"),
    ):
        with pytest.raises(ParameterError, match=match):
            estimate_barrier_moments(u, bar, model, cfg)
        with pytest.raises(ParameterError, match=match):
            simulate_refracted_path(u, bar, model, _path_rng(1, 0))
        with pytest.raises(ParameterError, match=match):
            trace_refracted_path(u, bar, model, seed=1)
    for value in (partial(v1_barrier, u), build_sequences):
        with pytest.raises(ParameterError, match="delta0 = .* violated"):
            value(other, params)
        with pytest.raises(NonConvergenceError):
            value(huge_bar, huge)


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


def test_all_ones_words_give_a_uniform_below_one_and_a_finite_wait(params):
    words = [np.array([0xFFFFFFFF], dtype=np.uint64) for _ in range(2)]
    u = _unit(*words)
    assert u[0] < 1.0
    assert np.isfinite(-np.log1p(-u[0]) / params.lam)
    assert np.isfinite(params.claims.ppf(u)[0])


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
    cfg = SimConfig(n_paths=3000, master_seed=6)
    est = estimate_barrier_moments(Reserves(5.0, 1.0), bar, const, cfg, max_time=20.0)
    assert est.n_ruin_company2 > 0
    assert est.n_ruin_company2 == cfg.n_paths - est.n_censored
    path = simulate_refracted_path(Reserves(5.0, 1.0), bar, const, _path_rng(6, 0), 20.0)
    assert path.ruin_cause in (0, _RUIN_C2) and path.censored == (path.ruin_cause == 0)
    # from (1, 2), a claim of 2 ruins company 1 first (or both at once)
    est = estimate_barrier_moments(Reserves(1.0, 2.0), bar, const, cfg, max_time=0.2)
    assert est.n_ruin_company2 == 0 and est.n_censored < cfg.n_paths


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
    # one block each, cut into two parts on two cores, but for the block
    # of 2 * _MIN_PART - 1 paths, too small to cut
    sizes = [3 * 2048 + 5, 2 * simulate._MIN_PART - 1, 2 * simulate._MIN_PART, 2048 + 1]
    pooled = _compare_core_counts(monkeypatch, partial(estimate_impulse_moments, spec, params),
                                  sizes)
    assert simulate._pool is not None
    assert pooled == {sizes[0], *sizes[2:]}


@pytest.mark.parametrize("size, n_paths, blocks", [
    (simulate._BLOCK, 10_000, [5000, 5000]),  # not 8192 + 1808
    (simulate._BLOCK, 16_384, [8192, 8192]),
    # a block size above the path count: two cores cut the one block into
    # parts of _MIN_PART paths only when it holds two such parts
    (2048, 2 * simulate._MIN_PART, [1024, 1024]),
    (2048, 2 * simulate._MIN_PART - 1, [2047]),
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
    u, cfg = Reserves(1.0, 2.0), SimConfig(n_paths=300, master_seed=12)
    _cores(monkeypatch, 2)
    estimate_barrier_moments(u, barrier, params, cfg, max_time=20.0)
    assert simulate._pool is not None
    model = ModelParams(c1=4.0, c2=3.0, lam=1.0, q=0.1,
                        claims=SampledClaims(inverse_cdf=_scaled_claims, mean_value=0.5))
    bar = BarrierSpec.reflection(0.1, 14.0, model)
    before = estimate_barrier_moments(u, bar, model, cfg, max_time=20.0)
    monkeypatch.setitem(globals(), "_CLAIM_SCALE", 0.25)
    runs = []
    for cores in (1, 2):
        _cores(monkeypatch, cores)
        runs.append(estimate_barrier_moments(u, bar, model, cfg, max_time=20.0))
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
