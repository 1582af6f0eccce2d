"""Monte Carlo engine for both controls, exact in time between claims.

Between claims every trajectory is piecewise linear, so barrier hits,
axis crossings and payout intervals are solved in closed form; the only
randomness consumed is claim times and sizes.  Each path draws from its
own counter-based substream keyed by (master_seed, path index), which
makes every estimate a pure function of the seed, independent of any
batching or threading arrangement.

Barrier paths run through one NumPy kernel that moves a block of paths in
lockstep, one inter-claim interval at a time; a single path is a block of
one, so estimates, single-path calls and traces share every operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .model import (
    ON_LINE_TOL,
    BarrierSpec,
    ModelParams,
    ParameterError,
    Reserves,
    validate_barrier,
    validate_model,
)
from .impulse import ImpulseSpec

#: path-status codes shared by the kernels
_DONE, _CENSORED, _NEED_MORE = 0, 1, 2

#: trace event codes -> labels for the CSV surface
TRACE_EVENTS = {
    0: "start",
    1: "enter_payout",
    2: "reach_line_above",
    3: "claim",
    4: "ruin",
    5: "censored",
}

_CHUNK = 256

#: paths per block of the barrier estimator (two 256-column float arrays
#: of this height stay within a few tens of MB)
_BLOCK = 8192


@dataclass(frozen=True)
class SimConfig:
    """Path count, seeding, horizon and which moments to estimate."""

    n_paths: int
    master_seed: int
    max_time: float | None = None
    moment_orders: tuple[int, ...] = (1,)

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError(f"n_paths >= 1 required, got {self.n_paths}")
        if self.max_time is not None and not self.max_time > 0.0:
            raise ValueError(f"max_time > 0 required, got {self.max_time}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"master_seed must lie in [0, 2**64), got {self.master_seed}")
        if any(n < 1 for n in self.moment_orders):
            raise ValueError("moment orders must be positive integers")


@dataclass(frozen=True)
class DividendEstimate:
    """Monte Carlo moments of the discounted dividend stream.

    ``moments[n] = (mean of D^n, standard error)``; ``ruin_time_mean``
    averages over paths that ruined before censoring.
    """

    moments: dict[int, tuple[float, float]]
    ruin_time_mean: float
    truncation_bias_bound: float
    n_paths: int
    n_censored: int = 0


def default_max_time(params: ModelParams, payout_rate: float, bias_tol: float = 1e-4) -> float:
    """Horizon making the censored-tail value bound at most ``bias_tol``.

    Remaining discounted payout after T is below e^{-qT} * rate / q.
    """
    return math.log(payout_rate / (params.q * bias_tol)) / params.q


def _check_start(u: Reserves) -> None:
    # the kernel tests ruin only after a claim, so a start outside the
    # quadrant would drift back in instead of counting as ruined
    if not (0.0 <= u.u1 < math.inf and 0.0 <= u.u2 < math.inf):
        raise ParameterError([f"start needs finite u1, u2 >= 0, got ({u.u1}, {u.u2})"])


def _path_key(master_seed: int, index: int) -> np.ndarray:
    return np.array([np.uint64(master_seed), np.uint64(index)], dtype=np.uint64)


def _path_rng(master_seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=_path_key(master_seed, index)))


def _draw_chunk(rng: np.random.Generator, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Next ``_CHUNK`` waiting times, then ``_CHUNK`` claim sizes."""
    scale_t = math.inf if params.lam == 0.0 else 1.0 / params.lam
    return rng.exponential(scale_t, _CHUNK), params.claims.sample(rng, _CHUNK)


def _path_rngs(master_seed: int, paths: Iterable[int]) -> Iterator[np.random.Generator]:
    """Yield a generator in the state of ``_path_rng(master_seed, i)`` for
    each ``i`` in ``paths``, in turn.

    One generator is re-keyed per path (counter and buffer reset to a
    fresh generator's), which draws the same numbers at half the cost of
    building a new one.  Each yielded generator is the same object, valid
    until the next one is requested.
    """
    key = _path_key(master_seed, 0)
    bitgen = np.random.Philox(key=key)
    rng = np.random.Generator(bitgen)
    fresh = bitgen.state
    fresh["state"]["key"] = key
    for i in paths:
        key[1] = i
        bitgen.state = fresh
        yield rng


def _fill_streams(
    master_seed: int, paths: np.ndarray, params: ModelParams, ts: np.ndarray, xs: np.ndarray
) -> None:
    """Fill row ``j`` of ``ts``/``xs`` with the waiting times and claim
    sizes that ``_path_rng(master_seed, paths[j])`` yields, chunk by chunk."""
    for j, rng in enumerate(_path_rngs(master_seed, paths.tolist())):
        for c in range(0, ts.shape[1], _CHUNK):
            ts[j, c : c + _CHUNK], xs[j, c : c + _CHUNK] = _draw_chunk(rng, params)


# ---------------------------------------------------------------------------
# kernels


def _barrier_kernel(
    u: Reserves,
    barrier: BarrierSpec,
    params: ModelParams,
    max_time: float,
    ts: np.ndarray,
    xs: np.ndarray,
    trace: list | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Event loop for a block of refracted paths, all started at ``u``.

    Row ``j`` of ``ts``/``xs`` holds path ``j``'s waiting times and claim
    sizes.  Returns arrays (D, sigma, status); ``_NEED_MORE`` marks paths
    that outlived their columns (their D and sigma are meaningless).

    Paths move in lockstep, one inter-claim interval at a time.  Within an
    interval each path takes flow segments, each advanced to the earliest
    of: claim, barrier hit, axis crossing, or the horizon.  A claim
    landing exactly on a crossing time is processed first (the region is
    re-evaluated after the jump).  Every operation is elementwise, so a
    path's result does not depend on which block it runs in.

    When the payout drift points back below the line while the premium
    drift points above it, the line attracts from both sides and the
    trajectory slides along it (the chattering limit): payout accrues at
    the fraction of time spent in the payout set that keeps the motion on
    the line.  Reflection is the boundary case of this with fraction 1.

    ``trace`` (a list, blocks of one path only) receives the event rows
    (t, y1, y2, code) of that path.
    """
    n_paths, n_cols = ts.shape
    if trace is not None and n_paths != 1:
        raise ValueError("tracing needs a block of one path")
    a, b, q, tol = barrier.a, barrier.b, params.q, ON_LINE_TOL
    c1, c2 = params.c1, params.c2
    d0 = barrier.delta0
    v1b = c1 - barrier.delta1
    v2b = c2 - barrier.delta2
    rate_f = v2b + a * v1b  # growth of y2 - (b - a*y1) inside the payout set
    approach = c2 + a * c1  # the same growth below the set; always positive
    if rate_f < 0.0:
        # Filippov fraction keeping the f-velocity at zero while sliding
        theta = approach / (approach - rate_f)
        slide = (theta * v1b + (1.0 - theta) * c1, theta * v2b + (1.0 - theta) * c2, theta * d0)
    else:
        slide = (v1b, v2b, d0)  # never selected: sliding needs rate_f < 0

    def note(mask, code, t, y1, y2):
        if trace is not None and np.any(mask):
            trace.append((float(t[0]), float(y1[0]), float(y2[0]), code))

    D_out = np.zeros(n_paths)
    sig_out = np.zeros(n_paths)
    status = np.full(n_paths, _NEED_MORE)
    # state of the live paths, compacted after every interval
    live = np.arange(n_paths)
    y1 = np.full(n_paths, float(u.u1))
    y2 = np.full(n_paths, float(u.u2))
    t = np.zeros(n_paths)
    D = np.zeros(n_paths)
    note(True, 0, t, y1, y2)

    def finish(pos, code, fin):
        idx = live[pos[fin]]
        D_out[idx] = D[pos[fin]]
        sig_out[idx] = t[pos[fin]]
        status[idx] = code

    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(n_cols):
            if live.size == 0:
                break
            rem = ts[live, k]
            done = np.zeros(live.size, dtype=bool)
            pos = np.flatnonzero(rem > 0.0)
            while pos.size:
                Y1, Y2, T, A, R = y1[pos], y2[pos], t[pos], D[pos], rem[pos]
                f = Y2 - (b - a * Y1)
                below = f < -tol
                # below the line: premium drift toward it, no payout, no ruin
                t_hit = -f / approach
                hit = below & (t_hit < R)
                dtb = np.where(hit, t_hit, R)
                y1b = Y1 + c1 * dtb
                y2b = np.where(hit, b - a * y1b, Y2 + c2 * dtb)
                # in the payout set: diverted (or sliding) drift
                sliding = (f <= tol) & (rate_f < 0.0)
                w1 = np.where(sliding, slide[0], v1b)
                w2 = np.where(sliding, slide[1], v2b)
                pay = np.where(sliding, slide[2], d0)
                dt = R.copy()
                kind = np.zeros(pos.size, dtype=np.int8)
                for w, y in ((w1, Y1), (w2, Y2)):
                    tt = y / -w
                    earlier = (w < 0.0) & (tt < dt)
                    dt = np.where(earlier, tt, dt)
                    kind[earlier] = 1  # axis crossing
                if rate_f < 0.0:
                    tt = f / -rate_f  # descends onto the line, then slides
                    earlier = ~sliding & (f > tol) & (tt < dt)
                    dt = np.where(earlier, tt, dt)
                    kind[earlier] = 2
                late = T + dt > max_time
                dt = np.where(late, max_time - T, dt)
                kind[late] = 3
                A_pay = A + pay * (np.exp(-q * T) - np.exp(-q * (T + dt))) / q
                y1p = Y1 + w1 * dt
                y2p = np.where(kind == 2, b - a * y1p, Y2 + w2 * dt)
                Y1 = np.where(below, y1b, y1p)
                Y2 = np.where(below, y2b, y2p)
                T = T + np.where(below, dtb, dt)
                R = R - np.where(below, dtb, dt)
                y1[pos], y2[pos], t[pos], rem[pos] = Y1, Y2, T, R
                D[pos] = np.where(below, A, A_pay)
                above = ~below
                note(hit, 1, T, Y1, Y2)
                note(above & (kind == 2), 2, T, Y1, Y2)
                ruined = above & (kind == 1)
                censored = np.where(below, T >= max_time, kind == 3)
                note(ruined, 4, T, Y1, Y2)
                note(censored, 5, T, Y1, Y2)
                finish(pos, _DONE, ruined)
                finish(pos, _CENSORED, censored)
                stop = ruined | censored
                done[pos[stop]] = True
                pos = pos[~stop & (R > 0.0)]
            keep = np.flatnonzero(~done)
            live, y1, y2, t, D = live[keep], y1[keep], y2[keep], t[keep], D[keep]
            if live.size == 0:
                break
            x = xs[live, k]
            y1 -= x
            y2 -= x
            note(True, 3, t, y1, y2)
            ruined = (y1 < 0.0) | (y2 < 0.0)
            note(ruined, 4, t, y1, y2)
            finish(np.arange(live.size), _DONE, ruined)
            keep = np.flatnonzero(~ruined)
            live, y1, y2, t, D = live[keep], y1[keep], y2[keep], t[keep], D[keep]
    return D_out, sig_out, status


def _impulse_kernel(u1, u2, K, c1, c2, q, max_cycles, ts, xs):
    """Renewal loop for one impulse path.

    ``ts`` supplies every exponential waiting time (cycle waits and the
    inter-claim gaps of the recovery race alike, in consumption order);
    ``xs`` supplies claim sizes.  Returns (D, sigma, status, used_t,
    used_x, cycles).  The loop runs on Python floats: indexing a list is
    cheaper than indexing an array, and the arithmetic is the same.
    """
    ts, xs = ts.tolist(), xs.tolist()
    mn = u1 if u1 < u2 else u2
    gap = u2 - u1
    t, D = 0.0, 0.0
    it, ix = 0, 0
    nt, nx = len(ts), len(xs)
    for cycle in range(max_cycles):
        if it >= nt or ix >= nx:
            return D, t, _NEED_MORE, it, ix, cycle
        w = ts[it]
        it += 1
        D += c1 * (math.exp(-q * t) - math.exp(-q * (t + w))) / q
        t += w
        x = xs[ix]
        ix += 1
        if x > mn:
            return D, t, _DONE, it, ix, cycle + 1
        # company 2 recovers from u2 - x back to u2; company 1 races the
        # declining boundary max(0, gap - (c1 - c2) s)
        z = u2 - x
        s = 0.0
        while True:
            if it >= nt or ix >= nx:
                return D, t, _NEED_MORE, it, ix, cycle
            t_reach = (u2 - z) / c2
            w2 = ts[it]
            it += 1
            if t_reach < w2:
                tau = s + t_reach
                D += ((c1 - c2) * tau - K) * math.exp(-q * (t + tau))
                t += tau
                break
            s += w2
            z += c2 * w2
            z -= xs[ix]
            ix += 1
            floor = gap - (c1 - c2) * s
            if floor < 0.0:
                floor = 0.0
            if z < floor:
                return D, t + s, _DONE, it, ix, cycle + 1
    return D, t, _CENSORED, it, ix, max_cycles


@dataclass
class PathResult:
    D: float
    sigma: float
    censored: bool


def _run_barrier_path(
    u: Reserves,
    barrier: BarrierSpec,
    params: ModelParams,
    rng: np.random.Generator,
    max_time: float,
    trace: list | None = None,
) -> PathResult:
    """One path as a block of one, drawing further chunks from ``rng``
    until it ruins or is censored (each rerun replays the same prefix)."""
    _check_start(u)
    ts, xs = _draw_chunk(rng, params)
    while True:
        if trace is not None:
            trace.clear()
        D, sig, status = _barrier_kernel(u, barrier, params, max_time, ts[None], xs[None], trace)
        if status[0] != _NEED_MORE:
            return PathResult(D=float(D[0]), sigma=float(sig[0]), censored=bool(status[0] == _CENSORED))
        more_t, more_x = _draw_chunk(rng, params)
        ts = np.concatenate([ts, more_t])
        xs = np.concatenate([xs, more_x])


def simulate_refracted_path(
    u: Reserves,
    barrier: BarrierSpec,
    params: ModelParams,
    rng: np.random.Generator,
    max_time: float | None = None,
) -> PathResult:
    """One controlled path: discounted dividends and the ruin time.

    ``sigma`` is the censoring horizon when the path is censored.
    """
    if max_time is None:
        max_time = default_max_time(params, barrier.delta0)
    return _run_barrier_path(u, barrier, params, rng, max_time)


def trace_refracted_path(
    u: Reserves,
    barrier: BarrierSpec,
    params: ModelParams,
    seed: int,
    max_time: float | None = None,
) -> list[tuple[float, float, float, str]]:
    """Event log (t, y1, y2, event) of a single path, for debugging."""
    if max_time is None:
        max_time = default_max_time(params, barrier.delta0)
    rows: list = []
    _run_barrier_path(u, barrier, params, _path_rng(seed, 0), max_time, trace=rows)
    return [(t, y1, y2, TRACE_EVENTS[ev]) for t, y1, y2, ev in rows]


def simulate_impulse_path(
    spec: ImpulseSpec,
    params: ModelParams,
    rng: np.random.Generator,
    max_cycles: int = 1_000_000,
) -> PathResult:
    """One impulse-controlled path; censoring = max_cycles exhausted."""
    ts, xs = _draw_chunk(rng, params)
    while True:
        D, sig, status, used_t, used_x, _ = _impulse_kernel(
            spec.u1, spec.u2, spec.K, params.c1, params.c2, params.q, max_cycles, ts, xs
        )
        if status != _NEED_MORE:
            return PathResult(D=D, sigma=sig, censored=status == _CENSORED)
        more_t, more_x = _draw_chunk(rng, params)
        ts = np.concatenate([ts, more_t])
        xs = np.concatenate([xs, more_x])


def _accumulate(
    cfg: SimConfig,
    payout_rate: float,
    params: ModelParams,
    results: Iterable[tuple[float, float, bool]],
) -> DividendEstimate:
    """Streaming moments of per-path (D, sigma, censored) in path-index
    order (batching-invariant)."""
    orders = tuple(sorted(set(cfg.moment_orders)))
    sums = {n: 0.0 for n in orders}
    sq_sums = {n: 0.0 for n in orders}
    ruin_sum, ruin_count, censored = 0.0, 0, 0
    bias_sum = 0.0
    for D, sigma, is_censored in results:
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
    )


def _barrier_results(
    u: Reserves,
    barrier: BarrierSpec,
    params: ModelParams,
    cfg: SimConfig,
    max_time: float,
):
    """Per-path (D, sigma, censored) in path order, computed block by block.

    Paths that outlive their columns are rerun from the start of their
    stream with twice as many chunks until every path has finished.
    """
    # reused across blocks: first touch of fresh pages costs about as
    # much as the draws that fill them
    rows = min(_BLOCK, cfg.n_paths)
    buf_t, buf_x = np.empty((rows, _CHUNK)), np.empty((rows, _CHUNK))
    for start in range(0, cfg.n_paths, _BLOCK):
        paths = np.arange(start, min(start + _BLOCK, cfg.n_paths))
        D = np.empty(paths.size)
        sig = np.empty(paths.size)
        status = np.empty(paths.size, dtype=int)
        todo = np.arange(paths.size)
        width = _CHUNK
        while todo.size:
            if width == _CHUNK:
                ts, xs = buf_t[: todo.size], buf_x[: todo.size]
            else:
                ts, xs = np.empty((todo.size, width)), np.empty((todo.size, width))
            _fill_streams(cfg.master_seed, paths[todo], params, ts, xs)
            D[todo], sig[todo], status[todo] = _barrier_kernel(u, barrier, params, max_time, ts, xs)
            todo = todo[status[todo] == _NEED_MORE]
            width *= 2
        yield from zip(D.tolist(), sig.tolist(), (status == _CENSORED).tolist())


def estimate_barrier_moments(
    u: Reserves,
    barrier: BarrierSpec,
    params: ModelParams,
    cfg: SimConfig,
) -> DividendEstimate:
    """Moments of D for the refracted control.

    The reported truncation bound is the exact censoring-tail bound
    e^{-q max_time} * delta0 / q scaled by the censored fraction.
    """
    validate_model(params)
    validate_barrier(barrier, params)
    _check_start(u)
    max_time = cfg.max_time if cfg.max_time is not None else default_max_time(params, barrier.delta0)
    return _accumulate(
        cfg, barrier.delta0, params, _barrier_results(u, barrier, params, cfg, max_time)
    )


def estimate_impulse_moments(
    spec: ImpulseSpec,
    params: ModelParams,
    cfg: SimConfig,
) -> DividendEstimate:
    """Moments of D for the impulse control.

    The bias bound uses c1/q: every payout stream is dominated by paying
    the larger premium forever.
    """
    validate_model(params)
    results = (
        simulate_impulse_path(spec, params, rng)
        for rng in _path_rngs(cfg.master_seed, range(cfg.n_paths))
    )
    return _accumulate(cfg, params.c1, params, ((r.D, r.sigma, r.censored) for r in results))
