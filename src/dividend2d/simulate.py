"""Monte Carlo engine for both controls, exact in time between claims.

Between claims every trajectory is piecewise linear, so barrier hits,
axis crossings and payout intervals are solved in closed form; the only
randomness consumed is claim times and sizes.

Every draw comes from Philox4x32-10 (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11), computed in NumPy integer
arithmetic.  The key is the master seed and the counter is
``(column, 0, path lo, path hi)``: column ``j`` of a path's stream holds
its ``j``-th waiting time and ``j``-th claim size, each the inverse CDF
of a uniform on (0, 1) made from the top 53 bits of a 64-bit word pair:
words 0 (high) and 1 for the wait, words 2 (high) and 3 for the claim.
Any column range of any set of paths is computed directly, so a path's
draws do not depend on which block it runs in, and every estimate is a
pure function of the seed, independent of any batching or threading
arrangement.

Barrier paths run through one NumPy kernel that moves a block of paths in
lockstep, one inter-claim interval at a time.  The block starts on 8
columns; paths still running when their columns run out resume on the
next chunk, drawn for them alone and twice as wide (up to 64 columns).
A single path is a block of one, so estimates, single-path calls and
traces share every operation.  Impulse paths run one at a time in plain
Python on the columns drawn for their block.  Each block's results reach
the moment reduction as arrays, whose sums add one path at a time in path
order, so an estimate does not depend on how its paths are split into
blocks.
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

#: ruin causes: company 1's reserve went negative (company 2's may have
#: too), or company 2's alone
_RUIN_C1, _RUIN_C2 = 1, 2

#: a block's per-path D, sigma, censored mask and ruin cause (0 when
#: censored), in path order
_Results = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: trace event codes -> labels for the CSV surface
TRACE_EVENTS = {
    0: "start",
    1: "enter_payout",
    2: "reach_line_above",
    3: "claim",
    4: "ruin",
    5: "censored",
}

#: paths per block of the barrier estimator, and its chunk widths in
#: columns: the first chunk, and the cap of the doubling after it
_BLOCK = 8192
_FIRST_COLUMNS = 8
_MAX_COLUMNS = 64

#: paths per block of the impulse estimator, and its chunk width (an
#: impulse path at the benchmark point uses a median of about 50 columns)
_IMPULSE_BLOCK = 1024
_IMPULSE_COLUMNS = 64

#: counters per slice of a stream fill, so that its arrays stay in cache
_FILL_COUNTERS = 1 << 13

# Philox4x32-10 multipliers and Weyl key increments
_M0, _M1 = np.uint64(0xD2511F53), np.uint64(0xCD9E8D57)
_W0, _W1 = 0x9E3779B9, 0xBB67AE85
_LO32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)


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
    averages over paths that ruined before censoring, and
    ``n_ruin_company2`` counts the paths ruined by company 2's reserve
    alone going negative.
    """

    moments: dict[int, tuple[float, float]]
    ruin_time_mean: float
    truncation_bias_bound: float
    n_paths: int
    n_censored: int = 0
    n_ruin_company2: int = 0


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


# ---------------------------------------------------------------------------
# streams


def _philox(counter, key: tuple[int, int]):
    """Philox4x32-10 of the counter words ``(c0, c1, c2, c3)``.

    The words are uint64 arrays (or scalars) below 2**32 that broadcast
    together; the key is two ints below 2**32.  Returns the four output
    words as new uint64 arrays of the broadcast shape.
    """
    k0, k1 = key
    round_keys = []
    for _ in range(10):
        round_keys.append((np.uint64(k0), np.uint64(k1)))
        k0, k1 = (k0 + _W0) & 0xFFFFFFFF, (k1 + _W1) & 0xFFFFFFFF
    c0, c1, c2, c3 = counter
    # in the first two rounds some words still hold a column or a path
    # value alone, so they run on the unbroadcast shapes ...
    for k0, k1 in round_keys[:2]:
        p0, p1 = _M0 * c0, _M1 * c2
        c0, c1, c2, c3 = (p1 >> _SHIFT32) ^ c1 ^ k0, p1 & _LO32, (p0 >> _SHIFT32) ^ c3 ^ k1, p0 & _LO32
    # ... and the other eight run in place on full-size arrays
    shape = np.broadcast_shapes(*(np.shape(c) for c in (c0, c1, c2, c3)))
    c0, c1, c2, c3 = (np.array(np.broadcast_to(c, shape)) for c in (c0, c1, c2, c3))
    p0, p1 = np.empty(shape, np.uint64), np.empty(shape, np.uint64)
    for k0, k1 in round_keys[2:]:
        np.multiply(c0, _M0, out=p0)
        np.multiply(c2, _M1, out=p1)
        np.right_shift(p1, _SHIFT32, out=c0)
        c0 ^= c1
        c0 ^= k0
        np.bitwise_and(p1, _LO32, out=c1)
        np.right_shift(p0, _SHIFT32, out=c2)
        c2 ^= c3
        c2 ^= k1
        np.bitwise_and(p0, _LO32, out=c3)
    return c0, c1, c2, c3


def _unit(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """``(top 53 bits of hi*2**32 + lo, plus 1/2) * 2**-53``: a uniform on
    (0, 1).  Overwrites ``hi`` and ``lo``."""
    hi <<= np.uint64(21)
    lo >>= np.uint64(11)
    hi |= lo
    u = hi.astype(float)
    u += 0.5
    u *= 2.0**-53
    return u


def _fill_streams(
    master_seed: int,
    paths: np.ndarray,
    params: ModelParams,
    ts: np.ndarray,
    xs: np.ndarray,
    start: int = 0,
) -> None:
    """Fill row ``j`` of ``ts``/``xs`` with the waiting times and claim
    sizes in columns ``start, start + 1, ...`` of path ``paths[j]``'s
    stream.  ``lam = 0`` gives infinite waits."""
    seed = int(master_seed)
    key = (seed & 0xFFFFFFFF, seed >> 32)
    column = np.arange(start, start + ts.shape[1], dtype=np.uint64)[None, :]
    step = max(1, _FILL_COUNTERS // ts.shape[1])
    for lo in range(0, len(paths), step):
        path = np.asarray(paths[lo : lo + step], dtype=np.uint64)[:, None]
        w0, w1, w2, w3 = _philox((column, np.uint64(0), path & _LO32, path >> _SHIFT32), key)
        u_t, u_x = _unit(w0, w1), _unit(w2, w3)
        del w0, w1, w2, w3  # before the inverse CDFs add their temporaries
        with np.errstate(divide="ignore"):
            np.negative(u_t, out=u_t)
            np.log1p(u_t, out=u_t)
            np.negative(u_t, out=u_t)
            np.divide(u_t, params.lam, out=ts[lo : lo + step])
        xs[lo : lo + step] = params.claims.ppf(u_x)


@dataclass(frozen=True)
class PathStream:
    """The stream of path ``index`` under ``master_seed``."""

    master_seed: int
    index: int

    def __post_init__(self):
        if not (0 <= self.master_seed < 2**64 and 0 <= self.index < 2**64):
            raise ValueError(f"seed and path index must lie in [0, 2**64), got {self}")

    def columns(self, params: ModelParams, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Waiting times and claim sizes in columns ``[start, stop)``."""
        ts, xs = np.empty((1, stop - start)), np.empty((1, stop - start))
        _fill_streams(self.master_seed, np.array([self.index]), params, ts, xs, start)
        return ts[0], xs[0]


def _path_rng(master_seed: int, index: int) -> PathStream:
    return PathStream(master_seed, index)


# ---------------------------------------------------------------------------
# kernels


class _BarrierBlock:
    """A block of barrier paths started at one point: each path's result,
    and the reserves, time and payout of the paths still running."""

    def __init__(self, u: Reserves, n: int):
        self.D = np.zeros(n)
        self.sigma = np.zeros(n)
        self.status = np.full(n, _NEED_MORE)
        self.cause = np.zeros(n, dtype=np.int8)
        self.live = np.arange(n)  # positions of the running paths
        self.y1 = np.full(n, float(u.u1))
        self.y2 = np.full(n, float(u.u2))
        self.t = np.zeros(n)
        self.paid = np.zeros(n)
        self.columns = 0  # columns consumed by the running paths

    def results(self) -> _Results:
        return self.D, self.sigma, self.status == _CENSORED, self.cause


def _barrier_kernel(
    u: Reserves,
    barrier: BarrierSpec,
    params: ModelParams,
    max_time: float,
    ts: np.ndarray,
    xs: np.ndarray,
    block: _BarrierBlock | None = None,
    trace: list | None = None,
) -> _BarrierBlock:
    """Event loop for a block of refracted paths, all started at ``u``.

    Without ``block``, a new block of ``len(ts)`` paths starts at ``u``
    and row ``j`` of ``ts``/``xs`` holds path ``j``'s first waiting times
    and claim sizes.  With ``block``, row ``j`` holds the next columns of
    its ``j``-th running path, which resumes where it stopped.  Returns
    the block: paths that ruin or are censored get their D, sigma, status
    and ruin cause; the others stay running (``_NEED_MORE``).

    Paths move in lockstep, one inter-claim interval at a time.  Within an
    interval each path takes flow segments, each advanced to the earliest
    of: claim, barrier hit, axis crossing, or the horizon.  A claim
    landing exactly on a crossing time is processed first (the region is
    re-evaluated after the jump).  Every operation is elementwise, so a
    path's result does not depend on which block it runs in, nor on how
    its columns are split into chunks.

    When the payout drift points back below the line while the premium
    drift points above it, the line attracts from both sides and the
    trajectory slides along it (the chattering limit): payout accrues at
    the fraction of time spent in the payout set that keeps the motion on
    the line.  Reflection is the boundary case of this with fraction 1.

    ``trace`` (a list, blocks of one path only) receives the event rows
    (t, y1, y2, code) of that path.
    """
    n_cols = ts.shape[1]
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

    if block is None:
        if trace is not None and ts.shape[0] != 1:
            raise ValueError("tracing needs a block of one path")
        block = _BarrierBlock(u, ts.shape[0])
        note(True, 0, block.t, block.y1, block.y2)
    # state of the running paths and their rows in ts/xs, compacted after
    # every interval
    live, y1, y2, t, D = block.live, block.y1, block.y2, block.t, block.paid
    rows = np.arange(live.size)

    def finish(pos, code, fin, cause=0):
        idx = live[pos[fin]]
        block.D[idx] = D[pos[fin]]
        block.sigma[idx] = t[pos[fin]]
        block.status[idx] = code
        block.cause[idx] = cause if np.isscalar(cause) else cause[fin]

    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(n_cols):
            if live.size == 0:
                break
            rem = ts[rows, k]
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
                for cause, w, y in ((_RUIN_C1, w1, Y1), (_RUIN_C2, w2, Y2)):
                    tt = y / -w
                    earlier = (w < 0.0) & (tt < dt)
                    dt = np.where(earlier, tt, dt)
                    kind[earlier] = -cause  # this company's axis crossing
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
                ruined = above & (kind < 0)
                censored = np.where(below, T >= max_time, kind == 3)
                note(ruined, 4, T, Y1, Y2)
                note(censored, 5, T, Y1, Y2)
                finish(pos, _DONE, ruined, -kind)
                finish(pos, _CENSORED, censored)
                stop = ruined | censored
                done[pos[stop]] = True
                pos = pos[~stop & (R > 0.0)]
            keep = np.flatnonzero(~done)
            live, rows, y1, y2, t, D = live[keep], rows[keep], y1[keep], y2[keep], t[keep], D[keep]
            if live.size == 0:
                break
            x = xs[rows, k]
            y1 -= x
            y2 -= x
            note(True, 3, t, y1, y2)
            ruined = (y1 < 0.0) | (y2 < 0.0)
            note(ruined, 4, t, y1, y2)
            finish(np.arange(live.size), _DONE, ruined, np.where(y1 < 0.0, _RUIN_C1, _RUIN_C2))
            keep = np.flatnonzero(~ruined)
            live, rows, y1, y2, t, D = live[keep], rows[keep], y1[keep], y2[keep], t[keep], D[keep]
    block.live, block.y1, block.y2, block.t, block.paid = live, y1, y2, t, D
    block.columns += n_cols
    return block


def _barrier_block(
    u: Reserves,
    barrier: BarrierSpec,
    params: ModelParams,
    max_time: float,
    master_seed: int,
    paths: np.ndarray,
    trace: list | None = None,
) -> _BarrierBlock:
    """Run ``paths`` from ``u`` until each ruins or is censored, drawing
    every further chunk of columns for the running paths only."""
    block, width = None, _FIRST_COLUMNS
    while block is None or block.live.size:
        rows = paths if block is None else paths[block.live]
        ts, xs = np.empty((rows.size, width)), np.empty((rows.size, width))
        _fill_streams(master_seed, rows, params, ts, xs, 0 if block is None else block.columns)
        block = _barrier_kernel(u, barrier, params, max_time, ts, xs, block, trace)
        width = min(2 * width, _MAX_COLUMNS)
    return block


def _impulse_kernel(u1, u2, K, c1, c2, q, max_cycles, ts, xs, D=0.0, t=0.0, cycle=0, race=None):
    """Renewal loop for one impulse path, resumed at cycle ``cycle``, time
    ``t`` and payout ``D`` so far, and inside that cycle's recovery race
    when ``race`` holds its ``(z, s)``.

    ``ts`` supplies every exponential waiting time (cycle waits and the
    inter-claim gaps of the recovery race alike, in consumption order);
    ``xs`` supplies claim sizes.  Returns (D, sigma, status, used_t,
    used_x, cycles, cause, race).  When the draws run out the status is
    ``_NEED_MORE``, and the path resumes from the returned D, sigma (as
    ``t``), cycles and race on ``ts[used_t:]`` and ``xs[used_x:]``
    followed by further draws.  The loop runs on Python floats, with
    ``ts`` and ``xs`` lists or memoryviews: indexing either is cheaper
    than indexing an array, and the arithmetic is the same.
    """
    mn = u1 if u1 < u2 else u2
    gap = u2 - u1
    it, ix = 0, 0
    nt, nx = len(ts), len(xs)
    for cycle in range(cycle, max_cycles):
        if race is None:
            if it >= nt or ix >= nx:
                return D, t, _NEED_MORE, it, ix, cycle, 0, None
            w = ts[it]
            it += 1
            D += c1 * (math.exp(-q * t) - math.exp(-q * (t + w))) / q
            t += w
            x = xs[ix]
            ix += 1
            if x > mn:
                cause = _RUIN_C1 if x > u1 else _RUIN_C2
                return D, t, _DONE, it, ix, cycle + 1, cause, None
            # company 2 recovers from z = u2 - x back to u2; company 1,
            # at z - (gap - (c1 - c2) s), races the declining boundary
            # max(0, gap - (c1 - c2) s)
            z, s = u2 - x, 0.0
        else:
            (z, s), race = race, None
        while True:
            if it >= nt or ix >= nx:
                return D, t, _NEED_MORE, it, ix, cycle, 0, (z, s)
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
            edge = gap - (c1 - c2) * s
            if z < (edge if edge > 0.0 else 0.0):
                cause = _RUIN_C1 if z < edge else _RUIN_C2
                return D, t + s, _DONE, it, ix, cycle + 1, cause, None
    return D, t, _CENSORED, it, ix, max_cycles, 0, None


def _impulse_paths(
    spec: ImpulseSpec, params: ModelParams, master_seed: int, paths: np.ndarray, max_cycles: int
) -> _Results:
    """Per-path (D, sigma, censored, cause) arrays of impulse paths.

    Paths draw chunks of ``_IMPULSE_COLUMNS`` columns, as many rows at a
    time as one ``_fill_streams`` slice holds; paths that run out resume
    where they stopped on their next chunk, drawn for them alone.
    """
    args = (spec.u1, spec.u2, spec.K, params.c1, params.c2, params.q, max_cycles)
    D_out, sig_out = np.empty(paths.size), np.empty(paths.size)
    status_out, cause_out = np.empty(paths.size, dtype=int), np.empty(paths.size, dtype=int)
    # pending paths, each with (unused waits, unused claims, D, t, cycle, race)
    rows = list(range(paths.size))
    carry = [(np.empty(0), np.empty(0), 0.0, 0.0, 0, None)] * paths.size
    start, step = 0, _FILL_COUNTERS // _IMPULSE_COLUMNS  # rows drawn at once
    while rows:
        next_rows, next_carry = [], []
        for lo in range(0, len(rows), step):
            part = rows[lo : lo + step]
            ts, xs = np.empty((len(part), _IMPULSE_COLUMNS)), np.empty((len(part), _IMPULSE_COLUMNS))
            _fill_streams(master_seed, paths[part], params, ts, xs, start)
            for k, (j, (old_t, old_x, *state)) in enumerate(zip(part, carry[lo : lo + step])):
                wait = np.concatenate((old_t, ts[k])) if old_t.size else ts[k]
                claim = np.concatenate((old_x, xs[k])) if old_x.size else xs[k]
                D, sigma, status, it, ix, cycle, cause, race = _impulse_kernel(
                    *args, memoryview(wait), memoryview(claim), *state
                )
                if status == _NEED_MORE:
                    next_rows.append(j)
                    next_carry.append((wait[it:].copy(), claim[ix:].copy(), D, sigma, cycle, race))
                else:
                    D_out[j], sig_out[j], status_out[j], cause_out[j] = D, sigma, status, cause
        rows, carry = next_rows, next_carry
        start += _IMPULSE_COLUMNS
    return D_out, sig_out, status_out == _CENSORED, cause_out


@dataclass
class PathResult:
    D: float
    sigma: float
    censored: bool
    ruin_cause: int = 0  # _RUIN_C1, _RUIN_C2, or 0 when censored


def _first_path(results: _Results) -> PathResult:
    D, sigma, censored, cause = results
    return PathResult(float(D[0]), float(sigma[0]), bool(censored[0]), int(cause[0]))


def _run_barrier_path(
    u: Reserves,
    barrier: BarrierSpec,
    params: ModelParams,
    rng: PathStream,
    max_time: float,
    trace: list | None = None,
) -> PathResult:
    """One path as a block of one."""
    _check_start(u)
    block = _barrier_block(
        u, barrier, params, max_time, rng.master_seed, np.array([rng.index]), trace
    )
    return _first_path(block.results())


def simulate_refracted_path(
    u: Reserves,
    barrier: BarrierSpec,
    params: ModelParams,
    rng: PathStream,
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
    rng: PathStream,
    max_cycles: int = 1_000_000,
) -> PathResult:
    """One impulse-controlled path; censoring = max_cycles exhausted."""
    return _first_path(
        _impulse_paths(spec, params, rng.master_seed, np.array([rng.index]), max_cycles)
    )


def _add_in_order(total: float, terms: np.ndarray) -> float:
    """``total + terms[0] + terms[1] + ...``, added one term at a time as a
    Python loop would (``np.sum`` adds pairwise)."""
    return float(np.cumsum(np.concatenate(([total], terms)))[-1])


def _accumulate(
    cfg: SimConfig,
    payout_rate: float,
    params: ModelParams,
    results: Iterable[_Results],
) -> DividendEstimate:
    """Streaming moments of each block's per-path arrays, blocks in
    path-index order.  Every sum adds its terms in path order, so the
    estimate does not depend on how the paths are split into blocks."""
    orders = tuple(sorted(set(cfg.moment_orders)))
    sums = {n: 0.0 for n in orders}
    sq_sums = {n: 0.0 for n in orders}
    ruin_sum, ruin_count, censored, company2 = 0.0, 0, 0, 0
    bias_sum = 0.0
    for D, sigma, is_censored, cause in results:
        for n in orders:
            dn = np.power(D, n)
            sums[n] = _add_in_order(sums[n], dn)
            sq_sums[n] = _add_in_order(sq_sums[n], dn * dn)
        n_censored = int(np.count_nonzero(is_censored))
        censored += n_censored
        ruin_count += is_censored.size - n_censored
        company2 += int(np.count_nonzero(cause == _RUIN_C2))
        ruin_sum = _add_in_order(ruin_sum, sigma[~is_censored])
        tail = np.exp(-params.q * sigma[is_censored]) * payout_rate / params.q
        bias_sum = _add_in_order(bias_sum, tail)
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


def _barrier_results(
    u: Reserves,
    barrier: BarrierSpec,
    params: ModelParams,
    cfg: SimConfig,
    max_time: float,
) -> Iterator[_Results]:
    """Per-path result arrays of each block, blocks in path order."""
    for start in range(0, cfg.n_paths, _BLOCK):
        paths = np.arange(start, min(start + _BLOCK, cfg.n_paths))
        yield _barrier_block(u, barrier, params, max_time, cfg.master_seed, paths).results()


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
    the larger premium forever.  Paths are censored after a million
    cycles, not at a time horizon, so ``cfg.max_time`` must be None.
    """
    validate_model(params)
    if cfg.max_time is not None:
        raise ValueError(
            f"impulse paths are censored by cycle count; max_time must be None, got {cfg.max_time}"
        )
    blocks = (
        _impulse_paths(
            spec, params, cfg.master_seed,
            np.arange(start, min(start + _IMPULSE_BLOCK, cfg.n_paths)), 1_000_000,
        )
        for start in range(0, cfg.n_paths, _IMPULSE_BLOCK)
    )
    return _accumulate(cfg, params.c1, params, blocks)
