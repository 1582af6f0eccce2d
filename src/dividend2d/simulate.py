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
draws do not depend on which block or process it runs in, and every
estimate is a pure function of the seed.

Barrier paths run through one NumPy kernel that moves a block of paths in
lockstep, one inter-claim interval at a time.  The block starts on 8
columns; paths still running when their columns run out resume on the
next chunk, drawn for them alone and twice as wide (up to 64 columns).
A single path is a block of one, so estimates, single-path calls and
traces share every operation.  Both kernels drop finished paths from
their arrays in batches, padded to a multiple of ``_LANES`` rows.

Impulse paths also run in blocks, drawn the same way.  In lockstep each
path consumes one waiting time per step, to start a cycle or for one step
of its recovery race, and reads its claim at its own cursor, which lags
one further behind per completed cycle.  When fewer than ``_HANDOFF``
paths still run, they resume in a scalar loop on Python floats with their
state and unread draws; smaller blocks, single paths included, run there
from the start.  Both loops take every exponential from ``np.exp`` (the
scalar loop on Python floats) and otherwise apply ``+ - * /`` and
comparisons in the same order, so a path's bits do not depend on which
loop ran which of its cycles.

Each block's results reach the moment reduction as arrays, whose sums add
one path at a time in path order, so an estimate does not depend on how
its paths are split into blocks, nor on where each block runs.  An
estimate runs on every core the process may use: the calling process
takes every ``n``-th block and ``n - 1`` forked worker processes the
others, in one pool made on first use and kept for the life of the
process (the kernels hold the interpreter lock, so threads would not
help).  An estimate is split into the fewest blocks of at most
``_BLOCK`` barrier or ``_IMPULSE_BLOCK`` impulse paths, all of one size
but the last, which may be shorter.  One that would fill fewer blocks
than cores is cut instead into one block per core, of at least
``_MIN_PART`` paths each; cut blocks cost more CPU per path, so only an
estimate that runs on the pool is cut.  These run in the calling process
alone: estimates of one block below ``2 * _MIN_PART`` paths, single
paths, traces, estimates with claims other than ``ExponentialClaims`` (a
worker would run the user's inverse CDF as it was when the pool forked),
and every estimate on one core or on a platform without
``os.sched_getaffinity`` or ``os.fork``.  Workers ignore SIGINT, so
Ctrl-C stops the caller and leaves the pool usable.
"""

from __future__ import annotations

import math
import operator
import os
from contextlib import closing
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Iterator

import numpy as np

from .model import (
    ON_LINE_TOL,
    BarrierSpec,
    ExponentialClaims,
    ModelParams,
    ParameterError,
    Reserves,
    validate_barrier,
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

#: paths per block of the impulse estimator; the running paths below which
#: a block leaves lockstep for the scalar loop (an impulse path at the
#: benchmark point uses a median of about 50 columns, but the longest of a
#: block several hundred); the widest lockstep chunk, since a wider one
#: draws more columns that the paths ending inside it never read, and
#: holds more of them at once; and the multiple lockstep rows are padded to
_IMPULSE_BLOCK = 2048
_HANDOFF = 256
_LOCKSTEP_COLUMNS = 32
_LANES = 64

#: counters per slice of a stream fill, so that its arrays stay in cache
_FILL_COUNTERS = 1 << 13

#: blocks an estimate submits to its workers ahead of the block it is
#: reducing, per core: enough to keep every worker busy, few enough that
#: a long estimate does not pile up result arrays
_AHEAD = 2

#: fewest paths of a part when an estimate of fewer blocks than cores is
#: cut into one part per core.  Two parts this size on two processes still
#: beat their paths in one block, while an estimate of fewer paths than two
#: parts (6-13 ms for 1024 barrier paths) costs less than starting the pool
#: and its first round trip (25-32 ms), so it stays in process
_MIN_PART = 1024

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
        # integers (NumPy's too) are stored as ints; a float would truncate
        # to another seed or path count, or give NaN moments
        n_paths, seed = _integer(self.n_paths, "n_paths"), _integer(self.master_seed, "master_seed")
        orders = tuple(_integer(n, "each moment order") for n in self.moment_orders)
        if n_paths < 1:
            raise ValueError(f"n_paths >= 1 required, got {n_paths}")
        if self.max_time is not None and not self.max_time > 0.0:
            raise ValueError(f"max_time > 0 required, got {self.max_time}")
        if not 0 <= seed < 2**64:
            raise ValueError(f"master_seed must lie in [0, 2**64), got {seed}")
        if not orders or any(n < 1 for n in orders):
            raise ValueError(f"moment orders must be positive integers, got {self.moment_orders}")
        object.__setattr__(self, "n_paths", n_paths)
        object.__setattr__(self, "master_seed", seed)
        object.__setattr__(self, "moment_orders", orders)


def _integer(value, name: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


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


def _barrier_horizon(
    u: Reserves, barrier: BarrierSpec, params: ModelParams, max_time: float | None
) -> float:
    """Check a barrier run from ``u`` and return its horizon: ``max_time``,
    or ``default_max_time`` at the payout rate when that is None."""
    validate_barrier(barrier, params)
    # the kernel tests ruin only after a claim, so a start outside the
    # quadrant would drift back in instead of counting as ruined
    if not (0.0 <= u.u1 < math.inf and 0.0 <= u.u2 < math.inf):
        raise ParameterError([f"start needs finite u1, u2 >= 0, got ({u.u1}, {u.u2})"])
    return default_max_time(params, barrier.delta0) if max_time is None else max_time


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
    stream."""
    seed = int(master_seed)
    key = (seed & 0xFFFFFFFF, seed >> 32)
    column = np.arange(start, start + ts.shape[1], dtype=np.uint64)[None, :]
    step = max(1, _FILL_COUNTERS // ts.shape[1])
    for lo in range(0, len(paths), step):
        path = np.asarray(paths[lo : lo + step], dtype=np.uint64)[:, None]
        w0, w1, w2, w3 = _philox((column, np.uint64(0), path & _LO32, path >> _SHIFT32), key)
        u_t, u_x = _unit(w0, w1), _unit(w2, w3)
        del w0, w1, w2, w3  # before the inverse CDFs add their temporaries
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


class _Block:
    """A block of paths: each path's result, and the time and payout of the
    paths still running."""

    def __init__(self, n: int):
        self.D = np.zeros(n)
        self.sigma = np.zeros(n)
        self.status = np.full(n, _NEED_MORE)
        self.cause = np.zeros(n, dtype=np.int8)
        self.live = np.arange(n)  # positions of the running paths
        self.t = np.zeros(n)
        self.paid = np.zeros(n)
        self.columns = 0  # columns consumed by the running paths

    def results(self) -> _Results:
        return self.D, self.sigma, self.status == _CENSORED, self.cause


def _rows_to_keep(alive: np.ndarray, finished: int, end: bool) -> np.ndarray | None:
    """Rows to keep of a kernel's state arrays, whose running rows
    ``alive`` marks, after ``finished`` paths finished since the last
    compaction; None to keep them all for now.

    Finished paths are compacted away in batches of ``_LANES``, and the
    rows kept are padded to a multiple of ``_LANES`` with copies of a running
    row (not alive), so that NumPy, which caches freed buffers under
    1 KiB by size, sees few distinct sizes.  At the ``end`` of a chunk the
    rows kept are exactly the running ones.
    """
    if not (end or finished >= _LANES or alive.size % _LANES):
        return None
    keep = np.flatnonzero(alive)
    return keep if end else _padded(keep)


def _padded(rows: np.ndarray) -> np.ndarray:
    """``rows`` followed by copies of its first entry, to a multiple of
    ``_LANES`` entries."""
    pad = -rows.size % _LANES
    return np.concatenate((rows, np.full(pad, rows[0]))) if pad else rows


class _BarrierBlock(_Block):
    """A block of barrier paths started at one point, with the reserves of
    the paths still running."""

    def __init__(self, u: Reserves, n: int):
        super().__init__(n)
        self.y1 = np.full(n, float(u.u1))
        self.y2 = np.full(n, float(u.u2))


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
    # state of the running paths and their rows in ts/xs; a row that is not
    # alive has finished or pads the arrays until the next compaction
    live, y1, y2, t, D = block.live, block.y1, block.y2, block.t, block.paid
    rows = np.arange(live.size)
    alive = np.ones(live.size, dtype=bool)
    running = live.size  # running paths at the last compaction

    def finish(pos, code, fin, cause=0):
        sel = pos[fin]
        idx = live[sel]
        block.D[idx] = D[sel]
        block.sigma[idx] = t[sel]
        block.status[idx] = code
        block.cause[idx] = cause if np.isscalar(cause) else cause[fin]
        alive[sel] = False

    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(n_cols):
            rem = ts[rows, k]
            pos = np.flatnonzero(alive & (rem > 0.0))
            while pos.size:
                # the rows still in the interval, padded to a multiple of
                # _LANES with copies, which compute and write the same values
                n = pos.size
                pos = _padded(pos)
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
                pos = pos[:n][(~(ruined | censored) & (R > 0.0))[:n]]
            if not alive.any():
                break
            x = xs[rows, k]
            y1 -= x
            y2 -= x
            note(True, 3, t, y1, y2)
            ruined = alive & ((y1 < 0.0) | (y2 < 0.0))
            note(ruined, 4, t, y1, y2)
            finish(np.arange(live.size), _DONE, ruined, np.where(y1 < 0.0, _RUIN_C1, _RUIN_C2))
            still = int(np.count_nonzero(alive))
            keep = _rows_to_keep(alive, running - still, False)
            if keep is not None:
                live, rows, y1, y2, t, D = (a[keep] for a in (live, rows, y1, y2, t, D))
                alive, running = np.arange(keep.size) < still, still
    keep = np.flatnonzero(alive)
    block.live, block.y1, block.y2, block.t, block.paid = (a[keep] for a in (live, y1, y2, t, D))
    block.columns += n_cols
    return block


def _barrier_paths(
    u: Reserves,
    barrier: BarrierSpec,
    params: ModelParams,
    max_time: float,
    master_seed: int,
    paths: np.ndarray,
    trace: list | None = None,
) -> _Results:
    """Per-path (D, sigma, censored, cause) arrays of barrier paths, run
    from ``u`` as one block until each ruins or is censored, drawing every
    further chunk of columns for the running paths only."""
    block, width = None, _FIRST_COLUMNS
    while block is None or block.live.size:
        rows = paths if block is None else paths[block.live]
        ts, xs = np.empty((rows.size, width)), np.empty((rows.size, width))
        _fill_streams(master_seed, rows, params, ts, xs, 0 if block is None else block.columns)
        block = _barrier_kernel(u, barrier, params, max_time, ts, xs, block, trace)
        width = min(2 * width, _MAX_COLUMNS)
    return block.results()


def _impulse_loop(u1, u2, K, c1, c2, q, max_cycles, ts, xs, D=0.0, t=0.0, cycle=0, race=None):
    """Renewal loop for one impulse path, resumed at cycle ``cycle``, time
    ``t`` and payout ``D`` so far, and inside that cycle's recovery race
    when ``race`` holds its ``(z, s)``.

    ``ts`` supplies every exponential waiting time (cycle waits and the
    inter-claim gaps of the recovery race alike, in consumption order);
    ``xs`` supplies claim sizes, at least as many.  Returns (D, sigma,
    status, cycles, cause, race).  When the waiting times run out the
    status is ``_NEED_MORE``: the path has read every one of them and one
    claim fewer per cycle completed, and it resumes from the returned D,
    sigma (as ``t``), cycles and race on further draws, its unread claims
    first.  The loop runs on Python floats, with ``ts`` and ``xs`` lists
    or memoryviews: indexing either is cheaper than indexing an array.
    Discount factors come from ``np.exp``, as in the lockstep loop of
    ``_impulse_kernel``, and every other operation is the same as there,
    so the two loops give the same bits.
    """
    mn = u1 if u1 < u2 else u2
    gap = u2 - u1
    it, ix, nt = 0, 0, len(ts)
    e = np.exp(-q * t)  # the discount factor at t
    for cycle in range(cycle, max_cycles):
        if race is None:
            if it >= nt:
                return D, t, _NEED_MORE, cycle, 0, None
            t += ts[it]
            it += 1
            e_new = np.exp(-q * t)
            D += c1 * (e - e_new) / q
            e = e_new
            x = xs[ix]
            ix += 1
            if x > mn:
                cause = _RUIN_C1 if x > u1 else _RUIN_C2
                return D, t, _DONE, cycle + 1, cause, None
            # company 2 recovers from z = u2 - x back to u2; company 1,
            # at z - (gap - (c1 - c2) s), races the declining boundary
            # max(0, gap - (c1 - c2) s)
            z, s = u2 - x, 0.0
        else:
            (z, s), race = race, None
        while True:
            if it >= nt:
                return D, t, _NEED_MORE, cycle, 0, (z, s)
            t_reach = (u2 - z) / c2
            w2 = ts[it]
            it += 1
            if t_reach < w2:
                tau = s + t_reach
                t += tau
                e = np.exp(-q * t)
                D += ((c1 - c2) * tau - K) * e
                break
            s += w2
            z += c2 * w2
            z -= xs[ix]
            ix += 1
            edge = gap - (c1 - c2) * s
            if z < (edge if edge > 0.0 else 0.0):
                cause = _RUIN_C1 if z < edge else _RUIN_C2
                return D, t + s, _DONE, cycle + 1, cause, None
    return D, t, _CENSORED, max_cycles, 0, None


class _ImpulseBlock(_Block):
    """A block of impulse paths, with the cycle state and unread claims of
    the paths still running.

    Every running path has consumed ``columns`` waiting times and one claim
    fewer per completed cycle, so row ``j`` of ``claims`` ends with the
    ``cycle[j]`` claims its path has drawn but not read (left of those,
    the row holds claims it has read).
    """

    def __init__(self, n: int):
        super().__init__(n)
        self.cycle = np.zeros(n, dtype=np.int64)  # completed cycles
        self.z = np.zeros(n)  # company 2's reserve in the recovery race
        self.s = np.zeros(n)  # time since the race began
        self.racing = np.zeros(n, dtype=bool)
        self.claims = np.empty((n, 0))


def _impulse_kernel(
    spec: ImpulseSpec,
    params: ModelParams,
    max_cycles: int,
    ts: np.ndarray,
    xs: np.ndarray,
    block: _ImpulseBlock,
) -> _ImpulseBlock:
    """Event loop for a block of impulse paths over one chunk of columns.

    Row ``j`` of ``ts`` holds the next waiting times of the block's
    ``j``-th running path; row ``j`` of ``xs`` holds ``block.claims[j]``
    followed by the claim sizes of the same columns.  Returns the block:
    paths that ruin or complete ``max_cycles`` cycles get their D, sigma,
    status and ruin cause; the others stay running.

    In lockstep each path consumes one waiting time per step, to start a
    cycle or for one step of its recovery race, and reads its claim at its
    own claim cursor; finished paths are compacted away in batches.  Once
    fewer than ``_HANDOFF`` paths run, each resumes in the scalar loop
    ``_impulse_loop`` with its state and unread draws; a block smaller
    than that runs there from the start.  Both loops take every
    exponential from ``np.exp`` and otherwise apply ``+ - * /`` and
    comparisons in the same order, so a path's result does not depend on
    which loop ran which of its cycles.
    """
    u1, u2, K = spec.u1, spec.u2, spec.K
    c1, c2, q = params.c1, params.c2, params.q
    lag = xs.shape[1] - ts.shape[1]  # xs[:, lag + k] was drawn with ts[:, k]
    live, D, t, cycle = block.live, block.paid, block.t, block.cycle
    z, s, racing = block.z, block.s, block.racing
    rows = np.arange(live.size)
    k = 0
    if live.size >= _HANDOFF:
        mn, gap, dc = min(u1, u2), u2 - u1, c1 - c2
        alive = np.ones(live.size, dtype=bool)
        running, finished = live.size, 0  # finished: since the last compaction
        e = np.exp(-q * t)
        # a path completes at most one cycle per column
        capped = block.columns + ts.shape[1] >= max_cycles
        while True:
            end = k == ts.shape[1] or running < max(_HANDOFF, 1)
            keep = _rows_to_keep(alive, finished, end)
            if keep is not None:
                live, rows, D, t, e, cycle, z, s, racing = (
                    a[keep] for a in (live, rows, D, t, e, cycle, z, s, racing)
                )
                alive, finished = np.arange(keep.size) < running, 0
            if end:
                break
            w = ts[:, k][rows]
            x = xs[rows, lag + k - cycle]
            t_reach = (u2 - z) / c2
            reach = racing & (t_reach < w)
            tau = s + t_reach
            t = t + np.where(racing, np.where(reach, tau, 0.0), w)
            e_new = np.exp(-q * t)
            D = D + np.where(racing, np.where(reach, (dc * tau - K) * e_new, 0.0), c1 * (e - e_new) / q)
            z = np.where(racing, z + c2 * w, u2) - x
            s = np.where(racing, s + w, 0.0)
            edge = gap - dc * s
            ruined = np.where(racing, ~reach & (z < np.maximum(edge, 0.0)), x > mn)
            cycle = cycle + reach
            done = (ruined | (reach & (cycle == max_cycles)) if capped else ruined) & alive
            if done.any():
                fin = np.flatnonzero(done)
                idx, ruin = live[fin], ruined[fin]
                first = np.where(racing[fin], z[fin] < edge[fin], x[fin] > u1)
                block.D[idx] = D[fin]
                block.sigma[idx] = np.where(ruin, t[fin] + s[fin], t[fin])
                block.status[idx] = np.where(ruin, _DONE, _CENSORED)
                block.cause[idx] = np.where(ruin, np.where(first, _RUIN_C1, _RUIN_C2), 0)
                alive[fin] = False
                running -= fin.size
                finished += fin.size
            e, racing = e_new, ~reach
            k += 1
    if live.size < _HANDOFF:
        # the stragglers, from column k on, in the scalar loop
        args = (u1, u2, K, c1, c2, q, max_cycles)
        state = zip(rows.tolist(), (lag + k - cycle).tolist(), D.tolist(), t.tolist(),
                    cycle.tolist(), z.tolist(), s.tolist(), racing.tolist())
        for j, (r, x0, D_j, t_j, cycle_j, z_j, s_j, racing_j) in enumerate(state):
            D_j, t_j, status, cycle_j, cause, race = _impulse_loop(
                *args, memoryview(ts[r, k:]), memoryview(xs[r, x0:]),
                D_j, t_j, cycle_j, (z_j, s_j) if racing_j else None,
            )
            if status == _NEED_MORE:
                D[j], t[j], cycle[j], racing[j] = D_j, t_j, cycle_j, race is not None
                if race is not None:
                    z[j], s[j] = race
            else:
                p = live[j]
                block.D[p], block.sigma[p], block.status[p], block.cause[p] = D_j, t_j, status, cause
        keep = np.flatnonzero(block.status[live] == _NEED_MORE)
        live, rows, D, t, cycle, z, s, racing = (a[keep] for a in (live, rows, D, t, cycle, z, s, racing))
    block.live, block.paid, block.t, block.cycle, block.z, block.s, block.racing = (
        live, D, t, cycle, z, s, racing
    )
    block.claims = xs[rows, xs.shape[1] - cycle.max(initial=0) :]
    block.columns += ts.shape[1]
    return block


def _impulse_paths(
    spec: ImpulseSpec, params: ModelParams, master_seed: int, paths: np.ndarray, max_cycles: int
) -> _Results:
    """Per-path (D, sigma, censored, cause) arrays of impulse paths, run as
    one block until each ruins or completes ``max_cycles`` cycles.

    A block starts on ``_FIRST_COLUMNS`` columns, and its running paths
    resume on chunks drawn for them alone, twice as wide each time up to
    ``_LOCKSTEP_COLUMNS`` while they run in lockstep and ``_MAX_COLUMNS``
    once they run in the scalar loop.  A block that runs in the scalar loop
    from the start uses chunks of ``_MAX_COLUMNS`` throughout.
    """
    if max_cycles < 1:
        raise ValueError(f"max_cycles >= 1 required, got {max_cycles}")
    block = _ImpulseBlock(paths.size)
    width = _FIRST_COLUMNS if paths.size >= _HANDOFF else _MAX_COLUMNS
    while block.live.size:
        lag = block.claims.shape[1]
        ts, xs = np.empty((block.live.size, width)), np.empty((block.live.size, lag + width))
        xs[:, :lag] = block.claims
        _fill_streams(master_seed, paths[block.live], params, ts, xs[:, lag:], block.columns)
        block = _impulse_kernel(spec, params, max_cycles, ts, xs, block)
        width = min(2 * width, _MAX_COLUMNS if block.live.size < _HANDOFF else _LOCKSTEP_COLUMNS)
    return block.results()


@dataclass
class PathResult:
    D: float
    sigma: float
    censored: bool
    ruin_cause: int = 0  # _RUIN_C1, _RUIN_C2, or 0 when censored


def _first_path(results: _Results) -> PathResult:
    D, sigma, censored, cause = results
    return PathResult(float(D[0]), float(sigma[0]), bool(censored[0]), int(cause[0]))


def simulate_refracted_path(
    u: Reserves,
    barrier: BarrierSpec,
    params: ModelParams,
    rng: PathStream,
    max_time: float | None = None,
) -> PathResult:
    """One controlled path, run as a block of one: discounted dividends and
    the ruin time.

    ``sigma`` is the censoring horizon when the path is censored.
    """
    max_time = _barrier_horizon(u, barrier, params, max_time)
    return _first_path(
        _barrier_paths(u, barrier, params, max_time, rng.master_seed, np.array([rng.index]))
    )


def trace_refracted_path(
    u: Reserves,
    barrier: BarrierSpec,
    params: ModelParams,
    seed: int,
    max_time: float | None = None,
) -> list[tuple[float, float, float, str]]:
    """Event log (t, y1, y2, event) of a single path, for debugging."""
    max_time = _barrier_horizon(u, barrier, params, max_time)
    rng, rows = _path_rng(seed, 0), []
    _barrier_paths(u, barrier, params, max_time, rng.master_seed, np.array([rng.index]), rows)
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


_pool = None  # the forked worker pool, made on first use
_pool_pid = 0  # the process that made it


def _drop_pool() -> None:
    global _pool
    _pool = None


def _worker_pool(workers: int):
    """This process's pool of forked workers, made with ``workers`` of them
    on first use.  A pool inherited from the parent of a fork is never
    used: its workers and threads belong to the parent."""
    global _pool, _pool_pid
    if _pool is None or _pool_pid != os.getpid():
        import atexit
        import multiprocessing
        import signal
        from concurrent.futures import ProcessPoolExecutor

        # workers are forked, so they hold the module state of this
        # process as it is when the pool starts them.  Ctrl-C reaches the
        # whole process group; the caller handles it, the workers ignore it
        _pool = ProcessPoolExecutor(
            workers, multiprocessing.get_context("fork"),
            initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN),
        )
        _pool_pid = os.getpid()
        # the interpreter's exit hook shuts the pool down; letting go of it
        # before modules are torn down keeps its finalizer working
        atexit.register(_drop_pool)
    return _pool


def _cores() -> int:
    """Cores this process may run on; 1 where the platform cannot tell or
    cannot fork."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return len(os.sched_getaffinity(0))


def _in_order(work, n_paths: int, size: int, forkable: bool) -> Iterator[_Results]:
    """``work(paths)`` for each block ``paths`` of consecutive path indices
    below ``n_paths``, yielded in path order.

    A ``forkable`` ``work`` (one whose arguments are library values, so a
    worker forked earlier runs the same code) may run on the ``n`` cores
    this process may use.  The paths are split into ``k = max(ceil(n_paths
    / size), min(n, n_paths // _MIN_PART))`` blocks of ``ceil(n_paths /
    k)`` paths (the last may be shorter): at most ``size`` paths each, and
    one block per core, of at least ``_MIN_PART`` paths, when there would
    be fewer.  With two or more blocks, block ``i`` runs in this process
    when ``i % n == 0`` and in a forked worker otherwise, submitted at
    most ``_AHEAD * n`` blocks ahead of the one being yielded.  Everything
    else (one core, one block of fewer than ``2 * _MIN_PART`` paths) runs
    in this process, and the core count is read only when it can matter.
    Blocks still pending when the consumer stops are cancelled.  A broken
    pool raises ``BrokenProcessPool`` and is dropped, so the next call
    starts a new one.
    """
    n_blocks = -(-n_paths // size)
    n = _cores() if forkable and (n_blocks >= 2 or n_paths >= 2 * _MIN_PART) else 1
    size = -(-n_paths // max(n_blocks, min(n, n_paths // _MIN_PART)))
    n_blocks = -(-n_paths // size)

    def paths(i):
        return np.arange(i * size, min(i * size + size, n_paths))

    if n < 2:
        for i in range(n_blocks):
            yield work(paths(i))
        return
    from concurrent.futures.process import BrokenProcessPool

    pool, pending = _worker_pool(n - 1), {}
    try:
        for i in range(n_blocks):
            for j in range(i, min(i + _AHEAD * n, n_blocks)):
                if j % n and j not in pending:
                    pending[j] = pool.submit(work, paths(j))
            yield pending.pop(i).result() if i % n else work(paths(i))
    except BrokenProcessPool:
        _drop_pool()
        raise
    finally:
        for future in pending.values():
            future.cancel()


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
    max_time = _barrier_horizon(u, barrier, params, cfg.max_time)
    work = partial(_barrier_paths, u, barrier, params, max_time, cfg.master_seed)
    forkable = type(params.claims) is ExponentialClaims
    with closing(_in_order(work, cfg.n_paths, _BLOCK, forkable)) as results:
        return _accumulate(cfg, barrier.delta0, params, results)


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
    if cfg.max_time is not None:
        raise ValueError(
            f"impulse paths are censored by cycle count; max_time must be None, got {cfg.max_time}"
        )
    work = partial(_impulse_paths, spec, params, cfg.master_seed, max_cycles=1_000_000)
    forkable = type(params.claims) is ExponentialClaims
    with closing(_in_order(work, cfg.n_paths, _IMPULSE_BLOCK, forkable)) as results:
        return _accumulate(cfg, params.c1, params, results)
