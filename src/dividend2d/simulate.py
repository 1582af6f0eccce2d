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
lockstep, one inter-claim interval at a time, and impulse paths through
another; one driver feeds both the same chunks.  The barrier kernel
takes one pass per inter-claim interval: it moves the rows below the line
first and then, in the same pass, the rows in the payout set with those
that reached the line, under the payout drift ``(c1 + 1, c2 - a)``
(``_barrier_kernel`` says why no row's bits depend on which rows share
its pass).  A block's first chunk is about
one fill slice of counters (8,192 paths start on 1 column, 1,024 on 8,
128 or fewer on 64); paths still running when their columns run out
resume on the next chunk, drawn for them alone and twice as wide (up to
64 columns).
A single path is a block of one, so estimates, single-path calls and
traces share every operation.  Both kernels drop finished paths from
their arrays in batches, padded to a multiple of ``_LANES`` rows.
``_run_chunks`` fills at most ``_MAX_PATH_COLUMNS`` columns a path and
censors the paths still running then, with their payout and time so far:
the one guard against a path that never ends.  Barrier paths ruin or
reach their horizon long before it.  Impulse paths have no horizon:
every cycle restarts at ``(u1, u2)``, so a path runs cycles, uncounted,
until one ends in ruin, and only the cap censors it.

In lockstep each impulse path consumes one column per step, to start a
cycle or for one step of its recovery race: the column's wait, and its
claim unless company 2 recovers first, in which case the claim goes
unread and, the waits being memoryless, the next cycle starts on the
next column.  When fewer than ``_HANDOFF = _LANES`` paths still run (a
lockstep step is padded to ``_LANES`` rows, so it costs as much however
few run), they resume in a scalar loop on Python floats with their state
and unread columns; smaller blocks, single paths included, run there
from the start.  Both loops take every exponential from ``np.exp`` (the
scalar loop on Python floats) and otherwise apply ``+ - * /`` and
comparisons in the same order, so a path's bits do not depend on which
loop ran which of its cycles.

A finished block is its paths' result, which a worker sends back whole.
The moment reduction reads its arrays by name and adds one path at a
time in path order, so an estimate does not depend on how its paths are
split into blocks, nor on where each block runs.  An
estimate runs on every core the process may use: the calling process
takes every ``n``-th block and ``n - 1`` forked worker processes the
others, in one pool made on first use and kept for the life of the
process (the kernels hold the interpreter lock, so threads would not
help).  An estimate of either control is split into the fewest blocks of
at most ``_BLOCK`` paths, all of one size but the last, which may be
shorter.  One that would fill fewer blocks than cores is cut instead into
one block per core, of at least ``_MIN_PART`` paths each; cut blocks cost
more CPU per path, so only an estimate that runs on the pool is cut.
These run in the calling process alone: estimates of one block below
``2 * _MIN_PART`` paths, single paths, traces, estimates with claims
other than ``ExponentialClaims`` (a worker would run the user's inverse
CDF as it was when the pool forked), and every estimate on one core or
on a platform without ``os.sched_getaffinity`` or ``os.fork``.  Workers
ignore SIGINT, so Ctrl-C stops the caller and leaves the pool usable.
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
    check_barrier,
)
from .impulse import ImpulseSpec

#: a path's end code: still running, ruined by company 1's reserve going
#: negative (company 2's may have too) or by company 2's alone, or censored
_RUNNING, _RUIN_C1, _RUIN_C2, _CENSORED = 0, 1, 2, 3

#: trace event codes -> labels for the CSV surface
TRACE_EVENTS = {
    0: "start",
    1: "enter_payout",
    3: "claim",
    4: "ruin",
    5: "censored",
}

#: paths per block of either estimator, the widest chunk in columns, and
#: the columns a path may read before it is censored
_BLOCK = 8192
_MAX_COLUMNS = 64
_MAX_PATH_COLUMNS = 1 << 20

#: the multiple kernel rows are padded to, and so the running paths below
#: which an impulse block leaves lockstep, whose steps cost as much on fewer
_LANES = 64
_HANDOFF = _LANES  # a name of its own, so that tests can force either loop

#: counters per slice of a stream fill, so that its arrays stay in cache;
#: a block's first chunk is about one slice, enough that a fill's fixed
#: cost (some 100 NumPy calls) is small beside its draws
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
    """Path count, seeding and which moments to estimate.  A barrier
    estimate takes its horizon as an argument; impulse paths have none."""

    n_paths: int
    master_seed: int
    moment_orders: tuple[int, ...] = (1,)

    def __post_init__(self):
        # integers (NumPy's too) are stored as ints; a float would truncate
        # to another seed or path count, or give NaN moments
        n_paths, seed = _integer(self.n_paths, "n_paths"), _integer(self.master_seed, "master_seed")
        orders = tuple(_integer(n, "each moment order") for n in self.moment_orders)
        if n_paths < 1:
            raise ValueError(f"n_paths >= 1 required, got {n_paths}")
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
    or ``default_max_time`` at the payout rate when that is None.  The one
    check of a horizon, made before those of the barrier and the start."""
    if max_time is not None and not max_time > 0.0:
        raise ValueError(f"max_time > 0 required, got {max_time}")
    check_barrier(barrier, params)
    # the kernel's payout drift of company 1; 0 once c1 + 1 rounds to c1
    if not params.c1 - (params.c1 + 1.0) < 0.0:
        raise ParameterError([
            f"c1 - (c1 + 1) < 0 violated ({params.c1} - {params.c1 + 1.0});"
            " company 1 must drain while paying"
        ])
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
    np.minimum(u, np.nextafter(1.0, 0.0), out=u)  # all ones rounds up to 1: -log1p(-1) = inf
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
        # as in SimConfig, a float would truncate to another seed or path
        seed, index = _integer(self.master_seed, "master_seed"), _integer(self.index, "path index")
        if not (0 <= seed < 2**64 and 0 <= index < 2**64):
            raise ValueError(f"seed and path index must lie in [0, 2**64), got {self}")
        object.__setattr__(self, "master_seed", seed)
        object.__setattr__(self, "index", index)

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
        self.end = np.full(n, _RUNNING, dtype=np.int8)
        self.live = np.arange(n)  # positions of the running paths
        self.t = np.zeros(n)
        self.paid = np.zeros(n)
        self.columns = 0  # columns consumed by the running paths

    def finish(self, idx, D, sigma, end) -> None:
        """End the paths ``idx``: the one writer of their D, sigma and end code."""
        self.D[idx], self.sigma[idx], self.end[idx] = D, sigma, end


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
    barrier: BarrierSpec,
    params: ModelParams,
    max_time: float,
    ts: np.ndarray,
    xs: np.ndarray,
    block: _BarrierBlock,
    trace: list | None = None,
) -> _BarrierBlock:
    """Event loop for a block of refracted paths over one chunk of columns.

    Row ``j`` of ``ts``/``xs`` holds the next waiting times and claim
    sizes of the block's ``j``-th running path, which resumes where it
    stopped.  Returns the block: paths that ruin or are censored are
    finished with their D, sigma and end code; the others stay
    ``_RUNNING``.

    Paths move in lockstep, one inter-claim interval at a time.  Within an
    interval each path takes flow segments, each advanced to the earliest
    of: claim, barrier hit, axis crossing, or the horizon.  A claim
    landing exactly on a crossing time is processed first (the region is
    re-evaluated after the jump).  Every operation is elementwise, so a
    path's result does not depend on which block it runs in, nor on how
    its columns are split into chunks.

    One pass over the rows in the interval moves the rows below the line
    first, under the premium drift alone, to the line, the claim or past
    the horizon (censored).  Rows that reach the line with time left join
    the rows in the payout set, and the payout step moves those rows only,
    in the same pass, under the payout drift ``(c1 + 1, c2 - a)``
    (velocity ``(-1, a)``, along the line from a row on it) to the claim,
    an axis crossing (ruin) or the horizon.

    ``trace`` (a list, blocks of one path only) receives the event rows
    (t, y1, y2, code) of that path after its start row.
    """
    a, b, q, tol = barrier.a, barrier.b, params.q, ON_LINE_TOL
    c1, c2 = params.c1, params.c2
    d0 = barrier.delta0
    v1b = c1 - (c1 + 1.0)  # the velocity in the payout set, (-1, a) up to rounding
    v2b = c2 - (c2 - a)
    approach = c2 + a * c1  # growth of y2 - (b - a*y1) below the line; always positive

    def note(mask, code, t, y1, y2):
        if trace is not None and np.any(mask):
            trace.append((float(t[0]), float(y1[0]), float(y2[0]), code))

    # state of the running paths and their rows in ts/xs; a row that is not
    # alive has finished or pads the arrays until the next compaction
    live, y1, y2, t, D = block.live, block.y1, block.y2, block.t, block.paid
    rows = np.arange(live.size)
    alive = np.ones(live.size, dtype=bool)
    running = live.size  # running paths at the last compaction

    def finish(pos, fin, end):
        sel = pos[fin]
        if sel.size:
            block.finish(live[sel], D[sel], t[sel], end if np.isscalar(end) else end[fin])
            alive[sel] = False

    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(ts.shape[1]):
            rem = ts[rows, k]
            # the rows in the interval, by region, each set padded to a
            # multiple of _LANES with copies that compute and write alike.
            # One pass uses up the interval: a row below the line stops at its
            # claim, the horizon or the line, and a row that pays stops at its
            # claim unless it ruins or is censored first
            pos = np.flatnonzero(alive & (rem > 0.0))
            n = pos.size
            pos = _padded(pos)
            below = (y2[pos] - (b - a * y1[pos]) < -tol)[:n]
            low, pos = pos[:n][below], pos[:n][~below]
            if low.size:
                # below the line: premium drift toward it, no payout, no ruin
                n = low.size
                low = _padded(low)
                Y1, Y2, T, R = y1[low], y2[low], t[low], rem[low]
                t_hit = -(Y2 - (b - a * Y1)) / approach
                hit = t_hit < R
                dt = np.where(hit, t_hit, R)
                Y1 = Y1 + c1 * dt
                Y2 = np.where(hit, b - a * Y1, Y2 + c2 * dt)
                T, R = T + dt, R - dt
                y1[low], y2[low], t[low], rem[low] = Y1, Y2, T, R
                censored = T >= max_time
                note(hit, 1, T, Y1, Y2)
                note(censored, 5, T, Y1, Y2)
                finish(low, censored, _CENSORED)
                # a hit leaves time (t_hit < R) and y2 = b - a*y1 exactly
                pos = np.concatenate((pos, low[:n][(hit & ~censored)[:n]]))
            if pos.size:
                # in the payout set: the payout drift
                pos = _padded(pos)
                Y1, Y2, T, A = y1[pos], y2[pos], t[pos], D[pos]
                dt = rem[pos]
                kind = np.full(pos.size, _RUNNING, dtype=np.int8)
                for end, w, y in ((_RUIN_C1, v1b, Y1), (_RUIN_C2, v2b, Y2)):
                    if w < 0.0:  # a drift that is not negative crosses no axis
                        tt = y / -w
                        earlier = tt < dt
                        dt = np.where(earlier, tt, dt)
                        kind[earlier] = end  # this company's axis crossing
                late = T + dt > max_time
                dt = np.where(late, max_time - T, dt)
                kind[late] = _CENSORED
                A = A + d0 * (np.exp(-q * T) - np.exp(-q * (T + dt))) / q
                Y1, Y2, T = Y1 + v1b * dt, Y2 + v2b * dt, T + dt
                y1[pos], y2[pos], t[pos], D[pos] = Y1, Y2, T, A
                ended = kind > _RUNNING
                note(ended & (kind != _CENSORED), 4, T, Y1, Y2)
                note(kind == _CENSORED, 5, T, Y1, Y2)
                finish(pos, ended, kind)
            if not alive.any():
                break
            x = xs[rows, k]
            y1 -= x
            y2 -= x
            note(True, 3, t, y1, y2)
            ruined = alive & ((y1 < 0.0) | (y2 < 0.0))
            note(ruined, 4, t, y1, y2)
            finish(np.arange(live.size), ruined, np.where(y1 < 0.0, _RUIN_C1, _RUIN_C2))
            still = int(np.count_nonzero(alive))
            keep = _rows_to_keep(alive, running - still, False)
            if keep is not None:
                live, rows, y1, y2, t, D = (a[keep] for a in (live, rows, y1, y2, t, D))
                alive, running = np.arange(keep.size) < still, still
    keep = np.flatnonzero(alive)
    block.live, block.y1, block.y2, block.t, block.paid = (a[keep] for a in (live, y1, y2, t, D))
    return block


def _run_chunks(kernel, block: _Block, params: ModelParams, master_seed: int,
                paths: np.ndarray) -> _Block:
    """``block``, the block of paths ``paths``, finished: run by
    ``kernel(ts, xs, block)`` on chunks drawn for its running paths alone,
    the first ``_FILL_COUNTERS // len(paths)`` wide (1 to ``_MAX_COLUMNS``),
    then twice as wide each time, up to ``_MAX_COLUMNS``.  The last chunk
    ends at column ``_MAX_PATH_COLUMNS``, after which the paths still
    running are censored with their payout and time so far; they stay in
    ``block.live``."""
    width = min(max(_FILL_COUNTERS // paths.size, 1), _MAX_COLUMNS)
    while block.live.size and block.columns < _MAX_PATH_COLUMNS:
        width = min(width, _MAX_PATH_COLUMNS - block.columns)
        ts, xs = np.empty((block.live.size, width)), np.empty((block.live.size, width))
        _fill_streams(master_seed, paths[block.live], params, ts, xs, block.columns)
        block = kernel(ts, xs, block)
        block.columns += width
        width = min(2 * width, _MAX_COLUMNS)
    block.finish(block.live, block.paid, block.t, _CENSORED)
    return block


def _barrier_paths(
    u: Reserves,
    barrier: BarrierSpec,
    params: ModelParams,
    max_time: float,
    master_seed: int,
    paths: np.ndarray,
    trace: list | None = None,
) -> _BarrierBlock:
    """The finished block of barrier paths ``paths``, run from ``u`` until
    each ruins or is censored, at ``max_time`` or by ``_run_chunks``.
    ``trace`` (a list, blocks of one path only) receives that path's event
    rows, ending on a ``censored`` row also when ``_run_chunks`` censors
    it."""
    if trace is not None:
        if paths.size != 1:
            raise ValueError("tracing needs a block of one path")
        trace.append((0.0, float(u.u1), float(u.u2), 0))
    kernel = partial(_barrier_kernel, barrier, params, max_time, trace=trace)
    block = _run_chunks(kernel, _BarrierBlock(u, paths.size), params, master_seed, paths)
    if trace is not None and block.live.size:  # still running at the column cap
        trace.append((float(block.t[0]), float(block.y1[0]), float(block.y2[0]), 5))
    return block


def _impulse_loop(u1, u2, K, c1, c2, q, ts, xs, D=0.0, t=0.0, race=None):
    """Renewal loop for one impulse path, resumed at time ``t`` and payout
    ``D`` so far, and inside a cycle's recovery race when ``race`` holds
    its ``(z, s)``.

    Column ``j`` of ``ts``/``xs`` holds the ``j``-th waiting time the path
    consumes (a cycle's opening wait or one inter-claim gap of its
    recovery race) and the claim that ends it.  A race wait in which
    company 2 reaches ``u2`` leaves its claim unread, and the next cycle,
    its wait being memoryless, starts on the next column.  Returns (D,
    sigma, end code, race).  ``_RUNNING`` means the columns ran out: the
    path has read every one of them, and it resumes from the returned D,
    sigma (as ``t``) and race on the next columns.  The loop runs on Python
    floats, with ``ts`` and ``xs`` lists or memoryviews: indexing either
    is cheaper than indexing an array.  Discount factors come from
    ``np.exp``, as in the lockstep loop of ``_impulse_kernel``, and every
    other operation is the same as there, so the two loops give the same
    bits.
    """
    mn = u1 if u1 < u2 else u2
    gap = u2 - u1
    it, nt = 0, len(ts)
    e = np.exp(-q * t)  # the discount factor at t
    while True:
        if race is None:
            if it >= nt:
                return D, t, _RUNNING, None
            t += ts[it]
            x = xs[it]
            it += 1
            e_new = np.exp(-q * t)
            D += c1 * (e - e_new) / q
            e = e_new
            if x > mn:
                return D, t, _RUIN_C1 if x > u1 else _RUIN_C2, None
            # company 2 recovers from z = u2 - x back to u2; company 1,
            # at z - (gap - (c1 - c2) s), races the declining boundary
            # max(0, gap - (c1 - c2) s)
            z, s = u2 - x, 0.0
        else:
            (z, s), race = race, None
        while True:
            if it >= nt:
                return D, t, _RUNNING, (z, s)
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
            z -= xs[it - 1]
            edge = gap - (c1 - c2) * s
            if z < (edge if edge > 0.0 else 0.0):
                return D, t + s, _RUIN_C1 if z < edge else _RUIN_C2, None


class _ImpulseBlock(_Block):
    """A block of impulse paths, with the race state of the paths still
    running, each of which has consumed ``columns`` columns."""

    def __init__(self, n: int):
        super().__init__(n)
        self.z = np.zeros(n)  # company 2's reserve in the recovery race
        self.s = np.zeros(n)  # time since the race began
        self.racing = np.zeros(n, dtype=bool)


def _impulse_kernel(
    spec: ImpulseSpec,
    params: ModelParams,
    ts: np.ndarray,
    xs: np.ndarray,
    block: _ImpulseBlock,
) -> _ImpulseBlock:
    """Event loop for a block of impulse paths over one chunk of columns.

    Row ``j`` of ``ts``/``xs`` holds the next waiting times and claim sizes
    of the block's ``j``-th running path.  Returns the block: paths that
    ruin are finished with their D, sigma (``t + s`` of the cycle that
    ruins) and ruin code; the others stay ``_RUNNING``.  Neither loop
    censors: ``_run_chunks`` does, after ``_MAX_PATH_COLUMNS`` columns.

    In lockstep each path consumes one column per step, to start a cycle
    or for one step of its recovery race, as ``_impulse_loop`` does;
    finished paths are compacted away in batches.  Once fewer than
    ``_HANDOFF = _LANES`` paths run, a lockstep step costs as much as on
    ``_LANES``, so each resumes in the scalar loop ``_impulse_loop`` with
    its state and unread columns; a smaller block runs there from the
    start.  The chunks are the same in either loop.  Both loops take every
    exponential from ``np.exp`` and otherwise apply ``+ - * /`` and
    comparisons in the same order, so a path's result does not depend on
    which loop ran which of its cycles.
    """
    u1, u2, K = spec.u1, spec.u2, spec.K
    c1, c2, q = params.c1, params.c2, params.q
    live, D, t = block.live, block.paid, block.t
    z, s, racing = block.z, block.s, block.racing
    rows = np.arange(live.size)
    k = 0
    if live.size >= _HANDOFF:
        mn, gap, dc = min(u1, u2), u2 - u1, c1 - c2
        alive = np.ones(live.size, dtype=bool)
        running, finished = live.size, 0  # finished: since the last compaction
        e = np.exp(-q * t)
        while True:
            end = k == ts.shape[1] or running < max(_HANDOFF, 1)
            keep = _rows_to_keep(alive, finished, end)
            if keep is not None:
                live, rows, D, t, e, z, s, racing = (
                    a[keep] for a in (live, rows, D, t, e, z, s, racing)
                )
                alive, finished = np.arange(keep.size) < running, 0
            if end:
                break
            w = ts[:, k][rows]
            x = xs[:, k][rows]
            t_reach = (u2 - z) / c2
            reach = racing & (t_reach < w)
            tau = s + t_reach
            t = t + np.where(racing, np.where(reach, tau, 0.0), w)
            e_new = np.exp(-q * t)
            D = D + np.where(racing, np.where(reach, (dc * tau - K) * e_new, 0.0), c1 * (e - e_new) / q)
            z = np.where(racing, z + c2 * w, u2) - x
            s = np.where(racing, s + w, 0.0)
            edge = gap - dc * s
            ruined = np.where(racing, ~reach & (z < np.maximum(edge, 0.0)), x > mn) & alive
            if ruined.any():
                fin = np.flatnonzero(ruined)
                first = np.where(racing[fin], z[fin] < edge[fin], x[fin] > u1)
                block.finish(live[fin], D[fin], t[fin] + s[fin], np.where(first, _RUIN_C1, _RUIN_C2))
                alive[fin] = False
                running -= fin.size
                finished += fin.size
            e, racing = e_new, ~reach
            k += 1
    if live.size < _HANDOFF:
        # the stragglers, from column k on, in the scalar loop
        args = (u1, u2, K, c1, c2, q)
        state = zip(rows.tolist(), D.tolist(), t.tolist(), z.tolist(), s.tolist(), racing.tolist())
        for j, (r, D_j, t_j, z_j, s_j, racing_j) in enumerate(state):
            D_j, t_j, end, race = _impulse_loop(
                *args, memoryview(ts[r, k:]), memoryview(xs[r, k:]),
                D_j, t_j, (z_j, s_j) if racing_j else None,
            )
            if end != _RUNNING:
                block.finish(live[j], D_j, t_j, end)
            else:
                D[j], t[j], racing[j] = D_j, t_j, race is not None
                if race is not None:
                    z[j], s[j] = race
        keep = np.flatnonzero(block.end[live] == _RUNNING)
        live, D, t, z, s, racing = (a[keep] for a in (live, D, t, z, s, racing))
    block.live, block.paid, block.t, block.z, block.s, block.racing = live, D, t, z, s, racing
    return block


def _impulse_paths(
    spec: ImpulseSpec, params: ModelParams, master_seed: int, paths: np.ndarray
) -> _ImpulseBlock:
    """The finished block of impulse paths ``paths``, run until each ruins
    or is censored by ``_run_chunks`` after ``_MAX_PATH_COLUMNS`` columns.

    Each path consumes one column of its stream per wait, a wait and its
    claim, as a barrier path does.  An estimate's blocks hold at most
    ``_BLOCK`` paths and run on the chunks of ``_run_chunks``, as barrier
    blocks do, whichever loop of ``_impulse_kernel`` runs them.  A block
    runs in lockstep while at least ``_HANDOFF = _LANES`` of its paths
    run: a lockstep step on fewer is padded to ``_LANES`` rows anyway.
    """
    kernel = partial(_impulse_kernel, spec, params)
    return _run_chunks(kernel, _ImpulseBlock(paths.size), params, master_seed, paths)


@dataclass
class PathResult:
    D: float
    sigma: float
    censored: bool
    ruin_cause: int = 0  # _RUIN_C1, _RUIN_C2, or 0 when censored


def _first_path(block: _Block) -> PathResult:
    end = int(block.end[0])
    censored = end == _CENSORED
    return PathResult(float(block.D[0]), float(block.sigma[0]), censored, 0 if censored else end)


def simulate_refracted_path(
    u: Reserves,
    barrier: BarrierSpec,
    params: ModelParams,
    rng: PathStream,
    max_time: float | None = None,
) -> PathResult:
    """One controlled path, run as a block of one: discounted dividends and
    the ruin time.

    ``sigma`` is the censoring horizon when the path is censored there,
    and its time so far when it is censored after ``_MAX_PATH_COLUMNS``
    columns.
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
) -> PathResult:
    """One impulse-controlled path, run as a block of one until it ruins;
    censored (``sigma`` the time so far) if it has not after
    ``_MAX_PATH_COLUMNS`` columns."""
    return _first_path(_impulse_paths(spec, params, rng.master_seed, np.array([rng.index])))


def _add_in_order(total: float, terms: np.ndarray) -> float:
    """``total + terms[0] + terms[1] + ...``, added one term at a time as a
    Python loop would (``np.sum`` adds pairwise)."""
    return float(np.cumsum(np.concatenate(([total], terms)))[-1])


def _accumulate(
    cfg: SimConfig,
    payout_rate: float,
    params: ModelParams,
    blocks: Iterable[_Block],
) -> DividendEstimate:
    """Streaming moments of finished blocks, in path-index order.  Every
    sum adds its terms in path order, so the estimate does not depend on
    how the paths are split into blocks."""
    orders = tuple(sorted(set(cfg.moment_orders)))
    sums = {n: 0.0 for n in orders}
    sq_sums = {n: 0.0 for n in orders}
    ruin_sum, ruin_count, censored, company2 = 0.0, 0, 0, 0
    bias_sum = 0.0
    for block in blocks:
        D, sigma, is_censored = block.D, block.sigma, block.end == _CENSORED
        for n in orders:
            dn = np.power(D, n)
            sums[n] = _add_in_order(sums[n], dn)
            sq_sums[n] = _add_in_order(sq_sums[n], dn * dn)
        n_censored = int(np.count_nonzero(is_censored))
        censored += n_censored
        ruin_count += is_censored.size - n_censored
        company2 += int(np.count_nonzero(block.end == _RUIN_C2))
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


def _in_order(work, n_paths: int, size: int, forkable: bool) -> Iterator[_Block]:
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


def _estimate(work, cfg: SimConfig, payout_rate: float, params: ModelParams) -> DividendEstimate:
    """Moments of the blocks ``work(paths)`` over ``cfg.n_paths`` paths."""
    forkable = type(params.claims) is ExponentialClaims
    with closing(_in_order(work, cfg.n_paths, _BLOCK, forkable)) as blocks:
        return _accumulate(cfg, payout_rate, params, blocks)


def estimate_barrier_moments(
    u: Reserves,
    barrier: BarrierSpec,
    params: ModelParams,
    cfg: SimConfig,
    max_time: float | None = None,
) -> DividendEstimate:
    """Moments of D for the refracted control, each path censored at time
    ``max_time`` (``default_max_time`` at the payout rate when None).

    The reported truncation bound is the exact censoring-tail bound
    e^{-q max_time} * delta0 / q scaled by the censored fraction.
    """
    max_time = _barrier_horizon(u, barrier, params, max_time)
    work = partial(_barrier_paths, u, barrier, params, max_time, cfg.master_seed)
    return _estimate(work, cfg, barrier.delta0, params)


def estimate_impulse_moments(
    spec: ImpulseSpec,
    params: ModelParams,
    cfg: SimConfig,
) -> DividendEstimate:
    """Moments of D for the impulse control.

    The bias bound uses c1/q: every payout stream is dominated by paying
    the larger premium forever.  A path has no time horizon: it runs until
    it ruins, censored only once it has read ``_MAX_PATH_COLUMNS`` columns.
    """
    work = partial(_impulse_paths, spec, params, cfg.master_seed)
    return _estimate(work, cfg, params.c1, params)
