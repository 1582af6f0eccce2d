"""Spans and counters around the calls into each dividend2d layer.

The traced run replaces module attributes of ``dividend2d`` at run time
with wrappers that record a span (name, parent, start, end) per call and
optional counts taken from the call's arguments or result.  Nothing in
``src/`` is edited.  Spans are kept in memory and written out when the
run ends; a layer's self time is its span time minus the time covered
by its direct child spans.

Wrappers record only while ``Tracer.active`` is set, which the workloads
set around their timed sections, so checks made outside the timed part
leave no spans.  A wrapped name that a later version of the library no
longer has is skipped, and every metric that needs it is left out; so
are the metrics of a name whose counts can no longer be read from its
arguments or result.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, parent span index or -1, start, end]
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: set[str] = set()
        self.last: dict[str, float] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, note=None, only_from: str | None = None) -> None:
        """Replace ``module.attr`` with a recording wrapper named ``name``.

        ``note(args, kwargs, result)`` updates counters after each
        recorded call.  ``only_from`` limits recording to calls made from
        code in that module (others pass straight through).
        """
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.add(name)
            return
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active or (
                only_from is not None and sys._getframe(1).f_globals.get("__name__") != only_from
            ):
                return fn(*args, **kwargs)
            rec = [nid, self._stack[-1] if self._stack else -1, perf_counter(), 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                self._stack.pop()
            if note is not None:
                try:
                    note(args, kwargs, out)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.missing.add(name)  # the call's signature or result changed
            return out

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for nid, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {name: [0, 0.0, 0.0] for name in self.names}
        for i, (nid, _, start, end) in enumerate(self.spans):
            row = out[self.names[nid]]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return {k: tuple(v) for k, v in out.items()}

    def root_seconds(self) -> float:
        return sum(end - start for _, parent, start, end in self.spans if parent < 0)

    def dump(self, path) -> None:
        """Write the spans as {names, spans: [[name, parent, start_us, end_us]]}."""
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [
            [nid, parent, round((s - t0) * 1e6, 3), round((e - t0) * 1e6, 3)]
            for nid, parent, s, e in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": rows}, fh, separators=(",", ":"))


def instrument(tracer: Tracer) -> None:
    """Wrap the layer boundaries of every dividend2d module the workloads use."""
    import numpy as np

    from dividend2d import barrier, gammas, impulse, optimize, scale, simulate

    def count(key, fn):
        def note(args, kwargs, out):
            tracer.counts[key] += fn(args, kwargs, out)
        return note

    # simulate: entry points, stream fill, event loops, moment reduction
    tracer.wrap(simulate, "estimate_barrier_moments", "simulate.estimate_barrier_moments")
    tracer.wrap(simulate, "estimate_impulse_moments", "simulate.estimate_impulse_moments")
    tracer.wrap(simulate, "_accumulate", "simulate._accumulate")
    tracer.wrap(
        simulate, "_fill_streams", "simulate._fill_streams",
        note=count("draws", lambda a, k, out: a[3].size + a[4].size),
    )
    tracer.wrap(simulate, "_barrier_kernel", "simulate._barrier_kernel")
    tracer.wrap(simulate, "_impulse_kernel", "simulate._impulse_kernel")
    tracer.wrap(simulate, "_path_rng", "simulate._path_rng")

    # gammas: sequence builds (sequences_for's cache calls build_sequences
    # through the module global)
    tracer.wrap(
        gammas, "build_sequences", "gammas.build_sequences",
        note=count("terms_kept", lambda a, k, out: len(out.steps)),
    )

    # barrier: the series, under both names it is called by
    for module in (barrier, optimize):
        tracer.wrap(module, "v1_barrier", "barrier.v1_barrier")

    # optimize: the sweep and its per-cell step
    tracer.wrap(optimize, "sweep_barrier", "optimize.sweep_barrier")
    tracer.wrap(optimize, "_evaluate_cell", "optimize._evaluate_cell")

    # impulse: both valuations and the quadrature pieces
    def last_nodes(args, kwargs, out):
        tracer.last["claim_nodes"] = args[3] if len(args) > 3 else kwargs["n_nodes"]

    def valuation_nodes(args, kwargs, out):
        if args[0].u1 > 0.0:
            tracer.counts["claim_nodes"] += tracer.last.get("claim_nodes", 0)

    tracer.wrap(impulse, "impulse_v1_high", "impulse.impulse_v1_high")
    tracer.wrap(impulse, "impulse_v1_low", "impulse.impulse_v1_low", note=valuation_nodes)
    tracer.wrap(
        impulse, "_transform_claim_integral", "impulse._transform_claim_integral", note=last_nodes
    )
    tracer.wrap(impulse, "v_q", "impulse.v_q")
    tracer.wrap(impulse, "ballot_crossing_density", "impulse.ballot_crossing_density")
    tracer.wrap(impulse, "erlang_mixture_density", "impulse.erlang_mixture_density")
    tracer.wrap(
        np.polynomial.legendre, "leggauss", "impulse.leggauss", only_from="dividend2d.impulse"
    )

    # scale: the closed-form pieces, as the impulse module calls them
    for module in (impulse, scale):
        tracer.wrap(module, "scale_params", "scale.scale_params")
    tracer.wrap(impulse, "phi_inverse", "scale.phi_inverse")


def cache_counts() -> tuple[int, int] | None:
    """(hits, misses) of ``gammas.sequences_for``'s cache, if it has one."""
    from dividend2d import gammas

    info = getattr(getattr(gammas, "sequences_for", None), "cache_info", None)
    if info is None:
        return None
    c = info()
    return c.hits, c.misses


#: per-layer metric -> (unit, span names it needs)
LAYER_METRICS = {
    "simulate.fill_us_per_path": ("us", ["simulate._fill_streams"]),
    "simulate.draws_per_path": ("count", ["simulate._fill_streams"]),
    "simulate.kernel_us_per_path": ("us", ["simulate._barrier_kernel"]),
    "simulate.accumulate_self_us_per_path": ("us", ["simulate._accumulate"]),
    "simulate.impulse_path_us": ("us", ["simulate._impulse_kernel"]),
    "simulate.rng_build_us": ("us", ["simulate._path_rng"]),
    "gammas.build_ms": ("ms", ["gammas.build_sequences"]),
    "gammas.builds": ("count", ["gammas.build_sequences"]),
    "gammas.terms_kept": ("count", ["gammas.build_sequences"]),
    "gammas.cache_hit_ratio": ("ratio", ["gammas.sequences_for"]),
    "barrier.v1_us_per_point": ("us", ["barrier.v1_barrier"]),
    "barrier.points": ("count", ["barrier.v1_barrier"]),
    "optimize.cell_self_us": ("us", ["optimize._evaluate_cell"]),
    "impulse.v_q_calls": ("count", ["impulse.v_q"]),
    "impulse.v_q_ms": ("ms", ["impulse.v_q"]),
    "impulse.ballot_calls": ("count", ["impulse.ballot_crossing_density"]),
    "impulse.ballot_ms": ("ms", ["impulse.ballot_crossing_density"]),
    "impulse.erlang_calls": ("count", ["impulse.erlang_mixture_density"]),
    "impulse.erlang_ms": ("ms", ["impulse.erlang_mixture_density"]),
    "impulse.leggauss_calls": ("count", ["impulse.leggauss"]),
    "impulse.leggauss_ms": ("ms", ["impulse.leggauss"]),
    "impulse.claim_nodes": ("count", ["impulse._transform_claim_integral"]),
    "impulse.v1_high_us": ("us", ["impulse.impulse_v1_high"]),
    "scale.scale_params_us": ("us", ["scale.scale_params"]),
    "scale.phi_inverse_calls": ("count", ["scale.phi_inverse"]),
    "trace.span_coverage": ("ratio", []),
}


def layer_metrics(tracer: Tracer, work: dict, timed_wall: float, cache_delta: tuple[int, int] | None) -> dict:
    """Per-layer metrics from the spans, normalised by the work done.

    ``work`` holds ``mc_paths``, ``quad_valuations`` (impulse_v1_low
    calls with u1 > 0) and ``rounds``; ``cache_delta`` is the change in
    ``sequences_for``'s (hits, misses) over the timed part, or None when
    there is no such cache.  A metric is 0 when its layer did no work in
    this workload, and left out when a name it needs is gone.
    """
    tot = tracer.totals()

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def secs(name, self_only=False):
        return tot.get(name, (0, 0.0, 0.0))[2 if self_only else 1]

    def per(x, n):
        return x / n if n else 0.0

    paths = work.get("mc_paths", 0)
    quad = work.get("quad_valuations", 0)
    rounds = work.get("rounds", 0)
    builds = calls("gammas.build_sequences")
    hits, misses = cache_delta or (0, 0)
    values = {
        "simulate.fill_us_per_path": per(secs("simulate._fill_streams") * 1e6, paths),
        "simulate.draws_per_path": per(tracer.counts["draws"], paths),
        "simulate.kernel_us_per_path": per(secs("simulate._barrier_kernel") * 1e6, paths),
        "simulate.accumulate_self_us_per_path": per(secs("simulate._accumulate", True) * 1e6, paths),
        "simulate.impulse_path_us": per(secs("simulate._impulse_kernel") * 1e6, paths),
        "simulate.rng_build_us": per(secs("simulate._path_rng") * 1e6, calls("simulate._path_rng")),
        "gammas.build_ms": per(secs("gammas.build_sequences") * 1e3, builds),
        "gammas.builds": per(builds, rounds),
        "gammas.terms_kept": per(tracer.counts["terms_kept"], builds),
        "gammas.cache_hit_ratio": per(hits, hits + misses),
        "barrier.v1_us_per_point": per(
            secs("barrier.v1_barrier", True) * 1e6, calls("barrier.v1_barrier")
        ),
        "barrier.points": per(calls("barrier.v1_barrier"), rounds),
        "optimize.cell_self_us": per(
            secs("optimize._evaluate_cell", True) * 1e6, calls("optimize._evaluate_cell")
        ),
        "impulse.v_q_calls": per(calls("impulse.v_q"), quad),
        "impulse.v_q_ms": per(secs("impulse.v_q") * 1e3, quad),
        "impulse.ballot_calls": per(calls("impulse.ballot_crossing_density"), quad),
        "impulse.ballot_ms": per(secs("impulse.ballot_crossing_density") * 1e3, quad),
        "impulse.erlang_calls": per(calls("impulse.erlang_mixture_density"), quad),
        "impulse.erlang_ms": per(secs("impulse.erlang_mixture_density") * 1e3, quad),
        "impulse.leggauss_calls": per(calls("impulse.leggauss"), quad),
        "impulse.leggauss_ms": per(secs("impulse.leggauss") * 1e3, quad),
        "impulse.claim_nodes": per(tracer.counts["claim_nodes"], quad),
        "impulse.v1_high_us": per(
            secs("impulse.impulse_v1_high") * 1e6, calls("impulse.impulse_v1_high")
        ),
        "scale.scale_params_us": per(
            secs("scale.scale_params") * 1e6, calls("scale.scale_params")
        ),
        "scale.phi_inverse_calls": per(calls("scale.phi_inverse"), quad),
        "trace.span_coverage": per(tracer.root_seconds(), timed_wall),
    }
    missing = set(tracer.missing)
    if cache_delta is None:
        missing.add("gammas.sequences_for")
    return {
        name: {"value": values[name], "unit": unit}
        for name, (unit, needs) in LAYER_METRICS.items()
        if not missing.intersection(needs)
    }
