"""Command-line surface: valuation, simulation, tables, sweeps, self-checks.

Exit codes: 0 success, 1 validation failure, 2 bad input, 3 numerical
non-convergence.  Every printed number carries a method tag; Monte Carlo
numbers always come with a standard error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import tables
from .barrier import boundary_residual, pide_residual, v1_barrier
from .gammas import (
    asymptotic_ratio_violations,
    invariant_violations,
    sequences_for,
    sequences_to_csv,
)
from .impulse import ImpulseMethod, ImpulseSpec, adaptive_gauss, value_impulse
from .model import (
    BarrierSpec,
    ExponentialClaims,
    ModelParams,
    NonConvergenceError,
    ParameterError,
    Reserves,
    UnsupportedDistributionError,
)
from .optimize import sweep_barrier, sweep_to_csv
from .scale import laplace_exponent, phi_inverse, scale_params
from .simulate import (
    SimConfig,
    estimate_barrier_moments,
    estimate_impulse_moments,
    trace_refracted_path,
)

EXIT_OK, EXIT_VALIDATION, EXIT_BAD_INPUT, EXIT_NONCONVERGENCE = 0, 1, 2, 3

_DEFAULT_CONFIG = {"c1": 4.0, "c2": 3.0, "lambda": 1.0, "alpha": 2.0, "q": 0.1}
_CONFIG_KEYS = set(_DEFAULT_CONFIG)


def load_params(config_path: str | None, overrides: dict[str, float | None]) -> ModelParams:
    """Model parameters from the JSON config document plus flag overrides."""
    values = dict(_DEFAULT_CONFIG)
    if config_path is not None:
        with open(config_path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ParameterError(["config must be a JSON object with keys c1, c2, lambda, alpha, q"])
        unknown = set(doc) - _CONFIG_KEYS
        if unknown:
            raise ParameterError([f"unknown config keys: {sorted(unknown)}"])
        # JSON true and false load as ints, and would pass as 1 and 0
        bad = sorted(k for k, v in doc.items()
                     if isinstance(v, bool) or not isinstance(v, (int, float)))
        if bad:
            raise ParameterError([f"config values must be JSON numbers: {bad}"])
        values.update({k: float(v) for k, v in doc.items()})
    for key, val in overrides.items():
        if val is not None:
            values[key] = val
    return ModelParams(
        c1=values["c1"],
        c2=values["c2"],
        lam=values["lambda"],
        claims=ExponentialClaims(rate=values["alpha"]),
        q=values["q"],
    )


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON document with keys c1, c2, lambda, alpha, q")
    for key in ("c1", "c2", "q", "alpha"):
        p.add_argument(f"--{key}", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)


def _params_from(args) -> ModelParams:
    return load_params(
        args.config,
        {
            "c1": args.c1,
            "c2": args.c2,
            "lambda": args.lam,
            "alpha": args.alpha,
            "q": args.q,
        },
    )


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _write(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)
        print(f"wrote {out_path}")


def cmd_value_barrier(args) -> int:
    params = _params_from(args)
    barrier = BarrierSpec.reflection(args.a, args.b, params)
    val = v1_barrier(Reserves(args.u1, args.u2), barrier, params, tol=args.tol)
    print(f"V1 = {val.value:.10g} [series terms={val.terms_used} tail={val.tail_estimate:.3g}]")
    return EXIT_OK


def cmd_value_impulse(args) -> int:
    params = _params_from(args)
    spec = ImpulseSpec(u1=args.u1, u2=args.u2, K=args.cost)
    val = value_impulse(spec, params)
    tag = val.method.value
    print(f"V1 = {val.value:.10g} [{tag}]")
    print(f"p = {val.p:.10g} [{tag}]")
    print(f"A = {val.A:.10g} [{tag}]")
    print(f"tau_integral = {val.tau_integral:.10g} [{tag}]")
    if val.method == ImpulseMethod.QUADRATURE_LOW:
        print(
            "note: the claim average runs over (0, u1]; a first claim above u1"
            " ruins company 1 immediately and cannot complete a cycle"
        )
    return EXIT_OK


def cmd_simulate(args) -> int:
    params = _params_from(args)
    orders = tuple(int(n) for n in args.moments.split(","))
    cfg = SimConfig(
        n_paths=args.paths,
        master_seed=args.seed,
        max_time=args.max_time,
        moment_orders=orders,
    )
    if args.control == "barrier":
        barrier = BarrierSpec.reflection(args.a, args.b, params)
        if args.trace:
            rows = trace_refracted_path(
                Reserves(args.u1, args.u2), barrier, params, args.seed, args.max_time
            )
            text = "t,y1,y2,event\n" + "".join(
                f"{t!r},{y1!r},{y2!r},{ev}\n" for t, y1, y2, ev in rows
            )
            _write(text, args.trace)
        est = estimate_barrier_moments(Reserves(args.u1, args.u2), barrier, params, cfg)
    else:
        spec = ImpulseSpec(u1=args.u1, u2=args.u2, K=args.cost)
        est = estimate_impulse_moments(spec, params, cfg)
    for n, (mean, se) in sorted(est.moments.items()):
        print(f"moment n={n}: mean={mean:.10g} se={se:.4g} [mc paths={est.n_paths} seed={args.seed}]")
    print(f"ruin_time_mean = {est.ruin_time_mean:.10g} [mc]")
    print(f"censored = {est.n_censored} truncation_bias_bound = {est.truncation_bias_bound:.4g} [mc]")
    print(f"ruined by company 2 alone = {est.n_ruin_company2} [mc]")
    return EXIT_OK


def cmd_table(args) -> int:
    params = _params_from(args)
    rows = tables.compute_table(args.number, params)
    _write(tables.table_to_csv(rows), args.out)
    print(f"cells = {len(rows)} max|diff| = {tables.max_abs_diff(rows):.4f} [series vs reference]")
    return EXIT_OK


def cmd_optimize(args) -> int:
    params = _params_from(args)
    result = sweep_barrier(
        Reserves(args.u1, args.u2), _float_list(args.a_grid), _float_list(args.b_grid), params
    )
    _write(sweep_to_csv(result), args.out)
    if result.argmax is None:
        print("no valid cell in the grid")
        return EXIT_BAD_INPUT
    a, b = result.argmax
    print(f"argmax a={a!r} b={b!r} v1={result.argmax_value:.10g} [series]")
    return EXIT_OK


def _run_validation(params: ModelParams, a_values: list[float], b: float) -> list[str]:
    """All self-checks; returns failure strings (empty = pass)."""
    failures: list[str] = []
    lamq = params.lam + params.q

    # exponent-family invariants
    for a in a_values:
        barrier = BarrierSpec.reflection(a, b, params)
        seqs = sequences_for(barrier, params, min_terms=60)
        bad = invariant_violations(seqs, params)
        bad += asymptotic_ratio_violations(seqs, params, k=40)
        failures += [f"gamma a={a}: {msg}" for msg in bad]

    # barrier residuals and boundary behavior at the first slope
    barrier = BarrierSpec.reflection(a_values[0], b, params)
    u = Reserves(1.0, 2.0)
    v = v1_barrier(u, barrier, params)
    res = pide_residual(u, barrier, params, h=1e-4)
    if not abs(res) < 1e-4 * lamq * v.value:
        failures.append(f"pide residual {res:.3e} exceeds 1e-4*(lam+q)*V")
    u1_line = 0.25 * barrier.b / (1.0 + barrier.a)
    u_line = Reserves(u1_line, barrier.line_height(u1_line))
    bres = boundary_residual(u_line, barrier, params, h=1e-4)
    if not abs(bres) < 1e-3 * barrier.delta0:
        failures.append(f"boundary residual {bres:.3e} exceeds 1e-3*delta0")
    corner = v1_barrier(Reserves(0.0, barrier.b), barrier, params).value
    if not abs(corner) < 1e-6:
        failures.append(f"corner value {corner:.3e} not within 1e-6 of zero")

    # scale function: root residuals, transform identity, derivative check
    sp = scale_params(params)
    tilt = phi_inverse(params)
    for theta in (sp.q_plus, sp.q_minus, tilt.phi):
        # relative to the size of psi's terms, which cancel down to q
        size = abs(sp.drift * theta) + abs(sp.lam * theta / (sp.alpha + theta)) + params.q
        err = abs(laplace_exponent(theta, sp.drift, sp.lam, sp.alpha) - params.q) / size
        if err > 1e-12:
            failures.append(f"psi(theta)=q residual {err:.2e} at theta={theta}")
    if abs(sp.A_plus - sp.A_minus - 1.0) > 1e-12:
        failures.append("A_plus - A_minus != 1")
    for shift in (0.5, 1.0, 2.0):
        theta = tilt.phi + shift
        val = adaptive_gauss(lambda x: np.exp(-theta * x) * sp.w_q(x), 0.0, 200.0, 1e-12)
        target = 1.0 / (laplace_exponent(theta, sp.drift, sp.lam, sp.alpha) - params.q)
        if abs(val - target) / abs(target) > 1e-6:
            failures.append(f"scale transform off by {abs(val-target)/abs(target):.2e} at theta={theta}")
    h = 1e-4 * params.q  # relative, so q - h stays positive
    sp_hi = scale_params(replace(params, q=params.q + h))
    sp_lo = scale_params(replace(params, q=params.q - h))
    for x in (0.5, 2.0, 10.0):
        fd = (sp_hi.w_q(x) - sp_lo.w_q(x)) / (2.0 * h)
        cf = sp.dw_dq(x)
        if abs(fd - cf) / max(abs(cf), 1e-12) > 1e-5:
            failures.append(f"dw_dq mismatch at x={x}: closed {cf:.6e} vs fd {fd:.6e}")
    return failures


def cmd_validate(args) -> int:
    params = _params_from(args)
    a_values = _float_list(args.a_values)
    if not a_values:
        raise ParameterError(["--a-values needs at least one slope"])
    failures = _run_validation(params, a_values, args.b)
    if args.dump_gammas:
        barrier = BarrierSpec.reflection(a_values[0], args.b, params)
        _write(sequences_to_csv(sequences_for(barrier, params)), args.dump_gammas)
    if failures:
        for msg in failures:
            print(f"FAIL {msg}")
        print(f"validation: {len(failures)} failure(s)")
        return EXIT_VALIDATION
    print("validation: all checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dividend2d",
        description="Discounted-dividend valuation for the two-company risk process",
    )
    sub = p.add_subparsers(dest="command", required=True)

    vb = sub.add_parser("value-barrier", help="series value under barrier reflection")
    vb.add_argument("--u1", type=float, required=True)
    vb.add_argument("--u2", type=float, required=True)
    vb.add_argument("--a", type=float, required=True)
    vb.add_argument("--b", type=float, required=True)
    vb.add_argument("--tol", type=float, default=1e-12)
    _add_param_flags(vb)
    vb.set_defaults(func=cmd_value_barrier)

    vi = sub.add_parser("value-impulse", help="impulse value (closed form or quadrature)")
    vi.add_argument("--u1", type=float, required=True)
    vi.add_argument("--u2", type=float, required=True)
    vi.add_argument("--cost", type=float, required=True, help="fixed cost K per impulse")
    _add_param_flags(vi)
    vi.set_defaults(func=cmd_value_impulse)

    sim = sub.add_parser("simulate", help="Monte Carlo moments of the dividend stream")
    sim.add_argument("control", choices=["barrier", "impulse"])
    sim.add_argument("--paths", type=int, required=True)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--moments", default="1")
    sim.add_argument("--u1", type=float, required=True)
    sim.add_argument("--u2", type=float, required=True)
    sim.add_argument("--a", type=float, default=None)
    sim.add_argument("--b", type=float, default=None)
    sim.add_argument("--cost", type=float, default=None)
    sim.add_argument("--max-time", type=float, default=None)
    sim.add_argument("--trace", default=None, help="write a single-path event CSV here")
    _add_param_flags(sim)
    sim.set_defaults(func=cmd_simulate)

    tb = sub.add_parser("table", help="recompute a benchmark table and diff it")
    tb.add_argument("number", type=int, choices=[1, 2, 3])
    tb.add_argument("--out", default=None)
    _add_param_flags(tb)
    tb.set_defaults(func=cmd_table)

    opt = sub.add_parser("optimize", help="sweep barrier parameters for fixed reserves")
    opt.add_argument("--u1", type=float, required=True)
    opt.add_argument("--u2", type=float, required=True)
    opt.add_argument("--a-grid", required=True, help="comma-separated slopes")
    opt.add_argument("--b-grid", required=True, help="comma-separated intercepts")
    opt.add_argument("--out", default=None)
    _add_param_flags(opt)
    opt.set_defaults(func=cmd_optimize)

    va = sub.add_parser("validate", help="run residual and invariant self-checks")
    va.add_argument("--a-values", default="0.1,0.2,0.5,1.0")
    va.add_argument("--b", type=float, default=14.0)
    va.add_argument("--dump-gammas", default=None)
    _add_param_flags(va)
    va.set_defaults(func=cmd_validate)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "simulate":
        missing = []
        if args.control == "barrier" and (args.a is None or args.b is None):
            missing.append("--a/--b")
        if args.control == "impulse" and args.cost is None:
            missing.append("--cost")
        if missing:
            print(f"missing flags for simulate {args.control}: {', '.join(missing)}")
            return EXIT_BAD_INPUT
        unused = {
            "barrier": {"--cost": args.cost},
            "impulse": {"--a": args.a, "--b": args.b, "--max-time": args.max_time, "--trace": args.trace},
        }[args.control]
        given = [flag for flag, val in unused.items() if val is not None]
        if given:
            print(f"flags not used by simulate {args.control}: {', '.join(given)}")
            return EXIT_BAD_INPUT
    try:
        return args.func(args)
    except (ParameterError, UnsupportedDistributionError, ValueError, OSError) as exc:
        print(f"error: {exc}")
        return EXIT_BAD_INPUT
    except NonConvergenceError as exc:
        print(f"numerical error: {exc}")
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
