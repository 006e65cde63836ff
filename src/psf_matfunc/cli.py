"""Command-line driver.

Commands: plan, kernel, simulate-fourier, simulate-contour, app, cost,
sweep. The parser declares each parameter once, with its type and default;
``psf-matfunc <command> --help`` lists the defaults. Only the named
command's flags are built; ``--help`` without a command still lists every
command. A flat ``key = value`` config file (--config) seeds a command's
defaults: its values are cast and checked like flags, a flag on the command
line wins, and keys that name no flag of the command are ignored. Tables
land in --out as RFC-4180 CSV, structured results as JSON; a one-line
summary goes to stdout. Exit status: 0 success, 2 precondition violation
(including malformed input), 3 numerical failure.

Identical config + seed produce byte-identical output files; the one
exception is the wall_time_ms column of app records, which reports real
elapsed time.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import contour, costmodel, fourier, io as pio, operators
from .errors import NumericalError, PrecondError, admit_eps
from .instances import random_normal_matrix, random_psd, random_state
from .kernels import SpectralProfile, envelope_function, lattice_kernel
from .linalg import eig, evolution_function, frobenius, hermitian_eig, matfun_apply


def _load_config(path: str) -> dict:
    cfg = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise PrecondError(
                        f"{path}:{lineno}: expected 'key = value', got {raw!r}")
                key, _, val = line.partition("=")
                cfg[key.strip()] = val.strip()
    except OSError as exc:
        raise PrecondError(f"cannot read config {path}: {exc}")
    return cfg


def _required(args: argparse.Namespace, key: str):
    """The value of a parameter that has no default."""
    val = getattr(args, key)
    if val is None:
        raise PrecondError(f"missing required parameter --{key}")
    return val


def _profile(args) -> SpectralProfile:
    return SpectralProfile(alpha=_required(args, "alpha"), T=_required(args, "T"),
                           mode=args.mode)


def _fourier_matrix(args) -> np.ndarray:
    if args.matrix is not None:
        return pio.load_matrix(args.matrix)
    if args.size < 1:
        raise PrecondError(f"--size must be >= 1, got {args.size}")
    return random_psd(np.random.default_rng(args.seed), args.size, norm=args.hnorm)


def _contour_setup(args, spec: pio.FunctionSpec):
    """(eig(A), R1, R2, psi, f(A) psi) shared by the contour commands, which
    decompose A only here; `contour.lattice_radii` admits the radii first."""
    if args.matrix is not None:
        A = pio.load_matrix(args.matrix)
    else:
        A = random_normal_matrix(np.random.default_rng(args.seed), args.size,
                                 spectral_radius=args.rho)
    dec = eig(A)
    r1, r2 = contour.lattice_radii(dec.spectral_radius, args.R1, args.R2, spec.pole_radius)
    psi = random_state(np.random.default_rng(args.seed + 1), dec.matrix.shape[0])
    return dec, r1, r2, psi, matfun_apply(dec, spec.fn, psi)


# ---------------------------------------------------------------------------
# commands

def _cmd_plan(args) -> int:
    profile = _profile(args)
    eps = _required(args, "eps")
    hnorm = _required(args, "hnorm")
    if hnorm < 0:
        raise PrecondError(f"operator norm must be finite and non-negative, got {hnorm}")
    # The planner reads max |lambda|, so [0, ||H||] stands in for the spectrum.
    plan = fourier.plan_fourier(profile, [0.0, hnorm], eps)
    budget = plan.error_bounds()
    pio.write_json(args.out, pio.fourier_plan_json(plan))
    print(f"plan: a={plan.a!r} K={plan.K} regime={plan.regime} "
          f"truncation={budget.truncation!r} aliasing={budget.aliasing!r} -> {args.out}")
    return 0


def _cmd_kernel(args) -> int:
    profile = _profile(args)
    lo, step, count = pio.parse_lattice(args.x)
    vals = lattice_kernel(profile, lo, step, count)
    xs = [lo + i * step for i in range(count)]
    envs = map(envelope_function(profile), xs)
    pio.write_csv(args.out, ["x", "kernel", "envelope"],
                  list(zip(xs, vals.tolist(), envs)))
    print(f"kernel: {count} points, p={profile.p:g} ({profile.regime}), "
          f"f(x0)={float(vals[0])!r} -> {args.out}")
    return 0


def _cmd_simulate_fourier(args) -> int:
    profile = _profile(args)
    eps = _required(args, "eps")
    dec = hermitian_eig(_fourier_matrix(args))
    plan = fourier.plan_fourier(profile, dec.eigenvalues.real, eps)
    [(_, err, budget)] = fourier.measure(plan, dec.eigenvalues.real, [plan.K])
    report = {"plan": pio.fourier_plan_json(plan), "size": dec.matrix.shape[0],
              "h_norm": dec.norm, "error_measured": err,
              "truncation_bound": budget.truncation,
              "aliasing_bound": budget.aliasing}
    pio.write_json(args.out, report)
    print(f"simulate-fourier: error={err!r} bound={budget.total!r} "
          f"K={plan.K} a={plan.a!r} -> {args.out}")
    return 0


def _cmd_simulate_contour(args) -> int:
    spec = pio.parse_function_spec(_required(args, "f"))
    admit_eps(args.eps)
    dec, r1, r2, psi, f_psi = _contour_setup(args, spec)
    f_psi_norm = frobenius(f_psi)
    plan = contour.plan_lattice(spec.fn, dec, args.eps, f_psi_norm, frobenius(psi),
                                r1=r1, r2=r2, m=args.m)
    [(_, err, relative, budget)] = contour.measure(dec, spec.fn, plan, psi, f_psi, [plan.m])
    report = {"plan": pio.contour_plan_json(plan), "size": dec.matrix.shape[0],
              "f": spec.label, "spectral_radius": dec.spectral_radius,
              "error_measured": err, "error_bound": budget.total,
              "f_psi_norm": f_psi_norm, "eps": args.eps,
              "error_relative": relative}
    pio.write_json(args.out, report)
    print(f"simulate-contour: error={err!r} bound={budget.total!r} m={plan.m} -> {args.out}")
    return 0


def _cmd_app(args) -> int:
    name = _required(args, "name")
    d = _required(args, "d")
    n = _required(args, "n")
    T = args.T if name == "matrix_poly" else _required(args, "T")   # matrix_poly has no T
    eps = _required(args, "eps")
    coeffs = None
    if args.coeffs is not None:
        try:
            coeffs = [float(t) for t in args.coeffs.split(",")]
        except ValueError as exc:
            raise PrecondError(f"--coeffs must be numbers a0,a1,...: {exc}")
        if not all(map(math.isfinite, coeffs)):
            raise PrecondError(f"--coeffs must be finite, got {args.coeffs}")
    rec = operators.run_application(name, operators.GridSpec(d, n, args.h), T, eps,
                                    seed=args.seed, coeffs=coeffs, m=args.m)
    pio.write_csv(args.out, pio.RECORD_HEADER, [pio.record_row(rec)])
    print(f"app {name}: error={rec.error_measured!r} bound={rec.error_bound!r} "
          f"params {rec.params} -> {args.out}")
    return 0


def _cmd_cost(args) -> int:
    which = args.path.lower()
    if which not in ("a", "b", "both"):
        raise PrecondError(f"--path must be a, b, or both, got {which!r}")
    eps = _required(args, "eps")
    profile = None
    if args.alpha is not None:
        profile = SpectralProfile(alpha=args.alpha, T=args.T, mode=args.mode)
    fspec = pio.parse_function_spec(args.f) if args.f else None

    if which == "a" and profile is None:
        raise PrecondError("cost --path a needs --alpha (and --T, --mode)")
    if which == "b":
        if fspec is None:
            raise PrecondError("cost --path b needs --f")
        profile = None                     # path b models f alone
    if which != "a" and profile is None and fspec is None:
        raise PrecondError("problem needs a decay profile, a holomorphic f, or both")

    report_a = report_b = None
    if profile is not None:     # [0, ||A||] stands in for the spectrum, as in `plan`
        report_a = costmodel.path_a_cost(
            fourier.plan_fourier(profile, [0.0, args.anorm], eps), args.anorm, args.ur)
    recommendation, reason = costmodel.recommend(profile)
    if which != "a" and recommendation != "path-a":
        # An analytic profile's e^{-T z^p} is entire.
        f = fspec.fn if fspec is not None else evolution_function(profile.p, profile.T)
        rho = args.rho
        if not 0.0 <= rho < math.inf:
            raise PrecondError(f"spectral radius must be finite and non-negative, got {rho}")
        # The 1 x 1 operator [rho] (kappa_s = 1); R1 = max(||A||, 1) at rho = 0.
        plan = contour.plan_lattice(f, contour.scalar_operator(rho), eps, args.fpsi,
                                    args.psinorm,
                                    r1=None if rho > 0 else max(args.anorm, 1.0),
                                    pole=fspec.pole_radius if fspec is not None else None)
        report_b = costmodel.path_b_cost(plan, f, args.gamma, args.fpsi, args.psinorm, eps)
    if which != "both":
        rep = report_a if which == "a" else report_b
        out = args.out or "cost.json"
        pio.write_json(out, pio.cost_report_json(rep))
        print(f"cost path-{which}: matrix_queries={rep.matrix_queries!r} "
              f"lcu_terms={rep.lcu_terms!r} -> {out}")
        return 0
    fields = ["matrix_queries", "state_queries", "lcu_terms",
              "amplification", "l1_norm", "u_r"]
    rows = [[name, getattr(report_a, name) if report_a else "",
             getattr(report_b, name) if report_b else ""] for name in fields]
    out = args.out or "cost.csv"
    pio.write_csv(out, ["metric", "path-a", "path-b"], rows)
    print(f"recommendation: {recommendation} ({reason}) -> {out}")
    return 0


def _cmd_sweep(args) -> int:
    which = _required(args, "path").lower()
    if which == "fourier":
        profile = _profile(args)
        ks = pio.parse_range(_required(args, "K"))
        dec = hermitian_eig(_fourier_matrix(args))
        plan = fourier.plan_fourier(profile, dec.eigenvalues.real, args.eps)
        rows = [[K, err, budget.total]
                for K, err, budget in fourier.measure(plan, dec.eigenvalues.real, ks)]
        pio.write_csv(args.out, ["K", "error_measured", "error_bound"], rows)
        print(f"sweep fourier: {len(rows)} points, a={plan.a!r} -> {args.out}")
        return 0
    if which == "contour":
        spec = pio.parse_function_spec(_required(args, "f"))
        ms = pio.parse_range(_required(args, "m"))
        admit_eps(args.eps)
        dec, r1, r2, psi, f_psi = _contour_setup(args, spec)
        # The radii and circle suprema do not depend on m: one plan serves every row.
        base = contour.plan_lattice(spec.fn, dec, r1=r1, r2=r2, m=int(ms[0]))
        rows = [[m, err, bound.aliasing, bound.truncation, rel]
                for m, err, rel, bound in contour.measure(dec, spec.fn, base, psi, f_psi, ms)]
        pio.write_csv(args.out, ["m", "error", "aliasing_bound", "truncation_bound",
                                 "error_relative"], rows)
        print(f"sweep contour: {len(rows)} points, R1={r1!r} R2={r2!r} -> {args.out}")
        return 0
    raise PrecondError(f"--path must be fourier or contour, got {which!r}")


# ---------------------------------------------------------------------------

def _profile_flags(p, T=None):
    p.add_argument("--alpha", type=float, help="decay order")
    p.add_argument("--T", type=float, default=T, help="evolution time")
    p.add_argument("--mode", choices=["root", "direct"], default="root",
                   help="operator access mode")


def _plan_flags(p):
    _profile_flags(p)
    p.add_argument("--eps", type=float, help="target accuracy")
    p.add_argument("--hnorm", type=float, help="operator norm ||H||")


def _kernel_flags(p):
    _profile_flags(p)
    p.add_argument("--x", default="0:10:0.5", help="lo:hi:step sample range")


def _simulate_fourier_flags(p):
    _profile_flags(p)
    p.add_argument("--eps", type=float, help="target accuracy")
    p.add_argument("--hnorm", type=float, default=1.0,
                   help="norm of the generated instance")
    p.add_argument("--matrix", help="operator file (.json or Matrix Market)")
    p.add_argument("--size", type=int, default=8, help="generated instance size")


def _simulate_contour_flags(p):
    p.add_argument("--f", help="exp-neg | exp-neg-i | poly:a0,a1,... | inv-shift:c")
    p.add_argument("--eps", type=float, default=1e-8, help="target relative accuracy")
    p.add_argument("--R1", type=float, help="lattice radius; unset means 1.1 rho(A)")
    p.add_argument("--R2", type=float, help="outer radius; unset means 2 R1")
    p.add_argument("--m", type=int, help="node count; unset means planned from --eps")
    p.add_argument("--matrix", help="operator file (.json or Matrix Market)")
    p.add_argument("--size", type=int, default=8, help="generated instance size")
    p.add_argument("--rho", type=float, default=0.5,
                   help="spectral radius of the generated instance")


def _app_flags(p):
    p.add_argument("--name", choices=list(operators._APPS), help="application")
    p.add_argument("--d", type=int, help="grid dimension")
    p.add_argument("--n", type=int, help="sites per axis")
    p.add_argument("--h", type=float, default=1.0, help="mesh size")
    p.add_argument("--T", type=float,
                   help="evolution time (matrix_poly only records it)")
    p.add_argument("--eps", type=float, help="target accuracy")
    p.add_argument("--m", type=int, help="node-count override (matrix_poly)")
    p.add_argument("--coeffs", help="polynomial coefficients a0,a1,...")


def _cost_flags(p):
    p.add_argument("--path", choices=["a", "b", "both"], default="both",
                   help="path to model; unset --out means cost.json, or "
                        "cost.csv for both")
    _profile_flags(p, T=1.0)
    p.add_argument("--eps", type=float, help="target accuracy")
    p.add_argument("--anorm", type=float, default=1.0, help="operator norm ||A||")
    p.add_argument("--ur", type=float, default=1.0, help="||u0|| / ||uT||")
    p.add_argument("--f", help="exp-neg | exp-neg-i | poly:a0,a1,... | inv-shift:c")
    p.add_argument("--rho", type=float, default=0.5, help="spectral radius of A")
    p.add_argument("--gamma", type=float, default=1.0, help="block-encoding factor")
    p.add_argument("--fpsi", type=float, default=1.0, help="||f(A) psi||")
    p.add_argument("--psinorm", type=float, default=1.0, help="||psi||")


def _sweep_flags(p):
    p.add_argument("--path", choices=["fourier", "contour"], help="path to sweep")
    _profile_flags(p)
    p.add_argument("--eps", type=float, default=1e-8, help="accuracy the plan targets")
    p.add_argument("--hnorm", type=float, default=1.0,
                   help="norm of the generated instance")
    p.add_argument("--K", help="lo:hi:step cutoff sweep")
    p.add_argument("--f", help="exp-neg | exp-neg-i | poly:a0,a1,... | inv-shift:c")
    p.add_argument("--m", help="lo:hi:step node sweep")
    p.add_argument("--R1", type=float, help="lattice radius; unset means 1.1 rho(A)")
    p.add_argument("--R2", type=float, help="outer radius; unset means 2 R1")
    p.add_argument("--matrix", help="operator file (.json or Matrix Market)")
    p.add_argument("--size", type=int, default=8, help="generated instance size")
    p.add_argument("--rho", type=float, default=0.5,
                   help="spectral radius of the generated instance")


class _Command(NamedTuple):
    run: Callable[[argparse.Namespace], int]
    help: str
    out: str | None          # default --out
    flags: Callable[[argparse.ArgumentParser], None]   # the command's own flags


_COMMANDS = {
    "plan": _Command(_cmd_plan, "Fourier-path planner: (a, K) and bounds",
                     "plan.json", _plan_flags),
    "kernel": _Command(_cmd_kernel, "tabulate the time-domain kernel", "kernel.csv",
                       _kernel_flags),
    "simulate-fourier": _Command(_cmd_simulate_fourier, "end-to-end cosine-series run",
                                 "simulate_fourier.json", _simulate_fourier_flags),
    "simulate-contour": _Command(_cmd_simulate_contour, "end-to-end contour run",
                                 "simulate_contour.json", _simulate_contour_flags),
    "app": _Command(_cmd_app, "named application driver", "app.csv", _app_flags),
    "cost": _Command(_cmd_cost, "query-count models and path comparison", None,
                     _cost_flags),
    "sweep": _Command(_cmd_sweep, "convergence sweeps (CSV)", "sweep.csv", _sweep_flags),
}


def _build_parser(argv: list[str]) -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and the subparser of each command it registers.

    Only the command that argv[0] names is registered, since only it runs;
    when argv[0] names none (no argv, -h, an unknown word) all are, so help
    and usage errors list every command.
    """
    names = argv[:1] if argv and argv[0] in _COMMANDS else list(_COMMANDS)
    ap = argparse.ArgumentParser(
        prog="psf-matfunc",
        description="Spectral-aliasing laboratory: cosine-series and contour "
                    "evaluation of matrix functions, planners, and cost models.")
    # A one-command build still names every command in its usage line. The
    # full build keeps the default metavar: its errors name the dest, "command".
    sub = ap.add_subparsers(
        dest="command", required=True,
        metavar=None if len(names) > 1 else "{" + ",".join(_COMMANDS) + "}")
    commands = {}
    for name in names:
        cmd = _COMMANDS[name]
        p = sub.add_parser(name, help=cmd.help,
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.add_argument("--config", help="flat key = value parameter file")
        p.add_argument("--out", default=cmd.out, help="output file")
        p.add_argument("--seed", type=int, default=0,
                       help="RNG seed for generated instances")
        cmd.flags(p)
        commands[name] = p
    return ap, commands


def _join_negative_values(argv: list[str]) -> list[str]:
    """Join `--eps -1e-8` into `--eps=-1e-8` and `--x -1:1:0.25` into
    `--x=-1:1:0.25`: argparse takes a value that starts with '-' for a flag
    unless it is a plain negative number, and every flag takes a value."""
    out = []
    for arg in argv:
        if out and re.fullmatch(r"--\w[\w-]*", out[-1]) and re.match(r"-[\d.]", arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = _join_negative_values(sys.argv[1:] if argv is None else argv)
    ap, commands = _build_parser(argv)
    args = ap.parse_args(argv)
    try:
        if args.config is not None:
            # Config values become the command's defaults, so argparse casts
            # them like flags and a flag given on the command line wins.
            cfg = _load_config(args.config)
            commands[args.command].set_defaults(**{
                k: v for k, v in cfg.items()
                if k in vars(args) and k not in ("config", "command")})
            args = ap.parse_args(argv)
        if args.seed < 0:
            raise PrecondError(f"--seed must be non-negative, got {args.seed}")
        return _COMMANDS[args.command].run(args)
    except PrecondError as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical: {exc}", file=sys.stderr)
        return 3

if __name__ == "__main__":
    sys.exit(main())
