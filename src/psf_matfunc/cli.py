"""Command-line driver.

Commands: plan, kernel, simulate-fourier, simulate-contour, app, cost,
sweep. Parameters come from flags, optionally seeded by a flat
``key = value`` config file (flags win). Tables land in --out as RFC-4180
CSV, structured results as JSON; a one-line summary goes to stdout. Exit
status: 0 success, 2 precondition violation (including malformed input),
3 numerical failure.

Identical config + seed produce byte-identical output files; the one
exception is the wall_time_ms column of app records, which reports real
elapsed time.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

import numpy as np

from . import contour, costmodel, fourier, io as pio, operators
from .errors import NumericalError, PrecondError
from .instances import random_normal_matrix, random_psd, random_state
from .kernels import SpectralProfile, decay_envelope, lattice_kernel
from .linalg import eig, evolution_matrix, matfun
from .util import THREADS_ENV


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
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


def _merge(args: argparse.Namespace, cfg: dict, key: str, cast, default=None,
           required: bool = False):
    """Flag value if given, else config value, else default."""
    val = getattr(args, key.replace("-", "_"), None)
    if val is None and key in cfg:
        try:
            val = cast(cfg[key])
        except (TypeError, ValueError) as exc:
            raise PrecondError(f"config key {key}: {exc}")
    if val is None:
        val = default
    if val is None and required:
        raise PrecondError(f"missing required parameter --{key}")
    return val


def _say(msg: str) -> None:
    print(msg)


def _out_path(args, cfg, default_name: str) -> str:
    return _merge(args, cfg, "out", str, default=default_name)


def _profile(args, cfg) -> SpectralProfile:
    alpha = _merge(args, cfg, "alpha", float, required=True)
    T = _merge(args, cfg, "T", float, required=True)
    mode = _merge(args, cfg, "mode", str, default="root")
    return SpectralProfile(alpha=alpha, T=T, mode=mode)


def _evolution_oracle(profile: SpectralProfile, H: np.ndarray) -> np.ndarray:
    """Dense e^{-T H^alpha} (or e^{-(T) H^p} in direct mode); even integer
    exponents accept indefinite Hermitian H."""
    p = profile.p
    if profile.mode == "direct" and profile.regime == "analytic":
        k = int(round(p))
        return matfun(H, lambda lam: np.exp(-profile.T * lam ** k))
    return evolution_matrix(H, profile.alpha if profile.mode == "root" else p,
                            profile.T)


def _fourier_matrix(args, cfg, profile, seed: int) -> np.ndarray:
    path = _merge(args, cfg, "matrix", str)
    if path is not None:
        return pio.load_matrix(path)
    size = _merge(args, cfg, "size", int, default=8)
    if size < 1:
        raise PrecondError(f"--size must be >= 1, got {size}")
    hnorm = _merge(args, cfg, "hnorm", float, default=1.0)
    return random_psd(np.random.default_rng(seed), size, norm=hnorm)


def _contour_matrix(args, cfg, seed: int) -> np.ndarray:
    path = _merge(args, cfg, "matrix", str)
    if path is not None:
        return pio.load_matrix(path)
    size = _merge(args, cfg, "size", int, default=8)
    rho = _merge(args, cfg, "rho", float, default=0.5)
    return random_normal_matrix(np.random.default_rng(seed), size,
                                spectral_radius=rho)


# ---------------------------------------------------------------------------
# commands

def _cmd_plan(args, cfg) -> int:
    profile = _profile(args, cfg)
    eps = _merge(args, cfg, "eps", float, required=True)
    hnorm = _merge(args, cfg, "hnorm", float, required=True)
    plan = fourier.plan_fourier(profile, hnorm, eps)
    budget = fourier.error_bounds(plan, hnorm)
    out = _out_path(args, cfg, "plan.json")
    pio.write_json(out, pio.fourier_plan_json(plan))
    _say(f"plan: a={plan.a!r} K={plan.K} regime={plan.regime} "
         f"truncation={budget.truncation!r} aliasing={budget.aliasing!r} -> {out}")
    return 0


def _cmd_kernel(args, cfg) -> int:
    profile = _profile(args, cfg)
    lo, step, count = pio.parse_lattice(_merge(args, cfg, "x", str, default="0:10:0.5"))
    vals = lattice_kernel(profile, lo, step, count)
    xs = [lo + i * step for i in range(count)]
    rows = []
    for x, v in zip(xs, vals):
        if x == 0.0 and profile.regime == "fractional":
            env = math.inf
        else:
            env = decay_envelope(profile, float(x))
        rows.append([float(x), float(v), env])
    out = _out_path(args, cfg, "kernel.csv")
    pio.write_csv(out, ["x", "kernel", "envelope"], rows)
    _say(f"kernel: {len(rows)} points, p={profile.p:g} ({profile.regime}), "
         f"f(x0)={float(vals[0])!r} -> {out}")
    return 0


def _cmd_simulate_fourier(args, cfg) -> int:
    profile = _profile(args, cfg)
    eps = _merge(args, cfg, "eps", float, required=True)
    seed = _merge(args, cfg, "seed", int, default=0)
    H = _fourier_matrix(args, cfg, profile, seed)
    h_norm = float(np.linalg.norm(H, 2))
    plan = fourier.plan_fourier(profile, h_norm, eps)
    approx = fourier.assemble_fourier_approx(plan, H)
    oracle = _evolution_oracle(profile, H)
    err = float(np.linalg.norm(approx - oracle, 2))
    budget = fourier.error_bounds(plan, h_norm)
    out = _out_path(args, cfg, "simulate_fourier.json")
    report = {"plan": pio.fourier_plan_json(plan), "size": H.shape[0],
              "h_norm": h_norm, "error_measured": err,
              "truncation_bound": budget.truncation,
              "aliasing_bound": budget.aliasing}
    pio.write_json(out, report)
    _say(f"simulate-fourier: error={err!r} bound={budget.total!r} "
         f"K={plan.K} a={plan.a!r} -> {out}")
    return 0


def _cmd_simulate_contour(args, cfg) -> int:
    spec = pio.parse_function_spec(_merge(args, cfg, "f", str, required=True))
    eps = _merge(args, cfg, "eps", float, default=1e-8)
    seed = _merge(args, cfg, "seed", int, default=0)
    A = _contour_matrix(args, cfg, seed)
    dec = eig(A)
    rho = dec.spectral_radius
    r1 = _merge(args, cfg, "R1", float, default=1.1 * rho)
    r2 = _merge(args, cfg, "R2", float, default=2.0 * r1)
    if spec.pole_radius is not None and r2 >= spec.pole_radius:
        raise PrecondError(
            f"outer radius {r2} reaches the singularity of {spec.label} "
            f"at |z| = {spec.pole_radius}")
    psi = random_state(np.random.default_rng(seed + 1), A.shape[0])
    f_psi = matfun(A, spec.fn) @ psi
    m = _merge(args, cfg, "m", int)
    if m is None:
        m = contour.plan_m(eps, r1, r2, contour.circle_sup(spec.fn, r2),
                           dec.kappa_s, float(np.linalg.norm(f_psi)),
                           float(np.linalg.norm(psi)), rho=rho)
    quad_n = _merge(args, cfg, "quad-n", int, default=max(8 * m, 256))
    plan = contour.make_plan(spec.fn, r1, r2, m, quad_n=quad_n,
                             kappa_s=dec.kappa_s)
    approx = contour.discrete_sum_apply(A, spec.fn, plan, psi)
    err = float(np.linalg.norm(approx - f_psi))
    psi_norm = float(np.linalg.norm(psi))
    bound = (contour.aliasing_norm_ratio(plan, rho) * plan.b1 * plan.kappa_s * psi_norm
             + contour.truncation_norm_bound(plan, psi_norm))
    out = _out_path(args, cfg, "simulate_contour.json")
    report = {"plan": pio.contour_plan_json(plan), "size": A.shape[0],
              "f": spec.label, "spectral_radius": rho,
              "error_measured": err, "error_bound": bound}
    pio.write_json(out, report)
    _say(f"simulate-contour: error={err!r} bound={bound!r} m={plan.m} -> {out}")
    return 0


def _cmd_app(args, cfg) -> int:
    name = _merge(args, cfg, "name", str, required=True)
    d = _merge(args, cfg, "d", int, required=True)
    n = _merge(args, cfg, "n", int, required=True)
    h = _merge(args, cfg, "h", float, default=1.0)
    T = _merge(args, cfg, "T", float, required=True)
    eps = _merge(args, cfg, "eps", float, required=True)
    seed = _merge(args, cfg, "seed", int, default=0)
    m = _merge(args, cfg, "m", int)
    coeffs_str = _merge(args, cfg, "coeffs", str)
    coeffs = None
    if coeffs_str is not None:
        try:
            coeffs = [float(t) for t in coeffs_str.split(",")]
        except ValueError as exc:
            raise PrecondError(f"--coeffs must be numbers a0,a1,...: {exc}")
    rec = operators.run_application(name, operators.GridSpec(d, n, h), T, eps,
                                    seed=seed, coeffs=coeffs, m=m)
    out = _out_path(args, cfg, "app.csv")
    pio.write_csv(out, pio.RECORD_HEADER, [pio.record_row(rec)])
    _say(f"app {name}: error={rec.error_measured!r} bound={rec.error_bound!r} "
         f"params {rec.params} -> {out}")
    return 0


def _cmd_cost(args, cfg) -> int:
    which = _merge(args, cfg, "path", str, default="both").lower()
    if which not in ("a", "b", "both"):
        raise PrecondError(f"--path must be a, b, or both, got {which!r}")
    eps = _merge(args, cfg, "eps", float, required=True)
    T = _merge(args, cfg, "T", float, default=1.0)
    anorm = _merge(args, cfg, "anorm", float, default=1.0)
    ur = _merge(args, cfg, "ur", float, default=1.0)
    alpha = _merge(args, cfg, "alpha", float)
    mode = _merge(args, cfg, "mode", str, default="root")
    fspec_str = _merge(args, cfg, "f", str)
    profile = None
    if alpha is not None:
        profile = SpectralProfile(alpha=alpha, T=T, mode=mode)
    fspec = pio.parse_function_spec(fspec_str) if fspec_str else None

    if which == "a":
        if profile is None:
            raise PrecondError("cost --path a needs --alpha (and --T, --mode)")
        rep = costmodel.path_a_cost(profile, anorm, T, eps, ur)
        out = _out_path(args, cfg, "cost.json")
        pio.write_json(out, pio.cost_report_json(rep))
        _say(f"cost path-a: matrix_queries={rep.matrix_queries!r} "
             f"lcu_terms={rep.lcu_terms!r} -> {out}")
        return 0

    rho = _merge(args, cfg, "rho", float, default=0.5)
    gamma = _merge(args, cfg, "gamma", float, default=1.0)
    fpsi = _merge(args, cfg, "fpsi", float, default=1.0)
    psinorm = _merge(args, cfg, "psinorm", float, default=1.0)
    if which == "b":
        if fspec is None:
            raise PrecondError("cost --path b needs --f")
        problem = costmodel.ProblemSpec(eps=eps, a_norm=anorm,
                                        spectral_radius=rho, f=fspec.fn,
                                        f_label=fspec.label, T=T, u_r=ur,
                                        gamma=gamma, psi_norm=psinorm,
                                        f_psi_norm=fpsi)
        rep = costmodel.compare_paths(problem).report_b
        out = _out_path(args, cfg, "cost.json")
        pio.write_json(out, pio.cost_report_json(rep))
        _say(f"cost path-b: matrix_queries={rep.matrix_queries!r} "
             f"lcu_terms={rep.lcu_terms!r} -> {out}")
        return 0

    problem = costmodel.ProblemSpec(eps=eps, a_norm=anorm, spectral_radius=rho,
                                    profile=profile,
                                    f=fspec.fn if fspec else None,
                                    f_label=fspec.label if fspec else "",
                                    T=T, u_r=ur, gamma=gamma,
                                    psi_norm=psinorm, f_psi_norm=fpsi)
    cmp = costmodel.compare_paths(problem)
    fields = ["matrix_queries", "state_queries", "lcu_terms",
              "amplification", "l1_norm", "u_r"]
    rows = []
    for name in fields:
        ra = getattr(cmp.report_a, name) if cmp.report_a else ""
        rb = getattr(cmp.report_b, name) if cmp.report_b else ""
        rows.append([name, ra, rb])
    out = _out_path(args, cfg, "cost.csv")
    pio.write_csv(out, ["metric", "path-a", "path-b"], rows)
    _say(f"recommendation: {cmp.recommendation} ({cmp.reason}) -> {out}")
    return 0


def _cmd_sweep(args, cfg) -> int:
    which = _merge(args, cfg, "path", str, required=True).lower()
    seed = _merge(args, cfg, "seed", int, default=0)
    out = _out_path(args, cfg, "sweep.csv")
    if which == "fourier":
        profile = _profile(args, cfg)
        eps = _merge(args, cfg, "eps", float, default=1e-8)
        ks = pio.parse_range(_merge(args, cfg, "K", str, required=True), integer=True)
        H = _fourier_matrix(args, cfg, profile, seed)
        h_norm = float(np.linalg.norm(H, 2))
        plan = fourier.plan_fourier(profile, h_norm, eps)
        oracle = _evolution_oracle(profile, H)
        cs = lattice_kernel(profile, 0.0, 1.0 / plan.a, int(ks.max()) + 1) / plan.a
        lam, V = np.linalg.eigh(H)
        theta = np.sqrt(np.clip(lam, 0.0, None)) if profile.mode == "root" else lam
        rows = []
        for K in ks:
            kk = np.arange(1, K + 1)
            series = cs[0] + 2.0 * (cs[1:K + 1] @ np.cos(np.outer(kk, theta) * (2 * np.pi / plan.a)))
            approx = (V * series) @ V.conj().T
            err = float(np.linalg.norm(approx - oracle, 2))
            bound = (fourier.truncation_bound(profile, K / plan.a)
                     + fourier.aliasing_bound(profile, plan.gap, eps))
            rows.append([int(K), err, bound])
        pio.write_csv(out, ["K", "error_measured", "error_bound"], rows)
        _say(f"sweep fourier: {len(rows)} points, a={plan.a!r} -> {out}")
        return 0
    if which == "contour":
        spec = pio.parse_function_spec(_merge(args, cfg, "f", str, required=True))
        ms = pio.parse_range(_merge(args, cfg, "m", str, required=True), integer=True)
        A = _contour_matrix(args, cfg, seed)
        dec = eig(A)
        rho = dec.spectral_radius
        r1 = _merge(args, cfg, "R1", float, default=1.1 * rho)
        r2 = _merge(args, cfg, "R2", float, default=2.0 * r1)
        psi = random_state(np.random.default_rng(seed + 1), A.shape[0])
        psi_norm = float(np.linalg.norm(psi))
        f_psi = matfun(A, spec.fn) @ psi
        rows = []
        for m in ms:
            plan = contour.make_plan(spec.fn, r1, r2, int(m), kappa_s=dec.kappa_s)
            approx = contour.discrete_sum_apply(A, spec.fn, plan, psi)
            err = float(np.linalg.norm(approx - f_psi))
            ali = contour.aliasing_norm_ratio(plan, rho) * plan.b1 * plan.kappa_s * psi_norm
            trunc = contour.truncation_norm_bound(plan, psi_norm)
            rows.append([int(m), err, ali, trunc])
        pio.write_csv(out, ["m", "error", "aliasing_bound", "truncation_bound"], rows)
        _say(f"sweep contour: {len(rows)} points, R1={r1!r} R2={r2!r} -> {out}")
        return 0
    raise PrecondError(f"--path must be fourier or contour, got {which!r}")


# ---------------------------------------------------------------------------

_COMMANDS = {
    "plan": _cmd_plan,
    "kernel": _cmd_kernel,
    "simulate-fourier": _cmd_simulate_fourier,
    "simulate-contour": _cmd_simulate_contour,
    "app": _cmd_app,
    "cost": _cmd_cost,
    "sweep": _cmd_sweep,
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="psf-matfunc",
        description="Spectral-aliasing laboratory: cosine-series and contour "
                    "evaluation of matrix functions, planners, and cost models.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value parameter file")
        p.add_argument("--out", help="output file (CSV or JSON per command)")
        p.add_argument("--seed", type=int, help="RNG seed for generated instances")
        p.add_argument("--threads", type=int, help=f"parallelism cap ({THREADS_ENV})")

    p = sub.add_parser("plan", help="Fourier-path planner: (a, K) and bounds")
    common(p)
    p.add_argument("--alpha", type=float)
    p.add_argument("--T", type=float)
    p.add_argument("--mode", choices=["root", "direct"])
    p.add_argument("--eps", type=float)
    p.add_argument("--hnorm", type=float)

    p = sub.add_parser("kernel", help="tabulate the time-domain kernel")
    common(p)
    p.add_argument("--alpha", type=float)
    p.add_argument("--T", type=float)
    p.add_argument("--mode", choices=["root", "direct"])
    p.add_argument("--x", help="lo:hi:step sample range")

    p = sub.add_parser("simulate-fourier", help="end-to-end cosine-series run")
    common(p)
    p.add_argument("--alpha", type=float)
    p.add_argument("--T", type=float)
    p.add_argument("--mode", choices=["root", "direct"])
    p.add_argument("--eps", type=float)
    p.add_argument("--hnorm", type=float)
    p.add_argument("--matrix", help="operator file (.json or Matrix Market)")
    p.add_argument("--size", type=int, help="generated instance size")

    p = sub.add_parser("simulate-contour", help="end-to-end contour run")
    common(p)
    p.add_argument("--f", help="exp-neg | exp-neg-i | poly:a0,a1,... | inv-shift:c")
    p.add_argument("--eps", type=float)
    p.add_argument("--R1", type=float)
    p.add_argument("--R2", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--quad-n", type=int, dest="quad_n")
    p.add_argument("--matrix")
    p.add_argument("--size", type=int)
    p.add_argument("--rho", type=float, help="spectral radius of the generated instance")

    p = sub.add_parser("app", help="named application driver")
    common(p)
    p.add_argument("--name", choices=list(operators._APPS))
    p.add_argument("--d", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--h", type=float)
    p.add_argument("--T", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--m", type=int, help="node-count override (matrix_poly)")
    p.add_argument("--coeffs", help="polynomial coefficients a0,a1,...")

    p = sub.add_parser("cost", help="query-count models and path comparison")
    common(p)
    p.add_argument("--path", choices=["a", "b", "both"])
    p.add_argument("--alpha", type=float)
    p.add_argument("--T", type=float)
    p.add_argument("--mode", choices=["root", "direct"])
    p.add_argument("--eps", type=float)
    p.add_argument("--anorm", type=float)
    p.add_argument("--ur", type=float)
    p.add_argument("--f")
    p.add_argument("--rho", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--fpsi", type=float)
    p.add_argument("--psinorm", type=float)

    p = sub.add_parser("sweep", help="convergence sweeps (CSV)")
    common(p)
    p.add_argument("--path", choices=["fourier", "contour"])
    p.add_argument("--alpha", type=float)
    p.add_argument("--T", type=float)
    p.add_argument("--mode", choices=["root", "direct"])
    p.add_argument("--eps", type=float)
    p.add_argument("--hnorm", type=float)
    p.add_argument("--K", help="lo:hi:step cutoff sweep")
    p.add_argument("--f")
    p.add_argument("--m", help="lo:hi:step node sweep")
    p.add_argument("--R1", type=float)
    p.add_argument("--R2", type=float)
    p.add_argument("--matrix")
    p.add_argument("--size", type=int)
    p.add_argument("--rho", type=float)
    return ap


def _join_negative_ranges(argv: list[str]) -> list[str]:
    """Join `--x -1:1:0.25` into `--x=-1:1:0.25`: argparse takes a value
    that starts with '-' for a flag unless it is a plain negative number."""
    out = []
    for arg in argv:
        if out and out[-1] == "--x" and re.match(r"-[\d.]", arg):
            out[-1] = f"--x={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(_join_negative_ranges(sys.argv[1:] if argv is None else argv))
    try:
        cfg = _load_config(args.config)
        threads = _merge(args, cfg, "threads", int)
        if threads is not None:
            if threads < 1:
                raise PrecondError(f"--threads must be >= 1, got {threads}")
            os.environ[THREADS_ENV] = str(threads)
        return _COMMANDS[args.command](args, cfg)
    except PrecondError as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
