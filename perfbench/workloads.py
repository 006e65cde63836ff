"""Workloads of the psf-matfunc desk benchmark.

Each workload is a fixed parameter grid. A case is the sequence of public
calls that one CLI command or one acceptance criterion makes. A case with a
command enters in-process through ``psf_matfunc.cli.main(argv)``, so `cli`
and `io` are timed too; a case with no command (closure diagnostics, L1
estimates, planned contour runs) calls the layer API directly. The seed only
picks the random instances (matrices and states) and the order of the
cases, never the grid. Every case is checked against the bound or
tolerance its result reports (see `Case.check`).

Why each workload exists is in `WORKLOADS`. What a change to one layer should
do to the end-to-end metrics, written before any such change is measured
(`self_ms` and counts come from the traced run, see tracing.py):

- `kernels.*.self_ms` moves case_p50_ms and cases_per_s on fourier-lcu and
  kernel-tables. It leaves contour-lattice unchanged (0 kernel calls) and
  grid-apps within its bound.
- `contour.truncation_integral`, `contour.discrete_sum_apply`,
  `linalg.resolvent_apply.calls` and `util.ordered_map` move case_p50_ms and
  cases_per_s on contour-lattice, with little effect on the matrix_poly
  cases of grid-apps. They leave the Fourier workloads unchanged.
- `linalg.eig`, `linalg.matfun`, `linalg.evolution_matrix`, `operators.*` and
  `fourier.assemble_fourier_approx` move case_p90_ms on grid-apps, where the
  largest dense dimensions form the tail. They leave fourier-lcu roughly
  unchanged, since n <= 32 there.
- `cli`/`io` import cost moves setup_s on every workload.
- The `kernels` cosine chunks (<= 128 MB) and the dense operators move
  peak_rss_mb on fourier-lcu and grid-apps respectively.

Inputs repeat from one pass over a workload to the next within a run. A
change that memoises across calls in one process would gain here what a user
running one command per process would not; such a claim needs its own
workload.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from psf_matfunc import cli, contour, instances, kernels, linalg
from psf_matfunc import io as pio
from psf_matfunc.errors import NumericalError, PrecondError

# Outcome classes, as the CLI exit codes: result, PrecondError, NumericalError.
OK, PRECOND, NUMERICAL = 0, 2, 3


@dataclass
class Case:
    """One closed-loop request: `call` does the work, `check` judges it.

    `call` returns (outcome class, payload). `check(payload)` returns
    (measured, bound) pairs; the case is correct when each measured <= bound.
    """

    cid: str
    call: Callable[[], tuple]
    check: Callable[[object], list] | None = None
    expect: int = OK
    smoke: bool = False    # part of the warm-up and of the smoke pass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[random.Random, str], list]


# ---------------------------------------------------------------------------
# case helpers


def _cli_case(cid, argv, out, check=None, expect=OK, smoke=False) -> Case:
    argv = [str(a) for a in argv] + ["--out", out]

    def call():
        try:
            return cli.main(argv), out
        except SystemExit as exc:   # argparse rejects a flag
            return int(exc.code or 0), out

    return Case(cid, call, check, expect, smoke)


def _api_case(cid, fn, check, smoke=False) -> Case:
    def call():
        try:
            return OK, fn()
        except PrecondError:
            return PRECOND, None
        except NumericalError:
            return NUMERICAL, None

    return Case(cid, call, check, OK, smoke)


def _csv_rows(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _check_simulate_fourier(path):
    r = _json(path)
    return [(r["error_measured"], r["truncation_bound"] + r["aliasing_bound"])]


def _check_rows(err_key, *bound_keys):
    def check(path):
        return [(float(row[err_key]), sum(float(row[k]) for k in bound_keys))
                for row in _csv_rows(path)]
    return check


_check_err_bound = _check_rows("error_measured", "error_bound")


def _seeds(rng: random.Random):
    while True:
        yield rng.randrange(1, 2 ** 31 - 1)


# ---------------------------------------------------------------------------
# fourier-lcu

# (alpha, eps, simulate sizes, sweep sizes) at root mode, T = 1, ||H|| = 1.
# K stays under ~100. alpha = 0.75 (p = 1.5) refines its kernel quadrature
# far longer (0.2-0.4 s a case), so it gets few, coarse cases.
_FOURIER_GRID = (
    [(alpha, eps, (4, 8, 16, 32), (8, 16, 32))
     for alpha in (1.25, 1.5, 1.75) for eps in (1e-2, 3e-3, 1e-3, 5e-4)]
    + [(0.75, 1e-1, (4, 16), (8, 32)), (0.75, 3e-2, (4, 16), ())])


def _fourier_lcu(rng: random.Random, out: str) -> list[Case]:
    seeds = _seeds(rng)
    cases = []
    for alpha, eps, sim_sizes, sweep_sizes in _FOURIER_GRID:
        common = ["--alpha", alpha, "--T", 1, "--eps", eps]
        first = alpha == 1.25 and eps == 1e-2
        for size in sim_sizes:
            cases.append(_cli_case(
                f"simulate-fourier/a{alpha}/e{eps}/n{size}",
                ["simulate-fourier", *common, "--size", size,
                 "--seed", next(seeds)],
                f"{out}/sf{len(cases)}.json", _check_simulate_fourier,
                smoke=first and size == 4))
        for size in sweep_sizes:
            cases.append(_cli_case(
                f"sweep-fourier/a{alpha}/e{eps}/n{size}",
                ["sweep", "--path", "fourier", *common, "--size", size,
                 "--K", "4:40:4", "--seed", next(seeds)],
                f"{out}/sw{len(cases)}.csv", _check_err_bound,
                smoke=first and size == 8))
    for d, ns in ((1, (4, 8, 16, 32)), (2, (2, 3, 4, 5))):
        for n in ns:
            cases.append(_cli_case(
                f"app-levy/d{d}/n{n}",
                ["app", "--name", "levy", "--d", d, "--n", n, "--T", 0.5,
                 "--eps", 0.1, "--seed", next(seeds)],
                f"{out}/lv{len(cases)}.csv", _check_err_bound,
                smoke=(d == 1 and n == 4)))
    # Admission defects (NaN norm, empty instance): the contract is exit 2.
    cases.append(_cli_case(
        "defect/plan-hnorm-nan",
        ["plan", "--alpha", 1, "--T", 1, "--eps", 1e-6, "--hnorm", "nan"],
        f"{out}/defect-plan.json", expect=PRECOND, smoke=True))
    cases.append(_cli_case(
        "defect/simulate-fourier-size-0",
        ["simulate-fourier", "--alpha", 1, "--T", 1, "--eps", 1e-6,
         "--size", 0, "--seed", next(seeds)],
        f"{out}/defect-sf.json", expect=PRECOND, smoke=True))
    return cases


# ---------------------------------------------------------------------------
# kernel-tables


def _kernel_closed_form(p: float, T: float, x: np.ndarray) -> np.ndarray | None:
    """Cauchy (p = 1) and Gaussian (p = 2) kernels; None elsewhere."""
    if p == 1.0:
        return 2.0 * T / (T ** 2 + 4.0 * np.pi ** 2 * x ** 2)
    if p == 2.0:
        return np.sqrt(np.pi / T) * np.exp(-np.pi ** 2 * x ** 2 / T)
    return None


def _check_kernel(p: float, T: float):
    def check(path):
        rows = _csv_rows(path)
        x = np.array([float(r["x"]) for r in rows])
        f = np.array([float(r["kernel"]) for r in rows])
        exact = _kernel_closed_form(p, T, x)
        if exact is None:
            return []
        return [(float(np.abs(f - exact).max()), 1e-10)]
    return check


def _check_l1(est: kernels.L1Estimate):
    if est.regime == "stable":
        return [(abs(est.value - 1.0), 1e-6)]
    # ||f||_1 >= |int f| = 1 for every profile.
    return [(max(0.0, 1.0 - est.value), 1e-6)]


# (alpha, points, half-width) of the tabulations; alpha = 0.75 (p = 1.5)
# refines its quadrature far longer, so it gets the short tables.
_KERNEL_TABLES = (
    [(0.75, 20, hi) for hi in (0.5, 1.0)]
    + [(0.5, n, hi) for n in (20, 50, 100) for hi in (0.5, 1.0, 2.0)]
    + [(a, n, hi) for a in (1.0, 1.25, 1.5, 1.75, 2.0)
       for n in (20, 50, 100, 200, 400) for hi in (0.5, 1.0, 2.0, 4.0)])
# Stable p = 2 alpha <= 2 (0.5, 1) and logarithmic p (3, 8). alpha = 0.75,
# 1.5 and 32 take 2.5-3.5 s each and 128 takes ~30 s; a pass must fit a
# fifth of a run so that each case's median drops a slow stretch.
_L1_ALPHAS = (0.5, 1.0, 3.0, 8.0)


def _kernel_tables(rng: random.Random, out: str) -> list[Case]:
    cases = []
    # No random instance here: a table end moved by 1% can cost one more
    # doubling of the quadrature, so the grid alone sets the inputs and the
    # seed only orders the cases.
    for i, (alpha, npts, hi) in enumerate(_KERNEL_TABLES):
        T = (0.5, 1.0, 2.0)[i % 3]
        step = hi / (npts - 1)
        cases.append(_cli_case(
            f"kernel/a{alpha}/n{npts}/x{hi}/T{T}",
            ["kernel", "--alpha", alpha, "--T", T, "--x", f"0:{hi!r}:{step!r}"],
            f"{out}/k{len(cases)}.csv", _check_kernel(2.0 * alpha, T),
            smoke=(npts == 20 and hi < 0.6 and alpha in (0.5, 1.0))))
    for alpha in _L1_ALPHAS:
        kern = kernels.TimeKernel(kernels.SpectralProfile(alpha, 1.0, "root"))
        cases.append(_api_case(
            f"l1/a{alpha}", lambda kern=kern: kernels.l1_norm_estimate(kern),
            _check_l1, smoke=(alpha == 3.0)))
    return cases


# ---------------------------------------------------------------------------
# contour-lattice

_FUNCTIONS = ("exp-neg", "exp-neg-i", "poly:1,2,0,3", "inv-shift:2")
_RHO = 0.5


def _reference_apply(spec: str, A: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """f(A) psi by a route the program does not take."""
    import scipy.linalg

    if spec == "exp-neg":
        return scipy.linalg.expm(-A) @ psi
    if spec == "exp-neg-i":
        return scipy.linalg.expm(-1j * A) @ psi
    if spec.startswith("poly:"):
        out = np.zeros_like(psi)
        for c in reversed([float(t) for t in spec[5:].split(",")]):
            out = A @ out + c * psi
        return out
    c = float(spec.split(":")[1])
    return np.linalg.solve(A + c * np.eye(A.shape[0]), psi)


def _cli_instance(seed: int, size: int):
    """The instance the CLI generates from --seed (cli._contour_matrix)."""
    A = instances.random_normal_matrix(np.random.default_rng(seed), size,
                                       spectral_radius=_RHO)
    return A, instances.random_state(np.random.default_rng(seed + 1), size)


def _check_simulate_contour(spec, seed, size, eps, memo):
    """Reported bound, and relative error <= eps for the planned m."""
    def check(path):
        if "ref" not in memo:
            memo["ref"] = float(np.linalg.norm(
                _reference_apply(spec, *_cli_instance(seed, size))))
        r = _json(path)
        return [(r["error_measured"], r["error_bound"]),
                (r["error_measured"] / memo["ref"], eps)]
    return check


def _check_relative(spec, A, psi, eps, memo):
    def check(approx):
        if "ref" not in memo:
            memo["ref"] = _reference_apply(spec, A, psi)
        ref = memo["ref"]
        return [(float(np.linalg.norm(approx - ref) / np.linalg.norm(ref)), eps)]
    return check


def _closure(A, f, psi, r2, m):
    """Criterion 07: S_m - f(A) psi + aliasing - truncation vanishes."""
    plan = contour.make_plan(f, 1.0, r2, m)
    return (contour.discrete_sum_apply(A, f, plan, psi)
            - linalg.matfun(A, f) @ psi
            + contour.aliasing_term(A, f, plan, psi)
            - contour.truncation_integral(A, f, plan, psi))


def _contour_lattice(rng: random.Random, out: str) -> list[Case]:
    seeds = _seeds(rng)
    cases = []
    for spec in _FUNCTIONS:
        fn = pio.parse_function_spec(spec).fn
        for n in (8, 16, 32, 64):
            first = spec == "exp-neg" and n == 8
            for eps in (1e-8, 1e-12):
                seed = next(seeds)
                cases.append(_cli_case(
                    f"simulate-contour/{spec}/n{n}/e{eps}",
                    ["simulate-contour", "--f", spec, "--eps", eps,
                     "--size", n, "--rho", _RHO, "--seed", seed],
                    f"{out}/sc{len(cases)}.json",
                    _check_simulate_contour(spec, seed, n, eps, {}),
                    smoke=first and eps == 1e-8))
            if n in (8, 32, 64):
                cases.append(_cli_case(
                    f"sweep-contour/{spec}/n{n}",
                    ["sweep", "--path", "contour", "--f", spec, "--m", "8:48:8",
                     "--size", n, "--rho", _RHO, "--seed", next(seeds)],
                    f"{out}/sw{len(cases)}.csv",
                    _check_rows("error", "aliasing_bound", "truncation_bound"),
                    smoke=first))
            for opt in (False, True):
                irng = np.random.default_rng(next(seeds))
                A = instances.random_normal_matrix(irng, n, spectral_radius=_RHO)
                psi = instances.random_state(irng, n)
                # The optimizer's radius cap stays inside the pole at |z| = 2.
                cap = 3.0 if spec.startswith("inv-shift") else 16.0

                def run(A=A, psi=psi, fn=fn, opt=opt, cap=cap):
                    plan = contour.plan_contour(A, fn, psi, 1e-8, optimize=opt,
                                                r2_cap_factor=cap)
                    return contour.discrete_sum_apply(A, fn, plan, psi)

                cases.append(_api_case(
                    f"plan-contour/{spec}/n{n}/opt{int(opt)}", run,
                    _check_relative(spec, A, psi, 1e-8, {}), smoke=first))
            for m in (8, 16):
                irng = np.random.default_rng(next(seeds))
                A = instances.random_normal_matrix(irng, n, spectral_radius=0.6)
                psi = instances.random_state(irng, n)
                # 1/(z+2) is singular on |z| = 2: remainder circle at 1.8.
                r2 = 1.8 if spec.startswith("inv-shift") else 2.0
                cases.append(_api_case(
                    f"closure/{spec}/n{n}/m{m}",
                    lambda A=A, fn=fn, psi=psi, r2=r2, m=m: _closure(A, fn, psi, r2, m),
                    lambda res: [(float(np.linalg.norm(res)), 1e-8)],
                    smoke=first and m == 8))
    return cases


# ---------------------------------------------------------------------------
# grid-apps

# (app, d, n, eps, T). The two largest d = 2 grids (dense dimension 380
# and 456 for heat and biharmonic) run once per app, so they form the tail.
_SMALL_GRIDS = ([(1, n) for n in (8, 16, 32, 48, 64, 96)]
                + [(2, n) for n in (4, 6, 8)])
_APP_CASES = (
    [(app, d, n, eps, 0.5) for app in ("heat", "biharmonic")
     for d, n in _SMALL_GRIDS for eps in (1e-4, 1e-6, 1e-8)]
    + [(app, 1, n, 1e-6, 0.1) for app in ("heat", "biharmonic")
       for n in (8, 16, 32, 48, 64, 96)]
    + [(app, 2, n, 1e-6, 0.5) for app in ("heat", "biharmonic")
       for n in (10, 12)]
    + [("matrix_poly", d, n, eps, 0.5)
       for d, n in _SMALL_GRIDS + [(2, 10), (2, 12)]
       for eps in (1e-4, 1e-6, 1e-8)])


def _grid_apps(rng: random.Random, out: str) -> list[Case]:
    seeds = _seeds(rng)
    cases = []
    for app, d, n, eps, T in _APP_CASES:
        cases.append(_cli_case(
            f"app-{app}/d{d}/n{n}/e{eps}/T{T}",
            ["app", "--name", app, "--d", d, "--n", n, "--T", T,
             "--eps", eps, "--seed", next(seeds)],
            f"{out}/a{len(cases)}.csv", _check_err_bound,
            smoke=(d == 1 and n == 8 and eps == 1e-6 and T == 0.5)))
    # Admission defect (non-numeric coefficient): the contract is exit 2.
    cases.append(_cli_case(
        "defect/app-coeffs-x",
        ["app", "--name", "matrix_poly", "--d", 1, "--n", 8, "--T", 0.5,
         "--eps", 1e-6, "--coeffs", "1,x"],
        f"{out}/defect-app.csv", expect=PRECOND, smoke=True))
    return cases


WORKLOADS = {w.name: w for w in (
    Workload("fourier-lcu",
             "fractional-p Fourier runs (simulate, sweep, app levy), n<=32: "
             "kernel coefficient sampling is >99% of the time, the contour "
             "path is never used", _fourier_lcu),
    Workload("kernel-tables",
             "kernel tables near the origin and L1 estimates: the kernels "
             "layer on dense near-origin points and Gauss abscissae, not on "
             "sparse lattice points k/a", _kernel_tables),
    Workload("contour-lattice",
             "simulate-contour, sweep contour, plan_contour and the closure "
             "check, n<=64: shifted resolvent solves dominate and no kernel "
             "is sampled", _contour_lattice),
    Workload("grid-apps",
             "app heat, biharmonic and matrix_poly on d=1,2 grids up to dense "
             "dimension ~460: dense eig, matfun and operator assembly "
             "dominate, kernels and contour do little", _grid_apps),
)}


def build(name: str, seed: int, out: str) -> list[Case]:
    """The workload's cases for this seed, in the seed's order."""
    rng = random.Random(seed)
    cases = WORKLOADS[name].build(rng, out)
    rng.shuffle(cases)
    return cases
