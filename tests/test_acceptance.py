"""End-to-end acceptance battery.

Each test prints one [PASS]/[FAIL] line (run with -s to see them all) and
enforces both the numeric tolerance and a wall-clock budget.
"""

import math
import time

import numpy as np
from numpy.random import default_rng

from psf_matfunc.contour import (discrete_sum_apply, aliasing_term, make_plan,
                                 optimize_radius, plan_contour, plan_m,
                                 truncation_integral)
from psf_matfunc.costmodel import path_a_queries
from psf_matfunc.fourier import assemble_fourier_approx, plan_fourier
from psf_matfunc.instances import random_normal_matrix, random_psd, \
    random_state
from psf_matfunc.kernels import (SpectralProfile, TimeKernel, kernel_values,
                                 l1_norm_estimate)
from psf_matfunc.linalg import evolution_matrix, matfun
from psf_matfunc.operators import (GridSpec, dirac_operator, gradient_stack,
                                   shifted_encoding)

from helpers import interior_mask, psf_residual


def _verdict(num, name, budget, t0, ok, detail):
    elapsed = time.perf_counter() - t0
    in_budget = elapsed < budget
    status = "PASS" if (ok and in_budget) else "FAIL"
    print(f"[{status}] criterion {num:02d} {name}: {detail} "
          f"[{elapsed:.2f}s / {budget:g}s]")
    assert ok, f"criterion {num:02d} {name}: {detail}"
    assert in_budget, f"criterion {num:02d} over budget: {elapsed:.2f}s"


def test_criterion_01_kernel_closed_forms():
    t0 = time.perf_counter()
    xs = np.linspace(0.0, 20.0, 50)
    worst = 0.0
    for T in (0.5, 1.0, 4.0):
        gauss = kernel_values(TimeKernel(SpectralProfile(1.0, T, "root")), xs)
        worst = max(worst, float(np.abs(
            gauss - np.sqrt(np.pi / T) * np.exp(-np.pi**2 * xs**2 / T)).max()))
        cauchy = kernel_values(TimeKernel(SpectralProfile(0.5, T, "root")), xs)
        worst = max(worst, float(np.abs(
            cauchy - 2.0 * T / (T**2 + 4.0 * np.pi**2 * xs**2)).max()))
    _verdict(1, "kernel closed forms", 5.0, t0, worst <= 1e-10,
             f"max |f - closed form| = {worst:.3e} (tol 1e-10)")


def test_criterion_02_scalar_lattice_identity():
    t0 = time.perf_counter()
    res = psf_residual(6.0, 0.3, 64, 4)
    _verdict(2, "scalar lattice identity", 1.0, t0, res <= 1e-10,
             f"residual = {res:.3e} at (a, delta, K, N) = (6, 0.3, 64, 4)")


def test_criterion_03_cosine_series_end_to_end():
    t0 = time.perf_counter()
    H = random_psd(default_rng(7), 8, norm=1.0)
    plan_r = plan_fourier(SpectralProfile(1.0, 1.0, "root"), [1.0], 1e-6)
    err_r = float(np.linalg.norm(
        assemble_fourier_approx(plan_r, H) - evolution_matrix(H, 1.0, 1.0), 2))
    plan_d = plan_fourier(SpectralProfile(2.0, 1.0, "direct"), [1.0], 1e-6)
    err_d = float(np.linalg.norm(
        assemble_fourier_approx(plan_d, H)
        - matfun(H, lambda lam: np.exp(-lam**2)), 2))
    ok = err_r <= 2e-6 and err_d <= 2e-6
    _verdict(3, "cosine-series end-to-end", 10.0, t0, ok,
             f"root alpha=1: {err_r:.3e}, direct alpha=2: {err_d:.3e} (tol 2e-6)")


def test_criterion_04_fractional_tail_slope():
    t0 = time.perf_counter()
    xs = np.geomspace(10.0, 100.0, 25)
    details = []
    ok = True
    for alpha, target in ((0.75, -2.5), (1.25, -3.5)):
        kern = TimeKernel(SpectralProfile(alpha, 1.0, "root"))
        slope = np.polyfit(np.log10(xs), np.log10(np.abs(kernel_values(kern, xs))), 1)[0]
        ok &= abs(slope - target) <= 0.15
        details.append(f"p={2 * alpha:g}: {slope:.4f} (target {target} +- 0.15)")
    _verdict(4, "fractional tail slope", 30.0, t0, ok, "; ".join(details))


def test_criterion_05_l1_regimes():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in (0.5, 0.75, 1.0):          # p = 1, 1.5, 2
        est = l1_norm_estimate(TimeKernel(SpectralProfile(alpha, 1.0, "root")))
        worst = max(worst, abs(est.value - 1.0))
    stable_ok = worst <= 1e-6
    alphas = (8.0, 32.0, 128.0)
    vals = [l1_norm_estimate(TimeKernel(SpectralProfile(a, 1.0, "root"))).value
            for a in alphas]
    target = 4.0 / math.pi**2
    slopes = [(v2 - v1) / (math.log(a2) - math.log(a1))
              for (a1, v1), (a2, v2) in zip(zip(alphas, vals),
                                            zip(alphas[1:], vals[1:]))]
    slope_ok = all(abs(s - target) <= 0.25 * target for s in slopes)
    _verdict(5, "coefficient L1 regimes", 60.0, t0, stable_ok and slope_ok,
             f"stable band max |L1 - 1| = {worst:.2e}; growth slopes "
             f"{', '.join(f'{s:.4f}' for s in slopes)} vs 4/pi^2 = {target:.4f}")


def test_criterion_06_contour_polynomial_exactness():
    t0 = time.perf_counter()
    f = lambda z: 1.0 + 2.0 * z + 3.0 * z**3
    plan = make_plan(f, 1.0, 2.0, 8)
    worst = 0.0
    for i in range(10):
        A = random_normal_matrix(default_rng(40 + i), 8,
                                 spectral_radius=0.1 + 0.5 * i / 9)
        psi = random_state(default_rng(140 + i), 8)
        out = discrete_sum_apply(A, f, plan, psi)
        target = matfun(A, f) @ np.linalg.solve(
            np.eye(8) - np.linalg.matrix_power(A, 8), psi)
        worst = max(worst, float(np.linalg.norm(out - target)))
    _verdict(6, "contour polynomial exactness", 5.0, t0, worst <= 1e-12,
             f"worst deviation over 10 instances = {worst:.3e} (tol 1e-12)")


def test_criterion_07_resolvent_sum_closure():
    t0 = time.perf_counter()
    rng = default_rng(7)
    A = random_normal_matrix(rng, 6, spectral_radius=0.6)
    psi = random_state(rng, 6)

    def residual(f, r2, m):
        plan = make_plan(f, 1.0, r2, m)
        out = (discrete_sum_apply(A, f, plan, psi)
               - matfun(A, f) @ psi
               + aliasing_term(A, f, plan, psi)
               - truncation_integral(A, f, plan, psi))
        return float(np.linalg.norm(out))

    worst_exp = max(residual(lambda z: np.exp(-z), 2.0, m)
                    for m in (4, 8, 16))
    # 1/(z+2) is singular exactly on |z| = 2, where the remainder quadrature
    # would sample the pole; the integral's value is radius-independent for
    # any circle between the lattice and the pole, so it is evaluated at 1.8.
    worst_inv = max(residual(lambda z: 1.0 / (z + 2.0), 1.8, m)
                    for m in (4, 8, 16))
    ok = worst_exp <= 1e-8 and worst_inv <= 1e-8
    _verdict(7, "resolvent-sum closure", 10.0, t0, ok,
             f"exp(-z) at R2=2: {worst_exp:.3e}; 1/(z+2) at R2=1.8: "
             f"{worst_inv:.3e} (pole sits on |z|=2; remainder circle moved "
             "inward, value unchanged by holomorphy; tol 1e-8)")


def test_criterion_08_contour_geometric_rate():
    t0 = time.perf_counter()
    exp_neg = lambda z: np.exp(-z)
    details = []
    ok = True
    for rho, r1, r2 in ((0.5, 1.0, 2.0), (0.3, 1.0, 4.0)):
        rng = default_rng(11)
        A = random_normal_matrix(rng, 8, spectral_radius=rho)
        psi = random_state(rng, 8)
        target = matfun(A, exp_neg) @ psi
        tnorm = float(np.linalg.norm(target))
        ms = np.arange(8, 49, 4)
        errs = np.array([
            float(np.linalg.norm(discrete_sum_apply(
                A, exp_neg, make_plan(exp_neg, r1, r2, int(m)), psi)
                - target)) / tnorm
            for m in ms])
        keep = errs > 1e-12
        slope = float(np.polyfit(ms[keep], np.log10(errs[keep]), 1)[0])
        ref = math.log10(max(rho / r1, r1 / r2))
        ok &= abs(slope - ref) <= 0.10 * abs(ref)
        details.append(f"(rho={rho:g}, R2={r2:g}): {slope:.4f} vs {ref:.4f}")

    eps = 1e-8
    worst_rel = 0.0
    for i in range(20):
        rng = default_rng(1000 + i)
        n = int(rng.integers(4, 12))
        rho = float(rng.uniform(0.2, 0.7))
        A = random_normal_matrix(rng, n, spectral_radius=rho)
        psi = random_state(rng, n)
        plan = plan_contour(A, exp_neg, psi, eps)
        out = discrete_sum_apply(A, exp_neg, plan, psi)
        target = matfun(A, exp_neg) @ psi
        worst_rel = max(worst_rel, float(
            np.linalg.norm(out - target) / np.linalg.norm(target)))
    ok &= worst_rel <= eps
    _verdict(8, "contour geometric rate", 30.0, t0, ok,
             "; ".join(details) + f"; planned-m worst rel err = "
             f"{worst_rel:.2e} (eps {eps:g}, 20 instances)")


def test_criterion_09_outer_radius_optimizer():
    t0 = time.perf_counter()
    details = []
    ok = True
    for d in (2, 3, 5):
        r2 = optimize_radius(lambda r: r ** d, 1.0, 16.0)
        target = (d + 1) / (d - 1)
        ok &= r2 < 16.0 and abs(r2 - target) <= 0.01 * target   # interior optimum
        details.append(f"d={d}: {r2:.6f} vs {target:.6f}")
    _verdict(9, "outer-radius optimizer", 1.0, t0, ok,
             "; ".join(details) + " (tol 1%)")


def test_criterion_10_operator_structure():
    t0 = time.perf_counter()
    worst = 0.0
    for d, n in ((1, 8), (2, 4)):
        L = gradient_stack(GridSpec(d, n, 1.0))
        H = dirac_operator(L).H
        cols = L.shape[1]
        scale = max(float(np.abs(H @ H).max()), 1.0)
        H2 = H @ H
        block = np.zeros_like(H2)
        block[:cols, :cols] = L.conj().T @ L
        block[cols:, cols:] = L @ L.conj().T
        worst = max(worst,
                    float(np.abs(H - H.conj().T).max()),
                    float(np.abs(H2 - block).max()) / scale,
                    float(np.abs((H2 @ H2)[:cols, :cols]
                                 - (L.T @ L) @ (L.T @ L)).max()) / scale**2)
    dirac_ok = worst <= 1e-12
    shift_ok = True
    diag_worst = 0.0
    row_worst = 0.0
    for d, n in ((1, 8), (2, 4)):
        g = GridSpec(d, n, 1.0)
        A = shifted_encoding(g)
        diag_max = float(np.abs(np.diag(A)).max())
        row_err = abs(float(np.abs(A[interior_mask(d, n)]).sum(axis=1).max()) - 1.0)
        diag_worst = max(diag_worst, diag_max)
        row_worst = max(row_worst, row_err)
        shift_ok &= diag_max <= 1e-14 and row_err <= 1e-14
    _verdict(10, "operator structure", 5.0, t0, dirac_ok and shift_ok,
             f"block-root invariants worst = {worst:.2e} (tol 1e-12); "
             f"shifted encoding: max |diag| = {diag_worst:.1e}, "
             f"max |interior row L1 - 1| = {row_worst:.1e} (tol 1e-14)")


def test_criterion_11_cost_model_exponents():
    t0 = time.perf_counter()
    ratio_worst = 0.0
    for alpha in (1.0, 2.0, 3.0):
        prof = SpectralProfile(alpha, 1.0, "root")
        base = path_a_queries(prof, 1.0, 0.0, 1e-6)[0]
        m1 = path_a_queries(prof, 1.0, 1.0, 1e-6)[0]
        m16 = path_a_queries(prof, 1.0, 16.0, 1e-6)[0]
        ratio_worst = max(ratio_worst, abs(
            (m16 - base) / (m1 - base) - 16.0 ** (1.0 / (2.0 * alpha))))
    prof_f = SpectralProfile(0.75, 1.0, "root")
    e1 = path_a_queries(prof_f, 1.0, 1.0, 1e-4)[0]
    e2 = path_a_queries(prof_f, 1.0, 1.0, 1e-4 / 16.0)[0]
    frac_diff = abs(e2 / e1 - 16.0 ** (1.0 / 1.5))
    exact_ok = ratio_worst <= 1e-9 and frac_diff <= 1e-9

    step_ok = True
    steps_seen = []
    for r2 in (2.0, 1.3):
        ms = [plan_m(1e-4 / 2**k, 1.0, r2, 1.0, 1.0, 1.0, 1.0)
              for k in range(8)]
        steps = np.diff(ms)
        target = math.ceil(math.log(2.0) / math.log(r2 / 1.0))
        step_ok &= all(abs(int(s) - target) <= 1 for s in steps)
        steps_seen.append(f"R2/R1={r2:g}: steps {sorted(set(int(s) for s in steps))} "
                          f"vs {target} +- 1")
    _verdict(11, "cost-model exponents", 1.0, t0, exact_ok and step_ok,
             f"time-ratio dev {ratio_worst:.1e}, eps-ratio dev {frac_diff:.1e}; "
             + "; ".join(steps_seen))
