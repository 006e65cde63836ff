import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from psf_matfunc import contour, util
from psf_matfunc.contour import (ContourPlan, aliasing_term, circle_rule, circle_sup,
                                 discrete_sum_apply, lattice_radii,
                                 make_plan, optimize_radius, plan_contour,
                                 plan_lattice, plan_m, scalar_operator,
                                 truncation_integral)
from psf_matfunc.errors import EPS_FLOOR, ErrorBudget, PrecondError
from psf_matfunc.instances import random_normal_matrix, random_state
from psf_matfunc.linalg import eig, matfun, matfun_apply

from helpers import random_diagonalizable, random_hermitian


def one(z):
    return np.ones_like(np.asarray(z, dtype=complex))


def exp_neg(z):
    return np.exp(-z)


def test_circle_rule_nodes():
    w, _ = circle_rule(one, 1.0, 4)
    np.testing.assert_allclose(sorted(w, key=np.angle),
                               [-1j, 1.0, 1j, -1.0], atol=1e-15)
    np.testing.assert_allclose(circle_rule(one, 2.0, 1)[0], [2.0], atol=1e-15)
    w, _ = circle_rule(one, 0.7, 9)
    np.testing.assert_allclose(np.abs(w), 0.7, rtol=1e-14)
    assert abs(w.sum()) < 1e-14
    with pytest.raises(PrecondError):
        circle_rule(one, -1.0, 4)
    with pytest.raises(PrecondError):
        circle_rule(one, 1.0, 0)


def test_circle_rule_weights():
    """The weights are z_k g(z_k)/n: for g = 1 on the unit circle they are
    the nodes over n, which sum to 0 and have 1-norm 1."""
    z, c = circle_rule(one, 1.0, 8)
    np.testing.assert_array_equal(c, z / 8)
    assert abs(c.sum()) < 1e-15
    assert np.abs(c).sum() == pytest.approx(1.0, rel=1e-15)


def test_circle_sup():
    assert circle_sup(exp_neg, 2.0) == pytest.approx(math.exp(2.0), rel=1e-6)
    assert circle_sup(lambda z: z**3, 1.5) == pytest.approx(1.5**3, rel=1e-12)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(PrecondError):
            circle_sup(lambda z: 1.0 / (z - 1.0), 1.0)


def test_plan_validation():
    with pytest.raises(PrecondError):
        ContourPlan(r1=2.0, r2=1.0, m=4, b1=1.0, b2=1.0)
    with pytest.raises(PrecondError):
        ContourPlan(r1=1.0, r2=2.0, m=0, b1=1.0, b2=1.0)
    with pytest.raises(PrecondError):
        ContourPlan(r1=1.0, r2=2.0, m=4, b1=1.0, b2=1.0, kappa_s=0.5)
    for rho in (-0.5, 1.0, math.nan):        # the spectrum must lie inside R1
        with pytest.raises(PrecondError, match="rho"):
            ContourPlan(r1=1.0, r2=2.0, m=4, b1=1.0, b2=1.0, rho=rho)
    ContourPlan(r1=1.0, r2=2.0, m=2 ** 19, b1=1.0, b2=1.0)
    for m in (2 ** 19 + 1, 10 ** 15):        # node and quadrature tables too large
        with pytest.raises(PrecondError, match="node count"):
            ContourPlan(r1=1.0, r2=2.0, m=m, b1=1.0, b2=1.0)
    plan = make_plan(one, 1.0, 2.0, 4)
    assert plan.mu == 0.5
    assert plan.quad_n == 256
    assert make_plan(one, 1.0, 2.0, 40).quad_n == 320


def test_discrete_sum_scalar_geometric():
    """For f = 1 the lattice sum telescopes to 1/(1 - (lam/R1)^m)."""
    plan = make_plan(one, 1.0, 2.0, 3)
    out = discrete_sum_apply(np.array([[0.5]]), one, plan, np.array([1.0]))
    assert abs(out[0] - 8.0 / 7.0) < 1e-14


def test_discrete_sum_zero_operator_is_identity():
    plan = make_plan(one, 1.0, 2.0, 4)
    out = discrete_sum_apply(np.array([[0.0]]), one, plan, np.array([3.0]))
    assert abs(out[0] - 3.0) < 1e-14


def test_discrete_sum_converged_diagonal():
    plan = make_plan(exp_neg, 1.0, 2.0, 40)
    D = np.diag([0.1, 0.4])
    psi = np.array([1.0, 1.0])
    out = discrete_sum_apply(D, exp_neg, plan, psi)
    assert np.linalg.norm(out - matfun(D, exp_neg) @ psi) <= 1e-10


def test_discrete_sum_requires_enclosure():
    plan = make_plan(one, 1.0, 2.0, 4)
    with pytest.raises(PrecondError):
        discrete_sum_apply(np.diag([1.2, 0.3]), one, plan, np.ones(2))


def test_polynomial_replica_identity():
    """Degree < m: the lattice sum reproduces f(A) (I - (A/R1)^m)^{-1} psi
    to machine precision, with no quadrature involved."""
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
        worst = max(worst, np.linalg.norm(out - target))
    assert worst <= 1e-12


def test_high_degree_folds_onto_dual_lattice():
    """Degree >= m: coefficients fold modulo m, i.e. the sum sees the
    remainder of f modulo z^m - R1^m."""
    coeffs = np.arange(1.0, 14.0)       # degree 12, m = 8
    f = lambda z: np.polynomial.polynomial.polyval(z, coeffs)
    plan = make_plan(f, 1.0, 2.0, 8)
    lam = 0.37
    out = discrete_sum_apply(np.array([[lam]]), f, plan, np.array([1.0]))
    folded = np.zeros(8)
    for j, c in enumerate(coeffs):
        folded[j % 8] += c
    expect = np.polynomial.polynomial.polyval(lam, folded) / (1.0 - lam**8)
    assert abs(out[0] - expect) <= 1e-12


def test_aliasing_term_examples():
    plan = make_plan(exp_neg, 1.0, 2.0, 3)
    val = aliasing_term(np.array([[0.5]]), exp_neg, plan, np.array([1.0]))
    assert abs(val[0] + math.exp(-0.5) / 7.0) < 1e-15
    plan4 = make_plan(exp_neg, 1.0, 2.0, 4)
    assert np.linalg.norm(
        aliasing_term(np.zeros((2, 2)), exp_neg, plan4, np.ones(2))) == 0.0


@pytest.mark.parametrize("r1,m", [(2.0, 2000), (0.5, 1070)], ids=["inf", "subnormal"])
def test_aliasing_term_refuses_r1m_outside_the_normal_floats(r1, m):
    """An infinite R1^m makes the ratio nan and a subnormal one has lost
    digits: either is refused (exit 2), not raised as an OverflowError."""
    plan = make_plan(exp_neg, r1, 2.0 * r1, m)
    with pytest.raises(PrecondError, match="normal floats"):
        aliasing_term(np.array([[0.1]]), exp_neg, plan, np.array([1.0]))


@pytest.mark.parametrize("r1,m", [(2.0, 2000), (0.5, 1070)], ids=["inf", "subnormal"])
def test_truncation_integral_refuses_r1m_outside_the_normal_floats(r1, m):
    """The remainder term reads the same R1^m as the aliasing term: an
    infinite one raised an OverflowError there, and a subnormal one
    returned 0. Both are refused."""
    plan = make_plan(exp_neg, r1, 2.0 * r1, m)
    with pytest.raises(PrecondError, match="normal floats"):
        truncation_integral(np.array([[0.1]]), exp_neg, plan, np.array([1.0]))


def test_aliasing_norm_ratio_dominates_normal_case():
    """With f = 1 (B1 = 1) on a normal A (kappa_s = 1), the overlap channel
    at ||psi|| = 1 is the bound on ||g(A)||."""
    A = random_normal_matrix(default_rng(3), 6, spectral_radius=0.45)
    plan = plan_lattice(one, eig(A), r1=1.0, r2=2.0, m=3)
    g = matfun(A, lambda z: z**3 / (z**3 - 1.0))
    assert np.linalg.norm(g, 2) <= plan.error_bounds(1.0).aliasing + 1e-12
    with pytest.raises(PrecondError):
        plan_lattice(one, scalar_operator(1.5), r1=1.0, r2=2.0, m=3)


def test_truncation_vanishes_for_low_degree_at_large_radius():
    f = lambda z: 1.0 + 2.0 * z + 3.0 * z**3
    A = random_normal_matrix(default_rng(5), 6, spectral_radius=0.5)
    psi = random_state(default_rng(6), 6)
    plan = make_plan(f, 1.0, 1e4, 8)
    rem = truncation_integral(A, f, plan, psi)
    assert np.linalg.norm(rem) <= 1e-8 * np.linalg.norm(psi)


def test_truncation_within_norm_bound():
    A = random_normal_matrix(default_rng(5), 6, spectral_radius=0.5)
    psi = random_state(default_rng(6), 6)
    plan = make_plan(exp_neg, 1.0, 2.0, 8)
    rem = truncation_integral(A, psi=psi, f=exp_neg, plan=plan)
    assert np.linalg.norm(rem) <= plan.error_bounds(float(np.linalg.norm(psi))).truncation


@pytest.mark.parametrize("make", [
    lambda rng: random_hermitian(rng, 6, norm=0.5),
    lambda rng: random_diagonalizable(rng, 6, spectral_radius=0.5, basis_spread=0.3),
], ids=["hermitian", "non-normal"])
def test_decomposition_stands_in_for_its_matrix(make):
    """Handing eig(A) instead of A gives the same bits: one decomposition."""
    rng = default_rng(12)
    A = make(rng)
    psi = random_state(rng, 6)
    dec = eig(A)
    plan = make_plan(exp_neg, 1.0, 2.0, 8)
    np.testing.assert_array_equal(matfun(dec, exp_neg), matfun(A, exp_neg))
    for fn in (discrete_sum_apply, aliasing_term, truncation_integral):
        np.testing.assert_array_equal(fn(dec, exp_neg, plan, psi),
                                      fn(A, exp_neg, plan, psi))


def test_contour_sums_make_one_batched_solve(monkeypatch):
    """Each lattice sum or remainder is one `resolvent_apply` call over all
    its shifts, and no contour routine goes through the thread pool."""
    shifts = []
    real = contour.resolvent_apply

    def counting(A, z, weights, b):
        shifts.append(np.size(z))
        return real(A, z, weights, b)

    def no_pool(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("contour called util.ordered_map")

    monkeypatch.setattr(contour, "resolvent_apply", counting)
    monkeypatch.setattr(util, "ordered_map", no_pool)
    A = random_normal_matrix(default_rng(3), 6, spectral_radius=0.5)
    psi = random_state(default_rng(4), 6)
    plan = make_plan(exp_neg, 1.0, 2.0, 12)
    discrete_sum_apply(A, exp_neg, plan, psi)
    assert shifts == [plan.m]
    truncation_integral(A, exp_neg, plan, psi)
    assert shifts == [plan.m, plan.quad_n]
    assert not hasattr(contour, "ordered_map")


def _closure_residual(A, psi, f, r2, m):
    plan = make_plan(f, 1.0, r2, m)
    S = discrete_sum_apply(A, f, plan, psi)
    f_psi = matfun(A, f) @ psi
    alias = aliasing_term(A, f, plan, psi)
    rem = truncation_integral(A, f, plan, psi)
    return np.linalg.norm(S - f_psi + alias - rem)


def test_four_term_closure():
    """Lattice sum minus target plus aliasing minus remainder cancels for
    any f holomorphic on a neighbourhood of the outer circle."""
    rng = default_rng(7)
    A = random_normal_matrix(rng, 6, spectral_radius=0.6)
    psi = random_state(rng, 6)
    for f in (exp_neg, lambda z: 1.0 / (z + 2.0), lambda z: z**5):
        assert _closure_residual(A, psi, f, 1.8, 8) <= 1e-12


def test_four_term_closure_entire_outer_radius_two():
    rng = default_rng(7)
    A = random_normal_matrix(rng, 6, spectral_radius=0.6)
    psi = random_state(rng, 6)
    worst = max(_closure_residual(A, psi, exp_neg, 2.0, m)
                for m in (4, 8, 16))
    assert worst <= 1e-8


def test_geometric_convergence_slope():
    for rho, r1, r2 in [(0.5, 1.0, 2.0), (0.3, 1.0, 4.0)]:
        rng = default_rng(11)
        A = random_normal_matrix(rng, 8, spectral_radius=rho)
        psi = random_state(rng, 8)
        target = matfun(A, exp_neg) @ psi
        tnorm = np.linalg.norm(target)
        ms = np.arange(8, 49, 4)
        errs = []
        for m in ms:
            plan = make_plan(exp_neg, r1, r2, int(m))
            out = discrete_sum_apply(A, exp_neg, plan, psi)
            errs.append(np.linalg.norm(out - target) / tnorm)
        errs = np.asarray(errs)
        keep = errs > 1e-12
        slope = np.polyfit(ms[keep], np.log10(errs[keep]), 1)[0]
        ref = math.log10(max(rho / r1, r1 / r2))
        assert abs(slope - ref) <= 0.10 * abs(ref)


def test_plan_m_examples():
    assert plan_m(2e-6, 1.0, 2.0, 1.0, 1.0, 1.0, 1.0, rho=0.0) == 22
    # widening the annulus can only shrink the node count
    assert plan_m(2e-6, 1.0, 4.0, 1.0, 1.0, 1.0, 1.0, rho=0.0) == 11
    # halving eps costs at most one extra node at mu = 1/2
    for eps in (1e-3, 1e-5, 1e-7):
        lo = plan_m(eps, 1.0, 2.0, 1.0, 1.0, 1.0, 1.0)
        hi = plan_m(eps / 2.0, 1.0, 2.0, 1.0, 1.0, 1.0, 1.0)
        assert 0 <= hi - lo <= 1
    with pytest.raises(PrecondError):
        plan_m(2.0, 1.0, 2.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(PrecondError):
        plan_m(1e-6, 1.0, 2.0, 1.0, 1.0, 1.0, 1.0, rho=1.5)


def test_planned_m_is_sound():
    worst = 0.0
    for i in range(20):
        rng = default_rng(1000 + i)
        n = int(rng.integers(4, 12))
        rho = float(rng.uniform(0.2, 0.7))
        A = random_normal_matrix(rng, n, spectral_radius=rho)
        psi = random_state(rng, n)
        plan = plan_contour(A, exp_neg, psi, 1e-8)
        out = discrete_sum_apply(A, exp_neg, plan, psi)
        target = matfun(A, exp_neg) @ psi
        rel = np.linalg.norm(out - target) / np.linalg.norm(target)
        worst = max(worst, rel)
    assert worst <= 1e-8


def test_plan_contour_guards():
    with pytest.raises(PrecondError):
        lattice_radii(1.2, 1.0)
    with pytest.raises(PrecondError):
        plan_contour(np.zeros((2, 2)), exp_neg, np.ones(2), 1e-6)


def test_error_bounds_channels():
    plan = replace(make_plan(exp_neg, 1.0, 2.0, 12), kappa_s=1.5, rho=0.5)
    budget = plan.error_bounds(2.0)
    mum, q = 0.5 ** 12, 0.5 ** 12         # mu = R1/R2 and rho/R1 are both 1/2
    assert budget == ErrorBudget(
        truncation=2.0 * plan.b2 * 1.5 * 2.0 * mum / ((1.0 - mum) * 1.0),
        aliasing=q / (1.0 - q) * plan.b1 * 1.5 * 2.0)
    assert budget.total == budget.truncation + budget.aliasing
    with pytest.raises(PrecondError):
        replace(plan, rho=1.0)               # rho on the lattice circle


def test_plan_m_takes_a_subnormal_eps():
    """An eps below the rounding floor is refused (exit 2), the floor named;
    at the floor m follows the overlap channel. The remainder target may
    still underflow (||f(A) psi|| = 5e-131 against B2 = 1e286, as for e^{-A}
    at spectrum 300) or overflow at an admitted eps: the node count is found
    in logarithms, finite both ways."""
    with pytest.raises(PrecondError, match=re.escape(f"[{EPS_FLOOR:g}, 1)")):
        plan_m(5e-324, 0.55, 1.1, 3.0, 1.0, 1.0, 1.0, rho=0.5)
    m = plan_m(EPS_FLOOR, 0.55, 1.1, 3.0, 1.0, 1.0, 1.0, rho=0.5)
    assert m == math.ceil((math.log(4.0) - math.log(EPS_FLOOR)) / math.log(1.1))
    log_t2 = (math.log(1e-8) + math.log(5e-131) + math.log(330.0)
              - math.log(4.0 * 660.0) - math.log(1e286))
    assert 1e-8 * 5e-131 * 330.0 / (4.0 * 660.0 * 1e286) == 0.0
    assert plan_m(1e-8, 330.0, 660.0, 1e286, 1.0, 5e-131, 1.0, rho=300.0) == math.ceil(
        -log_t2 / math.log(2.0))
    assert plan_m(0.5, 1.0, 2.0, 1e-300, 1.0, 1e300, 1.0) == 1


def test_plan_lattice_defaults():
    assert lattice_radii(0.5) == (1.1 * 0.5, 2.0 * 1.1 * 0.5)
    assert lattice_radii(0.5, 0.8) == (0.8, 1.6)
    assert lattice_radii(0.5, None, 3.0) == (0.55, 3.0)
    with pytest.raises(PrecondError):
        lattice_radii(0.0)                   # nilpotent: no automatic R1
    with pytest.raises(PrecondError):
        lattice_radii(0.5, 0.5)              # R1 must enclose the spectrum
    for r1, r2 in ((math.inf, None), (math.nan, None), (1.0, math.inf), (1e308, None)):
        with pytest.raises(PrecondError, match="finite"):
            lattice_radii(0.5, r1, r2)       # 2 R1 overflows at R1 = 1e308
    plan = plan_lattice(exp_neg, scalar_operator(0.5), 1e-8, 1.0, 1.0)
    assert (plan.r1, plan.r2) == lattice_radii(0.5)
    assert plan.m == plan_m(1e-8, plan.r1, plan.r2, circle_sup(exp_neg, plan.r2),
                            1.0, 1.0, 1.0, rho=0.5)
    assert plan.quad_n == max(8 * plan.m, 256)
    assert plan.b1 == circle_sup(exp_neg, plan.r1)
    assert (plan.rho, plan.kappa_s) == (0.5, 1.0)
    fixed = plan_lattice(exp_neg, scalar_operator(0.5), m=40)
    assert (fixed.m, fixed.quad_n) == (40, 320)
    assert make_plan(exp_neg, 1.0, 2.0, 8) == plan_lattice(
        exp_neg, scalar_operator(0.0), r1=1.0, r2=2.0, m=8)


def test_plan_lattice_reads_its_operator():
    """The planner takes rho and kappa_s from the decomposition, and the
    plan's bound uses both."""
    dec = eig(random_diagonalizable(4, 6, spectral_radius=0.5))
    assert dec.kappa_s > 1.0
    plan = plan_lattice(exp_neg, dec, 1e-8, 1.0, 1.0)
    assert (plan.rho, plan.kappa_s) == (dec.spectral_radius, dec.kappa_s)
    assert plan.m == plan_m(1e-8, plan.r1, plan.r2, plan.b2, dec.kappa_s, 1.0, 1.0,
                            rho=dec.spectral_radius)
    q = (dec.spectral_radius / plan.r1) ** plan.m
    assert plan.error_bounds(1.0).aliasing == q / (1.0 - q) * plan.b1 * dec.kappa_s


_POLY = np.array([1.0, 2.0, 0.0, 3.0])


@settings(derandomize=True, deadline=None, max_examples=150)
@given(n=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1),
       rho=st.floats(0.05, 1.5), g1=st.floats(1.05, 2.0),
       g2=st.floats(1.1, 3.0), m=st.integers(4, 48),
       kind=st.sampled_from(["exp-neg", "poly", "inv-shift"]),
       pole=st.floats(1.05, 3.0), sign=st.sampled_from([1.0, -1.0]))
def test_contour_bound_covers_measured_error(n, seed, rho, g1, g2, m, kind,
                                             pole, sign):
    """||S_m psi - f(A) psi|| <= the plan's reported bound on normal A, for
    rho < R1 < R2 and, for 1/(z + c), R2 < |c|."""
    rng = default_rng(seed)
    A = random_normal_matrix(rng, n, spectral_radius=rho)
    psi = random_state(rng, n)
    r1 = g1 * rho
    r2 = g2 * r1
    if kind == "exp-neg":
        f = exp_neg
    elif kind == "poly":
        f = lambda z: np.polynomial.polynomial.polyval(z, _POLY)
    else:
        c = sign * pole * r2
        f = lambda z: 1.0 / (z + c)
    plan = plan_lattice(f, eig(A), r1=r1, r2=r2, m=m)
    psi_norm = float(np.linalg.norm(psi))
    err = float(np.linalg.norm(discrete_sum_apply(A, f, plan, psi)
                               - matfun(A, f) @ psi))
    assert err <= plan.error_bounds(psi_norm).total + 1e-13 * psi_norm


def test_plan_contour_optimized_radius_runs():
    A = random_normal_matrix(default_rng(9), 5, spectral_radius=0.4)
    psi = random_state(default_rng(10), 5)
    plan = plan_contour(A, exp_neg, psi, 1e-6, optimize=True)
    assert plan.r2 > plan.r1
    out = discrete_sum_apply(A, exp_neg, plan, psi)
    target = matfun(A, exp_neg) @ psi
    assert np.linalg.norm(out - target) <= 1e-6 * np.linalg.norm(target)


@pytest.mark.parametrize("degree", [2, 3, 5])
def test_optimize_radius_monomials(degree):
    r2 = optimize_radius(lambda r: r ** degree, 1.0, 16.0)
    assert r2 < 16.0                         # an interior optimum
    target = (degree + 1) / (degree - 1)
    assert abs(r2 - target) <= 0.01 * target


def test_optimize_radius_constant_hits_cap():
    assert optimize_radius(lambda r: 1.0, 1.0, 16.0) == 16.0
    with pytest.raises(PrecondError):
        optimize_radius(lambda r: r ** 2, 2.0, 1.0)


def _grid_argmin(f_sup, r1, cap):
    """argmin of f_sup(R2) R2 / (R2 - R1)^2 on a log-offset grid over
    (R1, cap], refined three times around the best point."""
    lo, hi = math.log(1e-9 * (cap - r1)), math.log(cap - r1)
    for _ in range(4):
        t = np.linspace(lo, hi, 401)
        phi = [f_sup(r1 + math.exp(s)) * (r1 + math.exp(s)) / math.exp(2 * s) for s in t]
        k = int(np.argmin(phi))
        lo, hi = t[max(k - 2, 0)], t[min(k + 2, t.size - 1)]
    return r1 + math.exp(t[k])


_MIXED = np.array([1.0, -2.0, 0.5, 3.0, -1.0])
_SUPS = {
    "exp-neg": (lambda r: circle_sup(exp_neg, r), 16.0),
    "exp-neg-i": (lambda r: circle_sup(lambda z: np.exp(-1j * z), r), 16.0),
    "mixed-poly": (lambda r: circle_sup(
        lambda z: np.polynomial.polynomial.polyval(z, _MIXED), r), 16.0),
    "inv-shift": (lambda r: circle_sup(lambda z: 1.0 / (z + 2.0), r), 3.0),
}


@pytest.mark.parametrize("name", sorted(_SUPS))
def test_optimize_radius_matches_a_dense_grid(name):
    """The one golden-section search finds the minimum a dense scan finds:
    the remainder prefactor has a single minimum on (R1, cap]."""
    f_sup, cap_factor = _SUPS[name]
    r1 = 0.55
    r2 = optimize_radius(f_sup, r1, cap_factor * r1)
    assert r2 == pytest.approx(_grid_argmin(f_sup, r1, cap_factor * r1), rel=1e-3)


@pytest.mark.parametrize("f_sup", [lambda r: r ** 3, lambda r: 1.0,
                                   lambda r: math.exp(r)], ids=["cube", "const", "exp"])
def test_optimize_radius_is_one_search(f_sup):
    """One bracket, with R2 to 1e-6 R2, takes at most 50 evaluations."""
    calls = []
    optimize_radius(lambda r: calls.append(r) or f_sup(r), 0.55, 16.0 * 0.55)
    assert len(calls) <= 50


def test_measure_rows_at_each_node_count():
    """Each row holds m, ||S_m psi - target||, that error relative to
    ||target|| (None at target = 0) and the bounds of the plan at m."""
    dec = eig(random_normal_matrix(default_rng(3), 6, spectral_radius=0.5))
    psi = random_state(default_rng(4), 6)
    plan = plan_lattice(exp_neg, dec, m=8)
    f_psi = matfun_apply(dec, exp_neg, psi)
    rows = contour.measure(dec, exp_neg, plan, psi, f_psi, [8, 4, 16])
    for (m, err, rel, budget), want in zip(rows, (8, 4, 16)):
        at_m = replace(plan, m=want)
        assert m == want and budget == at_m.error_bounds(np.linalg.norm(psi))
        assert err == np.linalg.norm(discrete_sum_apply(dec, exp_neg, at_m, psi) - f_psi)
        assert rel == err / np.linalg.norm(f_psi)
    assert rows[2][1] < rows[0][1] < rows[1][1]
    [(_, err, rel, _)] = contour.measure(dec, exp_neg, plan, psi, np.zeros(6), [8])
    assert rel is None and err > 0.0
