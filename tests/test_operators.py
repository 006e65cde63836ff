import math

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psf_matfunc import contour, fourier, operators
from psf_matfunc.errors import PrecondError
from psf_matfunc.instances import random_state
from psf_matfunc.kernels import SpectralProfile
from psf_matfunc.linalg import (eig, evolution_matrix, frobenius, hermitian_eig, matfun,
                                matfun_apply)
from psf_matfunc.operators import (_DEFAULT_COEFFS, GridSpec, difference_operator,
                                   dirac_operator, gradient_stack, laplacian_eigenpairs,
                                   run_application, shifted_encoding)

from helpers import interior_mask


def test_difference_operator_structure():
    L = difference_operator(4, 0.5)
    assert L.shape == (5, 4)
    assert set(np.unique(L)) == {-2.0, 0.0, 2.0}
    lap1d = (np.diag(2.0 * np.ones(4)) + np.diag(-np.ones(3), 1)
             + np.diag(-np.ones(3), -1)) / 0.25
    np.testing.assert_array_equal(L.T @ L, lap1d)
    with pytest.raises(PrecondError):
        difference_operator(0, 0.5)
    with pytest.raises(PrecondError):
        difference_operator(4, 0.0)


def test_gradient_stack_matches_kronecker_layout():
    g1 = GridSpec(1, 5, 1.0)
    np.testing.assert_array_equal(gradient_stack(g1),
                                  difference_operator(5, 1.0))
    g2 = GridSpec(2, 2, 0.7)
    lp = difference_operator(2, 0.7)
    stacked = np.vstack([np.kron(lp, np.eye(2)), np.kron(np.eye(2), lp)])
    np.testing.assert_array_equal(gradient_stack(g2), stacked)


def test_gradient_stack_norm_cap():
    for d, n in [(1, 8), (2, 4), (3, 3)]:
        g = GridSpec(d, n, 0.3)
        L = gradient_stack(g)
        assert np.linalg.norm(L.T @ L, 2) <= 4.0 * d / 0.3**2 + 1e-9


def test_laplacian_is_normal_product_of_stack():
    """L'L is the Dirichlet Laplacian: 2d/h^2 on the diagonal, -1/h^2
    between grid neighbours (sites one apart in one coordinate), 0 else."""
    for d, n in [(1, 6), (2, 3), (3, 3)]:
        g = GridSpec(d, n, 0.5)
        L = gradient_stack(g)
        sites = np.array(list(np.ndindex(*[n] * d)))
        hops = np.abs(sites[:, None, :] - sites[None, :, :]).sum(axis=2)
        expect = np.where(hops == 0, 2.0 * d, np.where(hops == 1, -1.0, 0.0)) / 0.25
        np.testing.assert_allclose(L.T @ L, expect, atol=1e-12)


@pytest.mark.parametrize("d,n", [(d, n) for d in (1, 2, 3) for n in range(1, 9)
                                 if n ** d <= 512])
def test_shifted_encoding_is_the_scaled_laplacian(d, n):
    """Formed from the grid alone, A equals 2(L'L)/(4d) - I on the unit mesh
    entry for entry: its entries are exactly 0 and -1/(2d)."""
    g = GridSpec(d, n, 1.0)
    L = gradient_stack(g)
    A = shifted_encoding(g)
    assert np.array_equal(A, 2.0 * (L.T @ L) / (4.0 * d) - np.eye(g.size))
    assert set(np.unique(A)) <= {0.0, -1.0 / (2 * d)}


@pytest.mark.parametrize("d,n", [(1, 8), (2, 4)])
def test_dirac_block_invariants(d, n):
    g = GridSpec(d, n, 1.0)
    L = gradient_stack(g)
    dop = dirac_operator(L)
    H = dop.H
    rows, cols = L.shape
    assert H.shape == (rows + cols, rows + cols)
    scale = max(np.abs(H @ H).max(), 1.0)
    assert np.abs(H - H.conj().T).max() <= 1e-12
    H2 = H @ H
    block = np.zeros_like(H2)
    block[:cols, :cols] = L.conj().T @ L
    block[cols:, cols:] = L @ L.conj().T
    assert np.abs(H2 - block).max() / scale <= 1e-12
    top4 = (H2 @ H2)[:cols, :cols]
    assert np.abs(top4 - (L.conj().T @ L) @ (L.conj().T @ L)).max() / scale**2 <= 1e-12
    np.testing.assert_allclose(H2[:cols, :cols].real, (L.T @ L).real, atol=1e-12)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(dn=st.sampled_from([1, 2, 3]).flatmap(
           lambda d: st.tuples(st.just(d), st.integers(1, 12 if d < 3 else 5))),
       log_h=st.floats(-3.0, 3.0))
def test_laplacian_eigenpairs_match_the_dense_operators(dn, log_h):
    """The closed form agrees with every dense route it replaces: its
    spectrum is eigvalsh of the Laplacian; +-sqrt of it, and 0, is eigvalsh
    of the Dirac root H, under the squared-value tolerance of the
    `dirac_spectrum` property test; and the Kronecker DST-I basis
    reconstructs the shifted encoding A, which does not depend on h, with
    the eigenvalues of the unit mesh under the 1e-10 contract of `eig`.
    d = 3 stops at n = 5, where H has dimension 575 (dense H and its H^4
    check grow as the cube of that)."""
    d, n = dn
    g = GridSpec(d, n, 10.0 ** log_h)
    lam, S = laplacian_eigenpairs(g)
    u = np.finfo(float).eps
    L = gradient_stack(g)
    ref = np.linalg.eigvalsh(L.T @ L)
    assert np.abs(np.sort(lam) - ref).max() <= 64 * g.size * u * ref.max()

    sigma = np.sqrt(lam)
    spectrum = np.concatenate([sigma, -sigma, [0.0]])
    eigs = np.linalg.eigvalsh(dirac_operator(L).H)
    assert np.abs(spectrum).max() == pytest.approx(np.abs(eigs).max(), rel=1e-12, abs=1e-12)
    got, want = np.sort(spectrum ** 2), np.sort(eigs ** 2)
    tol = 64 * sum(L.shape) * u * np.linalg.norm(L, 2) ** 2
    for xs, ys in ((got, want), (want, got)):
        assert np.abs(xs[:, None] - ys[None, :]).min(axis=1).max() <= tol

    A = shifted_encoding(g)
    basis = reduce(np.kron, [S] * d)
    lam_a = 2.0 * laplacian_eigenpairs(GridSpec(d, n, 1.0))[0] / (4.0 * d) - 1.0
    assert np.linalg.norm((basis * lam_a) @ basis.T - A) <= 1e-10 * np.abs(lam_a).max()


def test_dirac_rejects_non_matrix():
    with pytest.raises(PrecondError):
        dirac_operator(np.zeros(4))


def test_shifted_encoding_structure_1d():
    g = GridSpec(1, 8, 1.0)
    A = shifted_encoding(g)
    interior = interior_mask(g.d, g.n)
    assert np.abs(np.diag(A)).max() <= 1e-14
    assert np.abs(A[interior]).sum(axis=1).max() == pytest.approx(1.0, abs=1e-14)
    assert interior.sum() == 6


def test_shifted_encoding_structure_2d():
    g = GridSpec(2, 4, 1.0)
    A = shifted_encoding(g)
    interior = interior_mask(g.d, g.n)
    assert np.abs(np.diag(A)).max() <= 1e-14
    assert np.abs(A[interior]).sum(axis=1).max() == pytest.approx(1.0, abs=1e-14)
    assert interior.sum() == 4
    # boundary rows lose stencil mass to the Dirichlet wall
    boundary_l1 = np.abs(A[~interior]).sum(axis=1)
    assert boundary_l1.max() < 1.0


def test_shifted_encoding_no_interior():
    g = GridSpec(1, 2, 1.0)
    A = shifted_encoding(g)
    interior = interior_mask(g.d, g.n)
    assert interior.sum() == 0
    assert A[interior].shape == (0, g.size)


def test_grid_spec_validation():
    with pytest.raises(PrecondError):
        GridSpec(2, 65, 1.0)       # 65^2 sites exceeds the desk-scale cap
    with pytest.raises(PrecondError):
        GridSpec(0, 4, 1.0)
    with pytest.raises(PrecondError):
        GridSpec(1, 4, -1.0)
    for h in (math.inf, math.nan, 1e-200, 1e200):   # 4d/h^2 is not in (0, inf)
        with pytest.raises(PrecondError):
            GridSpec(1, 4, h)
    assert GridSpec(2, 4, 0.2).size == 16


@pytest.mark.parametrize("d,n", [(1, 8), (2, 4)])
@pytest.mark.parametrize("T", [0.1, 1.0])
def test_heat_application(d, n, T):
    eps = 1e-5
    rec = run_application("heat", GridSpec(d, n, 1.0), T, eps)
    assert rec.error_measured <= 2.0 * eps
    assert rec.error_measured <= rec.error_bound
    assert rec.params["mode"] == "direct" and rec.params["alpha"] == 2.0


def test_biharmonic_application():
    eps = 1e-4
    rec = run_application("biharmonic", GridSpec(1, 6, 1.0), 1.0, eps)
    assert rec.error_measured <= 2.0 * eps
    assert rec.error_measured <= rec.error_bound
    assert rec.params["alpha"] == 4.0 and rec.params["regime"] == "analytic"


def test_levy_application(monkeypatch):
    """levy evolves L'L itself and never builds the Dirac root operator."""
    def unused(L):  # pragma: no cover - must not run
        raise AssertionError("levy built the Dirac operator")

    monkeypatch.setattr(operators, "dirac_operator", unused)
    eps = 1e-3
    rec = run_application("levy", GridSpec(1, 6, 1.0), 1.0, eps)
    assert rec.error_measured <= 2.0 * eps
    assert rec.error_measured <= rec.error_bound
    assert rec.params["mode"] == "root" and rec.params["alpha"] == 0.75
    assert rec.params["regime"] == "fractional"


@pytest.mark.parametrize("app", ["heat", "biharmonic"])
def test_heat_and_biharmonic_never_build_the_dirac_operator(app, monkeypatch):
    """Both evolve even functions of H from the closed-form spectrum of L'L."""
    def unused(L):  # pragma: no cover - must not run
        raise AssertionError(f"{app} built the Dirac operator")

    monkeypatch.setattr(operators, "dirac_operator", unused)
    rec = run_application(app, GridSpec(2, 4, 1.0), 0.5, 1e-6)
    assert rec.error_measured <= rec.error_bound


@pytest.mark.parametrize("app,alpha", [("heat", 2.0), ("biharmonic", 4.0)])
@pytest.mark.parametrize("d,n", [(1, 8), (1, 48), (2, 6), (2, 12), (3, 4)])
def test_structured_route_matches_eigh_of_the_dirac_root(app, alpha, d, n):
    """The spectrum route of heat and biharmonic reproduces the dense route
    through eigh of the block root H: the same lattice, and the error column
    to 1e-12*||oracle|| of the 2-norm of the dense series minus the dense
    oracle."""
    g, T, eps = GridSpec(d, n, 1.0), 0.5, 1e-6
    dec = hermitian_eig(dirac_operator(gradient_stack(g)).H)
    plan = fourier.plan_fourier(SpectralProfile(alpha=alpha, T=T, mode="direct"),
                                dec.eigenvalues.real, eps)
    approx = fourier.assemble_fourier_approx(plan, dec)
    oracle = evolution_matrix(dec, alpha, T)
    rec = run_application(app, g, T, eps)
    assert rec.params["K"] == plan.K
    assert rec.params["a"] == pytest.approx(plan.a, rel=1e-13)
    ref_err = np.linalg.norm(approx - oracle, 2)
    assert abs(rec.error_measured - ref_err) <= 1e-12 * np.linalg.norm(oracle, 2)
    assert rec.error_measured <= rec.error_bound


def test_matrix_poly_application_fixed_m():
    rec = run_application("matrix_poly", GridSpec(1, 6, 1.0), 0.0, 1e-6, m=8)
    assert rec.error_measured <= 1e-12
    assert rec.params["m"] == 8
    assert rec.params["quad_n"] >= 8 * rec.params["m"]
    assert rec.params["R1"] < rec.params["R2"]


def test_matrix_poly_application_planned_m():
    rec = run_application("matrix_poly", GridSpec(1, 6, 1.0), 0.0, 1e-6)
    assert rec.error_measured <= 1e-12      # lattice identity is exact
    assert rec.params["m"] >= 1


@pytest.mark.parametrize("d,n,m", [(1, 6, None), (1, 6, 2), (2, 4, 2), (1, 8, 4)])
def test_matrix_poly_bound_covers_error(d, n, m):
    """The reported bound covers the measured error and the deviation of the
    discrete sum from f(A) psi itself, which is what it bounds."""
    g = GridSpec(d, n, 1.0)
    rec = run_application("matrix_poly", g, 0.0, 1e-6, m=m, seed=3)
    assert rec.error_measured <= rec.error_bound
    A = shifted_encoding(g)
    f = lambda z: np.polynomial.polynomial.polyval(z, np.asarray(_DEFAULT_COEFFS))
    plan = contour.plan_lattice(f, eig(A), r1=rec.params["R1"], r2=rec.params["R2"],
                                m=rec.params["m"])
    psi = random_state(np.random.default_rng(3), g.size)
    deviation = np.linalg.norm(contour.discrete_sum_apply(A, f, plan, psi)
                               - matfun(A, f) @ psi)
    assert deviation <= rec.error_bound


@pytest.mark.parametrize("d,n,eps,m", [(1, 6, 1e-6, None), (2, 4, 1e-8, None),
                                       (1, 8, 1e-4, 4), (2, 3, 1e-6, 2)])
def test_matrix_poly_plans_as_plan_lattice_at_the_default_radii(d, n, eps, m):
    """matrix_poly plans as `simulate-contour` does: R1 = 1.1 rho, R2 = 2 R1,
    and the m and bound of `plan_lattice` at the same norms."""
    g = GridSpec(d, n, 1.0)
    rec = run_application("matrix_poly", g, None, eps, m=m, seed=5)
    dec = operators._encoding_decomposition(g)
    f = lambda z: np.polynomial.polynomial.polyval(z, np.asarray(_DEFAULT_COEFFS, complex))
    psi = random_state(np.random.default_rng(5), g.size)
    plan = contour.plan_lattice(f, dec, eps, frobenius(matfun_apply(dec, f, psi)),
                                frobenius(psi), m=m)
    assert (rec.params["R1"], rec.params["R2"]) == (plan.r1, plan.r2) == (
        1.1 * dec.spectral_radius, 2.0 * 1.1 * dec.spectral_radius)
    assert rec.params["m"] == plan.m
    assert rec.error_bound == plan.error_bounds(frobenius(psi)).total


@pytest.mark.parametrize("d,n", [(d, n) for d in (1, 2) for n in range(2, 9)])
def test_matrix_poly_lattice_target_matches_the_dense_identity(d, n):
    """The target f(A) psi minus the aliasing term is the dense identity
    f(A) R1^m (R1^m I - A^m)^{-1} psi, formed with `matrix_power` and
    `solve`, at m = 2, 8 and the planned m, to 1e-13 ||psi||."""
    g = GridSpec(d, n, 1.0)
    dec = operators._encoding_decomposition(g)
    A = shifted_encoding(g)
    np.testing.assert_array_equal(dec.matrix, A)
    f = lambda z: np.polynomial.polynomial.polyval(z, np.asarray(_DEFAULT_COEFFS))
    fA = sum(c * np.linalg.matrix_power(A, k) for k, c in enumerate(_DEFAULT_COEFFS))
    psi = random_state(np.random.default_rng(n), g.size)
    planned = run_application("matrix_poly", g, None, 1e-8, seed=n).params
    for m in (2, 8, planned["m"]):
        plan = contour.plan_lattice(f, dec, m=m)
        assert plan.r1 == planned["R1"]
        r1m = plan.r1 ** m
        dense = fA @ (r1m * np.linalg.solve(
            r1m * np.eye(g.size) - np.linalg.matrix_power(A, m), psi))
        target = matfun_apply(dec, f, psi) - contour.aliasing_term(dec, f, plan, psi)
        assert np.linalg.norm(target - dense) <= 1e-13 * np.linalg.norm(psi)


def test_run_application_guards():
    g = GridSpec(1, 6, 1.0)
    with pytest.raises(PrecondError):
        run_application("wave", g, 1.0, 1e-5)
    with pytest.raises(PrecondError):
        run_application("heat", g, 1.0, -1e-5)
    with pytest.raises(PrecondError):
        run_application("heat", g, -1.0, 1e-5)
    with pytest.raises(PrecondError):
        run_application("heat", g, None, 1e-5)


def test_matrix_poly_where_the_square_of_h_overflows():
    """At h = 1.4e154, h^2 overflows but 4d/h^2 is a normal float, so the
    grid is admitted, and the run returns within its bound: the encoding
    does not depend on h and is built on the unit mesh."""
    rec = run_application("matrix_poly", GridSpec(1, 4, 1.4e154), None, 1e-6)
    assert rec.error_measured <= rec.error_bound


def test_record_fields_round_out():
    g = GridSpec(1, 8, 1.0)
    rec = run_application("heat", g, 0.1, 1e-5, seed=3)
    assert (rec.app, rec.d, rec.n, rec.h, rec.T, rec.eps) == \
        ("heat", 1, 8, 1.0, 0.1, 1e-5)
    assert rec.wall_time_ms >= 0.0
