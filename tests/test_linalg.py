import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psf_matfunc import linalg
from psf_matfunc.errors import NumericalError, PrecondError
from psf_matfunc.instances import (random_normal_matrix, random_psd,
                                   random_state, random_unitary)
from psf_matfunc.linalg import (distance_from, eig, frobenius,
                                evolution_matrix, hermitian_eig, is_hermitian, matfun,
                                resolvent_apply)
from psf_matfunc.operators import dirac_operator

from helpers import dirac_spectrum, random_diagonalizable, random_hermitian


def test_eig_hermitian_unitary_basis():
    H = random_hermitian(np.random.default_rng(0), 8)
    dec = eig(H)
    assert dec.hermitian
    assert dec.kappa_s == pytest.approx(1.0, abs=1e-8)
    assert np.abs(dec.eigenvalues.imag).max() < 1e-12
    recon = (dec.basis * dec.eigenvalues) @ dec.basis.conj().T
    assert np.linalg.norm(recon - H, 2) < 1e-12
    np.testing.assert_array_equal(dec.matrix, H)
    assert dec.norm == pytest.approx(np.linalg.norm(H, 2), rel=1e-14)


def test_decomposition_serves_resolvent_and_evolution():
    A = random_diagonalizable(np.random.default_rng(4), 5, spectral_radius=0.5)
    dec = eig(A)
    assert not dec.hermitian and dec.norm == np.linalg.norm(A, 2)
    b = random_state(np.random.default_rng(5), 5)
    np.testing.assert_array_equal(resolvent_apply(dec, 0.9j, b),
                                  resolvent_apply(A, 0.9j, b))
    with pytest.raises(PrecondError):
        evolution_matrix(dec, 1.0, 1.0)
    P = random_psd(np.random.default_rng(6), 5)
    np.testing.assert_array_equal(evolution_matrix(eig(P), 0.75, 1.0),
                                  evolution_matrix(P, 0.75, 1.0))


def _general_eig_forbidden(*args, **kwargs):  # pragma: no cover - must not run
    raise AssertionError("a normal matrix took the general eig route")


_SPECTRA = ("disk", "repeated", "clustered")


@settings(derandomize=True, deadline=None, max_examples=80)
@given(n=st.integers(1, 64), kind=st.sampled_from(_SPECTRA),
       log_radius=st.floats(-3.0, 3.0), log_spread=st.floats(-14.0, -4.0),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=64, kind="repeated", log_radius=0.0, log_spread=-8.0, seed=0)
@example(n=64, kind="clustered", log_radius=0.0, log_spread=-14.0, seed=1)
def test_eig_normal_route(n, kind, log_radius, log_spread, seed):
    """A normal matrix is decomposed by one eigh, never by the general eig:
    unitary basis (kappa_s exactly 1), M reconstructed to the contract, and
    every eigenvalue within 1e-12*||M|| of eigvals, also when eigenvalues
    repeat or sit in clusters of spread 1e-14 to 1e-4 of the radius."""
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(seed)
    radius = 10.0 ** log_radius

    def disk(k):
        return np.sqrt(rng.uniform(0.0, 1.0, k)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, k))

    if kind == "disk":
        lam = disk(n)
    else:
        centers = disk(int(rng.integers(1, max(n // 4, 1) + 1)))
        lam = centers[rng.integers(0, centers.size, n)]
        if kind == "clustered":
            lam = lam + 10.0 ** log_spread * disk(n)
    lam = radius * lam / max(np.abs(lam).max(), 1e-300)
    U = random_unitary(rng, n)
    M = (U * lam) @ U.conj().T
    ref = np.linalg.eigvals(M)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eig", _general_eig_forbidden)
        dec = eig(M)
    assert dec.kappa_s == 1.0 and dec.unitary
    V = dec.basis
    assert np.linalg.norm(V.conj().T @ V - np.eye(n)) <= 1e-12 * n
    recon = (V * dec.eigenvalues) @ V.conj().T
    assert np.linalg.norm(recon - M) <= 1e-10 * dec.norm
    assert dec.norm == pytest.approx(np.linalg.norm(M, 2), rel=1e-12)
    cost = np.abs(dec.eigenvalues[:, None] - ref[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() <= 1e-12 * dec.norm


def test_eig_normal_collision_falls_back_to_the_general_route(monkeypatch):
    """Two eigenvalues x + iy with equal x + c y are one eigenvalue of the
    Hermitian mix: its eigenvectors mix theirs, the reconstruction misses,
    and the matrix is decomposed by the general eig after all."""
    c = linalg._NORMAL_MIX
    lam = np.array([0.2 + 0.1j, 0.2 + 0.4 * c - 0.3j,       # 0.2 + 0.1 c both
                    -0.4 + 0.25j, 0.1 - 0.45j, 0.35 + 0.3j])
    U = random_unitary(np.random.default_rng(0), 5)
    M = (U * lam) @ U.conj().T
    calls = []
    general = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda A: calls.append(A) or general(A))
    dec = eig(M)
    assert len(calls) == 1 and not dec.unitary and dec.kappa_s > 1.0
    recon = (dec.basis * dec.eigenvalues) @ np.linalg.inv(dec.basis)
    assert np.linalg.norm(recon - M) <= 1e-10 * dec.norm
    np.testing.assert_allclose(np.sort_complex(dec.eigenvalues), np.sort_complex(lam),
                               rtol=0, atol=1e-14)


def test_eig_non_normal_keeps_the_general_route():
    for seed in range(4):
        A = random_diagonalizable(np.random.default_rng(seed), 12)
        dec = eig(A)
        assert dec.kappa_s > 1.0 and not dec.unitary
        assert dec.norm == np.linalg.norm(A, 2)


def test_eig_defective_matrix_refused():
    J = np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex)
    with pytest.raises(NumericalError):
        eig(J)


def test_matfun_ring_homomorphism():
    """f(M) g(M) = (f g)(M) for commuting (same-M) evaluations."""
    f = np.exp
    g = lambda z: 1.0 / (z + 3.0)
    for seed in range(6):
        M = random_diagonalizable(np.random.default_rng(seed), 8)
        lhs = matfun(M, f) @ matfun(M, g)
        rhs = matfun(M, lambda z: f(z) * g(z))
        scale = np.linalg.norm(lhs, 2)
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-10 * max(scale, 1.0)


def test_matfun_polynomial_against_horner():
    A = random_normal_matrix(np.random.default_rng(3), 6, spectral_radius=0.8)
    F = matfun(A, lambda z: 1.0 + 2.0 * z + 3.0 * z**3)
    direct = np.eye(6) + 2.0 * A + 3.0 * np.linalg.matrix_power(A, 3)
    assert np.linalg.norm(F - direct, 2) < 1e-12


def test_resolvent_matches_matfun():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        A = random_normal_matrix(rng, n, spectral_radius=float(rng.uniform(0.3, 0.9)))
        b = random_state(rng, n)
        z = complex(rng.uniform(1.2, 3.0), rng.uniform(-1.0, 1.0))
        x = resolvent_apply(A, z, b)
        ref = matfun(A, lambda lam: 1.0 / (z - lam)) @ b
        assert np.linalg.norm(x - ref) <= 1e-10


def test_resolvent_shift_on_spectrum_refused():
    A = np.diag([0.5, -0.2]).astype(complex)
    b = np.array([1.0, 1.0], dtype=complex)
    with pytest.raises(PrecondError):
        resolvent_apply(A, 0.5, b)


def test_resolvent_shape_check():
    A = np.eye(3, dtype=complex)
    with pytest.raises(PrecondError):
        resolvent_apply(A, 2.0, np.ones(4, dtype=complex))
    for z in (np.full((2, 2), 2.0), np.array([2.0, np.nan])):
        with pytest.raises(PrecondError):
            resolvent_apply(A, z, np.ones(3, dtype=complex))


def _conditioned_diagonalizable(seed: int, n: int, kappa: float) -> np.ndarray:
    """V diag(lambda) V^{-1} with cond(V) = kappa exactly and |lambda| <= 0.5."""
    rng = np.random.default_rng(seed)
    U, W = random_unitary(rng, n), random_unitary(rng, n)
    V = (U * np.geomspace(1.0, 1.0 / kappa, n)) @ W
    lam = np.sqrt(rng.uniform(0.0, 1.0, n)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
    lam = lam * (0.5 / np.abs(lam).max())
    return (V * lam) @ np.linalg.inv(V)


@pytest.mark.parametrize("make, rtol", [
    (lambda seed: random_hermitian(seed, 12, norm=0.5), 1e-13),
    (lambda seed: random_normal_matrix(seed, 12, spectral_radius=0.5), 1e-13),
    (lambda seed: _conditioned_diagonalizable(seed, 12, 1e3), 1e-10),
], ids=["hermitian", "normal", "non-normal"])
def test_batched_resolvent_matches_per_shift_solve(make, rtol):
    A = make(3)
    dec = eig(A)
    b = random_state(np.random.default_rng(4), 12)
    z = 0.6 * np.exp(2j * np.pi * np.arange(1, 65) / 64)
    X = resolvent_apply(dec, z, b)
    assert X.shape == (64, 12)
    for w, x in zip(z, X):
        ref = np.linalg.solve(w * np.eye(12) - A, b)
        assert np.linalg.norm(x - ref) <= rtol * np.linalg.norm(ref)
    assert resolvent_apply(dec, z[5], b).shape == (12,)
    np.testing.assert_allclose(resolvent_apply(dec, z[5], b), X[5], rtol=0, atol=1e-14)


def test_resolvent_solves_a_large_batch_in_blocks(monkeypatch):
    """Shifts beyond one block are solved block by block, each row as in one
    batch, and a shift on the spectrum in a later block is named."""
    b = random_state(np.random.default_rng(2), 5)
    z = 0.8 * np.exp(2j * np.pi * np.arange(1, 24) / 23)
    for A in (random_normal_matrix(np.random.default_rng(1), 5, spectral_radius=0.5),
              _conditioned_diagonalizable(1, 5, 1e3)):
        dec = eig(A)
        ref = resolvent_apply(dec, z, b)
        monkeypatch.setattr(linalg, "_SOLVE_BLOCK", 3 * 5)     # blocks of 3 shifts
        X = resolvent_apply(dec, z, b)
        np.testing.assert_allclose(X, ref, rtol=1e-14, atol=0)
        lam = dec.eigenvalues[2]
        with pytest.raises(PrecondError, match=re.escape(f"z={lam}")):
            resolvent_apply(dec, np.concatenate([z, [lam]]), b)
        monkeypatch.undo()


def test_frobenius_norm_does_not_overflow():
    X = random_state(np.random.default_rng(1), 64)
    for scale in (1.0, 2.0 ** 400, 1e-300):
        assert frobenius(scale * X) == np.linalg.norm(scale * X)
    for scale in (1e160, 1e300):
        assert frobenius(scale * X) == pytest.approx(scale, rel=1e-14)
    assert frobenius(np.array([np.inf, 1.0])) == np.inf
    assert frobenius(np.full(4, 1e308)) == np.inf        # finite entries, norm 2e308


def test_eig_decomposes_entries_near_the_largest_float():
    """A normal matrix whose Frobenius norm exceeds the largest float is
    still decomposed exactly; a Hermitian mix that overflows falls through
    to the general route."""
    M = np.diag([1e308j] * 3)
    dec = eig(M)
    assert dec.kappa_s == 1.0
    np.testing.assert_array_equal(dec.eigenvalues, M.diagonal())
    np.testing.assert_array_equal((dec.basis * dec.eigenvalues) @ dec.basis.conj().T, M)
    x = 1.2e308 * (1.0 + 1.0j)
    N = np.array([[0.0, x], [x, 0.0]])       # normal, but W + W^H overflows
    assert linalg._normal_eig(N) is None
    dec = eig(N)
    assert not dec.unitary
    np.testing.assert_allclose(np.sort_complex(dec.eigenvalues), [-x, x], rtol=1e-15)


def test_resolvent_shift_vector_names_the_shift_on_the_spectrum():
    A = np.diag([0.5, -0.2]).astype(complex)
    b = np.array([1.0, 1.0], dtype=complex)
    with pytest.raises(PrecondError, match=r"z=\(-0\.2\+0j\)"):
        resolvent_apply(A, np.array([1.0, 0.5j, -0.2, 2.0]), b)


def test_resolvent_residual_is_checked_against_the_matrix():
    """Factors that no longer reproduce A are caught by the residual, which is
    formed with A itself; one refinement step cannot hide a 1e-6 error next
    to a shift 1e-3 from the spectrum."""
    dec = eig(random_hermitian(np.random.default_rng(9), 6, norm=0.5))
    b = random_state(np.random.default_rng(10), 6)
    z = np.array([0.9, dec.eigenvalues[2] + 1e-3, -0.9j])
    resolvent_apply(dec, z, b)
    bent = dataclasses.replace(dec, eigenvalues=dec.eigenvalues + 1e-6)
    with pytest.raises(NumericalError, match="refinement"):
        resolvent_apply(bent, z, b)


def test_resolvent_refinement_rescues_ill_conditioned_basis():
    """cond(V) = 3e3: a per-shift LU meets the 1e-10 ||b|| residual bound
    while a single pass through the eigenbasis misses it; one refinement step
    brings every shift back within the bound."""
    A = _conditioned_diagonalizable(2, 8, 3e3)
    dec = eig(A)
    b = np.random.default_rng(102).standard_normal(8).astype(complex)
    z = 0.55 * np.exp(2j * np.pi * np.arange(1, 65) / 64)
    tol = 1e-10 * np.linalg.norm(b)
    lu = [np.linalg.norm((w * np.eye(8) - A) @ np.linalg.solve(w * np.eye(8) - A, b) - b)
          for w in z]
    assert max(lu) <= tol
    one_pass = (np.linalg.solve(dec.basis, b) / (z[:, None] - dec.eigenvalues)) @ dec.basis.T
    assert np.linalg.norm(z[:, None] * one_pass - one_pass @ A.T - b, axis=1).max() > tol
    X = resolvent_apply(dec, z, b)
    assert np.linalg.norm(z[:, None] * X - X @ A.T - b, axis=1).max() <= tol


def test_evolution_norm_non_increasing():
    H = random_psd(np.random.default_rng(1), 8)
    u0 = random_state(np.random.default_rng(2), 8)
    norms = [np.linalg.norm(evolution_matrix(H, 0.75, T) @ u0)
             for T in (0.0, 0.5, 1.0, 2.0, 4.0)]
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


def test_evolution_t0_identity():
    H = random_psd(np.random.default_rng(5), 5)
    u0 = random_state(np.random.default_rng(6), 5)
    # V V^H is the identity up to rounding; no T = 0 shortcut is taken.
    np.testing.assert_allclose(evolution_matrix(H, 1.0, 0.0) @ u0, u0,
                               rtol=0, atol=1e-14)


def test_evolution_matrix_diagonal_oracle():
    H = np.diag([0.0, 0.25, 1.0]).astype(complex)
    E = evolution_matrix(H, 0.5, 2.0)
    np.testing.assert_allclose(np.diag(E).real,
                               np.exp(-2.0 * np.array([0.0, 0.5, 1.0])),
                               rtol=1e-13)


def test_evolution_psd_clamp_window():
    """Tiny negative eigenvalues (symmetrization noise) are clamped; genuinely
    indefinite input is refused."""
    U = random_unitary(np.random.default_rng(8), 4)
    lam = np.array([-5e-13, 0.1, 0.5, 1.0])
    H = (U * lam) @ U.conj().T
    evolution_matrix(H, 1.0, 1.0)  # inside the clamp window
    lam_bad = np.array([-1e-6, 0.1, 0.5, 1.0])
    Hbad = (U * lam_bad) @ U.conj().T
    with pytest.raises(PrecondError):
        evolution_matrix(Hbad, 1.0, 1.0)


def test_evolution_even_power_admits_indefinite():
    """An even integer alpha is an integer power, defined on any Hermitian
    H; any other alpha still needs H PSD."""
    H = random_hermitian(np.random.default_rng(3), 6)
    assert np.linalg.eigvalsh(H).min() < -0.1
    np.testing.assert_array_equal(evolution_matrix(H, 4.0, 0.5),
                                  matfun(H, lambda lam: np.exp(-0.5 * lam.real ** 4)))
    with pytest.raises(PrecondError):
        evolution_matrix(H, 1.5, 0.5)


def test_evolution_rejects_non_hermitian():
    A = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(PrecondError):
        evolution_matrix(A, 1.0, 1.0)
    with pytest.raises(PrecondError, match="Hermitian"):
        distance_from(A, np.cos)


def test_hermitian_and_normal_predicates():
    H = random_hermitian(np.random.default_rng(1), 5)
    assert is_hermitian(H)
    A = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert not is_hermitian(A)


def test_hermitian_test_is_relative():
    """A tiny normal matrix is judged on its own scale: it is not Hermitian,
    and its basis comes from the normal route rather than one triangle."""
    A = random_normal_matrix(np.random.default_rng(2), 8, spectral_radius=1e-13)
    assert not is_hermitian(A)
    assert is_hermitian(1e-300 * random_hermitian(np.random.default_rng(1), 5))
    assert is_hermitian(np.zeros((3, 3)))
    dec = eig(A)
    assert not dec.hermitian and dec.kappa_s == 1.0
    np.testing.assert_allclose(np.sort_complex(dec.eigenvalues),
                               np.sort_complex(np.linalg.eigvals(A)), atol=1e-26)


def test_entry_whose_modulus_overflows_is_refused():
    """|x| is beyond the largest float although re x and im x are finite."""
    x = 1.7e308 * (1.0 + 1.0j)
    with pytest.raises(PrecondError, match="moduli"):
        eig(np.array([[0.0, x], [x, 0.0]]))


_EVEN_FNS = {"cos": np.cos, "gauss": lambda x: np.exp(-x ** 2), "quartic": lambda x: x ** 4}


@settings(derandomize=True, deadline=None, max_examples=60)
@given(m=st.integers(1, 9), n=st.integers(1, 9), rank=st.integers(0, 9),
       seed=st.integers(0, 2 ** 32 - 1))
def test_dirac_spectrum_matches_eigh_of_the_block_root(m, n, rank, seed):
    """The spectrum of H = [[0, -iL'], [iL, 0]] read off the real
    eigendecomposition of L'L holds the points of eigvalsh of H itself, for
    square, tall and wide L, and for rank-deficient L with L'L singular.
    The points are symmetric about 0, and the two lists differ in length
    (H repeats 0), so each square must lie within rounding of a square of
    the other; squares, because a sigma near 0 is only as accurate as the
    square root of its rounding."""
    rng = np.random.default_rng(seed)
    rank = min(rank, m, n)
    L = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    spectrum, eigs = dirac_spectrum(L), np.linalg.eigvalsh(dirac_operator(L).H)
    assert np.abs(spectrum).max() == pytest.approx(np.abs(eigs).max(), rel=1e-12, abs=1e-12)
    np.testing.assert_array_equal(np.sort(spectrum), -np.sort(spectrum)[::-1])
    got, ref = np.sort(spectrum ** 2), np.sort(eigs ** 2)
    tol = 64 * (m + n) * np.finfo(float).eps * np.linalg.norm(L, 2) ** 2
    for xs, ys in ((got, ref), (ref, got)):
        assert np.abs(xs[:, None] - ys[None, :]).min(axis=1).max() <= tol


@settings(derandomize=True, deadline=None, max_examples=120)
@given(kind=st.sampled_from(["hermitian", "psd", "dirac"]), m=st.integers(1, 9),
       n=st.integers(1, 9), rank=st.integers(0, 9), log_scale=st.floats(-3.0, 0.5),
       seed=st.integers(0, 2 ** 32 - 1), f=st.sampled_from(sorted(_EVEN_FNS)),
       g=st.sampled_from(sorted(_EVEN_FNS)))
@example(kind="dirac", m=2, n=1, rank=1, log_scale=-3.0, seed=0, f="quartic", g="gauss")
@example(kind="dirac", m=2, n=2, rank=2, log_scale=-3.0, seed=0, f="quartic", g="gauss")
def test_distance_from_matches_the_dense_norm(kind, m, n, rank, log_scale, seed, f, g):
    """The spectral distance equals the 2-norm of the difference of the two
    dense functions: on random Hermitian and PSD matrices, and on the Dirac
    root of square, tall, wide and rank-deficient real L, whose dense
    functions come from eigh of H itself. Small operators make the point 0
    of a singular LL' decide the distance."""
    rng, scale = np.random.default_rng(seed), 10.0 ** log_scale
    if kind == "dirac":
        rank = min(rank, m, n)
        L = scale * rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
        dec, spectrum = hermitian_eig(dirac_operator(L).H), dirac_spectrum(L)
        dim = m + n
    else:
        dec = eig((random_hermitian if kind == "hermitian" else random_psd)(rng, n, norm=scale))
        spectrum, dim = dec.eigenvalues.real, n
    F, G = matfun(dec, _EVEN_FNS[f]), matfun(dec, _EVEN_FNS[g])
    dense = np.linalg.norm(F - G, 2)
    got = distance_from(spectrum, _EVEN_FNS[g])(_EVEN_FNS[f])
    floor = 64 * dim * np.finfo(float).eps * max(np.linalg.norm(F, 2), np.linalg.norm(G, 2))
    assert abs(got - dense) <= max(1e-12 * dense, floor)


def test_distance_from_refuses_non_finite_values():
    dec = eig(random_psd(np.random.default_rng(2), 4))
    with pytest.raises(NumericalError, match="non-finite"):
        distance_from(dec.eigenvalues.real, np.cos)(lambda lam: np.full_like(lam, np.inf))


def test_distance_from_takes_a_real_spectrum():
    """Anything but a non-empty real finite vector is refused: a matrix, a
    decomposition, complex eigenvalues."""
    dec = eig(random_psd(np.random.default_rng(2), 4))
    for bad in (dec.matrix, dec, dec.eigenvalues, np.zeros(0), np.array([0.0, np.nan])):
        with pytest.raises(PrecondError, match="spectrum"):
            distance_from(bad, np.cos)


def test_dirac_spectrum_admission():
    for L in (np.zeros(4), np.zeros((0, 3)), np.array([[1.0, np.inf]]),
              np.array([[1.0j, 0.0]])):
        with pytest.raises(PrecondError):
            dirac_spectrum(L)
