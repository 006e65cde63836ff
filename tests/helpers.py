"""Fixtures and references shared by the tests; no command needs them."""

import json

import numpy as np

from psf_matfunc.errors import PrecondError
from psf_matfunc.fourier import FourierPlan, cosine_series
from psf_matfunc.instances import complex_gaussian, random_unitary
from psf_matfunc.kernels import SpectralProfile
from psf_matfunc.linalg import unitary_decomposition


def random_hermitian(seed: int | np.random.Generator, n: int, norm: float = 1.0) -> np.ndarray:
    """Hermitian matrix with spectral norm exactly `norm`."""
    rng = np.random.default_rng(seed)
    G = complex_gaussian(rng, (n, n))
    H = (G + G.conj().T) / 2.0
    nrm = float(np.linalg.norm(H, 2))
    return H * (norm / nrm)


def random_diagonalizable(seed: int | np.random.Generator, n: int,
                          spectral_radius: float = 0.5,
                          basis_spread: float = 0.3) -> np.ndarray:
    """Mildly non-normal diagonalizable matrix V diag(lam) V^{-1}.

    basis_spread controls how far V sits from unitary (0 gives a normal
    matrix); kept small so the eigenbasis stays well conditioned.
    """
    rng = np.random.default_rng(seed)
    U = random_unitary(rng, n)
    V = U + basis_spread * complex_gaussian(rng, (n, n))
    r = np.sqrt(rng.uniform(0.0, 1.0, n))
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    lam = r * np.exp(1j * theta)
    lam = lam * (spectral_radius / np.abs(lam).max())
    return (V * lam) @ np.linalg.inv(V)


def save_matrix(path: str, M: np.ndarray) -> None:
    """Write M in the JSON matrix format `--matrix` reads."""
    M = np.asarray(M, dtype=complex)
    obj = {"rows": M.shape[0], "cols": M.shape[1],
           "re": M.real.ravel().tolist(), "im": M.imag.ravel().tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def psf_residual(a: float, delta: float, K: int, n_alias: int) -> float:
    """|lattice sum - periodized profile| of e^{-xi^2} at offset delta.

    Left side: the cosine series (1/a) sum_{|k|<=K} f(k/a) cos(2 pi k delta/a)
    of the p = 2, T = 1 profile. Right side: sum_{|n|<=n_alias}
    e^{-|a n + delta|^2}. The residual is the truncation and aliasing
    leakage that the Fourier bounds must dominate.
    """
    plan = FourierPlan(SpectralProfile(2.0, 1.0, "direct"), a, K, 1e-6, 0.0)
    lhs = float(cosine_series(plan, np.array([delta]))[0])
    ns = np.arange(-n_alias, n_alias + 1, dtype=float)
    return abs(lhs - float(np.sum(np.exp(-np.abs(a * ns + delta) ** 2))))


def interior_mask(d: int, n: int) -> np.ndarray:
    """Sites of a d-dimensional n^d grid whose coordinates all lie in [1, n-2]."""
    coords = np.unravel_index(np.arange(n ** d), (n,) * d)
    return np.logical_and.reduce([(c >= 1) & (c <= n - 2) for c in coords])


def dirac_spectrum(L: np.ndarray) -> np.ndarray:
    """Every eigenvalue of the Dirac root H = [[0, -iL'], [iL, 0]] of a real
    m x n factor L, without multiplicity: [sigma, -sigma], and 0 when m
    exceeds the rank of L (Golub & Van Loan, *Matrix Computations*, 4th ed.,
    8.6).

    sigma = sqrt(lam) from one real `eigh` of L'L under the reconstruction
    contract of `eig`; H is never formed. The rank counts the lam above the
    eigh rounding floor n*u*max(lam). A lam carries an absolute error of
    about u*||L||^2, so a sigma near 0 carries up to about sqrt(n*u)*||L||:
    only functions of sigma^2 (the even ones) keep the accuracy of eigh there.
    """
    L = np.asarray(L)
    if L.ndim != 2 or L.size == 0:
        raise PrecondError(f"gradient factor must be a non-empty matrix, got shape {L.shape}")
    if np.iscomplexobj(L) or not np.all(np.isfinite(L)):
        raise PrecondError("gradient factor entries must be real and finite")
    L = np.asarray(L, dtype=float)
    LtL = L.T @ L
    dec = unitary_decomposition(LtL, *np.linalg.eigh(LtL), hermitian=True)
    lam = np.maximum(dec.eigenvalues.real, 0.0)   # PSD up to rounding
    sigma = np.sqrt(lam)
    rank = np.count_nonzero(lam > lam.size * np.finfo(float).eps * lam.max())
    return np.concatenate([sigma, -sigma, [0.0] if L.shape[0] > rank else []])
