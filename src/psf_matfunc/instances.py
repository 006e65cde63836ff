"""Seeded random instances for the commands that generate their operator.

All randomness in the package flows through numpy.random.default_rng with a
caller-supplied integer seed (a Generator passes through unchanged), so every
experiment is reproducible from its config line. Generators are documented
here once:

- complex Gaussian entries: (standard_normal + 1j*standard_normal)/sqrt(2)
- unitaries: QR of a complex Gaussian matrix with the R-diagonal phase fixed
- PSD matrices are rescaled to a requested spectral norm, normal matrices
  to a requested spectral radius
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PrecondError


def complex_gaussian(seed: int | np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def random_unitary(seed: int | np.random.Generator, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    Q, R = np.linalg.qr(complex_gaussian(rng, (n, n)))
    # Fix the phase so the distribution is Haar and the output deterministic.
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def random_psd(seed: int | np.random.Generator, n: int, norm: float = 1.0) -> np.ndarray:
    """Hermitian PSD matrix with spectral norm exactly `norm`."""
    if n < 1:
        raise PrecondError(f"matrix size must be >= 1, got {n}")
    if not (0 <= norm < math.inf):
        raise PrecondError(f"norm must be finite and non-negative, got {norm}")
    rng = np.random.default_rng(seed)
    G = complex_gaussian(rng, (n, n))
    H = G @ G.conj().T
    nrm = float(np.linalg.norm(H, 2))
    return H * (norm / nrm)


def random_normal_matrix(seed: int | np.random.Generator, n: int,
                         spectral_radius: float = 0.5) -> np.ndarray:
    """Normal matrix with eigenvalues uniform in the disk of given radius.

    The largest eigenvalue modulus is rescaled to hit `spectral_radius`
    exactly, which the contour tests rely on.
    """
    if n < 1:
        raise PrecondError(f"matrix size must be >= 1, got {n}")
    if not (0 <= spectral_radius < math.inf):
        raise PrecondError(
            f"spectral radius must be finite and non-negative, got {spectral_radius}")
    rng = np.random.default_rng(seed)
    U = random_unitary(rng, n)
    r = np.sqrt(rng.uniform(0.0, 1.0, n))
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    lam = r * np.exp(1j * theta)
    scale = spectral_radius / float(np.abs(lam).max())
    if not math.isfinite(scale):
        raise PrecondError(f"spectral radius {spectral_radius} overflows the rescaled spectrum")
    lam = lam * scale
    return (U * lam) @ U.conj().T


def random_state(seed: int | np.random.Generator, n: int) -> np.ndarray:
    """Unit-norm complex Gaussian vector."""
    v = complex_gaussian(np.random.default_rng(seed), (n,))
    return v / np.linalg.norm(v)

