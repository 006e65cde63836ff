"""Application operators and end-to-end experiment drivers.

Builds the staggered first-order difference stencil, its d-dimensional
Kronecker gradient stack L, the Hermitian block root operator
H = [[0, -iL'], [iL, 0]] whose square is blockdiag(L'L, LL'), the Dirichlet
Laplacian -Delta = L'L, and the spectrally shifted encoding
A = 2(-Delta)/(4d/h^2) - I with vanishing diagonal. `run_application` wires
these into four experiments: heat (cosine-series evolution of e^{-T H^2}),
biharmonic (e^{-T H^4}), levy (fractional e^{-T (L'L)^{3/4}} driven through
the operator L'L itself, never through a materialized fractional power), and
matrix_poly (contour evaluation of a polynomial, checked against its exact
lattice identity).

No experiment calls a dense eigensolver. The discrete sine transform
diagonalizes -Delta exactly, and `laplacian_eigenpairs` returns its
eigenvalues and the 1-D DST-I basis in closed form, checked against the
stencil. The three Fourier experiments measure their error on the spectrum
of the operator (`linalg.distance_from`), with no dense series or oracle:
for levy the eigenvalues lam of -Delta, for heat and biharmonic those of H,
+-sqrt(lam) and 0 (L has more rows than columns, so LL' is singular). H is
never formed there; `dirac_operator` builds it explicitly for checking its
identities. matrix_poly decomposes A in the Kronecker product of the DST-I
basis, under the reconstruction contract of `linalg.eig`.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import contour, fourier
from .errors import NumericalError, PrecondError
from .instances import random_state
from .kernels import SpectralProfile
from .linalg import (check_reconstruction, distance_from, evolution_function,
                     frobenius, matfun_apply, unitary_decomposition)

_MAX_SITES = 4096
_DIRAC_TOL = 1e-12


@dataclass(frozen=True)
class GridSpec:
    """Uniform d-dimensional grid with n interior points per axis."""

    d: int
    n: int
    h: float

    def __post_init__(self):
        if self.d < 1 or self.n < 1:
            raise PrecondError(f"grid needs d >= 1 and n >= 1, got d={self.d}, n={self.n}")
        if not (math.isfinite(self.h) and self.h > 0):
            raise PrecondError(f"mesh size must be finite and positive, got {self.h}")
        if not 0.0 < 4.0 * self.d / self.h / self.h < math.inf:
            raise PrecondError(
                f"mesh size {self.h} leaves the stencil scale 4d/h^2 outside the "
                "positive finite floats")
        if self.n ** self.d > _MAX_SITES:
            raise PrecondError(
                f"grid has {self.n ** self.d} sites, beyond the desk-scale cap {_MAX_SITES}")

    @property
    def size(self) -> int:
        return self.n ** self.d


def difference_operator(n: int, h: float) -> np.ndarray:
    """Staggered (n+1) x n bidiagonal: -1/h on the diagonal, +1/h below.

    The normal product L'.T @ L' is then exactly the Dirichlet Laplacian
    tridiag(-1, 2, -1)/h^2.
    """
    if n < 1 or h <= 0:
        raise PrecondError(f"need n >= 1 and h > 0, got n={n}, h={h}")
    L = np.zeros((n + 1, n), dtype=float)
    idx = np.arange(n)
    L[idx, idx] = -1.0 / h
    L[idx + 1, idx] = 1.0 / h
    return L


def gradient_stack(g: GridSpec) -> np.ndarray:
    """Vertical stack of the axis-wise difference operators.

    Axis k applies the staggered stencil along that axis and identity along
    the others: L_k = I^{(k)} (x) L' (x) I^{(d-1-k)}; the stack satisfies
    L.T L = sum_k Laplacian_k (the Kronecker-sum Laplacian).
    """
    lp = difference_operator(g.n, g.h)
    blocks = []
    for k in range(g.d):
        left = np.eye(g.n ** k)
        right = np.eye(g.n ** (g.d - 1 - k))
        blocks.append(np.kron(np.kron(left, lp), right))
    return np.vstack(blocks)


def laplacian(g: GridSpec) -> np.ndarray:
    """Dirichlet Laplacian (-Delta) as a Kronecker sum of 1-D stencils."""
    one = (np.diag(2.0 * np.ones(g.n)) + np.diag(-np.ones(g.n - 1), 1)
           + np.diag(-np.ones(g.n - 1), -1)) / g.h / g.h
    out = np.zeros((g.size, g.size))
    for k in range(g.d):
        left = np.eye(g.n ** k)
        right = np.eye(g.n ** (g.d - 1 - k))
        out += np.kron(np.kron(left, one), right)
    return out


def laplacian_eigenpairs(g: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues of `laplacian(g)` in closed form, in its site order,
    and the 1-D eigenbasis S; the d-dimensional basis is S (x) ... (x) S.

    In 1-D, mu_j = (4/h^2) sin^2(j pi/(2(n+1))) with eigenvector column j of
    S_ij = sqrt(2/(n+1)) sin(i j pi/(n+1)), the DST-I basis: real,
    orthogonal and symmetric (Strang, SIAM Review 41, 1999; Van Loan,
    *Computational Frameworks for the FFT*, 1992, 4.5). mu is evaluated as
    (2/h^2)(1 - c_j) with c_j = cos(j pi/(n+1)) = sin((n+1-2j) pi/(2(n+1))):
    that sine is odd about the middle mode and exactly 0 there, so the
    spectrum of the shifted encoding, -c summed over the axes and divided
    by d, is exactly symmetric, and the 1 x 1 zero encoding of a one-site
    grid gets the eigenvalue 0. The d-dimensional eigenvalues are the
    Kronecker sums of mu, first axis slowest as in `laplacian`. The 1-D
    pairs are checked against the stencil T = tridiag(-1, 2, -1), applied
    as shifts in O(n^2), under the reconstruction contract:
    ||T S - S diag(h^2 mu)||_F <= 1e-10 ||T||.
    """
    n = g.n
    j = np.arange(1, n + 1)
    nu = 2.0 - 2.0 * np.sin((n + 1 - 2 * j) * (np.pi / (2 * (n + 1))))
    # i j reduced mod 2(n+1) first, so every sine argument stays below 2 pi
    S = math.sqrt(2.0 / (n + 1)) * np.sin(np.outer(j, j) % (2 * (n + 1)) * (np.pi / (n + 1)))
    TS = 2.0 * S
    TS[1:] -= S[:-1]
    TS[:-1] -= S[1:]
    check_reconstruction(TS, S * nu, float(nu.max()))
    mu = nu / g.h / g.h
    lam = reduce(lambda acc, _: np.add.outer(acc, mu).ravel(), range(g.d - 1), mu)
    return lam, S


@dataclass
class DiracOperator:
    """Hermitian block root operator."""

    H: np.ndarray


def dirac_operator(L: np.ndarray) -> DiracOperator:
    """H = [[0, -iL*], [iL, 0]]; verifies the block-square structure.

    Checks at construction (all relative to the scale of H^2):
    Hermiticity, H^2 = blockdiag(L*L, LL*), and top block of H^4 = (L*L)^2.
    """
    L = np.asarray(L, dtype=complex)
    if L.ndim != 2:
        raise PrecondError("gradient factor must be a matrix")
    m, n = L.shape
    H = np.zeros((m + n, m + n), dtype=complex)
    H[:n, n:] = -1j * L.conj().T
    H[n:, :n] = 1j * L
    herm = float(np.abs(H - H.conj().T).max())
    H2 = H @ H
    scale = max(float(np.abs(H2).max()), 1.0)
    block = np.zeros_like(H2)
    block[:n, :n] = L.conj().T @ L
    block[n:, n:] = L @ L.conj().T
    sq = float(np.abs(H2 - block).max()) / scale
    top4 = (H2 @ H2)[:n, :n]
    bi = float(np.abs(top4 - block[:n, :n] @ block[:n, :n]).max()) / scale ** 2
    worst = max(herm, sq, bi)
    if worst > _DIRAC_TOL:
        raise NumericalError(
            f"root-operator invariant violated: residual {worst:.3e} > {_DIRAC_TOL}")
    return DiracOperator(H=H)


def shifted_encoding(h_lap: np.ndarray, g: GridSpec) -> np.ndarray:
    """A = 2 h_lap / (4d/h^2) - I, the zero-diagonal contraction of -Delta.

    Uses the nominal norm proxy 4d/h^2 (not the exact sin^2 extreme), which
    is what makes the diagonal vanish identically. Rows of interior sites
    (coordinates in [1, n-2]) have 1-norm exactly 1, boundary rows less.
    """
    h_lap = np.asarray(h_lap, dtype=float)
    if h_lap.shape != (g.size, g.size):
        raise PrecondError(
            f"operator is {h_lap.shape}, grid expects {(g.size, g.size)}")
    return 2.0 * h_lap / (4.0 * g.d / g.h / g.h) - np.eye(g.size)


@dataclass
class ConvergenceRecord:
    """One experiment outcome, flat enough for a CSV row."""

    app: str
    d: int
    n: int
    h: float
    T: float | None     # None for matrix_poly run without one
    eps: float
    params: dict = field(default_factory=dict)
    error_measured: float = 0.0
    error_bound: float = 0.0
    wall_time_ms: float = 0.0


_APPS = ("heat", "biharmonic", "levy", "matrix_poly")
_DEFAULT_COEFFS = (1.0, 2.0, 0.0, 3.0)


def _fourier_app(app: str, g: GridSpec, T: float, eps: float) -> tuple[dict, float, float]:
    """Cosine-series evolution vs the spectral oracle, compared on the
    spectrum; returns (planner params, operator-norm error, reported bound)."""
    alpha, mode = {"heat": (2.0, "direct"), "biharmonic": (4.0, "direct"),
                   "levy": (0.75, "root")}[app]
    profile = SpectralProfile(alpha=alpha, T=T, mode=mode)
    # levy evolves L'L = -Delta itself. heat and biharmonic evolve the Dirac
    # root H, whose spectrum is +-sqrt(lam) and 0: L has more rows than
    # columns, so LL' is singular.
    spectrum = laplacian_eigenpairs(g)[0]
    if app != "levy":
        sigma = np.sqrt(spectrum)
        spectrum = np.concatenate([sigma, -sigma, [0.0]])
    distance = distance_from(spectrum, evolution_function(alpha, T))
    plan = fourier.plan_fourier(profile, spectrum, eps)
    err = distance(lambda lam: fourier.cosine_series(plan, lam))
    bound = plan.error_bounds().total
    params = {"mode": profile.mode, "alpha": profile.alpha, "regime": plan.regime,
              "a": plan.a, "K": plan.K}
    return params, err, bound


def _poly_app(g: GridSpec, eps: float, seed: int,
              coeffs, m: int | None) -> tuple[dict, float, float]:
    """Contour evaluation of a polynomial of the shifted encoding on a random
    state psi drawn from `seed`, measured against the exact lattice identity
    f(A) R1^m (R1^m I - A^m)^{-1} psi."""
    # A = 2(-Delta)/(4d/h^2) - I does not depend on h: on the unit mesh no
    # power of h can leave the float range.
    unit = GridSpec(g.d, g.n, 1.0)
    A = shifted_encoding(laplacian(unit), unit)
    psi = random_state(np.random.default_rng(seed), g.size)
    coeffs = np.asarray(coeffs, dtype=complex)
    f = lambda z: np.polynomial.polynomial.polyval(z, coeffs)
    # A is a polynomial of -Delta, so it shares the closed-form basis
    lam, S = laplacian_eigenpairs(unit)
    dec = unitary_decomposition(A, 2.0 * lam / (4.0 * g.d) - 1.0,
                                reduce(np.kron, [S] * g.d), hermitian=True)
    r1, _ = contour.lattice_radii(dec.spectral_radius)
    r2 = contour.optimize_radius(contour.sup_poly_abs(coeffs), r1, 16.0 * r1)
    psi_norm = frobenius(psi)
    plan = contour.plan_lattice(f, dec, eps, frobenius(matfun_apply(dec, f, psi)), psi_norm,
                                r1=r1, r2=r2, m=m)
    try:
        r1m = plan.r1 ** plan.m
    except OverflowError:
        r1m = math.inf
    if not sys.float_info.min <= r1m < math.inf:   # subnormal: psi / R1^m is inf
        raise PrecondError(f"R1^m = {plan.r1!r}^{plan.m} leaves the normal floats")
    disc = contour.discrete_sum_apply(dec, f, plan, psi)
    try:
        target = matfun_apply(dec, f, r1m * np.linalg.solve(
            r1m * np.eye(A.shape[0]) - np.linalg.matrix_power(A, plan.m), psi))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"lattice identity solve failed: {exc}")
    err = frobenius(disc - target)
    bound = plan.error_bounds(psi_norm).total
    params = {"R1": plan.r1, "R2": plan.r2, "m": plan.m, "quad_n": plan.quad_n}
    return params, err, bound


def run_application(app: str, g: GridSpec, T: float | None, eps: float,
                    seed: int = 0, coeffs=None,
                    m: int | None = None) -> ConvergenceRecord:
    """Run one end-to-end experiment and report errors vs its oracle.

    heat/biharmonic evolve e^{-T H^p} on the block root operator (p = 2, 4,
    direct mode) on its spectrum, without forming H; levy evolves
    e^{-T (L'L)^{3/4}} (root mode, alpha = 3/4). All three report the
    operator-norm deviation from the spectral oracle next to the planner's
    a-priori bound, measured as the largest deviation on the spectrum (for
    heat and biharmonic, that of H: plus and minus the square roots of the
    eigenvalues of L'L, and 0). Every spectrum comes from
    `laplacian_eigenpairs`. matrix_poly runs the contour path on the shifted
    encoding with an optimized outer radius and reports the deviation from
    the exact polynomial lattice identity; its bound column is the planned
    deviation from f(A) psi itself. It reads no T: T may be None there, and
    a T given is only validated and recorded.
    """
    if app not in _APPS:
        raise PrecondError(f"unknown application {app!r}; choose from {_APPS}")
    if eps <= 0 or not np.isfinite(eps):
        raise PrecondError(f"eps must be positive, got {eps}")
    if T is None and app != "matrix_poly":
        raise PrecondError(f"application {app!r} needs an evolution time T")
    if T is not None and (T < 0 or not np.isfinite(T)):
        raise PrecondError(f"T must be finite and non-negative, got {T}")
    dim = g.size if app in ("levy", "matrix_poly") else g.size + g.d * g.n ** (g.d - 1) * (g.n + 1)
    if dim > _MAX_SITES:
        raise PrecondError(f"dense dimension {dim} is beyond the desk-scale cap {_MAX_SITES}")

    t0 = time.perf_counter()
    if app == "matrix_poly":
        params, err, bound = _poly_app(
            g, eps, seed, _DEFAULT_COEFFS if coeffs is None else coeffs, m)
    else:
        params, err, bound = _fourier_app(app, g, T, eps)
    ms = (time.perf_counter() - t0) * 1e3
    return ConvergenceRecord(app=app, d=g.d, n=g.n, h=g.h, T=T, eps=eps,
                             params=params, error_measured=err,
                             error_bound=bound, wall_time_ms=ms)
