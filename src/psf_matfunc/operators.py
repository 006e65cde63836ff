"""Application operators and end-to-end experiment drivers.

Builds the staggered first-order difference stencil, its d-dimensional
Kronecker gradient stack, the Hermitian block root operator
H = [[0, -iL'], [iL, 0]] whose square is blockdiag(L'L, LL'), and the
spectrally shifted encoding A = 2H/(4d/h^2) - I with vanishing diagonal.
`run_application` wires these into four experiments: heat (cosine-series
evolution of e^{-T H^2}), biharmonic (e^{-T H^4}), levy (fractional
e^{-T (L'L)^{3/4}} driven through the operator L'L itself, never through a
materialized fractional power), and matrix_poly (contour evaluation of a
polynomial, checked against its exact lattice identity).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import contour, fourier
from .errors import NumericalError, PrecondError
from .instances import random_state
from .kernels import SpectralProfile
from .linalg import eig, evolution_matrix, matfun

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
        if self.h <= 0:
            raise PrecondError(f"mesh size must be positive, got {self.h}")
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
           + np.diag(-np.ones(g.n - 1), -1)) / g.h ** 2
    out = np.zeros((g.size, g.size))
    for k in range(g.d):
        left = np.eye(g.n ** k)
        right = np.eye(g.n ** (g.d - 1 - k))
        out += np.kron(np.kron(left, one), right)
    return out


@dataclass
class DiracOperator:
    """Hermitian block root operator and its gradient factor."""

    L: np.ndarray
    H: np.ndarray

    @property
    def laplacian_block(self) -> np.ndarray:
        """Top-left block of H^2, i.e. L'L."""
        n = self.L.shape[1]
        return (self.H @ self.H)[:n, :n].real


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
    return DiracOperator(L=L, H=H)


def shifted_encoding(h_lap: np.ndarray, g: GridSpec) -> np.ndarray:
    """A = 2 h_lap / (4d/h^2) - I, the zero-diagonal contraction of -Delta.

    Uses the nominal norm proxy 4d/h^2 (not the exact sin^2 extreme), which
    is what makes the diagonal vanish identically.
    """
    h_lap = np.asarray(h_lap, dtype=float)
    if h_lap.shape != (g.size, g.size):
        raise PrecondError(
            f"operator is {h_lap.shape}, grid expects {(g.size, g.size)}")
    return 2.0 * h_lap / (4.0 * g.d / g.h ** 2) - np.eye(g.size)


class ShiftStats(NamedTuple):
    diag_max: float
    interior_row_l1: float   # nan when the grid has no interior sites
    interior_count: int


def shifted_encoding_stats(h_lap: np.ndarray, g: GridSpec) -> ShiftStats:
    """Structure report for the shifted encoding of a grid Laplacian.

    Interior sites have all coordinates in [1, n-2]; their rows of A carry
    the full stencil, so their 1-norm is exactly 1 while boundary rows fall
    short (the lost neighbors are the Dirichlet boundary).
    """
    A = shifted_encoding(h_lap, g)
    diag_max = float(np.abs(np.diag(A)).max())
    coords = np.unravel_index(np.arange(g.size), (g.n,) * g.d)
    interior = np.ones(g.size, dtype=bool)
    for c in coords:
        interior &= (c >= 1) & (c <= g.n - 2)
    count = int(interior.sum())
    if count == 0:
        return ShiftStats(diag_max, float("nan"), 0)
    row_l1 = np.abs(A[interior]).sum(axis=1)
    return ShiftStats(diag_max, float(row_l1.max()), count)


@dataclass
class ConvergenceRecord:
    """One experiment outcome, flat enough for a CSV row."""

    app: str
    d: int
    n: int
    h: float
    T: float
    eps: float
    params: dict = field(default_factory=dict)
    error_measured: float = 0.0
    error_bound: float = 0.0
    wall_time_ms: float = 0.0


_APPS = ("heat", "biharmonic", "levy", "matrix_poly")
_DEFAULT_COEFFS = (1.0, 2.0, 0.0, 3.0)


def _fourier_app(app: str, g: GridSpec, T: float, eps: float) -> tuple[dict, float, float]:
    """Cosine-series evolution vs the spectral oracle; returns
    (planner params, operator-norm error, reported bound)."""
    L = gradient_stack(g)
    dop = dirac_operator(L)
    if app == "heat":
        profile = SpectralProfile(alpha=2.0, T=T, mode="direct")
        op = dop.H
        oracle = matfun(op, lambda lam: np.exp(-T * lam ** 2))
    elif app == "biharmonic":
        profile = SpectralProfile(alpha=4.0, T=T, mode="direct")
        op = dop.H
        oracle = matfun(op, lambda lam: np.exp(-T * lam ** 4))
    else:  # levy
        profile = SpectralProfile(alpha=0.75, T=T, mode="root")
        op = (L.conj().T @ L).real
        oracle = evolution_matrix(op, 0.75, T)
    h_norm = float(np.linalg.norm(op, 2))
    plan = fourier.plan_fourier(profile, h_norm, eps)
    approx = fourier.assemble_fourier_approx(plan, op)
    err = float(np.linalg.norm(approx - oracle, 2))
    bound = fourier.error_bounds(plan, h_norm).total
    params = {"mode": profile.mode, "alpha": profile.alpha, "regime": plan.regime,
              "a": plan.a, "K": plan.K}
    return params, err, bound


def _poly_app(g: GridSpec, eps: float, psi: np.ndarray,
              coeffs, m: int | None) -> tuple[dict, float, float]:
    """Contour evaluation of a polynomial of the shifted encoding, measured
    against the exact lattice identity f(A) R1^m (R1^m I - A^m)^{-1} psi."""
    A = shifted_encoding(laplacian(g), g)
    coeffs = np.asarray(coeffs, dtype=complex)
    f = lambda z: np.polynomial.polynomial.polyval(z, coeffs)
    dec = eig(A)
    rho = dec.spectral_radius
    r1 = 1.1 * rho
    res = contour.optimize_radius(contour.sup_poly_abs(coeffs), r1, 16.0 * r1)
    r2 = res.r2
    fA = matfun(A, f)
    psi_norm = float(np.linalg.norm(psi))
    if m is None:
        m = contour.plan_m(eps, r1, r2, contour.circle_sup(f, r2), dec.kappa_s,
                           float(np.linalg.norm(fA @ psi)), psi_norm, rho=rho)
    plan = contour.make_plan(f, r1, r2, m, kappa_s=dec.kappa_s)
    disc = contour.discrete_sum_apply(A, f, plan, psi)
    r1m = plan.r1 ** plan.m
    target = fA @ (r1m * np.linalg.solve(
        r1m * np.eye(A.shape[0]) - np.linalg.matrix_power(A, plan.m), psi))
    err = float(np.linalg.norm(disc - target))
    bound = (contour.aliasing_norm_ratio(plan, rho) * plan.b1 * plan.kappa_s * psi_norm
             + contour.truncation_norm_bound(plan, psi_norm))
    params = {"R1": plan.r1, "R2": plan.r2, "m": plan.m, "quad_n": plan.quad_n}
    return params, err, bound


def run_application(app: str, g: GridSpec, T: float, eps: float,
                    u0: np.ndarray | None = None, seed: int = 0,
                    coeffs=None, m: int | None = None) -> ConvergenceRecord:
    """Run one end-to-end experiment and report errors vs its oracle.

    heat/biharmonic evolve e^{-T H^p} on the block root operator (p = 2, 4,
    direct mode); levy evolves e^{-T (L'L)^{3/4}} (root mode, alpha = 3/4);
    all three report the operator-norm deviation from the dense spectral
    oracle next to the planner's a-priori bound. matrix_poly runs the
    contour path on the shifted encoding with an optimized outer radius and
    reports the deviation from the exact polynomial lattice identity; its
    bound column is the planned deviation from f(A) psi itself.
    """
    if app not in _APPS:
        raise PrecondError(f"unknown application {app!r}; choose from {_APPS}")
    if eps <= 0 or not np.isfinite(eps):
        raise PrecondError(f"eps must be positive, got {eps}")
    if T < 0 or not np.isfinite(T):
        raise PrecondError(f"T must be non-negative, got {T}")
    dim = g.size if app in ("levy", "matrix_poly") else g.size + g.d * g.n ** (g.d - 1) * (g.n + 1)
    if u0 is None:
        u0 = random_state(np.random.default_rng(seed), dim)
    u0 = np.asarray(u0, dtype=complex)
    if u0.shape != (dim,):
        raise PrecondError(f"state has shape {u0.shape}, operator expects ({dim},)")

    t0 = time.perf_counter()
    if app == "matrix_poly":
        params, err, bound = _poly_app(
            g, eps, u0, _DEFAULT_COEFFS if coeffs is None else coeffs, m)
    else:
        params, err, bound = _fourier_app(app, g, T, eps)
    ms = (time.perf_counter() - t0) * 1e3
    return ConvergenceRecord(app=app, d=g.d, n=g.n, h=g.h, T=T, eps=eps,
                             params=params, error_measured=err,
                             error_bound=bound, wall_time_ms=ms)
