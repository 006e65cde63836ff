"""Discrete contour (resolvent-lattice) evaluation of holomorphic f(A).

A uniform m-point lattice on the circle |z| = R1 enclosing the spectrum turns
the Cauchy integral into

    S_m = (1/m) sum_{k=1}^m w_k f(w_k) (w_k I - A)^{-1},  w_k = R1 e^{2 pi i k/m},

the periodic trapezoid rule on the circle (Trefethen & Weideman, "The
exponentially convergent trapezoidal rule", SIAM Review 56, 2014). It
differs from f(A) by two terms with clean geometric decay in m:

    S_m = f(A) - f(A) g(A) + E_m,   g(z) = z^m / (z^m - R1^m),

where the remainder E_m is a contour integral over a larger circle |z| = R2
(evaluated here by a periodic trapezoid rule, spectrally accurate). The
module provides the node set, one circle rule for the discrete sum and the
remainder, the aliasing term, the one planner `plan_lattice` (radius
defaults in `lattice_radii`, m from the two decay ratios in `plan_m`), the
one bound `ContourPlan.error_bounds`, and one golden-section search for R2
(`optimize_radius`; unimodal by the three-circles theorem). `plan_lattice`
takes the caller's `SpectralDecomposition`, and the plan keeps its spectral
radius and kappa_s, which the bound reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ErrorBudget, PrecondError
from .linalg import (Operator, SpectralDecomposition, as_decomposition, frobenius,
                     matfun, resolvent_apply, unitary_decomposition)

_SUP_SAMPLES = 4096
_UNIT_CIRCLE = np.exp(2j * np.pi * np.arange(_SUP_SAMPLES) / _SUP_SAMPLES)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_RADIUS_REL_TOL = 1e-6   # width of the final R2 bracket, relative to R2
# Largest node count of a plan (the remainder rule takes 8 times as many):
# it keeps a node count like 1e9 from allocating its nodes and solutions.
_MAX_NODES = 1 << 19


def make_nodes(r1: float, m: int) -> np.ndarray:
    """Lattice w_k = R1 e^{2 pi i k / m}, k = 1..m."""
    if r1 <= 0:
        raise PrecondError(f"lattice radius must be positive, got {r1}")
    if m < 1:
        raise PrecondError(f"node count must be >= 1, got {m}")
    k = np.arange(1, m + 1, dtype=float)
    return r1 * np.exp(2j * np.pi * k / m)


def circle_sup(f: Callable[[np.ndarray], np.ndarray], radius: float) -> float:
    """max |f| over a dense uniform sample of the circle |z| = radius."""
    z = radius * _UNIT_CIRCLE
    with np.errstate(all="ignore"):    # a non-finite value is refused below
        vals = np.abs(np.asarray(f(z), dtype=complex))
    if not np.all(np.isfinite(vals)):
        raise PrecondError(f"f is not finite on the circle |z| = {radius}")
    return float(vals.max())


@dataclass
class ContourPlan:
    """Radii, node count and circle statistics for a contour evaluation."""

    r1: float
    r2: float
    m: int
    b1: float           # sup |f| on |z| = R1
    b2: float           # sup |f| on |z| = R2
    kappa_s: float = 1.0    # of the planned operator's eigenbasis
    rho: float = 0.0        # spectral radius of the planned operator

    def __post_init__(self):
        if not (0.0 < self.r1 < self.r2):
            raise PrecondError(
                f"radii must satisfy 0 < R1 < R2, got R1={self.r1}, R2={self.r2}")
        if not 1 <= self.m <= _MAX_NODES:
            raise PrecondError(f"node count must lie in [1, {_MAX_NODES}], got {self.m}")
        if self.kappa_s < 1.0:
            raise PrecondError(f"kappa_s must be >= 1, got {self.kappa_s}")
        if not 0.0 <= self.rho < self.r1:
            raise PrecondError(f"need 0 <= rho < R1, got rho={self.rho}, R1={self.r1}")

    @property
    def mu(self) -> float:
        return self.r1 / self.r2

    @property
    def quad_n(self) -> int:
        """Nodes of the outer-circle trapezoid rule: max(8m, 256)."""
        return max(8 * self.m, 256)

    def error_bounds(self, psi_norm: float) -> ErrorBudget:
        """Bound on ||S_m psi - f(A) psi|| for the planned operator: the outer
        remainder R2 B2 kappa_s ||psi|| mu^m / ((1 - mu^m) (R2 - R1)) and the
        spectral overlap ||g(A)|| B1 kappa_s ||psi||, with ||g(A)|| <=
        rho^m/(R1^m - rho^m) = q/(1 - q), q = (rho/R1)^m."""
        mum, q = self.mu ** self.m, (self.rho / self.r1) ** self.m
        return ErrorBudget(
            truncation=(self.r2 * self.b2 * self.kappa_s * psi_norm * mum
                        / ((1.0 - mum) * (self.r2 - self.r1))),
            aliasing=q / (1.0 - q) * self.b1 * self.kappa_s * psi_norm)


def scalar_operator(x: float) -> SpectralDecomposition:
    """The decomposition of the 1 x 1 operator [x] (kappa_s = 1), for a
    plan whose caller holds a spectral radius and no operator."""
    return unitary_decomposition(np.array([[x]]), np.array([x]), np.eye(1),
                                 hermitian=True)


def make_plan(f: Callable[[np.ndarray], np.ndarray], r1: float, r2: float,
              m: int) -> ContourPlan:
    """`plan_lattice` for the operator [0] with given radii and node count."""
    return plan_lattice(f, scalar_operator(0.0), r1=r1, r2=r2, m=m)


def _check_enclosure(A: Operator, radius: float, label: str) -> SpectralDecomposition:
    """Decomposition of A, verifying spectral radius < radius."""
    dec = as_decomposition(A)
    rho = dec.spectral_radius
    if rho >= radius:
        raise PrecondError(
            f"spectral radius {rho:.6g} is not enclosed by {label} = {radius:.6g}")
    return dec


def _circle_rule(A: Operator, g: Callable[[np.ndarray], np.ndarray], radius: float,
                 n: int, psi: np.ndarray, label: str) -> np.ndarray:
    """(1/n) sum_k z_k g(z_k) (z_k I - A)^{-1} psi on z = make_nodes(radius, n),
    summed in ascending k, for a spectrum enclosed by the circle.

    All n node solves are one batched `resolvent_apply` call on A's
    decomposition; the reduction runs in a fixed order without threads, so
    results are bitwise reproducible.
    """
    dec = _check_enclosure(A, radius, label)
    z = make_nodes(radius, n)
    weights = z * np.asarray(g(z), dtype=complex) / n
    return np.sum(weights[:, None] * resolvent_apply(dec, z, psi), axis=0)


def discrete_sum_apply(A: Operator, f: Callable[[np.ndarray], np.ndarray],
                       plan: ContourPlan, psi: np.ndarray) -> np.ndarray:
    """S_m psi = (1/m) sum_k w_k f(w_k) (w_k I - A)^{-1} psi on the lattice."""
    return _circle_rule(A, f, plan.r1, plan.m, psi, "R1")


def aliasing_term(A: Operator, f: Callable[[np.ndarray], np.ndarray],
                  plan: ContourPlan, psi: np.ndarray) -> np.ndarray:
    """f(A) g(A) psi with g(z) = z^m / (z^m - R1^m), as one spectral function."""
    dec = _check_enclosure(A, plan.r1, "R1")
    m, r1m = plan.m, plan.r1 ** plan.m
    return matfun(dec, lambda z: f(z) * z ** m / (z ** m - r1m)) @ psi


def truncation_integral(A: Operator, f: Callable[[np.ndarray], np.ndarray],
                        plan: ContourPlan, psi: np.ndarray) -> np.ndarray:
    """Trapezoid evaluation of the outer-circle remainder term.

    (1/(2 pi i)) oint_{|z|=R2} R1^m/(z^m - R1^m) f(z) (zI-A)^{-1} psi dz,
    with plan.quad_n = max(8m, 256) uniform nodes.
    """
    m, r1m = plan.m, plan.r1 ** plan.m
    return _circle_rule(A, lambda z: f(z) * r1m / (z ** m - r1m), plan.r2,
                        plan.quad_n, psi, "R2")


def plan_m(eps: float, r1: float, r2: float, b2: float, kappa_s: float,
           f_psi_norm: float, psi_norm: float, rho: float = 0.0) -> int:
    """Smallest m with both error channels below eps/4 (relative).

    Channel (i), spectral overlap: rho^m/(R1^m - rho^m) <= eps/4.
    Channel (ii), remainder: mu^m/(1 - mu^m) <= eps f_psi_norm (R2 - R1)
    / (4 R2 B2 kappa_s psi_norm).
    """
    if not (0.0 < eps < 1.0):
        raise PrecondError(f"eps must lie in (0, 1), got {eps}")
    if not (0.0 <= rho < r1 < r2):
        raise PrecondError(f"need 0 <= rho < R1 < R2, got {rho}, {r1}, {r2}")
    if not (all(0.0 < v < math.inf for v in (f_psi_norm, psi_norm, b2))
            and 1.0 <= kappa_s < math.inf):
        raise PrecondError("norms and B2 must be finite and positive, "
                           "kappa_s finite and >= 1")

    def smallest(ratio: float, log_target: float) -> int:
        # ratio^m / (1 - ratio^m) <= t  <=>  m log(1/ratio) >= log(1 + 1/t),
        # in logarithms: t may underflow (a subnormal eps) or overflow
        if ratio == 0.0:
            return 1
        need = (math.log1p(math.exp(log_target)) - log_target if log_target < 0.0
                else math.log1p(math.exp(-log_target)))
        return max(1, math.ceil(need / -math.log(ratio)))

    m1 = smallest(rho / r1, math.log(eps) - math.log(4.0))
    log_t2 = (math.log(eps) + math.log(f_psi_norm) + math.log(r2 - r1) - math.log(4.0)
              - math.log(r2) - math.log(b2) - math.log(kappa_s) - math.log(psi_norm))
    m2 = smallest(r1 / r2, log_t2)
    return max(m1, m2)


def sup_poly_abs(coeffs) -> Callable[[float], float]:
    """f_sup for a polynomial with ascending coefficients: sum |a_n| R^n.

    Exact when all coefficients share a phase (sup attained on the positive
    ray); otherwise a safe upper envelope.
    """
    a = np.abs(np.asarray(coeffs, dtype=complex))
    return lambda r: float(np.polynomial.polynomial.polyval(r, a))


def optimize_radius(f_sup: Callable[[float], float], r1: float,
                    r2_cap: float) -> float:
    """Minimize phi(R2) = f_sup(R2) R2 / (R2 - R1)^2 over (R1, r2_cap].

    One golden-section search over t = log(R2 - R1) on [log(1e-9 span),
    log(span)], span = r2_cap - R1, until R2 is known to 1e-6 R2. One bracket
    is enough: for the supremum M(R) of |f| on |z| = R, log M is convex in
    log R (Hadamard's three-circles theorem), so d log phi / d log R2 =
    R2 M'/M + 1 - 2 R2/(R2 - R1) increases and phi has a single minimum. A
    search that never moves its upper end returns the cap itself; an interior
    optimum lies below it.
    """
    if not (r1 > 0 and r2_cap > r1):
        raise PrecondError(f"need 0 < R1 < r2_cap, got R1={r1}, cap={r2_cap}")

    def phi(t: float) -> float:
        offset = math.exp(t)
        val = f_sup(r1 + offset) * (r1 + offset) / offset ** 2
        if not np.isfinite(val):
            raise PrecondError(f"radius objective is not finite at R2={r1 + offset}")
        return float(val)

    span = r2_cap - r1
    lo, hi = math.log(1e-9 * span), math.log(span)
    c, d = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    fc, fd = phi(c), phi(d)
    while math.exp(hi) - math.exp(lo) > _RADIUS_REL_TOL * (r1 + math.exp(lo)):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = phi(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = phi(d)
    if hi == math.log(span):
        return r2_cap
    return r1 + math.exp(0.5 * (lo + hi))


def lattice_radii(rho: float, r1: float | None = None,
                  r2: float | None = None) -> tuple[float, float]:
    """(R1, R2) for spectral radius rho: R1 defaults to 1.1 rho and must
    enclose the spectrum, R2 defaults to 2 R1; both must be finite."""
    if r1 is None:
        if rho == 0.0:
            raise PrecondError("cannot choose R1 automatically for a nilpotent A")
        r1 = 1.1 * rho
    if rho >= r1:
        raise PrecondError(
            f"spectral radius {rho:.6g} is not enclosed by R1 = {r1:.6g}")
    r2 = 2.0 * r1 if r2 is None else r2
    if not (math.isfinite(r1) and math.isfinite(r2)):
        raise PrecondError(f"radii must be finite, got R1={r1}, R2={r2}")
    return r1, r2


def plan_lattice(f: Callable[[np.ndarray], np.ndarray], dec: SpectralDecomposition,
                 eps: float | None = None, f_psi_norm: float | None = None,
                 psi_norm: float | None = None, r1: float | None = None,
                 r2: float | None = None, m: int | None = None) -> ContourPlan:
    """The contour planner for the operator of `dec`, whose spectral radius
    and kappa_s it keeps: radii (`lattice_radii`), circle suprema and m. m
    defaults to `plan_m` at relative accuracy eps against ||f(A) psi||;
    only then are eps and the two norms read."""
    rho, kappa_s = dec.spectral_radius, dec.kappa_s
    r1, r2 = lattice_radii(rho, r1, r2)
    b2 = circle_sup(f, r2)
    if m is None:
        m = plan_m(eps, r1, r2, b2, kappa_s, f_psi_norm, psi_norm, rho=rho)
    return ContourPlan(r1=r1, r2=r2, m=m, b1=circle_sup(f, r1), b2=b2,
                       kappa_s=kappa_s, rho=rho)


def plan_contour(A: Operator, f: Callable[[np.ndarray], np.ndarray],
                 psi: np.ndarray, eps: float,
                 optimize: bool = False, r2_cap_factor: float = 16.0) -> ContourPlan:
    """End-to-end plan for f(A) psi: eig, f(A) psi, then `plan_lattice` at
    the default radii of `lattice_radii`.

    With optimize=True, R2 is the golden-section optimum of the remainder
    prefactor on (R1, r2_cap_factor R1]. The reference norm ||f(A) psi|| is
    computed spectrally (desk scale).
    """
    dec = as_decomposition(A)
    psi = np.asarray(psi, dtype=complex)
    r2 = None
    if optimize:
        r1, _ = lattice_radii(dec.spectral_radius)
        r2 = optimize_radius(lambda r: circle_sup(f, r), r1, r2_cap_factor * r1)
    return plan_lattice(f, dec, eps, frobenius(matfun(dec, f) @ psi), frobenius(psi),
                        r2=r2)
