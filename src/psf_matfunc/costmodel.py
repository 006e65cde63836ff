"""Query-count models for both evaluation paths.

Every formula here is an asymptotic complexity evaluated with unit
constants — a scaling model, not a gate count. Reports carry an explicit
assumptions list naming each modeled constant so downstream tables cannot
be mistaken for absolute resource estimates. The interesting guarantees
are the exponents: T and 1/eps ratios reproduce the advertised powers
exactly because the models are single products plus an additive log term
that can be isolated by evaluating at T = 0.

The module holds the two models and `recommend`, which picks a path from
the target alone. The `cost` command calls them in turn, and it plans the
contour for `path_b_cost` with `contour.plan_lattice`, the planner every
contour command uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import contour
from .errors import PrecondError
from .kernels import SpectralProfile

_UNIT_NOTE = "all O(.) constants set to 1 (scaling model, not a gate count)"


@dataclass
class CostReport:
    """One path's modeled query counts plus the assumptions behind them."""

    path: str                  # "A" or "B"
    matrix_queries: float
    state_queries: float
    lcu_terms: float
    amplification: float
    l1_norm: float
    u_r: float
    assumptions: list = field(default_factory=list)

    def __post_init__(self):
        if self.path not in ("A", "B"):
            raise PrecondError(f"path must be 'A' or 'B', got {self.path!r}")
        for name in ("matrix_queries", "state_queries", "lcu_terms",
                     "amplification", "l1_norm", "u_r"):
            v = getattr(self, name)
            if not (v >= 0 and math.isfinite(v)):
                raise PrecondError(f"{name} must be finite and nonnegative, got {v}")


def l1_norm_model(profile: SpectralProfile) -> float:
    """Coefficient 1-norm model: exactly 1 in the stable band (p <= 2),
    logarithmic (4/pi^2) ln(p/2) + 1 beyond it."""
    p = profile.p
    if p <= 2.0:
        return 1.0
    return (4.0 / math.pi ** 2) * math.log(p / 2.0) + 1.0


def path_a_cost(profile: SpectralProfile, a_norm: float, T: float, eps: float,
                u_r: float = 1.0) -> CostReport:
    """Cosine-series path model. T overrides the profile's own time so the
    same profile can be swept.

    Analytic regime: u_r log(1+alpha) [ (||A|| T)^{1/p} L^{1-1/p} + L ],
    L = ln(u_r/eps). Fractional: u_r log(alpha+e) alpha (||A|| T)^{1/p}
    (u_r/eps)^{1/p}. Exponents use the access exponent p; the log prefactor
    uses the user-facing decay order alpha.
    """
    if a_norm < 0 or T < 0:
        raise PrecondError("norm and T must be nonnegative")
    if not (0.0 < eps < 1.0):
        raise PrecondError(f"eps must lie in (0, 1), got {eps}")
    if u_r < 1.0:
        raise PrecondError(f"u_r = ||u0||/||uT|| must be >= 1, got {u_r}")
    p, alpha = profile.p, profile.alpha
    L = math.log(u_r / eps)
    l1 = l1_norm_model(profile)
    assumptions = [_UNIT_NOTE,
                   f"l1-norm model: 1 for p <= 2, (4/pi^2) ln(p/2) + 1 beyond (p = {p:g})",
                   "amplification modeled as u_r * l1 (success-probability overhead)"]
    if profile.regime == "analytic":
        D = (a_norm * T) ** (1.0 / p) * L ** (1.0 - 1.0 / p)
        mq = u_r * math.log(1.0 + alpha) * (D + L)
        sq = u_r * math.log(1.0 + alpha)
        terms = D + L
        assumptions.append("analytic-regime coefficient count (||A||T)^{1/p} L^{1-1/p} + L")
    else:
        if p < 1.0:
            raise PrecondError(f"fractional path needs p >= 1, got p = {p}")
        D = alpha * (a_norm * T) ** (1.0 / p) * (u_r / eps) ** (1.0 / p)
        mq = u_r * math.log(alpha + math.e) * D
        sq = u_r * math.log(alpha + math.e)
        terms = alpha * (u_r / eps) ** (1.0 / p) * ((T * a_norm) ** (1.0 / p) + L ** (1.0 / p))
        assumptions.append("fractional-regime dominant factor (u_r/eps)^{1/p}")
    return CostReport(path="A", matrix_queries=mq, state_queries=sq,
                      lcu_terms=terms, amplification=u_r * l1, l1_norm=l1,
                      u_r=u_r, assumptions=assumptions)


def path_b_cost(plan: contour.ContourPlan, gamma: float, f_psi_norm: float,
                psi_norm: float, eps: float) -> CostReport:
    """Contour path model from a concrete plan.

    matrix_queries = gamma^2 alpha_A^2 B1 / ||f(A)psi|| *
    max(0, ln(gamma alpha_A B1 / (||f(A)psi|| eps))), no queries once that
    core is below eps; the block-encoding factor alpha_A is modeled as R1
    (the enclosing radius dominates the spectral norm at desk scale).
    Amplification is that envelope, the core factor gamma R1 B1 / ||f(A)psi||.
    """
    if gamma <= 0 or f_psi_norm <= 0 or psi_norm <= 0:
        raise PrecondError("gamma and the state norms must be positive")
    if not (0.0 < eps < 1.0):
        raise PrecondError(f"eps must lie in (0, 1), got {eps}")
    alpha_a = plan.r1
    core = gamma * alpha_a * plan.b1 / f_psi_norm
    if not 0.0 < core < math.inf:
        raise PrecondError(f"amplification gamma R1 B1 / ||f psi|| = {core} is 0 or inf")
    mq = gamma * alpha_a * core * max(math.log(core / eps), 0.0)
    return CostReport(path="B", matrix_queries=mq, state_queries=core,
                      lcu_terms=float(plan.m), amplification=core,
                      l1_norm=plan.r1 * plan.b1,
                      u_r=psi_norm / f_psi_norm,
                      assumptions=[_UNIT_NOTE,
                                   "block-encoding factor alpha_A modeled as R1",
                                   "coefficient 1-norm modeled as R1*B1",
                                   "u_r reported as ||psi||/||f(A)psi||",
                                   "amplification from the R1*B1 envelope "
                                   "(no f supplied)"])


def recommend(profile: SpectralProfile | None) -> tuple[str, str]:
    """(recommendation, reason) for a target given by its decay profile, or
    by a holomorphic f alone when profile is None.

    A fractional profile has a branch point at the origin, which rules out
    the contour representation: path-a. A holomorphic f with no decay
    profile goes to the contour path: path-b. An analytic (even-p) profile
    admits both: either.
    """
    if profile is None:
        return "path-b", ("f is holomorphic on a disk enclosing the spectrum; "
                          "geometric convergence applies")
    if profile.regime == "fractional":
        return "path-a", ("fractional exponent has a branch point at the origin; "
                          "no contour enclosure is analytic there")
    return "either", ("entire target function: both representations converge "
                      "(cosine series and contour lattice)")
