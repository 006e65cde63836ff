"""Query counts and LCU sizes of both evaluation paths.

The LCU fields are read from the plans: path A's `lcu_terms` 2K + 1 and
`l1_norm` |c_0| + 2 sum_{k>=1} |c_k| (Childs & Wiebe, QIC 12, 2012), path
B's node count m and sum_j |c_j| of its `contour.circle_rule` weights c_j,
with amplification gamma sum_j |c_j| / ||f(A)psi||. `matrix_queries` and
`state_queries` are scaling models: asymptotic complexities with unit
constants, not gate counts, as each report's assumptions list says. Their T
and 1/eps ratios reproduce the advertised powers exactly: `path_a_queries`
is a single product plus an additive log term, isolated at T = 0, where no
plan exists.

`recommend` picks a path from the target alone. The `cost` command plans
with `fourier.plan_fourier` and `contour.plan_lattice`, as the other
commands do, and exits 2 where a planner refuses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import contour, fourier
from .errors import PrecondError
from .kernels import SpectralProfile

_UNIT_NOTE = "query counts: all O(.) constants set to 1 (scaling model, not a gate count)"


@dataclass
class CostReport:
    """One path's query counts and LCU size plus the assumptions behind them."""

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


def path_a_queries(profile: SpectralProfile, a_norm: float, T: float, eps: float,
                   u_r: float = 1.0) -> tuple[float, float]:
    """(matrix_queries, state_queries) of the cosine-series path, a scaling
    model. T overrides the profile's own time so the same profile can be
    swept.

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
    if profile.regime == "analytic":
        L = math.log(u_r / eps)
        D = (a_norm * T) ** (1.0 / p) * L ** (1.0 - 1.0 / p)
        return u_r * math.log(1.0 + alpha) * (D + L), u_r * math.log(1.0 + alpha)
    if p < 1.0:
        raise PrecondError(f"fractional path needs p >= 1, got p = {p}")
    D = alpha * (a_norm * T) ** (1.0 / p) * (u_r / eps) ** (1.0 / p)
    return u_r * math.log(alpha + math.e) * D, u_r * math.log(alpha + math.e)


def path_a_cost(plan: fourier.FourierPlan, a_norm: float, u_r: float = 1.0) -> CostReport:
    """Cosine-series path report for a plan made against the norm a_norm:
    the query counts of `path_a_queries` at the plan's profile and eps, and
    the LCU of the plan, 2K + 1 terms of 1-norm |c_0| + 2 sum_{k>=1} |c_k|."""
    mq, sq = path_a_queries(plan.profile, a_norm, plan.profile.T, plan.eps_internal, u_r)
    c = fourier.lcu_coefficients(plan)
    l1 = abs(float(c[0])) + 2.0 * float(np.abs(c[1:]).sum())
    return CostReport(path="A", matrix_queries=mq, state_queries=sq,
                      lcu_terms=float(2 * plan.K + 1), amplification=u_r * l1,
                      l1_norm=l1, u_r=u_r,
                      assumptions=[_UNIT_NOTE,
                                   "amplification taken as u_r * l1_norm "
                                   "(success-probability overhead)"])


def path_b_cost(plan: contour.ContourPlan, f: Callable[[np.ndarray], np.ndarray],
                gamma: float, f_psi_norm: float, psi_norm: float, eps: float) -> CostReport:
    """Contour path report from a concrete plan of f.

    The LCU is the plan's `contour.circle_rule`: m terms of weights c_j =
    w_j f(w_j) / m on the nodes w_j, of 1-norm ||c||_1 = sum_j |c_j|. The
    amplification and state-query core is gamma ||c||_1 / ||f(A)psi||, and
    matrix_queries = gamma alpha_A core * max(0, ln(core / eps)), no queries
    once the core is below eps; the block-encoding factor alpha_A is modeled
    as R1 (the enclosing radius dominates the spectral norm at desk scale).
    """
    if gamma <= 0 or f_psi_norm <= 0 or psi_norm <= 0:
        raise PrecondError("gamma and the state norms must be positive")
    if not (0.0 < eps < 1.0):
        raise PrecondError(f"eps must lie in (0, 1), got {eps}")
    with np.errstate(all="ignore"):    # a non-finite weight is refused below
        _, weights = contour.circle_rule(f, plan.r1, plan.m)
        l1 = float(np.abs(weights).sum())
    core = gamma * l1 / f_psi_norm
    if not 0.0 < core < math.inf:
        raise PrecondError(f"amplification gamma ||c||_1 / ||f psi|| = {core} is 0 or inf")
    mq = gamma * plan.r1 * core * max(math.log(core / eps), 0.0)     # alpha_A = R1
    return CostReport(path="B", matrix_queries=mq, state_queries=core,
                      lcu_terms=float(plan.m), amplification=core, l1_norm=l1,
                      u_r=psi_norm / f_psi_norm,
                      assumptions=[_UNIT_NOTE,
                                   "block-encoding factor alpha_A modeled as R1",
                                   "u_r reported as ||psi||/||f(A)psi||"])


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
