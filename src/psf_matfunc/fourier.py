"""Lattice planner and LCU assembly for the Fourier path.

For a profile e^{-T|xi|^p} and a Hermitian operator H, the target function of
H is approximated by a finite cosine combination

    sum_{|k| <= K} c_k cos((2 pi k / a) * G),   c_k = f(k/a) / a,

where G = sqrt(H) in root mode and G = H in direct mode, and f is the
time-domain kernel of the profile. By the Poisson identity the c_k are the
Fourier coefficients of the a-periodized profile sum_n e^{-T|xi + n a|^p}, so
all of them come from one FFT: `kernels.lattice_kernel` samples f on the
lattice k/a and removes the FFT's own aliases a priori (its quadrature
counterpart `kernels.kernel_values` is the test oracle). Two error channels
exist and are planned for separately:

- truncation (dropping |k| > K), controlled by the kernel decay envelope;
- aliasing (spectral copies spaced a apart), controlled by the gap between
  the lattice period a and the spectral scale of H.

The planner, `plan_fourier`, takes the real spectrum of H and picks the
period a and the cutoff K so each reported bound is at most eps_internal / 2;
the plan keeps the spectral scale, so `FourierPlan.error_bounds` takes no
operator data. One evaluator, `cosine_series`, sums the series at real points
for any cutoff up to the plan's. Every run is measured on the spectrum of H
against the one reference, `linalg.evolution_function(alpha, T)`, through
`linalg.distance_from`: the target is e^{-T H^alpha} in both modes, since
direct mode has p = alpha. `assemble_fourier_approx` maps the series to a
dense matrix through `linalg.matfun`; no command needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ErrorBudget, NumericalError, PrecondError
from .kernels import (_LOG_FLOAT_MAX, SpectralProfile, algebraic_envelope_constant,
                      lattice_kernel, saddle_rate)
from .linalg import Operator, clamp_psd, hermitian_eig, matfun

_GROWTH = 1.05
_MAX_GROWTH_STEPS = 200
# Largest cos(k theta) table `cosine_series` builds: 2^27 floats, 1 GiB (its
# outer-product argument takes as much again).
_MAX_TABLE_ENTRIES = 1 << 27


def _log_over(c: float, eps: float) -> float:
    """log(c / eps), kept finite where c / eps overflows (a subnormal eps)."""
    q = c / eps
    return math.log(q) if q < math.inf else math.log(c) - math.log(eps)


def truncation_ratio(profile: SpectralProfile, eps_internal: float) -> float:
    """Closed-form seed for K/a making the truncation tail ~ eps_internal/2.

    Analytic regime: (p/2/pi) * T^{1/p} * (log(2/eps')/(p-1))^{1-1/p}.
    Fractional regime: (2 C / ((p/2) eps'))^{1/p} with the algebraic envelope
    constant C.
    """
    p, T = profile.p, profile.T
    a_eff = p / 2.0
    if profile.regime == "analytic":
        return (a_eff / math.pi) * T ** (1.0 / p) * (
            _log_over(2.0, eps_internal) / (p - 1.0)) ** (1.0 - 1.0 / p)
    if p < 1.0:
        raise PrecondError(
            f"fractional planning needs p >= 1 (profile has p = {p}); "
            "use root mode with alpha >= 0.5")
    C = algebraic_envelope_constant(p, T)
    if C == 0.0:
        raise PrecondError(f"algebraic envelope constant of p={p:g}, T={T:g} underflows to 0")
    denom = a_eff * eps_internal     # 0 when eps' is near the smallest float
    target = 2.0 * C / denom if denom else math.inf
    if math.isinf(target):
        log_ratio = (math.log(2.0 * C / a_eff) - math.log(eps_internal)) / p
        return math.exp(log_ratio) if log_ratio <= _LOG_FLOAT_MAX else math.inf
    return target ** (1.0 / p)


def truncation_bound(profile: SpectralProfile, ratio: float) -> float:
    """Reported bound on the dropped |k| > K mass at cutoff ratio X = K/a.

    Analytic: 4 * exp(-lam X^beta) / (lam beta X^{beta-1}) — the one-sided
    envelope integral with a factor 2 for the two tails and a factor 2
    prefactor safety (the true saddle prefactor reaches sqrt(pi) at p = 2).
    The rate is the stationary-phase one (saddle_rate), which the kernel
    actually follows; the model envelope's faster rate would understate the
    tail for p > 2. Fractional: C / ((p/2) X^p), conservative through C.
    """
    if ratio <= 0:
        raise PrecondError(f"cutoff ratio must be positive, got {ratio}")
    p, T = profile.p, profile.T
    if profile.regime == "analytic":
        lam, beta = saddle_rate(profile)
        try:
            return 4.0 * math.exp(-lam * ratio ** beta) / (lam * beta * ratio ** (beta - 1.0))
        except OverflowError:
            raise PrecondError(f"truncation bound of p={p:g}, T={T:g} exceeds the float range")
    C = algebraic_envelope_constant(p, T)
    if p * math.log(ratio) + math.log(p) > _LOG_FLOAT_MAX:   # (p/2) ratio^p overflows
        return math.exp(math.log(C / (p / 2.0)) - p * math.log(ratio))
    return C / ((p / 2.0) * ratio ** p)


def aliasing_bound(profile: SpectralProfile, gap: float, eps_internal: float) -> float:
    """Reported bound on the spectral-copy overlap at lattice gap D = a - scale.

    Analytic: 2 e^{-T D^p}; fractional: C_a e^{-T D^p} with the slightly
    larger constant C_a = 2 (1 + 1/(p log(1/eps'))). e^{-T D^p} is 0 where
    D^p exceeds the float range.
    """
    if gap <= 0:
        raise PrecondError(f"aliasing gap must be positive, got {gap}")
    p, T = profile.p, profile.T
    base = 0.0 if p * math.log(gap) > _LOG_FLOAT_MAX else math.exp(-T * gap ** p)
    if profile.regime == "analytic":
        return 2.0 * base
    c_a = 2.0 * (1.0 + 1.0 / (p * _log_over(1.0, eps_internal)))
    return c_a * base


@dataclass
class FourierPlan:
    """Lattice parameters plus (lazily attached) LCU coefficients."""

    profile: SpectralProfile
    a: float                     # lattice period
    K: int                       # cosine cutoff, terms |k| <= K
    eps_internal: float
    spectral_scale: float        # scale the aliasing gap was planned against
    coefficients: np.ndarray | None = field(default=None, repr=False)

    @property
    def ratio(self) -> float:
        return self.K / self.a

    @property
    def regime(self) -> str:
        return self.profile.regime

    def error_bounds(self) -> ErrorBudget:
        """Truncation/aliasing bounds on the spectrum the plan was built for."""
        return ErrorBudget(
            truncation=truncation_bound(self.profile, self.ratio),
            aliasing=aliasing_bound(self.profile, self.a - self.spectral_scale,
                                    self.eps_internal))


def plan_fourier(profile: SpectralProfile, spectrum: np.ndarray,
                 eps_internal: float) -> FourierPlan:
    """Choose lattice period a and cutoff K for a Hermitian H of the given
    real spectrum, whose scale is sqrt(||H||) in root mode and ||H|| =
    max |lambda| in direct mode.

    Seeds from the closed forms, then grows by 5% steps until each reported
    bound is <= eps_internal/2 (the fractional aliasing constant sits a hair
    above 2, so the seed can land just over budget).
    """
    if not (0.0 < eps_internal < 1.0):
        raise PrecondError(f"eps_internal must lie in (0, 1), got {eps_internal}")
    lam = np.abs(np.asarray(spectrum))
    h_norm = float(lam.max()) if lam.size else math.nan
    if not (0 <= h_norm < math.inf):
        raise PrecondError(
            f"operator norm must be finite and non-negative, got {h_norm}")
    scale = math.sqrt(h_norm) if profile.mode == "root" else h_norm
    p, T = profile.p, profile.T

    # Seeds land exactly on the eps'/2 budget in exact arithmetic; the 1e-9
    # relative slack keeps rounding from triggering a spurious growth step.
    budget = (eps_internal / 2.0) * (1.0 + 1e-9)

    # A seed, ratio or K beyond the float range is inf, and K refuses it.
    seed = _log_over(4.0, eps_internal) / T
    gap = math.inf if math.log(seed) / p > _LOG_FLOAT_MAX else seed ** (1.0 / p)
    for _ in range(_MAX_GROWTH_STEPS):
        if aliasing_bound(profile, gap, eps_internal) <= budget:
            break
        gap *= _GROWTH
    else:
        raise NumericalError("aliasing gap failed to reach its budget")
    a = scale + gap

    ratio = truncation_ratio(profile, eps_internal)
    for _ in range(_MAX_GROWTH_STEPS):
        if truncation_bound(profile, ratio) <= budget:
            break
        ratio *= _GROWTH
    else:
        raise NumericalError("truncation cutoff failed to reach its budget")

    if not math.isfinite(ratio * a):
        raise PrecondError(f"cutoff K = {ratio!r} * period {a!r} exceeds the float range")
    K = max(1, int(math.ceil(ratio * a)))
    if a - scale <= 0:
        raise PrecondError(
            f"lattice period {a} does not clear the spectral scale {scale}")
    return FourierPlan(profile=profile, a=a, K=K, eps_internal=eps_internal,
                       spectral_scale=scale)


def lcu_coefficients(plan: FourierPlan) -> np.ndarray:
    """Coefficients c_k = f(k/a)/a for k = 0..K (evenness implied).

    The samples come from one lattice FFT and are cached on the plan.
    """
    if plan.coefficients is None:
        plan.coefficients = lattice_kernel(plan.profile, 0.0, 1.0 / plan.a,
                                           plan.K + 1) / plan.a
    return plan.coefficients


def cosine_series(plan: FourierPlan, lam: np.ndarray,
                  K: int | None = None) -> np.ndarray:
    """c_0 + 2 sum_{k=1}^K c_k cos(2 pi k theta / a), K <= plan.K (default),
    at each eigenvalue lam of a Hermitian H: theta = sqrt(lam) in root mode,
    which requires lam >= 0 up to the `clamp_psd` window, and lam in direct
    mode. Every theta must stay below the period a."""
    K = plan.K if K is None else K
    if not 0 <= K <= plan.K:
        raise PrecondError(f"cutoff {K} outside the plan's 0..{plan.K}")
    grid = np.sqrt(clamp_psd(lam)) if plan.profile.mode == "root" else lam
    scale = float(np.abs(grid).max()) if grid.size else 0.0
    if scale >= plan.a:
        raise PrecondError(
            "operator exceeds the spectral scale the plan was built for "
            f"(scale {scale:.6g} >= period {plan.a:.6g})")
    if K * grid.size > _MAX_TABLE_ENTRIES:
        raise PrecondError(
            f"cosine table of {K} terms on {grid.size} eigenvalues exceeds "
            f"{_MAX_TABLE_ENTRIES} entries")
    c = lcu_coefficients(plan)
    theta = (2.0 * np.pi / plan.a) * grid
    ks = np.arange(1, K + 1, dtype=float)
    return c[0] + 2.0 * (c[1:K + 1] @ np.cos(np.outer(ks, theta)))


def assemble_fourier_approx(plan: FourierPlan, H: Operator) -> np.ndarray:
    """Evaluate the cosine combination of the plan on a Hermitian H:
    `cosine_series` on the spectrum, mapped through `matfun`."""
    return matfun(hermitian_eig(H), lambda lam: cosine_series(plan, lam.real))
