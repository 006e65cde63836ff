import math
import re
from dataclasses import replace

import numpy as np
import pytest

from psf_matfunc import fourier
from psf_matfunc.errors import EPS_FLOOR, PrecondError
from psf_matfunc.fourier import (aliasing_bound, assemble_fourier_approx,
                                 cosine_series, lcu_coefficients, plan_fourier,
                                 truncation_bound, truncation_ratio)
from psf_matfunc.instances import random_psd
from psf_matfunc.kernels import SpectralProfile, algebraic_envelope_constant
from psf_matfunc.linalg import eig, evolution_matrix, matfun

from helpers import psf_residual, random_diagonalizable, random_hermitian


def test_planner_worked_example():
    """alpha=1 root, T=1, eps'=1e-6, ||H||=1: the period follows the
    closed-form aliasing condition a = 1 + sqrt(ln(4/eps')) and K = 6."""
    plan = plan_fourier(SpectralProfile(1.0, 1.0, "root"), [1.0], 1e-6)
    assert plan.a == pytest.approx(4.89894920704081, rel=1e-12)
    assert plan.K == 6
    assert plan.regime == "analytic"
    gap = plan.a - 1.0
    assert gap == pytest.approx(math.sqrt(math.log(4e6)), rel=1e-12)
    assert gap == pytest.approx(3.90, abs=5e-3)


def test_spectral_scale_modes():
    """The planner reads ||H|| = max |lambda| off the spectrum: its square
    root in root mode, itself in direct mode, where a negative eigenvalue
    counts by its modulus. An empty or non-finite spectrum is refused."""
    prof_r = SpectralProfile(1.0, 1.0, "root")
    prof_d = SpectralProfile(2.0, 1.0, "direct")
    assert plan_fourier(prof_r, [1.0, 4.0], 1e-6).spectral_scale == 2.0
    assert plan_fourier(prof_d, [0.5, 4.0], 1e-6).spectral_scale == 4.0
    assert plan_fourier(prof_d, [-4.0, 1.0], 1e-6).spectral_scale == 4.0
    for bad in ([], [1.0, math.nan], [math.inf]):
        with pytest.raises(PrecondError, match="operator norm"):
            plan_fourier(prof_r, np.array(bad), 1e-6)
    with pytest.raises(PrecondError, match="does not clear"):
        plan_fourier(prof_d, [1e300], 1e-6)    # a - scale rounds to 0


@pytest.mark.parametrize("profile", [
    SpectralProfile(1.0, 1.0, "root"),
    SpectralProfile(2.0, 0.5, "direct"),
    SpectralProfile(3.0, 1.0, "root"),
    SpectralProfile(0.75, 1.0, "root"),
    SpectralProfile(1.5, 2.0, "direct"),
])
def test_budgets_within_half_eps(profile):
    """Both reported bounds land at or below eps'/2 by construction."""
    eps = 1e-5
    plan = plan_fourier(profile, [1.0], eps)
    budget = plan.error_bounds()
    slack = 1.0 + 1e-9
    assert budget.truncation <= 0.5 * eps * slack
    assert budget.aliasing <= 0.5 * eps * slack


def test_bounds_monotone():
    prof = SpectralProfile(1.0, 1.0, "root")
    ratios = [0.5, 1.0, 2.0, 4.0]
    tb = [truncation_bound(prof, r) for r in ratios]
    assert all(b < a for a, b in zip(tb, tb[1:]))
    gaps = [2.0, 3.0, 4.0, 6.0]
    ab = [aliasing_bound(prof, g, 1e-6) for g in gaps]
    assert all(b < a for a, b in zip(ab, ab[1:]))


def test_truncation_bound_beyond_the_float_range():
    """At T = 1e-139 and p = 231 the constant C stays finite while (p/2) X^p
    overflows: the bound is read through logarithms, not as C / inf = 0."""
    prof = SpectralProfile(115.47819846894582, 1e-139, "root")
    p, X = prof.p, 21.300066713021625
    C = algebraic_envelope_constant(p, prof.T)
    expected = math.exp(math.log(C) - math.log(p / 2.0) - p * math.log(X))
    assert truncation_bound(prof, X) == pytest.approx(expected, rel=1e-12)
    assert 0.0 < expected < 1.0


@pytest.mark.parametrize("eps, K", [(1e-300, 229), (1e-310, 237), (5e-324, 246)])
def test_planner_takes_a_subnormal_eps(eps, K):
    """An eps below the rounding floor is refused (exit 2), the floor named.
    It was once planned: K = 229, 237 and 246 terms, of which all past
    k ~ 54 were the sampler's rounding noise. At the floor itself the plan
    is finite and shorter, and the fractional aliasing constant keeps its
    1/log term."""
    prof = SpectralProfile(2.0, 1.0, "direct")
    with pytest.raises(PrecondError, match=re.escape(f"[{EPS_FLOOR:g}, 1)")):
        plan_fourier(prof, [1.0], eps)
    plan = plan_fourier(prof, [1.0], EPS_FLOOR)
    assert plan.K < K and math.isfinite(plan.a)
    c_a = aliasing_bound(SpectralProfile(0.75, 1.0, "root"), 1.0, EPS_FLOOR) / math.exp(-1.0)
    assert c_a == pytest.approx(2.0 * (1.0 + 1.0 / (1.5 * -math.log(EPS_FLOOR))), rel=1e-12)


def test_fractional_needs_p_at_least_one():
    prof = SpectralProfile(0.8, 1.0, "direct")  # p = 0.8 < 1
    with pytest.raises(PrecondError):
        truncation_ratio(prof, 1e-4)


def test_coefficients_cached_and_guarded():
    prof = SpectralProfile(1.0, 1.0, "root")
    plan = plan_fourier(prof, [1.0], 1e-6)
    c1 = lcu_coefficients(plan)
    assert c1 is lcu_coefficients(plan)
    assert c1.shape == (plan.K + 1,)
    assert np.all(c1 > 0)          # Gaussian samples


def test_assemble_identity_at_zero_operator():
    plan = plan_fourier(SpectralProfile(1.0, 1.0, "root"), [1.0], 1e-6)
    approx = assemble_fourier_approx(plan, np.zeros((3, 3)))
    assert np.linalg.norm(approx - np.eye(3), 2) <= 1e-6


def test_assemble_root_mode_psd_oracle():
    H = random_psd(np.random.default_rng(7), 8, norm=1.0)
    plan = plan_fourier(SpectralProfile(1.0, 1.0, "root"), [1.0], 1e-6)
    err = np.linalg.norm(assemble_fourier_approx(plan, H)
                         - evolution_matrix(H, 1.0, 1.0), 2)
    assert err <= 2e-6


def test_assemble_direct_mode_indefinite_oracle():
    """Even p acts through cos, so direct mode tolerates indefinite spectra."""
    H = random_hermitian(np.random.default_rng(8), 8, norm=1.0)
    plan = plan_fourier(SpectralProfile(2.0, 1.0, "direct"), [1.0], 1e-6)
    oracle = matfun(H, lambda lam: np.exp(-lam**2))
    err = np.linalg.norm(assemble_fourier_approx(plan, H) - oracle, 2)
    assert err <= 2e-6


def test_assemble_error_within_twice_eps_analytic():
    eps = 1e-6
    plan = plan_fourier(SpectralProfile(1.0, 1.0, "root"), [1.0], eps)
    worst = 0.0
    for i in range(20):
        H = random_psd(np.random.default_rng(100 + i), 6, norm=1.0)
        err = np.linalg.norm(assemble_fourier_approx(plan, H)
                             - evolution_matrix(H, 1.0, 1.0), 2)
        worst = max(worst, err)
    assert worst <= 2.0 * eps


def test_assemble_error_within_twice_eps_fractional():
    eps = 1e-3
    plan = plan_fourier(SpectralProfile(0.75, 1.0, "root"), [1.0], eps)
    worst = 0.0
    for i in range(20):
        H = random_psd(np.random.default_rng(200 + i), 6, norm=1.0)
        err = np.linalg.norm(assemble_fourier_approx(plan, H)
                             - evolution_matrix(H, 0.75, 1.0), 2)
        worst = max(worst, err)
    assert worst <= 2.0 * eps


def test_assemble_measured_error_below_reported_budget():
    # The fractional case is the K = 2422 stress plan of the Fourier path.
    for profile, eps in [(SpectralProfile(1.0, 1.0, "root"), 1e-6),
                         (SpectralProfile(2.0, 1.0, "direct"), 1e-6),
                         (SpectralProfile(0.75, 1.0, "root"), 1e-4)]:
        plan = plan_fourier(profile, [1.0], eps)
        assert profile.regime == "analytic" or plan.K == 2422
        budget = plan.error_bounds()
        H = random_psd(np.random.default_rng(31), 8, norm=1.0)
        oracle = evolution_matrix(H, profile.alpha, profile.T)
        err = np.linalg.norm(assemble_fourier_approx(plan, H) - oracle, 2)
        assert err <= budget.total


def test_assemble_guards():
    plan = plan_fourier(SpectralProfile(1.0, 1.0, "root"), [1.0], 1e-6)
    with pytest.raises(PrecondError):
        assemble_fourier_approx(plan, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(PrecondError):  # indefinite under a root plan
        assemble_fourier_approx(plan, np.diag([-0.5, 0.5]))
    with pytest.raises(PrecondError):  # norm beyond what the plan covers
        assemble_fourier_approx(plan, np.diag([30.0, 0.5]))


def test_cosine_series_cutoffs_share_one_sample():
    """Lower cutoffs of a wider plan reproduce the plan's own series."""
    H = random_psd(7, 6, norm=1.0)
    plan = plan_fourier(SpectralProfile(0.75, 1.0, "root"), [1.0], 1e-3)
    lam, V = np.linalg.eigh(H)
    np.testing.assert_array_equal(
        (V * cosine_series(plan, lam)) @ V.conj().T, assemble_fourier_approx(plan, H))
    wide = replace(plan, K=plan.K + 20, coefficients=None)
    diff = np.abs(cosine_series(wide, lam, plan.K) - cosine_series(plan, lam)).max()
    assert diff <= 1e-15
    assert np.all(cosine_series(plan, lam, 0) == plan.coefficients[0])
    with pytest.raises(PrecondError):
        cosine_series(plan, lam, plan.K + 1)


def test_cosine_series_refuses_oversized_table():
    """A cutoff times eigenvalue count beyond the table cap is refused before
    the coefficients are sampled or the cosine table is allocated."""
    plan = plan_fourier(SpectralProfile(1.0, 1.0, "direct"), [1.0], 1e-6)
    wide = replace(plan, K=1 << 26, coefficients=None)
    with pytest.raises(PrecondError, match="cosine table"):
        cosine_series(wide, np.array([0.25, 0.5, 0.75]))
    assert wide.coefficients is None


def test_evolution_oracle_modes():
    """The one oracle evolution_matrix(H, alpha, T) serves both modes, since
    direct mode has p = alpha: an even power of an indefinite H, and
    fractional powers of a PSD H."""
    H = random_hermitian(5, 6, norm=1.0)
    direct = SpectralProfile(4.0, 0.5, "direct")
    np.testing.assert_array_equal(evolution_matrix(H, direct.alpha, direct.T),
                                  matfun(H, lambda lam: np.exp(-0.5 * lam ** 4)))
    P = random_psd(5, 6, norm=1.0)
    for profile in (SpectralProfile(0.75, 0.5, "root"),
                    SpectralProfile(1.5, 0.5, "direct")):
        np.testing.assert_array_equal(
            evolution_matrix(P, profile.alpha, profile.T),
            matfun(P, lambda lam: np.exp(
                -0.5 * np.maximum(lam.real, 0.0) ** profile.alpha)))


@pytest.mark.parametrize("profile", [SpectralProfile(0.75, 0.5, "root"),
                                     SpectralProfile(2.0, 0.5, "direct")])
def test_decomposition_stands_in_for_its_operator(profile):
    """eig(H) in place of H gives the same bits; a non-Hermitian operator is
    refused either way."""
    H = random_psd(9, 6, norm=1.0)
    dec = eig(H)
    plan = plan_fourier(profile, dec.eigenvalues.real, 1e-6)
    np.testing.assert_array_equal(assemble_fourier_approx(plan, dec),
                                  assemble_fourier_approx(plan, H))
    np.testing.assert_array_equal(evolution_matrix(dec, profile.alpha, profile.T),
                                  evolution_matrix(H, profile.alpha, profile.T))
    A = random_diagonalizable(9, 6, spectral_radius=0.5)
    for op in (A, eig(A)):
        with pytest.raises(PrecondError):
            assemble_fourier_approx(plan, op)
        with pytest.raises(PrecondError):
            evolution_matrix(op, profile.alpha, profile.T)


def test_scalar_psf_identity_gaussian():
    assert psf_residual(6.0, 0.3, 64, 4) <= 1e-10


def test_scalar_psf_even_at_zero_offset():
    assert psf_residual(6.0, 0.0, 64, 4) <= 1e-12


def test_scalar_psf_monotone_beyond_knee():
    rs = [psf_residual(6.0, 0.3, K, 6) for K in (8, 12, 16, 24, 32, 48, 64)]
    # non-increasing up to the double-precision floor of the two sums
    assert all(b <= a + 1e-14 for a, b in zip(rs, rs[1:]))


def test_scalar_psf_dominated_by_bounds():
    """Residual <= truncation bound + aliasing bound wherever the bounds sit
    above the roundoff floor of the O(1) sums being differenced."""
    prof = SpectralProfile(1.0, 1.0, "root")
    floor = 1e-13
    for a in (4.0, 6.0, 8.0):
        for K in (8, 16, 32):
            for delta in (0.0, 0.3, 1.1):
                res = psf_residual(a, delta, K, 6)
                bound = (truncation_bound(prof, K / a)
                         + aliasing_bound(prof, 7.0 * a - delta, 1e-6))
                assert res <= bound + floor


def test_plan_serialization_fields():
    from psf_matfunc.io import fourier_plan_json
    plan = plan_fourier(SpectralProfile(1.5, 2.0, "root"), [1.5], 1e-4)
    obj = fourier_plan_json(plan)
    for key in ("alpha", "T", "mode", "a", "K", "eps_internal", "c"):
        assert key in obj
    assert obj["a"] == plan.a and obj["K"] == plan.K
    assert (obj["alpha"], obj["T"], obj["mode"]) == (1.5, 2.0, "root")
    np.testing.assert_array_equal(obj["c"], lcu_coefficients(plan))


def test_measure_samples_once_at_the_largest_cutoff(monkeypatch):
    """One oracle and one coefficient sample, at the largest cutoff, serve
    every row; that sample is the plan's own (and stays cached on it) only
    when the largest cutoff is plan.K. Each row holds the largest deviation
    on the spectrum from e^{-T lam^alpha} and the plan's bounds at K."""
    spectrum = np.linspace(0.0, 1.0, 9)
    plan = plan_fourier(SpectralProfile(1.0, 1.0, "root"), spectrum, 1e-6)
    real, counts = fourier.lattice_kernel, []
    monkeypatch.setattr(fourier, "lattice_kernel",
                        lambda *args: counts.append(args[3]) or real(*args))
    rows = fourier.measure(plan, spectrum, [2, plan.K + 3, 4])
    assert counts == [plan.K + 4] and plan.coefficients is None
    assert [(K, budget) for K, _, budget in rows] == [
        (K, replace(plan, K=K).error_bounds()) for K in (2, plan.K + 3, 4)]
    [(K, err, budget)] = fourier.measure(plan, spectrum, [plan.K])
    assert counts == [plan.K + 4, plan.K + 1] and plan.coefficients is not None
    assert (K, budget) == (plan.K, plan.error_bounds())
    assert err == float(np.abs(cosine_series(plan, spectrum) - np.exp(-spectrum)).max())
