import math
import time
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from psf_matfunc import kernels
from psf_matfunc.errors import NumericalError, PrecondError
from psf_matfunc.kernels import (SpectralProfile, TimeKernel, _hurwitz,
                                 algebraic_envelope_constant,
                                 algebraic_tail_integral,
                                 algebraic_tail_value, decay_envelope,
                                 envelope_rate, kernel_value, kernel_values,
                                 l1_norm_estimate, lattice_kernel, saddle_rate)
from psf_matfunc.util import fit_loglog_slope


def gaussian_profile(T=1.0):
    return SpectralProfile(alpha=1.0, T=T, mode="root")   # p = 2


def cauchy_profile(T=1.0):
    return SpectralProfile(alpha=0.5, T=T, mode="root")   # p = 1


# (x0, step, count) lattices: from the origin, offset, and reaching negative x.
LATTICES = [(0.0, 20.0 / 49.0, 50), (0.0, 0.25, 41), (-2.0, 0.05, 81),
            (0.3, 0.7, 12), (-1.5, 1.0, 1)]


def lattice(x0, step, count):
    return x0 + step * np.arange(count)


class TestSpectralProfile:
    def test_mode_exponent(self):
        assert SpectralProfile(1.0, 1.0, "root").p == 2.0
        assert SpectralProfile(0.75, 1.0, "root").p == 1.5
        assert SpectralProfile(4.0, 1.0, "direct").p == 4.0

    def test_regime_tags(self):
        assert SpectralProfile(1.0, 1.0, "root").regime == "analytic"
        assert SpectralProfile(2.0, 1.0, "root").regime == "analytic"
        assert SpectralProfile(2.0, 1.0, "direct").regime == "analytic"
        assert SpectralProfile(0.75, 1.0, "root").regime == "fractional"
        assert SpectralProfile(3.0, 1.0, "direct").regime == "fractional"
        assert SpectralProfile(1.5, 1.0, "root").regime == "fractional"

    def test_root_mode_floor(self):
        with pytest.raises(PrecondError):
            SpectralProfile(0.3, 1.0, "root")
        SpectralProfile(0.3, 1.0, "direct")  # direct mode has no floor

    def test_bad_inputs(self):
        with pytest.raises(PrecondError):
            SpectralProfile(1.0, -1.0, "root")
        with pytest.raises(PrecondError):
            SpectralProfile(1.0, 1.0, "sideways")
        for alpha, T in ((math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf)):
            with pytest.raises(PrecondError):
                SpectralProfile(alpha, T, "root")


@pytest.mark.parametrize("T", [0.5, 1.0, 4.0])
def test_gaussian_closed_form(T):
    """p = 2 kernel is exactly the heat kernel sqrt(pi/T) e^{-pi^2 x^2/T}."""
    xs = np.linspace(0.0, 20.0, 50)
    gauss = lambda x: np.sqrt(np.pi / T) * np.exp(-np.pi**2 * x**2 / T)
    vals = kernel_values(TimeKernel(gaussian_profile(T)), xs)
    np.testing.assert_allclose(vals, gauss(xs), atol=1e-10, rtol=0)
    for x0, step, count in LATTICES:
        vals = lattice_kernel(gaussian_profile(T), x0, step, count)
        np.testing.assert_allclose(vals, gauss(lattice(x0, step, count)),
                                   atol=1e-12, rtol=0)


@pytest.mark.parametrize("T", [0.5, 1.0, 4.0])
def test_cauchy_closed_form(T):
    xs = np.linspace(0.0, 20.0, 50)
    cauchy = lambda x: 2.0 * T / (T**2 + 4.0 * np.pi**2 * x**2)
    vals = kernel_values(TimeKernel(cauchy_profile(T)), xs)
    np.testing.assert_allclose(vals, cauchy(xs), atol=1e-10, rtol=0)
    for x0, step, count in LATTICES:
        vals = lattice_kernel(cauchy_profile(T), x0, step, count)
        np.testing.assert_allclose(vals, cauchy(lattice(x0, step, count)),
                                   atol=1e-12, rtol=0)


@pytest.mark.parametrize("T", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("p", [1.2, 1.5, 2.5, 3.0, 3.5, 4.0])
def test_lattice_kernel_matches_quadrature(p, T):
    """The FFT sampler with its alias correction against the independent
    Gauss-Legendre quadrature, on lattices from, off and left of 0."""
    prof = SpectralProfile(p, T, "direct")
    kern = TimeKernel(prof)
    # Short lattices: the quadrature's cost grows with count and max |x|.
    for x0, step, count in ((0.0, 0.25, 17), (-2.0, 0.2, 21), (0.3, 0.7, 6)):
        np.testing.assert_allclose(
            lattice_kernel(prof, x0, step, count),
            kernel_values(kern, lattice(x0, step, count)), atol=1e-12, rtol=0)


def test_lattice_kernel_guards():
    prof = cauchy_profile()
    for x0, step, count in ((0.0, 0.0, 4), (0.0, -0.1, 4), (math.nan, 0.1, 4),
                            (0.0, math.inf, 4), (0.0, 0.1, 0)):
        with pytest.raises(PrecondError):
            lattice_kernel(prof, x0, step, count)
    with pytest.raises(PrecondError):       # FFT far beyond memory: refused
        lattice_kernel(prof, 0.0, 1e-9, 10)


def test_hurwitz_sum_values():
    """Z(s, 1) = zeta(s) and Z(s, 1/2) = (2^s - 1) zeta(s)."""
    for s, zeta in ((2.0, math.pi**2 / 6.0), (4.0, math.pi**4 / 90.0)):
        assert float(_hurwitz(s, 1.0)) == pytest.approx(zeta, rel=1e-15)
        assert float(_hurwitz(s, 0.5)) == pytest.approx((2**s - 1) * zeta, rel=1e-15)
    for q in (0.05, 1.3):
        # Exactly rounded direct sum plus the leading terms of the rest.
        L = 100_000
        ref = math.fsum((l + q) ** -2.5 for l in range(L))
        ref += (L + q) ** -1.5 / 1.5 + 0.5 * (L + q) ** -2.5
        assert float(_hurwitz(2.5, q)) == pytest.approx(ref, rel=1e-14)


def test_kernel_values_unconverged_raises():
    """Too few refinements for the tolerance is a NumericalError, never a
    silently unconverged value."""
    kern = TimeKernel(SpectralProfile(0.75, 1.0, "root"), panel_tolerance=1e-16,
                      max_refinements=1)
    with pytest.raises(NumericalError):
        kernel_values(kern, np.array([0.0, 5.0]))


def test_kernel_value_scalar_matches_batch():
    kern = TimeKernel(SpectralProfile(0.75, 1.0, "root"))
    xs = np.array([0.0, 0.5, 3.0])
    batch = kernel_values(kern, xs)
    for x, v in zip(xs, batch):
        assert kernel_value(kern, float(x)) == pytest.approx(v, abs=1e-14)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_stable_density_nonnegative(p):
    """For p <= 2 the kernel is an alpha-stable density: no negative lobes."""
    kern = TimeKernel(SpectralProfile(p / 2.0, 1.0, "root"))
    xs = np.linspace(0.0, 30.0, 400)
    assert kernel_values(kern, xs).min() >= -1e-10


@pytest.mark.parametrize("p,slope", [(1.5, -2.5), (2.5, -3.5)])
def test_fractional_tail_slope(p, slope):
    """|f| ~ C/x^{p+1} for non-even p: fitted log-log slope on [10, 100]."""
    kern = TimeKernel(SpectralProfile(p / 2.0, 1.0, "root"))
    xs = np.geomspace(10.0, 100.0, 25)
    s = fit_loglog_slope(xs, np.abs(kernel_values(kern, xs)))
    assert abs(s - slope) <= 0.15


def test_envelope_constant_value():
    # (T/pi) Gamma(p+1) |sin(pi p / 2)| at p = 1.5, T = 1
    expected = (1.0 / math.pi) * math.gamma(2.5) * math.sin(0.75 * math.pi)
    assert algebraic_envelope_constant(1.5, 1.0) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(0.2992, abs=5e-5)


def test_fractional_envelope_is_constant_times_power():
    prof = SpectralProfile(0.75, 1.0, "root")
    C = algebraic_envelope_constant(1.5, 1.0)
    for x in (0.5, 2.0, 7.0):
        assert decay_envelope(prof, x) == pytest.approx(C / x**2.5, rel=1e-12)
    with pytest.raises(PrecondError):
        decay_envelope(prof, 0.0)


def test_tail_series_tracks_kernel():
    """The asymptotic series for the tail agrees with quadrature at large x."""
    kern = TimeKernel(SpectralProfile(0.75, 1.0, "root"))
    for x in (30.0, 60.0):
        exact = kernel_value(kern, x)
        series = algebraic_tail_value(1.5, 1.0, x)
        assert series == pytest.approx(exact, rel=1e-4)


def test_gaussian_envelope_is_exact_modulus():
    prof = gaussian_profile()
    lam, beta = envelope_rate(prof)
    assert (lam, beta) == pytest.approx((math.pi**2, 2.0), rel=1e-14)
    for x in (0.3, 1.0, 2.5):
        assert decay_envelope(prof, x) == pytest.approx(math.exp(-math.pi**2 * x**2),
                                                        rel=1e-12)


def test_saddle_rate_matches_envelope_at_p2():
    prof = gaussian_profile()
    assert saddle_rate(prof) == pytest.approx(envelope_rate(prof), rel=1e-14)


def test_saddle_rate_is_observed_decay_p4():
    """The model envelope overstates decay for p > 2; the stationary-phase
    rate (envelope rate times sin(pi/(2(p-1)))) is what |f| actually follows.

    Fit the semilog slope of |f| against x^beta and compare to both rates:
    the saddle rate must match, the raw envelope rate must not."""
    prof = SpectralProfile(4.0, 1.0, "direct")
    lam_env, beta = envelope_rate(prof)
    lam_sad, beta_s = saddle_rate(prof)
    assert beta_s == beta
    assert lam_sad == pytest.approx(lam_env * math.sin(math.pi / 6.0), rel=1e-14)
    kern = TimeKernel(prof)
    xs = np.linspace(1.5, 3.0, 8)
    vals = np.abs(kernel_values(kern, xs))
    fit = -np.polyfit(xs**beta, np.log(vals), 1)[0]
    assert abs(fit - lam_sad) / lam_sad < 0.05
    assert abs(fit - lam_env) / lam_env > 0.4


def test_l1_unit_for_stable_exponents():
    for p in (1.0, 1.5, 2.0):
        for T in (0.25, 1.0, 4.0):
            est = l1_norm_estimate(TimeKernel(SpectralProfile(p / 2.0, T, "root")))
            assert est.regime == "stable"
            assert est.value == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("p", [0.5, 0.8])
def test_l1_refuses_p_below_one(p):
    with pytest.raises(PrecondError):
        l1_norm_estimate(TimeKernel(SpectralProfile(p, 1.0, "direct")))


def test_l1_never_calls_the_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("l1_norm_estimate called kernel_values")
    monkeypatch.setattr(kernels, "kernel_values", refuse)
    for alpha, mode in ((0.5, "root"), (1.0, "root"), (1.25, "root"),
                        (3.0, "root"), (8.0, "root"), (3.0, "direct")):
        l1_norm_estimate(TimeKernel(SpectralProfile(alpha, 1.0, mode)))


_GL30_NODES, _GL30_WEIGHTS = np.polynomial.legendre.leggauss(30)


def _l1_root_split_reference(p: float, X: float = 10.0) -> float:
    """2 (int_0^X |f| + |int_X^inf f|) from the quadrature: sign changes
    bracketed on a grid and located by brentq, 30-point Gauss on panels of
    width <= 1/2 between them, the series tail from X on."""
    kern = TimeKernel(SpectralProfile(p, 1.0, "direct"))
    grid = np.linspace(0.0, X, 401)
    vals = kernel_values(kern, grid)
    roots = [brentq(lambda x: kernel_value(kern, x), a, b, xtol=1e-15)
             for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:])
             if fa * fb < 0.0]
    edges = np.array([0.0] + roots + [X])
    panels = np.concatenate([np.linspace(a, b, math.ceil(2.0 * (b - a)) + 1)[:-1]
                             for a, b in zip(edges[:-1], edges[1:])] + [[X]])
    half = 0.5 * np.diff(panels)
    xs = ((panels[:-1] + half)[:, None] + half[:, None] * _GL30_NODES).ravel()
    ws = (half[:, None] * _GL30_WEIGHTS).ravel()
    body = float(np.abs(kernel_values(kern, xs)) @ ws)
    return 2.0 * (body + abs(algebraic_tail_integral(p, 1.0, X)))


@pytest.mark.parametrize("p", [2.5, 3.0])
def test_l1_logarithmic_matches_root_split_reference(p):
    """|f| has kinks at the sign changes of f; the estimate integrates
    across them to the accuracy of a reference that splits at the roots."""
    t0 = time.perf_counter()
    ref = _l1_root_split_reference(p)
    est = l1_norm_estimate(TimeKernel(SpectralProfile(p, 1.0, "direct")))
    assert est.regime == "logarithmic"
    assert abs(est.value - ref) <= 1e-8
    assert time.perf_counter() - t0 < 5.0


def test_lattice_kernel_p256_no_overflow():
    """xi beyond tail_cutoff, where |xi|^256 overflows, is never sampled."""
    prof = SpectralProfile(128.0, 1.0, "root")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = lattice_kernel(prof, 0.0, 0.01, 101)
        est = l1_norm_estimate(TimeKernel(prof))
    assert np.all(np.isfinite(vals)) and vals[0] == pytest.approx(2.0, abs=1e-2)
    assert est.value > 1.0


def test_l1_regime_tag_above_two():
    est = l1_norm_estimate(TimeKernel(SpectralProfile(1.25, 1.0, "root")))  # p = 2.5
    assert est.regime == "logarithmic"
    assert est.value > 1.0 + 1e-3


def test_kernel_even_in_x():
    kern = TimeKernel(SpectralProfile(0.75, 1.0, "root"))
    xs = np.array([0.7, 1.9])
    np.testing.assert_allclose(kernel_values(kern, -xs), kernel_values(kern, xs),
                               rtol=1e-13)
