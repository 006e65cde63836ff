"""Time-domain kernels of spectral decay profiles.

A profile e^{-T |xi|^p} in frequency has the real-space kernel

    f(x) = 2 * int_0^inf e^{-T xi^p} cos(2 pi x xi) d xi.

Samples on a uniform lattice x0 + j*step come from `lattice_kernel`, which
rests on the same Poisson identity as the Fourier path: the trapezoid rule in
xi at spacing 1/P returns the P-periodized kernel sum_l f(x + l P) exactly, so
one FFT of the profile folded onto N bins (P = N * step) yields every lattice
sample at once (Trefethen & Weideman, "The exponentially convergent
trapezoidal rule", SIAM Review 56, 2014). The period is chosen a priori so
that every alias l != 0 lies at least a distance D away. For even integer p
the super-exponential decay of f makes the aliases negligible there; for
other p the aliases are subtracted, summing the signed large-x series of f
over the lattice with Hurwitz sums.

`kernel_values` (composite 15-point Gauss-Legendre panels, at most 1/8 of
a cosine period wide, with doubling refinement) is independent of the FFT
and serves as the test oracle of `lattice_kernel` and `l1_norm_estimate`,
next to the closed forms at p = 2 (Gaussian) and p = 1 (Cauchy).

The module also provides the two decay envelopes of the `kernel` table
(super-exponential at the saddle rate for even integer p, which the planner
and the alias distance read too, algebraic C/|x|^{p+1} otherwise) and a
numerical estimate of ||f||_1 from one lattice FFT, whose growth with the
profile order separates the "stable" regime (p <= 2, f is a probability
density, norm exactly 1) from the logarithmic-growth regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import NumericalError, PrecondError
from .linalg import is_even_integer

# xi beyond which e^{-T xi^p} < 1e-18: contributes nothing at double precision.
_TAIL_LOG = math.log(1e18)
# Magnitudes whose logarithm exceeds this are kept as logarithms (e^709 < 1.8e308).
_LOG_FLOAT_MAX = 709.0

_GL15_NODES, _GL15_WEIGHTS = np.polynomial.legendre.leggauss(15)
_MIN_PANELS = 32   # panels of the first quadrature pass
# `kernel_values` doubles its panels until two passes agree to this tolerance.
_PANEL_TOLERANCE = 1e-13
_MAX_REFINEMENTS = 8

# Keep cos(2 pi x xi) matrices below ~128 MB per chunk.
_MAX_CHUNK_ELEMS = 16_777_216


@dataclass(frozen=True)
class SpectralProfile:
    """Decay profile e^{-T |xi|^p} with p tied to the operator access mode.

    mode='root' evaluates the target e^{-T H^alpha} through sqrt(H), so the
    effective frequency exponent is p = 2*alpha and alpha >= 0.5 is required;
    mode='direct' addresses H itself, p = alpha, and even integer alpha needs
    no positive-semidefiniteness downstream.
    """

    alpha: float
    T: float
    mode: str = "root"

    def __post_init__(self):
        if self.mode not in ("root", "direct"):
            raise PrecondError(f"mode must be 'root' or 'direct', got {self.mode!r}")
        if not (0 < self.alpha < math.inf):
            raise PrecondError(f"alpha must be positive and finite, got {self.alpha}")
        if not (0 < self.T < math.inf):
            raise PrecondError(f"T must be positive and finite, got {self.T}")
        if self.mode == "root" and self.alpha < 0.5:
            raise PrecondError(f"root mode requires alpha >= 0.5, got {self.alpha}")
        if not math.isfinite(self.p):
            raise PrecondError(f"p = 2 alpha exceeds the float range at alpha = {self.alpha}")

    @property
    def p(self) -> float:
        """Frequency-domain decay exponent."""
        return 2.0 * self.alpha if self.mode == "root" else float(self.alpha)

    @property
    def regime(self) -> str:
        """'analytic' iff p is an even positive integer, else 'fractional'."""
        return "analytic" if is_even_integer(self.p) else "fractional"

    @property
    def tail_cutoff(self) -> float:
        """Xi solving T * Xi^p = log(1e18) (inf when it overflows)."""
        try:
            return (_TAIL_LOG / self.T) ** (1.0 / self.p)
        except OverflowError:
            return math.inf


@dataclass(frozen=True)
class TimeKernel:
    """The time-domain kernel of a profile, evaluated by quadrature."""

    profile: SpectralProfile


def _composite_cosine(kern: TimeKernel, n_panels: int, xs: np.ndarray) -> np.ndarray:
    """2 * sum of 15-point Gauss-Legendre panels of e^{-T xi^p} cos(2 pi x xi)."""
    p, T = kern.profile.p, kern.profile.T
    cut = kern.profile.tail_cutoff
    edges = np.linspace(0.0, cut, n_panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    mids = 0.5 * (edges[:-1] + edges[1:])
    xi = (mids[:, None] + half * _GL15_NODES[None, :]).ravel()
    w = np.tile(half * _GL15_WEIGHTS, n_panels)
    damped = np.exp(-T * xi ** p) * w
    out = np.empty(xs.shape[0], dtype=float)
    step = max(1, _MAX_CHUNK_ELEMS // xi.size)
    for lo in range(0, xs.shape[0], step):
        chunk = xs[lo:lo + step]
        out[lo:lo + step] = np.cos((2.0 * np.pi) * np.outer(chunk, xi)) @ damped
    return 2.0 * out


def kernel_values(kern: TimeKernel, xs: np.ndarray) -> np.ndarray:
    """Kernel f at many points, sharing one panel grid sized for max |x|.

    The shared width satisfies the oscillation cap of every requested point
    (the cap shrinks with |x|); refinement doubles the panel count until two
    successive composites agree to _PANEL_TOLERANCE in the sup norm, and
    raises NumericalError if _MAX_REFINEMENTS doublings do not get there.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if xs.size == 0:
        return np.empty(0)
    if not np.all(np.isfinite(xs)):
        raise PrecondError("kernel evaluation points must be finite")
    cut = kern.profile.tail_cutoff
    cap = 1.0 / (8.0 * (float(np.abs(xs).max()) + 1.0))   # panel width in xi
    n = max(_MIN_PANELS, int(math.ceil(cut / cap)))
    prev = _composite_cosine(kern, n, xs)
    change = math.inf
    for _ in range(_MAX_REFINEMENTS):
        n *= 2
        cur = _composite_cosine(kern, n, xs)
        change = float(np.abs(cur - prev).max())
        if change <= _PANEL_TOLERANCE:
            return cur
        prev = cur
    raise NumericalError(
        f"kernel quadrature not converged after {_MAX_REFINEMENTS} "
        f"refinements ({n} panels): last change {change:.3e} > "
        f"tolerance {_PANEL_TOLERANCE:.3e}")


def _envelope_constant(p: float, T: float) -> tuple[float, float]:
    """(C, log C) of `algebraic_envelope_constant`, C = inf beyond the float range."""
    log_gamma = math.lgamma(p + 1.0)
    log_scale = log_gamma + math.log(T) - math.log(math.pi)    # of (T/pi) Gamma(p+1)
    sine = abs(math.sin(math.pi * p / 2.0))
    if log_scale > _LOG_FLOAT_MAX:
        return math.inf, log_scale + math.log(sine)
    # Gamma(p+1) may overflow where C (small T) does not
    C = (math.exp(log_gamma + math.log(T / math.pi)) * sine if log_gamma > _LOG_FLOAT_MAX
         else (T / math.pi) * math.exp(log_gamma) * sine)
    return C, math.log(C) if C > 0.0 else -math.inf


def algebraic_envelope_constant(p: float, T: float) -> float:
    """Magnitude constant of the algebraic envelope C/|x|^{p+1}.

    C = (T/pi) * Gamma(p+1) * |sin(pi p / 2)|. This is the planning envelope:
    it upper-bounds the true large-x asymptote (which carries an extra
    (2 pi)^{-p}), so plans built from it err on the conservative side. It
    vanishes exactly at even integer p, where the decay is super-exponential
    instead. Raises PrecondError when C exceeds the float range (p above
    about 170 at T = 1).
    """
    C, _ = _envelope_constant(p, T)
    if C == math.inf:
        raise PrecondError(
            f"algebraic envelope constant of p={p:g}, T={T:g} exceeds the float range")
    return C


def saddle_rate(profile: SpectralProfile) -> tuple[float, float]:
    """(lambda, beta) of the stationary-phase decay exp(-lambda |x|^beta) of
    |f(x)|, for p > 1.

    The stationary point of -T xi^p + 2 pi i x xi gives beta = p/(p-1) and
    lambda = sin(pi/(2(p-1))) * (p-1) * (pi/(a_eff T^{1/p}))^beta with a_eff
    = p/2 (validated against quadrature at p = 4, 6). At p = 2 the sine is 1
    and lambda = pi^2/T, the Gaussian's own rate; at larger p the sine slows
    the decay below the rate without it.
    """
    p, T = profile.p, profile.T
    if p <= 1:
        raise PrecondError(f"super-exponential envelope needs p > 1, got p={p}")
    beta = p / (p - 1.0)
    a_eff = p / 2.0
    try:
        lam = (p - 1.0) * (math.pi / (a_eff * T ** (1.0 / p))) ** beta
    except OverflowError:
        raise PrecondError(f"envelope rate of p={p:g}, T={T:g} exceeds the float range")
    return lam * math.sin(0.5 * math.pi / (p - 1.0)), beta   # 2 (p - 1) may overflow


def envelope_function(profile: SpectralProfile) -> Callable[[float], float]:
    """x -> envelope of |f(x)|: super-exponential in the analytic regime
    (even integer p), algebraic C/|x|^{p+1} in the fractional regime. The
    profile's constants are computed once for a whole table of points.

    The analytic envelope is 2 f(0) exp(-lambda |x|^beta) at `saddle_rate`,
    with f(0) = 2 Gamma(1 + 1/p) T^{-1/p} in closed form. The smallest C
    with |f| <= C exp(-lambda |x|^beta) is f(0) at p = 2 and at most 1.07
    f(0) at even p >= 4; the 2 is the prefactor safety that
    `fourier.truncation_bound` takes too.

    The algebraic envelope reads inf at its pole x = 0, and is read in
    logarithms where C or |x|^{p+1} leaves the float range.
    """
    if profile.regime == "analytic":
        lam, beta = saddle_rate(profile)
        top = 4.0 * math.gamma(1.0 + 1.0 / profile.p) * profile.T ** (-1.0 / profile.p)

        def analytic(x: float) -> float:
            if x == 0:
                return top
            if beta * math.log(abs(x)) > _LOG_FLOAT_MAX:   # |x|^beta overflows
                log_rate = math.log(lam) + beta * math.log(abs(x))
                return 0.0 if log_rate > _LOG_FLOAT_MAX else top * math.exp(-math.exp(log_rate))
            return top * math.exp(-lam * abs(x) ** beta)
        return analytic
    p1 = profile.p + 1.0
    C, log_c = _envelope_constant(profile.p, profile.T)

    def algebraic(x: float) -> float:
        if x == 0:      # the pole
            return math.inf
        log_pow = p1 * math.log(abs(x))
        if C == math.inf or abs(log_pow) > _LOG_FLOAT_MAX:   # C or |x|^{p+1} out of range
            log_env = log_c - log_pow
            return math.exp(log_env) if log_env <= _LOG_FLOAT_MAX else math.inf
        return C / abs(x) ** p1
    return algebraic


def _tail_series_terms(p: float, T: float, n_max: int = 24):
    """Signed coefficients of the true large-x expansion of f.

    f(x) ~ (1/pi) sum_{n>=1} (-1)^{n+1} Gamma(n p + 1)/n! sin(n pi p / 2)
           * t_eff^n / x^{n p + 1},  t_eff = T / (2 pi)^p.

    Yields (n, coeff, log |coeff|) with coeff the full prefactor of
    x^{-(n p + 1)}; coeff is +-inf where it exceeds the float range (large
    p), and `_series_term` then works from the logarithm.
    """
    log_teff = math.log(T) - p * math.log(2.0 * math.pi)
    for n in range(1, n_max + 1):
        half = n * p / 2.0
        if abs(half - round(half)) * math.pi < 1e-12:  # the sine below is 0
            yield n, 0.0, -math.inf
            continue
        s = ((-1.0) ** (n + 1)) * math.sin(n * math.pi * p / 2.0)
        log_mag = math.lgamma(n * p + 1.0) - math.lgamma(n + 1.0) + n * log_teff
        c = (s * math.exp(log_mag) / math.pi if log_mag <= _LOG_FLOAT_MAX
             else math.copysign(math.inf, s))
        yield n, c, log_mag + math.log(abs(s) / math.pi)


def _series_term(c: float, log_c: float, e: float, x: float) -> float:
    """c * x^{-e}, through log |c| when c is beyond the float range."""
    if math.isfinite(c):
        return c * x ** -e
    log_t = log_c - e * math.log(x)
    return math.copysign(math.exp(log_t) if log_t < _LOG_FLOAT_MAX else math.inf, c)


def algebraic_tail_integral(p: float, T: float, X: float) -> float:
    """Signed int_X^inf f(x) dx for large X (fractional p): the integrals
    c_n X^{-n p} / (n p) of the series terms, summed while they keep
    shrinking (asymptotic truncation). The caller is responsible for X
    being deep enough in the tail."""
    total, last = 0.0, math.inf
    for n, c, log_c in _tail_series_terms(p, T):
        if c == 0.0:
            continue
        term = _series_term(c, log_c, n * p, X) / (n * p)
        if abs(term) >= last:
            break
        total += term
        last = abs(term)
    return total


# Aliases the lattice sampler leaves uncorrected stay below this, and its FFT
# and xi sample counts stay below _MAX_LATTICE_SAMPLES (256 MB of complex bins).
_ALIAS_TOL = 1e-13
_MAX_ALIAS_DOUBLINGS = 4
_MAX_LATTICE_SAMPLES = 1 << 24
# Euler-Maclaurin coefficients B_{2k} / (2k)! for k = 1..6.
_EM_COEFFS = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0,
              1.0 / 47900160.0, -691.0 / 1307674368000.0)


def _hurwitz(s: float, q: np.ndarray) -> np.ndarray:
    """Hurwitz sum Z(s, q) = sum_{l>=0} (l + q)^{-s} for s > 1 and q > 0.

    Eight direct terms, then the Euler-Maclaurin expansion of the rest from
    q + 8 on, where its terms fall off like (s + 2k)^2 / (2 pi (q + 8))^2.
    """
    q = np.asarray(q, dtype=float)
    direct = sum((l + q) ** -s for l in range(8))
    a = q + 8.0
    a_s = a ** -s
    tail = a / (s - 1.0) + 0.5
    rising, a_pow = s, 1.0 / a            # s (s+1) ... (s+2k-2), a^{-(2k-1)}
    for k, coeff in enumerate(_EM_COEFFS):
        tail = tail + coeff * rising * a_pow
        rising *= (s + 2 * k + 1) * (s + 2 * k + 2)
        a_pow = a_pow / (a * a)
    return direct + a_s * tail


def _alias_series(profile: SpectralProfile) -> tuple[float, list]:
    """Alias distance D and the tail-series terms (s, c_n) that correct
    sum_{l != 0} f(x + l P) when every |x + l P| >= D.

    Fractional regime: D = 30 max(1, T^{1/p}), at least the analytic D below
    when p > 2 (the stationary-phase part of f decays super-exponentially but
    slowly for large p). The terms run while their bound |c_n| D^{-s} 2 zeta(s)
    on the lattice sum shrinks; D doubles while the first term left out
    exceeds _ALIAS_TOL. Analytic regime: D with 4 exp(-lam D^beta) <= 1e-15
    at the saddle rate, and no terms.
    """
    p, T = profile.p, profile.T
    d_saddle = 0.0
    if p >= 2.0:
        lam, beta = saddle_rate(profile)
        d_saddle = (math.log(4e15) / lam) ** (1.0 / beta)
    if profile.regime == "analytic":
        return d_saddle, []
    try:
        D = max(30.0 * max(1.0, T ** (1.0 / p)), d_saddle)
    except OverflowError:
        raise PrecondError(f"alias distance of p={p:g}, T={T:g} exceeds the float range")
    for _ in range(_MAX_ALIAS_DOUBLINGS + 1):
        terms, last, size = [], math.inf, 0.0   # every coefficient may underflow to 0
        for n, c, log_c in _tail_series_terms(p, T):
            if c == 0.0:
                continue
            s = n * p + 1.0
            size = abs(_series_term(c, log_c, s, D)) * 2.0 * float(_hurwitz(s, 1.0))
            if size >= last or size < 1e-3 * _ALIAS_TOL:
                break
            if not math.isfinite(c):
                raise PrecondError(
                    f"alias series of p={p:g}, T={T:g} needs a coefficient "
                    "beyond the float range")
            terms.append((s, c))
            last = size
        if size <= _ALIAS_TOL:
            return D, terms
        D *= 2.0
    raise NumericalError(
        f"alias series of p={p:g}, T={T:g} left {size:.3e} > {_ALIAS_TOL:g} "
        f"out at distance {D / 2.0:g}")


def lattice_kernel(profile: SpectralProfile, x0: float, step: float,
                   count: int) -> np.ndarray:
    """Kernel f at x_j = x0 + j * step, j = 0..count-1, from one FFT.

    With P = N * step, the trapezoid rule on e^{-T |xi|^p} at spacing 1/P,
    folded mod N, gives sum_l f(x_j + l P) for all j from one FFT of N bins
    (an rfft when x0 = 0). N is the next power of two with P >= max|x_j| + D
    and N >= 2 count, so every alias l != 0 lies at distance >= D from the
    lattice, where `_alias_series` removes it to within _ALIAS_TOL: each
    series term c_n |x|^{-s} sums over the aliases to
    c_n P^{-s} [Z(s, 1 + x/P) + Z(s, 1 - x/P)].
    """
    x0, step = float(x0), float(step)
    if not (math.isfinite(x0) and math.isfinite(step) and step > 0.0):
        raise PrecondError(
            f"lattice needs a finite origin and a positive step, got {x0}, {step}")
    if count < 1:
        raise PrecondError(f"lattice needs at least one point, got {count}")
    p, T = profile.p, profile.T
    D, terms = _alias_series(profile)
    x_max = max(abs(x0), abs(x0 + step * (count - 1)))
    target = max((x_max + D) / step, 2.0 * count)
    N = 1
    while N < min(target, 2.0 * _MAX_LATTICE_SAMPLES):
        N *= 2
    P = N * step
    if P == math.inf:
        raise PrecondError(
            f"lattice of {count} points at step {step:g} needs a period "
            f"{N} * {step:g} beyond the float range")
    h = 1.0 / P
    # xi = m h for |m| <= m_max, taken in rows of N consecutive m starting at
    # a multiple of N, so column r of each row holds m = r (mod N); the rows
    # are padded with zeros, not with |xi| > tail_cutoff (|xi|^p overflows).
    m_max = math.floor(min(profile.tail_cutoff / h, 2.0 * _MAX_LATTICE_SAMPLES))
    rows = -(-m_max // N)
    if (2 * rows + 1) * N > _MAX_LATTICE_SAMPLES:
        raise PrecondError(
            f"lattice of {count} points at step {step:g} needs more than "
            f"{_MAX_LATTICE_SAMPLES} samples for p={p:g}, T={T:g}")
    chunk = N * max(1, (1 << 20) // N)
    bins = np.zeros(N, dtype=float if x0 == 0.0 else complex)
    for r0 in range(-rows * N, m_max + 1, chunk):
        lo, hi = max(r0, -m_max), min(r0 + chunk, m_max + 1)
        xi = h * np.arange(lo, hi, dtype=float)
        g = np.exp(-T * np.abs(xi) ** p)
        if x0 != 0.0:
            g = g * np.exp((-2j * np.pi * x0) * xi)
        bins += np.pad(g, (lo - r0, (r0 - hi) % N)).reshape(-1, N).sum(axis=0)
    spectrum = np.fft.rfft(bins) if x0 == 0.0 else np.fft.fft(bins)
    vals = h * spectrum[:count].real
    xs = x0 + step * np.arange(count)
    for s, c in terms:
        vals -= c * P ** -s * (_hurwitz(s, 1.0 + xs / P) + _hurwitz(s, 1.0 - xs / P))
    return vals


class L1Estimate(NamedTuple):
    value: float
    regime: str        # 'stable' (p <= 2) or 'logarithmic'


# L1 sample step at T = 1, where f has features of unit size for all p >= 1:
# the error stays below 1e-9 for p in [1, 256] and falls 16x per halving.
_L1_STEP = 1.0 / 512.0


def _abs_cubic_integral(y: np.ndarray) -> float:
    """Sum over j = 1..len(y)-3 of int_0^1 |q_j|, q_j the cubic through
    y[j-1..j+2] at t = -1..2. A cell that may change sign is cut at the
    critical points of q_j, and each monotone piece at its root, if any.
    """
    ev = lambda t, c: polyval(t, c, tensor=False)   # sum_i c[i] t^i per cell
    ym, y0, y1, y2 = y[:-3], y[1:-2], y[2:-1], y[3:]
    c2, c3 = 0.5 * (ym + y1) - y0, (y2 - ym) / 6.0 - 0.5 * (y1 - y0)
    # q_j minus its chord is t (t - 1) (c2 + c3 (t + 1)): at most (|c2| + 2|c3|) / 4.
    safe = (y0 * y1 > 0.0) & (np.minimum(abs(y0), abs(y1))
                              > 0.25 * (abs(c2) + 2.0 * abs(c3)))
    whole = abs(13.0 * (y0 + y1) - ym - y2)[safe].sum() / 24.0
    c = np.stack([y0, y1 - y0 - c2 - c3, c2, c3])[:, ~safe]
    C = np.vstack([np.zeros(c.shape[1]), c / np.arange(1.0, 5.0)[:, None]])  # int q
    # Roots of q' in the stable form; any not in (0, 1) becomes the cut 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        s = -(c[2] + np.copysign(np.sqrt(c[2] ** 2 - 3.0 * c[1] * c[3]), c[2]))
        cuts = np.array([s / (3.0 * c[3]), c[1] / s])
    cuts = np.sort(np.where((cuts > 0.0) & (cuts < 1.0), cuts, 0.0), axis=0)
    a, b = np.vstack([np.zeros_like(s), cuts]), np.vstack([cuts, np.ones_like(s)])
    qa = ev(a, c)
    crossing = qa * ev(b, c) < 0.0
    lo, hi, sign = a[crossing], b[crossing], np.sign(qa[crossing])
    cc = c[:, np.nonzero(crossing)[1]]
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        right = np.sign(ev(mid, cc)) == sign
        lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
    root = a.copy()
    root[crossing] = 0.5 * (lo + hi)
    Fr = ev(root, C)
    return float(whole + abs(Fr - ev(a, C)).sum() + abs(ev(b, C) - Fr).sum())


def l1_norm_estimate(kern: TimeKernel) -> L1Estimate:
    """||f||_1 = 2 int_0^inf |f(x)| dx from one lattice FFT.

    The norm is invariant under x -> x T^{1/p}, so f is sampled at T = 1 up
    to the alias distance X of `lattice_kernel`, past which f has one sign
    and follows its large-x series (none for even p): |f| is integrated on
    cubic interpolants cut at the sign changes, plus the series tail from X.
    p < 1 is refused, as in costmodel.path_a_queries: f sharpens at 0 as p
    falls, and at p = 0.4 this step misses the norm by 1e-5.
    """
    p = kern.profile.p
    if p < 1.0:
        raise PrecondError(f"L1 estimate needs p >= 1, got p = {p:g}")
    unit = SpectralProfile(p, 1.0, "direct")
    n = math.ceil(_alias_series(unit)[0] / _L1_STEP)
    y = lattice_kernel(unit, 0.0, _L1_STEP, n + 2)
    body = _L1_STEP * _abs_cubic_integral(np.concatenate((y[1:2], y)))  # f(-h) = f(h)
    tail = (abs(algebraic_tail_integral(p, 1.0, n * _L1_STEP))
            if unit.regime == "fractional" else 0.0)
    return L1Estimate(2.0 * (body + tail), "stable" if p <= 2.0 else "logarithmic")
