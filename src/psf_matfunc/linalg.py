"""Dense spectral primitives: eigendecomposition, matrix functions, resolvents.

Everything downstream (Fourier lattice assembly, contour sums, application
drivers) is verified against these routines, so they are deliberately plain:
dense numpy eigendecompositions, with explicit residual checks against the
matrix itself instead of silent trust in the factorization.

`eig` takes one of three routes, and every route answers to the same
reconstruction contract (Frobenius residual <= 1e-10*||M||_2):

- Hermitian M: `eigh`. The basis is unitary, so kappa_s = 1 exactly and
  ||M||_2 = max |lambda|.
- normal M: `eigh` of the Hermitian mix (M + M^H)/2 + c (M - M^H)/(2i) at
  a fixed irrational c. The Hermitian and skew parts of a normal M commute,
  so one unitary basis diagonalizes both, and a generic combination of them
  finds it (Bunse-Gerstner, Byers & Mehrmann, SIAM J. Matrix Anal. Appl. 14,
  1993); the eigenvalues are the Rayleigh quotients v^H M v. The route is
  taken when that basis reconstructs M: then the basis is unitary, kappa_s =
  1 exactly and ||M||_2 = max |lambda|. A matrix that is not normal, or a
  normal one whose eigenvalues collide under the mix (the basis then mixes
  their eigenvectors), misses the reconstruction and falls through to the
  general route.
- any other M: LAPACK `zgeev`, with kappa_s = cond(V) and ||M||_2 from an
  SVD.

Both `eigh` routes build their decomposition through
`unitary_decomposition`, which checks the contract and certifies the unitary
basis. A caller that knows an orthonormal eigenbasis in closed form (the
grid applications, `operators.laplacian_eigenpairs`) hands it to the same
function instead of calling `eig`. A unitary basis
(`SpectralDecomposition.unitary`) lets `matfun`, `matfun_apply` and
`resolvent_apply` apply V^{-1} as V^H instead of solving with V.

One reduction serves every function of a matrix (Higham, *Functions of
Matrices*, SIAM 2008, ch. 1 and 4): each command decomposes its operator
once, by `eig` or from a closed form, and
passes the `SpectralDecomposition`, which carries the matrix and its 2-norm,
down to every consumer, and `matfun` alone forms V f(Lambda) V^{-1};
`matfun_apply` applies it to one vector without forming it. For a
Hermitian H, ||f(H) - g(H)||_2 is max |f - g| over the real spectrum, so
`distance_from` measures the Fourier series against the one oracle,
`evolution_function`, without forming either; `evolution_matrix` is that
oracle as a dense matrix. Which spectra a real power admits is decided here
too: an even integer power (`is_even_integer`) any, any other power a PSD
one (`clamp_psd`). The same reduction serves every shift of a contour sum:
`resolvent_apply` takes a vector of shifts and solves them all at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalError, PrecondError

# Scaled tolerances used by the contracts below.
_HERM_TOL = 1e-12        # relative Hermiticity test
_RECON_TOL = 1e-10       # eigendecomposition must reconstruct M to this
_RESOLVENT_DIST = 1e-13  # z must keep this relative distance from spectrum
_PSD_CLAMP = 1e-12       # eigenvalues in [-tol*||H||, 0) are clamped to 0
# Shifts x dimension of one block of `resolvent_apply`: its few temporaries
# of that many complex entries stay at 64 MiB each.
_SOLVE_BLOCK = 1 << 22
# Weight of the skew part in the Hermitian mix of a normal matrix: fixed and
# irrational, so eigenvalues on a rational lattice or at roots of unity do
# not collide under it.
_NORMAL_MIX = (math.sqrt(5.0) - 1.0) / 2.0


def as_matrix(M: np.ndarray) -> np.ndarray:
    """Validate and return M as a square complex matrix."""
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise PrecondError(f"matrix must be square, got shape {M.shape}")
    if M.size == 0:
        raise PrecondError("matrix must be non-empty")
    M = np.asarray(M, dtype=complex)
    with np.errstate(over="ignore"):   # a modulus beyond the largest float is refused
        if not np.all(np.isfinite(np.abs(M))):
            raise PrecondError("matrix entries must be finite, and so must their moduli")
    return M


def is_hermitian(M: np.ndarray) -> bool:
    """|M - M^H| <= 1e-12 max |M| entrywise, on the scale of M itself."""
    M = np.asarray(M, dtype=complex)
    with np.errstate(over="ignore"):   # a difference beyond the largest float is not Hermitian
        return float(np.abs(M - M.conj().T).max()) <= _HERM_TOL * float(np.abs(M).max())


def is_even_integer(x: float) -> bool:
    """True iff x is a positive even integer to 1e-12: then t^x is a
    polynomial, defined on every real t."""
    return abs(x - round(x)) < 1e-12 and round(x) > 0 and round(x) % 2 == 0


def clamp_psd(lam: np.ndarray) -> np.ndarray:
    """The real spectrum lam of a Hermitian PSD operator with entries in
    [-1e-12*max(max|lam|, 1), 0) clamped to zero; anything more negative
    is a genuine precondition failure."""
    if lam.size and lam.min() < -_PSD_CLAMP * max(float(np.abs(lam).max()), 1.0):
        raise PrecondError(
            f"operator is not PSD: eigenvalue {lam.min():.6e} below the clamp window")
    return np.maximum(lam, 0.0)


def frobenius(X: np.ndarray) -> float:
    """||X||_F (the 2-norm of a vector): `np.linalg.norm` whenever its sum
    of squares stays finite, else the squares of X scaled by a power of
    two, exactly. A norm beyond the largest float is inf."""
    with np.errstate(over="ignore"):   # an overflow is redone below
        nrm = float(np.linalg.norm(X))
    if nrm != math.inf:                # no square overflowed, or X holds a NaN
        return nrm
    top = float(np.abs(X).max())
    if top == math.inf:
        return math.inf
    exp = math.frexp(top)[1]
    try:
        return math.ldexp(float(np.linalg.norm(X * math.ldexp(1.0, -exp))), exp)
    except OverflowError:
        return math.inf


def check_reconstruction(recon: np.ndarray, M: np.ndarray, nrm: float) -> None:
    """The reconstruction contract of every decomposition: a Frobenius
    (>= 2-norm) residual ||recon - M|| above 1e-10*nrm, nrm = ||M||_2, or a
    NaN one, raises NumericalError."""
    resid = frobenius(recon - M)
    if not resid <= _RECON_TOL * max(nrm, 1e-300):
        raise NumericalError(
            f"eigendecomposition does not reconstruct the matrix: "
            f"residual {resid:.3e} > {_RECON_TOL:.0e}*||M|| (matrix may be defective)")


@dataclass
class SpectralDecomposition:
    """A validated matrix, its eigenpairs, basis condition number and 2-norm."""

    matrix: np.ndarray           # the matrix: complex from `eig`, or real symmetric
    eigenvalues: np.ndarray      # shape (n,), complex
    basis: np.ndarray            # columns are eigenvectors
    kappa_s: float               # 2-norm condition number of the basis
    hermitian: bool
    norm: float                  # ||matrix||_2

    @property
    def spectral_radius(self) -> float:
        return float(np.abs(self.eigenvalues).max())

    @property
    def unitary(self) -> bool:
        """True when V^{-1} = V^H: `unitary_decomposition`, which both
        `eigh` routes of `eig` go through, certifies a unitary basis by
        setting kappa_s to exactly 1."""
        return self.kappa_s == 1.0


Operator = np.ndarray | SpectralDecomposition   # a matrix or its decomposition


def unitary_decomposition(M: np.ndarray, lam: np.ndarray, V: np.ndarray,
                          hermitian: bool) -> SpectralDecomposition:
    """M = V diag(lam) V^H for a unitary V, under the reconstruction
    contract: kappa_s is exactly 1 and ||M||_2 = max |lam|. M and V keep
    their own field, so a real symmetric M stays real."""
    nrm = float(np.abs(lam).max())
    check_reconstruction((V * lam) @ V.conj().T, M, nrm)
    return SpectralDecomposition(matrix=M, eigenvalues=np.asarray(lam, dtype=complex),
                                 basis=V, kappa_s=1.0, hermitian=hermitian, norm=nrm)


def _normal_eig(M: np.ndarray) -> SpectralDecomposition | None:
    """The decomposition of a normal M from one `eigh` of its Hermitian mix
    H = (M + M^H)/2 + c (M - M^H)/(2i) = W + W^H with W = (1 - ic)/2 M,
    under the reconstruction contract; None when the basis misses it (M is
    not normal, or two of its eigenvalues collide under the mix) or when
    the mix or the Rayleigh quotients overflow."""
    with np.errstate(all="ignore"):    # an overflow is refused below
        W = (0.5 - 0.5j * _NORMAL_MIX) * M
        H = W + W.conj().T
        if not np.all(np.isfinite(H)):
            return None
        _, V = np.linalg.eigh(H)
        lam = np.einsum("ij,ij->j", V.conj(), M @ V)      # Rayleigh quotients
        if not math.isfinite(float(np.abs(lam).max())):
            return None
        try:
            return unitary_decomposition(M, lam, V, hermitian=False)
        except NumericalError:
            return None


def eig(M: np.ndarray) -> SpectralDecomposition:
    """Diagonalize M, verifying that the factors reconstruct it.

    Three routes, tried in order. Hermitian M goes to `eigh`. Any other M
    goes to `eigh` of a Hermitian mix of its Hermitian and skew parts, and
    that route is taken when the basis it gives reconstructs M, as it does
    for a normal M. Both give a unitary basis, so kappa_s is exactly 1 and
    ||M||_2 = max |lambda|. A matrix the mix basis misses (one that is not
    normal, or a normal one whose eigenvalues collide under the mix) goes to
    the general `zgeev`, with kappa_s = cond(V) and ||M||_2 from an SVD. On
    every route a Frobenius (>= 2-norm) reconstruction residual above
    1e-10*||M||_2 raises NumericalError rather than returning unusable
    factors; on the general route that means a defective or badly
    conditioned eigenbasis.
    """
    M = as_matrix(M)
    if is_hermitian(M):
        return unitary_decomposition(M, *np.linalg.eigh(M), hermitian=True)
    normal = _normal_eig(M)
    if normal is not None:
        return normal
    try:
        lam, V = np.linalg.eig(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalError(f"eigendecomposition failed to converge: {exc}")
    nrm = float(np.linalg.norm(M, 2))
    check_reconstruction((V * lam) @ np.linalg.inv(V), M, nrm)
    return SpectralDecomposition(matrix=M, eigenvalues=lam, basis=V,
                                 kappa_s=float(np.linalg.cond(V, 2)), hermitian=False,
                                 norm=nrm)


def as_decomposition(M: Operator) -> SpectralDecomposition:
    """M itself when the caller already holds its decomposition, else eig(M)."""
    return M if isinstance(M, SpectralDecomposition) else eig(M)


def hermitian_eig(H: Operator) -> SpectralDecomposition:
    """`as_decomposition` of a Hermitian H. Any other H is refused before it
    is decomposed, so a defective H is a PrecondError, not a NumericalError."""
    if not (H.hermitian if isinstance(H, SpectralDecomposition)
            else is_hermitian(as_matrix(H))):
        raise PrecondError("operator must be Hermitian")
    return as_decomposition(H)


def _values_on(fn: Callable[[np.ndarray], np.ndarray], points: np.ndarray) -> np.ndarray:
    """fn on a vector of spectral points; it must map them elementwise to
    finite values, and a non-finite one aborts with its point named."""
    with np.errstate(all="ignore"):    # a non-finite value is refused below
        vals = np.asarray(fn(points))
    if vals.shape != points.shape:
        raise PrecondError("fn must map the eigenvalue vector elementwise")
    bad = ~np.isfinite(vals)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NumericalError(f"fn returned a non-finite value at eigenvalue {points[k]}")
    return vals


def matfun(M: Operator, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply a scalar function to M through its eigendecomposition.

    fn receives the eigenvalue vector and must return finite values; any
    non-finite f(lambda) aborts with the offending eigenvalue named.
    """
    dec = as_decomposition(M)
    flam = np.asarray(_values_on(fn, dec.eigenvalues), dtype=complex)
    V = dec.basis
    if dec.unitary:
        out = (V * flam) @ V.conj().T
    else:
        out = np.linalg.solve(V.conj().T, ((V * flam).conj().T)).conj().T
    return out


def matfun_apply(M: Operator, fn: Callable[[np.ndarray], np.ndarray],
                 b: np.ndarray) -> np.ndarray:
    """f(M) b = V f(Lambda) V^{-1} b through the eigendecomposition, without
    forming f(M): O(n^2) on a decomposition the caller already holds. fn is
    checked as in `matfun`."""
    dec = as_decomposition(M)
    flam = np.asarray(_values_on(fn, dec.eigenvalues), dtype=complex)
    V = dec.basis
    c = V.conj().T @ b if dec.unitary else np.linalg.solve(V, b)
    return V @ (flam * c)


def resolvent_apply(A: Operator, z: complex | np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (zI - A) x = b at one shift z, or at every entry of a shift
    vector z of shape (s,) at once, returning shape (n,) or (s, n).

    All shifts are served by the one decomposition of A (Laub, IEEE TAC 26,
    1981): c = V^{-1} b once, then x = V (c / (z - lambda)). Every shift
    keeps its distance to spec(A) above 1e-13*||A||, and every solution its
    residual against A itself below 1e-10*||b||; a row that misses the
    residual bound gets one step of fixed-precision iterative refinement
    through the same solve (Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 12) before it is refused. The shifts are admitted and
    solved in blocks of at most 2^22/n, so each temporary stays within 2^22
    entries; the result itself has s n.
    """
    dec = as_decomposition(A)
    b = np.asarray(b, dtype=complex)
    n = dec.matrix.shape[0]
    if b.shape != (n,):
        raise PrecondError(f"vector shape {b.shape} does not match matrix {dec.matrix.shape}")
    zs = np.asarray(z, dtype=complex)
    if zs.ndim > 1:
        raise PrecondError(f"shifts must be a scalar or a vector, got shape {zs.shape}")
    zs = zs.reshape(-1)
    if not np.all(np.isfinite(zs)):
        raise PrecondError("shifts must be finite")
    lam, V = dec.eigenvalues, dec.basis

    def solve(gap: np.ndarray, rhs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Rows (z_i I - A)^{-1} rhs_i, gap = z_i - lambda; rhs (n,) or (k, n)."""
        c = rhs @ V.conj() if dec.unitary else np.linalg.solve(V, rhs.T).T
        return np.matmul(c / gap, V.T, out=out)

    def residual(w: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Rows (w_i I - A) x_i - b, formed with A itself, not its factors."""
        return w[:, None] * X - X @ dec.matrix.T - b

    tol = 1e-10 * max(float(np.linalg.norm(b)), 1e-300)
    X = np.empty((zs.size, n), dtype=complex)
    rows = max(1, _SOLVE_BLOCK // n)
    # A row that overflows is not finite, and so it fails tol.
    with np.errstate(all="ignore"):
        for i in range(0, zs.size, rows):
            w = zs[i:i + rows]
            gaps = w[:, None] - lam[None, :]
            dist = np.abs(gaps).min(axis=1)
            near = (dist <= _RESOLVENT_DIST * dec.norm) | (dist == 0.0)
            if np.any(near):
                k = int(np.argmax(near))
                raise PrecondError(
                    f"shift z={w[k]} is within {_RESOLVENT_DIST:.0e}*||A|| of the "
                    f"spectrum (distance {dist[k]:.3e}); resolvent solve refused")
            Xb = solve(gaps, b, out=X[i:i + rows])
            R = residual(w, Xb)
            bad = np.flatnonzero(~(np.linalg.norm(R, axis=1) <= tol))
            if bad.size:
                # one refinement step: x <- x - (zI - A)^{-1} ((zI - A) x - b)
                Xb[bad] -= solve(gaps[bad], R[bad])
                resid = np.linalg.norm(residual(w[bad], Xb[bad]), axis=1)
                fail = ~(resid <= tol)
                if np.any(fail):
                    k = int(np.argmax(fail))
                    raise NumericalError(
                        f"resolvent solve residual {resid[k]:.3e} exceeds 1e-10*||b|| "
                        f"at shift z={w[bad[k]]} after one refinement step")
    return X[0] if np.ndim(z) == 0 else X


def distance_from(spectrum: np.ndarray, g: Callable[[np.ndarray], np.ndarray]
                  ) -> Callable[[Callable[[np.ndarray], np.ndarray]], float]:
    """f -> ||f(H) - g(H)||_2 of a Hermitian H, with g evaluated once.

    That norm is max |f - g| over the real spectrum of H (Higham, ch. 1), so
    no matrix is formed: `spectrum` is a real vector holding every
    eigenvalue of H, such as `hermitian_eig(H).eigenvalues.real` or a
    spectrum known in closed form (`operators.laplacian_eigenpairs`). f and
    g must map it to finite values, as in `matfun`.
    """
    lam = np.asarray(spectrum)
    if lam.ndim != 1 or lam.size == 0 or np.iscomplexobj(lam) or not np.all(np.isfinite(lam)):
        raise PrecondError(
            "distance_from takes the spectrum of a Hermitian operator as a non-empty "
            f"real finite vector, got shape {lam.shape} of {lam.dtype}")
    ref = _values_on(g, lam)
    return lambda f: float(np.abs(_values_on(f, lam) - ref).max())


def evolution_function(alpha: float, T: float) -> Callable[[np.ndarray], np.ndarray]:
    """The scalar map lam -> e^{-T lam^alpha} on a real spectrum, the one
    oracle of the Fourier path.

    An even integer alpha is an integer power, defined on any Hermitian H
    (heat and biharmonic on the indefinite Dirac root). Any other alpha
    needs H PSD up to the `clamp_psd` window.
    """
    if alpha <= 0:
        raise PrecondError(f"alpha must be positive, got {alpha}")
    if T < 0:
        raise PrecondError(f"T must be non-negative, got {T}")
    if is_even_integer(alpha):
        k = int(round(alpha))
        return lambda lam: np.exp(-T * lam ** k)
    return lambda lam: np.exp(-T * clamp_psd(lam) ** alpha)


def evolution_matrix(H: Operator, alpha: float, T: float) -> np.ndarray:
    """Reference dense e^{-T H^alpha} of a Hermitian H: `evolution_function`
    mapped through `matfun`."""
    fn = evolution_function(alpha, T)
    return matfun(hermitian_eig(H), lambda lam: fn(lam.real))
