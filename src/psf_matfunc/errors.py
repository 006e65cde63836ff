"""Exception types, the error-budget type, the accuracy floor and the dense
dimension cap shared across the package.

Precondition violations and numerical failures are kept distinct so the CLI
can map them to different exit codes (2 and 3 respectively). Both paths
report their a-priori error as one `ErrorBudget`, and both admit a target
accuracy through `admit_eps`.
"""

from typing import NamedTuple


class PrecondError(ValueError):
    """An input violates a documented precondition or invariant."""


class NumericalError(RuntimeError):
    """A computation failed numerically (solver breakdown, non-finite values,
    eigendecomposition that does not reconstruct the input)."""


# Smallest target accuracy either path admits. Neither bound has a rounding
# channel, and below this floor the measured error sits at double-precision
# rounding above the bound: at eps 1e-15 the contour run misses it, at 1e-16
# the Fourier run does too, and at 1e-14 both hold (Higham, *Accuracy and
# Stability of Numerical Algorithms*, 2002, ch. 3-4).
EPS_FLOOR = 1e-14

# Largest dense dimension admitted anywhere (a grid's site count, a generated
# instance's size, a loaded matrix's side): one complex 4096^2 matrix is 256 MiB.
MAX_DENSE_DIM = 4096


def admit_eps(eps: float) -> None:
    """A target accuracy must lie in [EPS_FLOOR, 1): an eps below the floor
    asks for more than double precision can give."""
    if not (EPS_FLOOR <= eps < 1.0):
        raise PrecondError(
            f"eps must lie in [{EPS_FLOOR:g}, 1), whose floor is the double-precision "
            f"rounding of either path, got {eps!r}")


class ErrorBudget(NamedTuple):
    """A-priori bound of either path, split into its two channels."""

    truncation: float
    aliasing: float

    @property
    def total(self) -> float:
        return self.truncation + self.aliasing
