"""Exception types and the error-budget type shared across the package.

Precondition violations and numerical failures are kept distinct so the CLI
can map them to different exit codes (2 and 3 respectively). Both paths
report their a-priori error as one `ErrorBudget`.
"""

from typing import NamedTuple


class PrecondError(ValueError):
    """An input violates a documented precondition or invariant."""


class NumericalError(RuntimeError):
    """A computation failed numerically (solver breakdown, non-finite values,
    eigendecomposition that does not reconstruct the input)."""


class ErrorBudget(NamedTuple):
    """A-priori bound of either path, split into its two channels."""

    truncation: float
    aliasing: float

    @property
    def total(self) -> float:
        return self.truncation + self.aliasing
