"""Desk-scale laboratory for matrix functions built from periodized sums.

Two evaluation paths share one aliasing story. The Fourier path expands the
evolution factor e^{-T H^alpha} in a cosine series on a period-a lattice
(`kernels`, `fourier`); the contour path averages weighted resolvents on m
roots of unity to evaluate a holomorphic f(A) (`contour`). `operators`
supplies grid Hamiltonians and application drivers, `costmodel` turns plans
into oracle-query counts, and `cli` wraps everything for the shell. Import
the submodule that defines a name: the package itself exports none.
"""

__version__ = "0.1.0"
