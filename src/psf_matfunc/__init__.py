"""Desk-scale laboratory for matrix functions built from periodized sums.

Two evaluation paths share one aliasing story. The Fourier path expands the
evolution factor e^{-T H^alpha} in a cosine series on a period-a lattice
(`kernels`, `fourier`); the contour path averages weighted resolvents on m
roots of unity to evaluate a holomorphic f(A) (`contour`). `operators`
supplies grid Hamiltonians and application drivers, `costmodel` turns plans
into oracle-query counts, and `cli` wraps everything for the shell.
"""

from .errors import ErrorBudget, NumericalError, PrecondError
from .kernels import (L1Estimate, SpectralProfile, TimeKernel,
                      algebraic_envelope_constant, algebraic_tail_integral,
                      envelope_rate, kernel_values, l1_norm_estimate,
                      lattice_kernel, saddle_rate)
from .fourier import (FourierPlan, aliasing_bound, assemble_fourier_approx,
                      cosine_series, error_bounds, lcu_coefficients,
                      plan_fourier, scalar_psf_residual, spectral_scale,
                      truncation_bound, truncation_ratio)
from .contour import (ContourPlan, RadiusResult, aliasing_norm_ratio,
                      aliasing_term, circle_sup, discrete_sum_apply,
                      lattice_radii, make_nodes, make_plan, optimize_radius,
                      plan_contour, plan_lattice, plan_m, sup_poly_abs,
                      truncation_integral, truncation_norm_bound)
from .linalg import (SpectralDecomposition, eig, evolution_matrix, matfun,
                     resolvent_apply)
from .operators import (ConvergenceRecord, DiracOperator, GridSpec,
                        difference_operator, dirac_operator, gradient_stack,
                        laplacian, run_application, shifted_encoding,
                        shifted_encoding_stats)
from .costmodel import (CostReport, PathComparison, ProblemSpec,
                        compare_paths, path_a_cost, path_b_cost)

__version__ = "0.1.0"

__all__ = [
    "ContourPlan", "ConvergenceRecord", "CostReport",
    "DiracOperator", "ErrorBudget", "FourierPlan", "GridSpec", "L1Estimate",
    "NumericalError", "PathComparison", "PrecondError", "ProblemSpec",
    "RadiusResult", "SpectralDecomposition", "SpectralProfile", "TimeKernel",
    "algebraic_envelope_constant", "algebraic_tail_integral",
    "aliasing_bound", "aliasing_norm_ratio", "aliasing_term",
    "assemble_fourier_approx", "circle_sup", "compare_paths", "cosine_series",
    "difference_operator", "dirac_operator", "discrete_sum_apply", "eig",
    "envelope_rate", "error_bounds", "evolution_matrix",
    "gradient_stack", "kernel_values", "l1_norm_estimate",
    "laplacian", "lattice_kernel", "lattice_radii", "lcu_coefficients",
    "make_nodes", "make_plan", "matfun", "optimize_radius", "path_a_cost",
    "path_b_cost", "plan_contour", "plan_fourier", "plan_lattice", "plan_m",
    "resolvent_apply", "run_application", "saddle_rate",
    "scalar_psf_residual", "shifted_encoding", "shifted_encoding_stats",
    "spectral_scale", "sup_poly_abs", "truncation_bound", "truncation_integral",
    "truncation_norm_bound", "truncation_ratio",
]
