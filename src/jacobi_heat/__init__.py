"""Jacobi-polynomial heat kernels on the simplex, cross-validated three ways.

The package evaluates the transition densities of the squared-modulus
coordinates of spherical Brownian motion: spectral Jacobi series on [0, 1]
and on the 2-simplex, the triangular coefficient system and Laplace
transform of the one-dimensional density, the generalized Jacobi operator
with its heat equation on the k-simplex, and an Euler-Maruyama simulator of
the associated Wright-Fisher-type diffusion serving as an independent Monte
Carlo oracle.
"""

__version__ = "0.1.0"

from .coefficients import (
    closed_form_coefficient,
    inversion_term_identity,
    laplace_quadrature,
    laplace_series,
    neumann_identity_residual,
    solve_coefficients,
)
from .heat_kernel import (
    Truncation,
    TruncationWarning,
    auto_truncation,
    auto_truncation_2d,
    chapman_kolmogorov_check,
    density_1d_values,
    density_2d_values,
    eigen_transform_check,
)
from .operators import (
    face_derivative_identity,
    generalized_jacobi_op,
    heat_residual_1d,
    script_l_k,
)
from .polynomials import SimplexPolynomial
from .quadrature import QuadratureRule, SimplexRule2, gauss_jacobi_rule, simplex_rule_2
from .sde import PathEnsemble, SdeConfig, density_ks_check, generator_moment_check, simulate
from .simplex_jacobi import (
    koornwinder_c,
    simplex_q,
    simplex_q_norm_sq,
    simplex_q_polynomial,
)
from .special import (
    bessel_j,
    eigenvalue,
    harmonic_dimension,
    jacobi_p,
    pochhammer,
)
