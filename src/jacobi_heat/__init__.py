"""Jacobi-polynomial heat kernels on the simplex, cross-validated three ways.

The package evaluates the transition densities of the squared-modulus
coordinates of spherical Brownian motion: spectral Jacobi series on [0, 1]
and on the 2-simplex, the triangular coefficient system and Laplace
transform of the one-dimensional density, the generalized Jacobi operator
with its heat equation on the k-simplex, and a weak Euler simulator of the
associated Wright-Fisher-type diffusion serving as an independent Monte
Carlo oracle.
"""

__version__ = "0.1.0"

from .coefficients import (
    closed_form_coefficient,
    laplace_quadrature,
    laplace_series,
    solve_coefficients,
)
from .heat_kernel import (
    Truncation,
    auto_truncation,
    auto_truncation_2d,
    density_1d_values,
    density_2d_values,
)
from .operators import generalized_jacobi_op, script_l_k
from .polynomials import SimplexPolynomial
from .quadrature import QuadratureRule, gauss_jacobi_rule, simplex_rule_2
from .sde import PathEnsemble, SdeConfig, density_ks_check, simulate
from .simplex_jacobi import simplex_q_polynomial
from .special import eigenvalue, jacobi_p, pochhammer
