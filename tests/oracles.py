"""Independent reference routes used only to produce expected test values.

Jacobi polynomials come from the terminating hypergeometric sum and
integrals from Beta/Dirichlet closed forms, none of them through the
package's recurrence or quadrature.  The simplex polynomials Q_{n-j,j} are
evaluated pointwise from their factored definition with the package's
jacobi_p, independently of the expanded polynomials and of the 2-D series.
The last three routes are the plain forms of code the package runs faster
(the cutoff scan, the stepwise recurrence, per-row CSV lines): the package
must reproduce them bit for bit.  QUICK_CHECKS pins the report's registry.
"""

import math
from fractions import Fraction

import numpy as np

from jacobi_heat.heat_kernel import MAX_MODES, Truncation, _tail_bound
from jacobi_heat.special import _jacobi_step, jacobi_p

# the quick-tier registry: every check name and tolerance, in report order
QUICK_CHECKS = [
    ("coefficients.solve_vs_closed_form", 1e-09),
    ("coefficients.endpoint_closed_forms", 1e-12),
    ("coefficients.neumann_identity", 1e-12),
    ("density1d.normalization", 1e-10),
    ("density1d.positivity", 1e-12),
    ("density1d.eigen_transform", 1e-09),
    ("density1d.chapman_kolmogorov", 1e-08),
    ("density1d.reversibility_symmetry", 1e-11),
    ("density2d.normalization", 1e-10),
    ("density2d.marginal_matches_1d", 1e-08),
    ("density2d.marginal_independent_of_c2", 1e-08),
    ("density2d.reversibility_symmetry", 1e-11),
    ("operators.weight_annihilation", 1e-13),
    ("operators.conjugation_identities", 1e-13),
    ("operators.simplex_eigenpolynomials", 1e-11),
    ("operators.graded_spectrum", 1e-09),
    ("operators.heat_residual_1d", 1e-06),
    ("operators.face_derivative_dichotomy", 0.0),
    ("laplace.series_vs_quadrature", 1e-08),
    ("laplace.inversion_term_identity", 1e-10),
    ("mc.mean_decay_rate", 0.1),
    ("mc.ks_1d", 0.0489),
    ("mc.chi_square_2d", 20.090235029663233),
    ("mc.dirichlet_moments_k3", 1.0),
    ("mc.generator_moment_k2", 1.0),
]


def jacobi_2f1(n, alpha, beta, x):
    """P_n^{alpha,beta}(x) by its terminating 2F1 definition.

    Evaluated in exact rational arithmetic (the test arguments are all
    rationals), since the alternating sum cancels catastrophically in floats
    near x = -1 for large n.
    """
    return float(jacobi_2f1_exact(n, alpha, beta, x))


def jacobi_2f1_exact(n, alpha, beta, x):
    """jacobi_2f1 as the exact Fraction, before rounding."""
    a, b = Fraction(alpha), Fraction(beta)
    z = (1 - Fraction(x)) / 2
    lead = Fraction(1)
    for i in range(n):
        lead *= (a + 1 + i) / Fraction(i + 1)
    total = Fraction(0)
    term = Fraction(1)
    for k in range(n + 1):
        total += term
        term *= Fraction(-n + k) * (n + a + b + 1 + k) * z / ((a + 1 + k) * (k + 1))
    return lead * total


def beta_closed_form(b, a):
    """B(b, a) from log-gamma."""
    return math.exp(math.lgamma(b) + math.lgamma(a) - math.lgamma(a + b))


def dirichlet_integral_2d(p, q, N):
    """integral over the 2-simplex of u1^p u2^q (1-u1-u2)^{N-3}."""
    return math.exp(
        math.lgamma(p + 1.0)
        + math.lgamma(q + 1.0)
        + math.lgamma(N - 2.0)
        - math.lgamma(p + q + N)
    )



def simplex_q(idx, N, p):
    """Q_{n-j,j}(u1, u2) = (1-u1)^j P_{n-j}^{N-2+2j,0}(2u1-1) P_j^{N-3,0}(2u2/(1-u1) - 1).

    At u1 = 1 the removable singularity of the inner argument is resolved by
    the limit: the (1-u1)^j prefactor forces 0 for j >= 1, while for j = 0
    the inner factor is identically 1.
    """
    n, j = idx
    u1, u2 = map(float, p)
    outer = jacobi_p(n - j, (N - 2.0 + 2 * j, 0.0), 2.0 * u1 - 1.0)
    if j == 0:
        return outer
    rem = 1.0 - u1
    if rem <= 1e-300:
        return 0.0
    z = min(1.0, max(-1.0, 2.0 * u2 / rem - 1.0))
    return rem**j * outer * jacobi_p(j, (N - 3.0, 0.0), z)


def simplex_q_norm_sq(idx, N):
    """Squared norm 1/((2n+N-1)(2j+N-2)) of Q_{n-j,j} against (1-u1-u2)^{N-3}."""
    n, j = idx
    return 1.0 / ((2 * n + N - 1) * (2 * j + N - 2))


def harmonic_dimension(n, N):
    """dim H_{n,n} = ((2n+N-1)/(N-1)) ((N-1)_n / n!)^2, in exact arithmetic, checked integral."""
    # (N-1)_n = (N+n-2)! / (N-2)!
    d = Fraction(2 * n + N - 1, N - 1) * Fraction(math.perm(N + n - 2, n), math.factorial(n)) ** 2
    if d.denominator != 1:
        raise ArithmeticError(f"eigenspace dimension is not integral: {d}")
    return float(d)


def auto_truncation_scan(t, N, tol, term_bound):
    """The first n_max = 1, 2, ... whose tail bound passes tol, refusing where it overflows."""
    for n_max in range(1, MAX_MODES + 1):
        bound = _tail_bound(n_max, t, N, term_bound)
        if bound <= tol:
            return Truncation(n_max=n_max, tol=tol, achieved_bound=bound)
    raise ValueError(f"t = {t} too small: truncation would exceed {MAX_MODES} modes")


def jacobi_table_stepwise(n_max, alpha, beta, x):
    """jacobi_table with a fresh array per degree, as _jacobi_step writes it."""
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1,) + x.shape)
    out[0] = 1.0
    if n_max == 0:
        return out
    out[1] = (alpha + 1.0) + (alpha + beta + 2.0) * (x - 1.0) / 2.0
    for n in range(2, n_max + 1):
        out[n] = _jacobi_step(n, alpha, beta, x, out[n - 1], out[n - 2])
    return out


def csv_data_lines(rows):
    """The CSV data lines of rows, formatted one row at a time with format(v, ".17g")."""
    lines = (",".join(format(v, ".17g") for v in row) + "\n" for row in np.asarray(rows).tolist())
    return "".join(lines)
