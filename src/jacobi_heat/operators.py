"""Exact application of the simplex diffusion generators to polynomials.

Covers the generalized Jacobi operator on the k-simplex and its
integration-by-parts companion, which annihilates the Dirichlet weight
(1 - u_1 - ... - u_k)^{N-k-1}.  For k = 1 they are u(1-u) d^2 + (1-Nu) d and
u(1-u) d^2 + (1+(N-4)u) d + (N-2).  All operators act on exact coefficient
representations, so the identities they satisfy can be asserted
coefficient-wise.
"""

import numpy as np

from .heat_kernel import _require_time_and_dimension, kernel_series_1d
from .polynomials import SimplexPolynomial
from .special import eigenvalue

__all__ = [
    "generalized_jacobi_op",
    "script_l_k",
    "heat_residual_1d",
    "face_derivative_identity",
    "operator_matrix",
]

STENCIL_DT = 1e-4  # time step of heat_residual_1d's five-point stencil


def generalized_jacobi_op(g, N):
    """Apply sum_i (1-Nu_i) d_i + sum_i (u_i-u_i^2) d_ii - sum_{i!=j} u_iu_j d_ij."""
    return _second_order_op(g, N, 0, -N)


def script_l_k(f, N):
    """Apply the k-variable integration-by-parts operator.

    k(N-k-1) + sum_i [1 + (N-2k-2) u_i] d_i + sum_i (u_i-u_i^2) d_ii
    - sum_{i!=j} u_iu_j d_ij.  It annihilates (1 - sum u)^{N-k-1} and, for
    k = N-1, coincides with the generalized Jacobi operator.
    """
    k = f.k
    return _second_order_op(f, N, k * (N - k - 1), N - 2 * k - 2)


def _second_order_op(f, N, const, slope):
    """const f + sum_i (1+slope u_i) d_i f + sum_i (u_i-u_i^2) d_ii f - sum_{i!=j} u_iu_j d_ij f."""
    k = f.k
    if k > N - 1:
        raise ValueError(f"need k <= N-1, got k={k}, N={N}")
    out = float(const) * f
    one = SimplexPolynomial.constant(1.0, k)
    firsts = [f.partial(i) for i in range(k)]
    for i in range(k):
        ui = SimplexPolynomial.variable(i, k)
        out = out + (one + slope * ui) * firsts[i]
        out = out + (ui - ui * ui) * firsts[i].partial(i)
        for j in range(k):
            if j != i:
                uj = SimplexPolynomial.variable(j, k)
                out = out - ui * uj * firsts[i].partial(j)
    return out


def heat_residual_1d(t, c, N, n_max, u_grid):
    """Max residual of the time-differenced series against its exact derivative.

    The weight-free part g_t of the density, cut at degree n_max, is
    differentiated in t by the symmetric five-point stencil of step
    STENCIL_DT (fourth order; this is why t > 2*STENCIL_DT is required) and
    compared against the termwise derivative, where each series term is an
    eigenfunction and contributes -n(n+N-1) times itself.  Also refuses t not
    finite, N < 2 and c off [0, 1].
    """
    _require_time_and_dimension(t, N, 2)
    if not (0.0 <= c <= 1.0):
        raise ValueError(f"c must lie in [0, 1], got {c}")
    dt = STENCIL_DT
    if t <= 2.0 * dt:
        raise ValueError(f"need t > 2*dt, got t={t}, dt={dt}")
    u = np.asarray(u_grid, dtype=float)
    g_pp, _ = kernel_series_1d(t + 2.0 * dt, c, u, N, n_max)
    g_p, _ = kernel_series_1d(t + dt, c, u, N, n_max)
    g_m, _ = kernel_series_1d(t - dt, c, u, N, n_max)
    g_mm, _ = kernel_series_1d(t - 2.0 * dt, c, u, N, n_max)
    fd = (-g_pp + 8.0 * g_p - 8.0 * g_m + g_mm) / (12.0 * dt)
    rates = np.array([-float(eigenvalue(n, N)) for n in range(n_max + 1)])
    exact, _ = kernel_series_1d(t, c, u, N, n_max, mode_factors=rates)
    return float(np.max(np.abs(fd - exact)))


def face_derivative_identity(f):
    """Whether d_i f - d_j f vanishes on the face {u_1 + ... + u_k = 1}.

    True iff every pairwise difference of first derivatives is divisible by
    (1 - sum u); checked by substituting u_1 = 1 - u_2 - ... - u_k and
    requiring the remainder's coefficients to vanish to 1e-12 of f's largest.
    Holds for f = g * s_k whenever the weight exponent N-k-1 is at least 1.
    """
    k = f.k
    if k == 1:
        return True
    ones = SimplexPolynomial.constant(1.0, k)
    sub = ones
    for i in range(1, k):
        sub = sub - SimplexPolynomial.variable(i, k)
    scale = max(1.0, f.max_abs_coeff())
    for i in range(k):
        for j in range(i + 1, k):
            diff = f.partial(i) - f.partial(j)
            rem = diff.substitute(0, sub)
            if rem.max_abs_coeff() > 1e-12 * scale:
                return False
    return True


def operator_matrix(k, N, max_degree):
    """Matrix of the generalized Jacobi operator in the graded monomial basis.

    Returns (matrix, exponents) where exponents lists the multi-indices of
    total degree <= max_degree in graded order.  Used to read off the
    spectrum of the generator on low-degree polynomials.
    """
    exponents = []
    for d in range(max_degree + 1):
        exponents.extend(_exponents_of_degree(d, k))
    index = {e: i for i, e in enumerate(exponents)}
    mat = np.zeros((len(exponents), len(exponents)))
    for col, e in enumerate(exponents):
        image = generalized_jacobi_op(SimplexPolynomial({e: 1.0}, k), N)
        for ee, coeff in image.terms.items():
            if ee not in index:
                raise AssertionError(f"operator left the degree-{max_degree} space")
            mat[index[ee], col] = coeff
    return mat, exponents


def _exponents_of_degree(d, k):
    if k == 1:
        return [(d,)]
    out = []
    for lead in range(d, -1, -1):
        out.extend((lead,) + rest for rest in _exponents_of_degree(d - lead, k - 1))
    return out

