"""Exact application of the simplex diffusion generators to polynomials.

Covers the generalized Jacobi operator on the k-simplex and its
integration-by-parts companion, which annihilates the Dirichlet weight
(1 - u_1 - ... - u_k)^{N-k-1}.  For k = 1 they are u(1-u) d^2 + (1-Nu) d and
u(1-u) d^2 + (1+(N-4)u) d + (N-2).  All operators act on exact coefficient
representations, so the identities they satisfy (checked in validate) can
be asserted coefficient-wise.
"""

import numpy as np

from .polynomials import SimplexPolynomial

__all__ = [
    "generalized_jacobi_op",
    "script_l_k",
    "operator_matrix",
]


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

