"""Exact application of the simplex diffusion generators to polynomials.

Covers the generalized Jacobi operator on the k-simplex and its
integration-by-parts companion, which annihilates the Dirichlet weight
(1 - u_1 - ... - u_k)^{N-k-1}.  For k = 1 they are u(1-u) d^2 + (1-Nu) d and
u(1-u) d^2 + (1+(N-4)u) d + (N-2).  Both act on a monomial in closed form:
u^e goes to a multiple of itself plus e_i^2 u^{e-delta_i} for each i, so the
generator is triangular in the graded monomial basis with diagonal
-|e|(|e|+N-1).  They act on exact coefficient representations, so the
identities they satisfy (checked in validate) can be asserted coefficient-wise.
"""

import itertools

import numpy as np

from .polynomials import SimplexPolynomial
from .special import _require_integer

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
    """const f + sum_i (1+slope u_i) d_i f + sum_i (u_i-u_i^2) d_ii f - sum_{i!=j} u_iu_j d_ij f.

    On a monomial u^e, with delta_i the i-th unit exponent, the first-order part
    gives e_i u^{e-delta_i} + slope e_i u^e, the d_ii part e_i(e_i-1) (u^{e-delta_i} - u^e)
    and the d_ij part e_ie_j u^e, where sum_i e_i(e_i-1) + sum_{i!=j} e_ie_j = |e|^2 - |e|.
    So u^e maps to (const + (slope+1)|e| - |e|^2) u^e + sum_i e_i^2 u^{e-delta_i}, and
    the degree never rises.
    """
    _require_integer("N", N, f.k + 1)
    out = {}
    for e, a in f.terms.items():
        d = sum(e)
        out[e] = out.get(e, 0.0) + (const + (slope + 1) * d - d * d) * a
        for i, ei in enumerate(e):
            if ei:
                lower = e[:i] + (ei - 1,) + e[i + 1 :]
                out[lower] = out.get(lower, 0.0) + ei * ei * a
    return SimplexPolynomial(out, f.k)


def operator_matrix(k, N, max_degree):
    """Matrix of the generalized Jacobi operator in the graded monomial basis.

    Returns (matrix, exponents) where exponents lists the multi-indices of
    total degree <= max_degree in graded order.  Used to read off the
    spectrum of the generator on low-degree polynomials.
    """
    _require_integer("k", k, 1)
    _require_integer("max_degree", max_degree, 0)
    exponents = sorted(
        (e for e in itertools.product(range(max_degree + 1), repeat=k) if sum(e) <= max_degree),
        key=lambda e: (sum(e), [-p for p in e]),
    )
    index = {e: i for i, e in enumerate(exponents)}
    mat = np.zeros((len(exponents), len(exponents)))
    for col, e in enumerate(exponents):
        image = generalized_jacobi_op(SimplexPolynomial({e: 1.0}, k), N)
        for ee, coeff in image.terms.items():
            mat[index[ee], col] = coeff
    return mat, exponents

