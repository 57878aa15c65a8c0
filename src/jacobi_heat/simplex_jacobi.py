"""Jacobi polynomials on the 2-simplex as exact bivariate polynomials.

The family Q_{n-j,j}(u1, u2) = (1-u1)^j P_{n-j}^{N-2+2j,0}(2u1-1)
P_j^{N-3,0}(2u2/(1-u1) - 1) is orthogonal on the triangle against the
Dirichlet weight (1-u1-u2)^{N-3}, with squared norm
1/((2n+N-1)(2j+N-2)); the (1-u1)^j prefactor cancels the denominator of the
inner argument, so each Q is a genuine bivariate polynomial of total
degree n.
"""

from .polynomials import SimplexPolynomial
from .special import _require_integer, pochhammer

__all__ = ["simplex_q_polynomial"]


def _jacobi_sum(n, alpha, beta, p, q):
    """sum_s C(n+alpha, n-s) C(n+beta, s) p^s q^{n-s} for SimplexPolynomials p, q (DLMF 18.5.8).

    p = (x-1)/2 and q = (x+1)/2 give P_n^{alpha,beta}(x); the sum is
    homogeneous of degree n in (p, q), so p and q scaled by h give h^n P_n(x).
    C(a, m) is (a-m+1)_m / m!, exact for integer alpha and beta.
    """
    out = SimplexPolynomial({}, p.k)
    for s in range(n + 1):
        c = pochhammer(alpha + s + 1.0, n - s) / pochhammer(1.0, n - s)
        c *= pochhammer(beta + n - s + 1.0, s) / pochhammer(1.0, s)
        out = out + c * p**s * q ** (n - s)
    return out


def simplex_q_polynomial(idx, N):
    """Q_{n-j,j} as an exact bivariate polynomial (coefficient expansion).

    The outer factor P_{n-j}^{N-2+2j,0}(2u1-1) is the Jacobi sum at
    p = u1-1, q = u1; the inner factor (1-u1)^j P_j^{N-3,0}(2u2/(1-u1) - 1)
    is the sum at p = u1+u2-1, q = u2, the pair for x = 2u2/(1-u1) - 1
    scaled by 1-u1, so nothing divides by 1-u1.  This form feeds the
    differential-operator eigenchecks without differentiating through the
    removable singularity.
    """
    _require_integer("N", N, 3)
    n, j = idx
    _require_integer("j", j, 0)
    _require_integer("n", n, j)
    u1, u2 = SimplexPolynomial.variable(0, 2), SimplexPolynomial.variable(1, 2)
    outer = _jacobi_sum(n - j, N - 2.0 + 2 * j, 0.0, u1 - 1.0, u1)
    return outer * _jacobi_sum(j, N - 3.0, 0.0, u1 + u2 - 1.0, u2)
