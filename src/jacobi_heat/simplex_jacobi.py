"""Jacobi polynomials on the 2-simplex as exact bivariate polynomials.

The family Q_{n-j,j}(u1, u2) = (1-u1)^j P_{n-j}^{N-2+2j,0}(2u1-1)
P_j^{N-3,0}(2u2/(1-u1) - 1) is orthogonal on the triangle against the
Dirichlet weight (1-u1-u2)^{N-3}, with squared norm
1/((2n+N-1)(2j+N-2)); the (1-u1)^j prefactor cancels the denominator of the
inner argument, so each Q is a genuine bivariate polynomial of total
degree n.
"""

from .polynomials import SimplexPolynomial
from .special import _require_integer

__all__ = ["simplex_q_polynomial"]


def _jacobi_homogeneous(n, alpha, beta, w, h):
    """h^n P_n^{alpha,beta}(w/h) as a SimplexPolynomial, for SimplexPolynomials w and h.

    Runs the three-term recurrence of P_m with its m-th step multiplied by
    h^m, so every step stays polynomial; h = 1 gives P_n(w) itself.
    """
    prev, cur = None, h**0
    for m in range(1, n + 1):
        if m == 1:
            nxt = 0.5 * ((alpha + beta + 2.0) * w + (alpha - beta) * h)
        else:
            # special._jacobi_step with the constant of c1 times h and p2 times h^2
            s = 2.0 * m + alpha + beta
            c0 = 2.0 * m * (m + alpha + beta) * (s - 2.0)
            c1 = (s - 1.0) * (s * (s - 2.0) * w + (alpha * alpha - beta * beta) * h)
            c2 = 2.0 * (m + alpha - 1.0) * (m + beta - 1.0) * s
            nxt = (c1 * cur - c2 * (h * h) * prev) * (1.0 / c0)
        prev, cur = cur, nxt
    return cur


def simplex_q_polynomial(idx, N):
    """Q_{n-j,j} as an exact bivariate polynomial (coefficient expansion).

    The outer factor is P_{n-j}^{N-2+2j,0}(2u1-1); the inner factor
    (1-u1)^j P_j^{N-3,0}(2u2/(1-u1) - 1) is h^j P_j(w/h) with h = 1-u1 and
    w = 2u2 - h, which the homogenised recurrence builds without ever
    dividing by h.  This form feeds the differential-operator eigenchecks
    without differentiating through the removable singularity.
    """
    _require_integer("N", N, 3)
    n, j = idx
    _require_integer("j", j, 0)
    _require_integer("n", n, j)
    one = SimplexPolynomial.constant(1.0, 2)
    u1 = SimplexPolynomial.variable(0, 2)
    h = one - u1
    outer = _jacobi_homogeneous(n - j, N - 2.0 + 2 * j, 0.0, 2.0 * u1 - 1.0, one)
    inner = _jacobi_homogeneous(j, N - 3.0, 0.0, 2.0 * SimplexPolynomial.variable(1, 2) - h, h)
    return outer * inner
