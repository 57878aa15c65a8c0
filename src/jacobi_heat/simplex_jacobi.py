"""Jacobi polynomials on the 2-simplex and their norms.

The family Q_{n-j,j}(u1, u2) = (1-u1)^j P_{n-j}^{N-2+2j,0}(2u1-1)
P_j^{N-3,0}(2u2/(1-u1) - 1) is orthogonal on the triangle against the
Dirichlet weight (1-u1-u2)^{N-3}; the (1-u1)^j prefactor cancels the
denominator of the inner argument, so each Q is a genuine bivariate
polynomial of total degree n.
"""

import math

import numpy as np

from .polynomials import SimplexPolynomial, jacobi_coeffs, jacobi_shifted_coeffs
from .special import jacobi_p, pochhammer

__all__ = [
    "simplex_q",
    "simplex_q_norm_sq",
    "simplex_q_polynomial",
    "koornwinder_c",
]


def _split(idx):
    """The (n, j) of Q_{n-j,j}, refused unless 0 <= j <= n."""
    n, j = idx
    if not (0 <= j <= n):
        raise ValueError(f"need 0 <= j <= n, got n={n}, j={j}")
    return n, j


def _in_closed_simplex(p):
    """Mask of the points p[..., :2] in the closed 2-simplex, up to 1e-12 of rounding."""
    slack = 1e-12
    return (p[..., 0] >= -slack) & (p[..., 1] >= -slack) & (p[..., 0] + p[..., 1] <= 1.0 + slack)


def simplex_q(idx, N, p):
    """Evaluate Q_{n-j,j} at a point of the closed 2-simplex.

    At u1 = 1 the removable singularity of the inner argument is resolved by
    the limit: the (1-u1)^j prefactor forces 0 for j >= 1, while for j = 0
    the inner factor is identically 1.
    """
    if N < 3:
        raise ValueError(f"N must be >= 3, got {N}")
    n, j = _split(idx)
    u1, u2 = map(float, p)
    if not _in_closed_simplex(np.array((u1, u2))):
        raise ValueError(f"({u1}, {u2}) outside the closed 2-simplex")
    outer = jacobi_p(n - j, (N - 2.0 + 2 * j, 0.0), 2.0 * u1 - 1.0)
    if j == 0:
        return outer
    rem = 1.0 - u1
    if rem <= 1e-300:
        return 0.0
    z = min(1.0, max(-1.0, 2.0 * u2 / rem - 1.0))
    return rem**j * outer * jacobi_p(j, (N - 3.0, 0.0), z)


def simplex_q_norm_sq(idx, N):
    """Squared L2 norm of Q_{n-j,j} against the 2-simplex Dirichlet weight.

    Returns 1/((2n+N-1)(2j+N-2)).
    """
    if N < 3:
        raise ValueError(f"N must be >= 3, got {N}")
    n, j = _split(idx)
    return 1.0 / ((2 * n + N - 1) * (2 * j + N - 2))


def koornwinder_c(j, q, n, N):
    """Coupling coefficient c_{j,q}(n, N) of the reproducing-kernel expansion."""
    if N < 3:
        raise ValueError(f"N must be >= 3, got {N}")
    if not (0 <= j <= n and 0 <= q <= n):
        raise ValueError(f"need 0 <= j, q <= n, got j={j}, q={q}, n={n}")
    return (
        (N - 2.0)
        / (N - 2.0 + q + j)
        * math.comb(n, q)
        * math.comb(n, j)
        * pochhammer(N + n - 1.0, q)
        * pochhammer(N + n - 1.0, j)
        / (pochhammer(N - 2.0 + j, q) * pochhammer(N - 2.0 + q, j))
    )


def simplex_q_polynomial(idx, N):
    """Q_{n-j,j} as an exact bivariate polynomial (coefficient expansion).

    Expanding (1-u1)^j P_j^{N-3,0}(2u2/(1-u1) - 1) term by term, each power
    z^m contributes (2u2 - (1-u1))^m (1-u1)^{j-m}, so the prefactor exactly
    cancels every denominator.  This form feeds the differential-operator
    eigenchecks without differentiating through the removable singularity.
    """
    if N < 3:
        raise ValueError(f"N must be >= 3, got {N}")
    n, j = _split(idx)
    u1 = SimplexPolynomial.variable(0, 2)
    u2 = SimplexPolynomial.variable(1, 2)
    one_minus_u1 = SimplexPolynomial.constant(1.0, 2) - u1

    outer_coeffs = jacobi_shifted_coeffs(n - j, N - 2.0 + 2 * j, 0.0)
    outer = SimplexPolynomial({(s, 0): c for s, c in enumerate(outer_coeffs)}, 2)

    inner_coeffs = jacobi_coeffs(j, N - 3.0, 0.0)
    w = 2.0 * u2 - one_minus_u1  # (1-u1) * z
    inner = SimplexPolynomial({}, 2)
    for m, c in enumerate(inner_coeffs):
        inner = inner + c * (w**m) * (one_minus_u1 ** (j - m))
    return outer * inner
