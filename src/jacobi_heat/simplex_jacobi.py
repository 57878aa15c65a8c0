"""Jacobi polynomials on the 2-simplex and their norms.

The family Q_{n-j,j}(u1, u2) = (1-u1)^j P_{n-j}^{N-2+2j,0}(2u1-1)
P_j^{N-3,0}(2u2/(1-u1) - 1) is orthogonal on the triangle against the
Dirichlet weight (1-u1-u2)^{N-3}; the (1-u1)^j prefactor cancels the
denominator of the inner argument, so each Q is a genuine bivariate
polynomial of total degree n.
"""

import math
from dataclasses import dataclass

from .polynomials import SimplexPolynomial, jacobi_coeffs, jacobi_shifted_coeffs
from .special import jacobi_p, pochhammer

__all__ = [
    "SimplexIndex",
    "SimplexPoint",
    "simplex_q",
    "simplex_q_norm_sq",
    "simplex_q_polynomial",
    "koornwinder_c",
]


@dataclass(frozen=True)
class SimplexIndex:
    """Total degree n and split index j, 0 <= j <= n."""

    n: int
    j: int

    def __post_init__(self):
        if not (0 <= self.j <= self.n):
            raise ValueError(f"need 0 <= j <= n, got n={self.n}, j={self.j}")


@dataclass(frozen=True)
class SimplexPoint:
    """Point of the open 2-simplex; boundary points need boundary_ok=True."""

    u1: float
    u2: float
    boundary_ok: bool = False

    def __post_init__(self):
        if self.boundary_ok:
            tol = 1e-12
            ok = self.u1 >= -tol and self.u2 >= -tol and self.u1 + self.u2 <= 1.0 + tol
        else:
            ok = self.u1 > 0.0 and self.u2 > 0.0 and self.u1 + self.u2 < 1.0
        if not ok:
            raise ValueError(f"({self.u1}, {self.u2}) outside the 2-simplex")


def _as_index(idx):
    if isinstance(idx, SimplexIndex):
        return idx.n, idx.j
    n, j = idx
    SimplexIndex(n, j)  # validate
    return n, j


def _as_point(p):
    if isinstance(p, SimplexPoint):
        return p.u1, p.u2
    u1, u2 = p
    tol = 1e-12
    if u1 < -tol or u2 < -tol or u1 + u2 > 1.0 + tol:
        raise ValueError(f"({u1}, {u2}) outside the closed 2-simplex")
    return float(u1), float(u2)


def simplex_q(idx, N, p):
    """Evaluate Q_{n-j,j} at a point of the closed 2-simplex.

    At u1 = 1 the removable singularity of the inner argument is resolved by
    the limit: the (1-u1)^j prefactor forces 0 for j >= 1, while for j = 0
    the inner factor is identically 1.
    """
    if N < 3:
        raise ValueError(f"N must be >= 3, got {N}")
    n, j = _as_index(idx)
    u1, u2 = _as_point(p)
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
    n, j = _as_index(idx)
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
    n, j = _as_index(idx)
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
