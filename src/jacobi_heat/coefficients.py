"""Coefficient system of the density's Laplace transform and its identities.

The sequence a_n(c, N) solves the lower-triangular system

    sum_{n=0}^p a_n C(p, n) / (N+2n)_{p-n} = c^p / p!,   a_0 = 1,

and has the closed form P_n^{N-2,0}(2c-1) / (N+n-1)_n.  Both routes are
implemented; a Bessel-series identity and the Laplace transform of the
density tie them back to the spectral expansion.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .special import CompensatedSum, bessel_j, hyp1f1, jacobi_p, jacobi_table, pochhammer

__all__ = [
    "CoefficientTable",
    "solve_coefficients",
    "closed_form_coefficient",
    "neumann_identity_residual",
    "laplace_series",
    "inversion_term_identity",
]


@dataclass(frozen=True)
class CoefficientTable:
    """Solved coefficients a_0..a_n_max for a fixed start point c and dimension N."""

    c: float
    N: int
    a: np.ndarray

    def __post_init__(self):
        if not (0.0 <= self.c <= 1.0):
            raise ValueError(f"c must lie in [0, 1], got {self.c}")
        if self.N < 2:
            raise ValueError(f"N must be >= 2, got {self.N}")
        if abs(self.a[0] - 1.0) > 1e-15:
            raise ValueError("a_0 must equal 1")


def _pochhammer_int(a, m):
    out = 1
    for i in range(m):
        out *= a + i
    return out


def solve_coefficients(c, N, n_max):
    """Solve the triangular system by exact forward substitution.

    The diagonal entries equal 1 (the n = p term has coefficient
    C(p,p)/(N+2p)_0), so no pivoting is needed.  Every system entry is
    rational once c is read as the exact rational value of its double, so
    the substitution runs in exact rational arithmetic; rounding happens
    only in the final conversion.  Plain floating-point substitution loses
    all relative accuracy wherever the solution passes near zero, because
    the binomial row entries dwarf the entry being solved for.
    """
    if not (0.0 <= c <= 1.0):
        raise ValueError(f"c must lie in [0, 1], got {c}")
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    c_exact = Fraction(c)
    a = [Fraction(1)]
    rhs = Fraction(1)  # c^p / p!, updated per row
    for p in range(1, n_max + 1):
        rhs *= Fraction(c_exact, p)
        row = rhs
        for n in range(p):
            row -= a[n] * Fraction(math.comb(p, n), _pochhammer_int(N + 2 * n, p - n))
        a.append(row)
    return CoefficientTable(c=float(c), N=int(N), a=np.array([float(v) for v in a]))


def closed_form_coefficient(c, N, n):
    """Closed form a_n = P_n^{N-2,0}(2c-1) / (N+n-1)_n."""
    return jacobi_p(n, (N - 2.0, 0.0), 2.0 * c - 1.0) / pochhammer(N + n - 1.0, n)


def neumann_identity_residual(c, N, x, n_max):
    """Residual of the Bessel-series identity solved by the coefficients.

    Compares sum_n (a_n/n!) Gamma(N+2n) (-1)^n J_{2n+N-1}(x) against
    J_0(sqrt(c) x) (x/2)^{N-1}, with a_n taken in closed form.  Small x only;
    the terms are bounded by (|x|/2)^{2n+N-1} / ((N+n-1)_n n!).
    """
    if abs(x) > 5.0:
        raise ValueError(f"|x| must be <= 5 for the residual check, got {x}")
    acc = CompensatedSum()
    for n in range(n_max + 1):
        acc.add(
            closed_form_coefficient(c, N, n)
            / math.factorial(n)
            * math.gamma(N + 2.0 * n)
            * (-1.0) ** n
            * bessel_j(2 * n + N - 1.0, x)
        )
    rhs = bessel_j(0.0, math.sqrt(c) * x) * (0.5 * x) ** (N - 1)
    return abs(acc.value - rhs)


def laplace_series(c, lam, t, N, n_max):
    """Laplace transform of the 1-D density at time t, as a coefficient series.

    Computes sum_n a_n e^{-n(n+N-1)t} lam^n 1F1(n+1, N+2n, lam) with the
    closed-form coefficients.  Times follow the canonical clock in which the
    degree-n mode decays at rate n(n+N-1); the alternative normalization that
    divides rates by N corresponds to rescaling t by N before calling this.
    Matches the quadrature of e^{lam*u} f_t(c, u) du.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    xs = 2.0 * c - 1.0
    pc = jacobi_table(n_max, N - 2.0, 0.0, np.asarray(xs))
    acc = CompensatedSum()
    lam_pow = 1.0
    for n in range(n_max + 1):
        a_n = float(pc[n]) / pochhammer(N + n - 1.0, n)
        acc.add(a_n * math.exp(-n * (n + N - 1.0) * t) * lam_pow * hyp1f1(n + 1.0, N + 2.0 * n, lam))
        lam_pow *= lam
    return acc.value


def inversion_term_identity(n, c, N, lam):
    """Both sides of the termwise Laplace-inversion identity.

    lhs = a_n lam^n 1F1(n+1, N+2n, lam); rhs = (2n+N-1) P_n^{0,N-2}(1-2c)
    times the Gauss-Jacobi integral of e^{lam*u} P_n^{0,N-2}(1-2u) against
    (1-u)^{N-2} du.  The (2n+N-1) factor is forced by the n = 0 case
    1F1(1, N, lam) = (N-1) * int e^{lam*u} (1-u)^{N-2} du and by consistency
    with the spectral form of the density.
    """
    from .quadrature import gauss_jacobi_rule

    lhs = closed_form_coefficient(c, N, n) * lam**n * hyp1f1(n + 1.0, N + 2.0 * n, lam)
    # exact for P_n times a degree-40 polynomial; that one matches e^{lam u},
    # |lam| <= 10, on [0, 1] to below 1e-30 of its size
    rule = gauss_jacobi_rule(max(64, (n + 40) // 2 + 1), N - 2.0, 0.0)
    pn = jacobi_table(n, 0.0, N - 2.0, 1.0 - 2.0 * rule.nodes)[n]
    integral = float(np.dot(rule.weights, np.exp(lam * rule.nodes) * pn))
    rhs = (2 * n + N - 1) * jacobi_p(n, (0.0, N - 2.0), 1.0 - 2.0 * c) * integral
    return lhs, rhs
