"""Coefficient system of the density's Laplace transform and its identities.

The sequence a_n(c, N) solves the lower-triangular system

    sum_{n=0}^p a_n C(p, n) / (N+2n)_{p-n} = c^p / p!,   a_0 = 1,

and has the closed form P_n^{N-2,0}(2c-1) / (N+n-1)_n.  Both routes are
implemented; a Bessel-series identity and the Laplace transform of the
density tie them back to the spectral expansion.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.special import hyp1f1

from .heat_kernel import _require_time_and_dimension, auto_truncation, kernel_series_1d
from .quadrature import gauss_jacobi_rule
from .special import bessel_j, jacobi_p, jacobi_table, pochhammer

__all__ = [
    "solve_coefficients",
    "closed_form_coefficient",
    "neumann_identity_residual",
    "laplace_series",
    "laplace_quadrature",
    "inversion_term_identity",
]


def _require_start(c):
    if not (0.0 <= c <= 1.0):
        raise ValueError(f"c must lie in [0, 1], got {c}")


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
    _require_start(c)
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    c_exact = Fraction(c)
    a = [Fraction(1)]
    rhs = Fraction(1)  # c^p / p!, updated per row
    for p in range(1, n_max + 1):
        rhs *= Fraction(c_exact, p)
        row = rhs
        for n in range(p):
            # (N+2n)_{p-n} = (N+n+p-1)! / (N+2n-1)!
            row -= a[n] * Fraction(math.comb(p, n), math.perm(N + n + p - 1, p - n))
        a.append(row)
    return np.array([float(v) for v in a])


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
    total = math.fsum(
        closed_form_coefficient(c, N, n)
        / math.factorial(n)
        * math.gamma(N + 2.0 * n)
        * (-1.0) ** n
        * bessel_j(2 * n + N - 1.0, x)
        for n in range(n_max + 1)
    )
    rhs = bessel_j(0.0, math.sqrt(c) * x) * (0.5 * x) ** (N - 1)
    return abs(total - rhs)


def laplace_series(c, lam, t, N, n_max):
    """Laplace transform of the 1-D density at time t, as a coefficient series.

    Computes sum_n a_n e^{-n(n+N-1)t} lam^n 1F1(n+1, N+2n, lam) for
    n = 0..n_max with the closed-form coefficients.  Times follow the
    canonical clock in which the degree-n mode decays at rate n(n+N-1); the
    alternative normalization that divides rates by N corresponds to
    rescaling t by N before calling this.  Matches laplace_quadrature.
    Refuses c outside [0, 1], N < 2, t <= 0 and n_max < 0.
    """
    _require_time_and_dimension(t, N, 2)
    _require_start(c)
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    pc = jacobi_table(n_max, N - 2.0, 0.0, np.asarray(2.0 * c - 1.0))
    terms = []
    lam_pow = 1.0
    for n in range(n_max + 1):
        a_n = float(pc[n]) / pochhammer(N + n - 1.0, n)
        decay = math.exp(-n * (n + N - 1.0) * t)
        terms.append(a_n * decay * lam_pow * hyp1f1(n + 1.0, N + 2.0 * n, lam))
        lam_pow *= lam
    return math.fsum(terms)


def _laplace_rule(degree, N):
    """Gauss-Jacobi rule against (1-u)^{N-2} for a degree-`degree` polynomial times e^{lam u}.

    The rule is exact for that polynomial times a degree-40 one, which matches
    e^{lam u}, |lam| <= 10, on [0, 1] to below 1e-30 of its size.
    """
    return gauss_jacobi_rule(max(64, (degree + 40) // 2 + 1), N - 2.0, 0.0)


def laplace_quadrature(c, lams, t, N):
    """Quadrature of e^{lam u} f_t(c, u) du over [0, 1] for each lam in lams.

    The density series is cut where its certified tail falls below 1e-13 and
    integrated by a rule sized from its degree.  Refuses c outside [0, 1],
    N < 2, t <= 0 and any lam with |lam| > 10 (or NaN).
    """
    _require_start(c)
    if not all(abs(lam) <= 10.0 for lam in lams):
        raise ValueError(f"|lambda| must be <= 10, got {list(lams)}")
    tr = auto_truncation(t, N, 1e-13)
    rule = _laplace_rule(tr.n_max, N)
    series, _ = kernel_series_1d(t, c, rule.nodes, N, tr.n_max)
    return np.array([np.dot(rule.weights, np.exp(lam * rule.nodes) * series) for lam in lams])


def inversion_term_identity(n, c, N, lam):
    """Both sides of the termwise Laplace-inversion identity.

    lhs = a_n lam^n 1F1(n+1, N+2n, lam); rhs = (2n+N-1) P_n^{0,N-2}(1-2c)
    times the Gauss-Jacobi integral of e^{lam*u} P_n^{0,N-2}(1-2u) against
    (1-u)^{N-2} du, for |lam| <= 10.  The (2n+N-1) factor is forced by the
    n = 0 case 1F1(1, N, lam) = (N-1) * int e^{lam*u} (1-u)^{N-2} du and by
    consistency with the spectral form of the density.
    """
    lhs = closed_form_coefficient(c, N, n) * lam**n * hyp1f1(n + 1.0, N + 2.0 * n, lam)
    rule = _laplace_rule(n, N)
    pn = jacobi_table(n, 0.0, N - 2.0, 1.0 - 2.0 * rule.nodes)[n]
    integral = float(np.dot(rule.weights, np.exp(lam * rule.nodes) * pn))
    rhs = (2 * n + N - 1) * jacobi_p(n, (0.0, N - 2.0), 1.0 - 2.0 * c) * integral
    return lhs, rhs
