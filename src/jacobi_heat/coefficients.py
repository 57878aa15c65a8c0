"""Coefficient system of the density's Laplace transform.

The sequence a_n(c, N) solves the lower-triangular system

    sum_{n=0}^p a_n C(p, n) / (N+2n)_{p-n} = c^p / p!,   a_0 = 1,

and has the closed form P_n^{N-2,0}(2c-1) / (N+n-1)_n.  Both routes are
implemented, and so is the Laplace transform of the density, as the
coefficient series and as a quadrature against the spectral expansion.
validate ties the coefficients back to that expansion through a
Bessel-series identity and the termwise Laplace inversion.
"""

import math
from fractions import Fraction

import numpy as np

from .heat_kernel import _require_time_and_dimension, auto_truncation, kernel_series_1d
from .quadrature import gauss_jacobi_rule
from .special import _require_integer, _require_unit_interval, jacobi_p, jacobi_table, pochhammer

__all__ = [
    "solve_coefficients",
    "closed_form_coefficient",
    "laplace_series",
    "laplace_quadrature",
]


def solve_coefficients(c, N, n_max):
    """Solve the triangular system by exact forward substitution.

    The diagonal entries equal 1 (the n = p term has coefficient
    C(p,p)/(N+2p)_0), so no pivoting is needed.  Every system entry is
    rational once c is read as the exact rational value of its double, so
    the substitution runs in exact rational arithmetic; rounding happens
    only in the final conversion.  Plain floating-point substitution loses
    all relative accuracy wherever the solution passes near zero, because
    the binomial row entries dwarf the entry being solved for.

    The exact entries grow with p, so the cost grows far faster than the
    row count.  |P_n^{N-2,0}| <= P_n^{N-2,0}(1) on [-1, 1] (Szego, since
    N-2 >= 0), so |a_n| <= (N-1)_n / (n! (N+n-1)_n), a bound that falls
    with n.  Once it is at most 2^-1075, half the smallest subnormal, a_n
    and every later entry round to zero, so the solve stops there (n = 139
    to 143 for N = 2 to 10) and the rest is 0.0.
    """
    _require_unit_interval("c", c)
    _require_integer("N", N, 2)
    _require_integer("n_max", n_max, 0)
    c_exact = Fraction(c)
    a = [Fraction(1)]
    rhs = Fraction(1)  # c^p / p!, updated per row
    bound = Fraction(1)  # the bound on |a_p|
    rounds_to_zero = Fraction(math.ulp(0.0)) / 2
    for p in range(1, n_max + 1):
        bound *= Fraction((N + p - 2) ** 2, p * (N + 2 * p - 3) * (N + 2 * p - 2))
        if bound <= rounds_to_zero:
            break
        rhs *= Fraction(c_exact, p)
        row = rhs
        for n in range(p):
            # (N+2n)_{p-n} = (N+n+p-1)! / (N+2n-1)!
            row -= a[n] * Fraction(math.comb(p, n), math.perm(N + n + p - 1, p - n))
        a.append(row)
    return np.array([float(v) for v in a] + [0.0] * (n_max + 1 - len(a)))


def closed_form_coefficient(c, N, n):
    """Closed form a_n = P_n^{N-2,0}(2c-1) / (N+n-1)_n, for the integers N >= 2 the system has."""
    _require_integer("N", N, 2)
    return jacobi_p(n, (N - 2.0, 0.0), 2.0 * c - 1.0) / pochhammer(N + n - 1.0, n)


def laplace_series(c, lam, t, N, n_max):
    """Laplace transform of the 1-D density at time t, as a coefficient series.

    Computes sum_n a_n e^{-n(n+N-1)t} lam^n 1F1(n+1, N+2n, lam) for
    n = 0..n_max with the closed-form coefficients.  Times follow the
    canonical clock in which the degree-n mode decays at rate n(n+N-1); the
    alternative normalization that divides rates by N corresponds to
    rescaling t by N before calling this.  Matches laplace_quadrature.
    Refuses c outside [0, 1], N < 2, t not finite and positive, lam not
    finite (1F1 at lam = inf does not return), and n_max < 0.
    """
    from scipy.special import hyp1f1

    _require_time_and_dimension(t, N, 2)
    _require_unit_interval("c", c)
    _require_integer("n_max", n_max, 0)
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam!r}")
    pc = jacobi_table(n_max, N - 2.0, 0.0, np.asarray(2.0 * c - 1.0))
    terms = []
    ratio = 1.0  # lam^n / (N+n-1)_n, carried as one factor so neither part overflows
    for n in range(n_max + 1):
        decay = math.exp(-n * (n + N - 1.0) * t)
        terms.append(float(pc[n]) * ratio * decay * hyp1f1(n + 1.0, N + 2.0 * n, lam))
        ratio *= lam * (N + n - 1.0) / ((N + 2.0 * n - 1.0) * (N + 2.0 * n))
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
    N < 2, t not finite and positive, and any lam with |lam| > 10 (or NaN).
    """
    _require_unit_interval("c", c)
    if not all(abs(lam) <= 10.0 for lam in lams):
        raise ValueError(f"|lambda| must be <= 10, got {list(lams)}")
    tr = auto_truncation(t, N, 1e-13)
    rule = _laplace_rule(tr.n_max, N)
    series, _ = kernel_series_1d(t, c, rule.nodes, N, tr.n_max)
    return np.array([np.dot(rule.weights, np.exp(lam * rule.nodes) * series) for lam in lams])
