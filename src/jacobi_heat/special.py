"""Scalar special functions and Jacobi-polynomial evaluation.

All routines are pure functions of their arguments.  The Bessel and
confluent hypergeometric power series are summed with Neumaier-compensated
accumulation (CompensatedSum).  Jacobi polynomials come from the plain
three-term recurrence; the heat-kernel series built on them (heat_kernel)
are summed in ordinary double precision.
"""

import math
from fractions import Fraction

import numpy as np

__all__ = [
    "CompensatedSum",
    "pochhammer",
    "jacobi_table",
    "jacobi_p",
    "jacobi_p_one",
    "jacobi_p_normalized",
    "jacobi_norm_sq_1d",
    "bessel_j",
    "hyp1f1",
    "eigenvalue",
    "harmonic_dimension",
]


class CompensatedSum:
    """Neumaier compensated accumulator for streaming scalar sums."""

    __slots__ = ("_s", "_c")

    def __init__(self):
        self._s = 0.0
        self._c = 0.0

    def add(self, x):
        t = self._s + x
        if abs(self._s) >= abs(x):
            self._c += (self._s - t) + x
        else:
            self._c += (x - t) + self._s
        self._s = t

    @property
    def value(self):
        return self._s + self._c


def pochhammer(a, m):
    """Rising factorial a(a+1)...(a+m-1); the empty product (m = 0) is 1."""
    if m < 0 or m != int(m):
        raise ValueError(f"pochhammer order must be a nonnegative integer, got {m}")
    out = 1.0
    for i in range(int(m)):
        out *= a + i
    return out


def jacobi_table(n_max, alpha, beta, x):
    """All Jacobi polynomials P_n^{alpha,beta}(x) for n = 0..n_max.

    Evaluated by the forward three-term recurrence, which is stable on
    [-1, 1].  x may be a scalar or an ndarray; the result has shape
    (n_max+1,) + shape(x).
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1,) + x.shape)
    out[0] = 1.0
    if n_max == 0:
        return out
    out[1] = (alpha + 1.0) + (alpha + beta + 2.0) * (x - 1.0) / 2.0
    for n in range(2, n_max + 1):
        out[n] = _jacobi_step(n, alpha, beta, x, out[n - 1], out[n - 2])
    return out


def _jacobi_step(n, alpha, beta, x, p1, p2):
    """P_n^{alpha,beta}(x) from p1 = P_{n-1} and p2 = P_{n-2}, for n >= 2.

    alpha may be an array that broadcasts against x, which runs the
    recurrence for several alpha at once.
    """
    s = 2.0 * n + alpha + beta
    c0 = 2.0 * n * (n + alpha + beta) * (s - 2.0)
    c1 = (s - 1.0) * (s * (s - 2.0) * x + alpha * alpha - beta * beta)
    c2 = 2.0 * (n + alpha - 1.0) * (n + beta - 1.0) * s
    return (c1 * p1 - c2 * p2) / c0


def jacobi_p(n, params, x):
    """Jacobi polynomial P_n^{alpha,beta}(x) on [-1, 1].

    n: nonnegative degree
    params: (alpha, beta) pair with alpha, beta > -1
    x: scalar or ndarray; values with |x| > 1 + 1e-12 are refused
    """
    alpha, beta = params
    if not (alpha > -1.0 and beta > -1.0):
        raise ValueError(f"Jacobi parameters must exceed -1, got ({alpha}, {beta})")
    if n < 0 or n != int(n):
        raise ValueError(f"degree must be a nonnegative integer, got {n}")
    xa = np.asarray(x, dtype=float)
    if np.any(np.abs(xa) > 1.0 + 1e-12):
        raise ValueError("Jacobi polynomial argument outside [-1, 1]")
    val = jacobi_table(int(n), alpha, beta, xa)[int(n)]
    return float(val) if np.ndim(x) == 0 else val


def jacobi_p_one(n, alpha, beta=0.0):
    """Endpoint value P_n^{alpha,beta}(1) = (alpha+1)_n / n!."""
    return pochhammer(alpha + 1.0, n) / math.factorial(n)


def jacobi_p_normalized(n, params, x):
    """P_n^{alpha,beta}(x) / P_n^{alpha,beta}(1); equals 1 at x = 1."""
    return jacobi_p(n, params, x) / jacobi_p_one(n, *params)


def jacobi_norm_sq_1d(n, N):
    """Squared L2 norm 1/(2n+N-1) of u -> P_n^{N-2,0}(2u-1) against (1-u)^{N-2} du."""
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    return 1.0 / (2 * n + N - 1)


def bessel_j(alpha, x, terms=None):
    """Bessel function J_alpha(x) summed from its defining power series.

    Only the small-argument regime is supported: |x| > 30 is refused since
    the alternating series is no longer safe in double precision there.
    `terms` forces a fixed number of terms (used to probe series stability);
    by default the sum stops at machine tolerance.
    """
    if alpha < 0:
        raise ValueError(f"order must be nonnegative, got {alpha}")
    if abs(x) > 30.0:
        raise OverflowError(f"|x| = {abs(x)} too large for the power series (limit 30)")
    half = 0.5 * x
    term = half**alpha / math.gamma(alpha + 1.0)
    acc = CompensatedSum()
    acc.add(term)
    q = half * half
    n_terms = 500 if terms is None else int(terms)
    for p in range(1, n_terms):
        term *= -q / (p * (p + alpha))
        acc.add(term)
        if terms is None and abs(term) <= 1e-17 * max(abs(acc.value), 1e-300):
            break
    return acc.value


def hyp1f1(a, b, lam):
    """Confluent hypergeometric function 1F1(a; b; lam) by its power series.

    The series is summed until the relative term size drops below 1e-17,
    with a 10^4-term cap; b must not be a nonpositive integer.
    """
    if b <= 0 and b == int(b):
        raise ValueError(f"1F1 undefined for nonpositive integer b = {b}")
    acc = CompensatedSum()
    term = 1.0
    acc.add(term)
    for n in range(10**4):
        term *= (a + n) * lam / ((b + n) * (n + 1.0))
        acc.add(term)
        if abs(term) <= 1e-17 * max(abs(acc.value), 1e-300):
            break
    return acc.value


def eigenvalue(n, N):
    """Spectral decay rate n(n+N-1) of the degree-n mode."""
    return n * (n + N - 1)


def harmonic_dimension(n, N):
    """Dimension ((2n+N-1)/(N-1)) * ((N-1)_n / n!)^2 of the degree-n eigenspace.

    Evaluated in exact rational arithmetic for integer inputs; the result is
    checked to be an integer before conversion.
    """
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    poch = 1
    for i in range(n):
        poch *= N - 1 + i
    d = Fraction(2 * n + N - 1, N - 1) * Fraction(poch, math.factorial(n)) ** 2
    if d.denominator != 1:
        raise ArithmeticError(f"eigenspace dimension is not integral: {d}")
    return float(d)
