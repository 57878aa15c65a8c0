"""Scalar special functions and Jacobi-polynomial evaluation.

All routines are pure functions of their arguments.  Jacobi polynomials
come from the plain three-term recurrence; the heat-kernel series built on
them (heat_kernel) are summed in ordinary double precision.  Every module's
argument checks live here too, at the bottom of the import graph.
"""

import math
import numbers

import numpy as np

__all__ = [
    "pochhammer",
    "jacobi_table",
    "jacobi_p",
    "eigenvalue",
]


def _require_integer(name, value, floor):
    # numpy's integer types register as Integral; floats, even whole ones, do not
    if not isinstance(value, numbers.Integral) or value < floor:
        raise ValueError(f"{name} must be >= {floor} and an integer, got {value!r}")


def _require_positive(name, value):
    # NaN fails every comparison, so only this form refuses it
    if not (0.0 < value < math.inf):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _require_unit_interval(name, x):
    a = np.asarray(x, dtype=float)
    # NaN fails every comparison, so only this form refuses it
    if not np.all((a >= 0.0) & (a <= 1.0)):
        raise ValueError(f"{name} must lie in [0, 1], got {x!r}")


def _require_exponent(name, value):
    if not (-1.0 < value < math.inf):
        raise ValueError(f"{name} must lie in (-1, inf), got {value!r}")


def pochhammer(a, m):
    """Rising factorial a(a+1)...(a+m-1); the empty product (m = 0) is 1."""
    _require_integer("pochhammer order", m, 0)
    out = 1.0
    for i in range(m):
        out *= a + i
    return out


# rows per block of jacobi_table's in-place recurrence: 32 rows of 2,000 points fit in L2
_JACOBI_BLOCK = 32


def jacobi_table(n_max, alpha, beta, x):
    """All Jacobi polynomials P_n^{alpha,beta}(x) for n = 0..n_max.

    Evaluated by the forward three-term recurrence, which is stable on
    [-1, 1].  x may be a scalar or an ndarray; the result has shape
    (n_max+1,) + shape(x).  Every value has the bits of _jacobi_step's
    expression.  A scalar x runs _jacobi_step on Python floats, since ufuncs
    on 0-d arrays cost more than the arithmetic.  An array x allocates no
    temporary of its shape but one scratch row, and works in place: the
    scalar factors of every degree are computed at once in numpy float64,
    whose + - * / round as Python floats do.  For each block of _JACOBI_BLOCK
    rows, one pass writes c1_n = (s-1)(s(s-2) x + alpha^2 - beta^2) into row
    n, skipping "- beta^2" when beta = 0 (subtracting 0.0 is exact), and the
    recurrence then turns row n into (c1_n p_{n-1} - c2_n p_{n-2}) / c0_n, in
    that order of operations, while the block is still in cache.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        xf = float(x)
        vals = [1.0, (alpha + 1.0) + (alpha + beta + 2.0) * (xf - 1.0) / 2.0][:n_max + 1]
        for n in range(2, n_max + 1):
            vals.append(_jacobi_step(n, alpha, beta, xf, vals[-1], vals[-2]))
        return np.array(vals)
    out = np.empty((n_max + 1,) + x.shape)
    out[0] = 1.0
    if n_max == 0:
        return out
    out[1] = (alpha + 1.0) + (alpha + beta + 2.0) * (x - 1.0) / 2.0
    # the factors are indexed by degree; those of degrees 0 and 1 go unused
    n = np.arange(0.0, n_max + 1.0).reshape((-1,) + (1,) * x.ndim)
    s = 2.0 * n + alpha + beta
    a1, s1 = s * (s - 2.0), s - 1.0
    c0 = (2.0 * n * (n + alpha + beta) * (s - 2.0)).ravel().tolist()
    c2 = (2.0 * (n + alpha - 1.0) * (n + beta - 1.0) * s).ravel().tolist()
    scratch = np.empty(x.shape)
    for lo in range(2, n_max + 1, _JACOBI_BLOCK):
        hi = min(lo + _JACOBI_BLOCK, n_max + 1)
        c1 = out[lo:hi]
        np.multiply(a1[lo:hi], x, out=c1)
        c1 += alpha * alpha
        if beta != 0.0:
            c1 -= beta * beta
        c1 *= s1[lo:hi]
        for k in range(lo, hi):
            row = out[k]
            row *= out[k - 1]
            np.multiply(out[k - 2], c2[k], out=scratch)
            row -= scratch
            row /= c0[k]
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

    n: nonnegative integer degree
    params: (alpha, beta) pair with alpha, beta in (-1, inf)
    x: scalar or ndarray; NaN and values with |x| > 1 + 1e-12 are refused
    """
    alpha, beta = params
    _require_exponent("alpha", alpha)
    _require_exponent("beta", beta)
    _require_integer("degree", n, 0)
    xa = np.asarray(x, dtype=float)
    # NaN fails every comparison, so only the `<=` form refuses it
    if not np.all(np.abs(xa) <= 1.0 + 1e-12):
        raise ValueError("Jacobi polynomial argument outside [-1, 1]")
    val = jacobi_table(n, alpha, beta, xa)[n]
    return float(val) if np.ndim(x) == 0 else val


def eigenvalue(n, N):
    """Spectral decay rate n(n+N-1) of the degree-n mode."""
    return n * (n + N - 1)

