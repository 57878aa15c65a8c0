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

