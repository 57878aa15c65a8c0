"""Transition densities on [0, 1] and on the 2-simplex with certified truncation.

The one-dimensional density is

    f_t(c, u) = [sum_n e^{-n(n+N-1)t} (2n+N-1) P_n^{N-2,0}(2c-1) P_n^{N-2,0}(2u-1)]
                * (1-u)^{N-2},

and the two-dimensional one is the analogous expansion over the simplex
polynomials Q_{n-j,j}.  Densities are always reported with their Dirichlet
weight factor included, i.e. with respect to Lebesgue measure on the simplex.
Truncations carry a rigorous tail bound from the unitary spherical harmonics.
Pull shell n of either expansion back to S^{2N-1} in C^N by u_i = |z_i|^2:
it spans a subspace of H_{n,n}, the harmonics of bidegree (n, n).  Against
the uniform probability measure on the sphere, Cauchy-Schwarz bounds that
subspace's reproducing kernel by the diagonal of H_{n,n}'s kernel, and U(N)
acts transitively on the sphere, so that diagonal is the constant
dim H_{n,n} = ((2n+N-1)/(N-1)) ((N-1)_n / n!)^2.  Multiplying by the Dirichlet
normalizer bounds the n-th term by (N-1) dim H_{n,n} e^{-n(n+N-1)t} for
k = 1, which is _term_bound_1d, and by (N-1)(N-2) dim H_{n,n} e^{-n(n+N-1)t}
for k = 2; the k = 2 bound is attained at the vertices (1, 0) and (0, 1).
"""

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .special import (
    _jacobi_step,
    _require_integer,
    _require_positive,
    _require_unit_interval,
    eigenvalue,
    jacobi_table,
)

__all__ = [
    "Truncation",
    "auto_truncation",
    "auto_truncation_2d",
    "kernel_series_1d",
    "kernel_series_2d",
    "density_1d_values",
    "cdf_1d_values",
    "density_2d_values",
]

MAX_MODES = 10**5


@dataclass(frozen=True)
class Truncation:
    """Series cutoff with a certified absolute tail bound."""

    n_max: int
    tol: float
    achieved_bound: float

    def __post_init__(self):
        _require_integer("n_max", self.n_max, 1)
        _require_positive("tol", self.tol)


def _term_bound_1d(n, t, N):
    """Bound (2n+N-1) P_n^{N-2,0}(1)^2 e^{-n(n+N-1)t} on the n-th kernel term."""
    b = 1.0
    for i in range(1, N - 1):
        b *= (n + i) / i
    # in log space: e^{-n(n+N-1)t} alone turns subnormal while the bound is still normal
    return math.exp(math.log((2 * n + N - 1) * b * b) - eigenvalue(n, N) * t)


def _term_bound_2d(n, t, N):
    """Bound (N-1)(N-2) dim H_{n,n} e^{-n(n+N-1)t} on the n-th shell of the 2-simplex kernel."""
    return (N - 2) * _term_bound_1d(n, t, N)


def _ratio(m, t, N):
    """The ratio r_m = b_{m+1}/b_m of successive term bounds (either dimension)."""
    r = (2 * m + N + 1) / (2 * m + N - 1) * ((m + N - 1) / (m + 1)) ** 2
    return r * math.exp(-(2 * m + N) * t)


def _tail_bound(n_max, t, N, term_bound):
    """Proven bound on the sum of the term bounds b_n past n_max.

    The ratio r_n = b_{n+1}/b_n = (2n+N+1)/(2n+N-1) ((n+N-1)/(n+1))^2 e^{-(2n+N)t}
    is a product of three factors that each fall with n, so r_n falls strictly,
    and the tail is at most b_{n_max+1} (1 + r + r^2 + ...) = b_{n_max+1}/(1 - r)
    with r = r_{n_max+1}.  While r >= 1 the geometric series gives no bound: inf.
    """
    m = n_max + 1
    b = term_bound(m, t, N)
    if not math.isfinite(b):
        raise ValueError(f"t = {t} too small: the tail bound overflows at mode {m}")
    r = _ratio(m, t, N)
    return b / (1.0 - r) if r < 1.0 else math.inf


def _first(lo, hi, pred):
    """Smallest n in [lo, hi] with pred(n), for a pred false then true there; hi + 1 if none."""
    return lo + bisect.bisect_left(range(lo, hi + 1), True, key=pred)


def _auto_truncation(t, N, tol, term_bound):
    """The smallest n_max in [1, MAX_MODES] with _tail_bound(n_max) <= tol, found by bisection.

    It returns what scanning n_max = 1, 2, ... would: the first n_max whose
    _tail_bound either passes tol or overflows, refusing at an overflow.
    Write b_m = term_bound(m) and r_m = _ratio(m).  r_m falls strictly (see
    _tail_bound), so with p the first cutoff whose r_{p+1} < 1, b rises up
    to mode p+1 and falls strictly after it, as b_{m+1} = r_m b_m.  Hence
    - "r_{n+1} < 1" is monotone in n, and p is found by bisection;
    - an overflowing b_m either lies in an interval around the peak, where
      the true bound exceeds the largest float, or is past the mode from which
      the computed factor (2m+N-1) C(m+N-2, N-2)^2, which rises with m,
      overflows; so up to the peak "b_{n+1} overflows" is monotone, and if
      b_{p+1} overflows the scan refuses at the first overflowing mode;
    - otherwise from p on both b_{n+1} and 1/(1 - r_{n+1}) fall, so
      "b_{n+1} overflows or b_{n+1}/(1 - r_{n+1}) <= tol" is monotone there,
      and its first n is the scan's.
    """
    _require_positive("tol", tol)
    N = int(N)  # a numpy integer N would overflow in the far modes the bisection probes

    def overflows(n):
        return not math.isfinite(term_bound(n + 1, t, N))

    # past MAX_MODES, b rises over the whole range: no cutoff passes, and only an overflow differs
    peak = min(_first(1, MAX_MODES, lambda n: _ratio(n + 1, t, N) < 1.0), MAX_MODES)
    if overflows(peak):
        n_max = _first(1, peak, overflows)
    else:
        n_max = _first(
            peak, MAX_MODES, lambda n: overflows(n) or _tail_bound(n, t, N, term_bound) <= tol
        )
        if n_max > MAX_MODES:
            raise ValueError(f"t = {t} too small: truncation would exceed {MAX_MODES} modes")
    # where b_{n_max+1} overflows, _tail_bound refuses and names the mode
    return Truncation(n_max=n_max, tol=tol, achieved_bound=_tail_bound(n_max, t, N, term_bound))


def auto_truncation(t, N, tol):
    """Smallest cutoff whose certified 1-D series tail is below tol."""
    _require_time_and_dimension(t, N, 2)
    return _auto_truncation(t, N, tol, _term_bound_1d)


def auto_truncation_2d(t, N, tol):
    """Smallest cutoff whose certified 2-simplex series tail is below tol."""
    _require_time_and_dimension(t, N, 3)
    return _auto_truncation(t, N, tol, _term_bound_2d)


def kernel_series_1d(t, c, u, N, n_max, mode_factors=None):
    """Kernel part of the 1-D density (the series without the (1-u)^{N-2} weight).

    u may be a scalar or an array.  mode_factors, if given, multiplies the
    n-th term by mode_factors[n]; this lets callers apply the diagonal action
    of the generator (each term is an eigenfunction).  Returns (values,
    last_term_max) where the second entry is the largest magnitude the final
    term attains on the evaluation set.
    """
    # perfbench/checks.py unpacks this pair; it goes when the benchmark moves to a new density API
    # c is point 0, so one recurrence evaluates the start point and every u
    cu = np.concatenate(([c], np.ravel(u)), dtype=float)
    table = jacobi_table(n_max, N - 2.0, 0.0, 2.0 * cu - 1.0)
    ns = np.arange(n_max + 1)
    w = np.exp(-ns * (ns + N - 1.0) * t) * (2.0 * ns + N - 1.0) * table[:, 0]
    if mode_factors is not None:
        w = w * np.asarray(mode_factors, dtype=float)
    vals = (w @ table)[1:]
    last = w[-1] * table[-1, 1:]
    out = vals if np.ndim(u) else float(vals[0])
    return out, float(np.max(np.abs(last), initial=0.0))


def _require_time_and_dimension(t, N, N_min):
    _require_positive("t", t)
    _require_integer("N", N, N_min)


def _require_certificate(tr, t, N, term_bound):
    # the one bound _auto_truncation issues; NaN fails the comparison and is refused too
    if not tr.achieved_bound >= _tail_bound(tr.n_max, t, N, term_bound):
        raise ValueError(f"achieved_bound {tr.achieved_bound!r} is below the proven bound on mode "
                         f"{tr.n_max + 1} and beyond at t = {t}, N = {N}")


def density_1d_values(t, c, u, N, tr):
    """Vectorized 1-D density f_t(c, u) including the (1-u)^{N-2} weight.

    Refuses t not finite and positive, N < 2, c or any u outside [0, 1], and
    a tr whose achieved_bound is below the proven tail bound past its n_max.
    """
    _require_time_and_dimension(t, N, 2)
    _require_unit_interval("c", c)
    _require_unit_interval("u", u)
    _require_certificate(tr, t, N, _term_bound_1d)
    series, _ = kernel_series_1d(t, c, u, N, tr.n_max)
    return series * (1.0 - np.asarray(u, dtype=float)) ** (N - 2)


def cdf_1d_values(t, c, x, N, tr):
    """Vectorized 1-D CDF F_t(c, x), the integral of the density over [0, x], in closed form.

    DLMF §18.9's d/dy[(1-y)^{a+1} (1+y) P_{n-1}^{a+1,1}(y)] = -2n (1-y)^a P_n^{a,0}(y)
    integrates the series termwise: with w_n the kernel_series_1d weights,
    F = 1 - (1-x)^{N-1} - x (1-x)^{N-1} sum_{n>=1} (w_n/n) P_{n-1}^{N-1,1}(2x-1).
    The truncation error is at most tr.achieved_bound/(N-1), the kernel's tail
    bound times the weight's integral.  Refuses what density_1d_values refuses.
    """
    _require_time_and_dimension(t, N, 2)
    _require_unit_interval("c", c)
    _require_unit_interval("x", x)
    _require_certificate(tr, t, N, _term_bound_1d)
    x = np.asarray(x, dtype=float)
    ns = np.arange(1, tr.n_max + 1)
    pc = jacobi_table(tr.n_max, N - 2.0, 0.0, 2.0 * c - 1.0)[1:]
    w = np.exp(-ns * (ns + N - 1.0) * t) * (2.0 * ns + N - 1.0) * pc / ns
    table = jacobi_table(tr.n_max - 1, N - 1.0, 1.0, 2.0 * x - 1.0)
    scale = x * (1.0 - x) ** (N - 1)
    return 1.0 - (1.0 - x) ** (N - 1) - scale * (w @ table)


def kernel_series_2d(t, c, pts, N, n_max):
    """Kernel part of the 2-simplex density at points pts (shape (M, 2)).

    Sums e^{-n(n+N-1)t} Q_{n-j,j}(c) Q_{n-j,j}(u) / ||Q_{n-j,j}||^2 over all
    n <= n_max, 0 <= j <= n.  With m = n - j, Q_{m,j}(u) is the outer factor
    P_m^{N-2+2j,0}(2u1-1), which depends on u1 alone, times the inner factor
    (1-u1)^j P_j^{N-3,0}(2u2/(1-u1)-1).  One forward recurrence in m runs the
    outer factors of every j <= n_max - m at once, at the distinct u1 values
    only (the start point's among them), and accumulates
    S[j, g] = sum_m w_{m+j,j} P_m^{N-2+2j,0} at c1 and at the g-th u1.  A
    point's value is the sum over j of S[j, g] times its inner factor and the
    start point's, added in j order: it depends on that point alone, so any
    subset or order of the points gives the same bits.
    """
    # c is point 0, so one table evaluates the inner factors of the start point and every u
    cu = np.vstack([c, np.reshape(pts, (-1, 2))], dtype=float)
    u1 = cu[:, 0]
    u2 = cu[:, 1]
    rem = 1.0 - u1
    safe = rem > 1e-300
    z = np.where(safe, np.clip(2.0 * u2 / np.where(safe, rem, 1.0) - 1.0, -1.0, 1.0), 1.0)
    ns = np.arange(n_max + 1)
    # rem^0 = 1 at u1 = 1 too, where z = 1 keeps the table finite
    inner = jacobi_table(n_max, N - 3.0, 0.0, z)
    inner *= rem ** ns[:, None]

    u1g, inv = np.unique(u1, return_inverse=True)
    x = 2.0 * u1g - 1.0
    decay = np.exp(-ns * (ns + N - 1.0) * t)
    # the outer recurrence, run with alpha = N-2+2j for every j at once
    alpha = (N - 2.0 + 2.0 * ns)[:, None]
    norm_c = (2.0 * ns + N - 2.0) * inner[:, 0]
    S = np.zeros((n_max + 1, len(x)))
    prev, cur = None, np.ones((n_max + 1, len(x)))
    for m in range(n_max + 1):
        J = n_max + 1 - m  # the j with m + j <= n_max
        a = alpha[:J]
        if m == 1:
            prev, cur = cur[:J], a + 1.0 + (a + 2.0) * (x - 1.0) / 2.0
        elif m >= 2:
            prev, cur = cur[:J], _jacobi_step(m, a, 0.0, x, cur[:J], prev[:J])
        n = m + ns[:J]
        w = decay[n] * (2.0 * n + N - 1.0) * norm_c[:J] * cur[:, inv[0]]
        S[:J] += w[:, None] * cur

    # add the j terms in order: sum(axis=0) adds pairwise when there is a single
    # point, which would make a point's value depend on the other points
    g = inv[1:]
    total = np.zeros(len(g))
    term = np.empty(len(g))
    for j in range(n_max + 1):
        np.take(S[j], g, out=term)
        term *= inner[j, 1:]
        total += term
    return total


def _in_closed_simplex(p):
    """Mask of the points p[..., :2] in the closed 2-simplex, up to 1e-12 of rounding."""
    slack = 1e-12
    return (p[..., 0] >= -slack) & (p[..., 1] >= -slack) & (p[..., 0] + p[..., 1] <= 1.0 + slack)


def density_2d_values(t, c, pts, N, tr):
    """Vectorized 2-D density including the (1-u1-u2)^{N-3} weight.

    Refuses t not finite and positive, N < 3, a c that is not a point of the
    closed 2-simplex, any point outside it, and a tr whose achieved_bound is
    below the proven tail bound past its n_max.
    """
    _require_time_and_dimension(t, N, 3)
    pts = np.reshape(np.asarray(pts, dtype=float), (-1, 2))
    if np.shape(c) != (2,) or not _in_closed_simplex(np.asarray(c, dtype=float)):
        raise ValueError(f"c = {c!r} is not a point of the closed 2-simplex")
    if not np.all(_in_closed_simplex(pts)):
        raise ValueError("every point u must lie in the closed 2-simplex")
    _require_certificate(tr, t, N, _term_bound_2d)
    series = kernel_series_2d(t, c, pts, N, tr.n_max)
    s2 = np.clip(1.0 - pts[:, 0] - pts[:, 1], 0.0, None) ** (N - 3)
    return series * s2
