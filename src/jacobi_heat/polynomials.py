"""Exact coefficient-level polynomial arithmetic in k >= 1 variables.

SimplexPolynomial stores a k-variate polynomial as a map from exponent tuples
to coefficients, which keeps the differential-operator algebra exact up to
double-precision rounding; k = 1 is the univariate case.
"""

import numpy as np

from .special import _require_integer

__all__ = ["SimplexPolynomial", "dirichlet_weight_poly"]


class SimplexPolynomial:
    """Polynomial in k variables stored as {exponent tuple: coefficient}."""

    def __init__(self, terms, k):
        _require_integer("k", k, 1)
        self.k = int(k)
        self.terms = {}
        for expo, coeff in terms.items():
            if len(expo) != self.k:
                raise ValueError(f"exponent {expo} has wrong length for k={self.k}")
            if coeff != 0.0:
                self.terms[tuple(int(e) for e in expo)] = float(coeff)

    @classmethod
    def constant(cls, value, k):
        return cls({(0,) * k: value}, k)

    @classmethod
    def variable(cls, i, k):
        expo = [0] * k
        expo[i] = 1
        return cls({tuple(expo): 1.0}, k)

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0.0) + c
        return SimplexPolynomial(out, self.k)

    __radd__ = __add__

    def __neg__(self):
        return SimplexPolynomial({e: -c for e, c in self.terms.items()}, self.k)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, SimplexPolynomial):
            out = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    out[e] = out.get(e, 0.0) + c1 * c2
            return SimplexPolynomial(out, self.k)
        s = float(other)
        return SimplexPolynomial({e: c * s for e, c in self.terms.items()}, self.k)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        _require_integer("exponent", exponent, 0)
        out = SimplexPolynomial.constant(1.0, self.k)
        for _ in range(exponent):
            out = out * self
        return out

    def partial(self, i):
        """Derivative with respect to variable i."""
        out = {}
        for e, c in self.terms.items():
            if e[i] > 0:
                ne = list(e)
                ne[i] -= 1
                out[tuple(ne)] = out.get(tuple(ne), 0.0) + c * e[i]
        return SimplexPolynomial(out, self.k)

    def substitute(self, i, poly):
        """Replace variable i by another SimplexPolynomial."""
        out = SimplexPolynomial({}, self.k)
        powers = {0: SimplexPolynomial.constant(1.0, self.k)}
        for e, c in self.terms.items():
            p = e[i]
            if p not in powers:
                powers[p] = poly**p
            rest = list(e)
            rest[i] = 0
            out = out + powers[p] * SimplexPolynomial({tuple(rest): c}, self.k)
        return out

    def __call__(self, points):
        """Evaluate at points of shape (k,) or (M, k)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        vals = np.zeros(pts.shape[0])
        for e, c in self.terms.items():
            mono = np.full(pts.shape[0], c)
            for i, p in enumerate(e):
                if p:
                    mono = mono * pts[:, i] ** p
            vals += mono
        return float(vals[0]) if np.ndim(points) == 1 else vals

    def max_abs_coeff(self):
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def max_abs_diff(self, other):
        keys = set(self.terms) | set(other.terms)
        return max(
            (abs(self.terms.get(e, 0.0) - other.terms.get(e, 0.0)) for e in keys),
            default=0.0,
        )

    def _coerce(self, other):
        if isinstance(other, SimplexPolynomial):
            if other.k != self.k:
                raise ValueError("mixed variable counts")
            return other
        return SimplexPolynomial.constant(float(other), self.k)

    def __repr__(self):
        return f"SimplexPolynomial(k={self.k}, terms={self.terms})"


def dirichlet_weight_poly(k, N):
    """The weight (1 - u1 - ... - uk)^{N-k-1} as a SimplexPolynomial.

    Requires integer N >= k+1 so the exponent is a nonnegative integer.
    """
    _require_integer("k", k, 1)
    _require_integer("N", N, k + 1)
    base = SimplexPolynomial.constant(1.0, k)
    for i in range(k):
        base = base - SimplexPolynomial.variable(i, k)
    return base ** (N - k - 1)
