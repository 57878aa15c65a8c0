"""Gauss-Jacobi quadrature on [0, 1] and a conical product rule on the 2-simplex.

Rules integrate against the Dirichlet-type weights (1-u)^a u^b on [0, 1] and
(1-u1-u2)^{N-3} on the triangle {u1, u2 > 0, u1+u2 < 1}; they are the
independent integration oracle used by every density identity in the package.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .special import _require_exponent, _require_integer


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a rule on [0, 1] (nodes shape (m,)) or on the 2-simplex ((M, 2))."""

    nodes: np.ndarray
    weights: np.ndarray


def gauss_jacobi_rule(m, a, b):
    """m-point Gauss rule for the weight (1-u)^a u^b on [0, 1].

    Nodes and weights come from the eigen-decomposition of the symmetric
    tridiagonal recurrence matrix of the Jacobi weight (scipy's roots_jacobi),
    mapped from [-1, 1] by u = (x+1)/2.  Exact for polynomials of degree
    <= 2m-1.  Rules are built once per (m, a, b) and shared, so their nodes
    and weights are read-only.
    """
    # checked before the cache, which would take 4.0 for a cached 4
    _require_integer("m", m, 1)
    _require_exponent("a", a)
    _require_exponent("b", b)
    return _gauss_jacobi_rule(m, a, b)


# cached behind a plain function, so that profilers still see every request
@functools.cache
def _gauss_jacobi_rule(m, a, b):
    from scipy.special import roots_jacobi  # here, so that paths without a rule run on numpy alone

    x, w = roots_jacobi(m, a, b)
    nodes = 0.5 * (x + 1.0)
    weights = w * 0.5 ** (a + b + 1.0)
    for i in range(m):
        if not (0.0 < nodes[i] < 1.0) or weights[i] <= 0.0:
            raise RuntimeError(f"node solver failed at node index {i}")
        if i and nodes[i] <= nodes[i - 1]:
            raise RuntimeError(f"node solver produced unordered node at index {i}")
    total = math.exp(math.lgamma(b + 1.0) + math.lgamma(a + 1.0) - math.lgamma(a + b + 2.0))
    if abs(weights.sum() - total) > 1e-12 * total:
        raise RuntimeError("quadrature weights do not sum to the Beta integral")
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(nodes=nodes, weights=weights)


def simplex_rule_2(m, N):
    """Conical product rule on the 2-simplex for the weight (1-u1-u2)^{N-3}.

    Built from the substitution u1 = x, u2 = (1-x) y with Jacobian (1-x):
    the weight factorizes into (1-x)^{N-3} * (1-x) = (1-x)^{N-2} in x and
    (1-y)^{N-3} in y, so an m-point Gauss-Jacobi rule in each variable is
    exact for bivariate polynomials of total degree <= 2m-2.
    """
    _require_integer("N", N, 3)
    outer = gauss_jacobi_rule(m, N - 2.0, 0.0)
    inner = gauss_jacobi_rule(m, N - 3.0, 0.0)
    x = np.repeat(outer.nodes, m)
    y = np.tile(inner.nodes, m)
    nodes = np.column_stack([x, (1.0 - x) * y])
    weights = np.repeat(outer.weights, m) * np.tile(inner.weights, m)
    total = 1.0 / ((N - 1) * (N - 2))
    if abs(weights.sum() - total) > 1e-12 * total:
        raise RuntimeError("simplex rule weights do not sum to the Dirichlet mass")
    return QuadratureRule(nodes=nodes, weights=weights)

