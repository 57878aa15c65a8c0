"""Independent reference routes used only to produce expected test values.

Nothing here goes through the package's recurrence/quadrature machinery:
Jacobi polynomials come from the terminating hypergeometric sum, integrals
from Beta/Dirichlet closed forms.
"""

import math
from fractions import Fraction


def jacobi_2f1(n, alpha, beta, x):
    """P_n^{alpha,beta}(x) by its terminating 2F1 definition.

    Evaluated in exact rational arithmetic (the test arguments are all
    rationals), since the alternating sum cancels catastrophically in floats
    near x = -1 for large n.
    """
    a, b = Fraction(alpha), Fraction(beta)
    z = (1 - Fraction(x)) / 2
    lead = Fraction(1)
    for i in range(n):
        lead *= (a + 1 + i) / Fraction(i + 1)
    total = Fraction(0)
    term = Fraction(1)
    for k in range(n + 1):
        total += term
        term *= Fraction(-n + k) * (n + a + b + 1 + k) * z / ((a + 1 + k) * (k + 1))
    return float(lead * total)


def beta_closed_form(b, a):
    """B(b, a) from log-gamma."""
    return math.exp(math.lgamma(b) + math.lgamma(a) - math.lgamma(a + b))


def dirichlet_integral_2d(p, q, N):
    """integral over the 2-simplex of u1^p u2^q (1-u1-u2)^{N-3}."""
    return math.exp(
        math.lgamma(p + 1.0)
        + math.lgamma(q + 1.0)
        + math.lgamma(N - 2.0)
        - math.lgamma(p + q + N)
    )

