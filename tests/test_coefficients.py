import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.special import hyp1f1

from jacobi_heat.coefficients import (
    closed_form_coefficient,
    laplace_quadrature,
    laplace_series,
    solve_coefficients,
)
from jacobi_heat.special import jacobi_p, pochhammer
from jacobi_heat.validate import inversion_term_identity, neumann_identity_residual

from oracles import jacobi_2f1_exact


def rel(a, b):
    m = max(abs(a), abs(b))
    return 0.0 if m == 0.0 else abs(a - b) / m


def test_solution_starts_at_one():
    assert solve_coefficients(0.37, 5, 10)[0] == 1.0


@pytest.mark.parametrize("N", [2, 3, 5, 8])
@pytest.mark.parametrize("c", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_solve_matches_closed_form(N, c):
    a = solve_coefficients(c, N, 25)
    for n in range(26):
        assert rel(a[n], closed_form_coefficient(c, N, n)) <= 1e-9


def test_solve_matches_closed_form_high_degree():
    for N in (2, 5):
        a = solve_coefficients(0.5, N, 40)
        for n in range(41):
            assert rel(a[n], closed_form_coefficient(0.5, N, n)) <= 1e-6


@pytest.mark.parametrize("N,c,cap", [(2, 0.3, 139), (4, 1.0, 141)])
def test_solve_stops_where_every_coefficient_rounds_to_zero(N, c, cap):
    # past cap, |a_n| <= (N-1)_n / (n! (N+n-1)_n) <= 2^-1075, so a_n rounds to zero;
    # at c = 1 a_n is that bound, and a_141 for N = 4 is the smallest subnormal
    a = solve_coefficients(c, N, cap + 10)
    assert a[: cap + 1].tobytes() == solve_coefficients(c, N, cap).tobytes()
    assert a[cap] != 0.0 and not np.any(a[cap + 1 :])
    for n in range(cap + 1, cap + 4):
        exact = jacobi_2f1_exact(n, N - 2, 0, 2 * Fraction(c) - 1)
        assert float(exact / math.perm(N + 2 * n - 2, n)) == 0.0


def test_closed_form_basics():
    assert closed_form_coefficient(0.73, 4, 0) == 1.0
    # N = 2, n = 1, c = 1/2: Legendre P_1(0) = 0
    assert closed_form_coefficient(0.5, 2, 1) == 0.0


def test_coefficient_boundedness_invariant():
    # |a_n| (N+n-1)_n = |P_n^{N-2,0}(2c-1)| <= P_n^{N-2,0}(1)
    for N in (3, 6):
        for c in (0.0, 0.3, 0.8, 1.0):
            a = solve_coefficients(c, N, 20)
            for n in range(21):
                bound = pochhammer(N - 1.0, n) / math.factorial(n)
                assert abs(a[n]) * pochhammer(N + n - 1.0, n) <= bound * (1 + 1e-12)


def test_reflection_route_consistency():
    for N in (3, 5):
        for c in (0.1, 0.5, 0.9):
            for n in range(15):
                direct = jacobi_p(n, (N - 2.0, 0.0), 2.0 * c - 1.0)
                reflected = (-1.0) ** n * jacobi_p(n, (0.0, N - 2.0), 1.0 - 2.0 * c)
                assert rel(direct, reflected) <= 1e-13


def test_table_validation():
    with pytest.raises(ValueError):
        solve_coefficients(-0.1, 3, 5)
    with pytest.raises(ValueError):
        solve_coefficients(0.5, 1, 5)
    # a non-integer N or n_max reached Fraction or range and raised TypeError
    for c, N, n_max in [(0.3, 3, -1), (0.3, 3.5, 5), (0.3, 3, 2.5)]:
        with pytest.raises(ValueError):
            solve_coefficients(c, N, n_max)
    # the closed form takes only the N the system has; it returned -0.01214 at N = 1.5
    with pytest.raises(ValueError):
        closed_form_coefficient(0.3, 1.5, 2)


def test_neumann_residual_vanishes_at_origin():
    assert neumann_identity_residual(0.4, 3, 0.0, 20) == 0.0


@pytest.mark.parametrize("c,N,x", [(0.0, 3, 1.0), (1.0, 2, 2.0), (0.3, 4, 2.0), (1.0, 4, 0.5)])
def test_neumann_residual_small(c, N, x):
    assert neumann_identity_residual(c, N, x, 30) <= 1e-12


def test_neumann_rejects_large_x():
    with pytest.raises(ValueError):
        neumann_identity_residual(0.3, 3, 6.0, 20)


def test_laplace_at_lambda_zero():
    for N, t in [(3, 0.3), (5, 0.7)]:
        assert laplace_series(0.4, 0.0, t, N, 40) == pytest.approx(1.0, abs=1e-14)


def test_laplace_short_time_limit():
    c, lam = 0.4, 1.0
    val = laplace_series(c, lam, 1e-3, 3, 200)
    assert abs(val - math.exp(lam * c)) <= 1e-2


@pytest.mark.parametrize("N", [3, 5])
@pytest.mark.parametrize("lam", [-2.0, 2.0, 5.0])
def test_laplace_matches_density_quadrature(N, lam):
    t, c = 0.3, 0.4
    (quad,) = laplace_quadrature(c, [lam], t, N)
    assert abs(laplace_series(c, lam, t, N, 60) - quad) <= 1e-8


def test_laplace_rejects_bad_time():
    for t in (0.0, -0.5, float("nan")):
        with pytest.raises(ValueError):
            laplace_series(0.3, 1.0, t, 3, 10)
        with pytest.raises(ValueError):
            laplace_quadrature(0.3, [1.0], t, 3)


def test_laplace_refuses_bad_input():
    nan = float("nan")
    # the series takes any lambda
    for c, N, n_max in [(1.5, 3, 10), (-0.1, 3, 10), (nan, 3, 10), (0.3, 1, 10), (0.3, 3, -1),
                        (0.3, 3, 2.5)]:
        with pytest.raises(ValueError):
            laplace_series(c, 1.0, 0.3, N, n_max)
    # the quadrature refuses any lambda outside [-10, 10]
    for c, lam, N in [(1.5, 1.0, 3), (nan, 1.0, 3), (0.3, 1.0, 1), (0.3, 50.0, 3),
                      (0.3, -10.5, 3), (0.3, nan, 3)]:
        with pytest.raises(ValueError):
            laplace_quadrature(c, [0.0, lam], 0.3, N)


def test_laplace_terms_match_mpmath():
    # the endpoint coefficients carry no rounding of their own, and at c = 0
    # with lam < 0 or at c = 1 with lam > 0 every series term is positive, so
    # both sides must hold to a few ulps
    def term(c, N, n, lam):
        a_n = mpmath.jacobi(n, N - 2, 0, 2 * c - 1) / mpmath.rf(N + n - 1, n)
        return a_n * mpmath.mpf(lam) ** n * mpmath.hyp1f1(n + 1, N + 2 * n, lam)

    with mpmath.workdps(40):
        for N in (2, 3, 5):
            for c in (0.0, 1.0):
                for lam in (-10.0, -5.0, 5.0, 10.0):
                    terms = [term(c, N, n, lam) for n in range(30)]
                    for n in range(30):
                        lhs, _ = inversion_term_identity(n, c, N, lam)
                        assert abs(float(lhs) - terms[n]) <= 1e-14 * abs(terms[n])
                    if (c == 1.0) != (lam > 0.0):
                        continue
                    for t in (0.05, 0.3, 1.0):
                        want = mpmath.fsum(
                            mpmath.exp(-n * (n + N - 1) * mpmath.mpf(t)) * terms[n]
                            for n in range(30)
                        )
                        assert abs(laplace_series(c, lam, t, N, 29) - want) <= 1e-14 * want


def test_laplace_series_stays_finite_at_high_degree():
    # lam^n overflows and 1/(N+n-1)_n underflows long before these degrees
    for c, lam, t, N, n_max in [(0.4, 10.0, 0.3, 3, 400), (0.4, 2.0, 0.3, 3, 1100),
                                (0.4, 2.0, 1e-5, 3, 1100)]:
        value = laplace_series(c, lam, t, N, n_max)
        assert math.isfinite(value)
        assert rel(value, laplace_series(c, lam, t, N, 60)) <= 1e-15


def test_laplace_relaxes_at_the_spectral_gap_rate():
    # distance to the stationary transform decays like e^{-N t}
    N, c, lam = 3, 0.5, 1.0
    stationary = hyp1f1(1.0, float(N), lam)
    d_half = abs(laplace_series(c, lam, 0.5, N, 60) - stationary)
    d_one = abs(laplace_series(c, lam, 1.0, N, 60) - stationary)
    rate = math.log(d_half / d_one) / 0.5
    assert abs(rate - N) / N <= 0.10
    assert d_one <= d_half


def test_inversion_identity_degree_zero():
    N, lam, c = 4, 1.2, 0.3
    lhs, rhs = inversion_term_identity(0, c, N, lam)
    assert lhs == pytest.approx(hyp1f1(1.0, float(N), lam), rel=1e-13)
    assert abs(lhs - rhs) <= 1e-10


def test_inversion_identity_kills_positive_modes_at_lambda_zero():
    for n in (1, 3, 6):
        lhs, rhs = inversion_term_identity(n, 0.4, 4, 0.0)
        assert lhs == 0.0
        assert abs(rhs) <= 1e-12


@pytest.mark.parametrize("n", range(11))
def test_inversion_identity_reference_grid(n):
    for N, c, lam in [(4, 0.7, 1.5), (3, 0.2, -2.0), (5, 0.5, 5.0)]:
        lhs, rhs = inversion_term_identity(n, c, N, lam)
        assert abs(lhs - rhs) <= 1e-10
