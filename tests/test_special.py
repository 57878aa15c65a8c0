import math

import mpmath
import numpy as np
import pytest

from jacobi_heat.quadrature import gauss_jacobi_rule
from jacobi_heat.special import eigenvalue, jacobi_p, pochhammer

from oracles import harmonic_dimension, jacobi_2f1


def test_pochhammer_values():
    assert pochhammer(3.7, 0) == 1.0
    assert pochhammer(2.0, 3) == 24.0  # (N-1)_n at N=3, n=3
    for m in range(7):
        assert pochhammer(1.0, m) == math.factorial(m)


def test_pochhammer_rejects_bad_order():
    with pytest.raises(ValueError):
        pochhammer(1.0, -1)
    with pytest.raises(ValueError):
        pochhammer(1.0, 2.5)


def test_params_validation():
    # an infinite exponent gave nan from the recurrence
    for params in [(-1.0, 0.0), (0.0, -1.5), (float("nan"), 0.0), (float("inf"), 0.0)]:
        with pytest.raises(ValueError):
            jacobi_p(2, params, 0.3)


def test_jacobi_degree_zero_and_one():
    assert jacobi_p(0, (2.5, 0.0), 0.37) == 1.0
    assert jacobi_p(1, (0.0, 0.0), 0.0) == 0.0  # Legendre P_1(0)


@pytest.mark.parametrize("N", [2, 3, 5, 8])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 9])
def test_jacobi_endpoint_value(N, n):
    # P_n^{N-2,0}(1) = (N-1)_n / n!
    expected = pochhammer(N - 1.0, n) / math.factorial(n)
    assert jacobi_p(n, (N - 2.0, 0.0), 1.0) == pytest.approx(expected, rel=1e-13)


def test_jacobi_recurrence_matches_2f1_definition():
    xs = [-1.0, -0.5, 0.0, 0.5, 1.0]
    for alpha in range(9):
        for beta in range(9):
            for n in range(31):
                # family scale: endpoint magnitudes, where Jacobi polynomials peak
                scale = max(
                    pochhammer(alpha + 1.0, n), pochhammer(beta + 1.0, n)
                ) / math.factorial(n)
                for x in xs:
                    got = jacobi_p(n, (float(alpha), float(beta)), x)
                    want = jacobi_2f1(n, alpha, beta, x)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * scale)


def test_jacobi_reflection_identity():
    for n in range(12):
        for alpha, beta in [(2.0, 0.0), (3.0, 1.0), (0.0, 4.0)]:
            for x in np.linspace(-1.0, 1.0, 9):
                lhs = jacobi_p(n, (alpha, beta), x)
                rhs = (-1.0) ** n * jacobi_p(n, (beta, alpha), -x)
                assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


def test_jacobi_domain_error():
    for x in (1.0 + 1e-9, math.nan, np.array([0.5, math.nan])):
        with pytest.raises(ValueError):
            jacobi_p(3, (1.0, 0.0), x)
    # just inside the tolerance is fine
    jacobi_p(3, (1.0, 0.0), 1.0 + 1e-13)


def test_jacobi_vectorized_argument():
    x = np.linspace(-1.0, 1.0, 7)
    vals = jacobi_p(4, (1.0, 0.0), x)
    assert vals.shape == x.shape
    assert vals[-1] == pytest.approx(jacobi_p(4, (1.0, 0.0), 1.0))


def test_normalized_jacobi():
    # P_2^{1,0}(0) / P_2^{1,0}(1) with P_2^{1,0}(1) = (2)_2/2! = 3
    want = jacobi_2f1(2, 1.0, 0.0, 0.0) / 3.0
    assert want == pytest.approx(-1.0 / 6.0, rel=1e-13)
    got = jacobi_p(2, (1.0, 0.0), 0.0) / jacobi_p(2, (1.0, 0.0), 1.0)
    assert got == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("N", [3, 5, 8])
def test_normalized_jacobi_bounded_on_interval(N):
    # the kernel uses p_n = P_n^{N-2,0}/P_n^{N-2,0}(1), bounded by 1 on [-1, 1]
    xs = np.linspace(-1.0, 1.0, 201)
    for n in range(11):
        vals = jacobi_p(n, (N - 2.0, 0.0), xs) / jacobi_p(n, (N - 2.0, 0.0), 1.0)
        assert np.max(np.abs(vals)) <= 1.0 + 1e-12


@pytest.mark.parametrize("N,n", [(2, 1), (3, 2), (5, 4), (8, 6)])
def test_norm_sq_matches_quadrature(N, n):
    rule = gauss_jacobi_rule(40, N - 2.0, 0.0)
    vals = jacobi_p(n, (N - 2.0, 0.0), 2.0 * rule.nodes - 1.0)
    got = float(np.dot(rule.weights, vals * vals))
    assert got == pytest.approx(1.0 / (2 * n + N - 1), rel=1e-12)


def test_orthogonality_under_dirichlet_weight():
    N = 5
    rule = gauss_jacobi_rule(40, N - 2.0, 0.0)
    x = 2.0 * rule.nodes - 1.0
    for m in range(7):
        for n in range(7):
            if m == n:
                continue
            inner = float(
                np.dot(rule.weights, jacobi_p(m, (N - 2.0, 0.0), x) * jacobi_p(n, (N - 2.0, 0.0), x))
            )
            assert abs(inner) <= 1e-11


def test_eigenvalue_values():
    assert eigenvalue(0, 7) == 0
    assert eigenvalue(1, 6) == 6
    assert eigenvalue(2, 4) == 10
    assert eigenvalue(3, 4) == 18


def test_harmonic_dimension_values():
    assert harmonic_dimension(0, 5) == 1.0
    assert harmonic_dimension(2, 2) == 5.0  # 2n+1 on the sphere case N=2
    # degree-1 eigenspace has dimension N^2 - 1
    for N in (3, 4, 7):
        assert harmonic_dimension(1, N) == N * N - 1


def test_harmonic_dimension_integrality():
    for N in range(2, 9):
        for n in range(12):
            d = harmonic_dimension(n, N)
            assert d == round(d)
            assert d >= 1.0
