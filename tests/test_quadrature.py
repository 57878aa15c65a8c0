import numpy as np
import pytest

from jacobi_heat.quadrature import beta_integral, gauss_jacobi_rule, simplex_rule_2
from jacobi_heat.simplex_jacobi import simplex_q
from jacobi_heat.special import jacobi_p

from oracles import beta_closed_form, dirichlet_integral_2d


def test_single_node_legendre_is_midpoint():
    rule = gauss_jacobi_rule(1, 0.0, 0.0)
    assert rule.nodes[0] == pytest.approx(0.5, abs=1e-15)
    assert rule.weights[0] == pytest.approx(1.0, rel=1e-15)


def test_weights_sum_to_beta_mass():
    for m in (4, 16, 64):
        for a in (0.0, 1.0, 3.5, 12.0):
            for b in (0.0, 2.0):
                rule = gauss_jacobi_rule(m, a, b)
                want = beta_closed_form(b + 1.0, a + 1.0)
                assert rule.weights.sum() == pytest.approx(want, rel=1e-12)
    assert gauss_jacobi_rule(6, 3.0, 0.0).weights.sum() == pytest.approx(0.25, rel=1e-13)


def test_nodes_interior_increasing_weights_positive():
    rule = gauss_jacobi_rule(32, 2.0, 0.0)
    assert np.all(rule.weights > 0.0)
    assert np.all(np.diff(rule.nodes) > 0.0)
    assert rule.nodes[0] > 0.0 and rule.nodes[-1] < 1.0


@pytest.mark.parametrize("N", [3, 5])
def test_monomial_exactness(N):
    rule = gauss_jacobi_rule(5, N - 2.0, 0.0)
    got = np.dot(rule.weights, rule.nodes**9)
    assert got == pytest.approx(beta_closed_form(10.0, N - 1.0), rel=1e-12)
    # every monomial up to the advertised degree 2m-1
    for p in range(10):
        got = np.dot(rule.weights, rule.nodes**p)
        assert got == pytest.approx(beta_closed_form(p + 1.0, N - 1.0), rel=1e-12)


def test_invalid_rule_arguments():
    with pytest.raises(ValueError):
        gauss_jacobi_rule(0, 0.0, 0.0)
    with pytest.raises(ValueError):
        gauss_jacobi_rule(4, -1.0, 0.0)
    with pytest.raises(ValueError):
        simplex_rule_2(4, 2)


@pytest.mark.parametrize("N", [3, 4, 6])
def test_simplex_rule_total_mass(N):
    rule = simplex_rule_2(16, N)
    assert rule.weights.sum() == pytest.approx(1.0 / ((N - 1) * (N - 2)), rel=1e-12)
    u1, u2 = rule.nodes[:, 0], rule.nodes[:, 1]
    assert np.all(u1 > 0) and np.all(u2 > 0) and np.all(u1 + u2 < 1)


@pytest.mark.parametrize("N", [4, 6])
def test_simplex_rule_dirichlet_moments(N):
    rule = simplex_rule_2(12, N)
    a, b = rule.nodes[:, 0], rule.nodes[:, 1]
    # first-coordinate mean: Dirichlet(1,1,N-2) gives 1/N of the total mass
    got = np.dot(rule.weights, a)
    assert got == pytest.approx(rule.weights.sum() / N, rel=1e-12)
    for p in range(4):
        for q in range(4):
            got = np.dot(rule.weights, a**p * b**q)
            assert got == pytest.approx(dirichlet_integral_2d(p, q, N), rel=1e-12)


def test_simplex_rule_orthogonality_of_degree_one_modes():
    N = 5
    rule = simplex_rule_2(10, N)

    def q(idx):
        return np.array([simplex_q(idx, N, (a, b)) for a, b in rule.nodes])

    inner = float(np.dot(rule.weights, q((1, 0)) * q((1, 1))))
    assert abs(inner) <= 1e-11


def test_doubling_m_is_a_convergence_diagnostic():
    rule32 = gauss_jacobi_rule(32, 3.0, 0.0)
    rule64 = gauss_jacobi_rule(64, 3.0, 0.0)
    f = lambda u: np.exp(2.0 * u) * np.cos(u)
    i32 = np.dot(rule32.weights, f(rule32.nodes))
    assert abs(i32 - np.dot(rule64.weights, f(rule64.nodes))) <= 1e-10
    s24 = simplex_rule_2(24, 4)
    s48 = simplex_rule_2(48, 4)
    g = lambda u: np.exp(u[:, 0] - u[:, 1])
    assert abs(np.dot(s24.weights, g(s24.nodes)) - np.dot(s48.weights, g(s48.nodes))) <= 1e-10


def test_integrate_basics():
    # norm 1/(2n+N-1) of the degree-n mode against its own weight
    N, n = 4, 3
    rule = gauss_jacobi_rule(32, N - 2.0, 0.0)
    got = np.dot(rule.weights, jacobi_p(n, (N - 2.0, 0.0), 2.0 * rule.nodes - 1.0) ** 2)
    assert got == pytest.approx(1.0 / (2 * n + N - 1), rel=1e-12)


def test_beta_integral_helper():
    assert beta_integral(1.0, 1.0) == pytest.approx(1.0)
    assert beta_integral(10.0, 4.0) == pytest.approx(beta_closed_form(10.0, 4.0), rel=1e-14)
