import math

import numpy as np
import pytest

from jacobi_heat.quadrature import simplex_rule_2
from jacobi_heat.simplex_jacobi import simplex_q_polynomial
from jacobi_heat.special import jacobi_p, pochhammer

from oracles import jacobi_2f1, simplex_q, simplex_q_norm_sq


def test_index_and_point_validation():
    for idx in [(2, 3), (2, -1)]:
        with pytest.raises(ValueError):
            simplex_q_polynomial(idx, 4)
    with pytest.raises(ValueError):
        simplex_q_polynomial((1, 0), 2)
    for idx, N in [((2, 1), 3.5), ((2.5, 1), 4)]:
        with pytest.raises(ValueError):
            simplex_q_polynomial(idx, N)


def test_q_constant_mode():
    for p in [(0.2, 0.3), (0.01, 0.01), (0.5, 0.5)]:
        assert simplex_q((0, 0), 5, p) == 1.0


def test_q_j_zero_reduces_to_outer_jacobi():
    N = 5
    for n in (1, 2, 4):
        for u1, u2 in [(0.15, 0.3), (0.6, 0.2)]:
            got = simplex_q((n, 0), N, (u1, u2))
            want = jacobi_p(n, (N - 2.0, 0.0), 2.0 * u1 - 1.0)
            assert got == pytest.approx(want, rel=1e-14)


def test_q_direct_substitution_value():
    # n = j = 1, N = 4: the outer factor is P_0 = 1
    got = simplex_q((1, 1), 4, (0.2, 0.3))
    inner = jacobi_p(1, (1.0, 0.0), 2.0 * 0.3 / 0.8 - 1.0)
    assert got == pytest.approx(0.8 * inner, rel=1e-14)
    assert got == pytest.approx(0.1, rel=1e-14)


def test_q_removable_singularity_at_u1_equals_one():
    assert simplex_q((3, 1), 4, (1.0, 0.0)) == 0.0
    want = jacobi_p(2, (2.0, 0.0), 1.0)
    assert simplex_q((2, 0), 4, (1.0, 0.0)) == pytest.approx(want, rel=1e-14)


def test_norm_sq_closed_form():
    assert simplex_q_norm_sq((0, 0), 3) == pytest.approx(0.5, rel=1e-14)
    assert simplex_q_norm_sq((2, 1), 4) == pytest.approx(1.0 / 28.0, rel=1e-14)
    # the same norm through the diagonal coupling coefficient c_{j,j}(n, N) of the
    # reproducing-kernel expansion
    for N in (3, 4, 6):
        for n in range(6):
            for j in range(n + 1):
                val = simplex_q_norm_sq((n, j), N)
                ends = jacobi_p(n - j, (N - 2.0 + 2 * j, 0.0), 1.0)
                ends *= jacobi_p(j, (N - 3.0, 0.0), 1.0)
                rest = (N - 2) * (2 * n + N - 1) * jacobi_p(n, (N - 2.0, 0.0), 1.0) ** 2
                c_jj = (N - 2.0) / (N - 2.0 + 2 * j) * (
                    math.comb(n, j) * pochhammer(N + n - 1.0, j) / pochhammer(N - 2.0 + j, j)
                ) ** 2
                assert ends**2 / (rest * c_jj) == pytest.approx(val, rel=1e-10)


@pytest.mark.parametrize("N", [3, 4, 6])
def test_norm_sq_matches_quadrature(N):
    rule = simplex_rule_2(12, N)
    for n in range(4):
        for j in range(n + 1):
            vals = np.array([simplex_q((n, j), N, (a, b)) for a, b in rule.nodes])
            got = float(np.dot(rule.weights, vals * vals))
            assert got == pytest.approx(simplex_q_norm_sq((n, j), N), abs=1e-11)


def test_orthogonality_all_pairs_to_degree_eight():
    N = 4
    rule = simplex_rule_2(12, N)  # exact for total degree <= 22
    indices = [(n, j) for n in range(9) for j in range(n + 1)]
    table = np.array([simplex_q_polynomial(idx, N)(rule.nodes) for idx in indices])
    gram = table @ (rule.weights[:, None] * table.T)
    for i, idx_i in enumerate(indices):
        for j in range(len(indices)):
            if i == j:
                want = simplex_q_norm_sq(idx_i, N)
                assert gram[i, i] == pytest.approx(want, rel=1e-10)
            else:
                assert abs(gram[i, j]) <= 1e-11


def test_polynomial_expansion_matches_pointwise_formula():
    rng = np.random.default_rng(5)
    for N in (3, 5):
        for n, j in [(2, 1), (4, 2), (5, 5), (3, 0)]:
            poly = simplex_q_polynomial((n, j), N)
            assert poly.total_degree() == n
            for _ in range(5):
                u1 = float(rng.uniform(0.05, 0.9))
                u2 = float(rng.uniform(0.05, 0.95 - u1))
                assert poly((u1, u2)) == pytest.approx(
                    simplex_q((n, j), N, (u1, u2)), rel=1e-11, abs=1e-12
                )


def test_inner_factor_against_definition_oracle():
    # the expanded inner factor reproduces the 2F1 values of P_j^{N-3,0}
    N, n, j = 6, 3, 3
    poly = simplex_q_polynomial((n, j), N)
    u1, u2 = 0.25, 0.4
    z = 2.0 * u2 / (1.0 - u1) - 1.0
    want = (1.0 - u1) ** j * jacobi_2f1(j, N - 3, 0, z)
    assert poly((u1, u2)) == pytest.approx(want, rel=1e-11)
