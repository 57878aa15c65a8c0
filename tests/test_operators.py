import math

import numpy as np
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from jacobi_heat.heat_kernel import auto_truncation
from jacobi_heat.operators import generalized_jacobi_op, operator_matrix, script_l_k
from jacobi_heat.polynomials import SimplexPolynomial, dirichlet_weight_poly
from jacobi_heat.simplex_jacobi import _jacobi_sum
from jacobi_heat.special import eigenvalue
from jacobi_heat.validate import face_derivative_identity, heat_residual_1d


def univariate(coeffs):
    """The k = 1 SimplexPolynomial sum_i coeffs[i] u^i."""
    return SimplexPolynomial({(i,): c for i, c in enumerate(coeffs)}, 1)


def test_jacobi_op_trivial_inputs():
    assert generalized_jacobi_op(univariate([1.0]), 5).max_abs_coeff() == 0.0
    # g = u maps to 1 - Nu, i.e. -N (u - 1/N)
    out = generalized_jacobi_op(univariate([0.0, 1.0]), 5)
    assert out.terms == {(0,): 1.0, (1,): -5.0}


@pytest.mark.parametrize("N", [2, 3, 5])
def test_jacobi_op_eigenfunctions(N):
    for n in range(1, 11):
        u = SimplexPolynomial.variable(0, 1)
        g = _jacobi_sum(n, N - 2.0, 0.0, u - 1.0, u)
        image = generalized_jacobi_op(g, N)
        expected = -float(eigenvalue(n, N)) * g
        assert image.max_abs_diff(expected) <= 1e-11 * g.max_abs_coeff()


@pytest.mark.parametrize("N", [3, 4, 6])
def test_script_l_annihilates_weight_1d(N):
    assert script_l_k(dirichlet_weight_poly(1, N), N).max_abs_coeff() == 0.0


def test_script_l_at_n_two_is_jacobi_op():
    g = univariate([0.5, -1.0, 2.0, 0.25])
    assert script_l_k(g, 2).max_abs_diff(generalized_jacobi_op(g, 2)) == 0.0


@pytest.mark.parametrize("N", [3, 5])
def test_conjugation_identity_1d(N):
    rng = np.random.default_rng(0)
    s1 = dirichlet_weight_poly(1, N)
    for _ in range(5):
        g = univariate(rng.standard_normal(7))  # degree 6
        lhs = script_l_k(g * s1, N)
        rhs = s1 * generalized_jacobi_op(g, N)
        assert lhs.max_abs_diff(rhs) <= 1e-12 * max(1.0, lhs.max_abs_coeff())


def test_generalized_op_trivial_inputs():
    k = 3
    assert generalized_jacobi_op(SimplexPolynomial.constant(1.0, k), 6).max_abs_coeff() == 0.0
    for i in range(k):
        out = generalized_jacobi_op(SimplexPolynomial.variable(i, k), 6)
        want = 1.0 - 6.0 * SimplexPolynomial.variable(i, k)
        assert out.max_abs_diff(want) == 0.0
    with pytest.raises(ValueError):
        generalized_jacobi_op(SimplexPolynomial.constant(1.0, 4), 4)
    # a non-integer N was used as a coefficient, and a bad degree gave TypeError or no rows
    u1 = SimplexPolynomial.variable(0, 1)
    for op in (generalized_jacobi_op, script_l_k):
        with pytest.raises(ValueError, match="N must be >= 2 and an integer"):
            op(u1, 4.5)
    for max_degree in (2.5, -1):
        with pytest.raises(ValueError, match="max_degree must be >= 0 and an integer"):
            operator_matrix(2, 4, max_degree)
    with pytest.raises(ValueError, match="k must be >= 1 and an integer"):
        operator_matrix(2.5, 4, 2)


def test_script_l_k_reduces_to_generator_at_k_equals_N_minus_1():
    for k, N in [(2, 3), (3, 4)]:
        rng = np.random.default_rng(k)
        terms = {}
        for _ in range(5):
            e = tuple(int(v) for v in rng.integers(0, 3, size=k))
            terms[e] = float(rng.standard_normal())
        f = SimplexPolynomial(terms, k)
        assert script_l_k(f, N).max_abs_diff(generalized_jacobi_op(f, N)) == 0.0


@pytest.mark.parametrize("k,N", [(1, 3), (2, 4), (3, 6)])
def test_conjugation_identity_k(k, N):
    rng = np.random.default_rng(9)
    sk = dirichlet_weight_poly(k, N)
    for _ in range(4):
        terms = {}
        for _ in range(4):
            e = tuple(int(v) for v in rng.integers(0, 3, size=k))
            if sum(e) <= 4:
                terms[e] = float(rng.standard_normal())
        terms.setdefault((0,) * k, 1.0)
        g = SimplexPolynomial(terms, k)
        lhs = script_l_k(g * sk, N)
        rhs = sk * generalized_jacobi_op(g, N)
        assert lhs.max_abs_diff(rhs) <= 1e-12 * max(1.0, lhs.max_abs_coeff())


def test_operators_are_linear():
    rng = np.random.default_rng(3)
    k, N = 2, 5
    a, b = 1.7, -2.3
    f = SimplexPolynomial({(1, 0): 1.0, (2, 1): -0.5}, k)
    g = SimplexPolynomial({(0, 2): 2.0, (1, 1): 0.25}, k)
    for op in (generalized_jacobi_op, script_l_k):
        lhs = op(a * f + b * g, N)
        rhs = a * op(f, N) + b * op(g, N)
        assert lhs.max_abs_diff(rhs) <= 1e-13


@given(st.data())
def test_operators_match_symbolic_derivatives(data):
    # the operators as their docstrings define them, differentiated by sympy: with
    # integer coefficients the closed form must reproduce every coefficient exactly
    k = data.draw(st.integers(1, 4))
    N = data.draw(st.integers(k + 1, k + 5))
    exponents = st.lists(st.integers(0, k - 1), max_size=4).map(lambda v: tuple(map(v.count, range(k))))
    terms = data.draw(st.dictionaries(exponents, st.integers(-9, 9), max_size=5))
    u = sympy.symbols(f"u1:{k + 1}")
    f = sympy.Poly.from_dict(terms, *u).as_expr()
    for op, const, slope in [(generalized_jacobi_op, 0, -N), (script_l_k, k * (N - k - 1), N - 2 * k - 2)]:
        want = const * f
        for i in range(k):
            want += (1 + slope * u[i]) * f.diff(u[i]) + (u[i] - u[i] ** 2) * f.diff(u[i], 2)
            want -= sum(u[i] * u[j] * f.diff(u[i], u[j]) for j in range(k) if j != i)
        want = sympy.Poly(want, *u).as_dict()
        assert op(SimplexPolynomial(terms, k), N).terms == {e: float(c) for e, c in want.items() if c}


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("N", [4, 6])
def test_graded_spectrum(k, N):
    mat, exponents = operator_matrix(k, N, 6)
    eigs = np.sort(np.linalg.eigvals(mat).real)
    expected = np.sort([-float(eigenvalue(sum(e), N)) for e in exponents])
    assert np.max(np.abs(eigs - expected)) <= 1e-9
    # multiplicity of -n(n+N-1) equals the number of degree-n monomials
    for n in range(7):
        want = sum(1 for e in exponents if sum(e) == n)
        got = int(np.sum(np.isclose(eigs, -float(eigenvalue(n, N)), atol=1e-9)))
        assert got == want


def test_heat_residual_single_mode():
    # with only the n <= 1 modes the residual is pure stencil error, tiny at dt = 1e-4
    res = heat_residual_1d(0.3, 0.5, 3, 1, np.linspace(0.0, 1.0, 21))
    assert res <= 1e-10


def test_heat_residual_reference_case():
    n_max = auto_truncation(0.3, 3, 1e-12).n_max
    res = heat_residual_1d(0.3, 0.5, 3, n_max, np.linspace(0.0, 1.0, 41))
    assert res <= 1e-6


def test_heat_residual_stationary_regime():
    n_max = auto_truncation(40.0, 4, 1e-12).n_max
    res = heat_residual_1d(40.0, 0.3, 4, n_max, np.linspace(0.0, 1.0, 21))
    assert res <= 1e-12


def test_heat_residual_requires_room_for_the_stencil():
    with pytest.raises(ValueError):
        heat_residual_1d(1e-4, 0.5, 3, 2, [0.5])
    # a time that is not finite, too small an N and a start off [0, 1] are refused too
    for t, c, N in [(math.nan, 0.5, 3), (math.inf, 0.5, 3), (0.3, 0.5, 1), (0.3, 2.0, 3)]:
        with pytest.raises(ValueError):
            heat_residual_1d(t, c, N, 2, [0.5])


def test_face_identity_for_weight_and_weighted_polynomials():
    for k, N in [(2, 4), (3, 6)]:
        sk = dirichlet_weight_poly(k, N)
        assert face_derivative_identity(sk)
    u1, u2 = SimplexPolynomial.variable(0, 2), SimplexPolynomial.variable(1, 2)
    assert face_derivative_identity(u1 * dirichlet_weight_poly(2, 5))
    # any f constant on the face passes, a multiple of the weight or not
    assert face_derivative_identity((1.0 - u1 - u2) * u1 + 2.0)


def test_face_identity_fails_without_weight():
    # k = N-1: the weight is constant and boundary terms persist
    assert not face_derivative_identity(SimplexPolynomial.variable(0, 2))
    assert not face_derivative_identity(SimplexPolynomial({(1, 0): 1.0, (0, 1): -1.0}, 2))


def test_face_identity_k1_is_vacuous():
    assert face_derivative_identity(SimplexPolynomial.variable(0, 1))
