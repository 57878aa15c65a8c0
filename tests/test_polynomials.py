import numpy as np
import pytest

from jacobi_heat.polynomials import SimplexPolynomial, dirichlet_weight_poly
from jacobi_heat.simplex_jacobi import _jacobi_sum
from jacobi_heat.special import jacobi_p


def test_polynomial1d_arithmetic():
    # k = 1 is the univariate case
    u = SimplexPolynomial.variable(0, 1)
    p = 1.0 + 2.0 * u
    q = 3.0 * u**2
    assert (p + q).terms == {(0,): 1.0, (1,): 2.0, (2,): 3.0}
    assert (p * q).terms == {(2,): 3.0, (3,): 6.0}
    assert (1.0 - p).terms == {(1,): -2.0}
    assert p(np.array([0.5])) == 2.0
    assert p.partial(0).terms == {(0,): 2.0}
    assert (p - p).max_abs_coeff() == 0.0 and (p - p).total_degree() == 0


def test_simplex_polynomial_arithmetic():
    u = SimplexPolynomial.variable(0, 2)
    v = SimplexPolynomial.variable(1, 2)
    p = (1.0 - u - v) ** 2
    assert p.total_degree() == 2
    assert p((0.25, 0.25)) == pytest.approx(0.25)
    assert p.partial(0).max_abs_diff(p.partial(1)) == 0.0
    q = u * v - 2.0 * u
    pts = np.array([[0.1, 0.2], [0.3, 0.4]])
    np.testing.assert_allclose(q(pts), pts[:, 0] * pts[:, 1] - 2.0 * pts[:, 0])


def test_simplex_polynomial_substitute():
    u = SimplexPolynomial.variable(0, 2)
    v = SimplexPolynomial.variable(1, 2)
    p = u**2 + v
    # u -> 1 - v turns it into (1-v)^2 + v
    got = p.substitute(0, 1.0 - v)
    want = (1.0 - v) * (1.0 - v) + v
    assert got.max_abs_diff(want) == 0.0


def test_simplex_polynomial_validation():
    with pytest.raises(ValueError):
        SimplexPolynomial({(1, 2, 3): 1.0}, 2)
    with pytest.raises(ValueError):
        SimplexPolynomial.variable(0, 2) ** -1
    with pytest.raises(ValueError):
        SimplexPolynomial.variable(0, 2) + SimplexPolynomial.variable(0, 3)
    # int(k) truncated 2.7 to 2 variables
    for k in (2.7, 2.0, 0):
        with pytest.raises(ValueError, match="k must be >= 1 and an integer"):
            SimplexPolynomial({}, k)


@pytest.mark.parametrize("n,a,b", [(0, 1.0, 0.0), (3, 2.0, 0.0), (6, 0.0, 3.0), (9, 4.0, 0.0)])
def test_jacobi_coefficient_expansions(n, a, b):
    # the explicit sum behind simplex_q_polynomial, run on SimplexPolynomials
    xs = np.linspace(-1.0, 1.0, 7)
    direct = jacobi_p(n, (a, b), xs)
    x = SimplexPolynomial.variable(0, 1)
    px = _jacobi_sum(n, a, b, 0.5 * (x - 1.0), 0.5 * (x + 1.0))
    pu = _jacobi_sum(n, a, b, x - 1.0, x)
    # h^n P_n(w/h) at h = 0.3, w = 0.3 x
    w, h = SimplexPolynomial.variable(0, 2), SimplexPolynomial.variable(1, 2)
    ph = _jacobi_sum(n, a, b, 0.5 * (w - h), 0.5 * (w + h))
    ph = ph(np.column_stack([0.3 * xs, np.full(7, 0.3)]))
    # monomial-basis evaluation cancels; accuracy is relative to the coefficient scale
    atol = 1e-13 * max(px.max_abs_coeff(), pu.max_abs_coeff())
    np.testing.assert_allclose(px(xs[:, None]), direct, atol=atol)
    np.testing.assert_allclose(pu(0.5 * (xs[:, None] + 1.0)), direct, atol=atol)
    np.testing.assert_allclose(ph, 0.3**n * direct, atol=atol)


def test_dirichlet_weight_poly():
    s2 = dirichlet_weight_poly(2, 5)
    assert s2((0.2, 0.3)) == pytest.approx(0.5**2)
    # N = k+1 gives exponent zero: the weight degenerates to the constant 1
    s3 = dirichlet_weight_poly(3, 4)
    assert s3.total_degree() == 0
    assert s3((0.1, 0.2, 0.3)) == 1.0
    with pytest.raises(ValueError):
        dirichlet_weight_poly(3, 3)
    # k = 1.5 raised TypeError, k = 0 gave a polynomial in no variables, and a
    # non-integer N was refused only by the power, naming its exponent
    for k, N, message in [(1.5, 5, "k must be >= 1"), (0, 3, "k must be >= 1"),
                          (2, 4.5, "N must be >= 3"), (2, 4.0, "N must be >= 3")]:
        with pytest.raises(ValueError, match=message):
            dirichlet_weight_poly(k, N)
