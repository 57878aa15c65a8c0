import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobi_heat.heat_kernel import (
    Truncation,
    _term_bound_1d,
    _term_bound_2d,
    auto_truncation,
    auto_truncation_2d,
    cdf_1d_values,
    density_1d_values,
    density_2d_values,
    kernel_series_1d,
    kernel_series_2d,
)
from jacobi_heat.quadrature import gauss_jacobi_rule
from jacobi_heat.special import eigenvalue, jacobi_p, jacobi_table
from jacobi_heat.validate import chapman_kolmogorov_check, eigen_transform_check

from oracles import auto_truncation_scan, harmonic_dimension, simplex_q, simplex_q_norm_sq


def test_truncation_validation():
    for n_max in (0, 2.5, 3.0):
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            Truncation(n_max=n_max, tol=1e-10, achieved_bound=0.0)
    assert Truncation(n_max=np.int64(3), tol=1e-10, achieved_bound=0.0).n_max == 3
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol must be positive"):
            Truncation(n_max=3, tol=tol, achieved_bound=0.0)


def test_auto_truncation_reference_case():
    tr = auto_truncation(1.0, 3, 1e-12)
    assert 1 <= tr.n_max <= 8
    assert tr.achieved_bound <= 1e-12


def test_auto_truncation_monotone_in_tolerance():
    loose = auto_truncation(0.2, 4, 1e-6)
    tight = auto_truncation(0.2, 4, 1e-14)
    assert tight.n_max >= loose.n_max
    assert tight.achieved_bound <= tight.tol


def test_auto_truncation_large_time_single_mode():
    assert auto_truncation(80.0, 3, 1e-10).n_max == 1


def test_auto_truncation_refusals():
    with pytest.raises(ValueError):
        auto_truncation(0.0, 3, 1e-10)
    # a NaN tol passes a plain `<= 0` guard, scans 1e5 modes and then blames t
    for t, tol in [(0.2, -1.0), (0.2, math.nan), (0.2, math.inf), (math.inf, 1e-10)]:
        with pytest.raises(ValueError, match="must be positive and finite"):
            auto_truncation(t, 3, tol)
        with pytest.raises(ValueError, match="must be positive and finite"):
            auto_truncation_2d(t, 4, tol)
    with pytest.raises(ValueError):
        auto_truncation(1e-9, 3, 1e-12)  # would need more than 1e5 modes
    for N in (1, 0, -3):
        with pytest.raises(ValueError, match="N must be >= 2"):
            auto_truncation(0.1, N, 1e-10)
    with pytest.raises(ValueError, match="N must be >= 3"):
        auto_truncation_2d(0.1, 2, 1e-10)
    # a non-integer N reached the `range` of the term bound and raised TypeError
    for N in (2.5, 3.0, math.nan):
        with pytest.raises(ValueError, match="an integer"):
            auto_truncation(0.5, N, 1e-10)
        with pytest.raises(ValueError, match="an integer"):
            auto_truncation_2d(0.5, N + 1, 1e-10)
    assert auto_truncation(0.5, np.int64(3), 1e-10) == auto_truncation(0.5, 3, 1e-10)
    assert auto_truncation_2d(0.5, np.int32(4), 1e-10) == auto_truncation_2d(0.5, 4, 1e-10)
    with pytest.raises(ValueError, match="t must be positive"):
        auto_truncation_2d(float("nan"), 4, 1e-10)


def test_auto_truncation_2d_refuses_where_the_tail_bound_overflows():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="overflows"):
        auto_truncation_2d(1e-4, 120, 1e-12)
    assert time.perf_counter() - start < 5.0
    # the harmonic-dimension bound is (N-2) times the 1-D one, so the 2-D cutoff
    # stays within a few modes of the 1-D cutoff down to small t
    assert auto_truncation_2d(1e-3, 5, 1e-12).n_max <= auto_truncation(1e-3, 5, 1e-12).n_max + 5
    assert auto_truncation_2d(0.01, 5, 1e-10).n_max <= 75


@pytest.mark.parametrize("N", [3, 4, 6])
def test_term_bound_2d_is_the_sharp_shell_kernel_bound(N):
    # the shell kernel sum_j Q_j(c) Q_j(u) / ||Q_j||^2, built from simplex_jacobi
    rng = np.random.default_rng(N)
    corners = [(1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (0.5, 0.5)]
    points = corners + [tuple(p[:2]) for p in rng.dirichlet(np.ones(3), size=12)]
    pairs = [(p, p) for p in points] + list(zip(points, points[1:]))
    for n in range(13):
        bound = (N - 2) * _term_bound_1d(n, 0.0, N)
        assert (N - 1) * (N - 2) * harmonic_dimension(n, N) == pytest.approx(bound, rel=1e-12)

        def kernel(c, u):
            return sum(
                simplex_q((n, j), N, c) * simplex_q((n, j), N, u) / simplex_q_norm_sq((n, j), N)
                for j in range(n + 1)
            )

        for c, u in pairs:
            assert abs(kernel(c, u)) <= (1.0 + 1e-12) * bound
        assert kernel((1.0, 0.0), (1.0, 0.0)) == pytest.approx(bound, rel=1e-12)
        assert _term_bound_2d(n, 0.0, N) == bound


def test_density_query_validation():
    tr1 = auto_truncation(0.5, 3, 1e-10)
    tr2 = auto_truncation_2d(0.5, 4, 1e-10)
    for t, c, u, N in [
        (0.0, 0.3, 0.5, 3),
        (-0.5, 0.3, 0.5, 3),
        (0.5, 1.2, 0.5, 3),
        (0.5, -0.1, 0.5, 3),
        (0.5, 0.3, 1.5, 3),
        (0.5, 0.3, np.array([0.2, -0.1]), 3),
        (0.5, 0.3, 0.5, 1),
    ]:
        for values in (density_1d_values, cdf_1d_values):
            with pytest.raises(ValueError):
                values(t, c, u, N, tr1)
    for t, c, u, N in [
        (0.0, (0.2, 0.2), [(0.1, 0.1)], 4),
        (-0.5, (0.2, 0.2), [(0.1, 0.1)], 4),
        (0.1, (0.7, 0.5), [(0.1, 0.1)], 4),
        (0.1, (0.9, 0.6), [(0.1, 0.1)], 4),
        (0.1, (-0.1, 0.2), [(0.1, 0.1)], 4),
        (0.1, (0.2, 0.2), [(0.1, 0.1), (0.6, 0.5)], 4),
        (0.1, (0.2, 0.2), [(0.1, 0.1)], 2),
    ]:
        with pytest.raises(ValueError):
            density_2d_values(t, c, u, N, tr2)
    for c in (0.3, (0.2,), (0.2, 0.2, 0.1)):  # start points that are not pairs
        with pytest.raises(ValueError, match="not a point of the closed 2-simplex"):
            density_2d_values(0.1, c, [(0.1, 0.1)], 4, tr2)
    # the closed simplex is accepted, up to 1e-12 of rounding
    assert np.all(np.isfinite(density_2d_values(0.5, (1.0, 0.0), [(0.5, 0.5 + 1e-13)], 4, tr2)))


def test_empty_point_sets_give_empty_densities():
    tr1 = auto_truncation(0.5, 3, 1e-10)
    tr2 = auto_truncation_2d(0.5, 4, 1e-10)
    for u in ([], np.empty(0)):
        assert density_1d_values(0.5, 0.3, u, 3, tr1).shape == (0,)
        values, last = kernel_series_1d(0.5, 0.3, u, 3, tr1.n_max)
        assert values.shape == (0,) and last == 0.0
    for pts in ([], np.empty((0, 2))):
        assert density_2d_values(0.5, (0.2, 0.2), pts, 4, tr2).shape == (0,)
        assert kernel_series_2d(0.5, (0.2, 0.2), pts, 4, tr2.n_max).shape == (0,)


def test_density_1d_stationary_limit():
    # only the constant mode survives: the Dirichlet weight times its normalizer
    N = 4
    tr = auto_truncation(60.0, N, 1e-12)
    for u in (0.0, 0.3, 0.8):
        f = float(density_1d_values(60.0, 0.2, u, N, tr))
        assert f == pytest.approx((N - 1) * (1.0 - u) ** (N - 2), abs=1e-12)


def test_density_1d_against_brute_force_sum():
    # N = 2, c = u = 1: every Jacobi factor equals 1, so the series is elementary
    t = 0.5
    brute = sum((2 * n + 1) * math.exp(-n * (n + 1) * t) for n in range(200))
    tr = auto_truncation(t, 2, 1e-13)
    got = float(density_1d_values(t, 1.0, 1.0, 2, tr))
    assert abs(got - brute) <= 1e-14 * brute


def test_density_1d_positivity_up_to_tail_bound():
    u = np.linspace(0.0, 1.0, 200)
    for N, t, c in [(3, 0.05, 0.0), (5, 0.1, 1.0), (2, 0.05, 0.5)]:
        tr = auto_truncation(t, N, 1e-12)
        f = density_1d_values(t, c, u, N, tr)
        assert float(f.min()) >= -(tr.achieved_bound + 1e-12)


def test_density_1d_reversibility():
    N, t = 4, 0.3
    tr = auto_truncation(t, N, 1e-12)
    for c, u in [(0.2, 0.7), (0.5, 0.9), (0.05, 0.4)]:
        lhs = float(density_1d_values(t, c, u, N, tr)) * (1.0 - c) ** (N - 2)
        rhs = float(density_1d_values(t, u, c, N, tr)) * (1.0 - u) ** (N - 2)
        assert lhs == pytest.approx(rhs, rel=1e-11)


@pytest.mark.parametrize("N", [2, 3, 5, 10])
@pytest.mark.parametrize("t", [1e-3, 1e-2, 0.1, 1.0])
@pytest.mark.parametrize("c", [0.0, 0.3, 0.9, 1.0])
def test_kernel_series_1d_matches_an_exactly_rounded_sum(N, t, c):
    u = np.linspace(0.0, 1.0, 41)
    tr = auto_truncation(t, N, 1e-12)
    got, _ = kernel_series_1d(t, c, u, N, tr.n_max)
    ns = np.arange(tr.n_max + 1)
    w = np.exp(-ns * (ns + N - 1.0) * t) * (2.0 * ns + N - 1.0)
    w *= jacobi_table(tr.n_max, N - 2.0, 0.0, 2.0 * c - 1.0)
    terms = w[:, None] * jacobi_table(tr.n_max, N - 2.0, 0.0, 2.0 * u - 1.0)
    for i in range(len(u)):
        ref = math.fsum(terms[:, i])
        assert abs(got[i] - ref) <= 8.0 * np.finfo(float).eps * float(np.abs(terms[:, i]).sum())


@pytest.mark.parametrize("N", [2, 3, 5, 10])
@pytest.mark.parametrize("t", [1e-3, 1e-2, 0.1, 1.0])
@pytest.mark.parametrize("c", [0.0, 0.3, 1.0])
def test_cdf_1d_is_the_integral_of_the_truncated_density(N, t, c):
    # the truncated density is a polynomial of degree n_max + N - 2, which this
    # Gauss-Legendre rule on [0, x] integrates exactly; numpy's rule, because
    # the package's Gauss-Jacobi rules lose accuracy at the endpoints at a few
    # hundred nodes
    tr = auto_truncation(t, N, 1e-12)
    x = np.linspace(0.0, 1.0, 41)
    nodes, weights = np.polynomial.legendre.leggauss((tr.n_max + N - 2) // 2 + 1)
    u = x[:, None] * (nodes + 1.0) / 2.0
    ns = np.arange(tr.n_max + 1)
    w = np.exp(-ns * (ns + N - 1.0) * t) * (2.0 * ns + N - 1.0)
    w *= jacobi_table(tr.n_max, N - 2.0, 0.0, 2.0 * c - 1.0)
    terms = w[:, None, None] * jacobi_table(tr.n_max, N - 2.0, 0.0, 2.0 * u - 1.0)
    terms *= (1.0 - u) ** (N - 2)
    ref = x * (terms.sum(axis=0) @ weights) / 2.0
    # rounding: a few hundred ulps of the absolute term sums of either side,
    # which reach 1e10 at N = 10, t = 1e-3, c = 1
    cdf_terms = (w[1:] / ns[1:])[:, None] * jacobi_table(tr.n_max - 1, N - 1.0, 1.0, 2.0 * x - 1.0)
    scale = x * (np.abs(terms).sum(axis=0) @ weights) / 2.0
    scale += x * (1.0 - x) ** (N - 1) * np.abs(cdf_terms).sum(axis=0)
    got = cdf_1d_values(t, c, x, N, tr)
    assert np.all(np.abs(got - ref) <= 1e-12 + 1e-13 * scale)
    assert got[0] == 0.0
    assert abs(got[-1] - 1.0) <= tr.achieved_bound


def test_densities_refuse_a_certificate_below_the_first_omitted_term():
    bogus = Truncation(n_max=2, tol=1e-16, achieved_bound=1e-16)
    for values in (density_1d_values, cdf_1d_values):
        with pytest.raises(ValueError, match="below the proven bound on mode 3"):
            values(0.05, 0.3, np.array([0.2]), 3, bogus)
    with pytest.raises(ValueError, match="below the proven bound on mode 3"):
        density_2d_values(0.05, (0.3, 0.2), [(0.2, 0.2)], 4, bogus)
    with pytest.raises(ValueError, match="below the proven bound"):
        density_1d_values(0.5, 0.3, 0.2, 3, Truncation(n_max=20, tol=1e-10, achieved_bound=math.nan))
    # N = 3, t = 0.05, tol = 1e-12 cuts at 26 modes with a tail bound of 1.069 b_27,
    # so a certificate that covers b_27 alone is refused
    t, N = 0.05, 3
    tr = auto_truncation(t, N, 1e-12)
    b27 = _term_bound_1d(27, t, N)
    assert tr.n_max == 26
    assert tr.achieved_bound == pytest.approx(1.069 * b27, rel=1e-3)
    short = Truncation(26, 1e-12, 1.0001 * b27)
    for values in (density_1d_values, cdf_1d_values):
        with pytest.raises(ValueError, match="below the proven bound on mode 27"):
            values(t, 0.3, 0.2, N, short)
    short_2d = Truncation(26, 1e-12, 1.0001 * _term_bound_2d(27, t, 4))
    with pytest.raises(ValueError, match="below the proven bound on mode 27"):
        density_2d_values(t, (0.3, 0.2), [(0.2, 0.2)], 4, short_2d)


# per dimension: the certifier, its term bound, the functions that take its
# certificates, a start and a point, and the smallest N and t drawn
_CERTIFIERS = {
    1: (auto_truncation, _term_bound_1d, (density_1d_values, cdf_1d_values), 0.3, 0.4, 2, 1e-4),
    2: (auto_truncation_2d, _term_bound_2d, (density_2d_values,), (0.3, 0.2), [(0.4, 0.1)], 3, 1e-3),
}


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=50)
@given(st.data())
def test_issued_certificates_are_accepted_and_halved_ones_refused(dim, data):
    certify, term_bound, functions, c, u, N_min, t_min = _CERTIFIERS[dim]
    N = data.draw(st.integers(N_min, 10))
    t = math.exp(data.draw(st.floats(math.log(t_min), math.log(2.0))))
    tol = math.exp(data.draw(st.floats(math.log(1e-14), math.log(1e-6))))
    tr = certify(t, N, tol)
    halved = Truncation(tr.n_max, tol, term_bound(tr.n_max + 1, t, N) / 2.0)
    for values in functions:
        assert np.all(np.isfinite(values(t, c, u, N, tr)))
        with pytest.raises(ValueError, match="below the proven bound"):
            values(t, c, u, N, halved)


def _explicit_tail(start, t, N, term_bound):
    """fsum of the term bounds from mode start on, until they underflow to zero."""
    terms, n = [], start
    while (b := term_bound(n, t, N)) > 0.0:
        terms.append(b)
        n += 1
    return math.fsum(terms)


@settings(max_examples=50)
@given(st.integers(2, 10), st.floats(math.log(1e-4), math.log(50.0)))
def test_term_bound_ratios_do_not_increase(N, log_t):
    # the premise of _tail_bound: each of the three factors of b_{n+1}/b_n falls with n.
    # Computed in log space, the bounds keep it until they approach the subnormal range
    t = math.exp(log_t)
    bounds, n = [], 0
    while (b := _term_bound_1d(n, t, N)) > 1e-300:
        bounds.append(b)
        n += 1
    ratios = [b1 / b0 for b0, b1 in zip(bounds, bounds[1:])]
    for r0, r1 in zip(ratios, ratios[1:]):
        assert r1 <= r0 * (1.0 + 1e-13)


def test_term_bound_is_accurate_where_its_exponential_is_subnormal():
    # at N = 8, t = e^-4 the factor e^{-n(n+N-1)t} is subnormal from n = 196 on; multiplied
    # in linear space the bound was 9.5% off at n = 198 and 0.0 at n = 199 (true: 3.07e-302)
    t, N = math.exp(-4.0), 8
    with mpmath.workdps(40):
        want = [(2 * n + N - 1) * mpmath.binomial(n + N - 2, N - 2) ** 2
                * mpmath.exp(-eigenvalue(n, N) * mpmath.mpf(t)) for n in range(196, 230)]
        tail = mpmath.fsum(want[4:])
    for n, b in zip(range(196, 200), want):
        assert abs(_term_bound_1d(n, t, N) - b) <= 1e-12 * b
    # so the certificate at tol = 1e-302 is sound, where it was issued with achieved_bound 0.0
    tr = auto_truncation(t, N, 1e-302)
    assert tr.n_max == 199 and tail <= tr.achieved_bound <= 1e-302


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=50)
@given(st.data())
def test_issued_tail_bounds_are_sound_and_nearly_minimal(dim, data):
    certify, term_bound, _, _, _, N_min, _ = _CERTIFIERS[dim]
    N = data.draw(st.integers(N_min, 10))
    t = math.exp(data.draw(st.floats(math.log(1e-4), math.log(50.0))))
    tol = math.exp(data.draw(st.floats(math.log(1e-14), math.log(1e-6))))
    tr = certify(t, N, tol)
    assert tr.achieved_bound <= tol
    # at large t the tail is one term and the bound may round 1 ulp below it
    assert tr.achieved_bound >= _explicit_tail(tr.n_max + 1, t, N, term_bound) * (1.0 - 1e-14)
    assert _explicit_tail(tr.n_max - 1, t, N, term_bound) > tol


def _outcome(certify, *args):
    try:
        tr = certify(*args)
    except ValueError as exc:
        return str(exc)
    return tr.n_max, tr.tol, tr.achieved_bound.hex()


# N <= 120, t in [1e-12, 3], tol in [1e-300, 1e-6]: cutoffs on both sides of the
# peak of b_n, overflow refusals (N >= 42, where (2n+N-1) C(n+N-2, N-2)^2 overflows
# below 1e5 modes) and refusals past MAX_MODES
_SCAN_GRID = [
    (N, t, tol)
    for N in (3, 5, 10, 42, 60, 120)
    for t in (1e-12, 1e-6, 1e-4, 3e-3, 0.1, 3.0)
    for tol in (1e-300, 1e-12, 1e-6)
] + [(2, 1e-6, 1e-10), (2, 1e-3, 1e-300), (43, 1e-7, 1e-10), (7, 0.0183, 1e-295)]


@pytest.mark.parametrize("dim", [1, 2])
def test_cutoff_search_matches_the_linear_scan(dim):
    certify, term_bound, *_ = _CERTIFIERS[dim]
    for N, t, tol in _SCAN_GRID:
        if N < dim + 1:
            continue
        want = _outcome(auto_truncation_scan, t, N, tol, term_bound)
        assert _outcome(certify, t, N, tol) == want, (N, t, tol)


def test_eigen_transform_trivial_and_first_modes():
    for t, c, N in [(0.3, 0.2, 3), (1.0, 0.9, 5)]:
        assert eigen_transform_check(0, t, c, N) == pytest.approx(1.0, abs=1e-12)
    got = eigen_transform_check(1, 0.2, 0.3, 3)
    want = math.exp(-0.6) * jacobi_p(1, (1.0, 0.0), -0.4)
    assert got == pytest.approx(want, abs=1e-12)


def test_eigen_transform_quadrature_follows_the_series_degree():
    # at t = 1e-4 the series has hundreds of modes; a fixed 64-node rule was off by 3e-2
    assert eigen_transform_check(0, 1e-4, 0.3, 3) == pytest.approx(1.0, abs=1e-10)


@given(
    st.integers(0, 6),
    st.floats(math.log(1e-4), math.log(1e-3)),
    st.floats(0.0, 1.0),
    st.integers(2, 10),
)
def test_eigen_transform_below_t_1e_3(n, log_t, c, N):
    t = math.exp(log_t)
    want = math.exp(-eigenvalue(n, N) * t) * jacobi_p(n, (N - 2.0, 0.0), 2.0 * c - 1.0)
    # 4e-9 covers the Gauss-Jacobi rule, whose hundreds of nodes integrate the mass
    # at u = 0 to 1.1e-9 at worst (c = 0); the second term is the rounding of the
    # series, eps times its coefficients weighted by the mode norms, which reaches
    # 0.2 at c = 1, N = 10, t = 1e-4, where the check is off by 2e-4
    tr = auto_truncation(t, N, 1e-13)
    m = np.arange(tr.n_max + 1)
    pc = jacobi_table(tr.n_max, N - 2.0, 0.0, 2.0 * c - 1.0)
    coeffs = np.exp(-m * (m + N - 1.0) * t) * np.sqrt(2.0 * m + N - 1.0) * np.abs(pc)
    rounding = np.finfo(float).eps * coeffs.sum() / math.sqrt(2 * n + N - 1)
    got = eigen_transform_check(n, t, c, N)
    assert abs(got - want) <= 4e-9 * max(1.0, abs(want)) + rounding


def test_chapman_kolmogorov_small_time():
    # a fixed 64-node rule disagreed by 7e-4 here; the rule now follows n_t + n_s
    lhs, rhs = chapman_kolmogorov_check(1e-3, 1e-3, 0.4, 0.42, 4)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_chapman_kolmogorov_long_time_forgets_start():
    # s large: composition lands on the stationary density whatever c was
    N = 3
    lhs_a, _ = chapman_kolmogorov_check(0.2, 50.0, 0.1, 0.6, N)
    lhs_b, _ = chapman_kolmogorov_check(0.2, 50.0, 0.9, 0.6, N)
    stationary = (N - 1) * (1.0 - 0.6) ** (N - 2)
    assert lhs_a == pytest.approx(stationary, abs=1e-10)
    assert lhs_b == pytest.approx(stationary, abs=1e-10)


def test_chapman_kolmogorov_diagonal_positivity():
    lhs, rhs = chapman_kolmogorov_check(0.2, 0.2, 0.4, 0.4, 4)
    assert lhs > 0.0 and rhs > 0.0
    with pytest.raises(ValueError):
        chapman_kolmogorov_check(0.0, 0.1, 0.2, 0.3, 3)


def test_density_2d_stationary_limit():
    N = 5
    tr = auto_truncation_2d(60.0, N, 1e-12)
    want = (N - 1) * (N - 2) * (1.0 - 0.55) ** (N - 3)
    assert density_2d_values(60.0, (0.2, 0.2), [(0.25, 0.3)], N, tr)[0] == pytest.approx(
        want, abs=1e-11
    )


def test_density_2d_marginal_matches_1d_and_ignores_c2():
    N, t, u1 = 4, 0.3, 0.45
    inner = gauss_jacobi_rule(48, N - 3.0, 0.0)
    tr2 = auto_truncation_2d(t, N, 1e-12)
    tr1 = auto_truncation(t, N, 1e-12)
    pts = np.column_stack([np.full(len(inner.nodes), u1), (1.0 - u1) * inner.nodes])
    marginals = []
    for c2 in (0.05, 0.3, 0.6):
        series = kernel_series_2d(t, (0.3, c2), pts, N, tr2.n_max)
        marginals.append((1.0 - u1) ** (N - 2) * float(np.dot(inner.weights, series)))
    want = float(density_1d_values(t, 0.3, u1, N, tr1))
    for m in marginals:
        assert m == pytest.approx(want, abs=1e-8)


def test_density_2d_reversibility():
    N, t = 5, 0.25
    tr = auto_truncation_2d(t, N, 1e-12)
    c, u = (0.2, 0.3), (0.4, 0.15)
    sc = (1.0 - sum(c)) ** (N - 3)
    su = (1.0 - sum(u)) ** (N - 3)
    lhs = density_2d_values(t, c, [u], N, tr)[0] * sc
    rhs = density_2d_values(t, u, [c], N, tr)[0] * su
    assert lhs == pytest.approx(rhs, rel=1e-11)


@pytest.mark.parametrize("c", [(1.0, 0.0), (0.0, 1.0), (0.2, 0.3)])
def test_kernel_series_2d_is_the_simplex_q_sum(c):
    N, t, n_max = 4, 0.2, 8
    pts = [(1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (0.3, 0.5), (0.6, 0.1)]
    got = kernel_series_2d(t, c, pts, N, n_max)
    want = [
        sum(
            math.exp(-eigenvalue(n, N) * t)
            * simplex_q((n, j), N, c)
            * simplex_q((n, j), N, u)
            / simplex_q_norm_sq((n, j), N)
            for n in range(n_max + 1)
            for j in range(n + 1)
        )
        for u in pts
    ]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def _series_2d_terms(t, c, pts, N, n_max):
    """Every (n, j) term of the 2-simplex kernel series, one row per term, one column per point."""
    cu = np.vstack([c, pts])
    u1, u2 = cu[:, 0], cu[:, 1]
    rem = 1.0 - u1
    # where rem = 0 the inner factor is rem^j P_j = 0 for j >= 1 whatever z is
    z = np.clip(2.0 * u2 / np.where(rem > 0.0, rem, 1.0) - 1.0, -1.0, 1.0)
    inner_table = jacobi_table(n_max, N - 3.0, 0.0, z)
    rows = []
    for j in range(n_max + 1):
        outer = jacobi_table(n_max - j, N - 2.0 + 2.0 * j, 0.0, 2.0 * u1 - 1.0)
        q = outer * (rem**j * inner_table[j])
        n = np.arange(j, n_max + 1)
        w = np.exp(-n * (n + N - 1.0) * t) * (2.0 * n + N - 1.0) * (2.0 * j + N - 2.0)
        rows.append(w[:, None] * q[:, :1] * q[:, 1:])
    return np.vstack(rows)


_POINTS_2D = [(0.2, 0.3), (0.6, 0.1), (0.05, 0.9), (0.0, 0.0), (0.0, 1.0), (0.5, 0.5),
              (0.999, 0.001), (1.0, 0.0), (0.2, 0.7)]


@pytest.mark.parametrize("N", [3, 4, 6, 10])
@pytest.mark.parametrize("t", [1e-3, 1e-2, 0.1, 1.0])
@pytest.mark.parametrize("c", [(0.2, 0.3), (1.0, 0.0), (0.35, 0.65)])
def test_kernel_series_2d_matches_an_exactly_rounded_sum(N, t, c):
    n_max = auto_truncation_2d(t, N, 1e-12).n_max
    got = kernel_series_2d(t, c, _POINTS_2D, N, n_max)
    terms = _series_2d_terms(t, c, _POINTS_2D, N, n_max)
    for i in range(len(_POINTS_2D)):
        ref = math.fsum(terms[:, i])
        assert abs(got[i] - ref) <= 8.0 * np.finfo(float).eps * float(np.abs(terms[:, i]).sum())


def _points_sharing_u1():
    axis = np.linspace(0.0, 1.0, 9)
    grid = [(a, b) for a in axis for b in axis if a + b <= 1.0]
    return np.array(grid + [(0.3, 0.05), (0.3, 0.6), (0.999, 0.001)])


@pytest.mark.parametrize("N, t", [(4, 0.05), (6, 2e-3)])
def test_kernel_series_2d_values_do_not_depend_on_the_other_points(N, t):
    c, pts = (0.3, 0.2), _points_sharing_u1()
    n_max = auto_truncation_2d(t, N, 1e-12).n_max
    full = kernel_series_2d(t, c, pts, N, n_max)
    rng = np.random.default_rng(N)
    order = rng.permutation(len(pts))
    assert kernel_series_2d(t, c, pts[order], N, n_max).tobytes() == full[order].tobytes()
    for size in (2, 5, 17):
        subset = rng.choice(len(pts), size=size, replace=False)
        assert kernel_series_2d(t, c, pts[subset], N, n_max).tobytes() == full[subset].tobytes()


@pytest.mark.parametrize("N, t", [(4, 0.05), (6, 2e-3)])
def test_kernel_series_2d_shared_u1_matches_one_point_calls(N, t):
    c, pts = (0.3, 0.2), _points_sharing_u1()
    n_max = auto_truncation_2d(t, N, 1e-12).n_max
    full = kernel_series_2d(t, c, pts, N, n_max)
    one_at_a_time = np.array([kernel_series_2d(t, c, [p], N, n_max)[0] for p in pts])
    assert full.tobytes() == one_at_a_time.tobytes()


def test_density_2d_boundary_evaluation():
    N = 4
    tr = auto_truncation_2d(0.3, N, 1e-10)
    # the density vanishes on the diagonal face where the weight vanishes
    f = density_2d_values(0.3, (0.3, 0.3), [(0.6, 0.4), (1.0, 0.0)], N, tr)
    assert f[0] == pytest.approx(0.0, abs=1e-12)
    # u1 = 1 vertex is handled through the removable-singularity limit
    assert math.isfinite(f[1])


@st.composite
def _marginal_cases(draw):
    N = draw(st.integers(3, 10))
    t = math.exp(draw(st.floats(math.log(1e-3), 0.0)))
    # every barycentric coordinate of c is at least 0.05
    c1 = draw(st.floats(0.05, 0.9))
    c2 = 0.05 + draw(st.floats(0.0, 1.0)) * (0.9 - c1)
    u1 = draw(st.floats(0.02, 0.95))
    return N, t, (c1, c2), u1


@settings(max_examples=30)
@given(_marginal_cases())
def test_density_2d_u2_marginal_is_the_1d_density(case):
    N, t, c, u1 = case
    tr2 = auto_truncation_2d(t, N, 1e-12)
    # the series is a polynomial of degree n_max in u2, which this rule integrates exactly
    inner = gauss_jacobi_rule(tr2.n_max // 2 + 1, N - 3.0, 0.0)
    pts = np.column_stack([np.full(len(inner.nodes), u1), (1.0 - u1) * inner.nodes])
    series = kernel_series_2d(t, c, pts, N, tr2.n_max)
    marginal = (1.0 - u1) ** (N - 2) * float(np.dot(inner.weights, series))
    want = float(density_1d_values(t, c[0], u1, N, auto_truncation(t, N, 1e-12)))
    assert abs(marginal - want) <= 1e-10 * max(1.0, abs(want))
