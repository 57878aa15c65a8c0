"""Executable validation suite: every structural identity with its tolerance.

Each check reports {check_name, params, measured, tolerance, pass}.  The
`quick` tier keeps Monte Carlo to 10^4 paths for sub-minute smoke runs; the
`full` tier runs 2*10^5 paths at dt = 1e-4.  Reports contain no timing or
environment data, so identical seeds give byte-identical JSON.

Every residual function the checks evaluate lives here too, beside the grids
and tolerances it is held to, so the route modules hold only the routes.
"""

import math

import numpy as np
from scipy.special import gammaincinv, hyp1f1, jv

from . import __version__
from .coefficients import (
    _laplace_rule,
    closed_form_coefficient,
    laplace_quadrature,
    laplace_series,
    solve_coefficients,
)
from .heat_kernel import (
    _require_time_and_dimension,
    auto_truncation,
    auto_truncation_2d,
    density_1d_values,
    density_2d_values,
    kernel_series_1d,
    kernel_series_2d,
)
from .operators import generalized_jacobi_op, operator_matrix, script_l_k
from .polynomials import SimplexPolynomial, dirichlet_weight_poly
from .quadrature import gauss_jacobi_rule, simplex_rule_2
from .sde import SdeConfig, density_ks_check, simulate
from .simplex_jacobi import simplex_q_polynomial
from .special import _require_bounded, _require_integer, _require_unit_interval
from .special import eigenvalue, jacobi_p, jacobi_table, pochhammer

TIERS = {
    "quick": {"paths": 10**4, "dt": 1e-3, "decay_rate_tol": 0.10},
    "full": {"paths": 2 * 10**5, "dt": 1e-4, "decay_rate_tol": 0.05},
}

T_GRID = (0.05, 0.2, 1.0)
C_GRID_1D = (0.0, 0.25, 0.5, 0.75, 1.0)
N_GRID_1D = (2, 3, 5, 10)
N_GRID_2D = (3, 4, 6)
C_GRID_2D = ((0.1, 0.1), (0.5, 0.2), (0.2, 0.5), (0.05, 0.6), (1 / 3, 1 / 3))
STENCIL_DT = 1e-4  # time step of heat_residual_1d's five-point stencil


def _check(name, params, residuals, tolerance):
    # np.max keeps a NaN residual, which then fails the comparison; max() would drop it
    measured = float(np.max(residuals))
    return {
        "check_name": name,
        "params": params,
        "measured": measured,
        "tolerance": float(tolerance),
        "pass": bool(measured <= tolerance),
    }


def _rel(a, b):
    m = max(abs(a), abs(b))
    return 0.0 if m == 0.0 else abs(a - b) / m


def check_coefficients():
    # each (N, c) system is solved once; the endpoint check reads the c = 0 and 1 solutions
    solved = {(N, c): solve_coefficients(c, N, 25) for N in (2, 3, 5, 8) for c in C_GRID_1D}
    res = []
    for (N, c), a in solved.items():
        res += [_rel(a[n], closed_form_coefficient(c, N, n)) for n in range(26)]
    yield _check(
        "coefficients.solve_vs_closed_form",
        {"N": [2, 3, 5, 8], "c": list(C_GRID_1D), "n_max": 25},
        res,
        1e-9,
    )
    res = []
    for N in (2, 3, 5, 8):
        a0, a1 = solved[N, 0.0], solved[N, 1.0]
        for n in range(26):
            rising = pochhammer(N + n - 1.0, n)
            res.append(_rel(a0[n], (-1.0) ** n / rising))
            res.append(_rel(a1[n], pochhammer(N - 1.0, n) / (math.factorial(n) * rising)))
    yield _check(
        "coefficients.endpoint_closed_forms",
        {"N": [2, 3, 5, 8], "c": [0.0, 1.0], "n_max": 25},
        res,
        1e-12,
    )


def check_neumann():
    res = []
    for N in (2, 3, 4):
        for c in (0.0, 0.3, 1.0):
            res += [neumann_identity_residual(c, N, x, 30) for x in (0.5, 1.0, 2.0)]
    yield _check(
        "coefficients.neumann_identity",
        {"N": [2, 3, 4], "c": [0.0, 0.3, 1.0], "x": [0.5, 1.0, 2.0], "n_max": 30},
        res,
        1e-12,
    )


def check_density_1d():
    res_norm = []
    res_pos = [0.0]  # a density above -achieved_bound everywhere measures 0
    u_grid = np.linspace(0.0, 1.0, 200)
    for N in N_GRID_1D:
        rule = gauss_jacobi_rule(64, N - 2.0, 0.0)
        for t in T_GRID:
            tr = auto_truncation(t, N, 1e-12)
            for c in C_GRID_1D:
                series, _ = kernel_series_1d(t, c, rule.nodes, N, tr.n_max)
                res_norm.append(abs(np.dot(rule.weights, series) - 1.0))
                f = density_1d_values(t, c, u_grid, N, tr)
                res_pos.append(-(float(f.min()) + tr.achieved_bound))
    yield _check(
        "density1d.normalization",
        {"N": list(N_GRID_1D), "t": list(T_GRID), "c": list(C_GRID_1D)},
        res_norm,
        1e-10,
    )
    yield _check(
        "density1d.positivity",
        {"N": list(N_GRID_1D), "t": list(T_GRID), "c": list(C_GRID_1D), "grid": 200},
        res_pos,
        1e-12,
    )

    res = []
    for N in N_GRID_1D:
        for t in (0.2, 1.0):
            for c in (0.25, 0.75):
                for n in range(7):
                    lhs = eigen_transform_check(n, t, c, N)
                    rhs = math.exp(-eigenvalue(n, N) * t) * jacobi_p(
                        n, (N - 2.0, 0.0), 2.0 * c - 1.0
                    )
                    res.append(abs(lhs - rhs))
    yield _check(
        "density1d.eigen_transform",
        {"N": list(N_GRID_1D), "t": [0.2, 1.0], "c": [0.25, 0.75], "n": "0..6"},
        res,
        1e-9,
    )

    res = []
    for N in (2, 3, 5):
        for t, s in ((0.1, 0.1), (0.25, 0.25), (0.2, 0.5)):
            for c, u in ((0.2, 0.6), (0.7, 0.3)):
                lhs, rhs = chapman_kolmogorov_check(t, s, c, u, N)
                res.append(abs(lhs - rhs))
    yield _check(
        "density1d.chapman_kolmogorov",
        {"N": [2, 3, 5], "(t,s)": [[0.1, 0.1], [0.25, 0.25], [0.2, 0.5]]},
        res,
        1e-8,
    )

    res = []
    grid = np.linspace(0.0, 1.0, 9)
    for N in (3, 5, 10):
        for t in (0.2, 1.0):
            tr = auto_truncation(t, N, 1e-12)
            # w[i] f_t(grid[i], grid[j]) must be symmetric in (i, j)
            wf = np.array([density_1d_values(t, c, grid, N, tr) for c in grid])
            wf *= ((1.0 - grid) ** (N - 2))[:, None]
            res += [_rel(a, b) for a, b in zip(wf.ravel(), wf.T.ravel())]
    yield _check(
        "density1d.reversibility_symmetry",
        {"N": [3, 5, 10], "t": [0.2, 1.0], "grid": 9},
        res,
        1e-11,
    )


def check_density_2d():
    res = []
    for N in N_GRID_2D:
        rule = simplex_rule_2(48, N)
        for t in T_GRID:
            tr = auto_truncation_2d(t, N, 1e-12)
            for c in C_GRID_2D:
                series = kernel_series_2d(t, c, rule.nodes, N, tr.n_max)
                res.append(abs(np.dot(rule.weights, series) - 1.0))
    yield _check(
        "density2d.normalization",
        {"N": list(N_GRID_2D), "t": list(T_GRID), "c": "5-point simplex grid"},
        res,
        1e-10,
    )

    # u2-marginals at t = 0.2 must equal the 1-D density and ignore c2; N = 4
    # at t = 0.3 adds a second time for the c2 spread
    t, c1, c2_grid, u1_grid = 0.2, 0.3, (0.1, 0.3, 0.55), (0.15, 0.4, 0.7)
    res, res_c2 = [], []
    for N in N_GRID_2D:
        inner = gauss_jacobi_rule(48, N - 3.0, 0.0)
        tr2 = auto_truncation_2d(t, N, 1e-12)
        f1 = density_1d_values(t, c1, np.array(u1_grid), N, auto_truncation(t, N, 1e-12))
        m = np.array(
            [_u2_marginals(t, (c1, c2), u1_grid, N, inner, tr2.n_max) for c2 in (0.25, *c2_grid)]
        )
        res.append(float(np.max(np.abs(m - f1))))
        res_c2.append(float(np.max(np.ptp(m[1:], axis=0))))
    yield _check(
        "density2d.marginal_matches_1d",
        {
            "N": list(N_GRID_2D),
            "t": t,
            "c": [c1, 0.25],
            "u1": list(u1_grid),
            "also": {"c": [[c1, c2] for c2 in c2_grid]},
        },
        res,
        1e-8,
    )

    N, t = 4, 0.3
    inner = gauss_jacobi_rule(48, N - 3.0, 0.0)
    tr2 = auto_truncation_2d(t, N, 1e-12)
    u1s = np.linspace(0.1, 0.8, 5)
    m = np.array([_u2_marginals(t, (c1, c2), u1s, N, inner, tr2.n_max) for c2 in c2_grid])
    res_c2.append(float(np.max(np.ptp(m, axis=0))))
    yield _check(
        "density2d.marginal_independent_of_c2",
        {
            "N": N,
            "t": t,
            "c1": c1,
            "c2": list(c2_grid),
            "also": {"N": list(N_GRID_2D), "t": 0.2, "u1": list(u1_grid)},
        },
        res_c2,
        1e-8,
    )

    res = []
    N, t = 4, 0.25
    tr = auto_truncation_2d(t, N, 1e-12)
    pts = [(0.2, 0.3), (0.5, 0.1), (0.15, 0.6), (0.35, 0.35)]
    for c in pts:
        for u in pts:
            sc = (1.0 - c[0] - c[1]) ** (N - 3)
            su = (1.0 - u[0] - u[1]) ** (N - 3)
            fa = float(density_2d_values(t, c, np.array([u]), N, tr)[0]) * sc
            fb = float(density_2d_values(t, u, np.array([c]), N, tr)[0]) * su
            res.append(_rel(fa, fb))
    yield _check(
        "density2d.reversibility_symmetry", {"N": N, "t": t, "points": 4}, res, 1e-11
    )


def check_operators():
    pairs = ((1, 3), (1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (3, 6))
    res = [script_l_k(dirichlet_weight_poly(k, N), N).max_abs_coeff() for k, N in pairs]
    yield _check(
        "operators.weight_annihilation", {"(k,N)": [list(p) for p in pairs]}, res, 1e-13
    )

    res = []
    rng = np.random.default_rng(7)
    for k, N in pairs:
        sk = dirichlet_weight_poly(k, N)
        for _ in range(3):
            g = _random_simplex_poly(rng, k, degree=5 if k == 1 else 3)
            lhs = script_l_k(g * sk, N)
            rhs = sk * generalized_jacobi_op(g, N)
            scale = max(1.0, lhs.max_abs_coeff())
            res.append(lhs.max_abs_diff(rhs) / scale)
    yield _check(
        "operators.conjugation_identities",
        {"(k,N)": [list(p) for p in pairs], "degree": 3, "degree_k1": 5},
        res,
        1e-13,
    )

    res = []
    for N in (4, 5):
        for n in range(7):
            for j in range(n + 1):
                q = simplex_q_polynomial((n, j), N)
                image = generalized_jacobi_op(q, N)
                expected = -float(eigenvalue(n, N)) * q
                res.append(image.max_abs_diff(expected) / max(q.max_abs_coeff(), 1.0))
    yield _check(
        "operators.simplex_eigenpolynomials", {"N": [4, 5], "n": "0..6"}, res, 1e-11
    )

    res = []
    for k in (1, 2):
        for N in (4, 6):
            mat, expos = operator_matrix(k, N, 6)
            eigs = np.sort(np.linalg.eigvals(mat).real)
            expected = np.sort([-float(eigenvalue(sum(e), N)) for e in expos])
            res.append(float(np.max(np.abs(eigs - expected))))
    yield _check(
        "operators.graded_spectrum", {"k": [1, 2], "N": [4, 6], "degree": 6}, res, 1e-9
    )


def check_heat_residual():
    res = []
    grid = np.linspace(0.0, 1.0, 41)
    for N in (3, 5):
        for t in (0.2, 0.5):
            n_max = auto_truncation(t, N, 1e-12).n_max
            res += [heat_residual_1d(t, c, N, n_max, grid) for c in (0.3, 0.5)]
    yield _check(
        "operators.heat_residual_1d",
        {"N": [3, 5], "t": [0.2, 0.5], "c": [0.3, 0.5], "dt": STENCIL_DT},
        res,
        1e-6,
    )


def check_face_identity():
    rng = np.random.default_rng(11)
    failures = 0
    pairs = ((2, 4), (2, 5), (3, 5), (2, 6), (3, 6))
    for k, N in pairs:
        sk = dirichlet_weight_poly(k, N)
        for _ in range(10):
            g = _random_simplex_poly(rng, k, degree=3)
            if not face_derivative_identity(g * sk):
                failures += 1
    # k = N-1 witness: the weight is constant, so derivative mismatches persist
    if face_derivative_identity(SimplexPolynomial.variable(0, 2)):
        failures += 1
    yield _check(
        "operators.face_derivative_dichotomy",
        {"(k,N)": [list(p) for p in pairs], "random_g": 10, "witness": [2, 3]},
        failures,
        0.0,
    )


def check_laplace():
    res = []
    lams = (-2.0, 0.0, 2.0, 5.0)
    for N in (3, 5):
        for t in (0.2, 0.5):
            for c in (0.3, 0.7):
                quad = laplace_quadrature(c, lams, t, N)
                res += [abs(laplace_series(c, lam, t, N, 60) - q) for lam, q in zip(lams, quad)]
    yield _check(
        "laplace.series_vs_quadrature",
        {"N": [3, 5], "t": [0.2, 0.5], "lambda": list(lams), "c": [0.3, 0.7]},
        res,
        1e-8,
    )

    res = []
    for N in (3, 4, 5):
        for c in (0.2, 0.3, 0.5, 0.7):
            for lam in (-2.0, 1.5, 5.0):
                for n in range(11):
                    lhs, rhs = inversion_term_identity(n, c, N, lam)
                    res.append(abs(lhs - rhs))
    yield _check(
        "laplace.inversion_term_identity",
        {"N": [3, 4, 5], "c": [0.2, 0.3, 0.5, 0.7], "lambda": [-2.0, 1.5, 5.0], "n": "0..10"},
        res,
        1e-10,
    )


def check_monte_carlo(tier, seed):
    cfgv = TIERS[tier]
    paths, dt = cfgv["paths"], cfgv["dt"]

    # clock consistency: decay rate of E[u1] - 1/N against the n = 1 eigenvalue
    N = 3
    cfg = SdeConfig(N=N, k=1, t_final=0.8, dt=dt, paths=paths, seed=seed)
    ens = simulate(cfg, np.array([0.9]), snapshot_times=(0.2, 0.4, 0.8))
    ts = np.array([0.2, 0.4, 0.8])
    gaps = np.array([abs(float(np.mean(ens.snapshots[t][:, 0])) - 1.0 / N) for t in ts])
    rate = -np.polyfit(ts, np.log(gaps), 1)[0]
    yield _check(
        "mc.mean_decay_rate",
        {"N": N, "k": 1, "c": 0.9, "paths": paths, "dt": dt, "t": [0.2, 0.4, 0.8]},
        abs(rate - N) / N,
        cfgv["decay_rate_tol"],
    )

    # KS against the 1-D spectral density on the clock ensemble: from c = 0.9 the law at
    # t = 0.8 is 0.09 from stationary, so a clock error shows; from c = 0.3 it would not.
    yield _check(
        "mc.ks_1d",
        {"N": N, "k": 1, "t": 0.8, "c": 0.9, "paths": paths, "dt": dt},
        density_ks_check(ens),
        3.0 * 1.63 / math.sqrt(paths),
    )

    # one (N, k) = (4, 3) ensemble on seed + 2 serves three gates, as its (u1, u2) follow
    # the 2-D law for every k.  Chi-square of (u1, u2) against the 2-D density; the quick
    # tier has too few paths to keep 25 cells above the 5-count floor.  The snapshots at
    # t - 2*delta and t - delta, delta 5% of the steps but at least 10, feed the
    # generator check below and leave the terminal points unchanged.
    N, t, c = 4, 0.4, (0.3, 0.2, 0.1)
    bins = 5 if tier == "full" else 3
    delta = max(round(0.05 * round(t / dt)), 10) * dt
    cfg = SdeConfig(N=N, k=3, t_final=t, dt=dt, paths=paths, seed=seed + 2)
    ens = simulate(cfg, np.array(c), snapshot_times=(t - 2.0 * delta, t - delta))
    params_k2 = {"N": N, "k": 2, "t": t, "c": list(c[:2]), "paths": paths, "dt": dt}
    yield _check(
        "mc.chi_square_2d",
        {**params_k2, "bins": bins},
        density_ks_check(ens, grid_bins=bins),
        2.0 * float(gammaincinv((bins * bins - 1) / 2, 0.99)),  # chi-square 99% quantile
    )

    # exact first and second moments of all three coordinates, relaxing from c
    res = []
    for i in range(3):
        x = ens.terminal_points[:, i]
        m1 = 1.0 / N + (c[i] - 1.0 / N) * math.exp(-N * t)
        for sample, exact in ((x, m1), (x**2, second_moment(t, N, c[i]))):
            se = float(np.std(sample, ddof=1)) / math.sqrt(paths)
            res.append(abs(float(np.mean(sample)) - exact) / (3.0 * se))
    yield _check(
        "mc.dirichlet_moments_k3",
        {"N": N, "k": 3, "t": t, "c": list(c), "paths": paths, "dt": dt},
        res,
        1.0,
    )

    # d/dt E[g] against E[generator g] on the (u1, u2) coordinates of the same ensemble
    polys = {"u1*u2": {(1, 1): 1.0}, "u1^2": {(2, 0): 1.0}, "u2^2+u1/2": {(0, 2): 1.0, (1, 0): 0.5}}
    res = []
    for terms in polys.values():
        lhs, rhs, band = generator_moment_check(ens, SimplexPolynomial(terms, 2))
        res.append(abs(lhs - rhs) / band)
    params = {**params_k2, "delta": delta, "g": list(polys)}
    yield _check("mc.generator_moment_k2", params, res, 1.0)


def neumann_identity_residual(c, N, x, n_max):
    """Residual of the Bessel-series identity solved by the coefficients.

    Compares sum_n (a_n/n!) Gamma(N+2n) (-1)^n J_{2n+N-1}(x) against
    J_0(sqrt(c) x) (x/2)^{N-1}, with a_n taken in closed form.  Small x only;
    the terms are bounded by (|x|/2)^{2n+N-1} / ((N+n-1)_n n!).  Refuses
    |x| > 5, x NaN and n_max not an integer >= 0.
    """
    _require_bounded("x", x, 5.0)
    _require_integer("n_max", n_max, 0)
    total = math.fsum(
        closed_form_coefficient(c, N, n)
        / math.factorial(n)
        * math.gamma(N + 2.0 * n)
        * (-1.0) ** n
        * jv(2 * n + N - 1.0, x)
        for n in range(n_max + 1)
    )
    rhs = jv(0.0, math.sqrt(c) * x) * (0.5 * x) ** (N - 1)
    return abs(total - rhs)


def inversion_term_identity(n, c, N, lam):
    """Both sides of the termwise Laplace-inversion identity.

    lhs = a_n lam^n 1F1(n+1, N+2n, lam); rhs = (2n+N-1) P_n^{0,N-2}(1-2c)
    times the Gauss-Jacobi integral of e^{lam*u} P_n^{0,N-2}(1-2u) against
    (1-u)^{N-2} du, for |lam| <= 10.  The (2n+N-1) factor is forced by the
    n = 0 case 1F1(1, N, lam) = (N-1) * int e^{lam*u} (1-u)^{N-2} du and by
    consistency with the spectral form of the density.  Refuses |lam| > 10,
    where the rule is not sized for e^{lam*u}, and lam NaN.
    """
    _require_bounded("lambda", lam, 10.0)
    lhs = closed_form_coefficient(c, N, n) * lam**n * hyp1f1(n + 1.0, N + 2.0 * n, lam)
    rule = _laplace_rule(n, N)
    pn = jacobi_table(n, 0.0, N - 2.0, 1.0 - 2.0 * rule.nodes)[n]
    integral = float(np.dot(rule.weights, np.exp(lam * rule.nodes) * pn))
    rhs = (2 * n + N - 1) * jacobi_p(n, (0.0, N - 2.0), 1.0 - 2.0 * c) * integral
    return lhs, rhs


def eigen_transform_check(n, t, c, N):
    """Project the density on the n-th Jacobi mode by quadrature.

    Returns the integral of P_n^{N-2,0}(2u-1) f_t(c, u) du, which the
    spectral form predicts to be e^{-n(n+N-1)t} P_n^{N-2,0}(2c-1).  Refuses
    n not an integer >= 0.
    """
    _require_integer("n", n, 0)
    tr = auto_truncation(t, N, 1e-13)
    # the integrand has degree n_max + n, which this rule integrates exactly
    rule = gauss_jacobi_rule(max(64, (tr.n_max + n) // 2 + 1), N - 2.0, 0.0)
    series, _ = kernel_series_1d(t, c, rule.nodes, N, tr.n_max)
    pn = jacobi_table(n, N - 2.0, 0.0, 2.0 * rule.nodes - 1.0)[n]
    return float(np.dot(rule.weights, series * pn))


def chapman_kolmogorov_check(t, s, c, u, N):
    """Semigroup composition: compare int f_t(c, v) f_s(v, u) dv with f_{t+s}(c, u).

    The v-integral is taken with Lebesgue measure; each density already
    carries its own weight factor, so the Gauss-Jacobi rule absorbs the
    (1-v)^{N-2} of the first factor and the second factor contributes its
    weight at the fixed endpoint u.  Returns (lhs, rhs).
    """
    if t <= 0.0 or s <= 0.0:
        raise ValueError("both time arguments must be positive")
    tr_t = auto_truncation(t, N, 1e-12)
    tr_s = auto_truncation(s, N, 1e-12)
    rule = gauss_jacobi_rule(max(64, (tr_t.n_max + tr_s.n_max) // 2 + 1), N - 2.0, 0.0)
    first, _ = kernel_series_1d(t, c, rule.nodes, N, tr_t.n_max)
    second, _ = kernel_series_1d(s, u, rule.nodes, N, tr_s.n_max)
    s1_u = (1.0 - u) ** (N - 2)
    lhs = float(np.dot(rule.weights, first * second)) * s1_u
    tr_ts = auto_truncation(t + s, N, 1e-12)
    rhs = float(density_1d_values(t + s, c, u, N, tr_ts))
    return lhs, rhs


def heat_residual_1d(t, c, N, n_max, u_grid):
    """Max residual of the time-differenced series against its exact derivative.

    The weight-free part g_t of the density, cut at degree n_max, is
    differentiated in t by the symmetric five-point stencil of step
    STENCIL_DT (fourth order; this is why t > 2*STENCIL_DT is required) and
    compared against the termwise derivative, where each series term is an
    eigenfunction and contributes -n(n+N-1) times itself.  Also refuses t not
    finite, N < 2 and c off [0, 1].
    """
    _require_time_and_dimension(t, N, 2)
    _require_unit_interval("c", c)
    dt = STENCIL_DT
    if t <= 2.0 * dt:
        raise ValueError(f"need t > 2*dt, got t={t}, dt={dt}")
    u = np.asarray(u_grid, dtype=float)
    g_pp, _ = kernel_series_1d(t + 2.0 * dt, c, u, N, n_max)
    g_p, _ = kernel_series_1d(t + dt, c, u, N, n_max)
    g_m, _ = kernel_series_1d(t - dt, c, u, N, n_max)
    g_mm, _ = kernel_series_1d(t - 2.0 * dt, c, u, N, n_max)
    fd = (-g_pp + 8.0 * g_p - 8.0 * g_m + g_mm) / (12.0 * dt)
    rates = np.array([-float(eigenvalue(n, N)) for n in range(n_max + 1)])
    exact, _ = kernel_series_1d(t, c, u, N, n_max, mode_factors=rates)
    return float(np.max(np.abs(fd - exact)))


def face_derivative_identity(f):
    """Whether every d_i f - d_j f vanishes on the face {u_1 + ... + u_k = 1}.

    The differences e_i - e_j span the directions of the face, so they all
    vanish there exactly when f is constant on it.  Checked by substituting
    u_1 = 1 - u_2 - ... - u_k once and requiring every non-constant
    coefficient to vanish to 1e-12 of f's largest; for k = 1 the face is the
    point u = 1 and the identity holds trivially.  Holds for f = g * s_k
    whenever the weight exponent N-k-1 is at least 1.
    """
    on_face = SimplexPolynomial.constant(1.0, f.k)
    for i in range(1, f.k):
        on_face = on_face - SimplexPolynomial.variable(i, f.k)
    scale = max(1.0, f.max_abs_coeff())
    rest = f.substitute(0, on_face)
    return all(abs(c) <= 1e-12 * scale for e, c in rest.terms.items() if any(e))


def second_moment(t, N, c):
    """Exact E[u_i(t)^2] of the diffusion started at u_i = c.

    The generator sends u_i^2 to -2(N+1) u_i^2 + 4 u_i and E[u_i] is
    1/N + (c - 1/N) e^{-Nt}, so m = E[u_i^2] solves m' = -2(N+1) m + 4/N +
    4(c - 1/N) e^{-Nt}: the stationary s = 2/(N(N+1)), the e^{-Nt} mode's
    b = 4(c - 1/N)/(N+2), and the e^{-2(N+1)t} mode's c^2 - s - b from m(0) = c^2.
    """
    s = 2.0 / (N * (N + 1))
    b = 4.0 * (c - 1.0 / N) / (N + 2)
    return s + b * math.exp(-N * t) + (c * c - s - b) * math.exp(-2.0 * (N + 1) * t)


def generator_moment_check(ens, test_poly):
    """Compare d/dt E[g(U_t)] (finite differences) with E[(generator g)(U_t)].

    The ensemble's two snapshots, at t - 2*delta and t - delta for its horizon
    t, and its terminal points give the time derivative centered at t - delta,
    where the generator average is taken.  test_poly reads the first
    test_poly.k coordinates, whose generator is the same for every k of the
    ensemble.  Returns (lhs, rhs, band) where band combines three standard
    errors of both sides with an allowance for the Euler and stencil biases.
    """
    if test_poly.total_degree() > 4:
        raise ValueError("test polynomial degree must be <= 4")
    cfg, k = ens.config, test_poly.k
    t0, t1 = sorted(ens.snapshots)
    delta = cfg.t_final - t1
    g0 = test_poly(ens.snapshots[t0][:, :k])
    fd_samples = (test_poly(ens.terminal_points[:, :k]) - g0) / (cfg.t_final - t0)
    rhs_samples = generalized_jacobi_op(test_poly, cfg.N)(ens.snapshots[t1][:, :k])
    lhs = float(np.mean(fd_samples))
    rhs = float(np.mean(rhs_samples))
    se = math.hypot(
        float(np.std(fd_samples, ddof=1)) / math.sqrt(cfg.paths),
        float(np.std(rhs_samples, ddof=1)) / math.sqrt(cfg.paths),
    )
    band = 3.0 * se + 10.0 * cfg.dt + delta**2
    return lhs, rhs, band


def _u2_marginals(t, c, u1s, N, inner, n_max):
    """Integrals over u2 of the 2-D density at each u1 in u1s, by the Gauss-Jacobi rule `inner`."""
    u1 = np.repeat(u1s, len(inner.nodes))
    pts = np.column_stack([u1, (1.0 - u1) * np.tile(inner.nodes, len(u1s))])
    series = kernel_series_2d(t, c, pts, N, n_max)
    return (1.0 - np.asarray(u1s)) ** (N - 2) * (series.reshape(len(u1s), -1) @ inner.weights)


def _random_simplex_poly(rng, k, degree):
    terms = {}
    for _ in range(4):
        expo = tuple(int(e) for e in rng.integers(0, degree + 1, size=k))
        if sum(expo) <= degree:
            terms[expo] = float(rng.standard_normal())
    terms.setdefault((0,) * k, 1.0)
    return SimplexPolynomial(terms, k)


def run_validation(tier="quick", seed=2024):
    """Run every check of the requested tier and return the report dict."""
    if tier not in TIERS:
        raise ValueError(f"unknown tier {tier!r}; expected one of {sorted(TIERS)}")
    checks = []
    for group in (
        check_coefficients(),
        check_neumann(),
        check_density_1d(),
        check_density_2d(),
        check_operators(),
        check_heat_residual(),
        check_face_identity(),
        check_laplace(),
        check_monte_carlo(tier, seed),
    ):
        checks.extend(group)
    return {
        "package": "jacobi-heat",
        "version": __version__,
        "tier": tier,
        "seed": int(seed),
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }
