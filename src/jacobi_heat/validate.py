"""Executable validation suite: every structural identity with its tolerance.

Each check reports {check_name, params, measured, tolerance, pass}.  The
`quick` tier keeps Monte Carlo to 10^4 paths for sub-minute smoke runs; the
`full` tier runs 2*10^5 paths at dt = 1e-4.  Reports contain no timing or
environment data, so identical seeds give byte-identical JSON.
"""

import math

import numpy as np
from scipy.stats import chi2 as chi2_dist

from . import __version__
from .coefficients import (
    closed_form_coefficient,
    inversion_term_identity,
    laplace_quadrature,
    laplace_series,
    neumann_identity_residual,
    solve_coefficients,
)
from .heat_kernel import (
    auto_truncation,
    auto_truncation_2d,
    chapman_kolmogorov_check,
    density_1d_values,
    density_2d_values,
    eigen_transform_check,
    kernel_series_1d,
    kernel_series_2d,
)
from .operators import (
    face_derivative_identity,
    generalized_jacobi_op,
    heat_residual_1d,
    operator_matrix,
    script_l_k,
)
from .polynomials import SimplexPolynomial, dirichlet_weight_poly
from .quadrature import gauss_jacobi_rule, simplex_rule_2
from .sde import SdeConfig, density_ks_check, simulate
from .simplex_jacobi import simplex_q_polynomial
from .special import eigenvalue, jacobi_p, pochhammer

TIERS = {
    "quick": {"paths": 10**4, "dt": 1e-3, "decay_rate_tol": 0.10},
    "full": {"paths": 2 * 10**5, "dt": 1e-4, "decay_rate_tol": 0.05},
}

T_GRID = (0.05, 0.2, 1.0)
C_GRID_1D = (0.0, 0.25, 0.5, 0.75, 1.0)
N_GRID_1D = (2, 3, 5, 10)
N_GRID_2D = (3, 4, 6)
C_GRID_2D = ((0.1, 0.1), (0.5, 0.2), (0.2, 0.5), (0.05, 0.6), (1 / 3, 1 / 3))


def _check(name, params, measured, tolerance):
    return {
        "check_name": name,
        "params": params,
        "measured": float(measured),
        "tolerance": float(tolerance),
        "pass": bool(measured <= tolerance),
    }


def _rel(a, b):
    m = max(abs(a), abs(b))
    return 0.0 if m == 0.0 else abs(a - b) / m


def check_coefficients():
    worst = 0.0
    for N in (2, 3, 5, 8):
        for c in C_GRID_1D:
            a = solve_coefficients(c, N, 25)
            for n in range(26):
                worst = max(worst, _rel(a[n], closed_form_coefficient(c, N, n)))
    yield _check(
        "coefficients.solve_vs_closed_form",
        {"N": [2, 3, 5, 8], "c": list(C_GRID_1D), "n_max": 25},
        worst,
        1e-9,
    )
    worst = 0.0
    for N in (2, 3, 5, 8):
        a0 = solve_coefficients(0.0, N, 25)
        a1 = solve_coefficients(1.0, N, 25)
        for n in range(26):
            worst = max(worst, _rel(a0[n], (-1.0) ** n / pochhammer(N + n - 1.0, n)))
            worst = max(
                worst,
                _rel(
                    a1[n],
                    pochhammer(N - 1.0, n)
                    / (math.factorial(n) * pochhammer(N + n - 1.0, n)),
                ),
            )
    yield _check(
        "coefficients.endpoint_closed_forms",
        {"N": [2, 3, 5, 8], "c": [0.0, 1.0], "n_max": 25},
        worst,
        1e-12,
    )


def check_neumann():
    worst = 0.0
    for N in (2, 4):
        for c in (0.0, 0.3, 1.0):
            for x in (0.5, 1.0, 2.0):
                worst = max(worst, neumann_identity_residual(c, N, x, 30))
    yield _check(
        "coefficients.neumann_identity",
        {"N": [2, 4], "c": [0.0, 0.3, 1.0], "x": [0.5, 1.0, 2.0], "n_max": 30},
        worst,
        1e-12,
    )


def check_density_1d():
    worst_norm = 0.0
    worst_pos = 0.0
    u_grid = np.linspace(0.0, 1.0, 200)
    for N in N_GRID_1D:
        rule = gauss_jacobi_rule(64, N - 2.0, 0.0)
        for t in T_GRID:
            tr = auto_truncation(t, N, 1e-12)
            for c in C_GRID_1D:
                series, _ = kernel_series_1d(t, c, rule.nodes, N, tr.n_max)
                worst_norm = max(worst_norm, abs(np.dot(rule.weights, series) - 1.0))
                f = density_1d_values(t, c, u_grid, N, tr)
                worst_pos = max(worst_pos, -(float(f.min()) + tr.achieved_bound))
    yield _check(
        "density1d.normalization",
        {"N": list(N_GRID_1D), "t": list(T_GRID), "c": list(C_GRID_1D)},
        worst_norm,
        1e-10,
    )
    yield _check(
        "density1d.positivity",
        {"N": list(N_GRID_1D), "t": list(T_GRID), "c": list(C_GRID_1D), "grid": 200},
        max(worst_pos, 0.0),
        1e-12,
    )

    worst = 0.0
    for N in N_GRID_1D:
        for t in (0.2, 1.0):
            for c in (0.25, 0.75):
                for n in range(7):
                    lhs = eigen_transform_check(n, t, c, N)
                    rhs = math.exp(-eigenvalue(n, N) * t) * jacobi_p(
                        n, (N - 2.0, 0.0), 2.0 * c - 1.0
                    )
                    worst = max(worst, abs(lhs - rhs))
    yield _check(
        "density1d.eigen_transform",
        {"N": list(N_GRID_1D), "t": [0.2, 1.0], "c": [0.25, 0.75], "n": "0..6"},
        worst,
        1e-9,
    )

    worst = 0.0
    for N in (2, 3, 5):
        for t, s in ((0.1, 0.1), (0.25, 0.25), (0.2, 0.5)):
            for c, u in ((0.2, 0.6), (0.7, 0.3)):
                lhs, rhs = chapman_kolmogorov_check(t, s, c, u, N)
                worst = max(worst, abs(lhs - rhs))
    yield _check(
        "density1d.chapman_kolmogorov",
        {"N": [2, 3, 5], "(t,s)": [[0.1, 0.1], [0.25, 0.25], [0.2, 0.5]]},
        worst,
        1e-8,
    )

    worst = 0.0
    grid = np.linspace(0.0, 1.0, 9)
    for N in (3, 5, 10):
        for t in (0.2, 1.0):
            tr = auto_truncation(t, N, 1e-12)
            # w[i] f_t(grid[i], grid[j]) must be symmetric in (i, j)
            wf = np.array([density_1d_values(t, c, grid, N, tr) for c in grid])
            wf *= ((1.0 - grid) ** (N - 2))[:, None]
            for a, b in zip(wf.ravel(), wf.T.ravel()):
                worst = max(worst, _rel(a, b))
    yield _check(
        "density1d.reversibility_symmetry",
        {"N": [3, 5, 10], "t": [0.2, 1.0], "grid": 9},
        worst,
        1e-11,
    )


def check_density_2d():
    worst = 0.0
    for N in N_GRID_2D:
        rule = simplex_rule_2(48, N)
        for t in T_GRID:
            tr = auto_truncation_2d(t, N, 1e-12)
            for c in C_GRID_2D:
                series, _ = kernel_series_2d(t, c, rule.nodes, N, tr.n_max)
                worst = max(worst, abs(np.dot(rule.weights, series) - 1.0))
    yield _check(
        "density2d.normalization",
        {"N": list(N_GRID_2D), "t": list(T_GRID), "c": "5-point simplex grid"},
        worst,
        1e-10,
    )

    # u2-marginals at t = 0.2 must equal the 1-D density and ignore c2; N = 4
    # at t = 0.3 adds a second time for the c2 spread
    t, c1, c2_grid, u1_grid = 0.2, 0.3, (0.1, 0.3, 0.55), (0.15, 0.4, 0.7)
    worst = worst_c2 = 0.0
    for N in N_GRID_2D:
        inner = gauss_jacobi_rule(48, N - 3.0, 0.0)
        tr2 = auto_truncation_2d(t, N, 1e-12)
        f1 = density_1d_values(t, c1, np.array(u1_grid), N, auto_truncation(t, N, 1e-12))
        m = np.array(
            [_u2_marginals(t, (c1, c2), u1_grid, N, inner, tr2.n_max) for c2 in (0.25, *c2_grid)]
        )
        worst = max(worst, float(np.max(np.abs(m - f1))))
        worst_c2 = max(worst_c2, float(np.max(np.ptp(m[1:], axis=0))))
    yield _check(
        "density2d.marginal_matches_1d",
        {
            "N": list(N_GRID_2D),
            "t": t,
            "c": [c1, 0.25],
            "u1": list(u1_grid),
            "also": {"c": [[c1, c2] for c2 in c2_grid]},
        },
        worst,
        1e-8,
    )

    N, t = 4, 0.3
    inner = gauss_jacobi_rule(48, N - 3.0, 0.0)
    tr2 = auto_truncation_2d(t, N, 1e-12)
    u1s = np.linspace(0.1, 0.8, 5)
    m = np.array([_u2_marginals(t, (c1, c2), u1s, N, inner, tr2.n_max) for c2 in c2_grid])
    worst_c2 = max(worst_c2, float(np.max(np.ptp(m, axis=0))))
    yield _check(
        "density2d.marginal_independent_of_c2",
        {
            "N": N,
            "t": t,
            "c1": c1,
            "c2": list(c2_grid),
            "also": {"N": list(N_GRID_2D), "t": 0.2, "u1": list(u1_grid)},
        },
        worst_c2,
        1e-8,
    )

    worst = 0.0
    N, t = 4, 0.25
    tr = auto_truncation_2d(t, N, 1e-12)
    pts = [(0.2, 0.3), (0.5, 0.1), (0.15, 0.6), (0.35, 0.35)]
    for c in pts:
        for u in pts:
            sc = (1.0 - c[0] - c[1]) ** (N - 3)
            su = (1.0 - u[0] - u[1]) ** (N - 3)
            fa = float(density_2d_values(t, c, np.array([u]), N, tr)[0]) * sc
            fb = float(density_2d_values(t, u, np.array([c]), N, tr)[0]) * su
            worst = max(worst, _rel(fa, fb))
    yield _check(
        "density2d.reversibility_symmetry", {"N": N, "t": t, "points": 4}, worst, 1e-11
    )


def check_operators():
    pairs = ((1, 3), (1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (3, 6))
    worst = 0.0
    for k, N in pairs:
        worst = max(worst, script_l_k(dirichlet_weight_poly(k, N), N).max_abs_coeff())
    yield _check(
        "operators.weight_annihilation", {"(k,N)": [list(p) for p in pairs]}, worst, 1e-13
    )

    worst = 0.0
    rng = np.random.default_rng(7)
    for k, N in pairs:
        sk = dirichlet_weight_poly(k, N)
        for _ in range(3):
            g = _random_simplex_poly(rng, k, degree=5 if k == 1 else 3)
            lhs = script_l_k(g * sk, N)
            rhs = sk * generalized_jacobi_op(g, N)
            scale = max(1.0, lhs.max_abs_coeff())
            worst = max(worst, lhs.max_abs_diff(rhs) / scale)
    yield _check(
        "operators.conjugation_identities",
        {"(k,N)": [list(p) for p in pairs], "degree": 3, "degree_k1": 5},
        worst,
        1e-13,
    )

    worst = 0.0
    for N in (4, 5):
        for n in range(7):
            for j in range(n + 1):
                q = simplex_q_polynomial((n, j), N)
                image = generalized_jacobi_op(q, N)
                expected = -float(eigenvalue(n, N)) * q
                worst = max(worst, image.max_abs_diff(expected) / max(q.max_abs_coeff(), 1.0))
    yield _check(
        "operators.simplex_eigenpolynomials", {"N": [4, 5], "n": "0..6"}, worst, 1e-11
    )

    worst = 0.0
    for k in (1, 2):
        for N in (4, 6):
            mat, expos = operator_matrix(generalized_jacobi_op, k, N, 6)
            eigs = np.sort(np.linalg.eigvals(mat).real)
            expected = np.sort([-float(eigenvalue(sum(e), N)) for e in expos])
            worst = max(worst, float(np.max(np.abs(eigs - expected))))
    yield _check(
        "operators.graded_spectrum", {"k": [1, 2], "N": [4, 6], "degree": 6}, worst, 1e-9
    )


def check_heat_residual():
    worst = 0.0
    grid = np.linspace(0.0, 1.0, 41)
    for N in (3, 5):
        for t in (0.2, 0.5):
            tr = auto_truncation(t, N, 1e-12)
            for c in (0.3, 0.5):
                worst = max(worst, heat_residual_1d(t, c, N, tr, grid, dt=1e-4))
    yield _check(
        "operators.heat_residual_1d",
        {"N": [3, 5], "t": [0.2, 0.5], "c": [0.3, 0.5], "dt": 1e-4},
        worst,
        1e-6,
    )


def check_face_identity():
    rng = np.random.default_rng(11)
    failures = 0
    trials = 0
    pairs = ((2, 4), (2, 5), (3, 5), (2, 6), (3, 6))
    for k, N in pairs:
        sk = dirichlet_weight_poly(k, N)
        for _ in range(10):
            g = _random_simplex_poly(rng, k, degree=3)
            trials += 1
            if not face_derivative_identity(g * sk, k, N):
                failures += 1
    # k = N-1 witness: the weight is constant, so derivative mismatches persist
    witness_ok = not face_derivative_identity(SimplexPolynomial.variable(0, 2), 2, 3)
    if not witness_ok:
        failures += 1
    yield _check(
        "operators.face_derivative_dichotomy",
        {"(k,N)": [list(p) for p in pairs], "random_g": 10, "witness": [2, 3]},
        failures,
        0.0,
    )


def check_laplace():
    worst = 0.0
    lams = (-2.0, 0.0, 2.0, 5.0)
    for N in (3, 5):
        for t in (0.2, 0.5):
            for c in (0.3, 0.7):
                quad = laplace_quadrature(c, lams, t, N)
                for lam, q in zip(lams, quad):
                    worst = max(worst, abs(laplace_series(c, lam, t, N, 60) - q))
    yield _check(
        "laplace.series_vs_quadrature",
        {"N": [3, 5], "t": [0.2, 0.5], "lambda": list(lams), "c": [0.3, 0.7]},
        worst,
        1e-8,
    )

    worst = 0.0
    for N in (3, 5):
        for c in (0.3, 0.7):
            for lam in (-2.0, 1.5, 5.0):
                for n in range(11):
                    lhs, rhs = inversion_term_identity(n, c, N, lam)
                    worst = max(worst, abs(lhs - rhs))
    yield _check(
        "laplace.inversion_term_identity",
        {"N": [3, 5], "c": [0.3, 0.7], "lambda": [-2.0, 1.5, 5.0], "n": "0..10"},
        worst,
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

    # KS against the 1-D spectral density
    N, t, c = 3, 0.5, 0.3
    cfg = SdeConfig(N=N, k=1, t_final=t, dt=dt, paths=paths, seed=seed + 1)
    ens = simulate(cfg, np.array([c]))
    tr = auto_truncation(t, N, 1e-10)
    stat = density_ks_check(ens, lambda u: density_1d_values(t, c, u, N, tr))
    yield _check(
        "mc.ks_1d",
        {"N": N, "k": 1, "t": t, "c": c, "paths": paths, "dt": dt},
        stat,
        3.0 * 1.63 / math.sqrt(paths),
    )

    # chi-square against the 2-D spectral density; the quick tier has too few
    # paths to keep 25 cells above the 5-count floor
    N, t, c = 4, 0.4, (0.3, 0.2)
    bins = 5 if tier == "full" else 3
    cfg = SdeConfig(N=N, k=2, t_final=t, dt=dt, paths=paths, seed=seed + 2)
    ens = simulate(cfg, np.array(c))
    tr = auto_truncation_2d(t, N, 1e-10)
    stat = density_ks_check(
        ens,
        lambda u1, u2: density_2d_values(t, c, np.column_stack([u1, u2]), N, tr),
        grid_bins=bins,
    )
    yield _check(
        "mc.chi_square_2d",
        {"N": N, "k": 2, "t": t, "c": list(c), "paths": paths, "dt": dt, "bins": bins},
        stat,
        float(chi2_dist.ppf(0.99, bins * bins - 1)),
    )

    # stationary Dirichlet moments for three projected coordinates
    N, k = 6, 3
    cfg = SdeConfig(N=N, k=k, t_final=0.5, dt=dt, paths=paths, seed=seed + 3)
    ens = simulate(cfg, np.full(k, 1.0 / N))
    pts = ens.terminal_points
    worst = 0.0
    for i in range(k):
        m1 = float(np.mean(pts[:, i]))
        se1 = float(np.std(pts[:, i], ddof=1)) / math.sqrt(paths)
        worst = max(worst, abs(m1 - 1.0 / N) / (3.0 * se1))
        m2 = float(np.mean(pts[:, i] ** 2))
        se2 = float(np.std(pts[:, i] ** 2, ddof=1)) / math.sqrt(paths)
        worst = max(worst, abs(m2 - 2.0 / (N * (N + 1))) / (3.0 * se2))
    yield _check(
        "mc.dirichlet_moments_k3",
        {"N": N, "k": k, "t": 0.5, "paths": paths, "dt": dt},
        worst,
        1.0,
    )


def _u2_marginals(t, c, u1s, N, inner, n_max):
    """Integrals over u2 of the 2-D density at each u1 in u1s, by the Gauss-Jacobi rule `inner`."""
    u1 = np.repeat(u1s, len(inner.nodes))
    pts = np.column_stack([u1, (1.0 - u1) * np.tile(inner.nodes, len(u1s))])
    series, _ = kernel_series_2d(t, c, pts, N, n_max)
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
