"""Command-line front end: density grids, coefficient tables, Laplace checks,
simulation dumps, and the validation suite.

CSV outputs carry '#'-prefixed comment headers with the full parameter set
and library version; numbers are written with 17 significant digits so they
round-trip exactly.  Each command hands its arguments to the library call it
runs, which checks them; the command line checks only what no library call
sees.  Exit codes: 0 success, 1 failed validation, 2 usage error, including
any ValueError raised by a library check.  density1d, density2d, coeffs and
simulate run on numpy alone; laplace and validate load scipy.special, and
validate is imported only when it runs.
"""

import argparse
import contextlib
import functools
import json
import sys

import numpy as np

from . import __version__
from .coefficients import laplace_quadrature, laplace_series, solve_coefficients
from .heat_kernel import auto_truncation, auto_truncation_2d, density_1d_values, density_2d_values
from .sde import SdeConfig, simulate
from .special import jacobi_table, pochhammer


@contextlib.contextmanager
def _output(path):
    """The file every command writes to: stdout for "-", else path, closed on exit."""
    fh = sys.stdout if path == "-" else open(path, "w", newline="")
    try:
        yield fh
    finally:
        if fh is not sys.stdout:
            fh.close()


CSV_BLOCK_ROWS = 1024


def _write_csv(path, comments, header, rows):
    with _output(path) as fh:
        fh.write(f"# jacobi-heat {__version__}\n")
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        # "%.17g" % v writes the same bytes as format(v, ".17g") for every float; one
        # format call per block of rows, so memory stays bounded on large grids
        line = ",".join(["%.17g"] * len(header)) + "\n"
        rows = np.asarray(rows, dtype=float)
        for start in range(0, len(rows), CSV_BLOCK_ROWS):
            block = rows[start:start + CSV_BLOCK_ROWS]
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


def _parse_c(value, expect):
    parts = [float(p) for p in str(value).split(",")]
    if len(parts) != expect:
        raise ValueError(f"--c needs {expect} comma-separated value(s), got {value!r}")
    return parts


def _run_density1d(args):
    N, t, tol, grid = args.N, args.t, args.tol, args.grid
    (c,) = _parse_c(args.c, 1)
    if grid < 2:
        raise ValueError("density1d needs grid >= 2")
    tr = auto_truncation(t, N, tol)
    u = np.linspace(0.0, 1.0, grid)
    f = density_1d_values(t, c, u, N, tr)
    _write_csv(
        args.out,
        [
            f"command: density1d N={N} t={t!r} c={c!r} grid={grid} tol={tol!r}",
            f"truncation: n_max={tr.n_max} achieved_bound={tr.achieved_bound!r}",
        ],
        ["u", "f"],
        np.column_stack([u, f]),
    )
    return 0


def _run_density2d(args):
    N, t, tol, grid = args.N, args.t, args.tol, args.grid
    c = _parse_c(args.c, 2)
    if grid < 2:
        raise ValueError("density2d needs grid >= 2")
    tr = auto_truncation_2d(t, N, tol)
    # the grid points on the simplex, u1-major as in a loop over u1 then u2
    a, b = np.meshgrid(np.linspace(0.0, 1.0, grid), np.linspace(0.0, 1.0, grid), indexing="ij")
    inside = a + b <= 1.0 + 1e-12
    pts = np.column_stack([a[inside], b[inside]])
    f = density_2d_values(t, tuple(c), pts, N, tr)
    _write_csv(
        args.out,
        [
            f"command: density2d N={N} t={t!r} c=({c[0]!r},{c[1]!r}) grid={grid} tol={tol!r}",
            f"truncation: n_max={tr.n_max} achieved_bound={tr.achieved_bound!r}",
        ],
        ["u1", "u2", "f"],
        np.column_stack([pts, f]),
    )
    return 0


def _run_coeffs(args):
    N, n_max = args.N, args.n_max
    (c,) = _parse_c(args.c, 1)
    a = solve_coefficients(c, N, n_max)
    # closed_form_coefficient row by row, with one recurrence for every degree;
    # (N+n-1)_n grows with n, so once it overflows every later row divides by inf
    p = jacobi_table(n_max, N - 2.0, 0.0, 2.0 * c - 1.0)
    rows = []
    scale = 1.0
    for n in range(n_max + 1):
        if scale != np.inf:
            scale = pochhammer(N + n - 1.0, n)
        cf = p[n] / scale
        rows.append((n, a[n], cf, abs(a[n] - cf)))
    _write_csv(
        args.out,
        [f"command: coeffs N={N} c={c!r} n_max={n_max}"],
        ["n", "solve", "closed_form", "abs_diff"],
        rows,
    )
    return 0


def _run_laplace(args):
    N, t, n_max = args.N, args.t, args.n_max
    (c,) = _parse_c(args.c, 1)
    lams = [float(v) for v in str(args.lam).split(",")]
    quad = laplace_quadrature(c, lams, t, N)
    series = [laplace_series(c, lam, t, N, n_max) for lam in lams]
    _write_csv(
        args.out,
        [f"command: laplace N={N} t={t!r} c={c!r} n_max={n_max}"],
        ["lambda", "series", "quadrature", "abs_diff"],
        np.column_stack([lams, series, quad, np.abs(np.subtract(series, quad))]),
    )
    return 0


def _run_simulate(args):
    if args.out == "-":
        raise ValueError("simulate requires --out (CSV ensembles are large)")
    c = _parse_c(args.c, args.k)
    cfg = SdeConfig(
        N=args.N, k=args.k, t_final=args.t, dt=args.dt, paths=args.paths, seed=args.seed
    )
    ens = simulate(cfg, np.array(c))
    start = ",".join(repr(v) for v in c)
    _write_csv(
        args.out,
        [
            f"command: simulate N={cfg.N} k={cfg.k} t={cfg.t_final!r} c=({start})"
            f" paths={cfg.paths} dt={cfg.dt!r} seed={cfg.seed}"
        ],
        [f"u{i + 1}" for i in range(cfg.k)],
        ens.terminal_points,
    )
    return 0


def _run_validate(args):
    from .validate import run_validation  # validate loads scipy; no other command needs it

    report = run_validation(tier=args.tier, seed=args.seed)
    with _output(args.out) as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    failed = [c for c in report["checks"] if not c["pass"]]
    for c in failed:
        print(
            f"FAIL {c['check_name']}: measured {c['measured']:.6g} "
            f"exceeds tolerance {c['tolerance']:.6g}",
            file=sys.stderr,
        )
    return 0 if report["all_pass"] else 1


@functools.cache  # one parser per process: parse_args does not change it
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="jacobi-heat",
        description="Spectral simplex heat kernels, their identities, and a Monte Carlo cross-check.",
    )
    parser.add_argument("--version", action="version", version=f"jacobi-heat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    d1 = sub.add_parser("density1d", help="CSV grid of the 1-D transition density")
    d1.add_argument("--N", type=int, required=True)
    d1.add_argument("--t", type=float, required=True)
    d1.add_argument("--c", required=True)
    d1.add_argument("--grid", type=int, default=101)
    d1.add_argument("--tol", type=float, default=1e-10)
    d1.add_argument("--out", default="-")
    d1.set_defaults(run=_run_density1d)

    d2 = sub.add_parser("density2d", help="CSV grid of the 2-simplex transition density")
    d2.add_argument("--N", type=int, required=True)
    d2.add_argument("--t", type=float, required=True)
    d2.add_argument("--c", required=True, help="c1,c2")
    d2.add_argument("--grid", type=int, default=41)
    d2.add_argument("--tol", type=float, default=1e-10)
    d2.add_argument("--out", default="-")
    d2.set_defaults(run=_run_density2d)

    co = sub.add_parser("coeffs", help="CSV table: triangular solve vs closed form")
    co.add_argument("--N", type=int, required=True)
    co.add_argument("--c", required=True)
    co.add_argument("--n-max", dest="n_max", type=int, default=25)
    co.add_argument("--out", default="-")
    co.set_defaults(run=_run_coeffs)

    la = sub.add_parser("laplace", help="CSV: Laplace series vs quadrature check")
    la.add_argument("--N", type=int, required=True)
    la.add_argument("--t", type=float, required=True)
    la.add_argument("--c", required=True)
    la.add_argument("--lambda", dest="lam", required=True, help="comma-separated values")
    la.add_argument("--n-max", dest="n_max", type=int, default=60)
    la.add_argument("--out", default="-")
    la.set_defaults(run=_run_laplace)

    si = sub.add_parser("simulate", help="CSV dump of a terminal path ensemble")
    si.add_argument("--N", type=int, required=True)
    si.add_argument("--k", type=int, required=True)
    si.add_argument("--t", type=float, required=True)
    si.add_argument("--c", required=True, help="comma-separated start point")
    si.add_argument("--paths", type=int, default=10000)
    si.add_argument("--dt", type=float, default=1e-3)
    si.add_argument("--seed", type=int, default=0)
    si.add_argument("--out", required=True)
    si.set_defaults(run=_run_simulate)

    va = sub.add_parser("validate", help="run the validation suite, emit a JSON report")
    va.add_argument("--tier", choices=("quick", "full"), default="quick")
    va.add_argument("--seed", type=int, default=2024)
    va.add_argument("--out", default="-")
    va.set_defaults(run=_run_validate)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
