"""Command-line front end: density grids, coefficient tables, Laplace checks,
simulation dumps, and the validation suite.

CSV outputs carry '#'-prefixed comment headers with the full parameter set
and library version; numbers are written with 17 significant digits so they
round-trip exactly.  Exit codes: 0 success, 1 failed validation, 2 usage
error.
"""

import argparse
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .coefficients import closed_form_coefficient, laplace_series, solve_coefficients
from .heat_kernel import (
    auto_truncation,
    auto_truncation_2d,
    density_1d_values,
    density_2d_values,
    kernel_series_1d,
)
from .quadrature import gauss_jacobi_rule
from .sde import SdeConfig, export_csv, simulate
from .validate import run_validation

COMMANDS = ("density1d", "density2d", "coeffs", "laplace", "simulate", "validate")


@dataclass
class RunManifest:
    """A fully validated CLI request."""

    command: str
    params: dict = field(default_factory=dict)
    output_path: str = "-"


class ManifestError(ValueError):
    """Raised when a manifest fails parameter validation."""


def _fmt(x):
    return format(float(x), ".17g")


def _open_out(path):
    return sys.stdout if path == "-" else open(path, "w")


def _write_csv(path, comments, header, rows):
    fh = _open_out(path)
    try:
        fh.write(f"# jacobi-heat {__version__}\n")
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    finally:
        if fh is not sys.stdout:
            fh.close()


def _parse_c(value, expect):
    parts = [float(p) for p in str(value).split(",")]
    if len(parts) != expect:
        raise ManifestError(f"--c needs {expect} comma-separated value(s), got {value!r}")
    return parts


def _run_density1d(m):
    p = m.params
    N, t, tol, grid = p["N"], p["t"], p["tol"], p["grid"]
    (c,) = _parse_c(p["c"], 1)
    if N < 2 or t <= 0.0 or not (0.0 <= c <= 1.0) or grid < 2:
        raise ManifestError("density1d needs N >= 2, t > 0, c in [0, 1], grid >= 2")
    tr = auto_truncation(t, N, tol)
    u = np.linspace(0.0, 1.0, grid)
    f = density_1d_values(t, c, u, N, tr)
    _write_csv(
        m.output_path,
        [
            f"command: density1d N={N} t={t!r} c={c!r} grid={grid} tol={tol!r}",
            f"truncation: n_max={tr.n_max} achieved_bound={tr.achieved_bound!r}",
        ],
        ["u", "f"],
        zip(u, f),
    )
    return 0


def _run_density2d(m):
    p = m.params
    N, t, tol, grid = p["N"], p["t"], p["tol"], p["grid"]
    c = _parse_c(p["c"], 2)
    if N < 3 or t <= 0.0 or grid < 2:
        raise ManifestError("density2d needs N >= 3, t > 0, grid >= 2")
    if c[0] < 0 or c[1] < 0 or c[0] + c[1] > 1.0:
        raise ManifestError("c must lie in the closed 2-simplex")
    tr = auto_truncation_2d(t, N, tol)
    axis = np.linspace(0.0, 1.0, grid)
    pts = np.array([(a, b) for a in axis for b in axis if a + b <= 1.0 + 1e-12])
    f = density_2d_values(t, tuple(c), pts, N, tr)
    _write_csv(
        m.output_path,
        [
            f"command: density2d N={N} t={t!r} c=({c[0]!r},{c[1]!r}) grid={grid} tol={tol!r}",
            f"truncation: n_max={tr.n_max} achieved_bound={tr.achieved_bound!r}",
        ],
        ["u1", "u2", "f"],
        ((a, b, v) for (a, b), v in zip(pts, f)),
    )
    return 0


def _run_coeffs(m):
    p = m.params
    N, n_max = p["N"], p["n_max"]
    (c,) = _parse_c(p["c"], 1)
    if N < 2 or n_max < 0 or not (0.0 <= c <= 1.0):
        raise ManifestError("coeffs needs N >= 2, n_max >= 0, c in [0, 1]")
    table = solve_coefficients(c, N, n_max)
    rows = []
    for n in range(n_max + 1):
        cf = closed_form_coefficient(c, N, n)
        rows.append((n, table.a[n], cf, abs(table.a[n] - cf)))
    _write_csv(
        m.output_path,
        [f"command: coeffs N={N} c={c!r} n_max={n_max}"],
        ["n", "solve", "closed_form", "abs_diff"],
        rows,
    )
    return 0


def _run_laplace(m):
    p = m.params
    N, t, n_max = p["N"], p["t"], p["n_max"]
    (c,) = _parse_c(p["c"], 1)
    lams = [float(v) for v in str(p["lambda"]).split(",")]
    if N < 2 or t <= 0.0 or not (0.0 <= c <= 1.0):
        raise ManifestError("laplace needs N >= 2, t > 0, c in [0, 1]")
    if any(abs(lam) > 10.0 for lam in lams):
        raise ManifestError("|lambda| must be <= 10")
    rule = gauss_jacobi_rule(64, N - 2.0, 0.0)
    tr = auto_truncation(t, N, 1e-13)
    series_u, _ = kernel_series_1d(t, c, rule.nodes, N, tr.n_max)
    rows = []
    for lam in lams:
        val = laplace_series(c, lam, t, N, n_max)
        quad = float(np.dot(rule.weights, np.exp(lam * rule.nodes) * series_u))
        rows.append((lam, val, quad, abs(val - quad)))
    _write_csv(
        m.output_path,
        [f"command: laplace N={N} t={t!r} c={c!r} n_max={n_max}"],
        ["lambda", "series", "quadrature", "abs_diff"],
        rows,
    )
    return 0


def _run_simulate(m):
    if m.output_path == "-":
        raise ManifestError("simulate requires --out (CSV ensembles are large)")
    p = m.params
    c = _parse_c(p["c"], p["k"])
    cfg = SdeConfig(
        N=p["N"], k=p["k"], t_final=p["t"], dt=p["dt"], paths=p["paths"], seed=p["seed"]
    )
    start = np.array(c)
    if np.any(start < 0.0) or start.sum() > 1.0:
        raise ManifestError("start point must lie in the closed simplex")
    ens = simulate(cfg, start)
    export_csv(ens, m.output_path)
    return 0


def _run_validate(m):
    p = m.params
    report = run_validation(tier=p["tier"], seed=p["seed"])
    text = json.dumps(report, indent=2, sort_keys=True)
    fh = _open_out(m.output_path)
    try:
        fh.write(text + "\n")
    finally:
        if fh is not sys.stdout:
            fh.close()
    failed = [c for c in report["checks"] if not c["pass"]]
    for c in failed:
        print(
            f"FAIL {c['check_name']}: measured {c['measured']:.6g} "
            f"exceeds tolerance {c['tolerance']:.6g}",
            file=sys.stderr,
        )
    return 0 if report["all_pass"] else 1


_RUNNERS = {
    "density1d": _run_density1d,
    "density2d": _run_density2d,
    "coeffs": _run_coeffs,
    "laplace": _run_laplace,
    "simulate": _run_simulate,
    "validate": _run_validate,
}


def run(manifest):
    """Execute a validated manifest; returns the process exit code."""
    if manifest.command not in _RUNNERS:
        raise ManifestError(f"unknown command {manifest.command!r}")
    return _RUNNERS[manifest.command](manifest)


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

    d2 = sub.add_parser("density2d", help="CSV grid of the 2-simplex transition density")
    d2.add_argument("--N", type=int, required=True)
    d2.add_argument("--t", type=float, required=True)
    d2.add_argument("--c", required=True, help="c1,c2")
    d2.add_argument("--grid", type=int, default=41)
    d2.add_argument("--tol", type=float, default=1e-10)
    d2.add_argument("--out", default="-")

    co = sub.add_parser("coeffs", help="CSV table: triangular solve vs closed form")
    co.add_argument("--N", type=int, required=True)
    co.add_argument("--c", required=True)
    co.add_argument("--n-max", dest="n_max", type=int, default=25)
    co.add_argument("--out", default="-")

    la = sub.add_parser("laplace", help="CSV: Laplace series vs quadrature check")
    la.add_argument("--N", type=int, required=True)
    la.add_argument("--t", type=float, required=True)
    la.add_argument("--c", required=True)
    la.add_argument("--lambda", dest="lam", required=True, help="comma-separated values")
    la.add_argument("--n-max", dest="n_max", type=int, default=60)
    la.add_argument("--out", default="-")

    si = sub.add_parser("simulate", help="CSV dump of a terminal path ensemble")
    si.add_argument("--N", type=int, required=True)
    si.add_argument("--k", type=int, required=True)
    si.add_argument("--t", type=float, required=True)
    si.add_argument("--c", required=True, help="comma-separated start point")
    si.add_argument("--paths", type=int, default=10000)
    si.add_argument("--dt", type=float, default=1e-3)
    si.add_argument("--seed", type=int, default=0)
    si.add_argument("--out", required=True)

    va = sub.add_parser("validate", help="run the validation suite, emit a JSON report")
    va.add_argument("--tier", choices=("quick", "full"), default="quick")
    va.add_argument("--seed", type=int, default=2024)
    va.add_argument("--out", default="-")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    params = {k: v for k, v in vars(args).items() if k not in ("command", "out")}
    if "lam" in params:
        params["lambda"] = params.pop("lam")
    manifest = RunManifest(command=args.command, params=params, output_path=args.out)
    try:
        return run(manifest)
    except (ManifestError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
