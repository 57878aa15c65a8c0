"""Output checks of the benchmark; each returns a list of error strings (empty = pass).

They run outside the timed region and accept only outputs that a correct
program produces, so a corrupted file, ensemble or report is rejected.
"""

import hashlib
import json
import math
import os

import numpy as np

from jacobi_heat.heat_kernel import (
    Truncation,
    density_1d_values,
    density_2d_values,
    kernel_series_1d,
)
from jacobi_heat.quadrature import gauss_jacobi_rule

NORMALIZATION_TOL = 1e-10
# |csv - recomputed| <= VALUE_RTOL * (1 + |value|): the CSV holds 17 significant digits
VALUE_RTOL = 1e-12
# reversibility compares two evaluations of the series, each with rounding ~eps * sum|terms|
REVERSIBILITY_RTOL = 1e-9
SAMPLED_ROWS_2D = 64
REVERSIBILITY_PAIRS = 2
MEAN_STANDARD_ERRORS = 4.0
SIMPLEX_SLACK = 1e-12


def read_density_csv(path):
    """Return ({header key: value string}, column names, values array) of a density CSV."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = {}
    body = 0
    while body < len(lines) and lines[body].startswith("#"):
        for token in lines[body][1:].split():
            key, sep, value = token.partition("=")
            if sep:
                header[key] = value
        body += 1
    if body >= len(lines):
        raise ValueError("no column header")
    columns = lines[body].split(",")
    values = np.loadtxt(lines[body + 1 :], delimiter=",", ndmin=2)
    if values.shape[1] != len(columns):
        raise ValueError(f"{values.shape[1]} values per row for {len(columns)} columns")
    return header, columns, values


def _truncation(header, request, errors):
    n_max = int(header["n_max"])
    bound = float(header["achieved_bound"])
    if not bound <= request.tol:
        errors.append(f"achieved_bound {bound!r} exceeds tol {request.tol!r}")
    for key, want in (("N", request.N), ("t", request.t), ("tol", request.tol), ("grid", request.grid)):
        if float(header[key]) != want:
            errors.append(f"header {key}={header[key]} but the request had {want!r}")
    if tuple(float(v) for v in header["c"].strip("()").split(",")) != request.c:
        errors.append(f"header c={header['c']} but the request had {request.c!r}")
    return Truncation(n_max=n_max, tol=request.tol, achieved_bound=min(bound, request.tol))


def _simplex_weight(p, N):
    return (1.0 - p[0] - p[1]) ** (N - 3)


def _close(got, want, rtol):
    return np.abs(got - want) <= rtol * (1.0 + np.maximum(np.abs(got), np.abs(want)))


def check_density_csv(path, request, rng, deep=True):
    """Check a density1d/density2d CSV written for `request` (see workloads.DensityRequest).

    Always: the file parses, its header repeats the request, achieved_bound <=
    tol, every value is finite and >= -achieved_bound, and in 1-D every value
    equals a fresh evaluation of the series.  With `deep`, which costs about
    one request, the series is checked too.  1-D: it integrates to 1 within
    1e-10 under the Gauss-Jacobi rule of n_max+1 nodes, which is exact for it.
    2-D: values at 64 sampled rows equal a fresh evaluation, and reversibility
    f(c,u) w(c) = f(u,c) w(u) holds at sampled interior points u.
    """
    try:
        errors = _density_errors(path, request, rng, deep)
    except (OSError, ValueError, KeyError) as exc:
        errors = [f"unreadable ({exc})"]
    return [f"{os.path.basename(path)}: {e}" for e in errors]


def _density_errors(path, request, rng, deep):
    errors = []
    header, columns, values = read_density_csv(path)
    tr = _truncation(header, request, errors)
    N, t, c = request.N, request.t, request.c
    f = values[:, -1]
    if columns != (["u", "f"] if request.dim == 1 else ["u1", "u2", "f"]):
        errors.append(f"columns {columns}")
    if len(f) != request.points:
        errors.append(f"{len(f)} rows for {request.points} grid points")
    if not np.all(np.isfinite(values)):
        errors.append("non-finite value")
    elif np.min(f) < -tr.achieved_bound:
        errors.append(f"value {float(np.min(f))!r} below -achieved_bound {tr.achieved_bound!r}")
    if errors:
        return errors

    if request.dim == 1:
        u = values[:, 0]
        bad = ~_close(f, density_1d_values(t, c[0], u, N, tr), VALUE_RTOL)
        if np.any(bad):
            errors.append(f"{int(bad.sum())} values differ from the series, first at u={u[bad][0]!r}")
        if deep:
            rule = gauss_jacobi_rule(tr.n_max + 1, N - 2.0, 0.0)
            series, _ = kernel_series_1d(t, c[0], rule.nodes, N, tr.n_max)
            mass = float(np.dot(rule.weights, series))
            if not abs(mass - 1.0) <= NORMALIZATION_TOL:
                errors.append(f"series integrates to {mass!r}")
    elif deep:
        pts = values[:, :2]
        rows = np.arange(len(f))
        if len(rows) > SAMPLED_ROWS_2D:
            rows = np.sort(rng.choice(rows, SAMPLED_ROWS_2D, replace=False))
        bad = ~_close(f[rows], density_2d_values(t, c, pts[rows], N, tr), VALUE_RTOL)
        if np.any(bad):
            errors.append(f"{int(bad.sum())} sampled values differ from the series")
        interior = np.flatnonzero((pts.min(axis=1) > 0.0) & (1.0 - pts.sum(axis=1) > 1e-3))
        for i in rng.choice(interior, min(REVERSIBILITY_PAIRS, len(interior)), replace=False):
            forward = f[i] * _simplex_weight(c, N)
            backward = density_2d_values(t, tuple(pts[i]), [c], N, tr)[0] * _simplex_weight(pts[i], N)
            if not _close(forward, backward, REVERSIBILITY_RTOL):
                errors.append(f"reversibility fails at u={tuple(pts[i])}: {forward!r} vs {backward!r}")
    return errors


def check_ensemble_points(pts):
    """Terminal points must be finite and lie in the closed simplex."""
    if not np.all(np.isfinite(pts)):
        return ["non-finite terminal point"]
    if pts.min() < 0.0 or pts.sum(axis=1).max() > 1.0 + SIMPLEX_SLACK:
        return ["terminal point outside the closed simplex"]
    return []


def euler_mean(c, N, dt, steps):
    """Exact mean of the Euler scheme: the drift is linear, so E[u] decays geometrically."""
    return 1.0 / N + (np.asarray(c) - 1.0 / N) * (1.0 - N * dt) ** steps


class MomentSums:
    """Running per-coordinate sums of terminal points pooled over ensembles."""

    def __init__(self, k):
        self.n = 0
        self.s = np.zeros(k)
        self.ss = np.zeros(k)

    def add(self, pts):
        self.n += len(pts)
        self.s += pts.sum(axis=0)
        self.ss += np.einsum("ij,ij->j", pts, pts)

    def check_mean(self, expected):
        """Each coordinate's mean within MEAN_STANDARD_ERRORS standard errors of `expected`."""
        mean = self.s / self.n
        var = (self.ss - self.n * mean**2) / (self.n - 1)
        se = np.sqrt(np.maximum(var, 0.0) / self.n)
        z = np.abs(mean - expected) / se
        return [
            f"coordinate {i}: mean {mean[i]!r} is {z[i]:.2f} standard errors from {expected[i]!r}"
            for i in np.flatnonzero(~(z <= MEAN_STANDARD_ERRORS))
        ]


def sha256_points(pts):
    return hashlib.sha256(np.ascontiguousarray(pts).tobytes()).hexdigest()


def report_text(report):
    """The report as `jacobi-heat validate` writes it."""
    return json.dumps(report, indent=2, sort_keys=True)


def check_report(text):
    """A quick-tier report must pass every check, each with its measured value in tolerance."""
    errors = []
    report = json.loads(text)
    bad = [
        c["check_name"]
        for c in report["checks"]
        if not (c["pass"] is True and math.isfinite(c["measured"]) and c["measured"] <= c["tolerance"])
    ]
    if bad:
        errors.append(f"checks not passing: {bad}")
    if report["all_pass"] is not True:
        errors.append("all_pass is not true")
    return errors
