"""Acceptance suite: one test per release criterion, each printing verdict lines.

Criteria 1-8 run the deterministic check groups of the `validate` registry,
one group per criterion, within a time budget; criteria 9-10 drive the
full-tier Monte Carlo validation through the CLI (two concurrent runs, which
also yields the byte-identical-report determinism check).
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from jacobi_heat import validate


def report(number, label, measured, tolerance, elapsed, extra=""):
    ok = measured <= tolerance
    print(
        f"ACCEPTANCE {number:>2} [{'pass' if ok else 'FAIL'}] {label}: "
        f"measured {measured:.3e} vs tolerance {tolerance:.3e}"
        f"{' ' + extra if extra else ''} [{elapsed:.2f} s]"
    )
    return ok


def run_group(number, group, budget_s):
    """Run one `validate` check group, printing a verdict line per check."""
    start = time.perf_counter()
    failed = []
    for check in group:
        elapsed = time.perf_counter() - start
        report(number, check["check_name"], check["measured"], check["tolerance"], elapsed)
        if not check["pass"]:
            failed.append(check["check_name"])
    elapsed = time.perf_counter() - start
    assert not failed, f"failed checks: {failed}"
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.2f} s of {budget_s} s"


def test_criterion_1_coefficient_theorem():
    run_group(1, validate.check_coefficients(), 1.0)


def test_criterion_2_neumann_identity():
    run_group(2, validate.check_neumann(), 1.0)


def test_criterion_3_density_1d():
    run_group(3, validate.check_density_1d(), 10.0)


def test_criterion_4_density_2d():
    run_group(4, validate.check_density_2d(), 30.0)


def test_criterion_5_operator_suite():
    # operators.graded_spectrum also fixes the multiplicities: the sorted eigenvalues
    # match within 1e-9, and distinct eigenvalues n(n+N-1) are at least N apart
    run_group(5, validate.check_operators(), 5.0)


def test_criterion_6_heat_residual():
    run_group(6, validate.check_heat_residual(), 5.0)


def test_criterion_7_boundary_dichotomy():
    run_group(7, validate.check_face_identity(), 1.0)


def test_criterion_8_laplace_transform():
    run_group(8, validate.check_laplace(), 5.0)


def _nan_series(t, c, u, N, n_max, mode_factors=None):
    return np.full(np.shape(u), math.nan), 0.0


@pytest.mark.parametrize(
    "group, name, patched, stub",
    [
        (validate.check_laplace, "laplace.series_vs_quadrature", "laplace_series", lambda *a: math.nan),
        (validate.check_neumann, "coefficients.neumann_identity", "jv", lambda *a: math.nan),
        (validate.check_heat_residual, "operators.heat_residual_1d", "kernel_series_1d", _nan_series),
    ],
)
def test_a_nan_residual_fails_its_check(monkeypatch, group, name, patched, stub):
    # max(worst, nan) keeps worst, which measured 0.0 and passed these checks
    monkeypatch.setattr(validate, patched, stub)
    (check,) = [c for c in group() if c["check_name"] == name]
    assert math.isnan(check["measured"]) and not check["pass"]


@pytest.fixture(scope="module")
def full_tier_reports(tmp_path_factory):
    """Two concurrent full-tier validation runs with the same seed."""
    outdir = tmp_path_factory.mktemp("fullrep")
    env = dict(os.environ)
    # single-threaded math keeps the two runs independent of scheduling
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    jobs = []
    for name in ("report_a.json", "report_b.json"):
        path = outdir / name
        started = time.perf_counter()
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "jacobi_heat.cli",
                "validate",
                "--tier",
                "full",
                "--seed",
                "2024",
                "--out",
                str(path),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        jobs.append((proc, started, path))
    results = []
    for proc, started, path in jobs:
        _, err = proc.communicate()
        elapsed = time.perf_counter() - started
        assert proc.returncode == 0, f"validate full failed:\n{err.decode()}"
        results.append({"bytes": path.read_bytes(), "elapsed": elapsed})
    return results


def test_criterion_9_monte_carlo_cross_validation(full_tier_reports):
    first = full_tier_reports[0]
    report_data = json.loads(first["bytes"])
    mc = {c["check_name"]: c for c in report_data["checks"] if c["check_name"].startswith("mc.")}
    expected = {
        "mc.mean_decay_rate",
        "mc.ks_1d",
        "mc.chi_square_2d",
        "mc.dirichlet_moments_k3",
        "mc.generator_moment_k2",
    }
    assert set(mc) == expected
    ok = True
    for name in sorted(expected):
        c = mc[name]
        ok &= report(
            9,
            name,
            c["measured"],
            c["tolerance"],
            first["elapsed"],
            extra=f"paths={c['params']['paths']} dt={c['params']['dt']}",
        )
        assert c["params"]["paths"] == 2 * 10**5
        assert c["params"]["dt"] == 1e-4
    assert ok
    assert first["elapsed"] < 600.0, "full-tier Monte Carlo exceeded its 10-minute budget"


def test_criterion_10_validation_determinism(full_tier_reports):
    a, b = full_tier_reports
    identical = a["bytes"] == b["bytes"]
    elapsed = max(a["elapsed"], b["elapsed"])
    print(
        f"ACCEPTANCE 10 [{'pass' if identical else 'FAIL'}] byte-identical full-tier "
        f"reports: {len(a['bytes'])} bytes each [{elapsed:.2f} s]"
    )
    assert identical
    report_data = json.loads(a["bytes"])
    assert report_data["all_pass"] is True
