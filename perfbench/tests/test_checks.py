"""Each output check accepts the program's real output and rejects a corrupted copy."""

import json

import numpy as np
import pytest
from jacobi_heat import cli, sde, validate

from perfbench import checks
from perfbench.workloads import DensityRequest


def _write(tmp_path, request):
    out = tmp_path / "f.csv"
    assert cli.main(request.argv(str(out))) == 0
    return out


def _shift_value(path, row, delta):
    lines = path.read_text().splitlines()
    body = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    cells = lines[body + row].split(",")
    cells[-1] = repr(float(cells[-1]) + delta)
    lines[body + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "request_",
    [
        DensityRequest(1, 3, 0.05, 1e-10, 101, (0.3,)),
        DensityRequest(1, 5, 1e-3, 1e-10, 201, (0.7,)),
        DensityRequest(2, 4, 0.1, 1e-12, 7, (0.3, 0.2)),
    ],
)
def test_density_check_rejects_a_value_shifted_by_1e_6(tmp_path, request_):
    path = _write(tmp_path, request_)
    assert checks.check_density_csv(path, request_, np.random.default_rng(0)) == []
    _shift_value(path, request_.points // 2, 1e-6)
    assert checks.check_density_csv(path, request_, np.random.default_rng(0)) != []


def test_density_check_rejects_a_header_that_does_not_match_the_request(tmp_path):
    request = DensityRequest(1, 3, 0.05, 1e-10, 11, (0.3,))
    path = _write(tmp_path, request)
    other = DensityRequest(1, 3, 0.05, 1e-10, 11, (0.4,))
    assert checks.check_density_csv(path, other, np.random.default_rng(0)) != []


def test_density_check_rejects_a_value_below_the_certified_bound(tmp_path):
    request = DensityRequest(1, 3, 0.05, 1e-10, 11, (0.3,))
    path = _write(tmp_path, request)
    _shift_value(path, 10, -1e-9)  # u = 1, where the density is 0
    errors = checks.check_density_csv(path, request, np.random.default_rng(0))
    assert any("below -achieved_bound" in e for e in errors)


def _ensemble(k=2, N=4, steps=20, paths=20_000, seed=5):
    cfg = sde.SdeConfig(N=N, k=k, t_final=steps * 1e-4, dt=1e-4, paths=paths, seed=seed)
    start = np.full(k, 0.25)
    return start, sde.simulate(cfg, start).terminal_points


def test_ensemble_check_rejects_a_point_pushed_outside_the_simplex():
    _, pts = _ensemble()
    assert checks.check_ensemble_points(pts) == []
    bad = pts.copy()
    bad[17] = (0.7, 0.4)
    assert checks.check_ensemble_points(bad) != []
    bad[17] = (-1e-9, 0.4)
    assert checks.check_ensemble_points(bad) != []
    bad[17] = (np.nan, 0.4)
    assert checks.check_ensemble_points(bad) != []


def test_euler_mean_check_accepts_the_scheme_and_rejects_a_shifted_mean():
    start, pts = _ensemble()
    sums = checks.MomentSums(2)
    sums.add(pts)
    expected = checks.euler_mean(start, 4, 1e-4, 20)
    assert sums.check_mean(expected) == []
    se = pts.std(axis=0, ddof=1) / np.sqrt(len(pts))
    assert sums.check_mean(expected + 5.0 * se) != []


def _report():
    checks_ = list(validate.check_coefficients()) + list(validate.check_neumann())
    return {"package": "jacobi-heat", "checks": checks_, "all_pass": True}


def test_report_check_rejects_a_report_with_one_check_flipped():
    report = _report()
    assert checks.check_report(checks.report_text(report)) == []
    report["checks"][1]["pass"] = False
    assert checks.check_report(checks.report_text(report)) != []


def test_report_check_rejects_a_measured_value_out_of_tolerance():
    report = _report()
    report["checks"][0]["measured"] = report["checks"][0]["tolerance"] * 2.0
    assert checks.check_report(json.dumps(report)) != []
