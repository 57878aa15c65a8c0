import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import jacobi_heat
from jacobi_heat import __version__, cli
from jacobi_heat.cli import main
from jacobi_heat.heat_kernel import auto_truncation, density_1d_values
from jacobi_heat.sde import SdeConfig, simulate


# the quick-tier registry: every check name and tolerance, in report order
QUICK_CHECKS = [
    ("coefficients.solve_vs_closed_form", 1e-09),
    ("coefficients.endpoint_closed_forms", 1e-12),
    ("coefficients.neumann_identity", 1e-12),
    ("density1d.normalization", 1e-10),
    ("density1d.positivity", 1e-12),
    ("density1d.eigen_transform", 1e-09),
    ("density1d.chapman_kolmogorov", 1e-08),
    ("density1d.reversibility_symmetry", 1e-11),
    ("density2d.normalization", 1e-10),
    ("density2d.marginal_matches_1d", 1e-08),
    ("density2d.marginal_independent_of_c2", 1e-08),
    ("density2d.reversibility_symmetry", 1e-11),
    ("operators.weight_annihilation", 1e-13),
    ("operators.conjugation_identities", 1e-13),
    ("operators.simplex_eigenpolynomials", 1e-11),
    ("operators.graded_spectrum", 1e-09),
    ("operators.heat_residual_1d", 1e-06),
    ("operators.face_derivative_dichotomy", 0.0),
    ("laplace.series_vs_quadrature", 1e-08),
    ("laplace.inversion_term_identity", 1e-10),
    ("mc.mean_decay_rate", 0.1),
    ("mc.ks_1d", 0.0489),
    ("mc.chi_square_2d", 20.090235029663233),
    ("mc.dirichlet_moments_k3", 1.0),
    ("mc.generator_moment_k2", 1.0),
]


def read_csv(path):
    comments, rows = [], []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return comments, header, np.array(rows)


def test_density1d_csv(tmp_path):
    out = tmp_path / "d1.csv"
    code = main(["density1d", "--N", "3", "--t", "0.5", "--c", "0.3", "--grid", "11",
                 "--tol", "1e-10", "--out", str(out)])
    assert code == 0
    comments, header, rows = read_csv(out)
    assert any(__version__ in c for c in comments)
    assert any("n_max=" in c and "achieved_bound=" in c for c in comments)
    assert header == ["u", "f"]
    assert len(rows) == 11
    tr = auto_truncation(0.5, 3, 1e-10)
    want = density_1d_values(0.5, 0.3, rows[:, 0], 3, tr)
    np.testing.assert_allclose(rows[:, 1], want, rtol=1e-15)


def test_density2d_csv(tmp_path):
    out = tmp_path / "d2.csv"
    code = main(["density2d", "--N", "4", "--t", "0.4", "--c", "0.3,0.2", "--grid", "6",
                 "--out", str(out)])
    assert code == 0
    _, header, rows = read_csv(out)
    assert header == ["u1", "u2", "f"]
    assert np.all(rows[:, 0] + rows[:, 1] <= 1.0 + 1e-12)


def test_coeffs_csv_small_differences(tmp_path):
    out = tmp_path / "co.csv"
    code = main(["coeffs", "--N", "4", "--c", "0.25", "--n-max", "20", "--out", str(out)])
    assert code == 0
    _, header, rows = read_csv(out)
    assert header == ["n", "solve", "closed_form", "abs_diff"]
    assert len(rows) == 21
    assert np.all(rows[:, 3] <= 1e-9 * np.maximum(np.abs(rows[:, 2]), 1e-30))


def test_coeffs_far_past_the_underflow_cap(tmp_path):
    # the exact solve stops at n = 141 for N = 4, so 400 rows take seconds, not hours
    out = tmp_path / "co.csv"
    assert main(["coeffs", "--N", "4", "--c", "0.3", "--n-max", "400", "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    assert len(rows) == 401 and not np.any(rows[142:, 1])


def test_laplace_csv(tmp_path):
    out = tmp_path / "la.csv"
    # at t = 1e-4 the series has 871 modes; a fixed 64-node rule read 0.843 at lambda = 0
    for N, t, c in [("3", "0.3", "0.4"), ("5", "1e-4", "0.9")]:
        code = main(["laplace", "--N", N, "--t", t, "--c", c, "--lambda=-10,-2,0,2,10",
                     "--out", str(out)])
        assert code == 0
        _, header, rows = read_csv(out)
        assert header == ["lambda", "series", "quadrature", "abs_diff"]
        assert np.all(rows[:, 3] <= 1e-8)


def test_simulate_csv(tmp_path):
    out = tmp_path / "ens.csv"
    code = main(["simulate", "--N", "3", "--k", "2", "--t", "0.2", "--c", "0.4,0.3",
                 "--paths", "30", "--dt", "1e-2", "--seed", "11", "--out", str(out)])
    assert code == 0
    assert b"\r" not in out.read_bytes()
    comments, header, rows = read_csv(out)
    assert any(__version__ in c for c in comments)
    assert any("paths=30" in c and "seed=11" in c for c in comments)
    assert header == ["u1", "u2"]
    cfg = SdeConfig(N=3, k=2, t_final=0.2, dt=1e-2, paths=30, seed=11)
    np.testing.assert_array_equal(rows, simulate(cfg, np.array([0.4, 0.3])).terminal_points)


@pytest.mark.parametrize(
    "argv",
    [
        ["density1d", "--N", "5", "--t", "0.01", "--c", "0.3", "--grid", "201"],
        ["density2d", "--N", "4", "--t", "0.05", "--c", "0.3,0.2", "--grid", "23"],
        ["coeffs", "--N", "4", "--c", "0.25", "--n-max", "20"],
        ["simulate", "--N", "3", "--k", "2", "--t", "0.2", "--c", "0.4,0.3", "--paths", "50",
         "--dt", "1e-2", "--seed", "3"],
    ],
)
def test_csv_data_lines_are_17_digit_values(tmp_path, argv):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    lines = [line for line in out.read_text().split("\n")[:-1] if not line.startswith("#")]
    for line in lines[1:]:
        assert line == ",".join(format(float(v), ".17g") for v in line.split(","))
    if argv[0] == "density2d":
        axis = np.linspace(0.0, 1.0, 23)
        nested = [(a, b) for a in axis for b in axis if a + b <= 1.0 + 1e-12]
        np.testing.assert_array_equal(read_csv(out)[2][:, :2], nested)


def test_validate_quick_report_and_determinism(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["validate", "--tier", "quick", "--seed", "7", "--out", str(out1)]) == 0
    assert main(["validate", "--tier", "quick", "--seed", "7", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["tier"] == "quick" and report["seed"] == 7
    assert report["all_pass"] is True
    for check in report["checks"]:
        assert set(check) == {"check_name", "params", "measured", "tolerance", "pass"}
    assert [(c["check_name"], c["tolerance"]) for c in report["checks"]] == QUICK_CHECKS


def test_usage_errors_exit_two(tmp_path, monkeypatch):
    out = f"--out={tmp_path / 'x.csv'}"
    # refused by the library call each command reaches
    assert main(["density1d", "--N", "1", "--t", "0.5", "--c", "0.3"]) == 2
    for flag, value in [("--t", "0"), ("--t", "inf"), ("--t", "nan"), ("--tol", "nan"),
                        ("--tol", "inf"), ("--tol", "0")]:
        assert main(["density1d", "--N", "3", "--t", "0.5", "--c", "0.3", flag, value]) == 2
        assert main(["density2d", "--N", "4", "--t", "0.4", "--c", "0.3,0.2", flag, value]) == 2
    assert main(["density1d", "--N", "3", "--t", "0.5", "--c", "1.5"]) == 2
    assert main(["density2d", "--N", "2", "--t", "0.4", "--c", "0.3,0.2"]) == 2
    assert main(["density2d", "--N", "4", "--t", "0.4", "--c", "0.8,0.9"]) == 2
    assert main(["coeffs", "--N", "4", "--c", "2"]) == 2
    assert main(["coeffs", "--N", "4", "--c", "0.3", "--n-max", "-1"]) == 2
    assert main(["simulate", "--N", "3", "--k", "1", "--t", "0.5", "--c", "2.0", out]) == 2
    assert main(["simulate", "--N", "3", "--k", "2", "--t", "0.5", "--c", "0.7,0.5", out]) == 2
    simulate_1d = ["simulate", "--N", "3", "--k", "1", "--c", "0.3", out]
    for horizon in [["--t", "inf"], ["--t", "nan"], ["--t", "1.0", "--dt", "0.07"],
                    ["--t", "0.5", "--dt", "inf"]]:
        assert main(simulate_1d + horizon) == 2
    laplace = ["laplace", "--N", "3", "--t", "0.3", "--c", "0.4", "--lambda", "1"]
    for flag, value in [("--N", "1"), ("--t", "nan"), ("--t", "0"), ("--c", "1.5"),
                        ("--n-max", "-1"), ("--lambda", "50"), ("--lambda", "nan")]:
        assert main(laplace + [flag, value, out]) == 2
    # refused by the command line itself
    assert main(["density1d", "--N", "3", "--t", "0.5", "--c", "0.3,0.4"]) == 2
    assert main(["density1d", "--N", "3", "--t", "0.5", "--c", "0.3", "--grid", "1"]) == 2

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulate ran before --out - was refused")

    monkeypatch.setattr(cli, "simulate", no_simulation)
    assert main(["simulate", "--N", "3", "--k", "1", "--t", "0.5", "--c", "0.3", "--out", "-"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_numpy_only_commands_leave_scipy_unloaded(tmp_path):
    # scipy.special alone is most of a density request's start-up; only Gauss-Jacobi
    # rules, the Laplace series and validate load it
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = str(tmp_path / "x.csv")
    code = f"""
import sys
import jacobi_heat, jacobi_heat.cli
from jacobi_heat.cli import main
runs = [
    ["density1d", "--N=3", "--t=0.5", "--c=0.3", "--grid=11"],
    ["density2d", "--N=4", "--t=0.4", "--c=0.3,0.2", "--grid=6"],
    ["coeffs", "--N=4", "--c=0.25", "--n-max=10"],
    ["simulate", "--N=3", "--k=2", "--t=0.2", "--c=0.4,0.3", "--paths=30", "--dt=1e-2"],
]
for argv in runs:
    assert main(argv + ["--out={out}"]) == 0, argv
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
assert main(["laplace", "--N=3", "--t=0.3", "--c=0.4", "--lambda=1", "--out={out}"]) == 0
"""
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_public_names_are_the_routes():
    # widening the package's surface is a reviewed edit of this list
    names = [n for n, v in vars(jacobi_heat).items() if not (n[0] == "_" or inspect.ismodule(v))]
    assert sorted(names) == [
        "PathEnsemble", "QuadratureRule", "SdeConfig", "SimplexPolynomial", "Truncation",
        "auto_truncation", "auto_truncation_2d", "closed_form_coefficient",
        "density_1d_values", "density_2d_values", "density_ks_check", "eigenvalue",
        "gauss_jacobi_rule", "generalized_jacobi_op", "jacobi_p", "laplace_quadrature",
        "laplace_series", "pochhammer", "script_l_k", "simplex_q_polynomial", "simplex_rule_2",
        "simulate", "solve_coefficients",
    ]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out
