"""The benchmark command: result line, per-layer coverage, refusal without the program."""

import json
import shutil
import subprocess
import sys

import pytest

from perfbench.tracer import Tracer

from .conftest import ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GROUPS = (
    "coefficients",
    "neumann",
    "density_1d",
    "density_2d",
    "operators",
    "heat_residual",
    "face_identity",
    "laplace",
    "monte_carlo",
)


def _run(workload, trace, cwd=ROOT, seconds=1):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3"]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return json.loads(lines[-2])["context"], result


def _values(result, names):
    metrics = result["metrics"]
    assert set(metrics) == set(names)
    return {name: metrics[name]["value"] for name in names}


def test_untraced_run_prints_every_end_to_end_metric_with_its_unit():
    _, result = _result(_run("mc_euler", 0))
    assert result["correct"] and result["failed"] == 0
    values = _values(result, [m["name"] for m in SPEC["end_to_end"]])
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert values[m["name"]] > 0


@pytest.fixture(scope="module")
def traced():
    names = [m["name"] for m in SPEC["per_layer"]]
    runs = {}
    for workload in ("mc_euler", "density_grid", "validate_quick"):
        context, result = _result(_run(workload, 1))
        assert result["correct"]
        runs[workload] = (context, _values(result, names))
    return runs


def test_traced_mc_euler_spends_its_time_in_sde(traced):
    _, v = traced["mc_euler"]
    assert v["sde.simulate.calls"] == 3 and v["sde.path_steps"] > 0
    assert v["sde.normals.s"] > 0 and v["sde.diffusion_increment.s"] > 0
    assert all(v[f"sde.ns_per_path_step.k{k}"] > 0 for k in (1, 2, 3))
    assert v["trace.sde_frac"] >= 0.9
    assert v["heat_kernel.kernel_series_1d.calls"] == 0 and v["cli.s"] == 0


def test_traced_density_grid_loads_the_spectral_layers_and_not_sde(traced):
    context, v = traced["density_grid"]
    assert v["sde.s"] == 0 and v["trace.sde_frac"] == 0
    for name in ("special.jacobi_table", "heat_kernel.kernel_series_1d", "heat_kernel.kernel_series_2d"):
        assert v[f"{name}.calls"] > 0 and v[f"{name}.s"] > 0
    assert v["heat_kernel.auto_truncation_2d.calls"] > 0 and v["heat_kernel.n_max_sum"] > 0
    assert v["special.jacobi_table.values"] > 0
    assert v["cli.s"] > 0 and v["cli.bytes_out"] > 0
    # the known-defect probes run once each, outside the stream, cut at their deadline
    probes = context["known_defect_probes"]
    assert len(probes) == 4
    assert all(p["outcome"] in ("ok", "timeout", "failed") and p["seconds"] <= 2.0 for p in probes)


def test_untraced_density_grid_fails_no_operation():
    context, result = _result(_run("density_grid", 0))
    assert result["correct"] and result["failed"] == 0, context["failures"]


def test_traced_validate_quick_covers_every_check_group(traced):
    _, v = traced["validate_quick"]
    assert all(v[f"validate.{g}.incl_s"] > 0 for g in GROUPS)
    for name in ("quadrature.gauss_jacobi_rule", "quadrature.simplex_rule_2", "sde.simulate"):
        assert v[f"{name}.calls"] > 0
    for layer in ("coefficients", "operators", "simplex_jacobi", "sde.density_ks_check"):
        assert v[f"{layer}.s"] > 0
    assert "trace.overhead_frac" in v


def test_tracer_restores_the_package_functions():
    from jacobi_heat import heat_kernel, sde, validate

    originals = (heat_kernel.kernel_series_1d, validate.kernel_series_1d, sde._normals)
    with Tracer().installed():
        assert heat_kernel.kernel_series_1d is not originals[0]
        assert validate.kernel_series_1d is heat_kernel.kernel_series_1d
    assert (heat_kernel.kernel_series_1d, validate.kernel_series_1d, sde._normals) == originals


def test_exits_nonzero_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("mc_euler", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
