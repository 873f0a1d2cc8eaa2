import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gqc import cli
from gqc.cli import main
from gqc.conditions import EigenError
from gqc.solver import SolverError

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos" / "configs"


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def grid_block(dim=2, n=16, side=1.0):
    return {
        "dim": dim,
        "bounds": [[0.0, side]] * dim,
        "n": [n] * dim,
    }


def cli_import_loads_any(*modules) -> bool:
    """Whether a fresh ``import gqc.cli`` puts any of ``modules`` in sys.modules."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = f"import sys, gqc.cli; sys.exit(any(m in sys.modules for m in {modules!r}))"
    return subprocess.run([sys.executable, "-c", code], env=env).returncode != 0


def test_cli_import_leaves_scipy_fft_out():
    # the sine transform is built on numpy.fft; importing scipy.fft would
    # add about 0.09 s and 4.8 MB to every CLI start
    assert not cli_import_loads_any("scipy.fft")


def test_cli_import_leaves_jsonschema_out():
    # configs are checked by cli._schema_error; jsonschema and its
    # referencing stack would add about 0.06 s to every CLI start
    assert not cli_import_loads_any("jsonschema", "referencing")


# ---------------------------------------------------------------------------
# config validation


def test_missing_config_is_usage_error(capsys):
    assert main(["check", "--config", "/nonexistent/cfg.json"]) == 1
    assert "config" in capsys.readouterr().err


def test_no_subcommand_is_usage_error():
    assert main([]) == 1


def test_schema_violation_reports_path(tmp_path, capsys):
    cfg = write_config(tmp_path, {"grid": {"dim": 7, "bounds": [[0, 1]], "n": [8]}})
    assert main(["check", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "grid" in err and "dim" in err


def test_unknown_key_rejected(tmp_path, capsys):
    # the solver keys are options of the removed fixed-point iteration
    for extra, key in (({"unknown_key": 1}, "unknown_key"),
                       ({"solver": {"max_fixed_point": 40}}, "max_fixed_point"),
                       ({"solver": {"fp_tol": 1e-10}}, "fp_tol")):
        cfg = write_config(tmp_path, {"grid": grid_block(), **extra})
        assert main(["check", "--config", cfg]) == 1
        assert key in capsys.readouterr().err


@pytest.mark.parametrize("command, path, literal", [
    ("solve", ("lambda",), "NaN"),
    ("solve", ("lambda",), "Infinity"),
    ("solve", ("lambda",), "1e400"),
    ("solve", ("solver", "tol_residual"), "NaN"),
    ("solve", ("coefficients", "h"), "NaN"),
    ("branch", ("continuation", "lambda0"), "NaN"),
    ("branch", ("continuation", "lambda_min"), "NaN"),
    ("check", ("p_exponent",), "NaN"),
    ("check", ("grid", "bounds", 0, 1), "-Infinity"),
])
def test_nonfinite_config_number_is_usage_error(tmp_path, capsys, command, path, literal):
    # json reads NaN, Infinity and 1e400 as floats; each is refused by path
    payload = {
        "grid": grid_block(dim=1, n=32),
        "coefficients": {"c": "1", "mu": "1", "h": "0.1*sin(pi*x1)"},
        "lambda": -1.0,
        "solver": {},
        "continuation": {"lambda0": -2.0, "norm_cap": 3.0},
    }
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "__NONFINITE__"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload).replace('"__NONFINITE__"', literal))
    json_path = "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--quiet"]) == 1
    assert f"at {json_path}: " in capsys.readouterr().err


def test_integral_float_grid_sizes_run(tmp_path):
    # the config check accepts 1.0 and 16.0 as integers, as JSON Schema does
    cfg = write_config(tmp_path, {
        "grid": {"dim": 1.0, "bounds": [[0.0, 1.0]], "n": [16.0]},
        "coefficients": {"c": "1", "mu": "1", "h": "0.1*sin(pi*x1)"},
        "lambda": -1.0,
    })
    for command, artifact in (("check", "report.json"), ("solve", "solution.txt"),
                              ("eigen", "eigenfunction.txt")):
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 0
        assert (out / artifact).exists()


def test_bad_expression_is_usage_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"grid": grid_block(), "coefficients": {"c": "1 +", "mu": "1", "h": "0"}},
    )
    assert main(["check", "--config", cfg]) == 1
    assert "position" in capsys.readouterr().err


def test_deeply_nested_expression_is_usage_error(tmp_path, capsys):
    # a RecursionError is a RuntimeError, which would exit 3 if it escaped
    deep = "+".join(["x1"] * 5000)
    cfg = write_config(
        tmp_path,
        {"grid": grid_block(), "coefficients": {"c": deep, "mu": "1", "h": "0"}},
    )
    assert main(["check", "--config", cfg]) == 1
    assert "nested too deeply" in capsys.readouterr().err


def test_missing_coefficient_file(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "grid": grid_block(),
            "coefficients": {"c": "1", "mu": "1", "h": {"file": "nope.txt"}},
        },
    )
    assert main(["check", "--config", cfg]) == 1


# ---------------------------------------------------------------------------
# check


def test_check_favorable_signs_exit0(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "grid": grid_block(),
            "coefficients": {"c": "1", "mu": "1", "h": "0-1"},
        },
    )
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    byname = {r["condition"]: r for r in report["conditions"]}
    assert byname["H0"]["holds"] and byname["H0"]["margin"] > 0
    assert byname["H0"]["sub_infima"] == [1.0, 1.0]
    assert "config_sha256" in report and "seed" in report


def test_check_large_h_fails_exit2(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "grid": grid_block(n=32),
            "coefficients": {"c": "1", "mu": "1", "h": "25"},
            "conditions": ["H0"],
        },
    )
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["conditions"][0]["holds"] is False


def test_check_hc_vacuous_note(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "grid": grid_block(),
            "coefficients": {"c": "1", "mu": "3", "h": "40"},
            "conditions": ["Hc"],
        },
    )
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert "vacuous" in report["conditions"][0]["note"]


def test_check_reports_gamma1(tmp_path):
    cfg = write_config(
        tmp_path,
        {"grid": grid_block(n=32), "coefficients": {"c": "1", "mu": "1", "h": "1"}},
    )
    out = tmp_path / "out"
    main(["check", "--config", cfg, "--out", str(out), "--quiet"])
    report = json.loads((out / "report.json").read_text())
    assert report["eigen"]["gamma1"] == pytest.approx(2 * np.pi**2, rel=0.01)


# ---------------------------------------------------------------------------
# solve


def test_solve_trivial_writes_zero_solution(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "grid": grid_block(dim=1, n=16),
            "coefficients": {"c": "1", "mu": "1", "h": "0"},
            "lambda": -1.0,
        },
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    vals = np.loadtxt(out / "solution.txt")
    assert np.max(np.abs(vals)) == 0.0
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] and report["strategy"] == "newton"


def test_solve_requires_lambda(tmp_path):
    cfg = write_config(
        tmp_path,
        {"grid": grid_block(), "coefficients": {"c": "1", "mu": "1", "h": "0"}},
    )
    assert main(["solve", "--config", cfg, "--quiet"]) == 1


def test_solve_manufactured_demo_recovers(tmp_path):
    out = tmp_path / "out"
    code = main(["solve", "--config", str(DEMO_DIR / "demo_manufactured.json"),
                 "--out", str(out), "--quiet"])
    assert code == 0
    u = np.loadtxt(out / "solution.txt")
    u_star = np.loadtxt(DEMO_DIR / "data" / "u_star_d2_n32.txt")
    assert np.max(np.abs(u - u_star)) <= 1e-10


def test_solve_at_eigenvalue_exits3(tmp_path, fold_demo):
    from gqc import first_eigen

    gamma1 = first_eigen(fold_demo["problem"].c.field, fold_demo["ops"]).gamma
    cfg = write_config(
        tmp_path,
        {
            "grid": {"dim": 1, "bounds": [[0.0, 1.0]], "n": [64]},
            "coefficients": {"c": "1", "mu": "1", "h": "0.1*sin(pi*x1)"},
            "profile": "A2",
            "lambda": gamma1,
            "solver": {"max_newton": 30},
        },
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False
    assert [a["strategy"] for a in report["attempts"]] == ["newton"]


# ---------------------------------------------------------------------------
# branch


def test_branch_demo_csv_and_analysis(tmp_path):
    out = tmp_path / "out"
    code = main(["branch", "--config", str(DEMO_DIR / "demo_fig2.json"),
                 "--out", str(out), "--quiet"])
    assert code == 0
    lines = (out / "branch.csv").read_text().strip().splitlines()
    assert lines[0] == "idx,lambda,sup_norm,h10_norm,arclength,newton_iters"
    analysis = json.loads((out / "analysis.json").read_text())
    assert len(lines) - 1 == analysis["points"]
    assert analysis["termination"] == "norm_cap"
    assert analysis["blowup_side"] == "right"
    assert 0.0 < analysis["fold_lambda"] < np.pi**2
    assert analysis["two_solutions"]["sup_gap"] >= 1e-2
    assert (out / "solution_low.txt").exists()
    assert (out / "solution_high.txt").exists()


def test_branch_deterministic_csv(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg = str(DEMO_DIR / "demo_fig1.json")
    assert main(["branch", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
    assert main(["branch", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
    assert (out1 / "branch.csv").read_bytes() == (out2 / "branch.csv").read_bytes()


def test_branch_seed_failure_exits3(tmp_path):
    # no solution exists at the requested start on this instance
    cfg = write_config(
        tmp_path,
        {
            "grid": grid_block(n=32),
            "coefficients": {"c": "1", "mu": "1", "h": "6*pi^2"},
            "continuation": {"lambda0": -2.0, "max_points": 40},
            "solver": {"max_newton": 20},
        },
    )
    out = tmp_path / "out"
    assert main(["branch", "--config", cfg, "--out", str(out), "--quiet"]) == 3
    analysis = json.loads((out / "analysis.json").read_text())
    assert "error" in analysis


def test_branch_half_fold_left_of_the_axis(tmp_path):
    # h above gamma1/mu folds the branch at lambda < 0: no pair at half the
    # fold is asked for, and the branch is still written
    cfg = write_config(tmp_path, {
        "grid": grid_block(dim=1, n=32),
        "coefficients": {"c": "1", "mu": "1", "h": "10.5"},
        "continuation": {"lambda0": -30.0, "norm_cap": 30.0, "max_points": 150,
                         "two_solution_lambda": "half_fold"},
    })
    out = tmp_path / "out"
    assert main(["branch", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    analysis = json.loads((out / "analysis.json").read_text())
    assert analysis["folds"] and analysis["max_lambda"] < 0.0
    assert "two_solutions" not in analysis
    rows = (out / "branch.csv").read_text().strip().splitlines()
    assert len(rows) - 1 == analysis["points"]


@pytest.mark.parametrize("command, target, error", [
    ("branch", "analyze_branch", SolverError("could not refine both solutions")),
    ("check", "check_smallness", EigenError("Lanczos failed")),
    ("check", "check_smallness", RuntimeError("Factor is exactly singular")),
])
def test_solve_failure_exits3(tmp_path, monkeypatch, command, target, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, target, fail)
    code = main([command, "--config", str(DEMO_DIR / "demo_fig2.json"),
                 "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 3


def test_check_and_eigen_factor_no_full_laplacian(tmp_path, monkeypatch):
    # H0 and gamma1 invert the full-box Laplacian by sine_solve; Hc, H and
    # k1 each factor one matrix restricted to the zero set of c
    from gqc import grid

    n = 24
    cfg = write_config(tmp_path, {
        "grid": grid_block(n=n),
        "coefficients": {"c": "indicator(1, 0.25, 0.6)*indicator(2, 0.25, 0.6)",
                         "mu": "1 + 0.5*x2", "h": "0.3*sin(pi*x1)*sin(pi*x2)"},
        "lambda": -1.0,
        "conditions": ["H0", "Hc", "H", "k1"],
    })
    sizes = []
    splu = grid.spla.splu
    monkeypatch.setattr(grid.spla, "splu",
                        lambda A, **kw: sizes.append(A.shape[0]) or splu(A, **kw))
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "check"), "--quiet"]) == 0
    assert len(sizes) == 3 and (n - 1) ** 2 not in sizes
    sizes.clear()
    assert main(["eigen", "--config", cfg, "--out", str(tmp_path / "eigen"), "--quiet"]) == 0
    assert sizes == []


@pytest.mark.parametrize("key, value", [
    ("ds0", 0), ("ds_max", 0), ("ds_min", 0), ("ds0", 1.0), ("norm_cap", -1),
])
def test_branch_rejects_bad_step_settings(tmp_path, key, value):
    cfg = json.loads((DEMO_DIR / "demo_fig2.json").read_text())
    cfg["continuation"][key] = value
    out = tmp_path / "out"
    assert main(["branch", "--config", write_config(tmp_path, cfg), "--out", str(out),
                 "--quiet"]) == 1
    assert not (out / "branch.csv").exists()


def test_check_restricted_conditions(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "grid": {"dim": 1, "bounds": [[0.0, 1.0]], "n": [64]},
            "coefficients": {"c": "indicator(1, 0.5, 1.0)", "mu": "1", "h": "30"},
            "lambda": -1.0,
            "conditions": ["H", "k1"],
        },
    )
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    byname = {r["condition"]: r for r in report["conditions"]}
    assert byname["H"]["holds"] and byname["k1"]["holds"]


def test_branch_requires_negative_lambda0(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "grid": grid_block(dim=1, n=16),
            "coefficients": {"c": "1", "mu": "1", "h": "0"},
            "continuation": {"lambda0": 1.0},
        },
    )
    assert main(["branch", "--config", cfg, "--quiet"]) == 1


# ---------------------------------------------------------------------------
# eigen and exponents


def test_eigen_command(tmp_path):
    cfg = write_config(
        tmp_path,
        {"grid": {"dim": 1, "bounds": [[0.0, 1.0]], "n": [64]},
         "coefficients": {"c": "1", "mu": "1", "h": "0"}},
    )
    out = tmp_path / "out"
    assert main(["eigen", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["gamma1"] == pytest.approx(np.pi**2, rel=0.01)
    phi = np.loadtxt(out / "eigenfunction.txt")
    assert np.all(phi > 0)


def test_exponents_command(tmp_path):
    cfg = write_config(tmp_path, {"exponents": {"p": 2.0, "theta": 0.5, "N": 3}})
    out = tmp_path / "out"
    assert main(["exponents", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    w = json.loads((out / "report.json").read_text())["witness"]
    q = 1 + w["r"] + (1 + w["theta"] * w["alpha"]) / (1 - w["alpha"])
    assert q == pytest.approx(w["q"], rel=1e-14)


def test_exponents_invalid_p_is_usage_error(tmp_path):
    cfg = write_config(tmp_path, {"exponents": {"p": 1.2, "theta": 0.5, "N": 3}})
    assert main(["exponents", "--config", cfg, "--quiet"]) == 1


def test_seed_override_lands_in_report(tmp_path):
    cfg = write_config(
        tmp_path,
        {"grid": grid_block(dim=1, n=16), "coefficients": {"c": "1", "mu": "1", "h": "0"},
         "lambda": -1.0, "seed": 7},
    )
    out = tmp_path / "out"
    main(["solve", "--config", cfg, "--out", str(out), "--quiet", "--seed", "11"])
    assert json.loads((out / "report.json").read_text())["seed"] == 11
