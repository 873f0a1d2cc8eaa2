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

from conftest import fresh_cli

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


def test_cli_import_leaves_scipy_lu_and_lapack_out():
    # grid.factor imports SuperLU (scipy.sparse.linalg) and LAPACK
    # (scipy.linalg) at its first LU of each kind; on import they would add
    # 0.05-0.1 s and 10 MB to every CLI start
    assert not cli_import_loads_any("scipy.sparse.linalg", "scipy.linalg")


@pytest.mark.parametrize("command, demo", [("branch", "demo_fig1"), ("solve", "demo_manufactured"),
                                           ("eigen", "demo_fig1")])
def test_fresh_2d_demo_commands_load_no_lu(tmp_path, command, demo):
    # 2-D Newton and corrector steps are GMRES runs and gamma1 is a sine
    # solve, so these commands factor nothing. The tests import both scipy
    # modules themselves, so only a fresh process tests the deferred imports
    assert fresh_cli([command, "--config", str(DEMO_DIR / f"{demo}.json"),
                      "--out", str(tmp_path), "--quiet"]) == (0, [])


def test_fresh_masked_check_loads_superlu_and_matches_in_process(tmp_path):
    # Hc and H factor the Laplacian restricted to the zero set of c and k1
    # its stiffness there: SuperLU's first import is inside this run
    cfg = write_config(tmp_path, {
        "grid": grid_block(n=32),
        "coefficients": {"c": "indicator(1,0.25,0.6)*indicator(2,0.25,0.6)", "mu": "1+0.5*x2",
                         "h": "0.3*sin(pi*x1)*sin(pi*x1) - 0.25*sin(pi*x2)*sin(pi*x1)"},
        "conditions": ["H0", "Hc", "H", "k1"],
    })
    code, loaded = fresh_cli(["check", "--config", cfg, "--out", str(tmp_path / "fresh"), "--quiet"])
    assert code == 0 and "scipy.sparse.linalg" in loaded
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "here"), "--quiet"]) == 0
    report = (tmp_path / "fresh" / "report.json").read_bytes()
    assert report == (tmp_path / "here" / "report.json").read_bytes()
    assert all(c["holds"] for c in json.loads(report)["conditions"])


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


def test_coefficient_file_of_the_wrong_length(tmp_path, capsys):
    (tmp_path / "short.txt").write_text("0\n" * 5)
    cfg = write_config(
        tmp_path,
        {
            "grid": grid_block(),
            "coefficients": {"c": "1", "mu": "1", "h": {"file": "short.txt"}},
        },
    )
    assert main(["check", "--config", cfg]) == 1
    assert "coefficient data has 5 values, grid needs 225" in capsys.readouterr().err


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

    gamma1 = first_eigen(fold_demo["problem"].c, fold_demo["ops"]).gamma
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


@pytest.mark.parametrize("demo, lam, message", [("demo_fig1", 0.5, "no fold"),
                                                 ("demo_fig2", 1000.0, "outside")])
def test_branch_undefined_two_solution_lambda_keeps_the_analysis(demo, lam, message, tmp_path):
    # only the trace shows that the pair is undefined (no fold on demo_fig1, a
    # lambda past demo_fig2's fold): exit 1, with the trace's analysis and the
    # error in analysis.json
    cfg = json.loads((DEMO_DIR / f"{demo}.json").read_text())
    cfg["continuation"]["two_solution_lambda"] = lam
    out = tmp_path / "out"
    code = main(["branch", "--config", write_config(tmp_path, cfg), "--out", str(out),
                 "--quiet"])
    assert code == 1
    analysis = strict_json(out / "analysis.json")
    assert message in analysis["error"] and "two_solutions" not in analysis
    ref = json.loads((Path(__file__).parent / "data" / f"{demo}_analysis.json").read_text())
    for key in ("points", "folds", "fold_index", "termination", "blowup_side"):
        assert analysis[key] == ref[key]
    assert analysis["max_lambda"] == pytest.approx(ref["max_lambda"], rel=1e-10)
    rows = (out / "branch.csv").read_text().strip().splitlines()
    assert len(rows) - 1 == analysis["points"]


@pytest.mark.parametrize("lam, code", [("half_fold", 0), (1000.0, 1)])
def test_branch_analyzes_the_trace_once(tmp_path, monkeypatch, lam, code):
    calls = []
    analyze = cli.analyze_branch
    monkeypatch.setattr(cli, "analyze_branch", lambda *a: calls.append(a) or analyze(*a))
    cfg = demo_with(tmp_path, "demo_fig2", continuation={"two_solution_lambda": lam})
    assert main(["branch", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == code
    assert len(calls) == 1


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


def strict_json(path):
    """The JSON file at ``path``, refusing the NaN and Infinity that
    ``json.loads`` accepts but JSON does not."""
    def refuse(literal):
        raise ValueError(f"{literal} is not JSON")

    return json.loads(Path(path).read_text(), parse_constant=refuse)


def demo_with(tmp_path, demo, **overrides):
    """A shipped demo config with keys of its sections replaced; its path."""
    cfg = json.loads((DEMO_DIR / f"{demo}.json").read_text())
    for section, values in overrides.items():
        cfg[section] = {**cfg.get(section, {}), **values}
    return write_config(tmp_path, cfg, name=f"{demo}.json")


# every path to exit 3: (command, demo, config overrides, cli name to make raise, error)
EXIT3_PATHS = {
    "check-runtime": ("check", "demo_fig2", {}, "check_conditions",
                      RuntimeError("Factor is exactly singular")),
    "check-eigen": ("check", "demo_fig2", {}, "check_conditions", EigenError("Lanczos failed")),
    "branch-refine": ("branch", "demo_fig2", {}, "two_solutions",
                      SolverError("could not refine both solutions")),
    "branch-seed": ("branch", "demo_fig1", {"continuation": {"lambda0": -0.01}}, None, None),
    "eigen-eigen": ("eigen", "demo_fig2", {}, "first_eigen", EigenError("Lanczos failed")),
    "eigen-runtime": ("eigen", "demo_fig2", {}, "first_eigen",
                      RuntimeError("Factor is exactly singular")),
    "solve-newton": ("solve", "demo_fig2", {"solver": {"max_newton": 1}}, None, None),
    "solve-cascade": ("solve", "demo_fig2", {}, "solve_cascade",
                      RuntimeError("Factor is exactly singular")),
}


@pytest.mark.parametrize("case", EXIT3_PATHS)
def test_failure_exits3_with_error_report(tmp_path, monkeypatch, capsys, case):
    command, demo, overrides, target, error = EXIT3_PATHS[case]
    if target is not None:
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, target, fail)
    cfg = demo_with(tmp_path, demo, **overrides)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("solve failed: ")

    report = strict_json(out / ("analysis.json" if command == "branch" else "report.json"))
    assert report["command"] == command and report["seed"] == 0
    assert report["config_sha256"] == cli.config_sha256(json.loads(Path(cfg).read_text()))
    assert report["error"] and report["error"] in err[0]
    if error is not None:
        assert report["error"] == str(error)
    if case == "branch-refine":
        # the traced branch and its summary are kept although the pair failed
        rows = (out / "branch.csv").read_text().strip().splitlines()
        assert len(rows) - 1 == report["points"] > 2
        ref = json.loads((Path(__file__).parent / "data" / "demo_fig2_analysis.json").read_text())
        for key in ("termination", "blowup_side"):
            assert report[key] == ref[key]
        assert report["max_lambda"] == pytest.approx(ref["max_lambda"], rel=1e-10)
        assert "two_solutions" not in report
    if case == "solve-newton":
        assert report["converged"] is False
        assert [(a["strategy"], a["failure_reason"]) for a in report["attempts"]] == [
            ("newton", "max_iter")]
        assert not (out / "solution.txt").exists()


def test_branch_eigen_failure_writes_null_gamma1(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise EigenError("Lanczos failed")

    monkeypatch.setattr(cli, "first_eigen", fail)
    out = tmp_path / "out"
    assert main(["branch", "--config", str(DEMO_DIR / "demo_fig1.json"),
                 "--out", str(out), "--quiet"]) == 0
    analysis = strict_json(out / "analysis.json")
    assert analysis["gamma1"] is None and analysis["gamma1_margin"] is None
    assert analysis["eigen"] == {"error": "Lanczos failed"}
    assert "error" not in analysis and analysis["blowup_side"] == "left"


def test_check_and_eigen_factor_no_full_laplacian(tmp_path, monkeypatch):
    # H0 and gamma1 invert the full-box Laplacian by the dense sine basis; Hc
    # and H share one LU of the Laplacian restricted to the zero set of c, and
    # k1 factors its own stiffness on that set
    import scipy.sparse.linalg as spla

    n = 24
    cfg = write_config(tmp_path, {
        "grid": grid_block(n=n),
        "coefficients": {"c": "indicator(1, 0.25, 0.6)*indicator(2, 0.25, 0.6)",
                         "mu": "1 + 0.5*x2", "h": "0.3*sin(pi*x1)*sin(pi*x2)"},
        "lambda": -1.0,
        "conditions": ["H0", "Hc", "H", "k1"],
    })
    sizes = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu",
                        lambda A, **kw: sizes.append(A.shape[0]) or splu(A, **kw))
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "check"), "--quiet"]) == 0
    assert len(sizes) == 2 and (n - 1) ** 2 not in sizes
    sizes.clear()
    assert main(["eigen", "--config", cfg, "--out", str(tmp_path / "eigen"), "--quiet"]) == 0
    assert sizes == []


@pytest.mark.parametrize("lam", [-1.0, 0.0])
def test_check_holds_one_lu_at_a_time(tmp_path, one_lu_at_a_time, lam):
    # mu < 0 on the support of c gives Hc two sub-margins, and mu > 0 off it
    # keeps k1 defined. With lam = -1 the shared LU of the c-zero mask serves
    # both Hc suprema and H; with lam = 0 the zero set of d = lam c is every
    # node and H takes the sine basis. Either way the check makes 2 LUs, and
    # each must be gone when the next is made
    box = "indicator(1, 0.25, 0.6)*indicator(2, 0.25, 0.6)"
    cfg = write_config(tmp_path, {
        "grid": grid_block(n=24),
        "coefficients": {"c": box, "mu": f"1 + 0.5*x2 - 3*{box}",
                         "h": "0.3*sin(pi*x1)*sin(pi*x2) - 0.25*sin(2*pi*x1)*sin(pi*x2)"},
        "lambda": lam,
        "conditions": ["H0", "Hc", "H", "k1"],
    })
    out = tmp_path / "check"
    assert main(["check", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert len(one_lu_at_a_time) == 2
    report = strict_json(out / "report.json")
    hc = report["conditions"][1]
    assert hc["condition"] == "Hc" and all(m < 1.0 for m in hc["sub_infima"])

    one_lu_at_a_time.clear()
    h_only = write_config(tmp_path, {**json.loads(Path(cfg).read_text()), "conditions": ["H"]},
                          name="h.json")
    assert main(["check", "--config", h_only, "--out", str(tmp_path / "h"), "--quiet"]) == 0
    assert len(one_lu_at_a_time) == (1 if lam else 0)


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


def test_consecutive_calls_carry_no_state(tmp_path, capsys):
    # the parser is built once per process; a second call with another
    # command, without --quiet or --seed, gets their defaults back
    cfg = write_config(
        tmp_path,
        {"grid": grid_block(dim=1, n=16), "coefficients": {"c": "1", "mu": "1", "h": "0"},
         "lambda": -1.0, "seed": 7},
    )
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["solve", "--config", cfg, "--out", str(first), "--quiet",
                 "--seed", "11"]) == 0
    assert capsys.readouterr().out == ""
    assert main(["eigen", "--config", cfg, "--out", str(second)]) == 0
    assert "gamma1 = " in capsys.readouterr().out
    assert json.loads((first / "report.json").read_text())["seed"] == 11
    report = json.loads((second / "report.json").read_text())
    assert report["command"] == "eigen" and report["seed"] == 7
    assert not (second / "solution.txt").exists()
    assert main(["eigen", "--out", str(second)]) == 1  # --config is required again
    assert main([]) == 1
