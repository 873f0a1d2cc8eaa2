"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import gqc
from gqc import (
    GridFunction,
    GridSpec,
    build_operators,
    check_conditions,
    check_ferone_murat,
    exponent_margins,
    find_exponents,
    first_eigen,
    g_and_G,
    multi_start,
    newton_solve,
    solve_transformed,
    weighted_rayleigh_sup,
)
from gqc.cli import main as cli_main
from gqc.oracle import dense_eigen_oracle, fd_gradient_check, reference_continuation
from gqc.solver import solve_cascade

from conftest import fresh_cli, make_a3_problem, make_problem

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos" / "configs"
DATA_DIR = Path(__file__).resolve().parent / "data"


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:2d}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number:2d}: PASS - {description}")


SMOOTH_H = (
    "(2*pi^2 + 1)*sin(pi*x1)*sin(pi*x2)"
    " - pi^2*(cos(pi*x1)^2*sin(pi*x2)^2 + sin(pi*x1)^2*cos(pi*x2)^2)"
)
SMOOTH_H_3D = (
    "(3*pi^2 + 1)*sin(pi*x1)*sin(pi*x2)*sin(pi*x3)"
    " - pi^2*(cos(pi*x1)^2*sin(pi*x2)^2*sin(pi*x3)^2"
    " + sin(pi*x1)^2*cos(pi*x2)^2*sin(pi*x3)^2"
    " + sin(pi*x1)^2*sin(pi*x2)^2*cos(pi*x3)^2)"
)


def test_criterion_1_manufactured_convergence():
    with criterion(1, "manufactured-solution convergence order in [3.5, 4.5]"):
        # u* = prod sin(pi x_i) with c = mu = 1 and lam = -1, in 2-D and 3-D
        for dim, h, sizes in ((2, SMOOTH_H, (16, 32, 64)), (3, SMOOTH_H_3D, (8, 16, 32))):
            errors = []
            for n in sizes:
                spec = GridSpec(dim, ((0.0, 1.0),) * dim, (n,) * dim)
                ops = build_operators(spec)
                problem = make_problem(spec, c="1", mu="1", h=h, lam=-1.0)
                t0 = time.monotonic()
                u, rep = newton_solve(problem, GridFunction.zeros(spec), ops)
                elapsed = time.monotonic() - t0
                assert rep.converged
                assert elapsed < 5.0, f"solve on {n}^{dim} took {elapsed:.2f}s"
                target = np.prod(np.sin(np.pi * spec.interior_points()), axis=1)
                errors.append(np.max(np.abs(u.values - target)))
            for coarse, fine in zip(errors, errors[1:]):
                ratio = coarse / fine
                assert 3.5 <= ratio <= 4.5, f"{dim}-D ratio {ratio:.3f} outside [3.5, 4.5]"


def _criterion2_instance():
    spec = GridSpec(2, ((0.0, 1.0), (0.0, 1.0)), (32, 32))
    ops = build_operators(spec)
    problem = make_problem(spec, c="1", mu="1", h="0.2*sin(pi*x1)*sin(pi*x2)",
                           lam=-1.0, profile="A2")
    return spec, ops, problem


def test_criterion_2_transform_equivalence():
    with criterion(2, "direct and transform solutions agree to 1e-7"):
        spec, ops, problem = _criterion2_instance()
        u_direct, rep = newton_solve(problem, GridFunction.zeros(spec), ops)
        assert rep.converged
        _, u_transform = solve_transformed(problem, ops)
        gap = np.max(np.abs(u_direct.values - u_transform.values))
        assert gap <= 1e-7, f"gap {gap:.3e}"


def test_criterion_3_uniqueness_multistart():
    with criterion(3, "10 seeded starts agree pairwise to 1e-8 at lam in {-1, 0, -4}"):
        spec, ops, problem = _criterion2_instance()
        for lam in (-1.0, 0.0, -4.0):
            report = multi_start(problem.with_lambda(lam), 10, 0, ops)
            assert report.converged_count == 10, f"lam={lam}: {report.converged_count}/10"
            assert report.max_pairwise_distance <= 1e-8, (
                f"lam={lam}: distance {report.max_pairwise_distance:.3e}"
            )


def test_criterion_4_apriori_bound():
    with criterion(4, "sup|u_lam| <= 2 sup|u_{-0.25}| for lam in {-0.25,-0.5,-1,-2}"):
        spec, ops, problem = _criterion2_instance()
        u_bar, rep = newton_solve(problem.with_lambda(-0.25), GridFunction.zeros(spec), ops)
        assert rep.converged
        bound = 2.0 * np.max(np.abs(u_bar.values)) + 1e-8
        for lam in (-0.25, -0.5, -1.0, -2.0):
            u, rep = newton_solve(problem.with_lambda(lam), GridFunction.zeros(spec), ops)
            assert rep.converged
            sup = np.max(np.abs(u.values))
            assert sup <= bound, f"lam={lam}: {sup:.6g} > {bound:.6g}"


def test_criterion_5_eigen_accuracy():
    with criterion(5, "gamma1 within 1% of analytic; iterative vs dense <= 1e-8"):
        spec1 = GridSpec(1, ((0.0, 1.0),), (64,))
        ops1 = build_operators(spec1)
        g1 = first_eigen(GridFunction.constant(spec1, 1.0), ops1).gamma
        assert abs(g1 - np.pi**2) <= 0.01 * np.pi**2
        spec2 = GridSpec(2, ((0.0, 1.0), (0.0, 1.0)), (64, 64))
        ops2 = build_operators(spec2)
        g2 = first_eigen(GridFunction.constant(spec2, 1.0), ops2).gamma
        assert abs(g2 - 2 * np.pi**2) <= 0.01 * 2 * np.pi**2
        for spec in (GridSpec(1, ((0.0, 1.0),), (16,)),
                     GridSpec(2, ((0.0, 1.0), (0.0, 1.0)), (16, 16))):
            ops = build_operators(spec)
            c = GridFunction.constant(spec, 1.0)
            dense = dense_eigen_oracle(c, ops)
            iterative = first_eigen(c, ops).gamma
            assert abs(dense - iterative) <= 1e-8 * dense


def test_criterion_6_condition_threshold():
    with criterion(6, "H0 flips within 1% of the product threshold 2 pi^2"):
        spec = GridSpec(2, ((0.0, 1.0), (0.0, 1.0)), (64, 64))
        ops = build_operators(spec)
        nu = weighted_rayleigh_sup(GridFunction.constant(spec, 1.0), None, ops)

        def holds(product):
            problem = make_problem(spec, mu="1", h=f"{product}")
            return check_conditions(problem, ["H0"], ops)[0].holds

        target = 2 * np.pi**2
        lo, hi = 0.5 * target, 1.5 * target
        assert holds(lo) and not holds(hi)
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if holds(mid):
                lo = mid
            else:
                hi = mid
        located = 0.5 * (lo + hi)
        assert abs(located - target) <= 0.01 * target, f"located {located:.6g}"
        assert located == pytest.approx(1.0 / nu, rel=1e-6)


def test_criterion_7_ferone_murat_implies_h0():
    with criterion(7, "20 randomized d=3 instances: product check implies H0"):
        spec = GridSpec(3, ((0.0, 1.0),) * 3, (12, 12, 12))
        ops = build_operators(spec)
        rng = np.random.default_rng(2024)
        confirmed = 0
        attempts = 0
        while confirmed < 20 and attempts < 200:
            attempts += 1
            a = rng.uniform(0.5, 3.5)
            b = rng.uniform(0.0, 2.5)
            w = rng.uniform(0.1, 0.35)
            mu_sup = rng.uniform(0.2, 1.2)
            h_expr = f"{a} + {b}*exp(0-((x1-0.5)^2+(x2-0.5)^2+(x3-0.5)^2)/{w}^2)"
            problem = make_problem(spec, mu=f"{mu_sup}", h=h_expr)
            if not check_ferone_murat(problem).holds:
                continue
            assert check_conditions(problem, ["H0"], ops)[0].holds, (a, b, w, mu_sup)
            confirmed += 1
        assert confirmed == 20, f"only {confirmed} qualifying instances"


def assert_branch_matches_reference(path, name):
    """A demo's branch.csv against its committed reference: the header, the
    row count and the integer columns (idx, newton_iters) exactly, the float
    columns (lambda, sup_norm, h10_norm, arclength) to 1e-10 relative."""
    ref_path = DATA_DIR / name
    assert path.read_text().splitlines()[0] == ref_path.read_text().splitlines()[0]
    got = np.loadtxt(path, delimiter=",", skiprows=1)
    ref = np.loadtxt(ref_path, delimiter=",", skiprows=1)
    assert got.shape == ref.shape
    assert np.array_equal(got[:, [0, 5]], ref[:, [0, 5]])
    assert np.all(np.abs(got[:, 1:5] - ref[:, 1:5]) <= 1e-10 * np.abs(ref[:, 1:5]))


def assert_close_json(got, ref, path="$"):
    """Floats to 1e-10 relative, everything else (ints, strings, lists of
    indices, null) exactly."""
    if isinstance(ref, float):
        assert isinstance(got, float) and abs(got - ref) <= 1e-10 * abs(ref), path
    elif isinstance(ref, dict):
        assert sorted(got) == sorted(ref), path
        for key in ref:
            assert_close_json(got[key], ref[key], f"{path}.{key}")
    else:
        assert got == ref, path


def assert_demo_matches_golden(out, demo):
    """A demo's branch artifacts in ``out`` as the committed golden files record them."""
    assert_branch_matches_reference(out / "branch.csv", f"{demo}_branch.csv")
    ref = json.loads((DATA_DIR / f"{demo}_analysis.json").read_text())
    assert_close_json(json.loads((out / "analysis.json").read_text()), ref)
    pair = sorted(p.name for p in out.glob("solution_*.txt"))
    assert pair == (["solution_high.txt", "solution_low.txt"] if "two_solutions" in ref else [])
    for name in pair:
        got, want = np.loadtxt(out / name), np.loadtxt(DATA_DIR / f"{demo}_{name}")
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want))


@pytest.mark.parametrize("demo", ["demo_fig1", "demo_fig2"])
def test_demo_branch_artifacts_match_golden(demo, tmp_path):
    out = tmp_path / demo
    assert cli_main(["branch", "--config", str(DEMO_DIR / f"{demo}.json"),
                     "--out", str(out), "--quiet"]) == 0
    assert_demo_matches_golden(out, demo)


def test_fresh_1d_branch_loads_lapack_alone_and_matches_golden(tmp_path):
    # 1-D steps factor by LAPACK's tridiagonal LU, imported at the first one;
    # the tests import it themselves, so only a fresh process tests that import
    out = tmp_path / "demo_fig2"
    assert fresh_cli(["branch", "--config", str(DEMO_DIR / "demo_fig2.json"),
                      "--out", str(out), "--quiet"]) == (0, ["scipy.linalg"])
    assert_demo_matches_golden(out, "demo_fig2")


def test_criterion_8_fold_branch_behavior(tmp_path):
    with criterion(8, "folded-family branch: crossing, fold, two solutions, right blow-up"):
        t0 = time.monotonic()
        out = tmp_path / "fig2"
        code = cli_main(["branch", "--config", str(DEMO_DIR / "demo_fig2.json"),
                         "--out", str(out), "--quiet"])
        assert code == 0
        analysis = json.loads((out / "analysis.json").read_text())
        rows = np.loadtxt(out / "branch.csv", delimiter=",", skiprows=1)
        lams, sups = rows[:, 1], rows[:, 2]
        assert_branch_matches_reference(out / "branch.csv", "demo_fig2_branch.csv")

        # crosses the axis with finite norms
        assert lams.min() < 0.0 < lams.max()
        assert np.all(np.isfinite(sups))
        # fold abscissa strictly inside (0, pi^2), below gamma1 by 0.05
        fold = analysis["fold_lambda"]
        assert 0.0 < fold < np.pi**2
        assert analysis["gamma1_margin"] >= 0.05
        assert analysis["folds"], "no fold recorded"
        # two refined solutions at fold/2
        two = analysis["two_solutions"]
        assert two["lambda"] == pytest.approx(fold / 2.0, rel=1e-12)
        assert two["sup_gap"] >= 1e-2
        assert np.min(np.loadtxt(out / "solution_low.txt")) >= -1e-8
        assert np.min(np.loadtxt(out / "solution_high.txt")) >= -1e-8
        # norm-cap termination on the right of the axis
        assert analysis["termination"] == "norm_cap"
        assert analysis["blowup_side"] == "right"
        assert lams[-1] > 0.0

        # independent reference tracer agrees on the fold to 5%
        cfg = json.loads((DEMO_DIR / "demo_fig2.json").read_text())
        spec = GridSpec(1, ((0.0, 1.0),), (64,))
        ops = build_operators(spec)
        problem = make_problem(spec, c="1", mu="1", h="0.1*sin(pi*x1)",
                               lam=-1.0, profile="A2")
        ref = reference_continuation(problem, cfg["continuation"]["lambda0"], ops,
                                     norm_cap=cfg["continuation"]["norm_cap"])
        assert abs(ref.max_lambda() - fold) <= 0.05 * fold
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_9_blowup_branch_behavior(tmp_path):
    with criterion(9, "blow-up family: norm-cap exit at lam<0, 10x growth toward the axis"):
        out = tmp_path / "fig1"
        code = cli_main(["branch", "--config", str(DEMO_DIR / "demo_fig1.json"),
                         "--out", str(out), "--quiet"])
        assert code == 0
        analysis = json.loads((out / "analysis.json").read_text())
        assert analysis["termination"] == "norm_cap"
        assert analysis["blowup_side"] == "left"
        rows = np.loadtxt(out / "branch.csv", delimiter=",", skiprows=1)
        assert rows[-1, 1] < 0.0
        assert_branch_matches_reference(out / "branch.csv", "demo_fig1_branch.csv")

        spec = GridSpec(2, ((0.0, 30.0), (0.0, 30.0)), (32, 32))
        ops = build_operators(spec)
        problem = make_problem(spec, c="1", mu="1", h="pi^2/150",
                               lam=-1.0, profile="A2")
        assert not check_conditions(problem, ["H0"])[0].holds
        sups = {}
        u0 = None
        for lam in (-8.0, -4.0, -2.0, -1.0, -0.5, -0.2, -0.1, -0.05, -0.03, -0.02):
            u, strategy, _ = solve_cascade(problem.with_lambda(lam), ops, u0=u0)
            assert u is not None, f"no solution at lam={lam}"
            sups[lam] = np.max(np.abs(u.values))
            u0 = u
        ratio = sups[-0.02] / sups[-1.0]
        assert ratio >= 10.0, f"growth ratio {ratio:.2f} < 10"


def test_criterion_10_g_G_properties():
    with criterion(10, "g/G: symmetry, sign, nonnegativity, superquadratic growth, quadrature"):
        rng = np.random.default_rng(77)
        s = rng.uniform(-100, 100, 1000)
        s = s[s != 0.0]
        for mu in (0.5, 1.0, 2.0):
            g_pos, G_pos = g_and_G(s, mu)
            g_neg, G_neg = g_and_G(-s, mu)
            assert np.allclose(g_neg, -g_pos, rtol=0, atol=1e-12 * np.max(np.abs(g_pos)))
            assert np.array_equal(G_neg, G_pos)
            assert np.all(g_pos * s > 0.0)
            assert np.all(G_pos >= 0.0)
            ratios = [g_and_G(t, mu)[1] / t**2 for t in (1.0, 10.0, 100.0, 1000.0)]
            assert ratios[0] < ratios[1] < ratios[2] < ratios[3]
            for t in (0.5, 1.0, 3.0):
                integral, _ = quad(lambda x: g_and_G(x, mu)[0], 0.0, t, epsabs=1e-12)
                assert abs(integral - g_and_G(t, mu)[1]) <= 1e-8


def test_criterion_11_exponent_witnesses():
    with criterion(11, "exponent witnesses pass an independent re-check on the grid"):
        for p in (1.6, 2.0, 5.0, 10.0):
            for dim in (3, 4):
                for theta in (0.1, 0.5, 0.9):
                    if p <= dim / 2.0:
                        with pytest.raises(ValueError):
                            find_exponents(p, theta, dim)
                        continue
                    w = find_exponents(p, theta, dim)
                    # independent recomputation of the definitions
                    q = 1.0 + w.r + (1.0 + theta * w.alpha) / (1.0 - w.alpha)
                    tau = (1.0 / q) * w.alpha / (1.0 - w.alpha)
                    assert q == pytest.approx(w.q, rel=1e-15)
                    assert tau == pytest.approx(w.tau, rel=1e-15)
                    assert 0.0 < w.alpha < 1.0 and 0.0 < w.r < 1.0
                    assert 1.0 / p <= q <= 2.0 * dim * (p - 1.0) / (p * (dim - 2.0 + 2.0 * tau))
                    assert 1.0 - w.alpha < 2.0 / q
                    m1, m2, m3 = exponent_margins(w)
                    assert m1 >= 0.0 and m2 >= 0.0 and m3 > 0.0


def test_criterion_12_functional_gradient():
    with criterion(12, "functional gradient matches finite differences to 1e-6"):
        rng = np.random.default_rng(123)
        cases = [
            (GridSpec(1, ((0.0, 1.0),), (16,)), "0-1", "1"),
            (GridSpec(1, ((0.0, 1.0),), (12,)), "0-x1", "sin(pi*x1)"),
            (GridSpec(2, ((0.0, 1.0), (0.0, 1.0)), (10, 10)), "0-1", "x1*x2"),
            (GridSpec(2, ((0.0, 1.0), (0.0, 1.0)), (8, 8)), "0-2-x2", "1+x1"),
            (GridSpec(2, ((0.0, 2.0), (0.0, 1.0)), (12, 8)), "0-0.5", "max(x1-1, 0)"),
        ]
        for i, (spec, d_expr, h_expr) in enumerate(cases):
            ops = build_operators(spec)
            problem = make_a3_problem(spec, d_expr, 1.0 + 0.5 * i, h_expr)
            v = GridFunction(spec, rng.uniform(-1.0, 1.0, spec.n_interior))
            err = fd_gradient_check(problem, v, ops, seed=i)
            assert err <= 1e-6, f"case {i}: rel err {err:.3e}"
