import numpy as np
import pytest

from gqc import (
    GridFunction,
    SolveOptions,
    TransformedProblem,
    monotone_enclosure,
    multi_start,
    newton_solve,
    residual_P,
    solve_transformed,
)
from gqc import grid, solver
from gqc.grid import factor, grad_sq_values
from gqc.solver import quasilinear_residual, residual_with_scale, solve_cascade

from conftest import make_problem


def manufactured_1d_problem(spec):
    # u* = x(1-x), lam = -1, c = mu = 1:
    # h = -u*'' - lam u* - |u*'|^2 = 2 + x(1-x) - (1-2x)^2; h(0.5) = 2.25
    return make_problem(
        spec, c="1", mu="1",
        h="2 + x1*(1-x1) - (1-2*x1)^2",
        lam=-1.0,
    )


# ---------------------------------------------------------------------------
# residual


def test_residual_zero_data(interval64):
    spec, ops = interval64
    problem = make_problem(spec, h="0")
    r = residual_P(GridFunction.zeros(spec), problem, ops)
    assert np.all(r.values == 0.0)


def test_residual_constant_forcing(interval64):
    spec, ops = interval64
    problem = make_problem(spec, h="1")
    r = residual_P(GridFunction.zeros(spec), problem, ops)
    assert np.allclose(r.values, -1.0)


def test_residual_manufactured_quadratic(interval64):
    spec, ops = interval64
    problem = manufactured_1d_problem(spec)
    x = spec.axis_coords(0)
    mid = int(np.argmin(np.abs(x - 0.5)))
    assert problem.h.values[mid] == pytest.approx(2.25, abs=1e-13)
    u_star = GridFunction(spec, x * (1 - x))
    r = residual_P(u_star, problem, ops)
    assert np.max(np.abs(r.values)) <= 1e-12


# ---------------------------------------------------------------------------
# Newton


def test_newton_trivial_root(interval64):
    spec, ops = interval64
    problem = make_problem(spec, h="0", lam=-1.0)
    u, rep = newton_solve(problem, GridFunction.zeros(spec), ops)
    assert rep.converged and rep.iterations <= 1
    assert np.max(np.abs(u.values)) == 0.0


def test_newton_manufactured_recovery(interval64):
    spec, ops = interval64
    problem = manufactured_1d_problem(spec)
    x = spec.axis_coords(0)
    u, rep = newton_solve(problem, GridFunction.zeros(spec), ops)
    assert rep.converged and rep.iterations <= 8
    assert np.max(np.abs(u.values - x * (1 - x))) <= 1e-10


def test_newton_2d_sign_structure(square32):
    # A3-shaped data (d <= 0, h >= 0): every solution is nonnegative
    spec, ops = square32
    problem = make_problem(spec, h="0.5*sin(pi*x1)*sin(pi*x2)", lam=-1.0, profile="A2")
    u, rep = newton_solve(problem, GridFunction.zeros(spec), ops)
    assert rep.converged
    assert np.min(u.values) >= -1e-8


def test_newton_reports_failure_honestly(square32):
    spec, ops = square32
    problem = make_problem(spec, h="6*pi^2", lam=-8.0)
    u, rep = newton_solve(problem, GridFunction.zeros(spec), ops,
                          SolveOptions(max_newton=12))
    assert not rep.converged
    assert rep.failure_reason in ("max_iter", "line_search_stall", "diverged")
    assert rep.final_residual > rep.tolerance_used


def test_newton_3d_manufactured():
    from gqc import GridSpec, build_operators
    from gqc.oracle import manufactured_h

    spec = GridSpec(3, ((0.0, 1.0),) * 3, (12, 12, 12))
    ops = build_operators(spec)
    pts = spec.interior_points()
    u_star = GridFunction(
        spec,
        np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1]) * np.sin(np.pi * pts[:, 2]),
    )
    base = make_problem(spec, h="0", lam=-1.0)
    h = manufactured_h(u_star, base, ops)
    problem = make_problem(spec, h=h.values, lam=-1.0)
    u, rep = newton_solve(problem, GridFunction.zeros(spec), ops)
    assert rep.converged
    assert np.max(np.abs(u.values - u_star.values)) <= 1e-10


def test_residual_with_scale_matches_separate_evaluations(square32):
    spec, ops = square32
    rng = np.random.default_rng(4)
    u, d, mu, h = (rng.standard_normal(spec.n_interior) for _ in range(4))
    R, scale = residual_with_scale(u, d, mu, h, ops)
    assert np.array_equal(R, quasilinear_residual(u, d, mu, h, ops))
    terms = (ops.laplacian @ u, d * u, mu * grad_sq_values(u, ops), h)
    assert np.array_equal(R, terms[0] - terms[1] - terms[2] - h)
    assert scale == sum(np.max(np.abs(t)) for t in terms)


@pytest.mark.parametrize("dim, n", [(2, 32), (3, 14)])
def test_newton_reuses_the_first_lu(dim, n, monkeypatch):
    from gqc import GridSpec, build_operators

    spec = GridSpec(dim, ((0.0, 1.0),) * dim, (n,) * dim)
    ops = build_operators(spec)
    problem = make_problem(spec, mu="0.5 + 0.25*sin(pi*x1)", h="2 + x2", lam=-2.0)
    sizes = []
    monkeypatch.setattr(grid, "factor", lambda A: sizes.append(A.shape[0]) or factor(A))
    u, rep = newton_solve(problem, GridFunction.zeros(spec), ops)
    assert rep.converged and rep.iterations >= 3
    # 2-D factors its first Jacobian; 3-D starts from the sine-transform
    # preconditioner and needs no LU at all here
    assert len(sizes) == (1 if dim == 2 else 0)
    # a Krylov cap of 0 refactors at every step and lands on the same root
    monkeypatch.setattr(grid, "KRYLOV_MAX_ITER", 0)
    sizes.clear()
    u_fresh, rep_fresh = newton_solve(problem, GridFunction.zeros(spec), ops)
    assert rep_fresh.iterations == rep.iterations
    assert len(sizes) == rep.iterations
    assert np.max(np.abs(u.values - u_fresh.values)) <= 1e-12 * np.max(np.abs(u.values))


def test_3d_cascade_enclosure_and_multi_start_make_no_lu(monkeypatch):
    # the solve-3d benchmark's problem family on its 18^3 grid
    from gqc import GridSpec, build_operators

    spec = GridSpec(3, ((0.0, 1.0),) * 3, (18, 18, 18))
    ops = build_operators(spec)
    problem = make_problem(spec, mu="0.5 + 0.25*sin(pi*x1)",
                           h="1.1*(1 + 0.4*sin(pi*x2)*cos(0.5*pi*x3))", lam=-3.6)
    lus = []
    splu = grid.spla.splu
    monkeypatch.setattr(grid.spla, "splu", lambda A, **kw: lus.append(A.shape[0]) or splu(A, **kw))
    for lam in (-3.6, -2.2, -0.9):
        _, strategy, _ = solve_cascade(problem.with_lambda(lam), ops)
        assert strategy == "newton"
    assert lus == []
    # the first steps from noise starts take the most GMRES iterations
    assert multi_start(problem, 4, 1, ops).converged_count == 4
    assert lus == []
    # with a sign-changing h the lower bound is a linear solve, not zero
    mixed = make_problem(spec, mu="0.5 + 0.25*sin(pi*x1)", h="1.1 - 2*x1*x2", lam=-3.6)
    for prob in (problem, mixed):
        alpha, beta, u_enc, rep = monotone_enclosure(prob, ops)
        assert rep.converged
        assert np.all(alpha.values <= u_enc.values + 1e-8)
        assert np.all(u_enc.values <= beta.values + 1e-8)
    assert np.min(alpha.values) < 0.0
    assert lus == []


# ---------------------------------------------------------------------------
# solver consistency


def test_solver_consistency_three_ways(square32):
    # Newton on the quasilinear problem against the transform route
    spec, ops = square32
    problem = make_problem(spec, h="0.2*sin(pi*x1)*sin(pi*x2)", lam=-1.0, profile="A2")
    u_n, rn = newton_solve(problem, GridFunction.zeros(spec), ops)
    tp = TransformedProblem(
        d_field=GridFunction(spec, -problem.c.values),
        mu=1.0,
        h_field=problem.h.field,
    )
    _, u_t = solve_transformed(tp, ops)
    assert rn.converged
    assert np.max(np.abs(u_n.values - u_t.values)) <= 1e-7


# ---------------------------------------------------------------------------
# a priori bound in lambda


def test_apriori_bound_in_lambda(square32):
    # sup|u_lam| <= 2 sup|u_lam_bar| for lam <= lam_bar < 0
    spec, ops = square32
    lam_bar = -0.25
    base = make_problem(spec, h="0.2*sin(pi*x1)*sin(pi*x2)", lam=lam_bar, profile="A2")
    u_bar, rep = newton_solve(base, GridFunction.zeros(spec), ops)
    assert rep.converged
    bound = 2 * np.max(np.abs(u_bar.values)) + 1e-8
    for lam in (lam_bar, 2 * lam_bar, 4 * lam_bar, 8 * lam_bar):
        u, rep = newton_solve(base.with_lambda(lam), GridFunction.zeros(spec), ops)
        assert rep.converged
        assert np.max(np.abs(u.values)) <= bound


# ---------------------------------------------------------------------------
# enclosure between lower and upper solutions


def test_enclosure_zero_data(interval64):
    spec, ops = interval64
    problem = make_problem(spec, h="0", lam=-1.0)
    alpha, beta, u, rep = monotone_enclosure(problem, ops)
    assert rep.converged
    for f in (alpha, beta, u):
        assert np.max(np.abs(f.values)) <= 1e-12


def test_enclosure_nonpositive_h(interval64):
    # mu >= 0 with h <= 0: upper bound 0, solution <= 0
    spec, ops = interval64
    problem = make_problem(spec, h="0 - 0.3*sin(pi*x1)", lam=-1.0)
    alpha, beta, u, rep = monotone_enclosure(problem, ops)
    assert rep.converged
    assert np.max(np.abs(beta.values)) <= 1e-12
    assert np.max(alpha.values) <= 1e-12
    assert np.max(u.values) <= 1e-8


def test_enclosure_ordering(interval64):
    spec, ops = interval64
    problem = make_problem(spec, h="0.2*sin(pi*x1)", lam=-1.0, profile="A2")
    alpha, beta, u, rep = monotone_enclosure(problem, ops)
    assert rep.converged
    assert np.min(u.values - alpha.values) >= -1e-8
    assert np.min(beta.values - u.values) >= -1e-8


def test_enclosure_mixed_sign_h(interval64):
    spec, ops = interval64
    problem = make_problem(spec, h="0.2*sin(2*pi*x1)", mu="0.5 + 0.25*sin(pi*x1)", lam=-1.0)
    alpha, beta, u, rep = monotone_enclosure(problem, ops)
    assert rep.converged
    assert np.min(u.values - alpha.values) >= -1e-8
    assert np.min(beta.values - u.values) >= -1e-8


def test_enclosure_needs_no_transform(interval64, monkeypatch):
    # the bounds are Newton solves; the Cole-Hopf route is never called
    from gqc import transform

    def refuse(*args, **kwargs):
        raise AssertionError("solve_transformed called")

    monkeypatch.setattr(transform, "solve_transformed", refuse)
    spec, ops = interval64
    for h, mu in (("0.2*sin(pi*x1)", "1"), ("0.2*sin(2*pi*x1)", "0.5 + 0.25*sin(pi*x1)")):
        problem = make_problem(spec, h=h, mu=mu, lam=-1.0)
        alpha, beta, u, rep = monotone_enclosure(problem, ops)
        assert rep.converged
        assert np.min(u.values - alpha.values) >= -1e-8
        assert np.min(beta.values - u.values) >= -1e-8
        assert np.max(beta.values) > 0.0


@pytest.mark.parametrize("dim, n, c, mu, h, lam", [
    (1, 64, "1", 1.0, "0.2*sin(pi*x1)", -1.0),
    (1, 48, "1 + x1", 2.0, "1", -3.0),
    (2, 24, "1", 1.0, "0.5*sin(pi*x1)*sin(pi*x2)", 0.0),
    (2, 20, "x1*x2", 0.75, "1 + x1", -2.0),
    (3, 10, "1", 0.5, "1 + x1*x2", -1.0),
])
def test_newton_bounds_match_the_transform_route(dim, n, c, mu, h, lam):
    # the Cole-Hopf route stays the reference for the bounds' Newton solves
    from gqc import GridSpec, build_operators

    spec = GridSpec(dim, ((0.0, 1.0),) * dim, (n,) * dim)
    ops = build_operators(spec)
    problem = make_problem(spec, c=c, mu=str(mu), h=h, lam=lam)
    d = problem.d_values()
    opts = SolveOptions()
    u_newton = solver._solve_auxiliary_bound(d, mu, problem.h.values, ops, opts)
    tp = TransformedProblem(d_field=GridFunction(spec, d), mu=mu, h_field=problem.h.field)
    _, u_transform = solve_transformed(tp, ops, opts)
    scale = np.max(np.abs(u_transform.values))
    assert scale > 0.0
    assert np.max(np.abs(u_newton - u_transform.values)) <= 1e-9 * scale


def test_enclosure_requires_nonpositive_d(interval64):
    spec, ops = interval64
    problem = make_problem(spec, h="1", lam=1.0)
    with pytest.raises(Exception, match="lam"):
        monotone_enclosure(problem, ops)


# ---------------------------------------------------------------------------
# multi start


def test_multi_start_trivial(interval64):
    spec, ops = interval64
    problem = make_problem(spec, h="0", lam=-1.0)
    rep = multi_start(problem, 6, 0, ops)
    assert rep.converged_count == 6
    assert rep.max_pairwise_distance <= 1e-10


def test_multi_start_uniqueness(square32):
    spec, ops = square32
    problem = make_problem(spec, h="0.3*sin(pi*x1)*sin(pi*x2)", lam=-1.0, profile="A2")
    rep = multi_start(problem, 10, 0, ops)
    assert rep.converged_count == 10
    assert rep.max_pairwise_distance <= 1e-8
    assert len(rep.cluster_representatives(1e-6)) == 1


def test_multi_start_reproducible(interval64):
    spec, ops = interval64
    problem = make_problem(spec, h="0.1*sin(pi*x1)", lam=-1.0)
    a = multi_start(problem, 5, 42, ops)
    b = multi_start(problem, 5, 42, ops)
    assert a.max_pairwise_distance == b.max_pairwise_distance
    for sa, sb in zip(a.solutions, b.solutions):
        assert np.array_equal(sa, sb)


def test_multi_start_two_clusters_on_folded_instance(fold_demo):
    lam = 0.5 * fold_demo["branch"].max_lambda()
    problem = fold_demo["problem"].with_lambda(lam)
    rep = multi_start(problem, 20, 0, fold_demo["ops"])
    clusters = rep.cluster_representatives(1e-3)
    assert len(clusters) >= 2
    sups = sorted(np.max(np.abs(rep.solutions[c[0]])) for c in clusters)
    assert sups[-1] - sups[0] >= 1e-3


def test_solve_options_refuse_a_nan_tolerance():
    # nan <= 0 is False; a nan tolerance made every solve run to max_iter
    with pytest.raises(ValueError, match="tol_residual"):
        SolveOptions(tol_residual=float("nan"))


def test_multi_start_needs_two(interval64):
    spec, ops = interval64
    with pytest.raises(ValueError):
        multi_start(make_problem(spec), 1, 0, ops)


def test_solve_cascade_reports(square32):
    spec, ops = square32
    problem = make_problem(spec, h="0.1*sin(pi*x1)*sin(pi*x2)", lam=-1.0)
    u, strategy, attempts = solve_cascade(problem, ops)
    assert u is not None and strategy == "newton"
    assert attempts[0]["strategy"] == "newton" and attempts[0]["converged"]


def test_solve_cascade_rejects_a_start_on_another_grid():
    # a mismatched u0 is the caller's error, not a Newton failure
    from gqc import GridSpec
    from gqc.grid import GridError

    spec = GridSpec(1, ((0.0, 1.0),), (32,))
    problem = make_problem(spec, h="0.1*sin(pi*x1)", lam=-1.0)
    u0 = GridFunction.zeros(GridSpec(1, ((0.0, 1.0),), (16,)))
    with pytest.raises(GridError):
        solve_cascade(problem, grid.build_operators(spec), u0=u0)


def test_solve_cascade_is_newton_alone(interval64):
    # lam c <= 0, yet a Newton stall from a far start is reported as it is
    spec, ops = interval64
    problem = make_problem(spec, h="0.1*sin(pi*x1)", lam=-1.0)
    far = GridFunction(spec, 200.0 * solver._first_mode_shape(problem))
    u, strategy, attempts = solve_cascade(problem, ops, u0=far)
    assert u is None and strategy is None
    assert [a["strategy"] for a in attempts] == ["newton"]
    assert not attempts[0]["converged"]
