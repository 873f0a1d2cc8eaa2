import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from gqc import (
    ContinuationOptions,
    GridSpec,
    analyze_branch,
    build_operators,
    first_eigen,
    locate_fold,
    residual_P,
    trace_branch,
)
from gqc import continuation, grid
from gqc.grid import factor
from gqc.solver import quasilinear_jacobian, residual_with_scale

from conftest import make_problem


def test_trivial_branch_is_flat_zero(interval64):
    spec, ops = interval64
    problem = make_problem(spec, h="0", profile="A1")
    opts = ContinuationOptions(ds0=0.25, max_points=60)
    branch = trace_branch(problem, -2.0, ops, opts)
    assert branch.termination == "max_points"
    assert all(p.sup_norm <= 1e-12 for p in branch.points)
    assert not branch.folds
    lams = branch.lambdas
    gamma1 = first_eigen(problem.c.field, ops).gamma
    assert lams[0] == -2.0 and lams.max() >= gamma1 - 0.1  # sails past the eigenvalue
    analysis = analyze_branch(branch, gamma1)
    assert analysis.blowup_side == "none"
    assert analysis.fold_index is None


def test_fold_branch_structure(fold_demo):
    branch = fold_demo["branch"]
    gamma1 = first_eigen(fold_demo["problem"].c.field, fold_demo["ops"]).gamma
    lams = branch.lambdas
    # crosses lambda = 0 with finite norms on the lower sub-branch
    assert lams.min() < 0.0 < lams.max()
    # fold strictly inside (0, pi^2), safely below the eigenvalue
    assert branch.folds
    assert 0.0 < branch.max_lambda() <= gamma1 - 0.05
    # the recorded fold index sits at a sign change of the lambda increments
    i = branch.folds[0]
    d0 = branch.points[i].lam - branch.points[i - 1].lam
    d1 = branch.points[i + 1].lam - branch.points[i].lam
    assert d0 * d1 < 0.0
    # norm-cap termination on the right of the axis
    assert branch.termination == "norm_cap"
    assert branch.points[-1].lam > 0.0
    # past the fold the norms increase while lambda falls back toward 0+
    i = branch.folds[0]
    upper = branch.points[i:]
    assert all(b.sup_norm > a.sup_norm for a, b in zip(upper, upper[1:]))
    assert all(b.lam < a.lam for a, b in zip(upper[1:], upper[2:]))
    # nonnegative solutions along the branch
    assert min(float(p.u.values.min()) for p in branch.points) >= -1e-8


def test_branch_points_reverify(fold_demo):
    branch = fold_demo["branch"]
    problem = fold_demo["problem"]
    ops = fold_demo["ops"]
    tol0 = fold_demo["opts"].solve.tol_residual
    for p in branch.points[:: max(1, len(branch.points) // 12)]:
        prob = problem.with_lambda(p.lam)
        resid = residual_P(p.u, prob, ops)
        scale = residual_with_scale(p.u.values, prob.d_values(), prob.mu.values,
                                    prob.h.values, ops)[1]
        assert np.max(np.abs(resid.values)) <= tol0 * (1.0 + scale)
        # stored norms match recomputation
        assert p.sup_norm == pytest.approx(np.max(np.abs(p.u.values)), abs=1e-12)
        h10 = np.sqrt(ops.energy_product(p.u.values, p.u.values))
        assert p.h10_norm == pytest.approx(h10, abs=1e-12 * (1 + h10))


def test_branch_step_size_invariant(fold_demo):
    branch = fold_demo["branch"]
    for prev, cur in zip(branch.points[1:], branch.points[2:]):
        if cur.ds > 0:
            assert cur.s - prev.s <= 2.0 * cur.ds + 1e-12


def test_fold_bisection_location(fold_demo):
    branch = fold_demo["branch"]
    opts = fold_demo["opts"]
    lam_fold, sigma = locate_fold(branch, fold_demo["problem"], fold_demo["ops"], opts)
    assert lam_fold == pytest.approx(branch.max_lambda(), abs=1e-3)
    i = branch.folds[0]
    assert 0.0 <= sigma <= branch.points[i + 1].s - branch.points[i - 1].s


def test_two_solution_extraction(fold_demo):
    branch = fold_demo["branch"]
    problem = fold_demo["problem"]
    ops = fold_demo["ops"]
    gamma1 = first_eigen(problem.c.field, ops).gamma
    lam = 0.5 * branch.max_lambda()
    analysis = analyze_branch(branch, gamma1, problem=problem, ops=ops,
                              opts=fold_demo["opts"], two_solution_lambda=lam)
    pair = analysis.pair
    assert pair is not None
    assert pair.sup_gap >= 1e-2
    assert np.min(pair.u_low.values) >= -1e-8
    assert np.min(pair.u_high.values) >= -1e-8
    for u in (pair.u_low, pair.u_high):
        resid = residual_P(u, problem.with_lambda(lam), ops)
        scale = residual_with_scale(u.values, lam * problem.c.values,
                                    problem.mu.values, problem.h.values, ops)[1]
        assert np.max(np.abs(resid.values)) <= 1e-9 * (1.0 + scale)


def test_two_solution_errors(fold_demo):
    branch = fold_demo["branch"]
    problem = fold_demo["problem"]
    ops = fold_demo["ops"]
    with pytest.raises(ValueError, match="outside"):
        analyze_branch(branch, 9.8, problem=problem, ops=ops,
                       two_solution_lambda=branch.max_lambda() + 1.0)
    with pytest.raises(ValueError, match="outside"):
        analyze_branch(branch, 9.8, problem=problem, ops=ops,
                       two_solution_lambda=-0.5)


def test_no_fold_extraction_raises(interval64):
    spec, ops = interval64
    problem = make_problem(spec, h="0")
    branch = trace_branch(problem, -1.0, ops, ContinuationOptions(max_points=20))
    with pytest.raises(ValueError, match="fold"):
        analyze_branch(branch, 9.8, problem=problem, ops=ops, two_solution_lambda=0.5)


def test_blowup_branch_left_side(blowup_demo):
    branch = blowup_demo["branch"]
    assert branch.termination == "norm_cap"
    assert branch.points[-1].lam < 0.0
    assert not branch.folds
    # norms grow monotonically toward the axis on this family
    sups = branch.sup_norms
    assert np.all(np.diff(sups) > -1e-12)
    analysis = analyze_branch(branch, 0.0219)
    assert analysis.blowup_side == "left"


def test_apriori_shadow_on_fold_branch(fold_demo):
    # away from the axis (lam >= fold/4) the branch norms stay bounded by a
    # modest family constant; the blow-up window is confined to small lambda
    branch = fold_demo["branch"]
    lam_quarter = branch.max_lambda() / 4.0
    segment = [p.sup_norm for p in branch.points if p.lam >= lam_quarter]
    assert segment
    assert max(segment) <= 5.0


def test_branch_with_vanishing_c(interval64):
    # c supported on half the interval: the restricted smallness condition
    # governs solvability and the branch still folds below the weighted
    # eigenvalue
    spec, ops = interval64
    problem = make_problem(spec, c="indicator(1, 0.5, 1.0)",
                           h="0.2*sin(pi*x1)", profile="A1")
    from gqc import check_smallness

    assert check_smallness(problem, "Hc").holds
    gamma1 = first_eigen(problem.c.field, ops).gamma
    branch = trace_branch(problem, -2.0, ops,
                          ContinuationOptions(norm_cap=3.0, max_points=300))
    assert branch.termination == "norm_cap"
    assert branch.folds
    lams = branch.lambdas
    assert lams.min() < 0.0 < lams.max()
    assert branch.max_lambda() < gamma1


def test_branch_with_variable_mu(interval64):
    # the tracer only needs the general-mu Newton machinery, so spatially
    # varying mu folds and caps like the constant case
    spec, ops = interval64
    problem = make_problem(spec, mu="1 + 0.5*sin(pi*x1)",
                           h="0.1*sin(pi*x1)", profile="A2")
    branch = trace_branch(problem, -2.0, ops,
                          ContinuationOptions(norm_cap=2.0, max_points=300))
    assert branch.termination == "norm_cap"
    assert branch.folds
    assert branch.points[-1].lam > 0.0


def test_lambda_min_termination(interval64):
    # with a huge cap the tracer eventually leaves the window on the left
    # (at this resolution the large-amplitude segment flattens out), which
    # exercises the lambda_min exit
    spec, ops = interval64
    problem = make_problem(spec, h="0.1*sin(pi*x1)", profile="A2")
    branch = trace_branch(problem, -2.0, ops,
                          ContinuationOptions(norm_cap=1e3, lambda_min=-30.0,
                                              max_points=2000))
    assert branch.termination == "lambda_min"
    assert branch.points[-1].lam < -30.0


def test_continuation_options_refuse_a_nan_lambda_min():
    # a nan lambda_min would never end a trace
    with pytest.raises(ValueError, match="lambda_min"):
        ContinuationOptions(lambda_min=float("nan"))


def test_empty_branch_analysis_raises():
    from gqc.continuation import Branch

    with pytest.raises(ValueError):
        analyze_branch(Branch(), 1.0)


def test_seed_failure_reported(square32):
    from gqc.solver import SolverError

    spec, ops = square32
    problem = make_problem(spec, h="6*pi^2", profile="A2")  # unsolvable at -2
    with pytest.raises(SolverError, match="seed"):
        trace_branch(problem, -2.0, ops, ContinuationOptions(max_points=20))


# ---------------------------------------------------------------------------
# the block-elimination corrector against the bordered LU it replaces


def _reference_corrector(problem, ops, opts, base_lam, base_u, t_lam, t_u, ds):
    """The corrector with every Newton step an LU of the bordered matrix."""
    c, mu, h = problem.c.values, problem.mu.values, problem.h.values
    scale = ops.node_weight / (1.0 + ops.energy_product(base_u, base_u))
    cvec = scale * (ops.laplacian @ t_u)
    lam, u = base_lam + ds * t_lam, base_u + ds * t_u
    for it in range(1, continuation.MAX_CORRECTOR + 1):
        d = lam * c
        R, rscale = residual_with_scale(u, d, mu, h, ops)
        constraint = t_lam * (lam - base_lam) + float(cvec @ (u - base_u)) - ds
        tol = opts.solve.tol_residual * (1.0 + rscale)
        if np.max(np.abs(R)) <= tol and abs(constraint) <= 1e-10 * (1.0 + abs(ds)):
            return u, lam, it - 1
        bordered = _bordered_matrix(quasilinear_jacobian(u, d, mu, ops), -(c * u), cvec, t_lam)
        delta = spla.splu(bordered).solve(-np.append(R, constraint))
        u, lam = u + delta[:-1], lam + delta[-1]
    raise AssertionError("reference corrector did not converge")


def _bordered_matrix(J, col, row, corner):
    return sp.bmat([[J, col[:, None]], [sp.csr_matrix(row[None, :]), [[corner]]]],
                   format="csc")


@pytest.fixture(scope="module")
def fold_square24():
    """The 2-D folded family on 24^2 cells, traced, with its located fold."""
    spec = GridSpec(2, ((0.0, 1.0), (0.0, 1.0)), (24, 24))
    ops = build_operators(spec)
    problem = make_problem(spec, h="0.5*sin(pi*x1)*sin(pi*x2)", profile="A2")
    opts = ContinuationOptions(norm_cap=3.0, max_points=200)
    branch = trace_branch(problem, -2.0, ops, opts)
    lam_fold, sigma = locate_fold(branch, problem, ops, opts)
    i = branch.folds[0]
    a, mid = branch.points[i - 1], branch.points[i]
    e = ops.energy_product(a.u.values, a.u.values)
    dl, du = mid.lam - a.lam, mid.u.values - a.u.values
    nrm = continuation._product_norm(dl, du, e, ops)
    return {"ops": ops, "problem": problem, "opts": opts, "branch": branch,
            "sigma": sigma, "lam_fold": lam_fold,
            "fold_step": (a.lam, a.u.values, dl / nrm, du / nrm)}


def _ordinary_step(data):
    """A secant step from an early branch point, far from the fold."""
    p0, p1 = data["branch"].points[3], data["branch"].points[4]
    ops = data["ops"]
    e = ops.energy_product(p1.u.values, p1.u.values)
    dl, du = p1.lam - p0.lam, p1.u.values - p0.u.values
    nrm = continuation._product_norm(dl, du, e, ops)
    return (p1.lam, p1.u.values, dl / nrm, du / nrm), 0.1


def _assert_same_step(got, ref):
    u, lam, iters = got[:3]
    assert iters == ref[2]
    assert abs(lam - ref[1]) <= 1e-10 * abs(ref[1])
    assert np.max(np.abs(u - ref[0])) <= 1e-10 * np.max(np.abs(ref[0]))


def test_corrector_matches_bordered_lu(fold_square24, monkeypatch):
    data = fold_square24
    args = (data["problem"], data["ops"], data["opts"])
    sizes = _counting_factor(monkeypatch)
    step, ds = _ordinary_step(data)
    _assert_same_step(continuation._corrector(*args, *step, ds, grid.HeldFactor()),
                      _reference_corrector(*args, *step, ds))
    # at the located fold the Jacobian is nearly singular
    step, sigma = data["fold_step"], data["sigma"]
    got = continuation._corrector(*args, *step, sigma, grid.HeldFactor())
    _assert_same_step(got, _reference_corrector(*args, *step, sigma))
    assert got[1] == pytest.approx(data["lam_fold"], rel=1e-12)
    # block elimination throughout: only J was factored, never the bordered matrix
    assert set(sizes) == {data["problem"].spec.n_interior}
    J = quasilinear_jacobian(got[0], got[1] * data["problem"].c.values,
                             data["problem"].mu.values, data["ops"]).toarray()
    assert np.linalg.cond(J) > 1e8


def test_bordered_solve_at_fold_matches_lu(fold_square24):
    # one linear step at the fold point, against the bordered LU
    data = fold_square24
    problem, ops = data["problem"], data["ops"]
    base_lam, base_u, t_lam, t_u = data["fold_step"]
    u, lam, _ = continuation._corrector(problem, ops, data["opts"], *data["fold_step"],
                                        data["sigma"], grid.HeldFactor())
    c = problem.c.values
    J = quasilinear_jacobian(u, lam * c, problem.mu.values, ops)
    row = ops.laplacian @ t_u
    rng = np.random.default_rng(3)
    rhs_u, rhs_g = rng.standard_normal(u.size), 0.7
    # nothing held: J is factored and the step solved by block elimination
    held = grid.HeldFactor()
    got = held.solve(J, np.append(rhs_u, rhs_g), 0.0, border=(-(c * u), row, t_lam))
    assert (held.factorizations, held.krylov_solves) == (1, 0)
    du, dl = got[:-1], got[-1]
    ref = spla.splu(_bordered_matrix(J, -(c * u), row, t_lam)).solve(np.append(rhs_u, rhs_g))
    assert abs(dl - ref[-1]) <= 1e-10 * abs(ref[-1])
    assert np.max(np.abs(du - ref[:-1])) <= 1e-10 * np.max(np.abs(ref[:-1]))


def test_bordered_fallback_when_jacobian_factor_fails(fold_square24, monkeypatch):
    data = fold_square24
    args = (data["problem"], data["ops"], data["opts"])
    n = data["problem"].spec.n_interior
    sizes = []

    def jacobian_refused(A):
        sizes.append(A.shape[0])
        if A.shape[0] == n:
            raise RuntimeError("Factor is exactly singular")
        return factor(A)

    cases = [_ordinary_step(data), (data["fold_step"], data["sigma"])]
    expected = [continuation._corrector(*args, *step, ds, grid.HeldFactor())
                for step, ds in cases]
    monkeypatch.setattr(grid, "factor", jacobian_refused)
    for (step, ds), ref in zip(cases, expected):
        sizes.clear()
        got = continuation._corrector(*args, *step, ds, grid.HeldFactor())
        _assert_same_step(got, ref)
        # every Newton step tried J, then factored the bordered matrix
        assert sizes == [n, n + 1] * got[2]


def _counting_factor(monkeypatch):
    sizes = []
    monkeypatch.setattr(grid, "factor", lambda A: sizes.append(A.shape[0]) or factor(A))
    return sizes


def test_locate_fold_holds_one_factor(fold_square24, monkeypatch):
    data = fold_square24
    args = (data["branch"], data["problem"], data["ops"], data["opts"])
    sizes = _counting_factor(monkeypatch)
    lam, _ = locate_fold(*args)
    assert len(sizes) <= 5
    # the reference search: every corrector step a fresh LU of the bordered matrix
    steps = []

    def reference(*corrector_args):
        got = _reference_corrector(*corrector_args[:8])
        steps.append(got[2])
        return got

    monkeypatch.setattr(continuation, "_corrector", reference)
    lam_ref, _ = locate_fold(*args)
    assert abs(lam - lam_ref) <= 1e-10 * abs(lam_ref)
    assert sum(steps) > 10 * len(sizes)


def test_locate_fold_raises_when_the_final_corrector_is_rejected(fold_demo, monkeypatch):
    from gqc.solver import SolverError

    monkeypatch.setattr(continuation, "MAX_CORRECTOR", 0)
    with pytest.raises(SolverError, match="arclength offset"):
        locate_fold(fold_demo["branch"], fold_demo["problem"], fold_demo["ops"],
                    fold_demo["opts"])


def test_corrector_refactors_after_a_krylov_miss(fold_square24, monkeypatch):
    data = fold_square24
    args = (data["problem"], data["ops"], data["opts"])
    step, ds = _ordinary_step(data)
    held = grid.HeldFactor()
    reused = continuation._corrector(*args, *step, ds, held)
    assert held.factorizations == 1 and held.krylov_solves == reused[2] - 1
    monkeypatch.setattr(grid, "gmres", lambda *a: None)
    sizes = _counting_factor(monkeypatch)
    missed = grid.HeldFactor()
    missed.lu = held.lu
    got = continuation._corrector(*args, *step, ds, missed)
    _assert_same_step(got, reused)
    assert missed.factorizations == len(sizes) == got[2]
    assert missed.krylov_solves == got[2]


def test_one_dimensional_branch_never_takes_the_krylov_path(fold_demo, monkeypatch):
    def refused(*args):
        raise AssertionError("Krylov path taken on a 1-D grid")

    monkeypatch.setattr(grid, "gmres", refused)
    branch = trace_branch(fold_demo["problem"], -2.0, fold_demo["ops"], fold_demo["opts"])
    assert np.array_equal(branch.lambdas, fold_demo["branch"].lambdas)
    locate_fold(branch, fold_demo["problem"], fold_demo["ops"], fold_demo["opts"])


def test_singular_steps_are_recorded(interval64, monkeypatch):
    spec, ops = interval64
    problem = make_problem(spec, h="0.1*sin(pi*x1)", profile="A2")

    def refused(A):
        raise RuntimeError("Factor is exactly singular")

    # the seed solves factor; every corrector step is refused its LUs
    corrector = continuation._corrector

    def refusing(*args):
        with monkeypatch.context() as m:
            m.setattr(grid, "factor", refused)
            return corrector(*args)

    monkeypatch.setattr(continuation, "_corrector", refusing)
    opts = ContinuationOptions(ds0=0.1, ds_min=0.01, max_points=20)
    branch = trace_branch(problem, -2.0, ops, opts)
    assert branch.termination == "step_floor"
    assert len(branch.points) == 2
    s = branch.points[-1].s
    assert branch.rejections == [(s, 0.1, "singular"), (s, 0.05, "singular"),
                                 (s, 0.025, "singular"), (s, 0.0125, "singular")]


def test_rejection_reasons(fold_demo):
    # the demo family rejects a few steps whose corrector does not converge
    branch = fold_demo["branch"]
    assert branch.rejections
    for s, ds, reason in branch.rejections:
        assert reason in ("corrector_failed", "singular", "step_too_long")
        assert any(p.s == s for p in branch.points)
        assert ds > 0.0


def test_step_too_long_is_recorded(interval64, monkeypatch):
    spec, ops = interval64
    problem = make_problem(spec, h="0.1*sin(pi*x1)", profile="A2")
    # no corrected point lies within 1e-3 ds of its base
    monkeypatch.setattr(continuation, "MAX_STEP_RATIO", 1e-3)
    opts = ContinuationOptions(ds0=0.1, ds_min=0.01, max_points=20)
    branch = trace_branch(problem, -2.0, ops, opts)
    assert branch.termination == "step_floor"
    assert [r[2] for r in branch.rejections] == ["step_too_long"] * 4
