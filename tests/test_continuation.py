import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from gqc import (
    Branch,
    ContinuationOptions,
    GridSpec,
    analyze_branch,
    build_operators,
    first_eigen,
    locate_fold,
    residual_P,
    trace_branch,
    two_solutions,
)
from gqc import continuation, grid, solver
from gqc.grid import factor
from gqc.solver import (
    QuasilinearSystem,
    SolveOptions,
    SolverError,
    quasilinear_jacobian,
    residual_with_scale,
)

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
    gamma1 = first_eigen(problem.c, ops).gamma
    assert lams[0] == -2.0 and lams.max() >= gamma1 - 0.1  # sails past the eigenvalue
    analysis = analyze_branch(branch, gamma1)
    assert analysis.blowup_side == "none"
    assert analysis.fold_index is None


def test_fold_branch_structure(fold_demo):
    branch = fold_demo["branch"]
    gamma1 = first_eigen(fold_demo["problem"].c, fold_demo["ops"]).gamma
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


def _counting_linear_solves(monkeypatch):
    solves = []
    linear_solve = continuation.linear_solve
    monkeypatch.setattr(continuation, "linear_solve",
                        lambda *a, **k: solves.append(1) or linear_solve(*a, **k))
    return solves


def _golden_section_fold(branch, problem, ops, opts):
    """The fold by golden-section search of lambda over the arclength offset
    between the points bracketing it, each lambda a corrector solve from the
    secant predictor; returns the fold lambda and the search's linear solves."""
    i = branch.folds[0]
    a, mid, b = branch.points[i - 1], branch.points[i], branch.points[i + 1]
    e = ops.energy_product(a.u.values, a.u.values)
    dl, du = mid.lam - a.lam, mid.u.values - a.u.values
    nrm = continuation._product_norm(dl, du, e, ops)
    step = (a.lam, a.u.values, dl / nrm, du / nrm)
    system = QuasilinearSystem.of(problem, ops)

    def lam_at(sigma):
        try:
            return _secant_corrector(system, opts, *step, sigma)[1]
        except continuation._Rejected:
            return -np.inf

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, b.s - a.s
    with pytest.MonkeyPatch.context() as patch:
        solves = _counting_linear_solves(patch)
        x1, x2 = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
        f1, f2 = lam_at(x1), lam_at(x2)
        while hi - lo > opts.ds_min:
            if f1 >= f2:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - invphi * (hi - lo)
                f1 = lam_at(x1)
            else:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + invphi * (hi - lo)
                f2 = lam_at(x2)
        return lam_at(0.5 * (lo + hi)), len(solves)


def _check_fold(branch, problem, ops, opts, lam, sigma):
    """The located fold against the golden-section oracle and the sampled
    maximum, and the tangent's lambda component there, by a bordered LU;
    returns the oracle's linear solves."""
    lam_ref, oracle_solves = _golden_section_fold(branch, problem, ops, opts)
    assert abs(lam - lam_ref) <= 1e-9 * abs(lam_ref)
    top = branch.max_lambda()
    assert lam >= top - 1e-10 * abs(top)
    i = branch.folds[0]
    a, mid = branch.points[i - 1], branch.points[i]
    assert 0.0 < sigma < branch.points[i + 1].s - a.s
    e = ops.energy_product(a.u.values, a.u.values)
    dl, du = mid.lam - a.lam, mid.u.values - a.u.values
    nrm = continuation._product_norm(dl, du, e, ops)
    t_lam, t_u = dl / nrm, du / nrm
    # the corrector meets its tolerances at the located offset, on the located lambda
    u, lam_at, _ = _secant_corrector(QuasilinearSystem.of(problem, ops), opts, a.lam, a.u.values,
                                     t_lam, t_u, sigma)
    assert abs(lam_at - lam) <= 1e-10 * abs(lam)
    # dlam/dsigma, the tangent's lambda component, at the fold and at the fold
    # point: by their secant the located offset lies within ds_min of its root
    c = problem.c.values
    cvec = ops.node_weight / (1.0 + e) * (ops.laplacian @ t_u)
    unit = np.zeros(u.size + 1)
    unit[-1] = 1.0

    def dlam(u, lam):
        J = quasilinear_jacobian(u, lam * c, problem.mu.values, ops)
        return spla.splu(_bordered_matrix(J, -(c * u), cvec, t_lam)).solve(unit)[-1]

    g, g_mid = dlam(u, lam_at), dlam(mid.u.values, mid.lam)
    assert abs(g) * abs(nrm - sigma) <= opts.ds_min * abs(g_mid - g)
    return oracle_solves


def test_fold_location(fold_demo):
    branch, problem, ops, opts = (fold_demo[k] for k in ("branch", "problem", "ops", "opts"))
    lam_fold, sigma = locate_fold(branch, problem, ops, opts)
    _check_fold(branch, problem, ops, opts, lam_fold, sigma)


def test_two_solution_extraction(fold_demo):
    branch = fold_demo["branch"]
    problem = fold_demo["problem"]
    ops = fold_demo["ops"]
    lam = 0.5 * branch.max_lambda()
    pair = two_solutions(branch, lam, problem, ops, fold_demo["opts"])
    assert pair.lam == lam
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
        two_solutions(branch, branch.max_lambda() + 1.0, problem, ops)
    with pytest.raises(ValueError, match="outside"):
        two_solutions(branch, -0.5, problem, ops)


def test_no_fold_extraction_raises(interval64):
    spec, ops = interval64
    problem = make_problem(spec, h="0")
    branch = trace_branch(problem, -1.0, ops, ContinuationOptions(max_points=20))
    with pytest.raises(ValueError, match="fold"):
        two_solutions(branch, 0.5, problem, ops)


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
    from gqc import check_conditions

    assert check_conditions(problem, ["Hc"])[0].holds
    gamma1 = first_eigen(problem.c, ops).gamma
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
    with pytest.raises(ValueError):
        analyze_branch(Branch(), 1.0)


def test_seed_failure_reported(square32):
    spec, ops = square32
    problem = make_problem(spec, h="6*pi^2", profile="A2")  # unsolvable at -2
    with pytest.raises(SolverError, match="seed"):
        trace_branch(problem, -2.0, ops, ContinuationOptions(max_points=20))


# ---------------------------------------------------------------------------
# the block-elimination corrector against the bordered LU it replaces


def _secant_start(base_lam, base_u, t_lam, t_u, ds):
    return np.append(base_u + ds * t_u, base_lam + ds * t_lam)


def _secant_corrector(*args):
    """``_corrector`` from the secant start base + ds t."""
    return continuation._corrector(*args, _secant_start(*args[2:7]))


def _reference_corrector(system, opts, base_lam, base_u, t_lam, t_u, ds, start=None):
    """The corrector with every Newton step an LU of the bordered matrix, from
    ``start`` = (u, lam), or from the secant when it is None. It reads only
    the system's ops, c, mu and h, and none of its members."""
    ops, c, mu, h = system.ops, system.c, system.mu, system.h
    scale = ops.node_weight / (1.0 + ops.energy_product(base_u, base_u))
    cvec = scale * (ops.laplacian @ t_u)
    x = _secant_start(base_lam, base_u, t_lam, t_u, ds) if start is None else start
    lam, u = float(x[-1]), x[:-1]
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
            "system": QuasilinearSystem.of(problem, ops), "sigma": sigma, "lam_fold": lam_fold,
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
    args = (data["system"], data["opts"])
    sizes = _counting_factor(monkeypatch)
    shifts = []
    shifted_solver = data["ops"].shifted_sine_solver
    monkeypatch.setattr(data["ops"], "shifted_sine_solver",
                        lambda shift: shifts.append(shift) or shifted_solver(shift))
    runs = _counting_gmres(monkeypatch)
    step, ds = _ordinary_step(data)
    got = _secant_corrector(*args, *step, ds)
    _assert_same_step(got, _reference_corrector(*args, *step, ds))
    assert len(runs) == got[2]
    # from the quadratic through points 2-4 the two agree as well
    start = continuation._predictor(data["branch"].points[2:5], ds, *step[2:], False,
                                    data["system"])
    assert not np.array_equal(start, _secant_start(*step, ds))
    _assert_same_step(continuation._corrector(*args, *step, ds, start),
                      _reference_corrector(*args, *step, ds, start))
    # the shift is the mean of d (1 + mu u) + mu h at each Newton step, from the
    # predictor's on, and each step builds its preconditioner once; five times
    # the step takes two
    shifts.clear()
    got = _secant_corrector(*args, *step, 5 * ds)
    assert shifts[0] == _drift_shift(data["ops"], data["problem"], *step, 5 * ds)
    assert len(set(shifts)) == len(shifts) == got[2] > 1
    # at the located fold the Jacobian is nearly singular, and the shift is capped
    step, sigma = data["fold_step"], data["sigma"]
    shifts.clear()
    runs.clear()
    got = _secant_corrector(*args, *step, sigma)
    _assert_same_step(got, _reference_corrector(*args, *step, sigma))
    assert got[1] == pytest.approx(data["lam_fold"], rel=1e-10)
    assert len(runs) == got[2]
    assert set(shifts) == {solver.SHIFT_CAP * data["ops"].sine_basis()[1].min()}
    # GMRES preconditioned by the drift preconditioner and the border throughout:
    # no LU at all
    assert sizes == []
    J = quasilinear_jacobian(got[0], got[1] * data["problem"].c.values,
                             data["problem"].mu.values, data["ops"]).toarray()
    assert np.linalg.cond(J) > 1e8


def test_bordered_solve_at_fold_matches_lu(fold_square24, monkeypatch):
    # one linear step at the fold point, against the bordered LU
    data = fold_square24
    problem, ops = data["problem"], data["ops"]
    base_lam, base_u, t_lam, t_u = data["fold_step"]
    u, lam, _ = _secant_corrector(data["system"], data["opts"], *data["fold_step"], data["sigma"])
    c = problem.c.values
    J = quasilinear_jacobian(u, lam * c, problem.mu.values, ops)
    row = ops.laplacian @ t_u
    rng = np.random.default_rng(3)
    rhs_u, rhs_g = rng.standard_normal(u.size), 0.7
    # no preconditioner: J is factored and the step solved by block elimination
    sizes, runs = _counting_factor(monkeypatch), _counting_gmres(monkeypatch)
    got = grid.linear_solve(J, np.append(rhs_u, rhs_g), 0.0, border=(-(c * u), row, t_lam))
    assert (sizes, runs) == ([u.size], [])
    du, dl = got[:-1], got[-1]
    ref = spla.splu(_bordered_matrix(J, -(c * u), row, t_lam)).solve(np.append(rhs_u, rhs_g))
    assert abs(dl - ref[-1]) <= 1e-10 * abs(ref[-1])
    assert np.max(np.abs(du - ref[:-1])) <= 1e-10 * np.max(np.abs(ref[:-1]))


def test_bordered_step_is_singular_when_jacobian_factor_fails(fold_square24, monkeypatch):
    data = fold_square24
    args = (data["system"], data["opts"])
    n = data["problem"].spec.n_interior
    sizes = []

    def jacobian_refused(A):
        sizes.append(A.shape[0])
        raise RuntimeError("Factor is exactly singular")

    # every GMRES run misses, so every step goes to an LU of J
    monkeypatch.setattr(grid, "gmres", lambda *a: None)
    monkeypatch.setattr(grid, "factor", jacobian_refused)
    for step, ds in (_ordinary_step(data), (data["fold_step"], data["sigma"])):
        sizes.clear()
        with pytest.raises(continuation._Rejected, match="^singular$"):
            _secant_corrector(*args, *step, ds)
        # the first Newton step tried J once; no bordered matrix was factored
        assert sizes == [n]


def _counting_factor(monkeypatch):
    sizes = []
    monkeypatch.setattr(grid, "factor", lambda A: sizes.append(A.shape[0]) or factor(A))
    return sizes


def _counting_gmres(monkeypatch):
    runs = []
    gmres = grid.gmres
    monkeypatch.setattr(grid, "gmres", lambda *args: runs.append(1) or gmres(*args))
    return runs


def test_square_trace_with_its_seed_solves_makes_no_lu(fold_square24, monkeypatch):
    # seed solves and corrector steps alike are GMRES with the drift preconditioner
    data = fold_square24
    sizes = _counting_factor(monkeypatch)
    branch = trace_branch(data["problem"], -2.0, data["ops"], data["opts"])
    assert np.array_equal(branch.lambdas, data["branch"].lambdas)
    assert locate_fold(branch, data["problem"], data["ops"], data["opts"])[0] == data["lam_fold"]
    assert sizes == []


def test_krylov_targets_per_caller(fold_square24, monkeypatch):
    # a bordered Newton step, the corrector's or the fold's, stops GMRES at
    # 1e-6 |b| (or at its tolerance's share); Newton at fixed lambda (seeds,
    # two_solutions) and the fold's g and adjoint solves keep 1e-9 |b|
    data = fold_square24
    problem, ops, opts = data["problem"], data["ops"], data["opts"]
    ratios = {}
    gmres = grid.gmres

    def recorded(matvec, precondition, b, target, max_iter):
        names, frame = [], sys._getframe(2)  # from the caller of linear_solve out
        while frame is not None:
            names.append(frame.f_code.co_qualname)
            frame = frame.f_back
        job = next(name for name in names
                   if name in ("_corrector", "locate_fold", "_seed_solution", "two_solutions"))
        ratios.setdefault((names[0], job), []).append(target / np.linalg.norm(b))
        return gmres(matvec, precondition, b, target, max_iter)

    monkeypatch.setattr(grid, "gmres", recorded)
    branch = trace_branch(problem, -2.0, ops, opts)
    two_solutions(branch, 0.5 * branch.max_lambda(), problem, ops, opts)
    locate_fold(branch, problem, ops, opts)
    assert set(ratios) == {
        ("_bordered_newton.<locals>.step", "_corrector"),
        ("_bordered_newton.<locals>.step", "locate_fold"),
        ("newton_at.<locals>.step", "_seed_solution"),
        ("newton_at.<locals>.step", "two_solutions"),
        ("locate_fold.<locals>.g", "locate_fold"),
        ("locate_fold.<locals>.g.<locals>.gradient", "locate_fold"),
    }
    for (caller, job), got in ratios.items():
        rtol = 1e-6 if caller.startswith("_bordered_newton") else 1e-9
        if caller.startswith("locate_fold"):  # tol = 0: no floor
            assert got == pytest.approx([rtol] * len(got), rel=1e-12), (caller, job)
        else:
            assert min(got) == pytest.approx(rtol, rel=1e-12), (caller, job)


def _bordered_gmres_iterations(J, border, b, solve, monkeypatch):
    """GMRES iterations of ``linear_solve`` to 1e-9 |b| on the bordered J,
    its border preconditioner built on ``solve``; up to 100, and no miss."""
    solves = []

    def missed(A):
        raise AssertionError("GMRES missed")

    with monkeypatch.context() as patch:
        patch.setattr(grid, "KRYLOV_MAX_ITER", 100)
        patch.setattr(grid, "factor", missed)
        grid.linear_solve(J, b, 0.0, border=border,
                          precondition=lambda r: solves.append(1) or solve(r))
    return len(solves)


def test_drift_preconditioner_beats_the_shifted_sine_solve(fold_square24, monkeypatch):
    # bordered Jacobians as the tracer forms them, on the lower branch, at the
    # fold and on the upper branch
    data = fold_square24
    problem, ops, points = data["problem"], data["ops"], data["branch"].points
    c, mu, h = problem.c.values, problem.mu.values, problem.h.values
    shift_cap = solver.SHIFT_CAP * ops.sine_basis()[1].min()
    rng = np.random.default_rng(7)
    fold = data["branch"].folds[0]
    for i in (len(points) // 4, fold, (fold + len(points)) // 2):
        prev, cur = points[i - 1], points[i]
        u, lam = cur.u.values, cur.lam
        e = ops.energy_product(u, u)
        dl, du = cur.lam - prev.lam, u - prev.u.values
        nrm = continuation._product_norm(dl, du, e, ops)
        border = (-(c * u), ops.node_weight / (1.0 + e) * (ops.laplacian @ du) / nrm, dl / nrm)
        J = quasilinear_jacobian(u, lam * c, mu, ops)
        b = rng.standard_normal(u.size + 1)
        drift = _bordered_gmres_iterations(
            J, border, b, solver.drift_preconditioner(ops, u, lam * c, mu, h), monkeypatch)
        shifted = _bordered_gmres_iterations(
            J, border, b, ops.shifted_sine_solver(min(lam * float(np.mean(c)), shift_cap)),
            monkeypatch)
        assert drift < shifted, (i, drift, shifted)


def test_square_fold_agrees_with_golden_section(fold_square24, monkeypatch):
    data = fold_square24
    args = (data["branch"], data["problem"], data["ops"], data["opts"])
    oracle_solves = _check_fold(*args, data["lam_fold"], data["sigma"])
    solves = _counting_linear_solves(monkeypatch)
    assert locate_fold(*args) == (data["lam_fold"], data["sigma"])
    assert 0 < 3 * len(solves) <= oracle_solves


def test_locate_fold_past_the_last_recorded_point(fold_square24):
    # three rising points, the fold past all of them: Newton on the augmented
    # system keeps no bracket, so it cannot stop at a bracket end
    data = fold_square24
    i = data["branch"].folds[0]
    cut = replace(data["branch"], points=data["branch"].points[:i], folds=[i - 2])
    assert np.all(np.diff(cut.lambdas[-3:]) > 0)
    lam, _ = locate_fold(cut, data["problem"], data["ops"], data["opts"])
    assert abs(lam - data["lam_fold"]) <= 1e-8 * abs(data["lam_fold"])


def test_locate_fold_holds_one_factor(fold_square24, monkeypatch):
    data = fold_square24
    args = (data["branch"], data["problem"], data["ops"], data["opts"])
    sizes = _counting_factor(monkeypatch)
    lam, _ = locate_fold(*args)
    assert sizes == []
    # every GMRES run misses: each solve is an LU of J or J^T for that call alone
    monkeypatch.setattr(grid, "gmres", lambda *a: None)
    solves = _counting_linear_solves(monkeypatch)
    lam_lu, _ = locate_fold(*args)
    assert len(sizes) == len(solves) > 0
    assert abs(lam - lam_lu) <= 1e-10 * abs(lam_lu)


@pytest.mark.parametrize("which", ["fold_demo", "fold_square24"])
def test_locate_fold_assembles_one_jacobian_per_point(which, request, monkeypatch):
    # g's bordered solve and the Newton step at the same (u, lam) share one
    # assembly and one drift preconditioner: one of each per evaluated point,
    # at least one step taken
    data = request.getfixturevalue(which)
    jacobians, points, preconditioners = [], [], []
    monkeypatch.setattr(solver, "quasilinear_jacobian",
                        lambda *a: jacobians.append(1) or quasilinear_jacobian(*a))
    drift = solver.drift_preconditioner
    monkeypatch.setattr(solver, "drift_preconditioner",
                        lambda *a, transpose=False: preconditioners.append(transpose)
                        or drift(*a, transpose=transpose))
    monkeypatch.setattr(solver, "residual_with_scale",
                        lambda *a: points.append(1) or residual_with_scale(*a))
    locate_fold(data["branch"], data["problem"], data["ops"], data["opts"])
    assert len(jacobians) == len(points) > 1
    # each step's adjoint solve builds the transposed preconditioner
    assert preconditioners.count(False) == len(points) > preconditioners.count(True) > 0


def test_locate_fold_raises_when_newton_fails(fold_demo):
    # Newton from the fold point takes more than one step
    opts = ContinuationOptions(norm_cap=3.0, max_points=400, solve=SolveOptions(max_newton=1))
    with pytest.raises(SolverError, match=r"^fold Newton did not converge: max_iter \(residual "):
        locate_fold(fold_demo["branch"], fold_demo["problem"], fold_demo["ops"], opts)


def test_locate_fold_refuses_a_branch_without_folds(fold_demo):
    no_fold = replace(fold_demo["branch"], folds=[])
    with pytest.raises(ValueError, match="no recorded folds"):
        locate_fold(no_fold, fold_demo["problem"], fold_demo["ops"], fold_demo["opts"])


def test_locate_fold_refuses_a_fold_at_the_first_point(fold_demo):
    # the secant phi runs from the point before the fold, which index 0 lacks
    branch = Branch(points=fold_demo["branch"].points[:3], folds=[0])
    with pytest.raises(ValueError, match="lacks a point before it"):
        locate_fold(branch, fold_demo["problem"], fold_demo["ops"], fold_demo["opts"])


def test_corrector_refactors_after_a_krylov_miss(fold_square24, monkeypatch):
    data = fold_square24
    args = (data["system"], data["opts"])
    step, ds = _ordinary_step(data)
    shifted = _secant_corrector(*args, *step, ds)
    # every GMRES run misses, and each miss makes one LU for its step alone
    with monkeypatch.context() as patch:
        patch.setattr(grid, "gmres", lambda *a: None)
        sizes, runs = _counting_factor(patch), _counting_gmres(patch)
        got = _secant_corrector(*args, *step, ds)
    _assert_same_step(got, shifted)
    assert len(sizes) == len(runs) == got[2]
    # no LU outlives its step: the next call is GMRES throughout again
    sizes, runs = _counting_factor(monkeypatch), _counting_gmres(monkeypatch)
    again = _secant_corrector(*args, *step, ds)
    _assert_same_step(again, shifted)
    assert (sizes, len(runs)) == ([], again[2])


def test_cube_trace_and_fold_make_no_lu(monkeypatch):
    # the folded family on 12^3 cells: every corrector step, the fold's included,
    # is GMRES preconditioned by the shifted sine solve
    spec = GridSpec(3, ((0.0, 1.0),) * 3, (12, 12, 12))
    ops = build_operators(spec)
    problem = make_problem(spec, h="0.1*sin(pi*x1)*sin(pi*x2)*sin(pi*x3)", profile="A2")
    opts = ContinuationOptions(norm_cap=3.0, max_points=400)
    sizes = _counting_factor(monkeypatch)
    steps = []
    corrector = continuation._corrector

    def recorded(*args):
        got = corrector(*args)
        steps.append((args, got))
        return got

    shifts = []
    shifted_solver = ops.shifted_sine_solver

    def recorded_shift(shift):
        shifts.append(shift)
        return shifted_solver(shift)

    monkeypatch.setattr(continuation, "_corrector", recorded)
    monkeypatch.setattr(ops, "shifted_sine_solver", recorded_shift)
    branch = trace_branch(problem, -2.0, ops, opts)
    in_trace = len(steps)
    solves = _counting_linear_solves(monkeypatch)
    lam, sigma = locate_fold(branch, problem, ops, opts)
    assert sizes == []
    assert branch.termination == "norm_cap" and branch.folds
    # the shift grows with lambda up to its cap, which the fold lies past
    shift_cap = solver.SHIFT_CAP * ops.sine_basis()[1].min()
    assert lam > shift_cap and max(shifts) == shift_cap
    assert -2.0 < min(shifts) < -1.0
    # the fold's Newton takes a few steps of three linear solves and no corrector
    assert in_trace > 100 and len(steps) == in_trace
    assert 0 < len(solves) <= 13
    for args, got in steps[::8]:
        _assert_same_step(got, _reference_corrector(*args))
    monkeypatch.undo()
    assert 3 * len(solves) <= _check_fold(branch, problem, ops, opts, lam, sigma)


def test_rejected_cube_steps_stop_early_and_make_no_lu(monkeypatch):
    # the folded family on 16^3 cells: a step past the fold cannot converge, and
    # its corrector stops at the first failed line search instead of running its
    # iterates off the branch until GMRES misses and an LU is made
    spec = GridSpec(3, ((0.0, 1.0),) * 3, (16, 16, 16))
    ops = build_operators(spec)
    problem = make_problem(spec, h="0.1*sin(pi*x1)*sin(pi*x2)*sin(pi*x3)", profile="A2")
    opts = ContinuationOptions(norm_cap=3.0, max_points=400)
    sizes = _counting_factor(monkeypatch)
    reports = []
    newton = continuation.damped_newton

    def recorded(*args):
        got = newton(*args)
        reports.append(got[1])
        return got

    monkeypatch.setattr(continuation, "damped_newton", recorded)
    branch = trace_branch(problem, -2.0, ops, opts)
    locate_fold(branch, problem, ops, opts)
    assert sizes == []
    assert branch.termination == "norm_cap" and branch.folds
    rejected = [r for r in reports if not r.converged]
    assert len(rejected) >= len(branch.rejections) > 0
    assert all(r.iterations <= 4 for r in rejected)
    assert {r.failure_reason for r in rejected} <= {"line_search_stall", "max_iter"}


def _drift_shift(ops, problem, base_lam, base_u, t_lam, t_u, ds):
    """The drift preconditioner's shift at the secant predictor: the mean of
    d (1 + mu u) + mu h, capped at SHIFT_CAP times L's smallest eigenvalue."""
    lam, u = base_lam + ds * t_lam, base_u + ds * t_u
    c, mu, h = problem.c.values, problem.mu.values, problem.h.values
    return min(float(np.mean(lam * c * (1.0 + mu * u) + mu * h)),
               solver.SHIFT_CAP * float(ops.sine_basis()[1].min()))


def test_corrector_shift_is_the_mean_of_minus_v(monkeypatch):
    spec = GridSpec(2, ((0.0, 1.0), (0.0, 2.0)), (16, 20))
    ops = build_operators(spec)
    problem = make_problem(spec, c="1 + 0.5*sin(pi*x1)", mu="1 + 0.3*x2",
                           h="0.1*sin(pi*x1)*sin(pi*x2/2)", profile="A2")
    calls, shifts = [], []
    corrector, shifted_solver = continuation._corrector, ops.shifted_sine_solver
    # the seed solves shift too: keep where the first corrector call's shifts start
    monkeypatch.setattr(continuation, "_corrector",
                        lambda *args: calls.append((len(shifts), args[2:7])) or corrector(*args))
    monkeypatch.setattr(ops, "shifted_sine_solver",
                        lambda shift: shifts.append(shift) or shifted_solver(shift))
    trace_branch(problem, -2.0, ops, ContinuationOptions(max_points=3))
    first, step = calls[0]
    assert 0 < first and shifts[first] == _drift_shift(ops, problem, *step)


# ---------------------------------------------------------------------------
# the corrector's start: the quadratic through the last three points


@pytest.fixture(scope="module")
def rectangle():
    spec = GridSpec(2, ((0.0, 1.0), (0.0, 2.0)), (8, 12))
    return spec, build_operators(spec), make_problem(spec, mu="1 + 0.3*x2", profile="A2")


def _points(spec, arclengths, u_of, lam_of):
    return [continuation.BranchPoint(lam=lam_of(s), u=grid.GridFunction(spec, u_of(s)),
                                     sup_norm=0.0, h10_norm=0.0, s=s, newton_iters=0)
            for s in arclengths]


def _secant(points, ds, t_lam, t_u):
    return _secant_start(points[-1].lam, points[-1].u.values, t_lam, t_u, ds)


def test_predictor_reproduces_a_quadratic(rectangle):
    spec, ops, problem = rectangle
    rng = np.random.default_rng(5)
    a, b, c = (0.01 * rng.standard_normal(spec.n_interior) for _ in range(3))
    points = _points(spec, (0.0, 0.13, 0.41), lambda s: a + s * b + s * s * c,
                     lambda s: -1.0 + 0.7 * s - 0.3 * s * s)
    ds, t_u = 0.27, rng.standard_normal(spec.n_interior)
    x = continuation._predictor(points, ds, 0.5, t_u, False, QuasilinearSystem.of(problem, ops))
    s = 0.41 + ds
    want = np.append(a + s * b + s * s * c, -1.0 + 0.7 * s - 0.3 * s * s)
    assert np.max(np.abs(x - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("case", ["two_points", "retry", "z_pattern_lost"])
def test_predictor_keeps_the_secant(rectangle, case):
    # the start is base + ds t, byte for byte, with fewer than three points,
    # after a rejected step from the same base, and where the quadratic's u
    # gives the Jacobian a positive off-diagonal entry
    spec, ops, problem = rectangle
    rng = np.random.default_rng(6)
    a, b, c = (0.01 * rng.standard_normal(spec.n_interior) for _ in range(3))
    if case == "z_pattern_lost":  # max_k |mu D_k u| h_k about 2 at s = 0.68
        c = 200.0 * c
    points = _points(spec, (0.0, 0.13, 0.41), lambda s: a + s * b + s * s * c,
                     lambda s: -1.0 + 0.7 * s - 0.3 * s * s)
    ds, t_lam, t_u = 0.27, 0.5, rng.standard_normal(spec.n_interior)
    secant = _secant(points, ds, t_lam, t_u).tobytes()
    given = points[1:] if case == "two_points" else points
    system = QuasilinearSystem.of(problem, ops)
    assert continuation._predictor(given, ds, t_lam, t_u, case == "retry",
                                   system).tobytes() == secant
    if case != "z_pattern_lost":  # else the three points start from the quadratic
        assert continuation._predictor(points, ds, t_lam, t_u, False,
                                       system).tobytes() != secant


def test_predictor_keeps_the_secant_exactly_where_the_z_pattern_is_lost(rectangle):
    # three points at one u: the quadratic start is that u, and it falls back to
    # the secant exactly when the Jacobian's drift 2 mu D_k u gives an
    # off-diagonal entry the wrong sign, at max_k |mu D_k u| h_k = 1
    spec, ops, problem = rectangle
    mu = problem.mu.values
    rng = np.random.default_rng(7)
    v = rng.standard_normal(spec.n_interior)
    v /= max(float(np.max(np.abs(mu * (D @ v)))) * hk
             for D, hk in zip(ops.gradient, spec.spacing))
    t_u = np.zeros(spec.n_interior)
    for scale in (0.5, 0.99, 1.01, 2.0):
        points = _points(spec, (0.0, 0.2, 0.3), lambda s: scale * v, lambda s: s)
        x = continuation._predictor(points, 0.1, 0.5, t_u, False,
                                    QuasilinearSystem.of(problem, ops))
        J = quasilinear_jacobian(scale * v, np.zeros(spec.n_interior), mu, ops).toarray()
        signed = (J - np.diag(np.diag(J)) > 0.0).any()
        secant = x.tobytes() == _secant(points, 0.1, 0.5, t_u).tobytes()
        assert secant == signed == (scale > 1.0), scale


@pytest.mark.parametrize("which, u_rtol", [("fold_square24", 5e-10), ("cube12", 1e-8)])
def test_quadratic_and_secant_starts_reach_the_same_point(which, u_rtol, request, monkeypatch):
    # every corrector call of the trace that started from the quadratic, again
    # from the secant: the same point within the corrector's tolerances. Newton
    # stops once the residual is inside its tolerance, so from two starts it
    # stops at two points inside it: on 12^3, 18 of 114 calls differ by more
    # than 5e-10 in u, by 6.1e-9 at most, just past the fold, where the
    # quadratic start stopped at a residual of 0.94 tol and the secant start,
    # one step later, at 3e-5 tol
    if which == "cube12":
        spec = GridSpec(3, ((0.0, 1.0),) * 3, (12, 12, 12))
        ops = build_operators(spec)
        problem = make_problem(spec, h="0.1*sin(pi*x1)*sin(pi*x2)*sin(pi*x3)", profile="A2")
        opts = ContinuationOptions(norm_cap=3.0, max_points=400)
    else:
        data = request.getfixturevalue(which)
        problem, ops, opts = data["problem"], data["ops"], data["opts"]
    calls = []
    corrector = continuation._corrector

    def recorded(*args):
        got = corrector(*args)
        calls.append((args, got))
        return got

    monkeypatch.setattr(continuation, "_corrector", recorded)
    branch = trace_branch(problem, -2.0, ops, opts)
    monkeypatch.undo()
    assert branch.rejections and branch.folds
    quadratic = [(args, got) for args, got in calls
                 if not np.array_equal(args[-1], _secant_start(*args[2:7]))]
    assert len(quadratic) > 0.9 * len(calls)
    for args, (u, lam, _) in quadratic:
        u_ref, lam_ref, _ = _secant_corrector(*args[:-1])
        assert abs(lam - lam_ref) <= 5e-10 * abs(lam_ref)
        assert np.max(np.abs(u - u_ref)) <= u_rtol * np.max(np.abs(u_ref))


@pytest.mark.parametrize("dim, n, steps, gmres_its, trace_applications, fold_applications",
                         [(1, 64, 108, 0, 0, 0), (2, 48, 149, 654, 599, 55),
                          (3, 12, 197, 938, 870, 55)], ids=["1-64", "2-48", "3-12"])
def test_folded_family_counts(dim, n, steps, gmres_its, trace_applications, fold_applications,
                              monkeypatch):
    # the folded family's Newton steps over the trace's points, seeds included,
    # the GMRES iterations of the trace and its located fold, and the drift
    # preconditioner's applications in each, pinned: a cheaper evaluation of
    # the bordered Newton's points must keep the algorithm. Each GMRES
    # iteration applies its preconditioner once, and nothing else applies the
    # drift preconditioner; 3-D seed solves take the sine solve instead, so
    # their 13 iterations on 12^3 apply no drift preconditioner. Neither a
    # corrector step nor the fold makes a SuperLU factorization: 2-D and 3-D
    # steps are GMRES runs, 1-D steps and adjoint solves tridiagonal LUs
    spec = GridSpec(dim, ((0.0, 1.0),) * dim, (n,) * dim)
    ops = build_operators(spec)
    h = "*".join(f"sin(pi*x{k + 1})" for k in range(dim))
    problem = make_problem(spec, h=f"0.1*{h}", profile="A2")
    opts = ContinuationOptions(norm_cap=3.0, max_points=400)
    iterations, applications, superlu = [], [], []
    gmres, splu, drift = grid.gmres, spla.splu, solver.drift_preconditioner

    def counted(matvec, precondition, b, target, max_iter):
        return gmres(matvec, lambda v, out: iterations.append(1) or precondition(v, out),
                     b, target, max_iter)

    def counted_drift(*args, **kwargs):
        precondition = drift(*args, **kwargs)
        return precondition and (lambda r: applications.append(1) or precondition(r))

    monkeypatch.setattr(grid, "gmres", counted)
    monkeypatch.setattr(spla, "splu", lambda A, **kw: superlu.append(A.shape[0]) or splu(A, **kw))
    monkeypatch.setattr(solver, "drift_preconditioner", counted_drift)
    branch = trace_branch(problem, -2.0, ops, opts)
    assert sum(p.newton_iters for p in branch.points) == steps
    assert branch.termination == "norm_cap" and branch.folds
    assert superlu == []
    assert len(applications) == trace_applications
    locate_fold(branch, problem, ops, opts)
    assert len(iterations) == gmres_its
    assert len(applications) == trace_applications + fold_applications
    assert superlu == []


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
