import numpy as np
import pytest

from gqc import (
    GridFunction,
    GridSpec,
    build_operators,
    first_eigen,
    newton_solve,
    parse_coefficient,
    residual_P,
)
from gqc.oracle import (
    dense_eigen_oracle,
    fd_gradient_check,
    manufactured_h,
    reference_continuation,
)

from conftest import make_problem, make_a3_problem


# ---------------------------------------------------------------------------
# manufactured forcing


def test_manufactured_zero(interval64):
    spec, ops = interval64
    problem = make_problem(spec, h="0", lam=-1.0)
    h = manufactured_h(GridFunction.zeros(spec), problem, ops)
    assert np.all(h.values == 0.0)


def test_manufactured_quadratic_value(interval64):
    spec, ops = interval64
    problem = make_problem(spec, h="0", lam=-1.0)
    x = spec.axis_coords(0)
    u_star = GridFunction(spec, x * (1 - x))
    h = manufactured_h(u_star, problem, ops)
    mid = int(np.argmin(np.abs(x - 0.5)))
    assert h.values[mid] == pytest.approx(2.25, abs=1e-12)  # 2 + 0.25 - 0


def test_manufactured_roundtrip_2d(square32):
    spec, ops = square32
    pts = spec.interior_points()
    u_star = GridFunction(spec, np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1]))
    problem = make_problem(spec, h="0", lam=0.0)
    h = manufactured_h(u_star, problem, ops)
    with_h = make_problem(spec, h=h.values, lam=0.0)
    resid = residual_P(u_star, with_h, ops)
    assert np.max(np.abs(resid.values)) <= 1e-12
    u, rep = newton_solve(with_h, GridFunction.zeros(spec), ops)
    assert rep.converged
    assert np.max(np.abs(u.values - u_star.values)) <= 1e-10


def test_manufactured_rejects_boundary_incompatible(interval64):
    spec, ops = interval64
    problem = make_problem(spec, h="0")
    with pytest.raises(ValueError, match="boundary"):
        manufactured_h(GridFunction.constant(spec, 1.0), problem, ops)
    x = spec.axis_coords(0)
    with pytest.raises(ValueError, match="boundary"):
        manufactured_h(GridFunction(spec, x), problem, ops)


# ---------------------------------------------------------------------------
# dense eigenvalue reference


def test_dense_eigen_matches_power_iteration():
    spec = GridSpec(1, ((0.0, 1.0),), (16,))
    ops = build_operators(spec)
    c = GridFunction.constant(spec, 1.0)
    dense = dense_eigen_oracle(c, ops)
    iterative = first_eigen(c, ops).gamma
    assert abs(dense - iterative) <= 1e-8 * dense
    assert abs(dense - np.pi**2) <= 0.05 * np.pi**2  # coarse-grid accuracy only


def test_dense_eigen_scaling():
    spec = GridSpec(1, ((0.0, 1.0),), (16,))
    ops = build_operators(spec)
    g1 = dense_eigen_oracle(GridFunction.constant(spec, 1.0), ops)
    g2 = dense_eigen_oracle(GridFunction.constant(spec, 2.0), ops)
    assert g2 == pytest.approx(g1 / 2.0, rel=1e-12)


def test_dense_eigen_indicator_weight():
    spec = GridSpec(1, ((0.0, 1.0),), (16,))
    ops = build_operators(spec)
    c = parse_coefficient("indicator(1, 0.5, 1.0)", spec)
    dense = dense_eigen_oracle(c, ops)
    iterative = first_eigen(c, ops).gamma
    assert abs(dense - iterative) <= 1e-8 * dense


def test_dense_eigen_refuses_large_grids(square64):
    spec, ops = square64
    with pytest.raises(ValueError, match="256"):
        dense_eigen_oracle(GridFunction.constant(spec, 1.0), ops)


def test_dense_eigen_2d_square():
    spec = GridSpec(2, ((0.0, 1.0), (0.0, 1.0)), (16, 16))
    ops = build_operators(spec)
    c = GridFunction.constant(spec, 1.0)
    dense = dense_eigen_oracle(c, ops)
    iterative = first_eigen(c, ops).gamma
    assert abs(dense - iterative) <= 1e-8 * dense


# ---------------------------------------------------------------------------
# finite-difference gradient check


def test_fd_check_quadratic_case():
    # I is quadratic here, so central differences are exact at any step;
    # a larger step keeps the roundoff below the target
    spec = GridSpec(1, ((0.0, 1.0),), (16,))
    ops = build_operators(spec)
    problem = make_a3_problem(spec, "0", 1.0, "0")
    rng = np.random.default_rng(23)
    v = GridFunction(spec, rng.uniform(-1, 1, spec.n_interior))
    assert fd_gradient_check(problem, v, ops, eps=1e-4) <= 1e-9


def test_fd_check_generic_case():
    spec = GridSpec(2, ((0.0, 1.0), (0.0, 1.0)), (12, 12))
    ops = build_operators(spec)
    problem = make_a3_problem(spec, "0 - 1 - x1", 1.0, "max(sin(pi*x1)*sin(pi*x2), 0)")
    rng = np.random.default_rng(29)
    v = GridFunction(spec, rng.uniform(-1, 1, spec.n_interior))
    assert fd_gradient_check(problem, v, ops) <= 1e-6


def test_fd_check_zero_point_directional():
    # at v = 0 the directional derivative is -integral(h e)
    from gqc import functional_I

    spec = GridSpec(1, ((0.0, 1.0),), (12,))
    ops = build_operators(spec)
    problem = make_a3_problem(spec, "0-1", 1.0, "1")
    rng = np.random.default_rng(31)
    eps = 1e-6
    for _ in range(4):
        e = rng.uniform(-1, 1, spec.n_interior)
        vp = GridFunction(spec, eps * e)
        vm = GridFunction(spec, -eps * e)
        fd = (functional_I(vp, problem, ops)[0] - functional_I(vm, problem, ops)[0]) / (2 * eps)
        expected = -ops.node_weight * float(problem.h.values @ e)
        assert fd == pytest.approx(expected, rel=1e-6, abs=1e-12)


def test_fd_check_refuses_large_grid(square64):
    spec, ops = square64
    problem = make_a3_problem(spec, "0", 1.0, "0")
    with pytest.raises(ValueError):
        fd_gradient_check(problem, GridFunction.zeros(spec), ops)


# ---------------------------------------------------------------------------
# reference continuation


def test_reference_flat_branch(interval64):
    spec, ops = interval64
    problem = make_problem(spec, h="0")
    ref = reference_continuation(problem, -1.0, ops, lam_stop=5.0)
    assert ref.termination == "lam_stop"
    assert all(p.sup_norm <= 1e-12 for p in ref.points)


def test_reference_fold_agreement(fold_demo):
    branch = fold_demo["branch"]
    ref = reference_continuation(fold_demo["problem"], -2.0, fold_demo["ops"],
                                 norm_cap=3.0)
    fold_main = branch.max_lambda()
    fold_ref = ref.max_lambda()
    assert abs(fold_ref - fold_main) <= 0.05 * fold_main
    # lower sub-branch sup norms agree at matched lambdas within 2%
    i_max = int(np.argmax(ref.lambdas))
    ref_lams = ref.lambdas[: i_max + 1]
    ref_sups = ref.sup_norms[: i_max + 1]
    j_max = int(np.argmax(branch.lambdas))
    for lam_t, sup_t in zip(branch.lambdas[: j_max + 1], branch.sup_norms[: j_max + 1]):
        if lam_t <= ref_lams.max() - 0.1 and sup_t > 1e-6:
            sup_ref = np.interp(lam_t, ref_lams, ref_sups)
            assert abs(sup_ref - sup_t) <= 0.02 * max(sup_t, sup_ref)


def test_reference_blowup_side(blowup_demo):
    ref = reference_continuation(blowup_demo["problem"], -2.0, blowup_demo["ops"],
                                 dlam=0.05, norm_cap=2.0)
    assert ref.termination == "norm_cap"
    assert ref.points[-1].lam < 0.0
    assert ref.sup_norms[-1] > 2.0
