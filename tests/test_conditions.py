import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gqc import (
    GridFunction,
    GridSpec,
    build_operators,
    check_conditions,
    check_ferone_murat,
    exponent_margins,
    find_exponents,
    first_eigen,
    sobolev_constant,
    validate_profile,
    weighted_rayleigh_sup,
)
from gqc import conditions
from gqc.conditions import EigenError
from gqc.grid import factor, restrict
from gqc.oracle import dense_eigen_oracle

from conftest import make_problem


# ---------------------------------------------------------------------------
# first eigenvalue


def test_first_eigen_interval(interval64):
    spec, ops = interval64
    eig = first_eigen(GridFunction.constant(spec, 1.0), ops)
    assert abs(eig.gamma - np.pi**2) <= 0.01 * np.pi**2


def test_first_eigen_square(square64):
    spec, ops = square64
    eig = first_eigen(GridFunction.constant(spec, 1.0), ops)
    assert abs(eig.gamma - 2 * np.pi**2) <= 0.01 * 2 * np.pi**2


def test_first_eigen_basis_is_sized_for_one_eigenvalue(square64):
    # a basis of eigsh's default 20 vectors costs at least 21 solves, however
    # early the pencil converges; this one converges within 13
    spec, ops = square64
    assert first_eigen(GridFunction.constant(spec, 1.0), ops).iterations < 21


def test_first_eigen_scale_covariance(interval64):
    spec, ops = interval64
    c = GridFunction.constant(spec, 1.0)
    g1 = first_eigen(c, ops).gamma
    g2 = first_eigen(GridFunction.constant(spec, 2.0), ops).gamma
    assert abs(g2 - g1 / 2.0) <= 1e-10 * abs(g1)


def test_first_eigen_residual_and_sign(interval64):
    spec, ops = interval64
    c = GridFunction.from_callable(spec, lambda x: 1.0 + 0.5 * np.sin(3 * x))
    eig = first_eigen(c, ops)
    Lphi = ops.laplacian @ eig.phi.values
    assert eig.residual <= 1e-8 * np.linalg.norm(Lphi)
    assert np.all(eig.phi.values > 0.0)  # single sign
    energy = ops.node_weight * (eig.phi.values @ Lphi)
    assert energy == pytest.approx(1.0, rel=1e-10)


def test_first_eigen_rejects_degenerate(interval64):
    spec, ops = interval64
    with pytest.raises(EigenError):
        first_eigen(GridFunction.zeros(spec), ops)
    with pytest.raises(EigenError):
        first_eigen(GridFunction.constant(spec, -1.0), ops)


# ---------------------------------------------------------------------------
# weighted Rayleigh suprema


def test_coefficients_are_grid_functions(interval64):
    # a problem's coefficients go to the eigen and Rayleigh solves as they are
    spec, ops = interval64
    problem = make_problem(spec, c="1 + x1", h="sin(pi*x1)")
    assert isinstance(problem.c, GridFunction) and isinstance(problem.h, GridFunction)
    assert (first_eigen(problem.c, ops).gamma
            == first_eigen(GridFunction(spec, problem.c.values), ops).gamma)
    assert (weighted_rayleigh_sup(problem.h, None, ops)
            == weighted_rayleigh_sup(problem.h.values, None, ops) > 0.0)


def test_rayleigh_nonpositive_weight(interval64):
    spec, ops = interval64
    assert weighted_rayleigh_sup(GridFunction.constant(spec, -2.0), None, ops) == 0.0


def test_rayleigh_full_square(square64):
    spec, ops = square64
    nu = weighted_rayleigh_sup(GridFunction.constant(spec, 1.0), None, ops)
    target = 1.0 / (2 * np.pi**2)  # = 0.050661
    assert abs(nu - target) <= 0.01 * target


def test_rayleigh_half_interval(interval64):
    spec, ops = interval64
    mask = spec.axis_coords(0) > 0.5
    nu = weighted_rayleigh_sup(GridFunction.constant(spec, 1.0), mask, ops)
    target = 1.0 / (4 * np.pi**2)
    assert abs(nu - target) <= 0.02 * target


def test_rayleigh_single_node_mask(interval64):
    spec, ops = interval64
    mask = np.zeros(spec.n_interior, dtype=bool)
    mask[10] = True
    nu = weighted_rayleigh_sup(GridFunction.constant(spec, 1.0), mask, ops)
    assert nu == pytest.approx(1.0 / ops.laplacian.diagonal()[10], rel=1e-15)


def test_rayleigh_empty_mask(interval64):
    spec, ops = interval64
    with pytest.raises(ValueError):
        weighted_rayleigh_sup(GridFunction.constant(spec, 1.0),
                              np.zeros(spec.n_interior, dtype=bool), ops)


def test_rayleigh_rejects_a_non_finite_weight(interval64):
    # named before the pencil is solved, where Lanczos would fail to converge
    spec, ops = interval64
    w = np.ones(spec.n_interior)
    w[7] = np.nan
    with pytest.raises(ValueError, match="not finite at node 7"):
        weighted_rayleigh_sup(w, None, ops)
    w[7] = -np.inf
    with pytest.raises(ValueError, match="not finite at node 7"):
        weighted_rayleigh_sup(w, spec.axis_coords(0) > 0.5, ops)


def test_rayleigh_matches_eigen_reciprocal(interval64):
    spec, ops = interval64
    c = GridFunction.constant(spec, 1.0)
    nu = weighted_rayleigh_sup(c, None, ops)
    gamma = first_eigen(c, ops).gamma
    assert nu == pytest.approx(1.0 / gamma, rel=1e-8)


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 24), (3, 10)])
def test_full_box_pencils_match_the_lu_path(dim, n):
    # gamma1 and a full-mask supremum invert L by the dense sine basis, not an
    # LU, through one solver per pencil
    spec = GridSpec(dim, ((0.0, 1.0),) * dim, (n,) * dim)
    ops = build_operators(spec)
    w = 0.5 + spec.interior_points()[:, 0] ** 2
    lu = factor(ops.laplacian)
    nu_ref, _, solves_ref = conditions._pencil_top(w, ops.laplacian, lu.solve)
    shifts, solves = [], []

    def solver(shift, make=ops.shifted_sine_solver):
        shifts.append(shift)
        solve = make(shift)
        return lambda b: solves.append(b) or solve(b)

    ops.shifted_sine_solver = solver
    eig = first_eigen(GridFunction(spec, w), ops)
    assert eig.gamma == pytest.approx(1.0 / nu_ref, rel=1e-12)
    assert eig.iterations == solves_ref == len(solves) and shifts == [0.0]
    shifts.clear()
    solves.clear()
    nu = weighted_rayleigh_sup(w, np.ones(spec.n_interior, dtype=bool), ops)
    assert nu == pytest.approx(nu_ref, rel=1e-12)
    assert len(solves) == solves_ref and shifts == [0.0]


def _reference_sup(w, A, mask):
    """The pencil supremum by eigsh's default basis of 20 vectors, with A
    restricted to the mask and inverted by an LU."""
    if np.max(w[mask], initial=0.0) <= 0.0:
        return 0.0
    Am = restrict(A, mask)
    lu = factor(Am)
    n = Am.shape[0]
    Minv = scipy.sparse.linalg.LinearOperator((n, n), matvec=lu.solve, dtype=float)
    vals = scipy.sparse.linalg.eigsh(scipy.sparse.diags(w[mask]), k=1, M=Am, Minv=Minv,
                                     which="LA", v0=np.ones(n), ncv=min(20, n), rng=0,
                                     return_eigenvectors=False)
    return float(vals[0])


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 24), (3, 10)])
def test_margins_match_a_default_basis_lu_reference(dim, n):
    # c on a sub-box, mu < 0 on it (two Hc sub-margins) and > 0 off it, mixed-sign h
    spec = GridSpec(dim, ((0.0, 1.0),) * dim, (n,) * dim)
    ops = build_operators(spec)
    box = "*".join(f"indicator({k + 1}, 0.25, 0.6)" for k in range(dim))
    problem = make_problem(spec, c=box, mu=f"1 + 0.5*x1 - 3*{box}",
                           h="3*sin(pi*x1) - 2.5*sin(2*pi*x1)")
    L, full, off = ops.laplacian, np.ones(spec.n_interior, dtype=bool), problem.c_zero_mask
    mu = problem.mu.values

    def sub_margins(mask):
        return tuple(1.0 - m * _reference_sup(w, L, mask) for m, w in (
            (problem.mu_plus_sup, problem.h_plus), (problem.mu_minus_sup, problem.h_minus)))

    expect = {
        "H0": sub_margins(full),
        "Hc": sub_margins(off),
        "H": (1.0 - np.max(mu) * _reference_sup(problem.h.values, L, off),),
        # k1 weighs the gradient by 1/mu, with 1 where mu <= 0 (on the support of c)
        "k1": (1.0 - _reference_sup(problem.h.values,
                                    ops.weighted_stiffness(1.0 / np.where(mu > 0.0, mu, 1.0)),
                                    off),),
    }
    assert problem.mu_minus_sup > 0.0 and all(m < 1.0 for m in expect["Hc"])
    for report in conditions.check_conditions(problem, list(expect), ops):
        got = report.sub_infima if len(expect[report.condition]) == 2 else (
            report.infimum_estimate,)
        assert got == pytest.approx(expect[report.condition], rel=1e-12), report.condition
    gamma_ref = 1.0 / _reference_sup(problem.c.values, L, full)
    assert first_eigen(problem.c, ops).gamma == pytest.approx(gamma_ref, rel=1e-12)


def mixed_sign_weight(spec):
    # positive bump in a negative sea: the top eigenvalue, about 1e-4,
    # sits just above the cluster of eigenvalues near 0
    x = spec.axis_coords(0)
    return -1.0 + 1.1 * np.exp(-((x - 0.3) ** 2) / 0.01)


def test_rayleigh_mixed_sign_weight_matches_dense(interval64):
    spec, ops = interval64
    w = mixed_sign_weight(spec)
    dense = scipy.linalg.eigh(np.diag(w), ops.laplacian.toarray(), eigvals_only=True)[-1]
    assert dense > 0.0
    assert weighted_rayleigh_sup(w, None, ops) == pytest.approx(dense, rel=1e-8)


def test_mixed_sign_pencil_restarts_on_its_top_ritz_vectors(interval64):
    # the README's caveat: the basis fills and restarts on its top Ritz vectors
    # (65 solves; test_mixed_sign_bump_matches_dense checks the value), while a
    # full-box pencil converges in 7 solves without a restart
    spec, ops = interval64
    solve = ops.shifted_sine_solver(0.0)
    solves = conditions._pencil_top(mixed_sign_weight(spec), ops.laplacian, solve)[2]
    assert solves > conditions.EIGEN_BASIS
    assert conditions._pencil_top(np.ones(spec.n_interior), ops.laplacian, solve)[2] == 7


@pytest.mark.parametrize("dim, n, arpack_solves", [(1, 64, 163), (2, 32, 432), (3, 12, 5842)])
def test_mixed_sign_bump_matches_dense(dim, n, arpack_solves):
    # the bump along x1 on every dimension, against the dense pencil and
    # ARPACK's solve counts on the same pencils
    spec = GridSpec(dim, ((0.0, 1.0),) * dim, (n,) * dim)
    ops = build_operators(spec)
    w = -1.0 + 1.1 * np.exp(-((spec.interior_points()[:, 0] - 0.3) ** 2) / 0.01)
    nu, _, solves = conditions._pencil_top(w, ops.laplacian, ops.shifted_sine_solver(0.0))
    dense = scipy.linalg.eigh(np.diag(w), ops.laplacian.toarray(), eigvals_only=True)[-1]
    assert nu == pytest.approx(dense, rel=1e-10)
    assert solves < arpack_solves


def test_pencil_vector_has_unit_energy(square32):
    # x^T A x = 1 on the sine-basis path and on a masked LU path
    spec, ops = square32
    w = -1.0 + 1.1 * np.exp(-((spec.interior_points()[:, 0] - 0.3) ** 2) / 0.01)
    mask = spec.interior_points()[:, 1] > 0.4
    Am = restrict(ops.laplacian, mask)
    for A, weight, solve in ((ops.laplacian, w, ops.shifted_sine_solver(0.0)),
                             (Am, w[mask], factor(Am).solve)):
        _, x, _ = conditions._pencil_top(weight, A, solve)
        assert x @ (A @ x) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pencil_on_an_exhausted_krylov_space(n):
    # a basis of every unknown gives the exact top eigenvalue; the last
    # vector needs no solve
    A = scipy.sparse.diags([-1.0, 2.5, -1.0], [-1, 0, 1], shape=(n, n), format="csc")
    w = np.array([0.7, -1.3, 0.4])[:n]
    nu, x, solves = conditions._pencil_top(w, A, factor(A).solve)
    dense = scipy.linalg.eigh(np.diag(w), A.toarray(), eigvals_only=True)[-1]
    assert nu == pytest.approx(dense, rel=1e-12)
    assert solves == n - 1
    assert np.linalg.norm(w * x - nu * (A @ x)) <= 1e-12 * abs(nu)


def test_rayleigh_nonconvergence_raises(interval64, monkeypatch):
    # the mixed-sign weight takes 65 solves; a cap of 30 stops it
    spec, ops = interval64
    monkeypatch.setattr(conditions, "EIGEN_MAX_SOLVES", 30)
    with pytest.raises(EigenError, match="in 30 solves"):
        weighted_rayleigh_sup(mixed_sign_weight(spec), None, ops)


@st.composite
def mixed_sign_pencils(draw):
    dim = draw(st.integers(1, 3))
    # at most 256 interior nodes, the dense oracle's limit
    cells = {1: 257, 2: 17, 3: 7}[dim]
    spec = GridSpec(dim, ((0.0, 1.0),) * dim,
                    tuple(draw(st.integers(4, cells)) for _ in range(dim)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.standard_normal(spec.n_interior) + draw(st.floats(-2.0, 0.5))
    assume(np.max(w) > 0.0 > np.min(w))
    return spec, w


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(pencil=mixed_sign_pencils())
def test_pencil_top_matches_the_dense_oracle(pencil):
    spec, w = pencil
    ops = build_operators(spec)
    nu = weighted_rayleigh_sup(w, None, ops)
    assert nu == pytest.approx(1.0 / dense_eigen_oracle(GridFunction(spec, w), ops), rel=1e-10)


# ---------------------------------------------------------------------------
# smallness conditions


def test_h0_holds_for_favorable_signs(square32):
    # mu >= 0 with h <= 0: both weighted suprema vanish
    spec, _ = square32
    problem = make_problem(spec, mu="1", h="0-1")
    report = check_conditions(problem, ["H0"])[0]
    assert report.holds
    assert report.sub_infima == (1.0, 1.0)


def test_h0_holds_for_mirrored_signs(square32):
    # the mirrored case: mu <= 0 with h >= 0 is equally favorable
    spec, _ = square32
    problem = make_problem(spec, mu="0-1", h="1")
    report = check_conditions(problem, ["H0"])[0]
    assert report.holds
    assert report.sub_infima == (1.0, 1.0)


def test_h0_threshold_2d_constants(square64):
    spec, _ = square64
    threshold = 2 * np.pi**2
    below = make_problem(spec, mu="1", h=f"{0.95 * threshold}")
    above = make_problem(spec, mu="1", h=f"{1.05 * threshold}")
    assert check_conditions(below, ["H0"])[0].holds
    assert not check_conditions(above, ["H0"])[0].holds


def test_h0_monotone_in_h_scaling(square32):
    spec, _ = square32
    margins = []
    for t in (1.0, 2.0, 4.0):
        problem = make_problem(spec, mu="1", h=f"{t}*sin(pi*x1)*sin(pi*x2)")
        margins.append(check_conditions(problem, ["H0"])[0].infimum_estimate)
    assert margins[0] > margins[1] > margins[2]


def test_hc_vacuous_when_c_positive(square32):
    spec, _ = square32
    problem = make_problem(spec, c="1", mu="5", h="100")
    report = check_conditions(problem, ["Hc"])[0]
    assert report.holds and "vacuous" in report.note


def test_hc_on_partial_support(interval64):
    # c supported on x > 1/2: the complement is an interval of length 1/2
    # with first eigenvalue 4 pi^2; the condition flips at mu*h = 4 pi^2
    spec, _ = interval64
    threshold = 4 * np.pi**2
    below = make_problem(spec, c="indicator(1, 0.5, 1.0)", mu="1", h=f"{0.9 * threshold}")
    above = make_problem(spec, c="indicator(1, 0.5, 1.0)", mu="1", h=f"{1.1 * threshold}")
    assert check_conditions(below, ["Hc"])[0].holds
    assert not check_conditions(above, ["Hc"])[0].holds


def test_h_uses_zero_set_of_lambda_c(interval64):
    spec, _ = interval64
    problem = make_problem(spec, c="indicator(1, 0.5, 1.0)", mu="1",
                           h="30", lam=-1.0, profile="A5")
    report = check_conditions(problem, ["H"])[0]
    # interval of length 1/2: threshold 4 pi^2 = 39.5 > 30
    assert report.holds
    report2 = check_conditions(make_problem(spec, c="indicator(1, 0.5, 1.0)",
                                            mu="1", h="45", lam=-1.0), ["H"])[0]
    assert not report2.holds


def test_h_at_lambda_zero_matches_h0(interval64):
    # lam = 0 makes the zero-order coefficient vanish everywhere, so the
    # restricted condition coincides with the full-space one
    spec, _ = interval64
    problem = make_problem(spec, c="1", mu="1", h="5", lam=0.0)
    rH = check_conditions(problem, ["H"])[0]
    rH0 = check_conditions(problem, ["H0"])[0]
    assert rH.infimum_estimate == pytest.approx(rH0.infimum_estimate, abs=1e-12)


def test_h_vacuous_when_d_never_vanishes(interval64):
    spec, _ = interval64
    problem = make_problem(spec, c="1", lam=-1.0, h="100", mu="1")
    assert check_conditions(problem, ["H"])[0].holds


def test_k1_margin(interval64):
    # weight 1/mu in the gradient term: with mu = 2 on the zero set of c the
    # threshold halves relative to Hc
    spec, _ = interval64
    base = 4 * np.pi**2
    ok = make_problem(spec, c="indicator(1, 0.5, 1.0)", mu="2", h=f"{0.45 * base}")
    bad = make_problem(spec, c="indicator(1, 0.5, 1.0)", mu="2", h=f"{0.55 * base}")
    assert check_conditions(ok, ["k1"])[0].holds
    assert not check_conditions(bad, ["k1"])[0].holds


def test_h_mask_apart_from_the_c_zero_mask_gets_its_own_lu(one_lu_at_a_time):
    # c equals tau_c at one node, which puts it in the zero set of c; after
    # rounding, lam c lies above the tolerance of d = lam c there, so H's mask
    # leaves that node out and must not reuse the LU of Hc's mask, which must
    # be gone before H's is made
    from gqc.problem import TAU_C_RELATIVE, compute_zero_mask

    spec = GridSpec(2, ((0.0, 1.0), (0.0, 1.0)), (16, 16))
    ops = build_operators(spec)
    cmax, lam = 1.4099536636507697, -3.7827345244279926
    x = spec.interior_points()
    c = np.where(np.all((x > 0.25) & (x < 0.6), axis=1), cmax, 0.0)
    c[0] = TAU_C_RELATIVE * cmax
    problem = make_problem(spec, c=c, mu="1 + 0.5*x2", h="30*sin(pi*x1)*sin(pi*x2)", lam=lam)
    d = problem.d_values()
    d_zero = compute_zero_mask(d, TAU_C_RELATIVE * float(np.max(np.abs(d))))
    m = int(problem.c_zero_mask.sum())
    assert problem.c_zero_mask[0] and not d_zero[0] and int(d_zero.sum()) == m - 1
    reports = conditions.check_conditions(problem, ["Hc", "H", "k1"], ops)
    assert [size for size, _ in one_lu_at_a_time] == [m, m - 1, m]
    for report in reports:
        alone = check_conditions(problem, [report.condition], ops)[0]
        assert report.infimum_estimate == alone.infimum_estimate < 1.0


def test_h_note_and_a3_read_one_constant_mu_rule(square32):
    # a span of 7.5e-15 is constant to both, one of 7.5e-7 to neither; c
    # vanishes on half the box, so H weighs a pencil rather than read vacuous
    spec, ops = square32
    for slope, constant in ((1e-14, True), (1e-6, False)):
        problem = make_problem(spec, c="indicator(1, 0.5, 1.0)", mu=f"1 + {slope}*x1", h="1",
                               profile="A3")
        a3 = {c.clause: c.passed for c in validate_profile(problem).clauses}
        note = check_conditions(problem, ["H"], ops)[0].note
        assert a3["mu constant"] is constant and problem.mu_constant is constant
        assert note == ("" if constant else "mu is not constant; its maximum was used")


def test_masked_pencils_with_nothing_to_weigh_make_no_lu(square32, one_lu_at_a_time):
    # h <= 0 on the zero set of c and mu > 0: every masked supremum is 0
    # before a pencil is asked for. With mu = 0 the H pair multiplies its
    # supremum by 0 and is never weighed
    spec, ops = square32
    box = "indicator(1, 0.25, 0.6)*indicator(2, 0.25, 0.6)"
    problem = make_problem(spec, c=box, mu="1 + 0.5*x2", h=f"3*{box} - 1", lam=-1.0)
    hc, k1 = check_conditions(problem, ["Hc", "k1"], ops)
    assert hc.sub_infima == (1.0, 1.0) and hc.infimum_estimate == k1.infimum_estimate == 1.0
    assert hc.holds and k1.holds
    flat = make_problem(spec, c=box, mu="0", h="30*sin(pi*x1)*sin(pi*x2)", lam=-1.0)
    h = check_conditions(flat, ["H"], ops)[0]
    assert h.holds and h.infimum_estimate == 1.0 and h.note == ""
    assert one_lu_at_a_time == []


def test_smallness_rejects_unknown_tag(interval64):
    spec, _ = interval64
    with pytest.raises(ValueError):
        check_conditions(make_problem(spec), ["H7"])


# ---------------------------------------------------------------------------
# the Sobolev-constant comparison


def test_sobolev_constant_dimension3():
    s3 = sobolev_constant(3)
    assert s3 == pytest.approx(2.3405, abs=2e-4)
    assert s3**2 == pytest.approx(5.478, abs=2e-3)


def test_sobolev_constant_rejects_low_dim():
    with pytest.raises(ValueError):
        sobolev_constant(2)


@pytest.fixture(scope="module")
def cube32():
    return GridSpec(3, ((0.0, 1.0),) * 3, (32, 32, 32))


def test_ferone_murat_zero_h(cube32):
    problem = make_problem(cube32, mu="7", h="0")
    assert check_ferone_murat(problem).holds


def test_ferone_murat_constant_threshold(cube32):
    # ||h||_{3/2} of a constant field is the constant itself (unit cube);
    # 5 < S_3^2 = 5.478 < 6
    ok = make_problem(cube32, mu="1", h="5")
    bad = make_problem(cube32, mu="1", h="6")
    assert check_ferone_murat(ok).holds
    assert not check_ferone_murat(bad).holds


def test_ferone_murat_rejects_other_dims(square32):
    spec, _ = square32
    with pytest.raises(ValueError, match="dimension 3"):
        check_ferone_murat(make_problem(spec))


def test_ferone_murat_implies_h0_small_sample():
    # randomized bump instances passing the product check also pass H0
    spec = GridSpec(3, ((0.0, 1.0),) * 3, (12, 12, 12))
    ops = build_operators(spec)
    rng = np.random.default_rng(7)
    s2 = sobolev_constant(3) ** 2
    tried = 0
    for _ in range(20):
        a = rng.uniform(0.5, 3.0)
        b = rng.uniform(0.0, 2.0)
        w = rng.uniform(0.1, 0.3)
        mu_sup = rng.uniform(0.2, 1.0)
        h_expr = (
            f"{a} + {b}*exp(0-((x1-0.5)^2+(x2-0.5)^2+(x3-0.5)^2)/{w}^2)"
        )
        problem = make_problem(spec, mu=f"{mu_sup}", h=h_expr)
        fm = check_ferone_murat(problem)
        if not fm.holds:
            continue
        tried += 1
        assert check_conditions(problem, ["H0"], ops)[0].holds, (a, b, w, mu_sup)
    assert tried >= 5


# ---------------------------------------------------------------------------
# exponent witnesses


def _recheck(w):
    # independent recomputation of the definitions and the three bounds
    q = 1.0 + w.r + (1.0 + w.theta * w.alpha) / (1.0 - w.alpha)
    tau = (1.0 / q) * w.alpha / (1.0 - w.alpha)
    assert q == pytest.approx(w.q, rel=1e-15)
    assert tau == pytest.approx(w.tau, rel=1e-15)
    assert 0.0 < w.alpha < 1.0 and 0.0 < w.r < 1.0
    assert 1.0 / w.p <= q
    assert q <= 2.0 * w.dim * (w.p - 1.0) / (w.p * (w.dim - 2.0 + 2.0 * tau))
    assert 1.0 - w.alpha < 2.0 / q


def test_find_exponents_reference_case():
    w = find_exponents(2.0, 0.5, 3)
    _recheck(w)
    # the documented hand witness also passes the same inequalities
    q = 1 + 0.01 + (1 + 0.5 * 0.02) / (1 - 0.02)
    assert q == pytest.approx(2.04061, abs=1e-5)
    tau = (1 / q) * 0.02 / 0.98
    assert q * (1 - 0.02) < 2.0
    assert q <= 2 * 3 * 1 / (2 * (1 + 2 * tau))


def test_find_exponents_identities_exact():
    w = find_exponents(10.0, 0.9, 3)
    q = 1.0 + w.r + (1.0 + w.theta * w.alpha) / (1.0 - w.alpha)
    tau = (1.0 / q) * w.alpha / (1.0 - w.alpha)
    assert q == w.q and tau == w.tau


@pytest.mark.parametrize("p", [1.6, 2.0, 5.0, 10.0])
@pytest.mark.parametrize("dim", [3, 4])
@pytest.mark.parametrize("theta", [0.1, 0.5, 0.9])
def test_find_exponents_grid(p, dim, theta):
    if p <= dim / 2.0:
        with pytest.raises(ValueError):
            find_exponents(p, theta, dim)
        return
    w = find_exponents(p, theta, dim)
    _recheck(w)
    m1, m2, m3 = exponent_margins(w)
    assert m1 >= 0.0 and m2 >= 0.0 and m3 > 0.0


def test_find_exponents_rejects_bad_theta():
    with pytest.raises(ValueError):
        find_exponents(2.0, 1.5, 3)
