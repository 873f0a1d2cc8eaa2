import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from gqc import (
    CoercivityError,
    GridFunction,
    GridSpec,
    TransformError,
    build_operators,
    check_conditions,
    cole_hopf,
    functional_I,
    g_and_G,
    g_prime,
    newton_solve,
    norms,
    residual_P,
    solve_transformed,
    weighted_rayleigh_sup,
)

from gqc import grid, transform
from gqc.grid import factor

from conftest import make_a3_problem, make_problem


# ---------------------------------------------------------------------------
# g and G


def test_g_G_at_zero():
    g, G = g_and_G(0.0, 1.0)
    assert g == 0.0
    assert G == 0.0


def test_g_G_reference_values():
    g, G = g_and_G(1.0, 1.0)
    assert g == pytest.approx(2 * np.log(2), rel=1e-12)     # 1.386294
    assert G == pytest.approx(2 * np.log(2) - 0.75, rel=1e-12)  # 0.636294


def test_g_odd_G_even():
    for mu in (0.5, 1.0, 2.0):
        s = np.linspace(-5, 5, 101)
        g_pos, G_pos = g_and_G(s, mu)
        g_neg, G_neg = g_and_G(-s, mu)
        assert np.allclose(g_neg, -g_pos, atol=1e-14)
        assert np.array_equal(G_neg, G_pos)


def test_g_sign_and_G_nonnegative():
    rng = np.random.default_rng(5)
    s = rng.uniform(-50, 50, 1000)
    s = s[s != 0]
    for mu in (0.5, 1.0, 2.0):
        g, G = g_and_G(s, mu)
        assert np.all(g * s > 0.0)
        assert np.all(G >= 0.0)
    # tiny arguments go through the series branch and stay nonnegative
    tiny = np.array([1e-12, -1e-9, 1e-7])
    _, G = g_and_G(tiny, 1.0)
    assert np.all(G >= 0.0)


def test_G_superquadratic_growth():
    for mu in (0.5, 1.0, 2.0):
        ratios = [g_and_G(s, mu)[1] / s**2 for s in (1.0, 10.0, 100.0, 1000.0)]
        assert ratios[0] < ratios[1] < ratios[2] < ratios[3]
        for s in (1.0, 10.0, 100.0):
            assert g_and_G(10 * s, mu)[1] / (10 * s) ** 2 > g_and_G(s, mu)[1] / s**2


def test_G_matches_quadrature_of_g():
    for mu in (0.5, 1.0, 2.0):
        for s in (0.5, 1.0, 3.0):
            val, _ = quad(lambda t: g_and_G(t, mu)[0], 0.0, s, epsabs=1e-12)
            _, G = g_and_G(s, mu)
            assert abs(val - G) <= 1e-8


def test_g_subcritical_power_bound():
    # calibrate C on one sample set, verify the bound on a denser one
    for mu in (0.5, 1.0, 2.0):
        for r in (0.1, 0.5):
            coarse = np.linspace(1.0 / mu + 0.01, 1e4, 400)
            g, _ = g_and_G(coarse, mu)
            C = 1.05 * np.max(np.abs(g) / coarse ** (1 + r))
            fine = np.linspace(1.0 / mu + 0.005, 1e4, 4001)
            gf, _ = g_and_G(fine, mu)
            assert np.all(np.abs(gf) <= C * fine ** (1 + r))


def test_G_evaluates_each_form_only_where_it_is_used():
    # the series past |s| = 1e77 would overflow; its value was never used
    s = np.array([1e100, -1e100, 1.0, 1e-6, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g, G = g_and_G(s, 1.0)
    assert np.all(np.isfinite(g)) and np.all(np.isfinite(G))
    m = np.abs(s)
    lg = np.log1p(m)
    assert G[0] == G[1] == ((1.0 + m[0]) ** 2 * (2.0 * lg[0] - 1.0) + 1.0) / 4.0
    assert G[2] == g_and_G(1.0, 1.0)[1]
    assert G[3] == 1e-12 * (0.5 + 1e-6 * (1.0 / 6.0 + 1e-6 * (-1.0 / 24.0 + 1e-6 / 60.0)))
    assert G[4] == 0.0


def test_g_prime_matches_difference_quotient():
    s = np.linspace(-3, 3, 31)
    eps = 1e-6
    gp = g_prime(s, 1.3)
    fd = (g_and_G(s + eps, 1.3)[0] - g_and_G(s - eps, 1.3)[0]) / (2 * eps)
    assert np.allclose(gp, fd, atol=1e-7)


def test_g_rejects_nonpositive_mu():
    with pytest.raises(ValueError):
        g_and_G(1.0, 0.0)


# ---------------------------------------------------------------------------
# the pointwise change of variables


def test_cole_hopf_zero(interval64):
    spec, _ = interval64
    z = GridFunction.zeros(spec)
    assert np.all(cole_hopf(z, 1.0, "fwd").values == 0.0)
    assert np.all(cole_hopf(z, 1.0, "inv").values == 0.0)


def test_cole_hopf_log2(interval64):
    spec, _ = interval64
    u = GridFunction.constant(spec, np.log(2.0))
    w = cole_hopf(u, 1.0, "fwd")
    assert np.allclose(w.values, 1.0, atol=1e-14)


def test_cole_hopf_roundtrip(interval64):
    spec, _ = interval64
    rng = np.random.default_rng(11)
    u = GridFunction(spec, rng.uniform(-2.0, 2.0, spec.n_interior))
    for mu in (0.5, 1.0, 3.0):
        w = cole_hopf(u, mu, "fwd")
        back = cole_hopf(w, mu, "inv")
        assert np.max(np.abs(back.values - u.values)) <= 1e-13
        # the defining identity exp(mu u) = 1 + mu w, nodewise
        assert np.max(np.abs(np.exp(mu * u.values) - (1 + mu * w.values))) <= 1e-13 * np.max(
            np.exp(mu * u.values)
        )
        v = cole_hopf(w, mu, "inv")
        w2 = cole_hopf(v, mu, "fwd")
        assert np.max(np.abs(w2.values - w.values)) <= 1e-13 * (1 + np.max(np.abs(w.values)))


def test_cole_hopf_inverse_domain_error(interval64):
    spec, _ = interval64
    v = GridFunction.constant(spec, -2.0)
    with pytest.raises(TransformError, match="node"):
        cole_hopf(v, 1.0, "inv")


def test_cole_hopf_rejects_bad_direction(interval64):
    spec, _ = interval64
    with pytest.raises(ValueError):
        cole_hopf(GridFunction.zeros(spec), 1.0, "sideways")


# ---------------------------------------------------------------------------
# the functional and its gradient


def test_functional_at_zero(interval64):
    spec, ops = interval64
    problem = make_a3_problem(spec, -1.0, 1.0, 2.0)
    value, grad = functional_I(GridFunction.zeros(spec), problem, ops)
    assert value == 0.0
    assert np.allclose(grad.values, -ops.node_weight * problem.h.values)


def test_functional_quadratic_core(interval64):
    spec, ops = interval64
    problem = make_a3_problem(spec, 0.0, 1.0, 0.0)
    rng = np.random.default_rng(13)
    v = GridFunction(spec, rng.standard_normal(spec.n_interior))
    value, _ = functional_I(v, problem, ops)
    assert value == pytest.approx(0.5 * norms(v, ops).h10 ** 2, rel=1e-12)


def test_functional_gradient_matches_fd():
    spec = GridSpec(1, ((0.0, 1.0),), (16,))
    ops = build_operators(spec)
    x = spec.axis_coords(0)
    problem = make_a3_problem(spec, -(1 + x), 1.0, np.maximum(np.sin(np.pi * x), 0.0))
    rng = np.random.default_rng(17)
    v = GridFunction(spec, rng.uniform(-1, 1, spec.n_interior))
    value, grad = functional_I(v, problem, ops)
    eps = 1e-5
    for _ in range(5):
        e = rng.uniform(-1, 1, spec.n_interior)
        e /= np.linalg.norm(e)
        vp = GridFunction(spec, v.values + eps * e)
        vm = GridFunction(spec, v.values - eps * e)
        fd = (functional_I(vp, problem, ops)[0] - functional_I(vm, problem, ops)[0]) / (2 * eps)
        assert fd == pytest.approx(grad.values @ e, rel=1e-6, abs=1e-12)


def test_transform_route_names_failed_a3_clause(interval64):
    spec, ops = interval64
    d = np.full(spec.n_interior, -1.0)
    d[7] = 0.5
    h = np.ones(spec.n_interior)
    h[20] = -1.0
    zero = GridFunction.zeros(spec)
    for problem, reason in (
        (make_a3_problem(spec, d, 1.0, 0.0), "'lam \\* c <= 0' fails at node 7"),
        (make_a3_problem(spec, -1.0, 1.0, h), "'h >= 0' fails at node 20"),
        (make_a3_problem(spec, -1.0, -1.0, 1.0), "'mu > 0' fails at node 0"),
    ):
        with pytest.raises(ValueError, match=reason):
            solve_transformed(problem, ops)
        with pytest.raises(ValueError, match=reason):
            functional_I(zero, problem, ops)
    # the first failed clause is named, in A3's order
    with pytest.raises(ValueError, match="'lam \\* c <= 0' fails at node 7"):
        solve_transformed(make_a3_problem(spec, d, 1.0, h), ops)


def test_transform_route_refuses_varying_mu(interval64):
    # a problem may carry any mu; the route needs a constant one
    spec, ops = interval64
    problem = make_a3_problem(spec, -1.0, "1 + 0.5*x1", 1.0)
    with pytest.raises(ValueError, match="'mu constant' fails \\(span 0.48"):
        solve_transformed(problem, ops)
    with pytest.raises(ValueError, match="'mu constant'"):
        functional_I(GridFunction.zeros(spec), problem, ops)


# ---------------------------------------------------------------------------
# the minimization pipeline


def test_solve_transformed_zero_forcing(interval64):
    spec, ops = interval64
    problem = make_a3_problem(spec, -1.0, 1.0, 0.0)
    v, u = solve_transformed(problem, ops)
    assert np.max(np.abs(v.values)) == 0.0
    assert np.max(np.abs(u.values)) == 0.0


def test_solve_transformed_minimizer_beats_zero():
    spec = GridSpec(1, ((0.0, 1.0),), (32,))
    ops = build_operators(spec)
    problem = make_a3_problem(spec, -1.0, 1.0, 1.0)
    v, u = solve_transformed(problem, ops)
    assert np.min(v.values) >= -1e-10
    value, _ = functional_I(v, problem, ops)
    assert value <= 0.0  # I(v) <= I(0) = 0
    assert np.min(u.values) >= -1e-10


def test_solve_transformed_on_a_fine_interval():
    # at 512 cells the residual of L v cannot get below about eps max(|L| |v|),
    # above the relative 1e-12 alone; the Euler-Lagrange tolerance allows for it
    spec = GridSpec(1, ((0.0, 1.0),), (512,))
    ops = build_operators(spec)
    problem = make_a3_problem(spec, -1.0, 1.0, 0.2)
    v, u = solve_transformed(problem, ops)
    assert np.min(v.values) >= 0.0 and np.max(v.values) > 0.0
    assert np.max(np.abs(residual_P(u, problem, ops).values)) <= 1e-8


def test_solve_transformed_small_h_residual(interval64):
    # d == 0 branch: the returned u must satisfy the quasilinear system
    spec, ops = interval64
    problem = make_problem(spec, c="1", mu="1", h="0.1*sin(pi*x1)", lam=0.0)
    v, u = solve_transformed(problem, ops)
    resid = residual_P(u, problem, ops)
    assert np.max(np.abs(resid.values)) <= 1e-8
    # the raw transform image differs from the discrete root by O(h^2)
    assert 0.0 < np.max(np.abs(u.values - cole_hopf(v, 1.0, "inv").values)) <= 1e-3


def test_solve_transformed_flips_negative_minimizer(interval64, monkeypatch):
    spec, ops = interval64
    x = spec.axis_coords(0)
    problem = make_a3_problem(spec, -1.0, 1.0, np.sin(np.pi * x))
    v_true, u_true = solve_transformed(problem, ops)

    def dipped(*args):
        v = v_true.values.copy()
        v[0] = -1e-8
        return v

    monkeypatch.setattr(transform, "_minimize", dipped)
    with pytest.warns(RuntimeWarning, match="flipping"):
        _, u = solve_transformed(problem, ops)
    # the polish's tolerance at its root, which a Newton solve from the root reports
    tol = newton_solve(problem, u_true, ops)[1].tolerance_used
    assert np.max(np.abs(u.values - u_true.values)) <= tol


def test_solve_transformed_polish_shift_shrinks_with_h():
    # the change of variables commutes with the discretization only up to
    # O(h^2): the polish shift must shrink by about 4x per refinement
    shifts = []
    for n in (16, 32, 64):
        spec = GridSpec(1, ((0.0, 1.0),), (n,))
        ops = build_operators(spec)
        x = spec.axis_coords(0)
        problem = make_a3_problem(spec, -1.0, 1.0, np.sin(np.pi * x))
        v, u = solve_transformed(problem, ops)
        shifts.append(np.max(np.abs(u.values - cole_hopf(v, 1.0, "inv").values)))
    assert 3.0 <= shifts[0] / shifts[1] <= 5.0
    assert 3.0 <= shifts[1] / shifts[2] <= 5.0


def test_square_transform_route_makes_no_lu(square32, monkeypatch):
    # acceptance criterion 2's instance: the Euler-Lagrange Newton steps are
    # GMRES preconditioned by the shifted sine solve, the polish's by the drift
    # preconditioner, and both land on the roots that LU steps reach
    spec, ops = square32
    x = spec.interior_points()
    problem = make_a3_problem(spec, -1.0, 1.0,
                              0.2 * np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]))
    sizes = []
    monkeypatch.setattr(grid, "factor", lambda A: sizes.append(A.shape[0]) or factor(A))
    v, u = solve_transformed(problem, ops)
    assert sizes == []
    monkeypatch.setattr(grid, "KRYLOV_MAX_ITER", 0)
    v_lu, u_lu = solve_transformed(problem, ops)
    assert len(sizes) >= 2
    assert np.max(np.abs(v.values - v_lu.values)) <= 1e-10 * np.max(v_lu.values)
    assert np.max(np.abs(u.values - u_lu.values)) <= 1e-10 * np.max(u_lu.values)


def _refuse_descent(monkeypatch):
    def refuse(*args):
        raise AssertionError("descent started")

    monkeypatch.setattr(transform, "_minimize", refuse)


def test_solve_transformed_refuses_when_condition_fails(square32, monkeypatch):
    spec, ops = square32
    problem = make_a3_problem(spec, 0.0, 1.0, 3 * 2 * np.pi**2)
    _refuse_descent(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an error, not a warning
        with pytest.raises(CoercivityError):
            solve_transformed(problem, ops)


def test_solve_transformed_refuses_on_partial_zero_set(square32, monkeypatch):
    # d vanishes on the left half only; the smallness condition on that
    # zero set fails for this h (mu * nu about 1.2)
    spec, ops = square32
    d = np.where(spec.interior_points()[:, 0] > 0.5, -2.0, 0.0)
    problem = make_a3_problem(spec, d, 1.0, 3 * 2 * np.pi**2)
    margin = check_conditions(problem, ["H"], ops)[0].infimum_estimate
    assert margin < 0.0
    _refuse_descent(monkeypatch)
    with pytest.raises(CoercivityError, match="smallness condition fails") as err:
        solve_transformed(problem, ops)
    assert f"margin {margin:.3e}" in str(err.value)


def test_solve_transformed_coercivity_failure_message(square32):
    spec, ops = square32
    problem = make_a3_problem(spec, 0.0, 1.0, 3 * 2 * np.pi**2)
    margin = check_conditions(problem, ["H"], ops)[0].infimum_estimate
    assert margin < 0.0
    with pytest.raises(CoercivityError) as err:
        solve_transformed(problem, ops)
    message = str(err.value)
    assert "smallness condition fails" in message
    assert f"margin {margin:.3e}" in message
    assert "coercivity" in message


def test_descent_cap_is_not_a_coercivity_failure(interval64, monkeypatch):
    # the smallness condition holds with margin 0.5 on the zero set of d,
    # yet the descent is slow; running out of steps must not blame coercivity
    spec, ops = interval64
    d = np.where(spec.axis_coords(0) > 0.5, -2.0, 0.0)
    nu = weighted_rayleigh_sup(np.ones(spec.n_interior), d == 0.0, ops)
    problem = make_a3_problem(spec, d, 0.5 / nu, 1.0)
    monkeypatch.setattr(transform, "DESCENT_MAX_ITER", 50)  # the full 2000 take seconds
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no warning
        with pytest.raises(TransformError, match="in 50 steps"):
            solve_transformed(problem, ops)
    # with margin 0.25 or 0.1 the descent blows up instead; the condition
    # still holds, so that is a failure of the descent, named as such. So is
    # a blow-up with d < 0 everywhere (no zero set), where the minimizer lies
    # beyond float range because mu h is far above the first eigenvalue
    for n in (32, 64):
        spec = GridSpec(1, ((0.0, 1.0),), (n,))
        ops = build_operators(spec)
        d = np.where(spec.axis_coords(0) > 0.5, -2.0, 0.0)
        nu = weighted_rayleigh_sup(np.ones(spec.n_interior), d == 0.0, ops)
        for problem, reason in ((make_a3_problem(spec, d, 0.75 / nu, 1.0), "margin 2.500e-01"),
                                (make_a3_problem(spec, d, 0.9 / nu, 1.0), "margin 1.000e-01"),
                                (make_a3_problem(spec, -1e-3, 30.0, 1.0), "d < 0 everywhere")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(TransformError, match=reason):
                    solve_transformed(problem, ops)
