"""Property tests over random small grids and smooth coefficient fields.

Every problem has lam < 0 and c > 0, so lam * c < 0 at every node: the
solution is unique and the enclosure applies. Examples are derandomized so
that every run of the suite draws the same ones.
"""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gqc import GridFunction, GridSpec, build_operators, grid, monotone_enclosure, newton_solve
from gqc.grid import factor
from gqc.solver import quasilinear_jacobian, residual_P

from conftest import make_problem

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def smooth_fields(draw, spec, base, amplitude):
    """base + amp * cos(pi k.(x - lo)/L + phase) with small integer k."""
    b = draw(st.floats(*base))
    amp = draw(st.floats(*amplitude))
    phase = draw(st.floats(0.0, 2.0 * np.pi))
    arg = np.full(spec.n_interior, phase)
    x = spec.interior_points()
    for axis, (lo, hi) in enumerate(spec.bounds):
        k = draw(st.integers(0, 3))
        arg += np.pi * k * (x[:, axis] - lo) / (hi - lo)
    return b + amp * np.cos(arg)


@st.composite
def problems(draw, dim):
    n = tuple(draw(st.integers(8, {1: 40, 2: 14, 3: 10}[dim])) for _ in range(dim))
    bounds = []
    for _ in range(dim):
        lo = draw(st.floats(-1.0, 1.0))
        bounds.append((lo, lo + draw(st.floats(0.5, 3.0))))
    spec = GridSpec(dim, tuple(bounds), n)
    c = draw(smooth_fields(spec, (0.5, 2.0), (0.0, 0.4)))
    mu = draw(smooth_fields(spec, (-1.5, 1.5), (0.0, 1.0)))
    h = draw(smooth_fields(spec, (-3.0, 3.0), (0.0, 3.0)))
    lam = draw(st.floats(-5.0, -0.1))
    return make_problem(spec, c=c, mu=mu, h=h, lam=lam)


@pytest.mark.parametrize("dim", [1, 2])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_converged_newton_meets_its_tolerance(dim, data):
    problem = data.draw(problems(dim))
    ops = build_operators(problem.spec)
    u, report = newton_solve(problem, GridFunction.zeros(problem.spec), ops)
    assume(report.converged)
    resid = np.max(np.abs(residual_P(u, problem, ops).values))
    assert resid <= report.tolerance_used
    assert report.final_residual == resid


@pytest.mark.parametrize("dim", [1, 2])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_enclosure_brackets_the_solution(dim, data):
    problem = data.draw(problems(dim))
    ops = build_operators(problem.spec)
    alpha, beta, u, report = monotone_enclosure(problem, ops)
    assume(report.converged)
    slack = 1e-8  # solver.ENCLOSURE_SLACK
    assert np.all(u.values - alpha.values >= -slack)
    assert np.all(beta.values - u.values >= -slack)


def _nearby_systems(problem, data):
    """A Jacobian, one a step away from it, and a plain and a bordered
    system with the second, shaped as in the continuation corrector."""
    spec, ops = problem.spec, build_operators(problem.spec)
    c, mu = problem.c.values, problem.mu.values
    u0 = data.draw(smooth_fields(spec, (-1.0, 1.0), (0.0, 1.0)))
    t_u = data.draw(smooth_fields(spec, (-1.0, 1.0), (0.0, 1.0)))
    step = data.draw(st.floats(0.0, 0.05))
    J0 = quasilinear_jacobian(u0, problem.lam * c, mu, ops)
    J1 = quasilinear_jacobian(u0 + step * t_u, (problem.lam + step) * c, mu, ops)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    col = -(c * (u0 + step * t_u))
    row = ops.node_weight * (ops.laplacian @ t_u)
    return J0, J1, rng.standard_normal(spec.n_interior), col, row, float(rng.standard_normal())


def _held_solves(J0, J1, b, col, row, rhs_g):
    """Both systems solved with the LU of J0, held by the caller, as the
    preconditioner; each result comes with whether the Krylov path served it
    (no LU of J1 was made)."""
    precondition = factor(J0).solve
    out = []
    for border, rhs in ((None, b), ((col, row, 1.0), np.append(b, rhs_g))):
        with mock.patch.object(grid, "factor", side_effect=factor) as made:
            x = grid.linear_solve(J1, rhs, 0.0, border=border, precondition=precondition)
        out.append((x, made.call_count == 0))
    return out


@pytest.mark.parametrize("dim", [1, 2, 3])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_held_factor_solves_match_the_lu(dim, data):
    J0, J1, b, col, row, rhs_g = _nearby_systems(data.draw(problems(dim)), data)
    bordered = sp.bmat([[J1, col[:, None]], [sp.csr_matrix(row[None, :]), [[1.0]]]],
                       format="csc")
    rhs = np.append(b, rhs_g)
    exact = (factor(J1).solve(b), spla.splu(bordered).solve(rhs))
    # at the shipped tolerance every Krylov solve meets its residual target
    (x, krylov), (y, krylov_b) = _held_solves(J0, J1, b, col, row, rhs_g)
    if krylov:
        assert np.linalg.norm(b - J1 @ x) <= grid.KRYLOV_RTOL * np.linalg.norm(b)
    if krylov_b:
        assert np.linalg.norm(rhs - bordered @ y) <= grid.KRYLOV_RTOL * np.linalg.norm(rhs)
    # run to a tight tolerance, the Krylov path lands on the LU solutions;
    # at 1e-9 the forward error follows the conditioning (up to 2e-9 seen)
    with mock.patch.object(grid, "KRYLOV_RTOL", 1e-12):
        (x, _), (y, _) = _held_solves(J0, J1, b, col, row, rhs_g)
    for got, ref in zip((x, y), exact):
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
