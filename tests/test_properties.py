"""Property tests over random small grids and smooth coefficient fields.

Every problem has lam < 0 and c > 0, so lam * c < 0 at every node: the
solution is unique and the enclosure applies. Examples are derandomized so
that every run of the suite draws the same ones.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gqc import GridFunction, GridSpec, build_operators, monotone_enclosure, newton_solve
from gqc.solver import residual_P

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
    n = tuple(draw(st.integers(8, 40 if dim == 1 else 14)) for _ in range(dim))
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
    slack = 1e-8
    alpha, beta, u, report = monotone_enclosure(problem, ops, slack=slack)
    assume(report.converged)
    assert np.all(u.values - alpha.values >= -slack)
    assert np.all(beta.values - u.values >= -slack)
