import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

import gqc
from gqc import (
    GridError,
    GridFunction,
    GridSpec,
    build_operators,
    grad_sq,
    norms,
    poisson_solve,
)
from gqc import grid
from gqc.grid import factor
from gqc.solver import SolveOptions, damped_newton, quasilinear_jacobian


def test_invalid_specs_rejected():
    with pytest.raises(GridError):
        GridSpec(1, ((0.0, 1.0),), (3,))  # n too small
    with pytest.raises(GridError):
        GridSpec(2, ((0.0, 1.0), (1.0, 0.0)), (8, 8))  # lo >= hi
    with pytest.raises(GridError):
        GridSpec(4, ((0.0, 1.0),) * 4, (8,) * 4)
    with pytest.raises(GridError):
        GridSpec(2, ((0.0, 1.0),), (8, 8))  # bounds length mismatch


def test_laplacian_1d_n4_is_textbook_tridiagonal():
    spec = GridSpec(1, ((0.0, 1.0),), (4,))
    ops = build_operators(spec)
    L = ops.laplacian.toarray()
    assert L.shape == (3, 3)
    assert np.allclose(np.diag(L), 32.0)
    assert np.allclose(np.diag(L, 1), -16.0)
    assert L[0, 2] == 0.0


def test_laplacian_2d_corner_row_sums():
    # 5-point stencil with two eliminated neighbours: row sum 2/h^2
    spec = GridSpec(2, ((0.0, 1.0), (0.0, 1.0)), (8, 8))
    ops = build_operators(spec)
    m = 7
    h2 = 64.0
    row_sums = np.asarray(ops.laplacian.sum(axis=1)).ravel()
    for i, j in ((0, 0), (0, m - 1), (m - 1, 0), (m - 1, m - 1)):
        assert row_sums[i * m + j] == pytest.approx(2.0 * h2, rel=1e-14)


def test_laplacian_symmetry_exact():
    spec = GridSpec(2, ((0.0, 2.0), (-1.0, 1.0)), (8, 12))
    ops = build_operators(spec)
    diff = (ops.laplacian - ops.laplacian.T).tocoo()
    assert np.max(np.abs(diff.data), initial=0.0) == 0.0


def test_laplacian_positive_definite():
    spec = GridSpec(2, ((0.0, 1.0), (0.0, 1.0)), (8, 8))
    ops = build_operators(spec)
    rng = np.random.default_rng(0)
    for _ in range(5):
        v = rng.standard_normal(spec.n_interior)
        assert v @ (ops.laplacian @ v) > 0.0


def test_laplacian_annihilates_affine_away_from_boundary():
    spec = GridSpec(2, ((0.0, 1.0), (0.0, 1.0)), (16, 16))
    ops = build_operators(spec)
    pts = spec.interior_points()
    u = 1.0 + 2.0 * pts[:, 0] + 3.0 * pts[:, 1]
    res = np.abs(ops.laplacian @ u).reshape(spec.interior_shape)
    interior = res[2:-2, 2:-2]
    assert np.max(interior) <= 1e-9 * 4.0 / spec.spacing[0] ** 2


@pytest.mark.parametrize("dim, bounds, n", [
    (1, ((0.0, 1.0),), (9,)),
    (2, ((0.0, 1.0), (0.0, 3.0)), (8, 12)),
    (2, ((0.0, 30.0), (0.0, 30.0)), (32, 32)),
    (3, ((0.0, 1.0), (0.0, 2.0), (0.0, 1.5)), (4, 6, 5)),
])
def test_laplacian_is_the_textbook_stencil_bit_for_bit(dim, bounds, n):
    # the stencil assembled node by node, 2/h^2 summed over the axes in order
    # on the diagonal and -1/h^2 to each interior neighbour, stored by
    # diagonals with zeros where the stencil would wrap around a grid line
    spec = GridSpec(dim, bounds, n)
    L = build_operators(spec).laplacian
    shape = spec.interior_shape
    index = np.arange(spec.n_interior).reshape(shape)
    ref = np.zeros((spec.n_interior, spec.n_interior))
    for node in np.ndindex(*shape):
        center = 0.0
        for axis, h in enumerate(spec.spacing):
            center = center + 2.0 / h**2
            for step in (-1, 1):
                k = node[axis] + step
                if 0 <= k < shape[axis]:
                    ref[index[node], index[node[:axis] + (k,) + node[axis + 1:]]] = -1.0 / h**2
        ref[index[node], index[node]] = center
    strides = [int(np.prod(shape[axis + 1:])) for axis in range(dim)]
    assert L.offsets.tolist() == sorted(strides + [0] + [-s for s in strides])
    cols = np.arange(spec.n_interior)
    for k, diagonal in zip(L.offsets, L.data):
        rows = cols - k
        inside = (rows >= 0) & (rows < spec.n_interior)
        want = np.zeros(spec.n_interior)
        want[inside] = ref[rows[inside], cols[inside]]
        assert diagonal.tobytes() == want.tobytes()


def _dense_weighted_stiffness(spec, coeff):
    """Sum over grid edges of a_e (u_p - u_q)^2 / h^2, the boundary end of an
    edge carrying u = 0; a_e is the mean of the edge's interior end values."""
    shape = spec.interior_shape
    index = np.arange(spec.n_interior).reshape(shape)
    K = np.zeros((spec.n_interior, spec.n_interior))
    for axis, h in enumerate(spec.spacing):
        for node in np.ndindex(*shape):
            k = node[axis]
            below = node[:axis] + (k - 1,) + node[axis + 1:]
            edges = [[index[node]] if k == 0 else [index[node], index[below]]]
            if k == shape[axis] - 1:
                edges.append([index[node]])  # the boundary edge above the last node
            for ends in edges:
                w = np.mean(coeff[ends]) / h**2
                for p in ends:
                    for q in ends:
                        K[p, q] += w if p == q else -w
    return K


@pytest.mark.parametrize("dim, bounds, n", [
    (1, ((0.0, 1.0),), (9,)),
    (2, ((0.0, 30.0), (0.0, 30.0)), (32, 32)),
    (2, ((0.0, 1.0), (-1.0, 2.0)), (6, 9)),
    (3, ((0.0, 1.0), (0.0, 2.0), (0.0, 1.5)), (4, 6, 5)),
])
def test_weighted_stiffness_matches_dense_edge_sum(dim, bounds, n):
    spec = GridSpec(dim, bounds, n)
    ops = build_operators(spec)
    coeff = np.random.default_rng(dim).uniform(0.2, 3.0, spec.n_interior)
    ref = _dense_weighted_stiffness(spec, coeff)
    K = ops.weighted_stiffness(coeff)
    assert np.max(np.abs(K.toarray() - ref)) <= 1e-13 * np.max(np.abs(ref))
    ones = ops.weighted_stiffness(np.ones(spec.n_interior))
    assert np.array_equal(ones.offsets, ops.laplacian.offsets)
    assert ones.data.tobytes() == ops.laplacian.data.tobytes()


def test_grad_sq_zero_field(interval64):
    spec, ops = interval64
    g = grad_sq(GridFunction.zeros(spec), ops)
    assert np.all(g.values == 0.0)


def test_grad_sq_exact_on_quadratic(interval64):
    spec, ops = interval64
    x = spec.axis_coords(0)
    g = grad_sq(GridFunction(spec, x * (1 - x)), ops)
    assert np.max(np.abs(g.values - (1 - 2 * x) ** 2)) <= 1e-13
    mid = np.argmin(np.abs(x - 0.5))
    assert g.values[mid] == pytest.approx(0.0, abs=1e-14)


def test_grad_sq_nonnegative(square32):
    spec, ops = square32
    rng = np.random.default_rng(1)
    g = grad_sq(GridFunction(spec, rng.standard_normal(spec.n_interior)), ops)
    assert np.min(g.values) >= 0.0


def test_grad_sq_separable_matches_1d(square32):
    # u = x(1-x), constant in y: the 1d column values away from the y-boundary
    spec, ops = square32
    pts = spec.interior_points()
    u = GridFunction(spec, pts[:, 0] * (1 - pts[:, 0]))
    g = grad_sq(u, ops).reshaped()
    x = spec.axis_coords(0)
    expected = (1 - 2 * x) ** 2
    inner = g[:, 1:-1]  # drop y-boundary-adjacent columns
    assert np.max(np.abs(inner - expected[:, None])) <= 1e-13


def test_grad_sq_spec_mismatch(interval64, square32):
    _, ops1 = interval64
    spec2, _ = square32
    with pytest.raises(GridError):
        grad_sq(GridFunction.zeros(spec2), ops1)


def test_norms_constant_field(square32):
    spec, ops = square32
    one = GridFunction.constant(spec, 1.0)
    for p in (1.0, 2.0, 3.0):
        nr = norms(one, ops, p=p)
        assert abs(nr.lp - 1.0) <= 2.5 / 32  # boundary-band quadrature deficit
    assert norms(one, ops).sup == 1.0


def test_norms_zero(interval64):
    spec, ops = interval64
    nr = norms(GridFunction.zeros(spec), ops)
    assert nr.lp == nr.sup == nr.h10 == nr.integral == 0.0


def test_norms_rejects_bad_p(interval64):
    spec, ops = interval64
    with pytest.raises(ValueError):
        norms(GridFunction.zeros(spec), ops, p=0.5)


def test_h10_of_sine(interval64):
    spec, ops = interval64
    x = spec.axis_coords(0)
    nr = norms(GridFunction(spec, np.sin(np.pi * x)), ops)
    target = np.pi**2 / 2  # = 4.9348
    assert abs(nr.h10**2 - target) <= 0.005 * target


def test_poisson_zero(interval64):
    spec, ops = interval64
    u = poisson_solve(GridFunction.zeros(spec), ops)
    assert np.max(np.abs(u.values)) == 0.0


def test_poisson_quadratic_exactness(interval64):
    spec, ops = interval64
    x = spec.axis_coords(0)
    u = poisson_solve(GridFunction.constant(spec, 2.0), ops)
    assert np.max(np.abs(u.values - x * (1 - x))) <= 1e-13


def test_poisson_quadratic_exactness_2d():
    spec = GridSpec(2, ((0.0, 1.0), (0.0, 1.0)), (12, 12))
    ops = build_operators(spec)
    pts = spec.interior_points()
    x, y = pts[:, 0], pts[:, 1]
    f = 2 * (y * (1 - y) + x * (1 - x))
    u = poisson_solve(GridFunction(spec, f), ops)
    assert np.max(np.abs(u.values - x * (1 - x) * y * (1 - y))) <= 1e-13


def test_poisson_eigenfunction_2d(square64):
    spec, ops = square64
    pts = spec.interior_points()
    target = np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
    u = poisson_solve(GridFunction(spec, 2 * np.pi**2 * target), ops)
    assert np.max(np.abs(u.values - target)) <= 1e-2


def test_poisson_residual_tiny(square32):
    spec, ops = square32
    rng = np.random.default_rng(2)
    f = GridFunction(spec, rng.standard_normal(spec.n_interior))
    u = poisson_solve(f, ops)
    res = ops.laplacian @ u.values - f.values
    assert np.linalg.norm(res) <= 1e-12 * np.linalg.norm(f.values)


def test_poisson_second_order_convergence():
    errors = []
    for n in (16, 32, 64):
        spec = GridSpec(2, ((0.0, 1.0), (0.0, 1.0)), (n, n))
        ops = build_operators(spec)
        pts = spec.interior_points()
        target = np.sin(np.pi * pts[:, 0]) * np.sin(2 * np.pi * pts[:, 1])
        f = GridFunction(spec, 5 * np.pi**2 * target)
        u = poisson_solve(f, ops)
        errors.append(np.max(np.abs(u.values - target)))
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.5 <= coarse / fine <= 4.5


def test_gridfunction_validation(interval64):
    spec, _ = interval64
    with pytest.raises(GridError):
        GridFunction(spec, np.zeros(spec.n_interior - 1))
    bad = np.zeros(spec.n_interior)
    bad[3] = np.nan
    with pytest.raises(GridError):
        GridFunction(spec, bad)


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 24), (3, 10)])
def test_factor_matches_default_splu(dim, n):
    spec = GridSpec(dim, ((0.0, 1.0),) * dim, (n,) * dim)
    ops = build_operators(spec)
    rng = np.random.default_rng(dim)
    u = rng.uniform(0.0, 1.0, spec.n_interior)
    mu = 1.0 + rng.uniform(0.0, 0.5, spec.n_interior)
    J = quasilinear_jacobian(u, np.full(spec.n_interior, 2.0), mu, ops)
    b = rng.standard_normal(spec.n_interior)
    for A in (ops.laplacian, J):
        ref = spla.splu(sp.csc_matrix(A)).solve(b)
        assert np.linalg.norm(factor(A).solve(b) - ref) <= 1e-12 * np.linalg.norm(ref)


def _splu_users(node, fn=None):
    """Names of the functions that refer to ``splu`` (None at module level)."""
    if isinstance(node, ast.FunctionDef):
        fn = node.name
    if (getattr(node, "attr", None) == "splu" or getattr(node, "id", None) == "splu"
            or isinstance(node, ast.alias) and node.name == "splu"):
        yield fn
    for child in ast.iter_child_nodes(node):
        yield from _splu_users(child, fn)


def test_only_grid_factor_and_oracle_call_splu():
    # every gqc factorization goes through grid.factor; the oracle keeps
    # its own LU as an independent check
    users = {(path.name, fn) for path in Path(gqc.__file__).parent.glob("*.py")
             for fn in _splu_users(ast.parse(path.read_text()))}
    assert ("oracle.py", "_plain_newton") in users
    assert {u for u in users if u[0] != "oracle.py"} == {("grid.py", "factor")}


# ---------------------------------------------------------------------------
# the Jacobian built by diagonals, the CSC an LU receives, and the linear solve


def _diags_jacobian(u, d, mu, ops):
    """The Jacobian as a sum of ``sp.diags`` products, the assembly that
    ``DiscreteOperators.linearized`` replaces."""
    J = ops.laplacian - sp.diags(d)
    for D in ops.gradient:
        J = J - sp.diags(2.0 * mu * (D @ u)) @ D
    return J.tocsc()


@pytest.mark.parametrize("bounds, n", [
    (((0.0, 1.0),), (64,)),
    (((0.0, 1.0), (0.0, 1.0)), (48, 48)),
    (((0.0, 30.0), (0.0, 30.0)), (32, 32)),
    (((-1.0, 2.0), (0.0, 0.5)), (20, 12)),
    (((0.0, 1.0),) * 3, (18, 18, 18)),
    (((0.0, 1.0), (0.0, 2.0), (0.5, 1.0)), (8, 10, 6)),
])
def test_linearized_jacobian_matches_diags_assembly(bounds, n, monkeypatch):
    # the CSC that ``factor`` hands SuperLU is the sp.diags assembly's, entry
    # for entry and without the zeros of the storage by diagonals; so is that
    # of the transpose, and products by either agree to rounding. A 1-D
    # Jacobian and its transpose go to LAPACK's tridiagonal LU instead, as
    # their three diagonals
    spec = GridSpec(len(n), bounds, n)
    ops = build_operators(spec)
    received = []
    splu, dgttrf = spla.splu, lapack.dgttrf
    monkeypatch.setattr(spla, "splu", lambda A, **kw: received.append(A) or splu(A, **kw))
    monkeypatch.setattr(lapack, "dgttrf", lambda *diags: received.append(diags) or dgttrf(*diags))
    rng = np.random.default_rng(sum(n))
    x = spec.interior_points()
    mu = 1.0 + 0.5 * np.sin(3.0 * x[:, 0]) + rng.uniform(-0.1, 0.1, spec.n_interior)
    d = -2.0 + rng.uniform(-1.0, 1.0, spec.n_interior)
    v = rng.standard_normal(spec.n_interior)
    smooth = np.prod([np.sin(np.pi * (x[:, k] - lo) / (hi - lo))
                      for k, (lo, hi) in enumerate(spec.bounds)], axis=0)
    for u in (smooth, rng.uniform(-1.0, 1.0, spec.n_interior), np.zeros(spec.n_interior)):
        got = quasilinear_jacobian(u, d, mu, ops)
        ref = _diags_jacobian(u, d, mu, ops)
        # the transpose is a Stencil on the same pattern, exactly the dense
        # transpose, and transposing it again restores every stored value
        T = got.T
        assert isinstance(T, grid.Stencil) and np.array_equal(T.offsets, got.offsets)
        assert np.array_equal(T.toarray(), got.toarray().T)
        assert T.T.data.tobytes() == got.data.tobytes()
        for A, R in ((got, ref), (got.T, ref.T.tocsc())):
            factor(A)
            lu_input = received.pop()
            assert not received
            assert isinstance(lu_input, tuple) == (spec.dim == 1)
            if isinstance(lu_input, tuple):
                for diagonal, k in zip(lu_input, (-1, 0, 1)):
                    assert np.array_equal(diagonal, R.diagonal(k))
            else:
                assert np.array_equal(lu_input.indptr, R.indptr)
                assert np.array_equal(lu_input.indices, R.indices)
                assert np.array_equal(lu_input.data, R.data)
            assert np.max(np.abs(A @ v - R @ v)) <= 1e-15 * np.max(np.abs(R @ v))


def _random_1d_jacobian(spec, ops, seed, smooth=True):
    """A nonsymmetric 1-D Jacobian, at a random sum of three sines or, not
    ``smooth``, at nodal noise (whose drift dominates), with random d and mu."""
    rng = np.random.default_rng(seed)
    x = spec.axis_coords(0)
    if smooth:
        u = sum(rng.uniform(-1.0, 1.0) * np.sin(k * np.pi * x) for k in (1, 2, 3))
    else:
        u = rng.uniform(-1.0, 1.0, x.size)
    d = rng.uniform(-5.0, 5.0, x.size)
    mu = rng.uniform(-2.0, 2.0, x.size)
    return quasilinear_jacobian(u, d, mu, ops), rng.standard_normal(x.size)


@pytest.mark.parametrize("n", [4, 64])
def test_tridiagonal_factor_matches_splu_and_a_dense_solve(n):
    # a 1-D Jacobian or Laplacian is factored by LAPACK's tridiagonal LU, not
    # SuperLU; these have condition numbers up to about 5e3
    spec = GridSpec(1, ((0.0, 1.0),), (n,))
    ops = build_operators(spec)
    for seed in range(5):
        J, b = _random_1d_jacobian(spec, ops, seed)
        assert not np.allclose(J.toarray(), J.toarray().T)
        for A in (J, ops.laplacian):
            lu = factor(A)
            assert isinstance(lu, grid.TridiagonalLU)
            x = lu.solve(b)
            for ref in (spla.splu(sp.csc_matrix(A)).solve(b), np.linalg.solve(A.toarray(), b)):
                assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)


def test_tridiagonal_factor_is_backward_stable():
    # on ill-conditioned Jacobians (drift from nodal noise) the solve errs only
    # as the conditioning allows: its residual is at rounding level
    spec = GridSpec(1, ((0.0, 1.0),), (257,))
    ops = build_operators(spec)
    for seed in range(5):
        J, b = _random_1d_jacobian(spec, ops, seed, smooth=False)
        x = factor(J).solve(b)
        dense = J.toarray()
        assert np.linalg.norm(dense @ x - b) <= 1e-15 * np.linalg.norm(dense, 2) * np.linalg.norm(x)


def test_tridiagonal_zero_pivot_is_singular():
    # A[:, 0] = 0: the first pivot is zero, whatever the row exchanges
    spec = GridSpec(1, ((0.0, 1.0),), (16,))
    ops = build_operators(spec)
    A = ops.linearized(np.zeros(spec.n_interior), [np.zeros(spec.n_interior)])
    A.data[:, 0] = 0.0
    with pytest.raises(RuntimeError, match="exactly singular"):
        factor(A)
    b = np.ones(spec.n_interior)

    def residual(x):
        return A @ x - b, 1e-10

    def step(x, R, tol):
        return grid.linear_solve(A, -R, tol)

    _, report = damped_newton(np.zeros_like(b), residual, step, SolveOptions())
    assert not report.converged and report.failure_reason == "singular"


@pytest.mark.parametrize("near_fold", [False, True])
def test_one_dimensional_bordered_solve_matches_a_dense_solve(near_fold):
    # block elimination by the tridiagonal LU plus one refinement step, against
    # the dense bordered matrix. Near a fold, J's smallest eigenvalue is 1e-9
    # times L's and the border is its eigenvector: the bordered matrix is regular
    spec = GridSpec(1, ((0.0, 1.0),), (64,))
    ops = build_operators(spec)
    J, b = _random_1d_jacobian(spec, ops, 7)
    rng = np.random.default_rng(8)
    col, row = rng.standard_normal((2, spec.n_interior))
    corner = 0.3
    if near_fold:
        gamma, phi = np.linalg.eigh(ops.laplacian.toarray())
        J = ops.linearized(np.full(spec.n_interior, gamma[0] * (1.0 - 1e-9)),
                           [np.zeros(spec.n_interior)])
        col = row = phi[:, 0]
        corner = 0.0
    rhs = np.append(b, 0.7)
    M = np.block([[J.toarray(), col[:, None]], [row[None, :], np.array([[corner]])]])
    ref = np.linalg.solve(M, rhs)
    x = grid.linear_solve(J, rhs, 0.0, border=(col, row, corner))
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def _nearby_jacobians(spec, ops, step=0.02):
    """Jacobians of the folded family at two nearby states, and a right side."""
    x = spec.interior_points()
    u0 = np.prod([np.sin(np.pi * x[:, k]) for k in range(spec.dim)], axis=0)
    mu = 1.0 + 0.3 * x[:, 0]
    J0 = quasilinear_jacobian(u0, np.full(spec.n_interior, 5.0), mu, ops)
    J1 = quasilinear_jacobian((1.0 + step) * u0, np.full(spec.n_interior, 5.0 + step), mu, ops)
    b = np.random.default_rng(spec.dim).standard_normal(spec.n_interior)
    return J0, J1, b


def _counted(monkeypatch):
    """The calls ``linear_solve`` makes, in order: "gmres" for each GMRES run
    and "lu" for each ``grid.factor`` call, through whatever each one is now."""
    calls = []
    factor_, gmres_ = grid.factor, grid.gmres
    monkeypatch.setattr(grid, "factor", lambda A: calls.append("lu") or factor_(A))
    monkeypatch.setattr(grid, "gmres", lambda *args: calls.append("gmres") or gmres_(*args))
    return calls


@pytest.mark.parametrize("refuse", ["cap", "gmres"])
def test_krylov_miss_refactors(square32, monkeypatch, refuse):
    # the LU of a nearby Jacobian preconditions; each call that misses makes one
    # LU, which serves that call alone
    spec, ops = square32
    J0, J1, b = _nearby_jacobians(spec, ops)
    precondition = factor(J0).solve
    if refuse == "cap":
        monkeypatch.setattr(grid, "KRYLOV_MAX_ITER", 0)
    else:
        monkeypatch.setattr(grid, "gmres", lambda *args: None)
    calls = _counted(monkeypatch)
    for _ in range(2):
        x = grid.linear_solve(J1, b, 0.0, precondition=precondition)
        assert np.array_equal(x, factor(J1).solve(b))
    assert calls == ["gmres", "lu"] * 2


def test_failed_refresh_holds_nothing(square32, monkeypatch):
    # a miss, then a refused factorization: the RuntimeError reaches the caller
    spec, ops = square32
    J0, J1, b = _nearby_jacobians(spec, ops)
    monkeypatch.setattr(grid, "gmres", lambda *args: None)

    def refused(A):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(grid, "factor", refused)
    with pytest.raises(RuntimeError, match="exactly singular"):
        grid.linear_solve(J1, b, 0.0, precondition=factor(J0).solve)


def test_bordered_solve_with_a_zero_schur_scalar_raises():
    # [[I, e1], [e1^T, 1]] is singular although I is not: its Schur scalar is 1 - 1
    n = 8
    e1 = np.eye(n)[0]
    with pytest.raises(RuntimeError, match="Schur scalar"):
        grid.linear_solve(sp.identity(n, format="csc"), np.ones(n + 1), 0.0,
                          border=(e1, e1, 1.0))


def _bordered_case(spec, ops, corner):
    """A Jacobian, a border with ``corner``, the bordered matrix assembled
    by ``sp.bmat``, a right side and the LU of a nearby Jacobian."""
    J0, J1, b = _nearby_jacobians(spec, ops)
    rng = np.random.default_rng(11)
    col, row = rng.standard_normal((2, spec.n_interior))
    M = sp.bmat([[J1, col[:, None]], [row[None, :], np.array([[corner]])]], format="csc")
    return J1, (col, row, corner), M, np.append(b, 0.7), factor(J0).solve


@pytest.mark.parametrize("corner", [1.0, 1e-2, 1e-8, 0.0])
def test_bordered_krylov_path_meets_its_target(square32, monkeypatch, corner):
    # one GMRES run, preconditioned by [[P, 0], [row^T, corner]] ([[P, 0], [0, 1]]
    # at corner 0), meets its target against the assembled bordered matrix and
    # agrees with the direct path to that target
    spec, ops = square32
    J, border, M, rhs, solve = _bordered_case(spec, ops, corner)
    calls = _counted(monkeypatch)
    x = grid.linear_solve(J, rhs, 0.0, border=border, precondition=solve)
    assert calls == ["gmres"]
    target = grid.KRYLOV_RTOL * np.linalg.norm(rhs)
    assert np.linalg.norm(rhs - M @ x) <= target
    ref = grid.linear_solve(J, rhs, 0.0, border=border)
    assert calls == ["gmres", "lu"]
    assert np.linalg.norm(M @ (x - ref)) <= 2.0 * target
    assert np.linalg.norm(x - ref) <= 1e-6 * np.linalg.norm(ref)


def test_bordered_krylov_matvec_is_the_product_then_the_border(square32, monkeypatch):
    # A x is formed first and x[-1] col added to it, the rounding of
    # np.add(A @ x[:-1], x[-1] * col)
    spec, ops = square32
    J, border, _, rhs, solve = _bordered_case(spec, ops, 0.3)
    col, row, corner = border
    matvecs = []
    gmres = grid.gmres

    def recorded(matvec, precondition, b, target, max_iter):
        matvecs.append(matvec)
        return gmres(matvec, precondition, b, target, max_iter)

    monkeypatch.setattr(grid, "gmres", recorded)
    grid.linear_solve(J, rhs, 0.0, border=border, precondition=solve)
    x = np.random.default_rng(4).standard_normal(spec.n_interior + 1)
    out = np.empty_like(x)
    matvecs[0](x, out)
    assert out[:-1].tobytes() == np.add(J @ x[:-1], x[-1] * col).tobytes()
    assert out[-1] == row @ x[:-1] + corner * x[-1]


@pytest.mark.parametrize("corner", [1.0, 1e-2, 1e-8, 0.0])
def test_bordered_krylov_path_preconditions_once_per_iteration(square32, monkeypatch, corner):
    # no application for the border column: one per GMRES iteration, each on
    # the u part of a Krylov vector
    spec, ops = square32
    J, border, _, rhs, solve = _bordered_case(spec, ops, corner)
    applied, iterations = [], []
    gmres = grid.gmres

    def counted(matvec, precondition, b, target, max_iter):
        return gmres(matvec, lambda v, out: iterations.append(1) or precondition(v, out),
                     b, target, max_iter)

    monkeypatch.setattr(grid, "gmres", counted)
    grid.linear_solve(J, rhs, 0.0, border=border,
                      precondition=lambda r: applied.append(r.copy()) or solve(r))
    assert len(applied) == len(iterations) > 0
    assert not any(np.array_equal(r, border[0]) for r in applied)


@pytest.mark.parametrize("corner", [1.0, 1e-2, 1e-8, 0.0])
def test_bordered_direct_path_is_block_elimination_with_refinement(square32, monkeypatch,
                                                                   corner):
    # without a preconditioner: one LU of A and three solves by it, for the
    # border column, the right side and the refinement step's residual
    spec, ops = square32
    J, border, M, rhs, _ = _bordered_case(spec, ops, corner)
    solved = []
    factor_ = grid.factor

    def counted(A):
        lu = factor_(A)
        return type("Counted", (), {"solve": lambda self, r: solved.append(1) or lu.solve(r)})()

    monkeypatch.setattr(grid, "factor", counted)
    x = grid.linear_solve(J, rhs, 0.0, border=border)
    assert len(solved) == 3
    ref = spla.splu(M).solve(rhs)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def _sine_preconditioned_case(spec, ops):
    """A 3-D Jacobian near the Laplacian, the first one of a Newton solve
    from zero, and a right side."""
    x = spec.interior_points()
    mu = 0.5 + 0.25 * np.sin(np.pi * x[:, 0])
    u = 0.2 * np.prod([np.sin(np.pi * x[:, k]) for k in range(spec.dim)], axis=0)
    J = quasilinear_jacobian(u, np.full(spec.n_interior, -2.0), mu, ops)
    return J, np.random.default_rng(8).standard_normal(spec.n_interior)


def test_linear_solve_starts_from_its_preconditioner(monkeypatch):
    spec = GridSpec(3, ((0.0, 1.0),) * 3, (12, 12, 12))
    ops = build_operators(spec)
    J, b = _sine_preconditioned_case(spec, ops)
    calls = _counted(monkeypatch)
    x = grid.linear_solve(J, b, 0.0, precondition=ops.sine_solve)
    assert calls == ["gmres"]
    assert np.linalg.norm(b - J @ x) <= grid.KRYLOV_RTOL * np.linalg.norm(b)
    ref = factor(J).solve(b)
    assert np.max(np.abs(x - ref)) <= 1e-8 * np.max(np.abs(ref))


@pytest.mark.parametrize("refuse", ["cap", "zero"])
def test_preconditioner_miss_factors_once(monkeypatch, refuse):
    spec = GridSpec(3, ((0.0, 1.0),) * 3, (12, 12, 12))
    ops = build_operators(spec)
    J, b = _sine_preconditioned_case(spec, ops)
    if refuse == "cap":
        monkeypatch.setattr(grid, "KRYLOV_MAX_ITER", 0)
        precondition = ops.sine_solve
    else:
        precondition = np.zeros_like
    calls = _counted(monkeypatch)
    x = grid.linear_solve(J, b, 0.0, precondition=precondition)
    assert calls == ["gmres", "lu"]
    assert np.array_equal(x, factor(J).solve(b))


def test_linear_solve_takes_each_calls_preconditioner(monkeypatch):
    spec = GridSpec(3, ((0.0, 1.0),) * 3, (12, 12, 12))
    ops = build_operators(spec)
    J, b = _sine_preconditioned_case(spec, ops)
    calls = _counted(monkeypatch)
    for shift in (0.0, -2.0):
        x = grid.linear_solve(J, b, 0.0, precondition=ops.shifted_sine_solver(shift))
        assert np.linalg.norm(b - J @ x) <= grid.KRYLOV_RTOL * np.linalg.norm(b)
    assert calls == ["gmres", "gmres"]
    # no preconditioner on this call: A is factored and solved directly
    x = grid.linear_solve(J, b, 0.0)
    assert calls == ["gmres", "gmres", "lu"]
    assert np.array_equal(x, factor(J).solve(b))


@pytest.mark.parametrize("bounds, n", [
    (((0.0, 1.0),), (64,)),
    (((0.0, 1.0),), (257,)),
    (((0.0, 1.0), (0.0, 1.0)), (32, 32)),
    (((-1.0, 2.0), (0.0, 0.5)), (20, 12)),
    (((0.0, 1.0),) * 3, (18, 18, 18)),
    (((0.0, 1.0), (0.0, 2.0), (0.5, 1.0)), (8, 10, 6)),
])
def test_sine_solve_matches_the_laplacian_lu(bounds, n):
    spec = GridSpec(len(n), bounds, n)
    ops = build_operators(spec)
    rng = np.random.default_rng(sum(n))
    for b in (rng.standard_normal(spec.n_interior), np.ones(spec.n_interior)):
        ref = factor(ops.laplacian).solve(b)
        got = ops.sine_solve(b)
        assert got.shape == b.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("bounds, n", [
    (((0.0, 1.0),), (64,)),
    (((-1.0, 2.0),), (37,)),
    (((0.0, 1.0), (0.0, 1.0)), (32, 32)),
    (((-1.0, 2.0), (0.0, 0.5)), (20, 12)),
    (((0.0, 1.0),) * 3, (12, 12, 12)),
    (((0.0, 1.0), (0.0, 2.0), (0.5, 1.0)), (8, 10, 6)),
])
def test_shifted_sine_solve_matches_the_shifted_laplacian(bounds, n):
    spec = GridSpec(len(n), bounds, n)
    ops = build_operators(spec)
    eig = ops.sine_basis()[1]
    lam_min, lam_max = float(eig.min()), float(eig.max())
    rng = np.random.default_rng(sum(n))
    for b in (rng.standard_normal(spec.n_interior), np.ones(spec.n_interior)):
        # the FFT transform is the reference at shift 0
        ref = ops.sine_solve(b)
        got = ops.shifted_sine_solver(0.0)(b)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        for shift in (-5.0, 0.0, 0.5 * lam_min, 0.9 * lam_min):
            ref = spla.spsolve((ops.laplacian - shift * sp.identity(spec.n_interior)).tocsc(), b)
            cond = (lam_max - shift) / (lam_min - shift)
            got = ops.shifted_sine_solver(shift)(b)
            assert got.shape == b.shape
            assert np.max(np.abs(got - ref)) <= 1e-15 * cond * np.max(np.abs(ref))


def test_sine_basis_diagonalizes_the_laplacian():
    spec = GridSpec(2, ((-1.0, 2.0), (0.0, 0.5)), (20, 12))
    ops = build_operators(spec)
    (Q0, Q1), eig = ops.sine_basis()
    Q = np.kron(Q0, Q1)
    assert np.max(np.abs(Q @ Q - np.eye(spec.n_interior))) <= 1e-14
    D = Q @ ops.laplacian.toarray() @ Q
    assert np.max(np.abs(D - np.diag(eig.ravel()))) <= 1e-12 * float(eig.max())
    assert ops.sine_basis() is ops.sine_basis()


def test_gmres_meets_its_target_or_returns_none():
    rng = np.random.default_rng(5)
    A = np.eye(30) + 0.1 * rng.standard_normal((30, 30))
    b = rng.standard_normal(30)
    args = (lambda v, out: np.matmul(A, v, out=out), lambda v, out: np.copyto(out, v), b, 1e-10)
    x = grid.gmres(*args, 30)
    assert np.linalg.norm(b - A @ x) <= 1e-10
    assert grid.gmres(*args, 2) is None
    assert np.array_equal(grid.gmres(*args[:3], 1e3, 0), np.zeros(30))


def _counted_kernel(monkeypatch) -> list:
    """Calls of ``grid.dia_matvec``, the DIA kernel ``Stencil`` calls
    directly; scipy's own ``@`` reaches its kernel by another name."""
    calls = []
    kernel = grid.dia_matvec
    monkeypatch.setattr(grid, "dia_matvec", lambda *args: calls.append(1) or kernel(*args))
    return calls


@pytest.mark.parametrize("bounds, n", [
    (((0.0, 1.0),), (17,)),
    (((0.0, 1.0), (-1.0, 2.0)), (9, 12)),
    (((0.0, 1.0),) * 3, (6, 7, 5)),
])
def test_dia_product_is_scipys_bit_for_bit(bounds, n, monkeypatch):
    # the Laplacian, each gradient and a Jacobian take the direct kernel call
    # and give the bytes of scipy's own @
    spec = GridSpec(len(n), bounds, n)
    ops = build_operators(spec)
    rng = np.random.default_rng(8)
    u, d, mu = rng.standard_normal((3, spec.n_interior))
    mats = [ops.laplacian, *ops.gradient, quasilinear_jacobian(u, d, mu, ops)]
    assert all(isinstance(A, grid.Stencil) for A in mats)
    calls = _counted_kernel(monkeypatch)
    for A in mats:
        x = rng.standard_normal(spec.n_interior) * 10.0 ** rng.integers(-8, 8, spec.n_interior)
        ref = sp.dia_matrix.__matmul__(A, x)
        assert (A @ x).tobytes() == ref.tobytes()
        out = np.full_like(x, np.nan)
        A.product_into(x, out)
        assert out.tobytes() == ref.tobytes()
    assert len(calls) == 2 * len(mats)


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 24), (3, 10)])
def test_gradient_transposes_give_scipys_products_bit_for_bit(dim, n):
    # the fold's contractions multiply by D_k^T: the Stencil transpose is the
    # dense transpose, and its products are the bytes of scipy's own transpose's
    spec = GridSpec(dim, ((0.0, 1.0),) * dim, (n,) * dim)
    ops = build_operators(spec)
    x = np.random.default_rng(dim).standard_normal(spec.n_interior)
    for D in ops.gradient:
        T = D.T
        assert isinstance(T, grid.Stencil) and np.array_equal(T.toarray(), D.toarray().T)
        assert (T @ x).tobytes() == (sp.dia_matrix.transpose(D) @ x).tobytes()


def test_dia_product_falls_back_to_scipy(square32, monkeypatch):
    # 2-D arrays, strided views, integer vectors and sparse operands take
    # sp.dia_matrix's @, with its results
    spec, ops = square32
    L, m = ops.laplacian, spec.n_interior
    rng = np.random.default_rng(9)
    block = rng.standard_normal((m, 3))
    strided = rng.standard_normal(2 * m)[::2]
    integers = np.arange(m)
    calls = _counted_kernel(monkeypatch)
    for x in (block, block[:, :1], strided, integers):
        y = L @ x
        assert y.shape == x.shape and y.dtype == np.float64
        assert np.array_equal(y, sp.dia_matrix.__matmul__(L, x))
    S = L @ sp.identity(m, format="csr")
    assert sp.issparse(S) and np.array_equal(S.toarray(), L.toarray())
    assert calls == []
    assert np.array_equal(L @ integers, L @ integers.astype(float))
    assert np.array_equal(L @ strided, L @ strided.copy())
    with pytest.raises(ValueError, match="dimension mismatch"):
        L @ np.ones(m + 1)
