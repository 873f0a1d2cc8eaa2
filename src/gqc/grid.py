"""Uniform finite-difference grids on boxes with homogeneous Dirichlet data.

Fields live on the interior nodes of a tensor-product grid over a box in
dimension 1, 2 or 3; the boundary value is implicitly zero everywhere. The
module assembles the standard second-order operators every other module
consumes:

* ``laplacian``: the (2d+1)-point stencil for -lap with Dirichlet
  elimination, symmetric positive definite.
* ``gradient``: per-axis central differences; at nodes adjacent to the
  boundary the stencil uses the (zero) boundary value, which keeps it
  second order for fields that genuinely vanish on the boundary.
* ``edge_diffs``: per-axis forward differences on the edge (staggered)
  grid, including the two boundary edges. These factor the Laplacian as
  sum_i E_i^T E_i and carry the energy inner product.
* midpoint quadrature: each interior node weighs prod(h_i); the missing
  boundary band makes integrals of non-vanishing fields low by O(1/n),
  which is documented and not compensated.

The Dirichlet energy norm (``h10``) is evaluated through the Laplacian
energy u^T L u, i.e. through edge-midpoint gradient quadrature. Nodal
central-difference quadrature would lose the boundary band contribution of
|grad u|^2 (a 2/n relative deficit), which is far too crude for the
eigenvalue and condition checks; the energy form is exact for the same
discrete operators the solvers use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class GridError(ValueError):
    """Raised for invalid grid specifications or mismatched fields."""


def _as_bounds(bounds) -> tuple[tuple[float, float], ...]:
    out = []
    for pair in bounds:
        lo, hi = float(pair[0]), float(pair[1])
        out.append((lo, hi))
    return tuple(out)


@dataclass(frozen=True)
class GridSpec:
    """Box domain with a uniform grid: per-axis bounds and cell counts.

    ``n[k]`` counts cells along axis k, so there are ``n[k] - 1`` interior
    nodes per axis. Interior nodes are ordered lexicographically with the
    first axis slowest (C order of the (m1, ..., md) index block).
    """

    dim: int
    bounds: tuple[tuple[float, float], ...]
    n: tuple[int, ...]

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise GridError(f"dim must be 1, 2 or 3, got {self.dim}")
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "bounds", _as_bounds(self.bounds))
        object.__setattr__(self, "n", tuple(int(v) for v in self.n))
        if len(self.bounds) != self.dim or len(self.n) != self.dim:
            raise GridError(
                f"bounds and n must have length dim={self.dim}, "
                f"got {len(self.bounds)} and {len(self.n)}"
            )
        for axis, ((lo, hi), nk) in enumerate(zip(self.bounds, self.n)):
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise GridError(f"axis {axis}: bounds must satisfy lo < hi, got ({lo}, {hi})")
            if nk < 4:
                raise GridError(f"axis {axis}: need n >= 4 cells, got {nk}")

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple((hi - lo) / nk for (lo, hi), nk in zip(self.bounds, self.n))

    @property
    def interior_shape(self) -> tuple[int, ...]:
        return tuple(nk - 1 for nk in self.n)

    @property
    def n_interior(self) -> int:
        out = 1
        for m in self.interior_shape:
            out *= m
        return out

    @property
    def node_weight(self) -> float:
        """Midpoint quadrature weight prod(h_i), identical for every node."""
        out = 1.0
        for h in self.spacing:
            out *= h
        return out

    def axis_coords(self, axis: int) -> np.ndarray:
        lo, _ = self.bounds[axis]
        h = self.spacing[axis]
        m = self.n[axis] - 1
        return lo + h * np.arange(1, m + 1)

    def interior_points(self) -> np.ndarray:
        """All interior node coordinates, shape (n_interior, dim), C order."""
        axes = [self.axis_coords(k) for k in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel(order="C") for m in mesh], axis=-1)


@dataclass
class GridFunction:
    """Nodal values of a scalar field on the interior nodes of a grid.

    The boundary trace is implicitly zero: a GridFunction with constant
    value 1 represents a field that drops to 0 on the box boundary.
    """

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).ravel(order="C")
        if vals.size != self.spec.n_interior:
            raise GridError(
                f"values length {vals.size} does not match interior node count "
                f"{self.spec.n_interior}"
            )
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise GridError(f"non-finite value at node {bad}")
        self.values = vals

    @classmethod
    def zeros(cls, spec: GridSpec) -> "GridFunction":
        return cls(spec, np.zeros(spec.n_interior))

    @classmethod
    def constant(cls, spec: GridSpec, value: float) -> "GridFunction":
        return cls(spec, np.full(spec.n_interior, float(value)))

    @classmethod
    def from_callable(cls, spec: GridSpec, fn: Callable[..., np.ndarray]) -> "GridFunction":
        pts = spec.interior_points()
        vals = fn(*(pts[:, k] for k in range(spec.dim)))
        return cls(spec, np.broadcast_to(np.asarray(vals, dtype=float), (spec.n_interior,)).copy())

    def reshaped(self) -> np.ndarray:
        return self.values.reshape(self.spec.interior_shape)

    def copy(self) -> "GridFunction":
        return GridFunction(self.spec, self.values.copy())


def _second_difference_1d(m: int, h: float) -> sp.csr_matrix:
    # (1/h^2) tridiag(-1, 2, -1): -d^2/dx^2 with eliminated zero boundary
    main = np.full(m, 2.0 / h**2)
    off = np.full(m - 1, -1.0 / h**2)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


def _central_difference_1d(m: int, h: float) -> sp.csr_matrix:
    # (1/2h) tridiag(-1, 0, 1); rows next to the boundary keep only the
    # interior entry because the boundary value 0 is substituted
    off = np.full(m - 1, 1.0 / (2.0 * h))
    return sp.diags([-off, off], [-1, 1], format="csr")


def _edge_difference_1d(m: int, h: float) -> sp.csr_matrix:
    # (m+1) x m forward differences over all edges including the two that
    # touch the boundary; E^T E reproduces the second-difference matrix
    return sp.diags([1.0 / h, -1.0 / h], [0, -1], shape=(m + 1, m), format="csr")


def _kron_chain(mats: Sequence[sp.spmatrix]) -> sp.csr_matrix:
    return reduce(lambda a, b: sp.kron(a, b, format="csr"), mats).tocsr()


def factor(A: sp.spmatrix) -> spla.SuperLU:
    """Sparse LU of ``A``, the one factorization every gqc solve goes through.

    Columns are ordered by minimum degree on the pattern of A^T + A, which
    suits the structurally symmetric matrices gqc assembles. ``spla.splu``
    is looked up at each call, so a wrapper installed on it sees every
    factorization.
    """
    return spla.splu(sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A")


# nnz(LU) / nnz(A) up to which a fresh factorization costs about what a
# preconditioned Krylov solve does, so the held LU is never reused; SuperLU
# fills Jacobians 1.8-2.5 on 1-D grids, 4.5-6 on 2-D and 5.7-26 on 3-D ones.
# A 3-D LU is also slow to make (78 ms at 18^3, fill 25), so 3-D Newton
# solves start without one, preconditioned by the exact inverse of the
# Laplacian (``DiscreteOperators.sine_solve``), and factor only on a miss
REUSE_MIN_FILL = 4.0
# GMRES iterations with the held LU before it counts as too old and A is
# factored afresh. Along a 48^2 branch solves take 2-10 (mostly 4-8), 18^3
# Newton steps 4-5; caps of 6 to 20 traced that branch equally fast. A
# preconditioner used while no LU is held gets twice the cap: the Laplacian
# inverse leaves the reaction and drift terms to GMRES, so 18^3 Newton steps
# take up to 6 iterations with it from smooth starts and 9-14 on the first
# step from the noise starts of ``multi_start``, where a miss would cost a
# 3-D LU and the memory it holds
KRYLOV_MAX_ITER = 10
# a Krylov solve stops at max(KRYLOV_RTOL |b|, KRYLOV_TOL_SHARE * tol) in
# the 2-norm of its residual, tol being the sup-norm tolerance the caller
# enforces on the residual the solve corrects. 1e-6 changed the Newton
# iteration counts of a 48^2 branch point, 1e-9 changed none; without the
# tol share a solve whose b is near tol stalls on the rounding floor of A x
KRYLOV_RTOL = 1e-9
KRYLOV_TOL_SHARE = 1e-3


def gmres(
    matvec: Callable[[np.ndarray], np.ndarray],
    precondition: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    target: float,
    max_iter: int,
) -> np.ndarray | None:
    """Right-preconditioned GMRES from x = 0, without restarts.

    Returns x with |b - A x| <= ``target`` (2-norm, checked on the true
    residual), or None when ``max_iter`` iterations do not get there or a
    value turns non-finite. Arnoldi orthogonalizes by classical
    Gram-Schmidt applied twice; Givens rotations track the residual norm.
    """
    beta = float(np.linalg.norm(b))
    if beta <= target:
        return np.zeros_like(b)
    if not np.isfinite(beta):
        return None
    V = np.empty((max_iter + 1, b.size))
    Z = np.empty((max_iter, b.size))
    H = np.zeros((max_iter + 1, max_iter))
    cs = np.zeros(max_iter)
    sn = np.zeros(max_iter)
    g = np.zeros(max_iter + 1)
    g[0] = beta
    V[0] = b / beta
    for j in range(max_iter):
        Z[j] = precondition(V[j])
        w = matvec(Z[j])
        h = V[: j + 1] @ w
        w -= h @ V[: j + 1]
        h2 = V[: j + 1] @ w
        w -= h2 @ V[: j + 1]
        H[: j + 1, j] = h + h2
        hn = float(np.linalg.norm(w))
        if not np.isfinite(hn):
            return None
        H[j + 1, j] = hn
        if hn > 0.0:
            V[j + 1] = w / hn
        for i in range(j):
            a, c = H[i, j], H[i + 1, j]
            H[i, j] = cs[i] * a + sn[i] * c
            H[i + 1, j] = cs[i] * c - sn[i] * a
        r = math.hypot(H[j, j], hn)
        if r == 0.0:
            return None
        cs[j], sn[j] = H[j, j] / r, hn / r
        H[j, j], H[j + 1, j] = r, 0.0
        g[j + 1] = -sn[j] * g[j]
        g[j] *= cs[j]
        if abs(g[j + 1]) <= target:
            k = j + 1
            y = np.zeros(k)
            for i in range(k - 1, -1, -1):
                y[i] = (g[i] - H[i, i + 1:k] @ y[i + 1:]) / H[i, i]
            x = y @ Z[:k]
            res = float(np.linalg.norm(b - matvec(x)))
            return x if res <= target else None
    return None


class HeldFactor:
    """The sparse LU of one recent matrix, reused for the nearby matrices
    of a Newton or continuation run; the one place that chooses between
    that LU, a given preconditioner and a fresh LU.

    A solve with a matrix A runs GMRES preconditioned by the held LU and
    factors A afresh, holding the new LU, only when GMRES misses its
    tolerance within ``KRYLOV_MAX_ITER`` iterations. While no LU is held,
    GMRES runs with ``precondition`` instead, when one is given, at the
    same tolerance and twice the cap. Where the LU fills little
    (``REUSE_MIN_FILL``), and when nothing is held and no ``precondition``
    is given, A is always factored afresh and solved directly.
    ``factorizations`` and ``krylov_solves`` count the fresh LUs of A and
    the GMRES runs, including the runs that missed. Every LU is made by
    ``factor``, looked up at each call.
    """

    def __init__(self, precondition: Callable[[np.ndarray], np.ndarray] | None = None):
        self._precondition = precondition
        self.lu: spla.SuperLU | None = None
        self.factorizations = 0
        self.krylov_solves = 0

    def solve(
        self,
        A: sp.spmatrix,
        b: np.ndarray,
        tol: float,
        border: tuple[np.ndarray, np.ndarray, float] | None = None,
    ) -> np.ndarray:
        """x with M x = b, for a caller that enforces the sup-norm
        tolerance ``tol`` on the residual this solve corrects.

        M is A or, with ``border = (col, row, corner)``, the bordered matrix
        [[A, col], [row^T, corner]], whose b and x are one entry longer.
        A bordered system is preconditioned, and solved directly, by block
        elimination with a solve by A (``_block_elimination``); a direct
        solve takes one step of iterative refinement against the bordered
        residual, which keeps it accurate where A is nearly singular, as at
        a fold. When A cannot be factored or the Schur scalar fails, the
        bordered matrix is factored for this call instead. A
        ``RuntimeError`` of the last LU tried propagates, and when A
        cannot be factored nothing is held.
        """
        if border is None:
            def matvec(v: np.ndarray) -> np.ndarray:
                return A @ v

            def inverse(solve):
                return solve
        else:
            col, row, corner = border

            def matvec(x: np.ndarray) -> np.ndarray:
                return np.append(A @ x[:-1] + x[-1] * col, row @ x[:-1] + corner * x[-1])

            def inverse(solve):
                return _block_elimination(solve, col, row, corner)

        if self.lu is None:
            precondition, max_iter = self._precondition, 2 * KRYLOV_MAX_ITER
        else:
            precondition = self.lu.solve if self.lu.nnz > REUSE_MIN_FILL * A.nnz else None
            max_iter = KRYLOV_MAX_ITER
        if precondition is not None:
            precondition = inverse(precondition)
        if precondition is not None:
            self.krylov_solves += 1
            target = max(KRYLOV_RTOL * float(np.linalg.norm(b)), KRYLOV_TOL_SHARE * tol)
            x = gmres(matvec, precondition, b, target, max_iter)
            if x is not None:
                return x
        self.lu = None
        try:
            self.lu = factor(A)
            self.factorizations += 1
        except RuntimeError:
            if border is None:
                raise
        direct = None if self.lu is None else inverse(self.lu.solve)
        if direct is not None:
            x = direct(b)
            return x if border is None else x + direct(b - matvec(x))
        # only a bordered solve gets here
        bordered = sp.bmat([[A, col[:, None]], [sp.csr_matrix(row[None, :]), [[corner]]]],
                           format="csc")
        return factor(bordered).solve(b)


def _block_elimination(
    solve: Callable[[np.ndarray], np.ndarray], col: np.ndarray, row: np.ndarray, corner: float,
) -> Callable[[np.ndarray], np.ndarray] | None:
    """The inverse of [[A, col], [row^T, corner]] from ``solve``, a solve by
    A (Keller's bordering lemma): the last entry follows from the Schur
    scalar corner - row.A^-1 col, the others by one more solve. None when
    that scalar is zero or not finite."""
    w = solve(col)
    schur = corner - float(row @ w)
    if not (math.isfinite(schur) and schur != 0.0):
        return None

    def inverse(r: np.ndarray) -> np.ndarray:
        v = solve(r[:-1])
        dl = (r[-1] - float(row @ v)) / schur
        return np.append(v - dl * w, dl)

    return inverse


def _lift_axis_operator(spec: GridSpec, axis: int, op1d: sp.spmatrix) -> sp.csr_matrix:
    shape = spec.interior_shape
    factors: list[sp.spmatrix] = [sp.identity(m, format="csr") for m in shape]
    factors[axis] = op1d
    return _kron_chain(factors)


def _dst1(x: np.ndarray) -> np.ndarray:
    """DST-I along the last axis, y_k = sum_j x_j sin(pi j k / (m + 1)) for
    j, k = 1..m, returned with that axis moved first; d calls on a d-axis
    block transform every axis and restore the axis order. y is read off
    the real FFT of the odd extension [0, x, 0, -reversed x] as -Im / 2.
    The transform is its own inverse up to the factor 2 / (m + 1)."""
    m = x.shape[-1]
    odd = np.zeros(x.shape[:-1] + (2 * m + 2,))
    odd[..., 1:m + 1] = x
    odd[..., m + 2:] = -x[..., ::-1]
    return np.moveaxis(-0.5 * np.fft.rfft(odd, axis=-1).imag[..., 1:m + 1], -1, 0)


def _sine_weights(spec: GridSpec) -> np.ndarray:
    """prod_k 2 / (m_k + 1) over the Laplacian's eigenvalues, on the index
    block; the eigenvalue of the sine mode (j_1, ..., j_d) is
    sum_k (2 - 2 cos(j_k pi / (m_k + 1))) / h_k^2, summed here as
    4 sin^2(j_k pi / (2 (m_k + 1))) / h_k^2, which keeps the smallest
    ones to full relative precision."""
    shape = spec.interior_shape
    per_axis = [4.0 * np.sin(0.5 * np.pi * np.arange(1, m + 1) / (m + 1)) ** 2 / h**2
                for m, h in zip(shape, spec.spacing)]
    eig = sum(np.meshgrid(*per_axis, indexing="ij", sparse=True))
    return math.prod(2.0 / (m + 1) for m in shape) / eig


class DiscreteOperators:
    """Assembled Dirichlet operators and quadrature for one GridSpec.

    Immutable after construction apart from the index arrays that
    ``linearized`` builds on its first call and the eigenvalue weights
    that ``sine_solve`` builds on its first call; it holds no
    factorization. ``sine_solve`` inverts the full-box Laplacian exactly
    without an LU: the sine modes diagonalize it.
    """

    def __init__(self, spec: GridSpec):
        self.spec = spec
        shape = spec.interior_shape
        hs = spec.spacing
        lap_parts = []
        grads = []
        edges = []
        for axis in range(spec.dim):
            m, h = shape[axis], hs[axis]
            lap_parts.append(_lift_axis_operator(spec, axis, _second_difference_1d(m, h)))
            grads.append(_lift_axis_operator(spec, axis, _central_difference_1d(m, h)))
            edges.append(_lift_axis_operator(spec, axis, _edge_difference_1d(m, h)))
        lap = lap_parts[0]
        for part in lap_parts[1:]:
            lap = (lap + part).tocsr()
        lap.sum_duplicates()
        self.laplacian: sp.csr_matrix = lap
        self.gradient: tuple[sp.csr_matrix, ...] = tuple(grads)
        self.edge_diffs: tuple[sp.csr_matrix, ...] = tuple(edges)
        self.node_weight: float = spec.node_weight
        self._lin_pattern = None  # (Laplacian in CSC, diagonal slots, per-axis slots)
        self._sine_weights = None  # scaled inverse eigenvalues of the Laplacian

    def lap_solver(self) -> spla.SuperLU:
        """A fresh sparse LU factorization of the Laplacian; nothing keeps it."""
        return factor(self.laplacian)

    def sine_solve(self, b: np.ndarray) -> np.ndarray:
        """x with L x = b for the full-box Laplacian L, by a DST-I along
        each axis, a division by the eigenvalues and a DST-I again. No LU
        is made; a masked Laplacian has no such solve."""
        if self._sine_weights is None:
            self._sine_weights = _sine_weights(self.spec)
        y = np.reshape(b, self.spec.interior_shape)
        for _ in range(self.spec.dim):
            y = _dst1(y)
        y = y * self._sine_weights
        for _ in range(self.spec.dim):
            y = _dst1(y)
        return y.ravel()

    def linearized(self, reaction: np.ndarray, drift: Sequence[np.ndarray]) -> sp.csc_matrix:
        """The matrix of  v -> L v - reaction v - sum_k drift[k] D_k v.

        Filled into the CSC pattern of the Laplacian, which holds every
        entry of the diagonal and of the gradients: L_ii - reaction_i on
        the diagonal and L_ij - drift[k]_i (D_k)_ij off it, each rounded
        once, the values that summing ``sp.diags`` products gives.
        """
        if self._lin_pattern is None:
            lap = self.laplacian.tocsc()
            rows = lap.indices
            cols = np.repeat(np.arange(lap.shape[1]), np.diff(lap.indptr))
            axes = []
            for D in self.gradient:
                vals = np.asarray(D[rows, cols]).ravel()
                slots = np.flatnonzero(vals)
                axes.append((slots, rows[slots], vals[slots]))
            self._lin_pattern = (lap, np.flatnonzero(rows == cols), tuple(axes))
        lap, diag, axes = self._lin_pattern
        data = lap.data.copy()
        data[diag] -= reaction
        for (slots, rows, vals), b in zip(axes, drift):
            data[slots] -= b[rows] * vals
        return sp.csc_matrix((data, lap.indices, lap.indptr), shape=lap.shape)

    def check_spec(self, u: GridFunction) -> None:
        if u.spec != self.spec:
            raise GridError("grid function does not live on this operator set's grid")

    def energy_product(self, a: np.ndarray, b: np.ndarray) -> float:
        """Discrete H^1_0 inner product: node_weight * a^T L b."""
        return float(self.node_weight * (a @ (self.laplacian @ b)))

    def weighted_stiffness(self, coeff: np.ndarray) -> sp.csr_matrix:
        """Stiffness matrix for -div(a grad .) with nodal coefficient a.

        Edge coefficients are arithmetic means of the adjacent node values;
        boundary edges take the single interior node value.
        """
        coeff = np.asarray(coeff, dtype=float)
        parts = []
        for E in self.edge_diffs:
            adj = (E != 0).astype(float)  # edge-node adjacency
            vals = (adj @ coeff) / (adj @ np.ones(coeff.size))
            parts.append((E.T @ sp.diags(vals) @ E).tocsr())
        return reduce(lambda a, b: (a + b).tocsr(), parts)


def restrict(mat: sp.spmatrix, mask: np.ndarray) -> sp.csc_matrix:
    """Rows and columns of ``mat`` on the nodes of ``mask``."""
    idx = np.flatnonzero(mask)
    return mat.tocsr()[idx][:, idx].tocsc()


def build_operators(spec: GridSpec) -> DiscreteOperators:
    """Assemble the Dirichlet Laplacian, gradients and quadrature for a grid."""
    return DiscreteOperators(spec)


def grad_sq(u: GridFunction, ops: DiscreteOperators) -> GridFunction:
    """Nodal |grad u|^2 from the central-difference gradient operators."""
    ops.check_spec(u)
    return GridFunction(u.spec, grad_sq_values(u.values, ops))


def grad_sq_values(values: np.ndarray, ops: DiscreteOperators) -> np.ndarray:
    """Array-level |grad u|^2, used in solver hot loops."""
    acc = None
    for D in ops.gradient:
        g = D @ values
        acc = g * g if acc is None else acc + g * g
    return acc


@dataclass(frozen=True)
class NormReport:
    lp: float
    sup: float
    h10: float
    integral: float
    p: float = 2.0


def norms(u: GridFunction, ops: DiscreteOperators, p: float = 2.0) -> NormReport:
    """Lp, sup, Dirichlet-energy and integral of a grid function.

    ``h10`` is sqrt(node_weight * u^T L u), the energy seminorm of the
    assembled Laplacian (equivalently edge-midpoint quadrature of
    |grad u|^2). Lp and the integral use midpoint node quadrature and are
    low by O(1/n) for fields that do not vanish at the boundary.
    """
    ops.check_spec(u)
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    w = ops.node_weight
    vals = u.values
    lp = float((w * np.sum(np.abs(vals) ** p)) ** (1.0 / p))
    sup = float(np.max(np.abs(vals))) if vals.size else 0.0
    h10 = float(np.sqrt(max(ops.energy_product(vals, vals), 0.0)))
    integral = float(w * np.sum(vals))
    return NormReport(lp=lp, sup=sup, h10=h10, integral=integral, p=p)


def poisson_solve(f: GridFunction, ops: DiscreteOperators) -> GridFunction:
    """Solve laplacian * u = f by a direct factorization made for this call."""
    ops.check_spec(f)
    u = ops.lap_solver().solve(f.values)
    return GridFunction(f.spec, u)
