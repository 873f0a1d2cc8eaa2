"""Uniform finite-difference grids on boxes with homogeneous Dirichlet data.

Fields live on the interior nodes of a tensor-product grid over a box in
dimension 1, 2 or 3; the boundary value is implicitly zero everywhere. The
module assembles the standard second-order operators every other module
consumes:

* ``laplacian``: the (2d+1)-point stencil for -lap with Dirichlet
  elimination, symmetric positive definite; it is
  ``weighted_stiffness(a)``, the stiffness of -div(a grad) on the same
  stencil, at a = 1.
* ``gradient``: per-axis central differences; at nodes adjacent to the
  boundary the stencil uses the (zero) boundary value, which keeps it
  second order for fields that genuinely vanish on the boundary.

  Both are ``Stencil`` matrices, stored by diagonals (scipy's DIA format),
  as are the stiffness matrices, the Jacobians that
  ``DiscreteOperators.linearized`` builds from them and every transpose. On
  a 1-D grid the Laplacian and the Jacobians are tridiagonal, and
  ``factor`` hands them to LAPACK's tridiagonal LU; otherwise to SuperLU.
  ``factor`` loads each at the first LU that needs it, not at import.
* midpoint quadrature: each interior node weighs prod(h_i); the missing
  boundary band makes integrals of non-vanishing fields low by O(1/n),
  which is documented and not compensated.

The Dirichlet energy norm (``h10``) is evaluated through the Laplacian
energy u^T L u, i.e. through edge-midpoint gradient quadrature. Nodal
central-difference quadrature would lose the boundary band contribution of
|grad u|^2 (a 2/n relative deficit), which is far too crude for the
eigenvalue and condition checks; the energy form is exact for the same
discrete operators the solvers use.

``linear_solve`` is the one linear solve of every Newton and continuation
step: GMRES with the caller's preconditioner and, on a miss or without one,
an LU made for that call alone. No factorization is held between calls.
"""

from __future__ import annotations

import copy
import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp
# private, but it is the kernel that scipy's own dia_matrix @ vector calls, with
# these arguments (``_dia_base._matmul_vector``); CI runs the tests, which
# compare both products byte for byte, on scipy 1.16, the oldest release
# pyproject.toml admits
from scipy.sparse._sparsetools import dia_matvec

if TYPE_CHECKING:
    from scipy.sparse.linalg import SuperLU


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
        for axis, nk in enumerate(self.n):  # 8.0 passes: JSON schemas count it an integer
            if not (isinstance(nk, numbers.Real) and float(nk).is_integer()):
                raise GridError(f"axis {axis}: the cell count must be an integer, got {nk!r}")
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
        return math.prod(self.interior_shape)

    @property
    def node_weight(self) -> float:
        """Midpoint quadrature weight prod(h_i), identical for every node."""
        return math.prod(self.spacing)

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


_FLOAT64 = np.dtype(np.float64)


class Stencil(sp.dia_matrix):
    """A square matrix on a grid's (2d+1)-point pattern or part of it (the
    Laplacian, a Jacobian, a gradient), stored by diagonals: ``data[i, j]``
    holds A[j - offsets[i], j], zero where the stencil would wrap around a
    grid line, and ``offsets`` are sorted and symmetric. The transpose is a
    ``Stencil`` too; scipy's would be a DIA matrix with unsorted offsets.

    A product with a 1-D, C-contiguous float64 vector skips scipy's operator
    dispatch, which on a small grid costs several times the product itself:
    ``A @ x`` zeroes a fresh vector and adds A x into it by ``dia_matvec``,
    the compiled kernel scipy's own ``@`` ends in, so the result is
    bit-identical to scipy's; ``product_into`` does the same in a vector the
    caller holds. Any other operand takes ``sp.dia_matrix``'s ``@``.
    """

    def __init__(self, data: np.ndarray, offsets: np.ndarray):
        super().__init__((data, offsets), shape=(data.shape[1],) * 2)

    def __matmul__(self, other):
        if (type(other) is np.ndarray and other.dtype is _FLOAT64
                and self.data.dtype is _FLOAT64 and other.shape == (self.shape[1],)
                and other.flags.c_contiguous):
            out = np.empty(self.shape[0])
            self.product_into(other, out)
            return out
        return sp.dia_matrix.__matmul__(self, other)

    def product_into(self, x: np.ndarray, out: np.ndarray) -> None:
        """``out[:] = A @ x`` for float64 vectors ``x`` and ``out`` (``out``
        C-contiguous), bit-identical to ``@``, without a temporary."""
        out.fill(0.0)
        m, n = self.shape
        dia_matvec(m, n, len(self.offsets), self.data.shape[1], self.offsets, self.data,
                   x, out)

    def transpose(self, axes=None, copy: bool = False) -> Stencil:
        # A^T[j - k, j] = A[j, j - k]: the diagonal at offset k is that at -k
        # shifted by k; the k entries shifted in lie outside the matrix
        data = np.zeros_like(self.data)
        for out, diagonal, k in zip(data, self.data[::-1], self.offsets):
            if k >= 0:
                out[k:] = diagonal[:out.size - k]
            else:
                out[:k] = diagonal[-k:]
        return _with_data(self, data)


def _with_data(A: sp.spmatrix, data: np.ndarray) -> sp.spmatrix:
    """A shallow copy of ``A`` with new values: it shares A's index arrays,
    and skips the checks of scipy's constructors, which cost more than
    building a 1-D Jacobian."""
    out = copy.copy(A)
    out.data = data
    return out


class TridiagonalLU:
    """LAPACK's LU with partial pivoting of a tridiagonal ``Stencil``
    (``dgttrf``), solved by ``dgttrs``: SuperLU's ``solve(b)`` without its
    column ordering or a CSC conversion. Raises ``RuntimeError`` on a zero
    pivot, as SuperLU does on an exactly singular matrix."""

    def __init__(self, A: Stencil):
        from scipy.linalg import lapack

        # data[0, j] holds A[j + 1, j], data[2, j] holds A[j - 1, j]; dgttrf
        # works on copies, so A keeps its values
        *self._lu, info = lapack.dgttrf(A.data[0, :-1], A.data[1], A.data[2, 1:])
        if info > 0:
            raise RuntimeError(f"Factor is exactly singular: zero pivot in row {info}")

    def solve(self, b: np.ndarray) -> np.ndarray:
        from scipy.linalg import lapack

        return lapack.dgttrs(*self._lu, b)[0]


def factor(A: sp.spmatrix) -> SuperLU | TridiagonalLU:
    """LU of ``A``, the one factorization every gqc solve goes through.

    A ``Stencil`` with three diagonals (the Laplacian, every Jacobian of a
    1-D grid and their transposes) takes ``TridiagonalLU``. Any other matrix
    takes SuperLU as scipy's CSC of its nonzeros, its columns ordered by
    minimum degree on the pattern of A^T + A, which suits the structurally
    symmetric matrices gqc assembles. ``scipy.sparse.linalg.splu`` and
    LAPACK's routines are imported and looked up at each call, so a wrapper
    installed on one sees every factorization it makes, and a process that
    makes no LU of a kind never loads its module.
    """
    if isinstance(A, Stencil) and A.offsets.size == 3:
        return TridiagonalLU(A)
    import scipy.sparse.linalg as spla

    return spla.splu(sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A")


# GMRES iterations before a solve counts as a miss and A is factored for that
# call alone. With the drift preconditioner, corrector steps take 1-6 along
# 48^2 and 24^3 branches to sup u = 3, the fold's solves 6 and 2-D Newton steps
# from zero 1-5; 3-D Newton steps by ``sine_solve`` take up to 6 from smooth
# starts and 9-14 from ``multi_start``'s noise starts. 2-D noise starts miss
KRYLOV_MAX_ITER = 20
# a Krylov solve stops at max(rtol |b|, KRYLOV_TOL_SHARE * tol) in the 2-norm
# of its residual, tol being the sup-norm tolerance the caller enforces on the
# residual the solve corrects. KRYLOV_RTOL is the default rtol, which only
# bordered Newton steps override (``continuation.BORDERED_KRYLOV_RTOL``).
# Without the tol share a solve whose b is near tol stalls on the rounding
# floor of A x
KRYLOV_RTOL = 1e-9
KRYLOV_TOL_SHARE = 1e-3


def gmres(
    matvec: Callable[[np.ndarray, np.ndarray], None],
    precondition: Callable[[np.ndarray, np.ndarray], None],
    b: np.ndarray,
    target: float,
    max_iter: int,
) -> np.ndarray | None:
    """Right-preconditioned GMRES from x = 0, without restarts.

    ``precondition(v, out)`` and ``matvec(z, out)`` write their result into
    ``out``: the rows of the Krylov basis, so an iteration copies no vector.
    Returns x with |b - A x| <= ``target`` (2-norm, checked on the true
    residual), or None when ``max_iter`` iterations do not get there or a
    value turns non-finite. Arnoldi orthogonalizes by classical
    Gram-Schmidt applied twice; Givens rotations track the residual norm.
    The Hessenberg columns, the rotations and the back-substitution are
    Python floats: at a few dozen entries numpy's per-element cost exceeds
    the arithmetic.
    """
    beta = math.sqrt(float(b @ b))
    if beta <= target:
        return np.zeros_like(b)
    if not math.isfinite(beta):
        return None
    V = np.empty((max_iter + 1, b.size))
    Z = np.empty((max_iter, b.size))
    R: list[list[float]] = []  # the rotated Hessenberg columns, upper triangular
    cs: list[float] = []
    sn: list[float] = []
    g = [beta]
    np.divide(b, beta, out=V[0])
    for j in range(max_iter):
        precondition(V[j], Z[j])
        w = V[j + 1]  # orthogonalized and normalized in place
        matvec(Z[j], w)
        basis = V[: j + 1]
        h = basis @ w
        w -= h @ basis
        h2 = basis @ w
        w -= h2 @ basis
        col = (h + h2).tolist()
        hn = math.sqrt(float(w @ w))
        if not math.isfinite(hn):
            return None
        if hn > 0.0:
            w /= hn
        for i in range(j):
            a, c = col[i], col[i + 1]
            col[i] = cs[i] * a + sn[i] * c
            col[i + 1] = cs[i] * c - sn[i] * a
        r = math.hypot(col[j], hn)
        if r == 0.0:
            return None
        cs.append(col[j] / r)
        sn.append(hn / r)
        col[j] = r
        R.append(col)
        g.append(-sn[j] * g[j])
        g[j] *= cs[j]
        if abs(g[j + 1]) <= target:
            k = j + 1
            y = [0.0] * k
            for i in range(k - 1, -1, -1):
                y[i] = (g[i] - sum(R[m][i] * y[m] for m in range(i + 1, k))) / R[i][i]
            x = np.array(y) @ Z[:k]
            ax = V[0]  # the basis is spent
            matvec(x, ax)
            ax -= b
            return x if math.sqrt(float(ax @ ax)) <= target else None
    return None


def linear_solve(
    A: sp.spmatrix,
    b: np.ndarray,
    tol: float,
    border: tuple[np.ndarray, np.ndarray, float] | None = None,
    precondition: Callable[[np.ndarray], np.ndarray] | None = None,
    rtol: float | None = None,
) -> np.ndarray:
    """x with M x = b, for a caller that enforces the sup-norm tolerance
    ``tol`` on the residual this solve corrects; the one place that chooses
    between a caller's preconditioner and an LU.

    M is A or, with ``border = (col, row, corner)``, the bordered matrix
    [[A, col], [row^T, corner]], whose b and x are one entry longer. With a
    ``precondition`` P^-1 (an approximate solve by A), GMRES runs for up to
    ``KRYLOV_MAX_ITER`` iterations, to max(rtol |b|, ``KRYLOV_TOL_SHARE``
    tol), rtol defaulting to ``KRYLOV_RTOL``; on a miss, or without one, A
    is factored by ``factor`` for this call alone and M solved directly. A
    bordered system is preconditioned by the block lower-triangular
    [[P, 0], [row^T, corner]] ([[P, 0], [0, 1]] when corner is 0), one
    application of P^-1 per GMRES iteration and none for ``col``. It is
    solved directly by block elimination (``_block_elimination``) and one
    step of iterative refinement against the bordered residual, which keeps
    it accurate where A is nearly singular, as at a fold. A float64
    ``Stencil`` A writes its products straight into the Krylov basis
    (``Stencil.product_into``). ``gmres`` and ``factor`` are looked up at
    each call. A ``RuntimeError`` propagates when A cannot be factored or
    when the Schur scalar of a direct bordered solve is zero or not finite.
    """
    if isinstance(A, Stencil) and A.dtype == np.float64:
        product = A.product_into
    else:
        def product(v: np.ndarray, out: np.ndarray) -> None:
            np.copyto(out, A @ v)
    if border is None:
        matvec = product
    else:
        col, row, corner = border

        def matvec(x: np.ndarray, out: np.ndarray) -> None:
            # A x first, then x[-1] col added to it: summing A x onto x[-1] col
            # instead rounds differently
            product(x[:-1], out[:-1])
            out[:-1] += x[-1] * col
            out[-1] = row @ x[:-1] + corner * x[-1]

    if precondition is not None:
        if border is None:
            def apply(r: np.ndarray, out: np.ndarray) -> None:
                np.copyto(out, precondition(r))
        else:
            def apply(r: np.ndarray, out: np.ndarray) -> None:
                z = out[:-1]
                np.copyto(z, precondition(r[:-1]))
                out[-1] = (r[-1] - float(row @ z)) / corner if corner else r[-1]

        rtol = KRYLOV_RTOL if rtol is None else rtol
        target = max(rtol * math.sqrt(float(b @ b)), KRYLOV_TOL_SHARE * tol)
        x = gmres(matvec, apply, b, target, KRYLOV_MAX_ITER)
        if x is not None:
            return x
    solve = factor(A).solve
    if border is None:
        return solve(b)
    direct = _block_elimination(solve, col, row, corner)
    x, dx = np.empty_like(b), np.empty_like(b)
    direct(b, x)
    matvec(x, dx)
    direct(b - dx, dx)
    return x + dx


def _block_elimination(
    solve: Callable[[np.ndarray], np.ndarray], col: np.ndarray, row: np.ndarray, corner: float,
) -> Callable[[np.ndarray, np.ndarray], None]:
    """The inverse of [[A, col], [row^T, corner]] from ``solve``, a solve by
    A (Keller's bordering lemma), as ``inverse(r, out)``, which writes into
    ``out``: the last entry follows from the Schur scalar
    corner - row.A^-1 col, the others by one more solve. ``linear_solve``'s
    direct path; its Krylov path needs no solve for ``col``. Raises
    ``RuntimeError`` when that scalar is zero or not finite."""
    w = solve(col)
    schur = corner - float(row @ w)
    if not (math.isfinite(schur) and schur != 0.0):
        raise RuntimeError(f"bordered system: Schur scalar {schur!r}")

    def inverse(r: np.ndarray, out: np.ndarray) -> None:
        v = solve(r[:-1])
        dl = (r[-1] - float(row @ v)) / schur
        np.subtract(v, dl * w, out=out[:-1])
        out[-1] = dl

    return inverse


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


def _grid_lines(spec: GridSpec) -> Iterator[tuple[int, float, np.ndarray, np.ndarray]]:
    """Per axis: its node stride s, its spacing h, and the masks of the nodes
    first and last on their grid line along it. A node j couples to j - s
    unless it is first, and to j + s unless it is last."""
    nodes = np.arange(spec.n_interior)
    for axis, (m, h) in enumerate(zip(spec.interior_shape, spec.spacing)):
        s = math.prod(spec.interior_shape[axis + 1:])
        k = nodes // s % m
        yield s, h, k == 0, k == m - 1


def _sine_products(y: np.ndarray, mats: Sequence[np.ndarray]) -> np.ndarray:
    """y on the index block, a flat vector or an array in C order, times the
    orthonormal DST-I matrix of each axis (``DiscreteOperators.sine_basis``):
    each product moves the first axis last, so d of them restore the order."""
    for Q in mats:
        y = y.reshape(Q.shape[0], -1).T @ Q
    return y


def _sine_eigenvalues(spec: GridSpec) -> np.ndarray:
    """The Laplacian's eigenvalues on the index block; that of the sine mode
    (j_1, ..., j_d) is sum_k (2 - 2 cos(j_k pi / (m_k + 1))) / h_k^2, summed
    here as 4 sin^2(j_k pi / (2 (m_k + 1))) / h_k^2, which keeps the
    smallest ones to full relative precision."""
    per_axis = [4.0 * np.sin(0.5 * np.pi * np.arange(1, m + 1) / (m + 1)) ** 2 / h**2
                for m, h in zip(spec.interior_shape, spec.spacing)]
    return sum(np.meshgrid(*per_axis, indexing="ij", sparse=True))


def _sine_weights(spec: GridSpec) -> np.ndarray:
    """prod_k 2 / (m_k + 1) over the Laplacian's eigenvalues, on the index block."""
    return math.prod(2.0 / (m + 1) for m in spec.interior_shape) / _sine_eigenvalues(spec)


class DiscreteOperators:
    """Assembled Dirichlet operators and quadrature for one GridSpec.

    ``laplacian`` and each ``gradient`` are ``Stencil`` matrices;
    ``linearized`` builds Jacobians on the Laplacian's pattern from them.
    Immutable after construction apart from the eigenvalue arrays that
    ``sine_solve`` and ``sine_basis`` build on their first call; it holds no
    factorization. ``sine_solve`` and ``shifted_sine_solver`` invert the
    full-box Laplacian, shifted for the latter, without an LU.
    """

    def __init__(self, spec: GridSpec):
        self.spec = spec
        grads = []
        for s, h, first, last in _grid_lines(spec):
            off = 1.0 / (2.0 * h)  # central differences; a boundary neighbour is 0
            grads.append(Stencil(np.array([np.where(last, 0.0, -off), np.where(first, 0.0, off)]),
                                 np.array([-s, s])))
        self.laplacian = self.weighted_stiffness(np.ones(spec.n_interior))
        self.gradient: tuple[Stencil, ...] = tuple(grads)
        self.node_weight: float = spec.node_weight
        self._sine_weights = None  # scaled inverse eigenvalues of the Laplacian
        self._sine_basis = None  # per-axis orthonormal DST-I matrices, eigenvalues

    def lap_solver(self) -> SuperLU | TridiagonalLU:
        """A fresh LU factorization of the Laplacian by ``factor``; nothing keeps it."""
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

    def sine_basis(self) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """The orthonormal DST-I matrix of each axis and the full-box Laplacian's
        eigenvalues on the index block, which they diagonalize; built on first use."""
        if self._sine_basis is None:
            mats = []
            for m in self.spec.interior_shape:
                # j k taken mod 2 (m + 1) keeps each sine's argument below 2 pi
                jk = np.outer(np.arange(1, m + 1), np.arange(1, m + 1)) % (2 * m + 2)
                mats.append(math.sqrt(2.0 / (m + 1)) * np.sin(np.pi * jk / (m + 1)))
            self._sine_basis = (tuple(mats), _sine_eigenvalues(self.spec))
        return self._sine_basis

    def shifted_sine_solver(self, shift: float) -> Callable[[np.ndarray], np.ndarray]:
        """The solve b -> x with (L - shift) x = b for the full-box Laplacian L,
        by the matrices of ``sine_basis`` along each axis (fast
        diagonalization, O(m^(d+1)) per solve); ``shift`` must not be an
        eigenvalue of L. 1 / (eig - shift) is formed here, so a solve is the
        2d per-axis products and one scaling."""
        mats, eig = self.sine_basis()
        scale = 1.0 / (eig - shift)
        return lambda b: _sine_products(_sine_products(b, mats).reshape(eig.shape) * scale,
                                        mats).ravel()

    def linearized(self, reaction: np.ndarray, drift: Sequence[np.ndarray]) -> Stencil:
        """The matrix of  v -> L v - reaction v - sum_k drift[k] D_k v.

        Built by diagonals on the Laplacian's pattern: L_ii - reaction_i on
        the main one, L_ij - drift[k]_i (D_k)_ij on axis k's two, each
        rounded once, the values that summing ``sp.diags`` products gives.
        """
        # the offsets run -s_0, ..., -s_(d-1), 0, s_(d-1), ..., s_0, s_k being
        # axis k's node stride, which falls with k
        d = self.spec.dim
        data = self.laplacian.data.copy()
        data[d] -= reaction
        for axis, (D, b) in enumerate(zip(self.gradient, drift)):
            s = D.offsets[1]
            data[2 * d - axis, s:] -= b[:-s] * D.data[1, s:]  # column j, row j - s
            data[axis, :-s] -= b[s:] * D.data[0, :-s]  # column j, row j + s
        return _with_data(self.laplacian, data)

    def check_spec(self, u: GridFunction) -> None:
        if u.spec != self.spec:
            raise GridError("grid function does not live on this operator set's grid")

    def energy_product(self, a: np.ndarray, b: np.ndarray) -> float:
        """Discrete H^1_0 inner product: node_weight * a^T L b."""
        return float(self.node_weight * (a @ (self.laplacian @ b)))

    def weighted_stiffness(self, coeff: np.ndarray) -> Stencil:
        """Stiffness matrix for -div(a grad .) with nodal coefficient a, built
        by diagonals: u^T A u sums a_e (u_p - u_q)^2 / h^2 over the grid's
        edges, u being 0 at a boundary end.

        Edge coefficients are arithmetic means of the adjacent node values;
        boundary edges take the single interior node value. At a = 1 it is
        the Laplacian.
        """
        a = np.asarray(coeff, dtype=float)
        center = 0.0
        diagonals = {}  # offset -> diagonal
        for s, h, first, last in _grid_lines(self.spec):
            mean = 0.5 * (a[:-s] + a[s:])  # of the edge from node j to j + s
            below, above = a.copy(), a.copy()  # the edges to nodes j - s and j + s
            below[s:] = np.where(first[s:], a[s:], mean)
            above[:-s] = np.where(last[:-s], a[:-s], mean)
            center = center + (below + above) / h**2
            # the diagonal +s holds A[j - s, j] and -s holds A[j + s, j]
            diagonals[s] = np.where(first, 0.0, -below / h**2)
            diagonals[-s] = np.where(last, 0.0, -above / h**2)
        diagonals[0] = center
        offsets = np.array(sorted(diagonals))
        return Stencil(np.array([diagonals[k] for k in offsets]), offsets)


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
    low by O(1/n) for fields that do not vanish at the boundary; p = inf
    gives the sup.
    """
    ops.check_spec(u)
    if not p >= 1.0:  # NaN fails too
        raise ValueError(f"p must be >= 1, got {p}")
    w = ops.node_weight
    vals = u.values
    sup = float(np.max(np.abs(vals))) if vals.size else 0.0
    lp = sup if p == math.inf else float((w * np.sum(np.abs(vals) ** p)) ** (1.0 / p))
    h10 = float(np.sqrt(max(ops.energy_product(vals, vals), 0.0)))
    integral = float(w * np.sum(vals))
    return NormReport(lp=lp, sup=sup, h10=h10, integral=integral, p=p)


def poisson_solve(f: GridFunction, ops: DiscreteOperators) -> GridFunction:
    """Solve laplacian * u = f by a direct factorization made for this call."""
    ops.check_spec(f)
    u = ops.lap_solver().solve(f.values)
    return GridFunction(f.spec, u)
