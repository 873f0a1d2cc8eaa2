"""Independent brute-force verifiers for the main code paths.

These exist for provenance, not performance: they share only the grid
primitives (stencil matrices, quadrature) with the modules they check and
rebuild everything else from scratch - the reference tracer has its own
plain Newton loop, the eigenvalue reference uses a dense full-spectrum
factorization, the functional gradient is checked against central finite
differences. Oracle disagreement is a test failure, never auto-corrected.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .continuation import Branch, BranchPoint
from .grid import DiscreteOperators, GridFunction
from .problem import ProblemData
from .transform import functional_I

DENSE_EIGEN_MAX_NODES = 256


def manufactured_h(
    u_star: GridFunction, problem: ProblemData, ops: DiscreteOperators
) -> GridFunction:
    """Forcing that makes ``u_star`` an exact discrete solution.

    Inverts the equation with the same stencils: h := L u* - lam c u* -
    mu |grad u*|^2, so the residual of u* vanishes to machine precision
    on this grid. ``problem.h`` is ignored.

    The samples must be compatible with the zero boundary value: cubic
    extrapolation from the three nodes nearest each face must land near 0,
    otherwise u* is not the trace of a smooth field vanishing on the
    boundary and convergence studies against it are meaningless.
    """
    ops.check_spec(u_star)
    _check_boundary_compatible(u_star)
    grad2 = np.zeros(u_star.spec.n_interior)
    for D in ops.gradient:
        g = D @ u_star.values
        grad2 += g * g
    h = (
        ops.laplacian @ u_star.values
        - problem.lam * problem.c.values * u_star.values
        - problem.mu.values * grad2
    )
    return GridFunction(u_star.spec, h)


def _check_boundary_compatible(u: GridFunction, rel_tol: float = 0.2) -> None:
    vals = u.reshaped()
    sup = float(np.max(np.abs(vals), initial=0.0))
    if sup == 0.0:
        return
    for axis in range(u.spec.dim):
        m = u.spec.interior_shape[axis]
        if m < 3:
            continue
        arr = np.moveaxis(vals, axis, 0)
        for side, (i1, i2, i3) in (("low", (0, 1, 2)), ("high", (m - 1, m - 2, m - 3))):
            extrap = 3.0 * arr[i1] - 3.0 * arr[i2] + arr[i3]
            worst = float(np.max(np.abs(extrap)))
            if worst > rel_tol * sup + 1e-9:
                raise ValueError(
                    f"u* incompatible with the zero boundary value on axis {axis} "
                    f"({side} side): extrapolated trace {worst:.3g} vs sup {sup:.3g}"
                )


def dense_eigen_oracle(c: GridFunction, ops: DiscreteOperators) -> float:
    """Smallest weighted eigenvalue by dense full-spectrum factorization.

    Solves the flipped pencil  diag(c) x = nu L x  with scipy's dense
    generalized symmetric solver (L is positive definite even when c
    vanishes somewhere) and returns 1/max(nu). Refuses grids with more
    than 256 interior nodes.
    """
    ops.check_spec(c)
    n = c.spec.n_interior
    if n > DENSE_EIGEN_MAX_NODES:
        raise ValueError(f"dense reference limited to {DENSE_EIGEN_MAX_NODES} nodes, got {n}")
    if np.max(c.values, initial=0.0) <= 0.0:
        raise ValueError("weight c must be positive somewhere")
    C = np.diag(c.values)
    L = ops.laplacian.toarray()
    nus = scipy.linalg.eigh(C, L, eigvals_only=True)
    nu_max = float(np.max(nus))
    if nu_max <= 0.0:
        raise ValueError("no positive eigenvalue found")
    return 1.0 / nu_max


def fd_gradient_check(
    problem: ProblemData,
    v: GridFunction,
    ops: DiscreteOperators,
    n_directions: int = 10,
    eps: float = 1e-5,
    seed: int = 0,
) -> float:
    """Max relative error of the functional gradient against central
    finite differences along seeded random directions."""
    for m in v.spec.interior_shape:
        if m > 16:
            raise ValueError("finite-difference check limited to 16 nodes per axis")
    rng = np.random.default_rng(seed)
    value, grad = functional_I(v, problem, ops)
    worst = 0.0
    for _ in range(n_directions):
        e = rng.uniform(-1.0, 1.0, v.spec.n_interior)
        e /= np.linalg.norm(e)
        vp = GridFunction(v.spec, v.values + eps * e)
        vm = GridFunction(v.spec, v.values - eps * e)
        fd = (functional_I(vp, problem, ops)[0] - functional_I(vm, problem, ops)[0]) / (2.0 * eps)
        dot = float(grad.values @ e)
        denom = max(abs(fd), abs(dot), 1e-14)
        worst = max(worst, abs(fd - dot) / denom)
    return worst


# ---------------------------------------------------------------------------
# reference continuation, independent of the bordered-system tracer


def _reference_residual(u: np.ndarray, lam: float, problem: ProblemData,
                        ops: DiscreteOperators) -> np.ndarray:
    grad2 = np.zeros_like(u)
    for D in ops.gradient:
        g = D @ u
        grad2 += g * g
    return (ops.laplacian @ u - lam * problem.c.values * u
            - problem.mu.values * grad2 - problem.h.values)


def _reference_jacobian(u: np.ndarray, lam: float, problem: ProblemData,
                        ops: DiscreteOperators) -> sp.csc_matrix:
    J = ops.laplacian - sp.diags(lam * problem.c.values)
    for D in ops.gradient:
        J = J - sp.diags(2.0 * problem.mu.values * (D @ u)) @ D
    return J.tocsc()


def _plain_newton(u: np.ndarray, lam: float, problem: ProblemData,
                  ops: DiscreteOperators, max_iter: int = 30) -> np.ndarray | None:
    """Undamped Newton; success means a small relative residual."""
    h_sup = float(np.max(np.abs(problem.h.values), initial=0.0))
    for _ in range(max_iter):
        R = _reference_residual(u, lam, problem, ops)
        scale = 1.0 + h_sup + float(np.max(np.abs(ops.laplacian @ u), initial=0.0))
        if float(np.max(np.abs(R), initial=0.0)) <= 1e-9 * scale:
            return u
        try:
            du = spla.splu(_reference_jacobian(u, lam, problem, ops)).solve(-R)
        except RuntimeError:
            return None
        if not np.all(np.isfinite(du)):
            return None
        u = u + du
        if float(np.max(np.abs(u), initial=0.0)) > 1e9:
            return None
    R = _reference_residual(u, lam, problem, ops)
    scale = 1.0 + h_sup + float(np.max(np.abs(ops.laplacian @ u), initial=0.0))
    if float(np.max(np.abs(R), initial=0.0)) <= 1e-9 * scale:
        return u
    return None


def _pinned_newton(u: np.ndarray, lam: float, pin: int, target: float,
                   problem: ProblemData, ops: DiscreteOperators,
                   max_iter: int = 40) -> tuple[np.ndarray, float] | None:
    """Newton on (residual = 0, u[pin] = target) with lambda unknown."""
    n = u.size
    h_sup = float(np.max(np.abs(problem.h.values), initial=0.0))
    for _ in range(max_iter):
        R = _reference_residual(u, lam, problem, ops)
        pin_res = u[pin] - target
        scale = 1.0 + h_sup + float(np.max(np.abs(ops.laplacian @ u), initial=0.0))
        if float(np.max(np.abs(R), initial=0.0)) <= 1e-9 * scale and abs(pin_res) <= 1e-12 * (
            1.0 + abs(target)
        ):
            return u, lam
        J = _reference_jacobian(u, lam, problem, ops)
        dR_dlam = -(problem.c.values * u)
        row = np.zeros(n)
        row[pin] = 1.0
        bordered = sp.bmat(
            [[J, dR_dlam[:, None]], [sp.csr_matrix(row[None, :]), None]], format="csc"
        )
        rhs = -np.concatenate([R, [pin_res]])
        try:
            delta = spla.splu(bordered).solve(rhs)
        except RuntimeError:
            return None
        if not np.all(np.isfinite(delta)):
            return None
        u = u + delta[:-1]
        lam = lam + float(delta[-1])
    return None


def reference_continuation(
    problem: ProblemData,
    lam0: float,
    ops: DiscreteOperators,
    dlam: float = 0.05,
    norm_cap: float = 1e3,
    lam_stop: float | None = None,
    max_steps: int = 5000,
) -> Branch:
    """Coarse reference branch, independent of the arclength tracer.

    Phase 1 marches lambda with a fixed step and warm-started plain
    Newton, bisecting the step when a solve fails (the accumulation point
    approximates a fold). If a fold stopped the march, phase 2 continues
    past it by pinning the peak node value and treating lambda as the
    unknown, which walks the upper sub-branch as the peak height grows.
    """
    branch = Branch(family="reference")

    def push(lam: float, u: np.ndarray) -> None:
        sup = float(np.max(np.abs(u), initial=0.0))
        h10 = math.sqrt(max(ops.energy_product(u, u), 0.0))
        s = 0.0
        if branch.points:
            prev = branch.points[-1]
            s = prev.s + math.hypot(lam - prev.lam, sup - prev.sup_norm)
        branch.points.append(
            BranchPoint(lam=float(lam), u=GridFunction(problem.spec, u.copy()),
                        sup_norm=sup, h10_norm=h10, s=s, newton_iters=0)
        )

    u = _plain_newton(np.zeros(problem.spec.n_interior), lam0, problem, ops)
    if u is None:
        raise RuntimeError(f"reference seed failed at lambda = {lam0}")
    push(lam0, u)

    # phase 1: fixed-step parameter march
    lam = lam0
    step = dlam
    fold_suspected = False
    for _ in range(max_steps):
        if lam_stop is not None and lam >= lam_stop:
            branch.termination = "lam_stop"
            break
        if branch.points[-1].sup_norm > norm_cap:
            branch.termination = "norm_cap"
            break
        nxt = _plain_newton(u.copy(), lam + step, problem, ops)
        if nxt is None:
            step *= 0.5
            if step < 1e-4 * dlam:
                fold_suspected = True
                break
            continue
        lam += step
        u = nxt
        push(lam, u)
        step = min(step * 1.3, dlam)
    else:
        branch.termination = "max_steps"

    if not fold_suspected:
        if not branch.termination:
            branch.termination = "max_steps"
        return branch

    # phase 2: pinned-peak-height stepping through the fold
    pin = int(np.argmax(np.abs(u)))
    target = abs(u[pin])
    lam_cur = lam
    u_cur = u.copy()
    growth = 1.05
    for _ in range(max_steps):
        target *= growth
        res = _pinned_newton(u_cur.copy(), lam_cur, pin, math.copysign(target, u_cur[pin]),
                             problem, ops)
        if res is None:
            growth = 1.0 + 0.5 * (growth - 1.0)
            if growth - 1.0 < 1e-4:
                branch.termination = "pinned_stall"
                return branch
            target /= growth
            continue
        u_cur, lam_cur = res
        push(lam_cur, u_cur)
        if float(np.max(np.abs(u_cur))) > norm_cap:
            branch.termination = "norm_cap"
            return branch
        if lam_cur <= 1e-4:
            branch.termination = "lambda_floor"
            return branch
    branch.termination = "max_steps"
    return branch
