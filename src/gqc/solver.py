"""Nonlinear solvers for the quadratic-gradient equation with general mu(x).

Every equation handled here is a ``QuasilinearSystem``,

    R(u, p) = L u - p c(x) u - mu(x) |grad u|^2 - h(x) = 0,

with the assembled Dirichlet Laplacian L: the problem's at p = lam, and the
enclosure's bound problems. The system owns the equation (its residual, its
exact Jacobian, its derivative in p, its preconditioner and the second
derivatives a fold needs); every Newton routine, here and in
``continuation``, takes a system, and ``damped_newton`` is the one Newton
loop under all of them.

Convergence is declared on the sup norm of the residual relative to the
magnitude of the equation's terms (near large solutions the gradient term
reaches 1e7 and cancellation floors the absolute residual around 1e-9); the
tolerance enforced is recorded in the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grid import DiscreteOperators, GridFunction, Stencil, grad_sq_values, linear_solve
from .problem import ProblemData


class SolverError(RuntimeError):
    pass


class EnclosureError(SolverError):
    """The computed bounds failed to bracket the solution."""


# Armijo backtracking: a step t is accepted once the residual 2-norm has
# fallen to (1 - ARMIJO_SLOPE * t) times its value, else t *= ARMIJO_SHRINK
ARMIJO_SHRINK = 0.5
ARMIJO_SLOPE = 1e-4
# ``drift_preconditioner``'s shift is capped at this fraction of the Laplacian's
# smallest eigenvalue, below which folds lie close (0.917 of it at 48^2, h = 0.1 sin sin)
SHIFT_CAP = 0.9
# ``drift_preconditioner``'s exponents are raised to at least this, so its
# factors stay within e^+-300 and the vectors GMRES forms from them finite
DRIFT_EXP_FLOOR = -300.0
# ``monotone_enclosure`` refuses a solution below its lower or above its upper
# bound by more than this
ENCLOSURE_SLACK = 1e-8


@dataclass
class SolveOptions:
    tol_residual: float = 1e-10
    max_newton: int = 50
    min_step: float = 1e-8

    def __post_init__(self):
        if not self.tol_residual > 0:
            raise ValueError("tol_residual must be positive")
        if self.max_newton < 1:
            raise ValueError("max_newton must be >= 1")
        if not 0.0 < self.min_step <= 1.0:
            raise ValueError(f"min_step must lie in (0, 1], got {self.min_step}")


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    final_residual: float
    step_history: list[tuple[float, float]] = field(default_factory=list)
    failure_reason: str | None = None
    tolerance_used: float = 0.0

    def to_dict(self) -> dict:
        return {
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "final_residual": float(self.final_residual),
            "failure_reason": self.failure_reason,
            "tolerance_used": float(self.tolerance_used),
            "step_history": [[float(t), float(r)] for t, r in self.step_history],
        }

    def require(self, what: str, error: type[Exception] = SolverError) -> None:
        """Raise ``error`` naming ``what``, the failure reason and the final
        residual unless the solve converged."""
        if not self.converged:
            raise error(f"{what}: {self.failure_reason} (residual {self.final_residual:.3e})")


def residual_with_scale(
    u: np.ndarray, d: np.ndarray, mu: np.ndarray, h: np.ndarray, ops: DiscreteOperators
) -> tuple[np.ndarray, float]:
    """The residual L u - d u - mu |grad u|^2 - h at u and the magnitude of
    those competing terms, to which the residual tolerance is relative."""
    lap_u, du, grad_term = ops.laplacian @ u, d * u, mu * grad_sq_values(u, ops)
    scale = float(np.abs(lap_u).max() + np.abs(du).max() + np.abs(grad_term).max()
                  + np.abs(h).max())
    return lap_u - du - grad_term - h, scale


def quasilinear_jacobian(
    u: np.ndarray, d: np.ndarray, mu: np.ndarray, ops: DiscreteOperators
) -> Stencil:
    return ops.linearized(d, [2.0 * mu * (D @ u) for D in ops.gradient])


class QuasilinearSystem:
    """R(u, p) = L u - p c u - mu |grad u|^2 - h on the grid of ``ops``, for
    nodal c, mu and h; each member forms p c itself.

    ``residual`` is (R, scale), scale being the magnitude of R's terms, to
    which tolerances are relative. ``jacobian`` is dR/du, whose gradient term
    2 diag(mu D_k u) D_k is exact (quadratic local convergence), ``d_p`` is
    dR/dp = -c u and ``preconditioner`` is ``drift_preconditioner`` at p c.
    A fold needs ``jacobian_du(u, p, w, v)``, the gradient in u of
    w.J(u, p) v, and ``jacobian_dp``, its derivative in p. The members call
    ``residual_with_scale``, ``quasilinear_jacobian`` and
    ``drift_preconditioner`` by their module names.
    """

    def __init__(self, ops: DiscreteOperators, c: np.ndarray, mu: np.ndarray, h: np.ndarray):
        self.ops, self.c, self.mu, self.h = ops, c, mu, h

    @classmethod
    def of(cls, problem: ProblemData, ops: DiscreteOperators) -> QuasilinearSystem:
        """The problem's system, whose parameter is lam."""
        return cls(ops, problem.c.values, problem.mu.values, problem.h.values)

    def residual(self, u: np.ndarray, p: float) -> tuple[np.ndarray, float]:
        return residual_with_scale(u, p * self.c, self.mu, self.h, self.ops)

    def jacobian(self, u: np.ndarray, p: float) -> Stencil:
        return quasilinear_jacobian(u, p * self.c, self.mu, self.ops)

    def d_p(self, u: np.ndarray, p: float) -> np.ndarray:
        return -(self.c * u)

    def preconditioner(self, u: np.ndarray, p: float, transpose: bool = False
                       ) -> Callable[[np.ndarray], np.ndarray] | None:
        return drift_preconditioner(self.ops, u, p * self.c, self.mu, self.h, transpose=transpose)

    def jacobian_du(self, u: np.ndarray, p: float, w: np.ndarray, v: np.ndarray) -> np.ndarray:
        return -2.0 * sum(D.T @ (self.mu * w * (D @ v)) for D in self.ops.gradient)

    def jacobian_dp(self, u: np.ndarray, p: float, w: np.ndarray, v: np.ndarray) -> float:
        return -float(w @ (self.c * v))

    def keeps_z_pattern(self, u: np.ndarray) -> bool:
        """Whether J at u keeps central differences' Z-matrix sign pattern: the
        drift 2 mu D_k u has a cell Peclet number max_k |mu D_k u| h_k <= 1."""
        return all(float(np.max(np.abs(self.mu * (D @ u)))) * hk <= 1.0
                   for D, hk in zip(self.ops.gradient, self.ops.spec.spacing))


def damped_newton(
    x0: np.ndarray,
    residual: Callable[[np.ndarray], tuple[np.ndarray, float]],
    step: Callable[[np.ndarray, np.ndarray, float], np.ndarray],
    opts: SolveOptions,
) -> tuple[np.ndarray, SolveReport]:
    """Damped Newton with Armijo backtracking on the residual 2-norm.

    ``residual(x)`` returns the residual at x and the sup-norm tolerance it
    must meet there; ``step(x, R, tol)``, called right after ``residual(x)``,
    returns the Newton step at x. Converged when the residual is within
    tolerance; every other exit returns the last iterate with a failure
    reason: singular (``step`` raised ``RuntimeError``, as a failed LU
    does), diverged, line_search_stall (damped below ``opts.min_step``) or
    max_iter.
    """
    x = np.asarray(x0, dtype=float).copy()
    history: list[tuple[float, float]] = []
    R, tol = residual(x)
    rsup = float(np.max(np.abs(R), initial=0.0))
    if rsup <= tol:
        return x, SolveReport(True, 0, rsup, history, None, tol)

    rnorm = float(np.linalg.norm(R))
    for it in range(1, opts.max_newton + 1):
        try:
            delta = step(x, R, tol)
        except RuntimeError:
            return x, SolveReport(False, it, rsup, history, "singular", tol)
        if not np.all(np.isfinite(delta)):
            return x, SolveReport(False, it, rsup, history, "diverged", tol)
        t = 1.0
        while True:
            x_try = x + t * delta
            R_try, tol_try = residual(x_try)
            rnorm_try = float(np.linalg.norm(R_try))
            if np.isfinite(rnorm_try) and rnorm_try <= (1.0 - ARMIJO_SLOPE * t) * rnorm:
                break
            t *= ARMIJO_SHRINK
            if t < opts.min_step:
                return x, SolveReport(False, it, rsup, history, "line_search_stall", tol)
        x, R, tol, rnorm = x_try, R_try, tol_try, rnorm_try
        rsup = float(np.max(np.abs(R), initial=0.0))
        history.append((t, rnorm))
        if rsup <= tol:
            return x, SolveReport(True, it, rsup, history, None, tol)
        if not np.isfinite(rsup) or rsup > 1e150:
            return x, SolveReport(False, it, rsup, history, "diverged", tol)
    return x, SolveReport(False, opts.max_newton, rsup, history, "max_iter", tol)


def drift_preconditioner(
    ops: DiscreteOperators, u: np.ndarray, d: np.ndarray, mu: np.ndarray, h: np.ndarray,
    transpose: bool = False,
) -> Callable[[np.ndarray], np.ndarray] | None:
    """An approximate inverse of the Jacobian of  L u - d u - mu |grad u|^2 - h
    at u, as a GMRES preconditioner; None on 1-D grids, whose steps are LU solves.

    At a solution u with constant mu the Jacobian is
    e^{-mu u} (L + V) e^{mu u} with V = -d (1 + mu u) - mu h (the identity
    behind the Cole-Hopf transform). The preconditioner is
    r -> e^{-mu u} (L - sigma)^-1 (e^{mu u} r) by
    ``ops.shifted_sine_solver(sigma)``, with sigma the mean of -V capped at
    ``SHIFT_CAP`` times L's smallest eigenvalue, so GMRES is left only V's
    variation, the drift's where mu varies and, off a solution, the
    identity's defect. mu, d and h enter nodewise. The exponent is
    mu u - max(mu u), which leaves the preconditioner unchanged, floored at
    ``DRIFT_EXP_FLOOR``. All of it is formed once per point, so an
    application is the per-axis sine products and two scalings. With
    ``transpose`` it is the exact transpose, r -> e^{mu u} (L - sigma)^-1
    (e^{-mu u} r), for solves by J^T.
    """
    if ops.spec.dim == 1:
        return None
    mu_u = mu * u
    exponent = np.maximum(mu_u - np.max(mu_u), DRIFT_EXP_FLOOR)
    up, down = np.exp(exponent), np.exp(-exponent)
    # the sine eigenvalues rise along every axis: the first is the smallest
    sigma = min(float(np.mean(d * (1.0 + mu_u) + mu * h)),
                SHIFT_CAP * float(ops.sine_basis()[1].flat[0]))
    if transpose:
        up, down = down, up
    solve = ops.shifted_sine_solver(sigma)
    return lambda r: down * solve(up * r)


def newton_at(system, u0: np.ndarray, p: float, opts: SolveOptions,
              precondition: Callable | None = None, floor: Callable | None = None
              ) -> tuple[np.ndarray, SolveReport]:
    """``damped_newton`` on a system's R(u, p) = 0 at fixed p, to
    ``opts.tol_residual`` (1 + scale) plus ``floor(u)`` when given. A step is
    one ``linear_solve`` by ``system.jacobian``, preconditioned by
    ``precondition`` or else by ``system.preconditioner`` at its point."""

    def residual(u: np.ndarray) -> tuple[np.ndarray, float]:
        R, scale = system.residual(u, p)
        tol = opts.tol_residual * (1.0 + scale)
        return R, tol if floor is None else tol + floor(u)

    def step(u: np.ndarray, R: np.ndarray, tol: float) -> np.ndarray:
        return linear_solve(system.jacobian(u, p), -R, tol,
                            precondition=precondition or system.preconditioner(u, p))

    return damped_newton(u0, residual, step, opts)


def newton_quasilinear(
    system: QuasilinearSystem, u0: np.ndarray, p: float, opts: SolveOptions
) -> tuple[np.ndarray, SolveReport]:
    """``newton_at`` on a ``QuasilinearSystem``. 3-D steps take ``ops.sine_solve``:
    the drift preconditioner misses on first steps from noise starts there."""
    ops = system.ops
    return newton_at(system, u0, p, opts, ops.sine_solve if ops.spec.dim == 3 else None)


# ---------------------------------------------------------------------------
# public operations on problems


def residual_P(u: GridFunction, problem: ProblemData, ops: DiscreteOperators) -> GridFunction:
    """Nodewise residual  L u - lam c u - mu |grad u|^2 - h."""
    ops.check_spec(u)
    R, _ = QuasilinearSystem.of(problem, ops).residual(u.values, problem.lam)
    return GridFunction(u.spec, R)


def newton_solve(
    problem: ProblemData,
    u0: GridFunction,
    ops: DiscreteOperators,
    opts: SolveOptions | None = None,
) -> tuple[GridFunction, SolveReport]:
    opts = opts or SolveOptions()
    ops.check_spec(u0)
    vals, report = newton_quasilinear(QuasilinearSystem.of(problem, ops), u0.values, problem.lam,
                                      opts)
    return GridFunction(u0.spec, vals), report


def _solve_auxiliary_bound(
    d: np.ndarray, mu_const: float, h_part: np.ndarray, ops: DiscreteOperators,
    opts: SolveOptions,
) -> np.ndarray:
    """Newton from zero on  L u = d u + mu_const |grad u|^2 + h_part,  the
    bound problem of ``monotone_enclosure`` (d <= 0, h_part >= 0), as the
    system with c = d at p = 1. Raises ``SolverError`` with the failure
    reason when Newton does not converge."""
    system = QuasilinearSystem(ops, d, np.full(h_part.shape, float(mu_const)), h_part)
    u, report = newton_quasilinear(system, np.zeros_like(h_part), 1.0, opts)
    report.require("bound solve failed")
    return u


def monotone_enclosure(
    problem: ProblemData,
    ops: DiscreteOperators,
    opts: SolveOptions | None = None,
) -> tuple[GridFunction, GridFunction, GridFunction, SolveReport]:
    """Bracket a solution between a lower and an upper solution.

    The upper bound solves the problem with mu replaced by sup mu^+ and h
    by h^+; the lower bound is minus the solution of the (sup mu^-, h^-)
    problem. Each bound is one Newton solve from zero. A Newton solve
    from the midpoint then lands between them; the ordering is asserted
    to ``ENCLOSURE_SLACK``.
    """
    opts = opts or SolveOptions()
    d = problem.d_values()
    if float(np.max(d, initial=0.0)) > 0.0:
        raise SolverError("enclosure needs lam * c <= 0 at every node")
    spec = problem.spec
    beta = GridFunction(
        spec, _solve_auxiliary_bound(d, problem.mu_plus_sup, problem.h_plus, ops, opts))
    alpha = GridFunction(
        spec, -_solve_auxiliary_bound(d, problem.mu_minus_sup, problem.h_minus, ops, opts))
    mid = GridFunction(spec, 0.5 * (alpha.values + beta.values))
    u, report = newton_solve(problem, mid, ops, opts)
    if report.converged:
        lower_gap = float(np.min(u.values - alpha.values))
        upper_gap = float(np.min(beta.values - u.values))
        if lower_gap < -ENCLOSURE_SLACK or upper_gap < -ENCLOSURE_SLACK:
            node = int(np.argmin(np.minimum(u.values - alpha.values, beta.values - u.values)))
            raise EnclosureError(
                f"ordering violated at node {node}: "
                f"lower gap {lower_gap:.3e}, upper gap {upper_gap:.3e}"
            )
    return alpha, beta, u, report


def solve_cascade(
    problem: ProblemData,
    ops: DiscreteOperators,
    opts: SolveOptions | None = None,
    u0: GridFunction | None = None,
) -> tuple[GridFunction | None, str | None, list[dict]]:
    """Newton from ``u0`` (zero by default).

    Returns (solution or None, "newton" or None, [the Newton report as a
    dict with "strategy": "newton"]). A ``u0`` on another grid than
    ``ops`` raises ``GridError``.
    """
    start = u0 if u0 is not None else GridFunction.zeros(problem.spec)
    u, rep = newton_solve(problem, start, ops, opts)
    attempts = [{"strategy": "newton", **rep.to_dict()}]
    return (u, "newton", attempts) if rep.converged else (None, None, attempts)


@dataclass
class UniquenessReport:
    lam: float
    k: int
    seed: int
    converged_count: int
    max_pairwise_distance: float
    solutions: list[np.ndarray]
    reports: list[SolveReport]

    def cluster_representatives(self, separation: float = 1e-6) -> list[list[int]]:
        """Greedy sup-norm clustering of the converged solutions."""
        clusters: list[list[int]] = []
        for i, sol in enumerate(self.solutions):
            for members in clusters:
                rep = self.solutions[members[0]]
                if float(np.max(np.abs(sol - rep), initial=0.0)) <= separation:
                    members.append(i)
                    break
            else:
                clusters.append([i])
        return clusters


def _first_mode_shape(problem: ProblemData) -> np.ndarray:
    """Product of half-period sines over the box, normalized to sup 1."""
    pts = problem.spec.interior_points()
    shape = np.ones(problem.spec.n_interior)
    for axis in range(problem.spec.dim):
        lo, hi = problem.spec.bounds[axis]
        shape *= np.sin(np.pi * (pts[:, axis] - lo) / (hi - lo))
    m = float(np.max(np.abs(shape), initial=0.0))
    return shape / m if m > 0 else shape


def multi_start(
    problem: ProblemData,
    k: int,
    seed: int,
    ops: DiscreteOperators,
    opts: SolveOptions | None = None,
) -> UniquenessReport:
    """Newton solves from k seeded starts; evidence for uniqueness or
    multiplicity.

    Two of every three starts are nodewise uniform in [-1, 1] scaled by
    1/(1 + sup|h|); the rest are smooth first-mode ramps reaching a few
    times that amplitude. Pure noise never lands in the basin of large
    smooth solutions (the first damped Newton step smooths it into the
    small-solution basin), so the ramps supply the diversity that makes a
    second solution visible when one exists.
    """
    if k < 2:
        raise ValueError("need at least 2 starts")
    opts = opts or SolveOptions()
    rng = np.random.default_rng(seed)
    amp = 1.0 / (1.0 + float(np.max(np.abs(problem.h.values), initial=0.0)))
    mode = _first_mode_shape(problem)
    n_smooth = max(1, k // 3)
    starts = []
    smooth_idx = 0
    for i in range(k):
        if i % 3 == 2:
            smooth_idx += 1
            t = 4.0 * amp * smooth_idx / n_smooth
            starts.append(GridFunction(problem.spec, t * mode))
        else:
            starts.append(
                GridFunction(problem.spec, amp * rng.uniform(-1.0, 1.0, problem.spec.n_interior))
            )

    results = [newton_solve(problem, u0, ops, opts) for u0 in starts]
    solutions = [u.values for (u, rep) in results if rep.converged]
    reports = [rep for (_, rep) in results]
    max_dist = 0.0
    for i in range(len(solutions)):
        for j in range(i + 1, len(solutions)):
            max_dist = max(max_dist, float(np.max(np.abs(solutions[i] - solutions[j]))))
    return UniquenessReport(
        lam=problem.lam, k=k, seed=seed, converged_count=len(solutions),
        max_pairwise_distance=max_dist, solutions=solutions, reports=reports,
    )
