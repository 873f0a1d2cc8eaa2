"""Nonlinear solvers for the quadratic-gradient equation with general mu(x).

Every equation handled here has the shape

    L u - d(x) u - mu(x) |grad u|^2 - h(x) = 0

with the assembled Dirichlet Laplacian L: the parameterized problem uses
d = lam * c, and the auxiliary bound problems use d = lam * c with
constant mu. One damped Newton core serves both; the Jacobian linearizes
the quadratic gradient term exactly, 2 * diag(mu * D_i u) * D_i with the
same one-sided boundary stencils, which preserves quadratic local
convergence.

Convergence is declared on the sup norm of the residual relative to the
magnitude of the equation's terms: near large-amplitude solutions the
gradient term reaches 1e7 and float64 cancellation floors the achievable
absolute residual around 1e-9, so a purely absolute tolerance would brand
correct solutions as failures. The effective tolerance actually enforced
is recorded in the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .grid import DiscreteOperators, GridFunction, HeldFactor, grad_sq_values
from .problem import ProblemData


class SolverError(RuntimeError):
    pass


class EnclosureError(SolverError):
    """The computed bounds failed to bracket the solution."""


# Armijo backtracking: a step t is accepted once the residual 2-norm has
# fallen to (1 - ARMIJO_SLOPE * t) times its value, else t *= ARMIJO_SHRINK
ARMIJO_SHRINK = 0.5
ARMIJO_SLOPE = 1e-4


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


def residual_with_scale(
    u: np.ndarray, d: np.ndarray, mu: np.ndarray, h: np.ndarray, ops: DiscreteOperators
) -> tuple[np.ndarray, float]:
    """The residual L u - d u - mu |grad u|^2 - h at u and the magnitude of
    those competing terms, to which the residual tolerance is relative."""
    lap_u, du, grad_term = ops.laplacian @ u, d * u, mu * grad_sq_values(u, ops)
    scale = float(sum(np.max(np.abs(t), initial=0.0) for t in (lap_u, du, grad_term, h)))
    return lap_u - du - grad_term - h, scale


def quasilinear_residual(
    u: np.ndarray, d: np.ndarray, mu: np.ndarray, h: np.ndarray, ops: DiscreteOperators
) -> np.ndarray:
    return residual_with_scale(u, d, mu, h, ops)[0]


def quasilinear_jacobian(
    u: np.ndarray, d: np.ndarray, mu: np.ndarray, ops: DiscreteOperators
) -> sp.csc_matrix:
    return ops.linearized(d, [2.0 * mu * (D @ u) for D in ops.gradient])


def damped_newton(
    x0: np.ndarray,
    residual: Callable[[np.ndarray], tuple[np.ndarray, float]],
    jacobian: Callable[[np.ndarray], sp.spmatrix],
    opts: SolveOptions,
    precondition: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Damped Newton with Armijo backtracking on the residual 2-norm.

    ``residual(x)`` returns the residual at x and the sup-norm tolerance
    it must meet there. Converged when the residual is within tolerance;
    every other exit returns the last iterate with a failure reason
    (diverged, line_search_stall or max_iter). Steps are solved through
    one ``HeldFactor``: GMRES preconditioned by ``precondition`` while no
    LU is held, when one is given, and by the last LU made after that.
    """
    held = HeldFactor(precondition)
    x = np.asarray(x0, dtype=float).copy()
    history: list[tuple[float, float]] = []
    R, tol = residual(x)
    rsup = float(np.max(np.abs(R), initial=0.0))
    if rsup <= tol:
        return x, SolveReport(True, 0, rsup, history, None, tol)

    for it in range(1, opts.max_newton + 1):
        try:
            delta = held.solve(jacobian(x), -R, tol)
        except RuntimeError:
            return x, SolveReport(False, it, rsup, history, "diverged", tol)
        if not np.all(np.isfinite(delta)):
            return x, SolveReport(False, it, rsup, history, "diverged", tol)
        r0 = float(np.linalg.norm(R))
        t = 1.0
        while True:
            x_try = x + t * delta
            R_try, tol_try = residual(x_try)
            if (np.all(np.isfinite(R_try))
                    and float(np.linalg.norm(R_try)) <= (1.0 - ARMIJO_SLOPE * t) * r0):
                break
            t *= ARMIJO_SHRINK
            if t < opts.min_step:
                return x, SolveReport(False, it, rsup, history, "line_search_stall", tol)
        x, R, tol = x_try, R_try, tol_try
        rsup = float(np.max(np.abs(R), initial=0.0))
        history.append((t, float(np.linalg.norm(R))))
        if rsup <= tol:
            return x, SolveReport(True, it, rsup, history, None, tol)
        if not np.isfinite(rsup) or rsup > 1e150:
            return x, SolveReport(False, it, rsup, history, "diverged", tol)
    return x, SolveReport(False, opts.max_newton, rsup, history, "max_iter", tol)


def first_preconditioner(
    ops: DiscreteOperators,
) -> Callable[[np.ndarray], np.ndarray] | None:
    """What preconditions a Newton solve on ``ops`` before it holds an LU:
    ``ops.sine_solve`` on 3-D grids, where an LU is costly; None on 1-D
    and 2-D grids, whose first step is factored and solved directly."""
    return ops.sine_solve if ops.spec.dim == 3 else None


def newton_quasilinear(
    u0: np.ndarray,
    d: np.ndarray,
    mu: np.ndarray,
    h: np.ndarray,
    ops: DiscreteOperators,
    opts: SolveOptions,
) -> tuple[np.ndarray, SolveReport]:
    """``damped_newton`` on  L u - d u - mu |grad u|^2 - h = 0."""

    def residual(u: np.ndarray) -> tuple[np.ndarray, float]:
        R, scale = residual_with_scale(u, d, mu, h, ops)
        return R, opts.tol_residual * (1.0 + scale)

    return damped_newton(
        u0, residual, lambda u: quasilinear_jacobian(u, d, mu, ops), opts,
        first_preconditioner(ops),
    )


# ---------------------------------------------------------------------------
# public operations on problems


def residual_P(u: GridFunction, problem: ProblemData, ops: DiscreteOperators) -> GridFunction:
    """Nodewise residual  L u - lam c u - mu |grad u|^2 - h."""
    ops.check_spec(u)
    vals = quasilinear_residual(
        u.values, problem.d_values(), problem.mu.values, problem.h.values, ops
    )
    return GridFunction(u.spec, vals)


def newton_solve(
    problem: ProblemData,
    u0: GridFunction,
    ops: DiscreteOperators,
    opts: SolveOptions | None = None,
) -> tuple[GridFunction, SolveReport]:
    opts = opts or SolveOptions()
    ops.check_spec(u0)
    vals, report = newton_quasilinear(
        u0.values, problem.d_values(), problem.mu.values, problem.h.values, ops, opts
    )
    return GridFunction(u0.spec, vals), report


def _solve_auxiliary_bound(
    d: np.ndarray, mu_const: float, h_part: np.ndarray, ops: DiscreteOperators,
    opts: SolveOptions,
) -> np.ndarray:
    """Newton from zero on  L u = d u + mu_const |grad u|^2 + h_part,  the
    bound problem of ``monotone_enclosure`` (d <= 0, h_part >= 0). Raises
    ``SolverError`` with the failure reason when Newton does not converge."""
    mu = np.full(h_part.shape, float(mu_const))
    u, report = newton_quasilinear(np.zeros_like(h_part), d, mu, h_part, ops, opts)
    if not report.converged:
        raise SolverError(
            f"bound solve failed: {report.failure_reason} "
            f"(residual {report.final_residual:.3e})"
        )
    return u


def monotone_enclosure(
    problem: ProblemData,
    ops: DiscreteOperators,
    opts: SolveOptions | None = None,
    slack: float = 1e-8,
) -> tuple[GridFunction, GridFunction, GridFunction, SolveReport]:
    """Bracket a solution between a lower and an upper solution.

    The upper bound solves the problem with mu replaced by sup mu^+ and h
    by h^+; the lower bound is minus the solution of the (sup mu^-, h^-)
    problem. Each bound is one Newton solve from zero. A Newton solve
    from the midpoint then lands between them; the ordering is asserted
    to ``slack``.
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
        if lower_gap < -slack or upper_gap < -slack:
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
