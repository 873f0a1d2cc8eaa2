"""Pseudo-arclength continuation of solution branches in (lambda, u).

The branch is parameterized by arclength in the product norm

    ||(dlam, du)||^2 = dlam^2 + ||du||_E^2 / (1 + ||u||_E^2),

whose relative u-scaling keeps steps meaningful while norms grow toward
the cap. Predictors are secants in that norm; the corrector is
``solver.damped_newton`` on the bordered system (residual = 0, arclength
constraint = 0), which stays regular through folds where plain parameter
continuation degenerates. Each corrector step is one bordered
``grid.linear_solve``: GMRES preconditioned by ``solver.drift_preconditioner``,
a shifted sine solve conjugated by exp(mu u), on 2-D and 3-D grids, with an
LU for that step alone on a miss; 1-D steps are LU solves.

``locate_fold`` refines a recorded fold by a secant on the lambda
component of the unit tangent, whose root is the fold (Keller 1977): each
iterate is one corrector solve, warm-started along the last tangent, and
one more bordered solve for the tangent there.

Termination is one of: the sup norm exceeding ``norm_cap`` (read as the
branch escaping to infinity, with the side classified by the sign of
lambda at the last point), lambda falling below ``lambda_min``, the step
size hitting ``ds_min`` after repeated corrector failures, or the point
budget running out. Every rejected step is recorded with its reason
(``Branch.rejections``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .grid import DiscreteOperators, GridFunction, linear_solve
from .problem import ProblemData
from .solver import (
    SolveOptions,
    SolveReport,
    SolverError,
    damped_newton,
    drift_preconditioner,
    newton_solve,
    quasilinear_jacobian,
    residual_with_scale,
)

# step growth after an accepted step whose corrector took at most 4 iterations
GROW_FACTOR = 1.3
# corrector Newton steps before a step is rejected as corrector_failed
MAX_CORRECTOR = 12
# the corrector's smallest Armijo damping: a step past a fold stops at its first failed
# line search, and near sup u = 4/mu full steps that fail Armijo still converge damped
CORRECTOR_MIN_STEP = 0.125
# accepted steps must stay within this multiple of ds from the base
# point (product norm); keeps the tracer from tunneling onto another
# branch near sharp turns and asymptotes
MAX_STEP_RATIO = 2.0
# corrector solves before the fold search gives up
FOLD_MAX_CORRECTORS = 40


@dataclass
class ContinuationOptions:
    ds0: float = 0.1
    ds_min: float = 1e-6
    ds_max: float = 0.5
    norm_cap: float = 1e3
    max_points: int = 800
    lambda_min: float = -1e3
    solve: SolveOptions = field(default_factory=SolveOptions)

    def __post_init__(self):
        if not 0 < self.ds_min <= self.ds0 <= self.ds_max:
            raise ValueError("steps must satisfy 0 < ds_min <= ds0 <= ds_max, got "
                             f"{self.ds_min}, {self.ds0}, {self.ds_max}")
        if not self.norm_cap > 0:
            raise ValueError("norm_cap must be positive")
        if not math.isfinite(self.lambda_min):
            raise ValueError("lambda_min must be finite")


@dataclass
class BranchPoint:
    lam: float
    u: GridFunction
    sup_norm: float
    h10_norm: float
    s: float
    newton_iters: int
    ds: float = 0.0  # nominal step that produced this point (0 for seeds)


@dataclass
class Branch:
    """A traced branch.

    ``rejections`` holds one ``(s, ds, reason)`` per rejected step: the
    arclength of the base point, the step tried, and ``corrector_failed``
    (no convergence within ``MAX_CORRECTOR`` Newton steps, or a step damped
    below ``CORRECTOR_MIN_STEP``), ``singular`` (the bordered system could
    not be solved) or ``step_too_long`` (the corrected point lies beyond
    ``MAX_STEP_RATIO * ds``).
    """

    points: list[BranchPoint] = field(default_factory=list)
    folds: list[int] = field(default_factory=list)
    termination: str = ""
    family: str = ""
    rejections: list[tuple[float, float, str]] = field(default_factory=list)

    @property
    def lambdas(self) -> np.ndarray:
        return np.array([p.lam for p in self.points])

    @property
    def sup_norms(self) -> np.ndarray:
        return np.array([p.sup_norm for p in self.points])

    def max_lambda(self) -> float:
        return float(np.max(self.lambdas))


def _product_norm(dlam: float, du: np.ndarray, base_energy_sq: float,
                  ops: DiscreteOperators) -> float:
    e = ops.energy_product(du, du)
    return math.sqrt(dlam * dlam + e / (1.0 + base_energy_sq))


def _make_point(lam: float, uvals: np.ndarray, s: float, iters: int, ds: float,
                problem: ProblemData, ops: DiscreteOperators) -> BranchPoint:
    u = GridFunction(problem.spec, uvals)
    sup = float(np.max(np.abs(uvals), initial=0.0))
    h10 = math.sqrt(max(ops.energy_product(uvals, uvals), 0.0))
    return BranchPoint(lam=float(lam), u=u, sup_norm=sup, h10_norm=h10, s=s,
                       newton_iters=iters, ds=ds)


class _Rejected(Exception):
    """A continuation step failed; the message is the reason."""


def _arclength_row(ops: DiscreteOperators, base_u: np.ndarray, t_u: np.ndarray) -> np.ndarray:
    """The u-part of the arclength constraint's gradient: the product norm's
    inner product with the tangent ``t_u``, taken at the base point."""
    return ops.node_weight / (1.0 + ops.energy_product(base_u, base_u)) * (ops.laplacian @ t_u)


def _bordered_solve(problem: ProblemData, ops: DiscreteOperators, u: np.ndarray, lam: float,
                    cvec: np.ndarray, t_lam: float, rhs: np.ndarray, tol: float) -> np.ndarray:
    """One ``linear_solve`` of [[J, -c u], [cvec^T, t_lam]] at (u, lam): the
    Jacobian bordered by dR/dlam = -c u and the arclength row, preconditioned
    by ``drift_preconditioner`` at that point on 2-D and 3-D grids."""
    c, mu, h = problem.c.values, problem.mu.values, problem.h.values
    return linear_solve(quasilinear_jacobian(u, lam * c, mu, ops), rhs, tol,
                        border=(-(c * u), cvec, t_lam),
                        precondition=drift_preconditioner(ops, u, lam * c, mu, h))


def _corrector(problem: ProblemData, ops: DiscreteOperators, opts: ContinuationOptions,
               base_lam: float, base_u: np.ndarray, t_lam: float, t_u: np.ndarray, ds: float,
               start: np.ndarray | None = None) -> tuple[np.ndarray, float, int]:
    """``damped_newton`` on the bordered system in x = (u, lam) from
    ``start``, by default the secant predictor; returns (u, lam, Newton
    steps) or raises ``_Rejected`` (``singular`` when no LU could be made,
    else ``corrector_failed``).

    The residual is the equation's over its tolerance and the constraint's
    over ``1e-10 (1 + |ds|)``, so both must reach 1 and the Armijo merit
    weighs both. A step is one ``_bordered_solve`` of the raw bordered
    system at the point evaluated last; 1-D grids keep LU steps, as GMRES
    took twice as long on a 64-cell trace.
    """
    c, mu, h = problem.c.values, problem.mu.values, problem.h.values
    cvec = _arclength_row(ops, base_u, t_u)
    constraint_tol = 1e-10 * (1.0 + abs(ds))
    raw: list = []  # the unscaled residual, constraint and tolerance of the last point

    def residual(x: np.ndarray) -> tuple[np.ndarray, float]:
        u, lam = x[:-1], float(x[-1])
        R, rscale = residual_with_scale(u, lam * c, mu, h, ops)
        constraint = t_lam * (lam - base_lam) + float(cvec @ (u - base_u)) - ds
        tol = opts.solve.tol_residual * (1.0 + rscale)
        raw[:] = R, constraint, tol
        return np.append(R / tol, constraint / constraint_tol), 1.0

    def step(x: np.ndarray, *_) -> np.ndarray:
        R, constraint, tol = raw
        return _bordered_solve(problem, ops, x[:-1], float(x[-1]), cvec, t_lam,
                               -np.append(R, constraint), min(tol, constraint_tol))

    x0 = np.append(base_u + ds * t_u, base_lam + ds * t_lam) if start is None else start
    sopts = replace(opts.solve, max_newton=MAX_CORRECTOR, min_step=CORRECTOR_MIN_STEP)
    x, report = damped_newton(x0, residual, step, sopts)
    if not report.converged:
        raise _Rejected("singular" if report.failure_reason == "singular"
                        else "corrector_failed")
    return x[:-1], float(x[-1]), report.iterations


def _seed_solution(problem: ProblemData, lam: float, ops: DiscreteOperators,
                   sopts: SolveOptions, start: np.ndarray | None = None
                   ) -> tuple[np.ndarray, int]:
    u0 = GridFunction(problem.spec, start if start is not None
                      else np.zeros(problem.spec.n_interior))
    u, rep = newton_solve(problem.with_lambda(lam), u0, ops, sopts)
    if not rep.converged:
        raise SolverError(f"seed solve failed at lambda = {lam} (newton: {rep.failure_reason})")
    return u.values, rep.iterations


def trace_branch(
    problem: ProblemData,
    lam0: float,
    ops: DiscreteOperators,
    opts: ContinuationOptions | None = None,
) -> Branch:
    """Trace the branch through (lam0, u_{lam0}) toward increasing lambda.

    ``problem.lam`` is ignored; lambda is the continuation parameter.
    """
    opts = opts or ContinuationOptions()
    branch = Branch(family=f"dim={problem.spec.dim}, n={problem.spec.n}")

    u0, it0 = _seed_solution(problem, lam0, ops, opts.solve)
    branch.points.append(_make_point(lam0, u0, 0.0, it0, 0.0, problem, ops))

    # second seed point by a short parameter step
    dlam = min(opts.ds0, 0.1 * (1.0 + abs(lam0)))
    while True:
        try:
            u1, it1 = _seed_solution(problem, lam0 + dlam, ops, opts.solve, start=u0)
            break
        except SolverError:
            dlam *= 0.5
            if dlam < opts.ds_min:
                branch.termination = "step_floor"
                return branch
    e0 = ops.energy_product(u0, u0)
    s1 = _product_norm(dlam, u1 - u0, e0, ops)
    branch.points.append(_make_point(lam0 + dlam, u1, s1, it1, dlam, problem, ops))

    ds = opts.ds0
    while True:
        prev, cur = branch.points[-2], branch.points[-1]
        if cur.sup_norm > opts.norm_cap:
            branch.termination = "norm_cap"
            break
        if cur.lam < opts.lambda_min:
            branch.termination = "lambda_min"
            break
        if len(branch.points) >= opts.max_points:
            branch.termination = "max_points"
            break

        base_energy_sq = ops.energy_product(cur.u.values, cur.u.values)
        dl = cur.lam - prev.lam
        du = cur.u.values - prev.u.values
        nrm = _product_norm(dl, du, base_energy_sq, ops)
        t_lam, t_u = dl / nrm, du / nrm

        try:
            u_new, lam_new, iters = _corrector(problem, ops, opts, cur.lam, cur.u.values,
                                               t_lam, t_u, ds)
            step_norm = _product_norm(lam_new - cur.lam, u_new - cur.u.values,
                                      base_energy_sq, ops)
            if step_norm > MAX_STEP_RATIO * ds:
                # landed too far from the base: likely another branch
                raise _Rejected("step_too_long")
        except _Rejected as exc:
            branch.rejections.append((cur.s, ds, str(exc)))
            ds *= 0.5
            if ds < opts.ds_min:
                branch.termination = "step_floor"
                break
            continue
        branch.points.append(
            _make_point(lam_new, u_new, cur.s + step_norm, iters, ds, problem, ops)
        )
        n = len(branch.points)
        if n >= 3:
            d1 = branch.points[-1].lam - branch.points[-2].lam
            d0 = branch.points[-2].lam - branch.points[-3].lam
            if d1 * d0 < 0.0:
                branch.folds.append(n - 2)
        if iters <= 4:
            ds = min(ds * GROW_FACTOR, opts.ds_max)
    return branch


@dataclass
class TwoSolutionPair:
    lam: float
    u_low: GridFunction
    u_high: GridFunction
    report_low: SolveReport
    report_high: SolveReport

    @property
    def sup_gap(self) -> float:
        return float(np.max(np.abs(self.u_high.values)) - np.max(np.abs(self.u_low.values)))


@dataclass
class BranchAnalysis:
    max_lambda: float
    fold_lambda: float
    fold_index: int | None
    gamma1: float | None  # None when the eigen solve failed
    gamma1_margin: float | None
    blowup_side: str  # left | right | none
    termination: str
    pair: TwoSolutionPair | None = None

    def to_dict(self) -> dict:
        out = {
            "max_lambda": self.max_lambda,
            "fold_lambda": self.fold_lambda,
            "fold_index": self.fold_index,
            "gamma1": self.gamma1,
            "gamma1_margin": self.gamma1_margin,
            "blowup_side": self.blowup_side,
            "termination": self.termination,
        }
        if self.pair is not None:
            out["two_solutions"] = {
                "lambda": self.pair.lam,
                "sup_low": float(np.max(np.abs(self.pair.u_low.values))),
                "sup_high": float(np.max(np.abs(self.pair.u_high.values))),
                "sup_gap": self.pair.sup_gap,
            }
        return out


def _bracket_and_refine(
    points: list[BranchPoint], lam: float, problem: ProblemData,
    ops: DiscreteOperators, sopts: SolveOptions,
) -> tuple[GridFunction, SolveReport] | None:
    for a, b in zip(points[:-1], points[1:]):
        lo, hi = min(a.lam, b.lam), max(a.lam, b.lam)
        if lo <= lam <= hi and hi > lo:
            frac = (lam - a.lam) / (b.lam - a.lam)
            start = a.u.values + frac * (b.u.values - a.u.values)
            prob = problem.with_lambda(lam)
            u, rep = newton_solve(prob, GridFunction(problem.spec, start), ops, sopts)
            if rep.converged:
                return u, rep
    return None


def analyze_branch(
    branch: Branch,
    gamma1: float | None,
    problem: ProblemData | None = None,
    ops: DiscreteOperators | None = None,
    opts: ContinuationOptions | None = None,
    two_solution_lambda: float | None = None,
) -> BranchAnalysis:
    """Summarize a traced branch; optionally refine a two-solution pair.

    The two-solution extraction needs the fold: the lower and upper
    sub-branches on either side of the maximal-lambda point are searched
    for segments bracketing the requested lambda, and each bracket is
    refined by a fixed-lambda Newton solve (so actual solutions are
    returned, not secant interpolants).
    """
    if not branch.points:
        raise ValueError("branch is empty")
    lams = branch.lambdas
    i_max = int(np.argmax(lams))
    max_lambda = float(lams[i_max])
    final_lam = branch.points[-1].lam
    if branch.termination == "norm_cap":
        side = "right" if final_lam > 0.0 else "left"
    else:
        side = "none"
    analysis = BranchAnalysis(
        max_lambda=max_lambda,
        fold_lambda=max_lambda,
        fold_index=branch.folds[0] if branch.folds else None,
        gamma1=gamma1,
        gamma1_margin=None if gamma1 is None else gamma1 - max_lambda,
        blowup_side=side,
        termination=branch.termination,
    )
    if two_solution_lambda is None:
        return analysis

    if not branch.folds:
        raise ValueError("no fold recorded; two-solution extraction undefined")
    lam = float(two_solution_lambda)
    if not (0.0 < lam < max_lambda):
        raise ValueError(
            f"requested lambda {lam} outside (0, {max_lambda}) spanned by the fold"
        )
    if problem is None or ops is None:
        raise ValueError("two-solution refinement needs the problem and operators")
    sopts = (opts or ContinuationOptions()).solve
    lower = _bracket_and_refine(branch.points[: i_max + 1], lam, problem, ops, sopts)
    upper = _bracket_and_refine(branch.points[i_max:], lam, problem, ops, sopts)
    if lower is None or upper is None:
        raise SolverError(f"could not refine both solutions at lambda = {lam}")
    u_a, rep_a = lower
    u_b, rep_b = upper
    if np.max(np.abs(u_a.values)) <= np.max(np.abs(u_b.values)):
        analysis.pair = TwoSolutionPair(lam, u_a, u_b, rep_a, rep_b)
    else:
        analysis.pair = TwoSolutionPair(lam, u_b, u_a, rep_b, rep_a)
    return analysis


def _parabola_vertex(s0: float, f0: float, s1: float, f1: float, s2: float, f2: float
                     ) -> float:
    """The abscissa of the vertex of the parabola through three points; nan
    when they are collinear."""
    d10, d12 = s1 - s0, s1 - s2
    den = d10 * (f1 - f2) - d12 * (f1 - f0)
    if den == 0.0:
        return math.nan
    return s1 - 0.5 * (d10 * d10 * (f1 - f2) - d12 * d12 * (f1 - f0)) / den


def locate_fold(
    branch: Branch,
    problem: ProblemData,
    ops: DiscreteOperators,
    opts: ContinuationOptions | None = None,
    fold_index: int | None = None,
) -> tuple[float, float]:
    """Refine a recorded fold by a secant on the tangent's lambda component.

    Points near the fold are corrector solutions at an arclength offset
    sigma along the secant from the point before the fold to the fold
    point. At each, one more ``_bordered_solve`` of
    [[J, -c u], [cvec^T, t_lam]] z = (0, ..., 0, 1) gives the tangent
    z = d(u, lam)/dsigma. The fold is the root of g = z_lam / ||z||, the
    lambda component of the unit tangent: it has the root of dlam/dsigma
    but stays within [-1, 1] where the offset turns back past the fold.
    The secant starts from the fold point (a tangent solve, no corrector)
    and the vertex of the parabola through the three recorded points'
    lambdas. It keeps a bracket on which g changes sign and bisects it when
    an iterate leaves it. Each corrector starts from the last corrected
    point moved along its tangent; a rejected one is retried halfway back
    toward that point. The search stops when successive offsets differ by
    at most ``ds_min`` and returns (fold lambda, arclength offset from the
    point before the fold). Raises ``SolverError`` when the corrector is
    rejected within ``ds_min`` of the last corrected point, or after
    ``FOLD_MAX_CORRECTORS`` corrector solves.
    """
    opts = opts or ContinuationOptions()
    if fold_index is None:
        if not branch.folds:
            raise ValueError("branch has no recorded folds")
        fold_index = branch.folds[0]
    if fold_index < 1 or fold_index + 1 >= len(branch.points):
        raise ValueError("fold index lacks bracketing points")
    a = branch.points[fold_index - 1]
    b = branch.points[fold_index + 1]
    mid = branch.points[fold_index]

    base_energy_sq = ops.energy_product(a.u.values, a.u.values)
    dl = mid.lam - a.lam
    du = mid.u.values - a.u.values
    nrm = _product_norm(dl, du, base_energy_sq, ops)
    t_lam, t_u = dl / nrm, du / nrm
    cvec = _arclength_row(ops, a.u.values, t_u)
    unit = np.zeros(du.size + 1)
    unit[-1] = 1.0
    rising = dl > 0.0  # g has this sign before the fold

    def offset(p: BranchPoint) -> float:
        return t_lam * (p.lam - a.lam) + float(cvec @ (p.u.values - a.u.values))

    def tangent(x: np.ndarray) -> np.ndarray:
        return _bordered_solve(problem, ops, x[:-1], float(x[-1]), cvec, t_lam, unit, 0.0)

    def unit_lam(z: np.ndarray) -> float:
        return float(z[-1]) / _product_norm(float(z[-1]), z[:-1], base_energy_sq, ops)

    def narrow(sigma: float, g: float) -> None:
        nonlocal lo, hi
        if (g > 0.0) == rising:
            lo = sigma
        else:
            hi = sigma

    lo, hi = 0.0, offset(b)
    s_prev, x_prev = offset(mid), np.append(mid.u.values, mid.lam)
    sigma = _parabola_vertex(lo, a.lam, s_prev, mid.lam, hi, b.lam)
    z_prev = tangent(x_prev)
    g_prev = unit_lam(z_prev)
    narrow(s_prev, g_prev)
    for _ in range(FOLD_MAX_CORRECTORS):
        if not lo <= sigma <= hi:
            sigma = 0.5 * (lo + hi)
        try:
            u, lam, _ = _corrector(problem, ops, opts, a.lam, a.u.values, t_lam, t_u, sigma,
                                   x_prev + (sigma - s_prev) * z_prev)
            x = np.append(u, lam)
            z = tangent(x)
        except (_Rejected, RuntimeError):
            back = 0.5 * (sigma + s_prev)
            if abs(back - sigma) <= opts.ds_min:
                raise SolverError("corrector rejected at the refined fold, "
                                  f"arclength offset {sigma:.6g}") from None
            sigma = back
            continue
        g = unit_lam(z)
        narrow(sigma, g)
        s_next = sigma - g * (sigma - s_prev) / (g - g_prev) if g != g_prev else math.nan
        if not lo <= s_next <= hi:
            s_next = 0.5 * (lo + hi)
        if abs(s_next - sigma) <= opts.ds_min:
            return lam, sigma
        s_prev, x_prev, z_prev, g_prev, sigma = sigma, x, z, g, s_next
    raise SolverError(f"fold search did not converge in {FOLD_MAX_CORRECTORS} corrector "
                      f"solves, arclength offset {sigma:.6g}")
