"""Pseudo-arclength continuation of solution branches in (lambda, u).

The branch is parameterized by arclength in the product norm

    ||(dlam, du)||^2 = dlam^2 + ||du||_E^2 / (1 + ||u||_E^2),

whose relative u-scaling keeps steps meaningful while norms grow toward
the cap. Predictors are secants in that norm; the corrector is Newton on
the bordered system (residual = 0, arclength constraint = 0), which stays
regular through folds where plain parameter continuation degenerates.
Each Newton step is one ``HeldFactor.solve`` with the Jacobian and its
border, the same held-LU solve that Newton at fixed lambda makes; a trace
holds one ``HeldFactor``, and this module makes no LU of its own.

Termination is one of: the sup norm exceeding ``norm_cap`` (read as the
branch escaping to infinity, with the side classified by the sign of
lambda at the last point), lambda falling below ``lambda_min``, the step
size hitting ``ds_min`` after repeated corrector failures, or the point
budget running out. Every rejected step is recorded with its reason
(``Branch.rejections``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import DiscreteOperators, GridFunction, HeldFactor
from .problem import ProblemData
from .solver import (
    SolveOptions,
    SolveReport,
    SolverError,
    newton_solve,
    quasilinear_jacobian,
    residual_with_scale,
)

# step growth after an accepted step whose corrector took at most 4 iterations
GROW_FACTOR = 1.3
# corrector Newton iterations before a step is rejected as corrector_failed
MAX_CORRECTOR = 12
# accepted steps must stay within this multiple of ds from the base
# point (product norm); keeps the tracer from tunneling onto another
# branch near sharp turns and asymptotes
MAX_STEP_RATIO = 2.0


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
    converged: bool
    ds: float = 0.0  # nominal step that produced this point (0 for seeds)


@dataclass
class Branch:
    """A traced branch.

    ``rejections`` holds one ``(s, ds, reason)`` per rejected step: the
    arclength of the base point, the step tried, and ``corrector_failed``
    (no convergence within ``MAX_CORRECTOR`` iterations), ``singular`` (the
    bordered system could not be solved) or ``step_too_long`` (the corrected
    point lies beyond ``MAX_STEP_RATIO * ds``).
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
                       newton_iters=iters, converged=True, ds=ds)


class _Rejected(Exception):
    """A continuation step failed; the message is the reason."""


def _corrector(
    problem: ProblemData,
    ops: DiscreteOperators,
    opts: ContinuationOptions,
    base_lam: float,
    base_u: np.ndarray,
    t_lam: float,
    t_u: np.ndarray,
    ds: float,
    held: HeldFactor,
) -> tuple[np.ndarray, float, int]:
    """Newton on the bordered system from the secant predictor.

    Returns (u, lam, iterations). Raises ``_Rejected`` with reason
    ``singular`` (no LU of the Jacobian or of the bordered matrix could be
    made) or ``corrector_failed``. Each step is one ``held.solve`` with the
    Jacobian bordered by dR/dlam = -c u and the arclength row; ``held``
    carries the Jacobian LU between steps and calls.
    """
    c = problem.c.values
    mu = problem.mu.values
    h = problem.h.values
    scale = ops.node_weight / (1.0 + ops.energy_product(base_u, base_u))
    cvec = scale * (ops.laplacian @ t_u)
    constraint_tol = 1e-10 * (1.0 + abs(ds))

    lam = base_lam + ds * t_lam
    u = base_u + ds * t_u
    for it in range(1, MAX_CORRECTOR + 1):
        d = lam * c
        R, rscale = residual_with_scale(u, d, mu, h, ops)
        constraint = t_lam * (lam - base_lam) + float(cvec @ (u - base_u)) - ds
        tol = opts.solve.tol_residual * (1.0 + rscale)
        if float(np.max(np.abs(R), initial=0.0)) <= tol and abs(constraint) <= constraint_tol:
            return u, lam, it - 1
        J = quasilinear_jacobian(u, d, mu, ops)
        try:
            delta = held.solve(J, -np.append(R, constraint), min(tol, constraint_tol),
                               border=(-(c * u), cvec, t_lam))
        except RuntimeError:
            raise _Rejected("singular") from None
        if not np.all(np.isfinite(delta)):
            break
        u = u + delta[:-1]
        lam = lam + float(delta[-1])
        if not np.isfinite(lam) or float(np.max(np.abs(u), initial=0.0)) > 1e12:
            break
    raise _Rejected("corrector_failed")


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
    held = HeldFactor()
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
        if nrm == 0.0:
            t_lam, t_u = 1.0, np.zeros_like(du)
        else:
            t_lam, t_u = dl / nrm, du / nrm

        try:
            u_new, lam_new, iters = _corrector(problem, ops, opts, cur.lam, cur.u.values,
                                               t_lam, t_u, ds, held)
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
    gamma1: float
    gamma1_margin: float
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
    gamma1: float,
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
        gamma1_margin=gamma1 - max_lambda,
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


def locate_fold(
    branch: Branch,
    problem: ProblemData,
    ops: DiscreteOperators,
    opts: ContinuationOptions | None = None,
    fold_index: int | None = None,
) -> tuple[float, float]:
    """Refine a recorded fold by golden-section search in arclength.

    Re-solves the bordered system at interior arclength offsets between
    the points bracketing the fold until the search window shrinks below
    ``ds_min``; returns (fold lambda, arclength offset from the left
    bracketing point). Raises ``SolverError`` when the corrector is
    rejected at that final offset.
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
    width = b.s - a.s
    held = HeldFactor()

    def lam_at(sigma: float) -> float:
        try:
            return _corrector(problem, ops, opts, a.lam, a.u.values, t_lam, t_u, sigma,
                              held)[1]
        except _Rejected:
            return -np.inf

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, width
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = lam_at(x1), lam_at(x2)
    while hi - lo > opts.ds_min:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = lam_at(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = lam_at(x2)
    sigma = 0.5 * (lo + hi)
    lam = lam_at(sigma)
    if lam == -np.inf:
        raise SolverError(f"corrector rejected at the refined fold, arclength offset {sigma:.6g}")
    return lam, sigma
