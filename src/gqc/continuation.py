"""Pseudo-arclength continuation of solution branches in (lambda, u).

The branch is parameterized by arclength in the product norm

    ||(dlam, du)||^2 = dlam^2 + ||du||_E^2 / (1 + ||u||_E^2),

whose relative u-scaling keeps steps meaningful while norms grow toward
the cap. The tangent is the secant through the last two points in that
norm. Each corrector starts from the quadratic through the last three
points, a Lagrange polynomial in their arclengths (``_predictor``), or from
the secant where that start is not safe. The corrector and
``locate_fold`` are one bordered Newton (``_bordered_newton``) on the
problem's ``solver.QuasilinearSystem`` in (u, lam), which this module never
writes out, plus one scalar row; it stays regular through folds where plain
parameter continuation degenerates. The corrector's row is the arclength
constraint; the fold's is the minimally augmented system's g(u, lam)
(Griewank & Reddien 1984), from a bordered solve, which vanishes exactly
where the Jacobian is singular.

Termination is one of: the sup norm exceeding ``norm_cap`` (read as the
branch escaping to infinity, with the side classified by the sign of
lambda at the last point), lambda falling below ``lambda_min``, the step
size hitting ``ds_min`` after repeated corrector failures, or the point
budget running out. Every rejected step is recorded with its reason
(``Branch.rejections``).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .grid import DiscreteOperators, GridFunction, linear_solve
from .problem import ProblemData
from .solver import (
    QuasilinearSystem,
    SolveOptions,
    SolveReport,
    SolverError,
    damped_newton,
    newton_quasilinear,
)

# step growth after an accepted step whose corrector took at most 4 iterations
GROW_FACTOR = 1.3
# corrector Newton steps before a step is rejected as corrector_failed
MAX_CORRECTOR = 12
# the corrector's smallest Armijo damping: a step past a fold stops at its first failed
# line search, and near sup u = 4/mu full steps that fail Armijo still converge damped
CORRECTOR_MIN_STEP = 0.125
# the relative Krylov target of a bordered Newton step (``grid.linear_solve``'s
# rtol, against the default ``grid.KRYLOV_RTOL = 1e-9``): the folded family's
# traces take as many Newton steps as at 1e-9 (149 at 48^2, 150 at 128^2, 193
# at 24^3, 108 on 64 cells), with about a fifth fewer GMRES iterations
BORDERED_KRYLOV_RTOL = 1e-6
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


class _Once:
    """``make()`` on the first call, its result after: a point's lazy Jacobian
    or preconditioner, cheaper than ``functools.cache``."""

    __slots__ = ("make", "value")

    def __init__(self, make):
        self.make = make

    def __call__(self):
        if self.make is not None:
            self.value, self.make = self.make(), None
        return self.value


def _bordered_newton(system: QuasilinearSystem, sopts: SolveOptions, x0: np.ndarray, scalar
                     ) -> tuple[np.ndarray, SolveReport]:
    """``damped_newton`` on x = (u, lam) for the system's R(u, lam) = 0 and
    one scalar equation q(u, lam) = 0.

    ``scalar(u, lam, tol, jacobian, precondition)`` returns (q, q_tol,
    gradient), and ``gradient()`` the row and corner (dq/du, dq/dlam) there;
    ``jacobian()`` and ``precondition()`` are the system's at that point,
    each built on its first call. The residual is (R / tol, q / q_tol), tol
    being the equation's tolerance, so the Armijo merit weighs both. A step
    is one ``linear_solve`` of [[J, R_lam], [row^T, corner]], R_lam being
    ``system.d_p``, at the point evaluated last, whose evaluations it reuses,
    to min(tol, q_tol) with the Krylov target ``BORDERED_KRYLOV_RTOL``. The
    system's preconditioner is None on 1-D grids, whose steps are LU solves.
    """
    rhs = np.empty(x0.size)  # a step's right-hand side, -(R, q)
    # R, q, step tolerance, gradient, Jacobian and preconditioner of the last point
    last: list = []

    def residual(x: np.ndarray) -> tuple[np.ndarray, float]:
        u, lam = x[:-1], float(x[-1])
        R, rscale = system.residual(u, lam)
        tol = sopts.tol_residual * (1.0 + rscale)
        jacobian = _Once(lambda: system.jacobian(u, lam))
        precondition = _Once(lambda: system.preconditioner(u, lam))
        q, q_tol, gradient = scalar(u, lam, tol, jacobian, precondition)
        last[:] = R, q, min(tol, q_tol), gradient, jacobian, precondition
        scaled = np.empty_like(rhs)
        np.divide(R, tol, out=scaled[:-1])
        scaled[-1] = q / q_tol
        return scaled, 1.0

    def step(x: np.ndarray, *_) -> np.ndarray:
        R, q, tol, gradient, jacobian, precondition = last
        row, corner = gradient()
        np.negative(R, out=rhs[:-1])
        rhs[-1] = -q
        return linear_solve(jacobian(), rhs, tol,
                            border=(system.d_p(x[:-1], float(x[-1])), row, corner),
                            precondition=precondition(), rtol=BORDERED_KRYLOV_RTOL)

    return damped_newton(x0, residual, step, sopts)


def _predictor(points: list[BranchPoint], ds: float, t_lam: float, t_u: np.ndarray,
               retry: bool, system: QuasilinearSystem) -> np.ndarray:
    """The corrector's start x = (u, lam) for a step of ``ds`` from the last
    point: the quadratic through the last three points, a Lagrange polynomial
    in their arclengths s evaluated at s + ds (Allgower & Georg 1990, ch. 6).

    The secant start base + ds t stays in three cases: fewer than three points
    exist; the last step tried from this base was rejected (``retry``: from
    the quadratic, a retried 16^3 step of the folded family took 5 Newton
    steps to fail its line search, against at most 4 from the secant); or the
    quadratic's u loses central differences' Z-matrix pattern
    (``system.keeps_z_pattern``). Boundary layers form there, and GMRES from
    quadratic starts misses.
    """
    cur = points[-1]
    if not retry and len(points) >= 3:
        a, b = points[-3], points[-2]
        s = cur.s + ds
        weights = ((s - b.s) * (s - cur.s) / ((a.s - b.s) * (a.s - cur.s)),
                   (s - a.s) * (s - cur.s) / ((b.s - a.s) * (b.s - cur.s)),
                   (s - a.s) * (s - b.s) / ((cur.s - a.s) * (cur.s - b.s)))
        u = sum(w * p.u.values for w, p in zip(weights, (a, b, cur)))
        if system.keeps_z_pattern(u):
            return np.append(u, sum(w * p.lam for w, p in zip(weights, (a, b, cur))))
    return np.append(cur.u.values + ds * t_u, cur.lam + ds * t_lam)


def _corrector(system: QuasilinearSystem, opts: ContinuationOptions,
               base_lam: float, base_u: np.ndarray, t_lam: float, t_u: np.ndarray, ds: float,
               start: np.ndarray) -> tuple[np.ndarray, float, int]:
    """``_bordered_newton`` on ``system`` with the arclength constraint, to
    1e-10 (1 + |ds|), from ``start`` = (u, lam), ``_predictor``'s; returns
    (u, lam, Newton steps) or raises ``_Rejected`` (``singular`` when no LU
    could be made, else ``corrector_failed``)."""
    cvec = _arclength_row(system.ops, base_u, t_u)

    def arclength(u: np.ndarray, lam: float, tol: float, *_):
        q = t_lam * (lam - base_lam) + float(cvec @ (u - base_u)) - ds
        return q, 1e-10 * (1.0 + abs(ds)), lambda: (cvec, t_lam)

    sopts = replace(opts.solve, max_newton=MAX_CORRECTOR, min_step=CORRECTOR_MIN_STEP)
    x, report = _bordered_newton(system, sopts, start, arclength)
    if not report.converged:
        raise _Rejected("singular" if report.failure_reason == "singular"
                        else "corrector_failed")
    return x[:-1], float(x[-1]), report.iterations


def _seed_solution(system: QuasilinearSystem, lam: float, sopts: SolveOptions,
                   start: np.ndarray) -> tuple[np.ndarray, int]:
    u, rep = newton_quasilinear(system, start, lam, sopts)
    rep.require(f"seed solve failed at lambda = {lam}")
    return u, rep.iterations


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
    system = QuasilinearSystem.of(problem, ops)

    u0, it0 = _seed_solution(system, lam0, opts.solve, np.zeros(problem.spec.n_interior))
    branch.points.append(_make_point(lam0, u0, 0.0, it0, 0.0, problem, ops))

    # second seed point by a short parameter step
    dlam = min(opts.ds0, 0.1 * (1.0 + abs(lam0)))
    while True:
        try:
            u1, it1 = _seed_solution(system, lam0 + dlam, opts.solve, u0)
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
    retry = False  # the last step tried from cur was rejected
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

        start = _predictor(branch.points, ds, t_lam, t_u, retry, system)
        try:
            u_new, lam_new, iters = _corrector(system, opts, cur.lam, cur.u.values,
                                               t_lam, t_u, ds, start)
            step_norm = _product_norm(lam_new - cur.lam, u_new - cur.u.values,
                                      base_energy_sq, ops)
            if step_norm > MAX_STEP_RATIO * ds:
                # landed too far from the base: likely another branch
                raise _Rejected("step_too_long")
        except _Rejected as exc:
            branch.rejections.append((cur.s, ds, str(exc)))
            retry = True
            ds *= 0.5
            if ds < opts.ds_min:
                branch.termination = "step_floor"
                break
            continue
        branch.points.append(
            _make_point(lam_new, u_new, cur.s + step_norm, iters, ds, problem, ops)
        )
        retry = False
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

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "sup_low": float(np.max(np.abs(self.u_low.values))),
            "sup_high": float(np.max(np.abs(self.u_high.values))),
            "sup_gap": self.sup_gap,
        }


@dataclass
class BranchAnalysis:
    max_lambda: float
    fold_index: int | None
    gamma1: float | None  # None when the eigen solve failed
    gamma1_margin: float | None
    blowup_side: str  # left | right | none
    termination: str

    def to_dict(self) -> dict:
        # the largest sampled lambda is reported as the fold's lambda
        return {**asdict(self), "fold_lambda": self.max_lambda}


def analyze_branch(branch: Branch, gamma1: float | None) -> BranchAnalysis:
    """Summarize a traced branch: its largest lambda, first fold, margin to
    ``gamma1`` and the side on which its norm escaped."""
    if not branch.points:
        raise ValueError("branch is empty")
    max_lambda = branch.max_lambda()
    if branch.termination == "norm_cap":
        side = "right" if branch.points[-1].lam > 0.0 else "left"
    else:
        side = "none"
    return BranchAnalysis(
        max_lambda=max_lambda,
        fold_index=branch.folds[0] if branch.folds else None,
        gamma1=gamma1,
        gamma1_margin=None if gamma1 is None else gamma1 - max_lambda,
        blowup_side=side,
        termination=branch.termination,
    )


def _bracket_and_refine(
    points: list[BranchPoint], lam: float, system: QuasilinearSystem, sopts: SolveOptions,
) -> tuple[GridFunction, SolveReport] | None:
    for a, b in zip(points[:-1], points[1:]):
        lo, hi = min(a.lam, b.lam), max(a.lam, b.lam)
        if lo <= lam <= hi and hi > lo:
            frac = (lam - a.lam) / (b.lam - a.lam)
            start = a.u.values + frac * (b.u.values - a.u.values)
            u, rep = newton_quasilinear(system, start, lam, sopts)
            if rep.converged:
                return GridFunction(a.u.spec, u), rep
    return None


def two_solutions(
    branch: Branch,
    lam: float,
    problem: ProblemData,
    ops: DiscreteOperators,
    opts: ContinuationOptions | None = None,
) -> TwoSolutionPair:
    """The two solutions at ``lam`` on either side of a folded branch.

    The lower and upper sub-branches on either side of the maximal-lambda
    point are searched for segments bracketing ``lam``, and each bracket is
    refined by a fixed-lambda Newton solve (so actual solutions are
    returned, not secant interpolants). Raises ``ValueError`` when the
    branch has no fold or ``lam`` lies outside (0, max lambda), and
    ``SolverError`` when either side cannot be refined.
    """
    if not branch.folds:
        raise ValueError("no fold recorded; two-solution extraction undefined")
    lam = float(lam)
    max_lambda = branch.max_lambda()
    if not (0.0 < lam < max_lambda):
        raise ValueError(
            f"requested lambda {lam} outside (0, {max_lambda}) spanned by the fold"
        )
    i_max = int(np.argmax(branch.lambdas))
    sopts = (opts or ContinuationOptions()).solve
    system = QuasilinearSystem.of(problem, ops)
    lower = _bracket_and_refine(branch.points[: i_max + 1], lam, system, sopts)
    upper = _bracket_and_refine(branch.points[i_max:], lam, system, sopts)
    if lower is None or upper is None:
        raise SolverError(f"could not refine both solutions at lambda = {lam}")
    (u_a, rep_a), (u_b, rep_b) = lower, upper
    if np.max(np.abs(u_a.values)) <= np.max(np.abs(u_b.values)):
        return TwoSolutionPair(lam, u_a, u_b, rep_a, rep_b)
    return TwoSolutionPair(lam, u_b, u_a, rep_b, rep_a)


def locate_fold(
    branch: Branch,
    problem: ProblemData,
    ops: DiscreteOperators,
    opts: ContinuationOptions | None = None,
) -> tuple[float, float]:
    """Locate the branch's first recorded fold by ``_bordered_newton`` on the
    minimally augmented system (Griewank & Reddien 1984) in x = (u, lam),
    from the fold point.

    Its scalar equation is g(u, lam) = 0, where (v, g) solves
    [[J, phi], [phi^T, 0]] (v, g) = (0, 1) and phi is the unit secant from
    the point before the fold to the fold point: g vanishes exactly where J
    is singular, so the fold needs no bracket. g must reach the equation's
    tolerance over 1 + max|L phi|. g's solve takes the point's Jacobian and
    preconditioner, which the step there reuses. A step's row takes one
    adjoint solve (w, .) by J^T (a tridiagonal ``Stencil`` in 1-D, like J)
    with the same border and the transposed preconditioner: (g_u, g_lam) is
    minus the system's ``jacobian_du`` and ``jacobian_dp`` of w and v.

    Returns (fold lambda, its arclength offset along the secant from the
    point before the fold to the fold point); raises ``SolverError`` naming
    Newton's failure reason and residual when it does not converge,
    ``ValueError`` when the branch records no fold or its first fold has no
    point before it, and ``RuntimeError``, as ``linear_solve`` does, when a
    Jacobian for g cannot be factored.
    """
    opts = opts or ContinuationOptions()
    if not branch.folds:
        raise ValueError("branch has no recorded folds")
    i = branch.folds[0]
    if not 1 <= i < len(branch.points):
        raise ValueError("fold index lacks a point before it")
    a, mid = branch.points[i - 1], branch.points[i]
    system = QuasilinearSystem.of(problem, ops)
    du = mid.u.values - a.u.values
    phi = du / np.linalg.norm(du)
    g_scale = 1.0 + float(np.max(np.abs(ops.laplacian @ phi)))
    unit = np.zeros(du.size + 1)
    unit[-1] = 1.0

    def g(u: np.ndarray, lam: float, tol: float, jacobian, precondition):
        J = jacobian()
        vg = linear_solve(J, unit, 0.0, border=(phi, phi, 0.0), precondition=precondition())

        def gradient() -> tuple[np.ndarray, float]:
            w = linear_solve(J.T, unit, 0.0, border=(phi, phi, 0.0),
                             precondition=system.preconditioner(u, lam, transpose=True))[:-1]
            v = vg[:-1]
            return -system.jacobian_du(u, lam, w, v), -system.jacobian_dp(u, lam, w, v)

        return vg[-1], tol / g_scale, gradient

    x, report = _bordered_newton(system, opts.solve, np.append(mid.u.values, mid.lam), g)
    report.require("fold Newton did not converge")
    dl = mid.lam - a.lam
    nrm = _product_norm(dl, du, ops.energy_product(a.u.values, a.u.values), ops)
    lam = float(x[-1])
    sigma = dl / nrm * (lam - a.lam) + float(
        _arclength_row(ops, a.u.values, du / nrm) @ (x[:-1] - a.u.values))
    return lam, sigma
