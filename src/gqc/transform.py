"""Change of variables for constant mu: the semilinear route to a solution.

For a problem with profile A3 (mu a positive constant, d = lam c <= 0,
h >= 0) the substitution  w = (exp(mu u) - 1) / mu  removes the quadratic
gradient term: u solves the quasilinear problem exactly when v = w solves

    L v - mu h(x) v = d(x) g(v) + h(x),

with the superlinear nonlinearity

    g(s) = sign(s) * (1/mu) * (1 + mu|s|) * ln(1 + mu|s|),

whose primitive G is even, nonnegative and grows faster than s^2. The
semilinear problem is the Euler-Lagrange equation of

    I(v) = 1/2 int(|grad v|^2 - mu h v^2) - int(d G(v)) - int(h v),

which is coercive and weakly lower semicontinuous exactly when the
smallness condition H holds on the zero set of d, so minimizing I
produces a (nonnegative) solution. The route back is
u = ln(1 + mu v) / mu.

``solve_transformed`` decides coercivity once, by the margin of
``check_conditions(problem, ["H"])``: where it is not positive it raises
``CoercivityError`` before any descent step. The minimization is an
energy-preconditioned descent into the Newton basin (each step solves
with the Laplacian by its sine transform, no LU) followed by
``solver.newton_at`` on the ``EulerLagrangeSystem``, again on |v| if
roundoff leaves the minimizer slightly negative. A failed Newton run, and
a descent that blows up or runs out of steps, raise ``TransformError``.

Discrete caveat: central stencils do not commute with the pointwise
change of variables, so the image of the minimizer solves the discrete
quasilinear system only up to O(h^2). ``solve_transformed`` therefore
finishes with a Newton polish of u on that system; the minimization
supplies the basin, the polish lands on the nearby discrete root (the
unique one, in the d <= 0 regime).
"""

from __future__ import annotations

import dataclasses
import warnings
from typing import Callable

import numpy as np

from .conditions import check_conditions
from .grid import DiscreteOperators, GridFunction, Stencil
from .problem import ProblemData, validate_profile
from .solver import SolveOptions, drift_preconditioner, newton_at, newton_solve

# the Euler-Lagrange solves keep their own tolerance and caps, apart from the
# caller's options
_EL_NEWTON = SolveOptions(tol_residual=1e-12, max_newton=60, min_step=1e-10)

# cap on the descent steps that bring the minimizer into the Newton basin
DESCENT_MAX_ITER = 2000


class CoercivityError(RuntimeError):
    """The smallness condition H fails: the functional is not coercive."""


class TransformError(RuntimeError):
    pass


def g_and_G(s, mu: float):
    """The odd nonlinearity g and its even primitive G = int_0^s g.

    Near zero the closed form of G cancels catastrophically, so a series
    (relative error below 1e-17 for mu|s| < 1e-4) takes over there. Each
    form is evaluated only on its own entries: the series would overflow
    where |s| is large.
    """
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    arr = np.asarray(s, dtype=float)
    t = np.abs(arr)
    m = mu * t
    lg = np.log1p(m)
    g = np.sign(arr) * (1.0 + m) * lg / mu
    G = np.empty_like(t)
    closed = m >= 1e-4
    mc, lc = m[closed], lg[closed]
    G[closed] = ((1.0 + mc) ** 2 * (2.0 * lc - 1.0) + 1.0) / (4.0 * mu * mu)
    ts = t[~closed]
    G[~closed] = ts * ts * (0.5 + mu * ts * (1.0 / 6.0 + mu * ts * (-1.0 / 24.0 + mu * ts / 60.0)))
    if np.isscalar(s) or arr.ndim == 0:
        return float(g), float(G)
    return g, G


def g_prime(s, mu: float):
    """Derivative of g: ln(1 + mu|s|) + 1, an even function."""
    arr = np.asarray(s, dtype=float)
    out = np.log1p(mu * np.abs(arr)) + 1.0
    if np.isscalar(s) or arr.ndim == 0:
        return float(out)
    return out


def cole_hopf(field: GridFunction, mu: float, direction: str) -> GridFunction:
    """Pointwise change of variables.

    ``fwd`` maps u to w = (exp(mu u) - 1)/mu; ``inv`` maps v back through
    u = ln(1 + mu v)/mu and requires 1 + mu v > 0 at every node.
    """
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    if direction == "fwd":
        vals = np.expm1(mu * field.values) / mu
        return GridFunction(field.spec, vals)
    if direction == "inv":
        arg = 1.0 + mu * field.values
        bad = np.flatnonzero(arg <= 0.0)
        if bad.size:
            node = int(bad[0])
            raise TransformError(
                f"inverse transform undefined: 1 + mu*v = {arg[node]:.6g} at node {node}"
            )
        return GridFunction(field.spec, np.log1p(mu * field.values) / mu)
    raise ValueError(f"direction must be 'fwd' or 'inv', got {direction!r}")


class EulerLagrangeSystem:
    """R(v, p) = L v - mu h v - p c g(v) - h on the grid of ``ops``, mu a
    positive constant: the Euler-Lagrange system of ``functional``, I at
    d = p c, whose gradient is node_weight R.

    ``residual`` is (R, max|L v| + sup|h|). ``jacobian``, L - (mu h + p c
    g'(v)), has no drift term, so ``preconditioner`` is the shifted sine
    solve, ``drift_preconditioner`` with that reaction and mu = h = 0.
    ``roundoff_floor(v)`` = eps max(|L| |v|) is the rounding floor of L v.
    """

    def __init__(self, ops: DiscreteOperators, c: np.ndarray, mu: float, h: np.ndarray):
        self.ops, self.c, self.mu, self.h = ops, c, mu, h
        self.h_sup = float(np.max(np.abs(h), initial=0.0))
        self._abs_lap = abs(ops.laplacian)

    def residual(self, v: np.ndarray, p: float) -> tuple[np.ndarray, float]:
        lap_v = self.ops.laplacian @ v
        g, _ = g_and_G(v, self.mu)
        return (lap_v - self.mu * self.h * v - p * self.c * g - self.h,
                float(np.max(np.abs(lap_v), initial=0.0)) + self.h_sup)

    def _reaction(self, v: np.ndarray, p: float) -> np.ndarray:
        return self.mu * self.h + p * self.c * g_prime(v, self.mu)

    def jacobian(self, v: np.ndarray, p: float) -> Stencil:
        return self.ops.linearized(self._reaction(v, p), ())

    def preconditioner(self, v: np.ndarray, p: float) -> Callable[[np.ndarray], np.ndarray] | None:
        return drift_preconditioner(self.ops, v, self._reaction(v, p), 0.0, 0.0)

    def roundoff_floor(self, v: np.ndarray) -> float:
        return np.finfo(float).eps * float(np.max(self._abs_lap @ np.abs(v)))

    def functional(self, v: np.ndarray, p: float) -> float:
        ops, w = self.ops, self.ops.node_weight
        _, G = g_and_G(v, self.mu)
        quad_part = 0.5 * (ops.energy_product(v, v) - self.mu * w * float(np.sum(self.h * v**2)))
        return quad_part - w * float(np.sum(p * self.c * G)) - w * float(np.sum(self.h * v))


def _semilinear_system(problem: ProblemData, ops: DiscreteOperators) -> EulerLagrangeSystem:
    """The semilinear problem's system, whose parameter is lam, after checking
    profile A3's clauses; a failure raises ValueError naming the first failed
    clause."""
    failures = validate_profile(dataclasses.replace(problem, profile="A3")).failures()
    if failures:
        bad = failures[0]
        where = "" if bad.witness_node is None else f" at node {bad.witness_node}"
        detail = f" ({bad.detail})" if bad.detail else ""
        raise ValueError(f"the transform route needs profile A3: "
                         f"{bad.clause!r} fails{where}{detail}")
    return EulerLagrangeSystem(ops, problem.c.values, problem.mu_max, problem.h.values)


def functional_I(
    v: GridFunction, problem: ProblemData, ops: DiscreteOperators
) -> tuple[float, GridFunction]:
    """Value and discrete gradient of the minimized functional.

    The gradient is node_weight times the Euler-Lagrange residual, so it
    matches finite differences of the value exactly.
    """
    ops.check_spec(v)
    if problem.spec != v.spec:
        raise ValueError("problem lives on a different grid")
    system = _semilinear_system(problem, ops)
    R, _ = system.residual(v.values, problem.lam)
    return system.functional(v.values, problem.lam), GridFunction(v.spec, ops.node_weight * R)


def _minimize(system: EulerLagrangeSystem, lam: float, held: str) -> np.ndarray:
    """Energy-preconditioned descent into the basin, then Newton on the
    Euler-Lagrange system at p = lam. ``held`` says why the functional is
    coercive; a blow-up names it, as the failure is the descent's."""
    w = system.ops.node_weight
    blow_up = 1e12 * (1.0 + system.h_sup)
    v = np.zeros(system.c.size)
    val = system.functional(v, lam)
    coarse_tol = 1e-3 * (1.0 + system.h_sup)
    for _ in range(DESCENT_MAX_ITER):
        F, _ = system.residual(v, lam)
        if float(np.max(np.abs(F), initial=0.0)) <= coarse_tol:
            break
        direction = -system.ops.sine_solve(F)
        slope = w * float(F @ direction)  # negative along a descent direction
        t = 1.0
        accepted = False
        while t >= 1e-14:
            trial = v + t * direction
            trial_val = system.functional(trial, lam)
            if np.isfinite(trial_val) and trial_val <= val + 1e-4 * t * slope:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            raise TransformError("descent line search stalled before reaching the basin")
        v, val = trial, trial_val
        if val < -blow_up or float(np.max(np.abs(v))) > 1e10:
            raise TransformError(
                f"descent blew up although the smallness condition holds ({held})"
            )
    else:
        raise TransformError(
            f"descent did not reach the Newton basin in {DESCENT_MAX_ITER} steps"
        )
    return _newton_el(system, v, lam)


def _newton_el(system: EulerLagrangeSystem, v: np.ndarray, lam: float) -> np.ndarray:
    """``newton_at`` on the Euler-Lagrange system at p = lam, to a relative
    1e-12 plus ``system.roundoff_floor``, which passes it near 512 cells in 1-D."""
    v, report = newton_at(system, v, lam, _EL_NEWTON, floor=system.roundoff_floor)
    report.require("Newton failed on the Euler-Lagrange system", TransformError)
    return v


def solve_transformed(
    problem: ProblemData,
    ops: DiscreteOperators,
    opts: SolveOptions | None = None,
) -> tuple[GridFunction, GridFunction]:
    """Minimize the functional, map back, and polish on the quasilinear system.

    ``problem`` must satisfy profile A3's clauses (whatever profile it
    declares); otherwise ValueError names the first failed clause. Raises
    ``CoercivityError``, before any descent step, where the smallness
    condition H fails (margin ``check_conditions(problem, ["H"], ops)`` at
    most 0), and ``TransformError`` where a step of the route fails.

    Returns (v, u): the minimizer of the semilinear functional and the
    corresponding solution of the discrete quasilinear problem, which the
    polish moves O(h^2) away from ``cole_hopf(v, mu, "inv")``. The
    minimizer is checked to be nonnegative (flipped to |v| with a warning
    if roundoff pushed it below -1e-10, mirroring that the infimum is
    attained at a nonnegative field).
    """
    opts = opts or SolveOptions()
    system = _semilinear_system(problem, ops)
    smallness = check_conditions(problem, ["H"], ops)[0]
    margin = smallness.infimum_estimate
    if not smallness.holds:
        raise CoercivityError(
            f"smallness condition fails on the zero set of lam c (margin {margin:.3e}): "
            "no coercivity, the functional may be unbounded below"
        )
    held = f"margin {margin:.3e}" if problem.d_zero_mask.any() else "d < 0 everywhere"

    v = _minimize(system, problem.lam, held)
    if float(np.min(v, initial=0.0)) < -1e-10:
        warnings.warn(
            f"minimizer dipped to {float(np.min(v)):.3e}; flipping to |v|",
            RuntimeWarning,
            stacklevel=2,
        )
        v = _newton_el(system, np.abs(v), problem.lam)

    v_fn = GridFunction(problem.spec, v)
    u_fn, report = newton_solve(problem, cole_hopf(v_fn, system.mu, "inv"), ops, opts)
    report.require("quasilinear polish failed", TransformError)
    return v_fn, u_fn
