"""Change of variables for constant mu: the semilinear route to a solution.

For constant mu > 0 the substitution  w = (exp(mu u) - 1) / mu  removes the
quadratic gradient term: u solves the quasilinear problem with data
(d, mu, h), d <= 0, h >= 0, exactly when v = w solves

    L v - mu h(x) v = d(x) g(v) + h(x),

with the superlinear nonlinearity

    g(s) = sign(s) * (1/mu) * (1 + mu|s|) * ln(1 + mu|s|),

whose primitive G is even, nonnegative and grows faster than s^2. The
semilinear problem is the Euler-Lagrange equation of

    I(v) = 1/2 int(|grad v|^2 - mu h v^2) - int(d G(v)) - int(h v),

which is coercive and weakly lower semicontinuous when the smallness
condition on mu * h holds, so minimizing I produces a (nonnegative)
solution. The route back is  u = ln(1 + mu v) / mu.

The minimization is an energy-preconditioned descent into the Newton
basin (each step solves with the Laplacian by its sine transform, no LU)
followed by Newton on the Euler-Lagrange system. If roundoff leaves
the minimizer slightly negative, it is replaced by |v| and Newton runs
again. Both Newton runs use the damped core of ``solver`` and raise
``TransformError`` unless they reach a relative residual of 1e-12.

Discrete caveat: central stencils do not commute with the pointwise
change of variables, so the image of the minimizer solves the discrete
quasilinear system only up to O(h^2). ``solve_transformed`` therefore
finishes with a Newton polish of u on that system; the minimization
supplies the basin, the polish lands on the nearby discrete root (the
unique one, in the d <= 0 regime).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .conditions import weighted_rayleigh_sup
from .grid import DiscreteOperators, GridFunction, linear_solve
from .problem import TAU_C_RELATIVE, compute_zero_mask
from .solver import SolveOptions, damped_newton, drift_preconditioner, newton_quasilinear

# the Euler-Lagrange solves keep their own caps, apart from the caller's options
_EL_NEWTON = SolveOptions(max_newton=60, min_step=1e-10)

# cap on the descent steps that bring the minimizer into the Newton basin
DESCENT_MAX_ITER = 2000


class CoercivityError(RuntimeError):
    """Minimization escaped to -infinity: the smallness condition fails."""


class TransformError(RuntimeError):
    pass


@dataclass
class TransformedProblem:
    """Data (d <= 0, constant mu > 0, h >= 0) of the semilinear problem."""

    d_field: GridFunction
    mu: float
    h_field: GridFunction

    def __post_init__(self):
        if self.mu <= 0.0:
            raise ValueError(f"mu must be a positive constant, got {self.mu}")
        if float(np.max(self.d_field.values, initial=0.0)) > 0.0:
            node = int(np.argmax(self.d_field.values))
            raise ValueError(f"d must be <= 0 everywhere; positive at node {node}")
        if float(np.min(self.h_field.values, initial=0.0)) < 0.0:
            node = int(np.argmin(self.h_field.values))
            raise ValueError(f"h must be >= 0 everywhere; negative at node {node}")
        if self.d_field.spec != self.h_field.spec:
            raise ValueError("d and h sampled on different grids")

    @property
    def spec(self):
        return self.d_field.spec


def g_and_G(s, mu: float):
    """The odd nonlinearity g and its even primitive G = int_0^s g.

    Near zero the closed form of G cancels catastrophically, so a series
    (relative error below 1e-17 for mu|s| < 1e-4) takes over there.
    """
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    arr = np.asarray(s, dtype=float)
    t = np.abs(arr)
    m = mu * t
    lg = np.log1p(m)
    g = np.sign(arr) * (1.0 + m) * lg / mu
    G_closed = ((1.0 + m) ** 2 * (2.0 * lg - 1.0) + 1.0) / (4.0 * mu * mu)
    G_series = t * t * (0.5 + mu * t * (1.0 / 6.0 + mu * t * (-1.0 / 24.0 + mu * t / 60.0)))
    G = np.where(m >= 1e-4, G_closed, G_series)
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


def _el_residual(v: np.ndarray, tp: TransformedProblem, ops: DiscreteOperators) -> np.ndarray:
    g, _ = g_and_G(v, tp.mu)
    return (
        ops.laplacian @ v
        - tp.mu * tp.h_field.values * v
        - tp.d_field.values * g
        - tp.h_field.values
    )


def _functional_value(vals: np.ndarray, tp: TransformedProblem, ops: DiscreteOperators) -> float:
    w = ops.node_weight
    h = tp.h_field.values
    _, G = g_and_G(vals, tp.mu)
    quad_part = 0.5 * (ops.energy_product(vals, vals) - tp.mu * w * float(np.sum(h * vals**2)))
    return quad_part - w * float(np.sum(tp.d_field.values * G)) - w * float(np.sum(h * vals))


def functional_I(
    v: GridFunction, tp: TransformedProblem, ops: DiscreteOperators
) -> tuple[float, GridFunction]:
    """Value and discrete gradient of the minimized functional.

    The gradient is node_weight times the Euler-Lagrange residual, so it
    matches finite differences of the value exactly.
    """
    ops.check_spec(v)
    if tp.spec != v.spec:
        raise ValueError("transformed problem lives on a different grid")
    grad = ops.node_weight * _el_residual(v.values, tp, ops)
    return _functional_value(v.values, tp, ops), GridFunction(v.spec, grad)


def _minimize(
    tp: TransformedProblem, ops: DiscreteOperators
) -> np.ndarray:
    """Energy-preconditioned descent into the basin, then Newton on the
    Euler-Lagrange system."""
    w = ops.node_weight
    h = tp.h_field.values
    blow_up = 1e12 * (1.0 + float(np.max(np.abs(h), initial=0.0)))
    v = np.zeros(tp.spec.n_interior)
    val = _functional_value(v, tp, ops)
    coarse_tol = 1e-3 * (1.0 + float(np.max(np.abs(h), initial=0.0)))
    for _ in range(DESCENT_MAX_ITER):
        F = _el_residual(v, tp, ops)
        if float(np.max(np.abs(F), initial=0.0)) <= coarse_tol:
            break
        direction = -ops.sine_solve(F)
        slope = w * float(F @ direction)  # negative along a descent direction
        t = 1.0
        accepted = False
        while t >= 1e-14:
            trial = v + t * direction
            trial_val = _functional_value(trial, tp, ops)
            if np.isfinite(trial_val) and trial_val <= val + 1e-4 * t * slope:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            raise TransformError("descent line search stalled before reaching the basin")
        v, val = trial, trial_val
        if val < -blow_up or float(np.max(np.abs(v))) > 1e10:
            raise CoercivityError(
                "functional unbounded below along the descent: smallness "
                "condition violated / coercivity failure"
            )
    else:
        # the blow-up test never fired, so this is slow descent, not proof
        # that the functional is unbounded below
        raise TransformError(
            f"descent did not reach the Newton basin in {DESCENT_MAX_ITER} steps"
        )
    return _newton_el(v, tp, ops)


def _newton_el(v: np.ndarray, tp: TransformedProblem, ops: DiscreteOperators) -> np.ndarray:
    """Damped Newton on the Euler-Lagrange system, to a relative 1e-12.

    The Jacobian L - (mu h + d g'(v)) has no drift term, so the drift
    preconditioner with mu = h = 0, the shifted sine solve, preconditions
    its steps on 2-D and 3-D grids; 1-D steps are LU solves."""
    h = tp.h_field.values
    h_sup = float(np.max(np.abs(h), initial=0.0))

    def step(x: np.ndarray, R: np.ndarray, tol: float) -> np.ndarray:
        reaction = tp.mu * h + tp.d_field.values * g_prime(x, tp.mu)
        return linear_solve(ops.linearized(reaction, ()), -R, tol,
                            precondition=drift_preconditioner(ops, x, reaction, 0.0, 0.0))

    v, report = damped_newton(
        v,
        lambda x: (_el_residual(x, tp, ops),
                   1e-12 * (1.0 + float(np.max(np.abs(ops.laplacian @ x))) + h_sup)),
        step,
        _EL_NEWTON,
    )
    if not report.converged:
        raise TransformError(
            f"Newton failed on the Euler-Lagrange system: {report.failure_reason} "
            f"(residual {report.final_residual:.3e})"
        )
    return v


def solve_transformed(
    tp: TransformedProblem,
    ops: DiscreteOperators,
    opts: SolveOptions | None = None,
    return_details: bool = False,
):
    """Minimize the functional, map back, and polish on the quasilinear system.

    Returns (v, u): the minimizer of the semilinear functional and the
    corresponding solution of the discrete quasilinear problem. The
    minimizer is checked to be nonnegative (flipped to |v| with a warning
    if roundoff pushed it below -1e-10, mirroring that the infimum is
    attained at a nonnegative field). Warns when the smallness condition
    fails on the zero set of d.
    """
    opts = opts or SolveOptions()
    spec = tp.spec

    d = tp.d_field.values
    mask = compute_zero_mask(d, TAU_C_RELATIVE * float(np.max(np.abs(d), initial=0.0)))
    margin = None
    if mask.any():
        margin = 1.0 - tp.mu * weighted_rayleigh_sup(tp.h_field.values, mask, ops)
        if margin <= 0.0:
            warnings.warn(
                f"smallness condition fails (margin {margin:.3e}); "
                "the functional may be unbounded below",
                RuntimeWarning,
                stacklevel=2,
            )

    try:
        v = _minimize(tp, ops)
    except CoercivityError as exc:
        # a blow-up proves nothing where the condition holds (or d < 0
        # everywhere leaves no zero set): the descent failed, not coercivity
        if margin is not None and margin <= 0.0:
            raise
        held = "d < 0 everywhere" if margin is None else f"margin {margin:.3e}"
        raise TransformError(
            f"descent blew up although the smallness condition holds ({held})"
        ) from exc
    if float(np.min(v, initial=0.0)) < -1e-10:
        warnings.warn(
            f"minimizer dipped to {float(np.min(v)):.3e}; flipping to |v|",
            RuntimeWarning,
            stacklevel=2,
        )
        v = _newton_el(np.abs(v), tp, ops)

    v_fn = GridFunction(spec, v)
    u_raw = cole_hopf(v_fn, tp.mu, "inv")
    mu_arr = np.full(spec.n_interior, tp.mu)
    u_vals, report = newton_quasilinear(
        u_raw.values, tp.d_field.values, mu_arr, tp.h_field.values, ops, opts
    )
    if not report.converged:
        raise TransformError(
            f"quasilinear polish failed: {report.failure_reason} "
            f"(residual {report.final_residual:.3e})"
        )
    u_fn = GridFunction(spec, u_vals)
    if return_details:
        el_sup = float(np.max(np.abs(_el_residual(v, tp, ops)), initial=0.0))
        details = {
            "u_raw": u_raw,
            "el_residual_sup": el_sup,
            "polish_report": report,
            "polish_shift_sup": float(np.max(np.abs(u_vals - u_raw.values), initial=0.0)),
        }
        return v_fn, u_fn, details
    return v_fn, u_fn

