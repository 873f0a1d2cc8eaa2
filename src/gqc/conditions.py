"""Checkable hypotheses: eigenvalues, smallness conditions, exponent witnesses.

Every check reports a margin rather than a bare boolean so sweeps can see
how close an instance sits to a threshold. The smallness conditions all
reduce to weighted Rayleigh suprema: the infimum of

    integral(|grad u|^2 - M * w(x) * u^2)   over unit-energy u in a subspace

is positive exactly when M * nu < 1, where nu is the largest eigenvalue of
the pencil  diag(w) phi = nu L phi  restricted to the subspace. Subspaces
are node masks: the discrete stand-in for fields vanishing wherever the
coefficient c is supported is the mask |c| <= tau_c.

Discrete Rayleigh quotients carry O(h^2) error relative to the continuum,
which is documented and not compensated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .grid import DiscreteOperators, GridFunction, build_operators, factor, restrict
from .problem import TAU_C_RELATIVE, ProblemData, compute_zero_mask

# also the order in which check_conditions evaluates them: k1 last
CONDITION_TAGS = ("H0", "Hc", "H", "FeroneMurat", "k1")

# Lanczos basis for the one eigenvalue every pencil asks for: EIGEN_BASIS
# vectors, of which a full basis keeps the top EIGEN_KEEP Ritz vectors when it
# restarts. Full-box pencils (1-D 64 cells, 32^2-128^2) converge within 7-9
# solves and never restart; the hard mixed-sign weight of the README's caveat
# restarts often. The basis is stored without A times it: 40 vectors that
# also kept A V raised check-2d's peak RSS by 7 %
EIGEN_BASIS = 24
EIGEN_KEEP = 6
# solves after which a pencil that has not converged raises EigenError
EIGEN_MAX_SOLVES = 20000


class EigenError(RuntimeError):
    """Eigenvalue iteration failed to converge or the weight is degenerate."""


@dataclass
class EigenResult:
    """First eigenpair of  laplacian phi = gamma * diag(c) phi.

    ``phi`` is normalized to unit Dirichlet energy and oriented positive;
    ``residual`` is the 2-norm of  L phi - gamma c phi.
    """

    gamma: float
    phi: GridFunction
    residual: float
    iterations: int


@dataclass
class ConditionReport:
    condition: str
    holds: bool
    infimum_estimate: float
    sub_infima: tuple[float, float] | None = None
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "holds": bool(self.holds),
            "margin": float(self.infimum_estimate),
            "sub_infima": list(self.sub_infima) if self.sub_infima is not None else None,
            "note": self.note,
        }


@dataclass
class ExponentWitness:
    """Exponents (alpha, r, q, tau) satisfying the a-priori-bound arithmetic.

    q = 1 + r + (1 + theta*alpha)/(1 - alpha) and
    tau = (1/q) * alpha/(1 - alpha), subject to
    1/p <= q <= 2*dim*(p-1) / (p*(dim - 2 + 2*tau)) and 1 - alpha < 2/q.
    """

    p: float
    dim: int
    theta: float
    alpha: float
    r: float
    q: float
    tau: float

    def to_dict(self) -> dict:
        return {
            "p": self.p, "dim": self.dim, "theta": self.theta,
            "alpha": self.alpha, "r": self.r, "q": self.q, "tau": self.tau,
        }


def _pencil_top(w: np.ndarray, A: sp.spmatrix, solve) -> tuple[float, np.ndarray, int]:
    """Largest eigenpair of the pencil  diag(w) x = nu A x  for SPD A.

    Thick-restart Lanczos (Wu & Simon 2000) on A^{-1} diag(w), which is
    self-adjoint in the A-inner product, from the all-ones vector, with
    ``solve`` applying A^{-1}. The projected matrix is V^T diag(w) V for the
    A-orthonormal basis V, and each new vector is orthogonalized against
    the basis twice: by that column, then by one product with A. It stops
    when the top Ritz pair's residual ``beta |s_last|`` is within 1e-10 of
    |nu|, when the Krylov space is invariant (beta at rounding level) or
    when the basis spans every unknown; a full basis restarts on its top
    ``EIGEN_KEEP`` Ritz vectors. Raises ``EigenError`` after
    ``EIGEN_MAX_SOLVES`` solves. Returns (nu, x, number of solves) with
    x^T A x = 1.
    """
    n = w.size
    m = min(EIGEN_BASIS, n)
    V = np.empty((m, n))  # A-orthonormal basis, one vector per row
    H = np.zeros((m, m))  # V^T diag(w) V
    v = np.ones(n)
    v /= math.sqrt(v @ (A @ v))
    j = solves = 0
    while True:
        V[j] = v
        wv = w * v
        H[j, :j + 1] = H[:j + 1, j] = V[:j + 1] @ wv
        theta, S = np.linalg.eigh(H[:j + 1, :j + 1])
        beta = 0.0  # when the basis spans every unknown
        if j + 1 < n:
            if solves == EIGEN_MAX_SOLVES:
                raise EigenError(f"Lanczos did not converge in {solves} solves")
            z = solve(wv)
            solves += 1
            z -= H[:j + 1, j] @ V[:j + 1]
            Az = A @ z
            coef = V[:j + 1] @ Az
            z -= coef @ V[:j + 1]
            beta = math.sqrt(max(z @ Az - coef @ coef, 0.0))
        if (beta <= 1e-14 * np.max(np.abs(theta))
                or beta * abs(S[-1, -1]) <= 1e-10 * abs(theta[-1])):
            x = S[:, -1] @ V[:j + 1]
            return float(theta[-1]), x / math.sqrt(x @ (A @ x)), solves
        v = z / beta
        j += 1
        if j == m:
            V[:EIGEN_KEEP] = S[:, -EIGEN_KEEP:].T @ V
            H[:] = 0.0
            np.fill_diagonal(H[:EIGEN_KEEP, :EIGEN_KEEP], theta[-EIGEN_KEEP:])
            j = EIGEN_KEEP


def first_eigen(c: GridFunction, ops: DiscreteOperators) -> EigenResult:
    """Smallest eigenvalue of the weighted Dirichlet problem.

    gamma_1 is the reciprocal of the largest eigenvalue of the pencil
    diag(c) phi = nu L phi, with L inverted by the dense sine basis
    (``ops.shifted_sine_solver(0.0)``); ``iterations`` counts those
    solves.
    """
    ops.check_spec(c)
    cvals = c.values
    if np.min(cvals) < 0.0:
        raise EigenError("weight c must be nonnegative")
    if np.max(cvals, initial=0.0) <= 0.0:
        raise EigenError("weight c vanishes identically; no eigenvalue")

    nu, x, solves = _pencil_top(cvals, ops.laplacian, ops.shifted_sine_solver(0.0))
    gamma = 1.0 / nu
    # normalize to unit Dirichlet energy, positive orientation
    phi_vals = x / math.sqrt(ops.energy_product(x, x))
    if np.sum(phi_vals) < 0.0:
        phi_vals = -phi_vals
    resid = float(np.linalg.norm(ops.laplacian @ phi_vals - gamma * cvals * phi_vals))
    return EigenResult(gamma=gamma, phi=GridFunction(c.spec, phi_vals),
                       residual=resid, iterations=solves)


def weighted_rayleigh_sup(
    w: GridFunction | np.ndarray,
    mask: np.ndarray | None,
    ops: DiscreteOperators,
    stiffness: sp.spmatrix | None = None,
    restricted: Callable[[np.ndarray], tuple[sp.spmatrix, Callable]] | None = None,
) -> float:
    """Largest nu with  integral(w phi^2) = nu * integral(|grad phi|^2)
    over fields supported on ``mask``.

    Returns 0 when w <= 0 on the mask. ``stiffness`` replaces the plain
    Laplacian when the gradient term carries a coefficient. The plain
    Laplacian on every node is inverted by the dense sine basis
    (``ops.shifted_sine_solver(0.0)``). Any other matrix is
    restricted to the mask and factored for this call, unless the caller
    holds them: then ``restricted(mask)`` returns that restricted matrix
    and a solve by it, and is called only when a pencil is solved.
    """
    wvals = w.values if isinstance(w, GridFunction) else np.asarray(w, dtype=float)
    if mask is None:
        mask = np.ones(wvals.size, dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("mask selects no nodes")
    wm = wvals[mask]
    if np.max(wm, initial=0.0) <= 0.0:
        return 0.0
    if stiffness is None and mask.all():
        return _pencil_top(wm, ops.laplacian, ops.shifted_sine_solver(0.0))[0]
    if restricted is not None:
        return _pencil_top(wm, *restricted(mask))[0]
    Am = restrict(ops.laplacian if stiffness is None else stiffness, mask)
    return _pencil_top(wm, Am, factor(Am).solve)[0]


def _vacuous_report(which: str, note: str) -> ConditionReport:
    return ConditionReport(condition=which, holds=True, infimum_estimate=1.0,
                           sub_infima=None, note=note)


def _smallness_report(problem: ProblemData, which: str, ops: DiscreteOperators,
                      restricted: Callable) -> ConditionReport:
    """H0, Hc, H or k1; ``restricted`` is passed on to ``weighted_rayleigh_sup``
    for the Laplacian on a mask."""
    if which in ("H0", "Hc"):
        if which == "H0":
            mask = np.ones(problem.spec.n_interior, dtype=bool)
        else:
            mask = problem.c_zero_mask
            if not mask.any():
                return _vacuous_report(
                    "Hc", "vacuous: the discrete support of c covers every node"
                )

        def sub_margin(m: float, w: np.ndarray) -> float:
            # a zero multiplier leaves nothing to weigh
            if m == 0.0:
                return 1.0
            return 1.0 - m * weighted_rayleigh_sup(w, mask, ops, restricted=restricted)

        sub1 = sub_margin(problem.mu_plus_sup, problem.h_plus)
        sub2 = sub_margin(problem.mu_minus_sup, problem.h_minus)
        margin = min(sub1, sub2)
        return ConditionReport(condition=which, holds=margin > 0.0,
                               infimum_estimate=margin, sub_infima=(sub1, sub2))

    if which == "H":
        d = problem.d_values()
        mask = compute_zero_mask(d, TAU_C_RELATIVE * float(np.max(np.abs(d), initial=0.0)))
        if not mask.any():
            return _vacuous_report("H", "vacuous: the zero-order coefficient never vanishes")
        mu_vals = problem.mu.values
        mu_const = float(np.max(mu_vals))
        note = ""
        if float(np.max(mu_vals) - np.min(mu_vals)) > 1e-12 * (1.0 + abs(mu_const)):
            note = "mu is not constant; its maximum was used"
        nu = weighted_rayleigh_sup(problem.h.values, mask, ops, restricted=restricted)
        margin = 1.0 - mu_const * nu
        return ConditionReport(condition="H", holds=margin > 0.0,
                               infimum_estimate=margin, note=note)

    # k1: gradient term weighted by 1/mu over the c-zero mask
    mask = problem.c_zero_mask
    if not mask.any():
        return _vacuous_report("k1", "vacuous: the discrete support of c covers every node")
    mu_vals = problem.mu.values
    if float(np.min(mu_vals[mask])) <= 0.0:
        raise ValueError("k1 needs mu >= mu1 > 0 on the set where c vanishes")
    inv_mu = 1.0 / np.where(mu_vals > 0.0, mu_vals, 1.0)
    stiff = ops.weighted_stiffness(inv_mu)
    nu = weighted_rayleigh_sup(problem.h.values, mask, ops, stiffness=stiff)
    margin = 1.0 - nu
    return ConditionReport(condition="k1", holds=margin > 0.0, infimum_estimate=margin)


def check_conditions(
    problem: ProblemData, tags: Sequence[str], ops: DiscreteOperators | None = None
) -> list[ConditionReport]:
    """One report per entry of ``tags`` (names from CONDITION_TAGS), in its order.

    The smallness margins are 1 - M * nu for the relevant weighted Rayleigh
    supremum nu (the paired sub-margins for the +/- parts of H0 and Hc);
    a condition holds exactly when its margin is positive. Hc weighs its
    suprema on the zero set of c, and H on that of d = lam c. A mask that
    covers every node (always for H0; for H when lam = 0) takes the dense
    sine basis. Otherwise the masks are compared, and one LU of the
    Laplacian restricted to a mask, made for the first pencil on it, serves
    every supremum on that mask. That LU is dropped before k1 factors its own
    stiffness, so at most one LU is alive at a time. Each tag is evaluated
    once, in CONDITION_TAGS order. Operators for ``problem.spec`` are built
    when ``ops`` is omitted.
    """
    for tag in tags:
        if tag not in CONDITION_TAGS:
            raise ValueError(f"unknown condition {tag!r}")
    if ops is None:
        ops = build_operators(problem.spec)
    held = None  # (mask, the Laplacian restricted to it, a solve by that)

    def restricted(mask: np.ndarray) -> tuple[sp.spmatrix, Callable]:
        nonlocal held
        if held is None or not np.array_equal(held[0], mask):
            held = None  # the old factor goes before the new one is made
            Am = restrict(ops.laplacian, mask)
            held = (mask, Am, factor(Am).solve)
        return held[1:]

    reports = {}
    for tag in CONDITION_TAGS:
        if tag not in tags:
            continue
        if tag == "FeroneMurat":
            reports[tag] = check_ferone_murat(problem)
            continue
        if tag == "k1":
            held = None  # k1 factors its own stiffness
        reports[tag] = _smallness_report(problem, tag, ops, restricted)
    return [reports[tag] for tag in tags]


def sobolev_constant(dim: int) -> float:
    """Best constant of the embedding into the critical Lebesgue space,
    via the closed form sqrt(pi*N*(N-2)) * (Gamma(N/2)/Gamma(N))^(1/N)."""
    if dim < 3:
        raise ValueError("the critical exponent 2N/(N-2) needs dimension >= 3")
    n = float(dim)
    return math.sqrt(math.pi * n * (n - 2.0)) * (math.gamma(n / 2.0) / math.gamma(n)) ** (1.0 / n)


def check_ferone_murat(problem: ProblemData) -> ConditionReport:
    """Smallness of ||mu||_inf * ||h||_{N/2} against the squared Sobolev constant."""
    if problem.spec.dim != 3:
        raise ValueError(
            "this check compares against the critical Sobolev embedding and is "
            "only meaningful in dimension 3 (N >= 3 with N/2-integrable h)"
        )
    w = problem.spec.node_weight
    mu_sup = float(np.max(np.abs(problem.mu.values), initial=0.0))
    half_n = problem.spec.dim / 2.0
    h_norm = float((w * np.sum(np.abs(problem.h.values) ** half_n)) ** (1.0 / half_n))
    s2 = sobolev_constant(problem.spec.dim) ** 2
    margin = s2 - mu_sup * h_norm
    return ConditionReport(
        condition="FeroneMurat", holds=margin > 0.0, infimum_estimate=margin,
        note=f"product {mu_sup * h_norm:.6g} vs threshold {s2:.6g}",
    )


def exponent_margins(w: ExponentWitness) -> tuple[float, float, float]:
    """Margins of the three inequalities a witness must satisfy
    (all must be nonnegative, the last strictly positive)."""
    upper = 2.0 * w.dim * (w.p - 1.0) / (w.p * (w.dim - 2.0 + 2.0 * w.tau))
    return (w.q - 1.0 / w.p, upper - w.q, 2.0 / w.q - (1.0 - w.alpha))


def find_exponents(p: float, theta: float, dim: int) -> ExponentWitness:
    """Search exponents alpha, r in (0,1) making the bound arithmetic feasible.

    Shrinking search: alpha halves from 1/2; for each alpha, r halves from
    min(1/2, alpha) until every inequality holds. Feasibility always
    arrives for small enough alpha and r when p > dim/2, so exhaustion is
    an internal error.
    """
    dim = int(dim)
    if dim < 3:
        raise ValueError(f"dimension must be >= 3, got {dim}")
    if not p > dim / 2.0:
        raise ValueError(f"need p > dim/2 = {dim / 2.0}, got p = {p}")
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")

    alpha = 0.5
    for _ in range(200):
        r = min(0.5, alpha)
        for _ in range(200):
            q = 1.0 + r + (1.0 + theta * alpha) / (1.0 - alpha)
            tau = (1.0 / q) * alpha / (1.0 - alpha)
            witness = ExponentWitness(p=float(p), dim=dim, theta=float(theta),
                                      alpha=alpha, r=r, q=q, tau=tau)
            m1, m2, m3 = exponent_margins(witness)
            if m1 >= 0.0 and m2 >= 0.0 and m3 > 0.0:
                return witness
            r *= 0.5
            if r < 1e-60:
                break
        alpha *= 0.5
        if alpha < 1e-60:
            break
    raise RuntimeError(
        f"exponent search exhausted for p={p}, theta={theta}, dim={dim}; "
        "this contradicts the feasibility guarantee"
    )

