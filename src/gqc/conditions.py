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
import scipy.sparse.linalg as spla

from .grid import DiscreteOperators, GridFunction, build_operators, factor, restrict
from .problem import TAU_C_RELATIVE, ProblemData, compute_zero_mask

# also the order in which check_conditions evaluates them: k1 last
CONDITION_TAGS = ("H0", "Hc", "H", "FeroneMurat", "k1")

# Lanczos basis size for the one eigenvalue every pencil asks for. Solves to
# convergence, against 20 (eigsh's default): 13 against 21 on full-box
# pencils (1-D 64 cells, 32^2-128^2); 19 against 21 on the masked pencils of
# a 128^2 check whose h changes sign; 25 against 21 (31 at 16^3) on other
# masked mixed-sign weights. The count does not fall steadily with the size
# (11 takes 18 on those 128^2 pencils, 16 takes 17-25), so re-measure before
# changing it
EIGEN_NCV = 12
# restarts of that first pass; a pencil it leaves unconverged is solved again
# from the start with EIGEN_RETRY_NCV vectors. Every pencil above converges
# within 2 restarts; the mixed-sign weight of the README's caveat takes 163
# solves over both passes, where 12 vectors alone take 331 and 20 take 132
EIGEN_FIRST_MAX_ITER = 3
EIGEN_RETRY_NCV = 20
# cap on the second pass's restarts; each costs up to EIGEN_RETRY_NCV - 1 solves
EIGEN_MAX_ITER = 1000


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

    Implicitly restarted Lanczos (ARPACK through ``eigsh``) in the
    A-inner product, with ``solve`` applying A^{-1}: a basis of
    ``EIGEN_NCV`` vectors for up to ``EIGEN_FIRST_MAX_ITER`` restarts, then,
    if that has not converged, one of ``EIGEN_RETRY_NCV`` vectors for up to
    ``EIGEN_MAX_ITER``. The all-ones start vector and the fixed generator
    for ARPACK's restart vectors make runs deterministic. Returns (nu, x,
    number of solves over both passes) with x^T A x = 1.
    """
    n = w.size
    if n == 1:  # ARPACK needs two unknowns
        a = float(A[0, 0])
        return float(w[0]) / a, np.array([1.0 / math.sqrt(a)]), 0
    solves = 0

    def apply_inverse(x: np.ndarray) -> np.ndarray:
        nonlocal solves
        solves += 1
        return solve(x)

    Minv = spla.LinearOperator((n, n), matvec=apply_inverse, dtype=float)
    for ncv, max_iter in ((EIGEN_NCV, EIGEN_FIRST_MAX_ITER), (EIGEN_RETRY_NCV, EIGEN_MAX_ITER)):
        try:
            vals, vecs = spla.eigsh(sp.diags(w), k=1, M=A, Minv=Minv, which="LA",
                                    v0=np.ones(n), ncv=min(ncv, n), maxiter=max_iter, rng=0)
            return float(vals[0]), vecs[:, 0], solves
        except spla.ArpackNoConvergence as exc:
            error = exc
        except spla.ArpackError as exc:
            error = exc
            break
    raise EigenError(f"Lanczos failed after {solves} solves: {error}") from error


def first_eigen(c: GridFunction, ops: DiscreteOperators) -> EigenResult:
    """Smallest eigenvalue of the weighted Dirichlet problem.

    gamma_1 is the reciprocal of the largest eigenvalue of the pencil
    diag(c) phi = nu L phi, with L inverted by the dense sine basis
    (``ops.shifted_sine_solve`` with shift 0); ``iterations`` counts those
    solves.
    """
    ops.check_spec(c)
    cvals = c.values
    if np.min(cvals) < 0.0:
        raise EigenError("weight c must be nonnegative")
    if np.max(cvals, initial=0.0) <= 0.0:
        raise EigenError("weight c vanishes identically; no eigenvalue")

    nu, x, solves = _pencil_top(cvals, ops.laplacian, lambda b: ops.shifted_sine_solve(b, 0.0))
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
    (``ops.shifted_sine_solve`` with shift 0). Any other matrix is
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
        return _pencil_top(wm, ops.laplacian, lambda b: ops.shifted_sine_solve(b, 0.0))[0]
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

