"""Problem instances: coefficient fields, parameters and assumption profiles.

A problem couples a grid with three coefficient fields c, mu, h and the
parameter ``lam`` of the equation

    -lap u = lam * c(x) * u + mu(x) * |grad u|^2 + h(x),  u = 0 on the boundary.

Profiles name the structural assumptions a given study relies on:

* ``A1``: c >= 0 and c not identically zero; mu bounded.
* ``A2``: A1 plus h >= 0 with h not identically zero and mu >= mu1 > 0.
* ``A3``: mu a positive constant, lam * c <= 0, h >= 0.
* ``A5``: lam * c <= 0, mu bounded.

``p_exponent`` is user metadata: on a grid every field is bounded, so
integrability is vacuous; p only parameterizes the condition checks that
need it. The discrete support of c is the node set where |c| exceeds
tau_c = 1e-12 * max|c|; its complement is the discrete version of the
subspace of fields vanishing on the support of c.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import expressions as ex
from .grid import GridError, GridFunction, GridSpec

TAU_C_RELATIVE = 1e-12

PROFILES = ("A1", "A2", "A3", "A5")


class CoefficientSpec(GridFunction):
    """A coefficient field: a grid function sampled from an expression
    (``parse_coefficient``), a constant (``constant``), an array or a flat
    data file.
    """

    @classmethod
    def from_values(cls, values, spec: GridSpec) -> "CoefficientSpec":
        vals = np.asarray(values, dtype=float).ravel(order="C")
        if vals.size != spec.n_interior:
            raise GridError(
                f"coefficient data has {vals.size} values, grid needs {spec.n_interior}"
            )
        _check_finite(vals, spec)
        return cls(spec=spec, values=vals)

    @classmethod
    def from_file(cls, path: str | Path, spec: GridSpec) -> "CoefficientSpec":
        return cls.from_values(np.loadtxt(path, dtype=float), spec)


def _check_finite(vals: np.ndarray, spec: GridSpec) -> None:
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        node = int(bad[0])
        pt = spec.interior_points()[node]
        raise ex.ExpressionError(
            f"non-finite value at node {node} (x = {tuple(round(v, 6) for v in pt)})"
        )


def parse_coefficient(text: str, spec: GridSpec) -> CoefficientSpec:
    """Parse an expression and sample it on the interior nodes.

    Raises ExpressionError with a position for syntax errors, for
    variables beyond the grid dimension and for non-finite samples (the
    offending node is named).
    """
    vals = ex.evaluate(ex.parse_expression(text), spec.interior_points())
    vals = np.broadcast_to(np.asarray(vals, dtype=float), (spec.n_interior,)).copy()
    _check_finite(vals, spec)
    return CoefficientSpec(spec=spec, values=vals)


def save_values_file(path: str | Path, values: np.ndarray) -> None:
    """Write a flat values file, one value per interior node, full precision."""
    # the bytes np.savetxt(fmt="%.17g") writes, formatted by one % operation
    flat = tuple(np.asarray(values, dtype=float).ravel(order="C").tolist())
    Path(path).write_bytes((("%.17g\n" * len(flat)) % flat).encode())


def load_values_file(path: str | Path, spec: GridSpec) -> GridFunction:
    vals = np.loadtxt(path, dtype=float).ravel(order="C")
    return GridFunction(spec, vals)


def compute_zero_mask(values: np.ndarray, tau: float) -> np.ndarray:
    """Nodes where |values| <= tau; monotone in tau by construction."""
    return np.abs(np.asarray(values, dtype=float)) <= tau


@dataclass
class ProblemData:
    """Sampled coefficients, parameter and profile for one problem instance."""

    spec: GridSpec
    c: CoefficientSpec
    mu: CoefficientSpec
    h: CoefficientSpec
    lam: float
    p_exponent: float = 2.0
    profile: str = "A1"

    def __post_init__(self):
        for name, coeff in (("c", self.c), ("mu", self.mu), ("h", self.h)):
            if coeff.spec != self.spec:
                raise GridError(f"coefficient {name} sampled on a different grid")
        if self.profile not in PROFILES:
            raise ValueError(f"profile must be one of {PROFILES}, got {self.profile!r}")
        if not np.isfinite(self.lam):
            raise ValueError(f"lam must be finite, got {self.lam}")
        if not self.p_exponent > self.spec.dim / 2.0:  # NaN fails too
            raise ValueError(
                f"p_exponent must exceed dim/2 = {self.spec.dim / 2.0}, got {self.p_exponent}"
            )
        mu = self.mu.values
        h = self.h.values
        self.mu_plus_sup: float = float(np.max(np.maximum(mu, 0.0), initial=0.0))
        self.mu_minus_sup: float = float(np.max(np.maximum(-mu, 0.0), initial=0.0))
        self.h_plus: np.ndarray = np.maximum(h, 0.0)
        self.h_minus: np.ndarray = np.maximum(-h, 0.0)
        self.tau_c: float = TAU_C_RELATIVE * float(np.max(np.abs(self.c.values), initial=0.0))
        self.c_zero_mask: np.ndarray = compute_zero_mask(self.c.values, self.tau_c)

    def with_lambda(self, lam: float) -> "ProblemData":
        return ProblemData(
            spec=self.spec, c=self.c, mu=self.mu, h=self.h,
            lam=float(lam), p_exponent=self.p_exponent, profile=self.profile,
        )

    def d_values(self) -> np.ndarray:
        """The zero-order coefficient lam * c."""
        return self.lam * self.c.values


@dataclass(frozen=True)
class ClauseResult:
    clause: str
    passed: bool
    witness_node: int | None = None
    detail: str = ""


@dataclass
class ValidationReport:
    profile: str
    clauses: list[ClauseResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    def failures(self) -> list[ClauseResult]:
        return [c for c in self.clauses if not c.passed]


def _sign_clause(name: str, vals: np.ndarray, lower_ok: bool) -> ClauseResult:
    """lower_ok: require vals >= 0; otherwise require vals <= 0."""
    if lower_ok:
        bad = np.flatnonzero(vals < 0.0)
    else:
        bad = np.flatnonzero(vals > 0.0)
    if bad.size:
        node = int(bad[0])
        return ClauseResult(name, False, node, f"value {vals[node]:.6g} at node {node}")
    return ClauseResult(name, True)


def _nonzero_clause(name: str, vals: np.ndarray) -> ClauseResult:
    if np.max(np.abs(vals), initial=0.0) == 0.0:
        return ClauseResult(name, False, None, "field vanishes at every node")
    return ClauseResult(name, True)


def validate_profile(problem: ProblemData) -> ValidationReport:
    """Check the clauses of the declared profile; failures carry a witness node."""
    report = ValidationReport(profile=problem.profile)
    c = problem.c.values
    mu = problem.mu.values
    h = problem.h.values
    prof = problem.profile

    if prof in ("A1", "A2"):
        report.clauses.append(_sign_clause("c >= 0", c, lower_ok=True))
        report.clauses.append(_nonzero_clause("c not identically 0", c))
        report.clauses.append(ClauseResult("mu bounded", bool(np.all(np.isfinite(mu)))))
    if prof == "A2":
        report.clauses.append(_sign_clause("h >= 0", h, lower_ok=True))
        report.clauses.append(_nonzero_clause("h not identically 0", h))
        mu_min = float(np.min(mu))
        report.clauses.append(
            ClauseResult(
                "mu >= mu1 > 0", mu_min > 0.0,
                None if mu_min > 0.0 else int(np.argmin(mu)),
                f"min mu = {mu_min:.6g}",
            )
        )
    if prof == "A3":
        span = float(np.max(mu) - np.min(mu))
        scale = 1.0 + float(np.max(np.abs(mu), initial=0.0))
        report.clauses.append(
            ClauseResult("mu constant", span <= 1e-12 * scale, None, f"span {span:.3g}")
        )
        report.clauses.append(
            ClauseResult("mu > 0", float(np.min(mu)) > 0.0, int(np.argmin(mu)))
        )
        report.clauses.append(_sign_clause("lam * c <= 0", problem.d_values(), lower_ok=False))
        report.clauses.append(_sign_clause("h >= 0", h, lower_ok=True))
    if prof == "A5":
        report.clauses.append(_sign_clause("lam * c <= 0", problem.d_values(), lower_ok=False))
        report.clauses.append(ClauseResult("mu bounded", bool(np.all(np.isfinite(mu)))))
    return report
