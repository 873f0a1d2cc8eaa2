"""Problem instances: coefficient fields, parameters and assumption profiles.

A problem couples a grid with three coefficient fields c, mu, h and the
parameter ``lam`` of the equation

    -lap u = lam * c(x) * u + mu(x) * |grad u|^2 + h(x),  u = 0 on the boundary.

This module is the one home of every rule about a problem's data; the
condition checks and the transform route read what ``ProblemData`` derives.
A profile (``A1``, ``A2``, ``A3``, ``A5``) names the structural assumptions
a study relies on: a tuple of clause names from one clause table, each
clause a function of the problem. ``p_exponent`` is user metadata: on a
grid every field is bounded, so integrability is vacuous; p only
parameterizes the condition checks that need it. The discrete zero set of
a field v, for c and for d = lam c alike, is the node set where
|v| <= TAU_C_RELATIVE * max|v| (``zero_set``); that of c is the discrete
version of the subspace of fields vanishing on the support of c. mu counts
as constant when max mu - min mu <= 1e-12 (1 + max|mu|).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import expressions as ex
from .grid import GridError, GridFunction, GridSpec

TAU_C_RELATIVE = 1e-12


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


def zero_set(values: np.ndarray) -> np.ndarray:
    """The discrete zero set of a field: |v| <= TAU_C_RELATIVE * max|v|."""
    return compute_zero_mask(values, TAU_C_RELATIVE * float(np.max(np.abs(values), initial=0.0)))


@dataclass
class ProblemData:
    """Sampled coefficients, parameter and profile for one problem instance.

    Derived on construction: ``mu_plus_sup`` and ``mu_minus_sup`` (sup of
    mu+ and mu-), ``h_plus`` and ``h_minus`` (the parts of h),
    ``c_zero_mask`` and ``d_zero_mask`` (the ``zero_set`` of c and of
    d = lam c, each from the field itself), ``mu_max``, ``mu_min`` and
    ``mu_constant`` (max mu - min mu <= 1e-12 (1 + max|mu|)).
    """

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
        self.c_zero_mask: np.ndarray = zero_set(self.c.values)
        self.d_zero_mask: np.ndarray = zero_set(self.d_values())
        self.mu_max, self.mu_min = float(np.max(mu)), float(np.min(mu))
        self.mu_constant = self.mu_max - self.mu_min <= 1e-12 * (1.0 + float(np.max(np.abs(mu))))

    def with_lambda(self, lam: float) -> "ProblemData":
        return replace(self, lam=float(lam))

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


def _sign(vals: np.ndarray, lower_ok: bool) -> tuple[bool, int | None, str]:
    """lower_ok: require vals >= 0; otherwise require vals <= 0."""
    bad = np.flatnonzero(vals < 0.0 if lower_ok else vals > 0.0)
    if bad.size:
        node = int(bad[0])
        return False, node, f"value {vals[node]:.6g} at node {node}"
    return True, None, ""


def _nonzero(vals: np.ndarray) -> tuple[bool, int | None, str]:
    return (True, None, "") if np.any(vals) else (False, None, "field vanishes at every node")


# each clause maps a problem to (passed, witness node, detail)
_CLAUSES = {
    "c >= 0": lambda p: _sign(p.c.values, lower_ok=True),
    "c not identically 0": lambda p: _nonzero(p.c.values),
    "mu bounded": lambda p: (bool(np.all(np.isfinite(p.mu.values))), None, ""),
    "h >= 0": lambda p: _sign(p.h.values, lower_ok=True),
    "h not identically 0": lambda p: _nonzero(p.h.values),
    "mu >= mu1 > 0": lambda p: (p.mu_min > 0.0, None if p.mu_min > 0.0
                                else int(np.argmin(p.mu.values)), f"min mu = {p.mu_min:.6g}"),
    "mu constant": lambda p: (p.mu_constant, None, f"span {p.mu_max - p.mu_min:.3g}"),
    "mu > 0": lambda p: (p.mu_min > 0.0, int(np.argmin(p.mu.values)), ""),
    "lam * c <= 0": lambda p: _sign(p.d_values(), lower_ok=False),
}

_A1 = ("c >= 0", "c not identically 0", "mu bounded")
_PROFILE_CLAUSES = {
    "A1": _A1,
    "A2": _A1 + ("h >= 0", "h not identically 0", "mu >= mu1 > 0"),
    "A3": ("mu constant", "mu > 0", "lam * c <= 0", "h >= 0"),
    "A5": ("lam * c <= 0", "mu bounded"),
}
PROFILES = tuple(_PROFILE_CLAUSES)


def validate_profile(problem: ProblemData) -> ValidationReport:
    """Check the clauses of the declared profile, in its order; failures
    carry a witness node where one exists."""
    return ValidationReport(problem.profile, [ClauseResult(name, *_CLAUSES[name](problem))
                                              for name in _PROFILE_CLAUSES[problem.profile]])
