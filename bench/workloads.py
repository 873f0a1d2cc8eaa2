"""The four benchmark workloads.

Each workload turns the benchmark seed into inputs once per run
(``prepare``), then repeats iterations of

* ``setup``: what the workload does before its operations, timed as
  set-up (operator assembly and coefficient parse for the library
  workload, nothing for the CLI ones);
* ``operations``: the user-visible operations, each timed on its own.
  ``SetupClock`` takes the program's own set-up inside an operation
  (config load and validation, coefficient parse, operator assembly) out
  of the operation's time and into set-up;

and after the timed loop checks every iteration's results (``verify``)
with code that does not trust the timed path: residuals are recomputed
from independently sampled coefficients, eigenvalues are compared with
closed forms or an ``eigsh`` solve of the same pencil, and artifacts are
read back from disk. Every check is a tolerance with a physical meaning,
so a legitimate solver change (Krylov, block elimination) still passes.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from gqc import cli, conditions, continuation, grid, problem as gproblem, solver
from gqc.grid import GridFunction, GridSpec
from gqc.problem import CoefficientSpec, ProblemData

# residual checks allow this multiple of the documented relative tolerance
RESIDUAL_SLACK = 10.0
# two solutions of one lam < 0 problem are "the same" below this sup distance
# relative to their size; the solver tolerance is five orders tighter
SAME_SOLUTION_REL = 1e-6
# agreement required between gqc's eigenvalues and condition margins and the
# independent references; O(h^2) discretization error is about 1e-4 here
EIGEN_REL = 1e-6
MARGIN_ABS = 1e-6
ENCLOSURE_SLACK = 1e-8


@dataclass
class Outcome:
    """One timed operation of one iteration.

    ``seconds`` and ``setup`` are the wall times of the operation without
    and of the program's set-up inside it; ``scale`` turns them into
    seconds at the calibration's reference speed."""

    label: str
    seconds: float
    result: object = None
    error: str | None = None
    problems: list[str] = field(default_factory=list)
    setup: float = 0.0
    scale: float = 1.0

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)

    def expect(self, ok: bool, what: str) -> bool:
        if not ok:
            self.problems.append(what)
        return ok


# ---------------------------------------------------------------------------
# helpers shared by the checks


def clear_program_caches() -> None:
    """Drop module-level operator caches so no operation reuses another's
    operators or factorizations, as if each command were its own process
    (a no-op once the caches are gone)."""
    for mod in (cli, conditions):
        cache = getattr(mod, "_OPS_CACHE", None)
        if isinstance(cache, dict):
            cache.clear()


class SetupClock:
    """Time spent in the program's set-up while the clock is installed.

    Wraps ``cli.load_config`` (config load and validation),
    ``cli.build_problem`` (coefficient parse and file load) and
    ``build_operators`` (operator assembly) at every gqc module attribute
    bound to them, so it sees the calls a command makes wherever it makes
    them. Nested calls count once."""

    def __init__(self):
        self.seconds = 0.0
        self._depth = 0
        self._patches: list[tuple[object, str, object]] = []

    def _timed(self, fn):
        clock = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            clock._depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                clock._depth -= 1
                if clock._depth == 0:
                    clock.seconds += time.perf_counter() - t0

        return timed

    def __enter__(self):
        timed = {id(fn): self._timed(fn)
                 for fn in (cli.load_config, cli.build_problem, grid.build_operators)}
        mods = [m for name, m in list(sys.modules.items())
                if name == "gqc" or name.startswith("gqc.")]
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in timed:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, timed[id(obj)])
        return self

    def __exit__(self, *exc):
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()


@contextmanager
def capture(module, name):
    """Record the bound arguments and result of calls to ``module.name``."""
    original = getattr(module, name)
    box: dict = {}

    def recorder(*args, **kwargs):
        result = original(*args, **kwargs)
        box["args"] = inspect.signature(original).bind(*args, **kwargs).arguments
        box["result"] = result
        return result

    setattr(module, name, recorder)
    try:
        yield box
    finally:
        setattr(module, name, original)


def run_cli(argv: list[str]) -> int:
    return cli.main(argv + ["--quiet"])


def first_dirichlet_eigenvalue(bounds, n) -> float:
    """Smallest eigenvalue of the (2d+1)-point Dirichlet Laplacian on a box."""
    total = 0.0
    for (lo, hi), cells in zip(bounds, n):
        h = (hi - lo) / cells
        total += 4.0 / h**2 * math.sin(math.pi * h / (2.0 * (hi - lo))) ** 2
    return total


def sampled(spec: GridSpec, fn) -> CoefficientSpec:
    """A coefficient sampled with numpy, bypassing the expression parser."""
    pts = spec.interior_points()
    vals = np.broadcast_to(fn(*(pts[:, k] for k in range(spec.dim))), (spec.n_interior,))
    return CoefficientSpec.from_values(np.array(vals, dtype=float), spec)


def residual_bound(u: np.ndarray, prob: ProblemData, ops, tol_residual: float) -> float:
    """The documented Newton test: tol_residual times (1 + the magnitude of
    the equation's terms), recomputed from the assembled operators."""
    grad_sq = sum((D @ u) ** 2 for D in ops.gradient)
    scale = (np.max(np.abs(ops.laplacian @ u)) + np.max(np.abs(prob.d_values() * u))
             + np.max(np.abs(prob.mu.values * grad_sq)) + np.max(np.abs(prob.h.values)))
    return tol_residual * (1.0 + float(scale))


def residual_sup(u: np.ndarray, prob: ProblemData, ops) -> float:
    r = solver.residual_P(GridFunction(prob.spec, u), prob, ops)
    return float(np.max(np.abs(r.values)))


def check_solution(out: Outcome, what: str, u: np.ndarray, prob: ProblemData, ops,
                   tol_residual: float, tolerance_used: float | None = None) -> None:
    """Residual at ``u`` within the solve's own tolerance, which itself must
    stay within the documented relative bound."""
    bound = RESIDUAL_SLACK * residual_bound(u, prob, ops, tol_residual)
    tol = bound if tolerance_used is None else tolerance_used
    r = residual_sup(u, prob, ops)
    if tolerance_used is not None:
        out.expect(tolerance_used <= bound,
                   f"{what}: tolerance_used {tolerance_used:.3e} above bound {bound:.3e}")
    out.expect(r <= tol, f"{what}: residual {r:.3e} above tolerance {tol:.3e}")


def same_solution(a: np.ndarray, b: np.ndarray) -> bool:
    scale = 1.0 + max(np.max(np.abs(a)), np.max(np.abs(b)))
    return float(np.max(np.abs(a - b))) <= SAME_SOLUTION_REL * scale


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def pencil_sup(w: np.ndarray, stiffness, mask: np.ndarray | None = None) -> float:
    """Largest nu of diag(w) x = nu A x on the masked nodes, by Lanczos."""
    if mask is not None:
        idx = np.flatnonzero(mask)
        stiffness = stiffness.tocsr()[idx][:, idx]
        w = w[idx]
    A = stiffness.tocsc()
    lu = spla.splu(A)
    minv = spla.LinearOperator(A.shape, matvec=lu.solve, dtype=float)
    vals = spla.eigsh(sp.diags(w).tocsr(), k=1, M=A, Minv=minv, which="LA", tol=1e-13,
                      return_eigenvectors=False)
    return float(vals[0])


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def read_values(path: Path) -> np.ndarray:
    return np.loadtxt(path, dtype=float).ravel()


def verify_branch_artifacts(out: Outcome, outdir: Path, prob: ProblemData, ops,
                            tol_residual: float, expect: dict) -> dict | None:
    """Checks shared by every `gqc branch` run; returns analysis.json."""
    if not out.expect(out.result == 0, f"exit code {out.result}, expected 0"):
        return None
    an = read_json(outdir / "analysis.json")
    rows = (outdir / "branch.csv").read_text().strip().splitlines()[1:]
    out.expect(len(rows) == an["points"], "branch.csv rows differ from analysis points")
    lams = np.array([float(r.split(",")[1]) for r in rows])
    sups = np.array([float(r.split(",")[2]) for r in rows])
    out.expect(bool(np.all(np.isfinite(lams)) and np.all(np.isfinite(sups))),
               "non-finite branch values")
    out.expect(close(an["gamma1"], expect["gamma1"], EIGEN_REL),
               f"gamma1 {an['gamma1']!r} vs closed form {expect['gamma1']!r}")
    out.expect(an["max_lambda"] < an["gamma1"], "branch reaches past gamma1")
    out.expect(an["termination"] == expect["termination"],
               f"termination {an['termination']}, expected {expect['termination']}")
    out.expect(an["blowup_side"] == expect["blowup_side"],
               f"blow-up side {an['blowup_side']}, expected {expect['blowup_side']}")
    if "two_solutions" not in expect:
        return an
    pair = an.get("two_solutions")
    if not out.expect(pair is not None and bool(an["folds"]), "no fold or no two-solution pair"):
        return an
    lam = pair["lambda"]
    out.expect(close(lam, 0.5 * an["max_lambda"], 1e-12), "pair not at half the fold")
    at_lam = prob.with_lambda(lam)
    sups_pair = []
    for which in ("low", "high"):
        u = read_values(outdir / f"solution_{which}.txt")
        check_solution(out, f"solution_{which}", u, at_lam, ops, tol_residual)
        sups_pair.append(float(np.max(np.abs(u))))
        out.expect(close(sups_pair[-1], pair[f"sup_{which}"], 1e-12),
                   f"solution_{which}.txt does not match analysis.json")
    out.expect(sups_pair[1] - sups_pair[0] > 0.5 * sups_pair[1],
               f"pair not distinct: sup norms {sups_pair}")
    return an


def verify_eigen_artifacts(out: Outcome, outdir: Path, c: np.ndarray, ops,
                           gamma_ref: float) -> None:
    if not out.expect(out.result == 0, f"exit code {out.result}, expected 0"):
        return
    rep = read_json(outdir / "report.json")
    out.expect(close(rep["gamma1"], gamma_ref, EIGEN_REL),
               f"gamma1 {rep['gamma1']!r} vs reference {gamma_ref!r}")
    phi = read_values(outdir / "eigenfunction.txt")
    Lphi = ops.laplacian @ phi
    res = float(np.linalg.norm(Lphi - rep["gamma1"] * c * phi))
    out.expect(res <= 1e-6 * float(np.linalg.norm(Lphi)), f"eigenpair residual {res:.3e}")
    out.expect(float(np.min(phi)) >= -1e-10 * float(np.max(phi)), "eigenfunction changes sign")


# ---------------------------------------------------------------------------


class Workload:
    """Inputs from the seed, per-iteration set-up and operations, checks.

    The state ``setup`` returns lives for one iteration only, so no
    iteration's operators stay in memory; ``verify`` gets the iteration
    number and finds that iteration's artifacts by it."""

    name = ""

    def __init__(self, seed: int, work: Path, root: Path):
        self.seed = seed
        self.work = work
        self.root = root
        self.rng = np.random.default_rng(seed)

    def describe(self) -> str:
        return ""

    def prepare(self) -> None:
        pass

    def setup(self, it: int) -> dict:
        raise NotImplementedError

    def operations(self, state: dict) -> list[tuple[str, object]]:
        raise NotImplementedError

    def verify(self, it: int, outcomes: list[Outcome]) -> None:
        raise NotImplementedError

    def _write_config(self, name: str, cfg: dict) -> Path:
        path = self.work / name
        path.write_text(json.dumps(cfg, indent=1))
        return path


class Fold2D(Workload):
    name = "fold-2d"
    n = 48

    def prepare(self):
        self.a = float(self.rng.uniform(0.08, 0.12))
        self.tol = 1e-10
        self.cfg = {
            "grid": {"dim": 2, "bounds": [[0.0, 1.0], [0.0, 1.0]], "n": [self.n, self.n]},
            "coefficients": {"c": "1", "mu": "1", "h": f"{self.a!r}*sin(pi*x1)*sin(pi*x2)"},
            "profile": "A2",
            "lambda": -1.0,
            "solver": {"tol_residual": self.tol},
            "continuation": {"lambda0": -2.0, "ds0": 0.1, "ds_min": 1e-6, "ds_max": 0.5,
                             "norm_cap": 3.0, "max_points": 400,
                             "two_solution_lambda": "half_fold"},
            "seed": self.seed,
        }
        self.path = self._write_config("fold.json", self.cfg)

    def describe(self):
        return f"h = {self.a:.6f} sin(pi x1) sin(pi x2) on {self.n}^2 cells"

    def setup(self, it):
        return {"out": self.work / f"fold-{it}"}

    def operations(self, state):
        def branch():
            with capture(cli, "trace_branch") as box:
                rc = run_cli(["branch", "--config", str(self.path), "--out", str(state["out"]),
                              "--seed", str(self.seed)])
            state["branch"] = box
            return rc

        def locate():
            box = state["branch"]
            a = box["args"]
            return continuation.locate_fold(box["result"], a["problem"], a["ops"], a["opts"])

        return [("branch", branch), ("locate_fold", locate)]

    def verify(self, it, outcomes):
        spec = GridSpec(2, ((0.0, 1.0), (0.0, 1.0)), (self.n, self.n))
        ops = grid.build_operators(spec)
        a = self.a
        prob = ProblemData(
            spec=spec, c=sampled(spec, lambda x, y: 1.0), mu=sampled(spec, lambda x, y: 1.0),
            h=sampled(spec, lambda x, y: a * np.sin(np.pi * x) * np.sin(np.pi * y)),
            lam=-1.0, profile="A2")
        gamma = first_dirichlet_eigenvalue(spec.bounds, spec.n)
        br, loc = outcomes
        an = verify_branch_artifacts(
            br, self.work / f"fold-{it}", prob, ops, self.tol,
            {"gamma1": gamma, "termination": "norm_cap", "blowup_side": "right",
             "two_solutions": True})
        if loc.error is None and an is not None:
            lam, _ = loc.result
            top = an["max_lambda"]
            loc.expect(math.isfinite(lam) and lam < gamma, f"fold lambda {lam} not below gamma1")
            loc.expect(top - 1e-8 * (1.0 + abs(top)) <= lam <= top + 0.01 * abs(top),
                       f"refined fold {lam} far from sampled maximum {top}")
        elif an is None:
            loc.expect(False, "no branch to refine")


class Solve3D(Workload):
    name = "solve-3d"
    n = 18
    k = 4

    def prepare(self):
        # one lam in each third of [-4, -0.5]; enclosure and multi-start run at
        # the most negative, where the random starts' Newton step counts vary
        # least from seed to seed
        width = 3.5 / 3
        self.lams = [float(self.rng.uniform(lo, lo + width))
                     for lo in (-4.0, -4.0 + width, -4.0 + 2 * width)]
        self.A = float(self.rng.uniform(0.8, 1.2))
        self.B = float(self.rng.uniform(0.2, 0.5))
        self.h_expr = f"{self.A!r}*(1+{self.B!r}*sin(pi*x2)*cos(0.5*pi*x3))"
        self.mu_expr = "0.5+0.25*sin(pi*x1)"
        self.spec = GridSpec(3, ((0.0, 1.0),) * 3, (self.n,) * 3)

    def describe(self):
        return (f"lam = {[round(v, 6) for v in self.lams]}, h = {self.h_expr} "
                f"on {self.n}^3 cells")

    def setup(self, it):
        spec = self.spec
        ops = grid.build_operators(spec)
        prob = ProblemData(
            spec=spec, c=gproblem.parse_coefficient("1", spec),
            mu=gproblem.parse_coefficient(self.mu_expr, spec),
            h=gproblem.parse_coefficient(self.h_expr, spec),
            lam=self.lams[0], profile="A2")
        return {"ops": ops, "problem": prob, "it": it}

    def operations(self, state):
        ops, prob = state["ops"], state["problem"]
        ops_list = [(f"solve_cascade[{i}]",
                     (lambda lam=lam: solver.solve_cascade(prob.with_lambda(lam), ops)))
                    for i, lam in enumerate(self.lams)]
        ops_list.append(("monotone_enclosure",
                         lambda: solver.monotone_enclosure(prob.with_lambda(self.lams[0]), ops)))
        # the starts' Newton step counts vary with their seed (20 to 23
        # factorizations in all); a new seed each iteration lets a run's
        # median see the usual count whatever the benchmark seed
        ops_list.append(("multi_start",
                         lambda: solver.multi_start(prob.with_lambda(self.lams[0]), self.k,
                                                    self.seed * 1000 + state["it"], ops)))
        return ops_list

    def verify(self, it, outcomes):
        spec = self.spec
        ops = grid.build_operators(spec)
        A, B = self.A, self.B
        base = ProblemData(
            spec=spec, c=sampled(spec, lambda x, y, z: 1.0),
            mu=sampled(spec, lambda x, y, z: 0.5 + 0.25 * np.sin(np.pi * x)),
            h=sampled(spec, lambda x, y, z:
                      A * (1 + B * np.sin(np.pi * y) * np.cos(0.5 * np.pi * z))),
            lam=self.lams[0], profile="A2")
        tol = solver.SolveOptions().tol_residual
        cascades = {}
        for out, lam in zip(outcomes[:3], self.lams):
            if out.error is not None:
                continue
            u, strategy, attempts = out.result
            if not out.expect(u is not None, "no strategy converged"):
                continue
            used = next(a["tolerance_used"] for a in attempts if a["strategy"] == strategy)
            check_solution(out, f"lam={lam:.4f}", u.values, base.with_lambda(lam), ops, tol, used)
            cascades[lam] = u.values

        enc = outcomes[3]
        if enc.error is None:
            alpha, beta, u, rep = enc.result
            if enc.expect(rep.converged, "enclosure solve did not converge"):
                check_solution(enc, "enclosure", u.values, base.with_lambda(self.lams[0]), ops,
                               tol, rep.tolerance_used)
                enc.expect(bool(np.all(alpha.values <= u.values + ENCLOSURE_SLACK)),
                           "alpha <= u violated")
                enc.expect(bool(np.all(u.values <= beta.values + ENCLOSURE_SLACK)),
                           "u <= beta violated")
                ref = cascades.get(self.lams[0])
                enc.expect(ref is None or same_solution(ref, u.values),
                           "enclosure solution differs from the cascade solution")

        ms = outcomes[4]
        if ms.error is None:
            rep = ms.result
            prob = base.with_lambda(self.lams[0])
            ms.expect(rep.converged_count == self.k,
                      f"{rep.converged_count} of {self.k} starts converged")
            ms.expect(rep.max_pairwise_distance <= SAME_SOLUTION_REL * (1.0 + max(
                (float(np.max(np.abs(s))) for s in rep.solutions), default=0.0)),
                f"lam < 0 but starts reached distinct solutions "
                f"({rep.max_pairwise_distance:.3e})")
            done = [r for r in rep.reports if r.converged]
            for i, (sol, r) in enumerate(zip(rep.solutions, done)):
                check_solution(ms, f"start {i}", sol, prob, ops, tol, r.tolerance_used)
            ref = cascades.get(self.lams[0])
            ms.expect(ref is None or all(same_solution(ref, s) for s in rep.solutions),
                      "multi-start solution differs from the cascade solution")


class Check2D(Workload):
    name = "check-2d"
    n = 128

    def prepare(self):
        # the seed moves the sub-box and scales h; the shape of h (negative
        # where cos(pi x1) > 0.6) and the box size stay fixed, so every seed
        # asks the power iterations for about the same work
        r = self.rng
        self.box = (float(r.uniform(0.23, 0.27)), float(r.uniform(0.23, 0.27)), 0.35)
        scale = float(r.uniform(0.8, 1.2))
        self.A, self.B = 0.3 * scale, 0.25 * scale
        x0, y0, w = self.box
        self.cfg = {
            "grid": {"dim": 2, "bounds": [[0.0, 1.0], [0.0, 1.0]], "n": [self.n, self.n]},
            "coefficients": {
                "c": f"indicator(1,{x0!r},{x0 + w!r})*indicator(2,{y0!r},{y0 + w!r})",
                "mu": "1+0.5*x2",
                "h": f"{self.A!r}*sin(pi*x1)*sin(pi*x2)-{self.B!r}*sin(2*pi*x1)*sin(pi*x2)",
            },
            "profile": "A1",
            "lambda": -1.0,
            "conditions": ["H0", "Hc", "H", "k1"],
            "seed": self.seed,
        }
        self.path = self._write_config("check.json", self.cfg)
        self._reference = None

    def describe(self):
        x0, y0, w = self.box
        return (f"c = 1 on [{x0:.4f},{x0 + w:.4f}]x[{y0:.4f},{y0 + w:.4f}], "
                f"h = {self.A:.4f} s1 s1 - {self.B:.4f} s2 s1 on {self.n}^2 cells")

    def setup(self, it):
        return {"it": it}

    def _outdir(self, it: int, cmd: str) -> Path:
        return self.work / f"{cmd}-{it}"

    def operations(self, state):
        def command(name):
            return lambda: run_cli([name, "--config", str(self.path),
                                    "--out", str(self._outdir(state["it"], name)),
                                    "--seed", str(self.seed)])

        return [("check", command("check")), ("eigen", command("eigen"))]

    def reference(self):
        """Margins and gamma1 from eigsh on numpy-sampled coefficients."""
        if self._reference is not None:
            return self._reference
        spec = GridSpec(2, ((0.0, 1.0), (0.0, 1.0)), (self.n, self.n))
        ops = grid.build_operators(spec)
        x0, y0, side = self.box
        A, B = self.A, self.B
        pts = spec.interior_points()
        x, y = pts[:, 0], pts[:, 1]
        c = ((x > x0) & (x <= x0 + side) & (y > y0) & (y <= y0 + side)).astype(float)
        mu = 1.0 + 0.5 * y
        h = A * np.sin(np.pi * x) * np.sin(np.pi * y) - B * np.sin(2 * np.pi * x) * np.sin(np.pi * y)
        hp, hm = np.maximum(h, 0.0), np.maximum(-h, 0.0)
        mu_p, mu_m = float(np.max(np.maximum(mu, 0.0))), float(np.max(np.maximum(-mu, 0.0)))
        off = c == 0.0
        L = ops.laplacian

        def margin(m, w, mask, stiffness=L):
            # 1 - M nu, with nu = 0 when the weight is nowhere positive
            if m == 0.0 or not np.any((w if mask is None else w[mask]) > 0.0):
                return 1.0
            return 1.0 - m * max(pencil_sup(w, stiffness, mask), 0.0)

        margins = {
            "H0": (margin(mu_p, hp, None), margin(mu_m, hm, None)),
            "Hc": (margin(mu_p, hp, off), margin(mu_m, hm, off)),
            "H": (margin(float(np.max(mu)), h, off),),
            "k1": (margin(1.0, h, off, ops.weighted_stiffness(1.0 / mu)),),
        }
        gamma = 1.0 / pencil_sup(c, L)
        self._reference = {"margins": margins, "gamma1": gamma, "c": c, "ops": ops}
        return self._reference

    def verify(self, it, outcomes):
        ref = self.reference()
        chk, eig = outcomes
        if chk.error is None:
            rep = read_json(self._outdir(it, "check") / "report.json")
            by_tag = {r["condition"]: r for r in rep["conditions"]}
            chk.expect(sorted(by_tag) == sorted(ref["margins"]), f"conditions {sorted(by_tag)}")
            holds = all(r["holds"] for r in by_tag.values())
            chk.expect(chk.result == (0 if holds else 2), f"exit code {chk.result}")
            for tag, want in ref["margins"].items():
                got = by_tag.get(tag)
                if got is None:
                    continue
                values = got["sub_infima"] if len(want) == 2 else [got["margin"]]
                chk.expect(values is not None and all(
                    abs(g - w) <= MARGIN_ABS for g, w in zip(values, want)),
                    f"{tag} margins {values} vs eigsh {list(want)}")
                chk.expect(got["holds"] == (min(want) > 0.0), f"{tag} verdict disagrees")
            chk.expect(close(rep["eigen"]["gamma1"], ref["gamma1"], EIGEN_REL),
                       f"check gamma1 {rep['eigen']['gamma1']!r} vs eigsh {ref['gamma1']!r}")
        if eig.error is None:
            verify_eigen_artifacts(eig, self._outdir(it, "eigen"), ref["c"], ref["ops"],
                                   ref["gamma1"])


class DemosCLI(Workload):
    name = "demos-cli"
    commands = (("branch", "demo_fig2"), ("branch", "demo_fig1"), ("check", "demo_fig1"),
                ("solve", "demo_manufactured"), ("eigen", "demo_fig2"))

    def prepare(self):
        self.configs = self.root / "demos" / "configs"
        self._reference = None

    def describe(self):
        return "shipped demo configs, seed passed through"

    def setup(self, it):
        return {"it": it}

    def _outdir(self, it: int, cmd: str, cfg: str) -> Path:
        return self.work / f"demos-{it}" / f"{cmd}-{cfg}"

    def operations(self, state):
        return [(f"{cmd} {cfg}",
                 (lambda cmd=cmd, cfg=cfg: run_cli(
                     [cmd, "--config", str(self.configs / f"{cfg}.json"),
                      "--out", str(self._outdir(state["it"], cmd, cfg)),
                      "--seed", str(self.seed)])))
                for cmd, cfg in self.commands]

    def reference(self):
        if self._reference is not None:
            return self._reference
        fig2 = GridSpec(1, ((0.0, 1.0),), (64,))
        fig1 = GridSpec(2, ((0.0, 30.0), (0.0, 30.0)), (32, 32))
        man = GridSpec(2, ((0.0, 1.0), (0.0, 1.0)), (32, 32))
        one = lambda *x: 1.0  # noqa: E731
        data = self.configs / "data"
        self._reference = {
            "fig2": (ProblemData(spec=fig2, c=sampled(fig2, one), mu=sampled(fig2, one),
                                 h=sampled(fig2, lambda x: 0.1 * np.sin(np.pi * x)),
                                 lam=-1.0, profile="A2"), grid.build_operators(fig2)),
            "fig1": (ProblemData(spec=fig1, c=sampled(fig1, one), mu=sampled(fig1, one),
                                 h=sampled(fig1, lambda x, y: np.pi**2 / 150.0),
                                 lam=-1.0, profile="A2"), grid.build_operators(fig1)),
            "manufactured": (ProblemData(
                spec=man, c=sampled(man, one), mu=sampled(man, one),
                h=CoefficientSpec.from_values(read_values(data / "h_manufactured_d2_n32.txt"),
                                              man),
                lam=-1.0, profile="A2"), grid.build_operators(man)),
            "u_star": read_values(data / "u_star_d2_n32.txt"),
        }
        return self._reference

    def verify(self, it, outcomes):
        ref = self.reference()
        by_label = {o.label: o for o in outcomes}
        fig2, ops2 = ref["fig2"]
        fig1, ops1 = ref["fig1"]
        man, opsm = ref["manufactured"]
        gamma_fig2 = first_dirichlet_eigenvalue(fig2.spec.bounds, fig2.spec.n)
        gamma_fig1 = first_dirichlet_eigenvalue(fig1.spec.bounds, fig1.spec.n)

        out = by_label["branch demo_fig2"]
        if out.error is None:
            verify_branch_artifacts(
                out, self._outdir(it, "branch", "demo_fig2"), fig2, ops2, 1e-10,
                {"gamma1": gamma_fig2, "termination": "norm_cap", "blowup_side": "right",
                 "two_solutions": True})

        out = by_label["branch demo_fig1"]
        if out.error is None:
            an = verify_branch_artifacts(
                out, self._outdir(it, "branch", "demo_fig1"), fig1, ops1, 1e-10,
                {"gamma1": gamma_fig1, "termination": "norm_cap", "blowup_side": "left"})
            if an is not None:
                out.expect(an["max_lambda"] < 0.0, "fig1 branch crosses lambda = 0")

        out = by_label["check demo_fig1"]
        if out.error is None and out.expect(out.result == 2, f"exit code {out.result}, "
                                            "expected 2 (condition fails)"):
            rep = read_json(self._outdir(it, "check", "demo_fig1") / "report.json")
            h0 = rep["conditions"][0]
            out.expect(h0["condition"] == "H0" and not h0["holds"] and h0["margin"] < 0.0,
                       f"H0 entry {h0}")
            out.expect(close(rep["eigen"]["gamma1"], gamma_fig1, EIGEN_REL),
                       "check gamma1 vs closed form")

        out = by_label["solve demo_manufactured"]
        if out.error is None and out.expect(out.result == 0, f"exit code {out.result}"):
            outdir = self._outdir(it, "solve", "demo_manufactured")
            rep = read_json(outdir / "report.json")
            u = read_values(outdir / "solution.txt")
            used = next(a["tolerance_used"] for a in rep["attempts"]
                        if a["strategy"] == rep["strategy"])
            check_solution(out, "manufactured", u, man, opsm, 1e-12, used)
            err = float(np.max(np.abs(u - ref["u_star"])))
            out.expect(err <= 1e-8, f"manufactured solution off by {err:.3e}")

        out = by_label["eigen demo_fig2"]
        if out.error is None:
            verify_eigen_artifacts(out, self._outdir(it, "eigen", "demo_fig2"),
                                   fig2.c.values, ops2, gamma_fig2)


WORKLOADS = {w.name: w for w in (Fold2D, Solve3D, Check2D, DemosCLI)}
