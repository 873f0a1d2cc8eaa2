import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import gqc
from gqc import (
    ContinuationOptions,
    GridSpec,
    ProblemData,
    build_operators,
    parse_coefficient,
    trace_branch,
)


def make_problem(spec, c="1", mu="1", h="0", lam=-1.0, profile="A1", p_exponent=2.0):
    def coeff(src):
        if isinstance(src, str):
            return parse_coefficient(src, spec)
        from gqc.problem import CoefficientSpec

        return CoefficientSpec.from_values(np.asarray(src, dtype=float), spec)

    return ProblemData(
        spec=spec, c=coeff(c), mu=coeff(mu), h=coeff(h),
        lam=lam, profile=profile, p_exponent=p_exponent,
    )


def fresh_cli(args):
    """``gqc.cli.main(args)`` in a fresh interpreter that imports gqc from
    this checkout. Returns its exit code and which of ``scipy.linalg``
    (LAPACK) and ``scipy.sparse.linalg`` (SuperLU) it loaded; ``args``
    should hold ``--quiet``, as the module names are its last stdout line
    (None if it printed none)."""
    src = str(Path(gqc.__file__).resolve().parent.parent)
    code = ("import sys; from gqc.cli import main; code = main(sys.argv[1:]); "
            "print(*(m for m in ('scipy.linalg', 'scipy.sparse.linalg') if m in sys.modules)); "
            "sys.exit(code)")
    run = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    lines = run.stdout.splitlines()
    return run.returncode, lines[-1].split() if lines else None


class _TrackedLU:
    """A SuperLU behind an object that takes a weak reference."""

    def __init__(self, lu):
        self.lu = lu

    def solve(self, b):
        return self.lu.solve(b)


@pytest.fixture
def one_lu_at_a_time(monkeypatch):
    """Every sparse LU first checks, after ``gc.collect()``, that no earlier
    one is alive. Returns the list of (unknowns, weak reference) per LU."""
    import scipy.sparse.linalg as spla

    made = []
    splu = spla.splu

    def tracked_splu(A, **kw):
        gc.collect()
        assert all(ref() is None for _, ref in made), "an earlier LU is still alive"
        lu = _TrackedLU(splu(A, **kw))
        made.append((A.shape[0], weakref.ref(lu)))
        return lu

    monkeypatch.setattr(spla, "splu", tracked_splu)
    return made


def make_a3_problem(spec, d, mu, h):
    """The profile-A3 problem whose transform route has data (d, mu, h):
    lam = -1 and c = -d. Each field is an expression, an array or a constant."""
    def field(src):
        if isinstance(src, str):
            return src
        return np.broadcast_to(np.asarray(src, dtype=float), (spec.n_interior,))

    c = f"-({d})" if isinstance(d, str) else -field(d)
    return make_problem(spec, c=c, mu=field(mu), h=field(h), lam=-1.0, profile="A3")


@pytest.fixture(scope="session")
def interval64():
    spec = GridSpec(1, ((0.0, 1.0),), (64,))
    return spec, build_operators(spec)


@pytest.fixture(scope="session")
def square32():
    spec = GridSpec(2, ((0.0, 1.0), (0.0, 1.0)), (32, 32))
    return spec, build_operators(spec)


@pytest.fixture(scope="session")
def square64():
    spec = GridSpec(2, ((0.0, 1.0), (0.0, 1.0)), (64, 64))
    return spec, build_operators(spec)


@pytest.fixture(scope="session")
def fold_demo(interval64):
    """The folded family (c=1, mu=1, h=0.1 sin(pi x), n=64) traced once."""
    spec, ops = interval64
    problem = make_problem(spec, h="0.1*sin(pi*x1)", profile="A2")
    opts = ContinuationOptions(norm_cap=3.0, max_points=400)
    branch = trace_branch(problem, -2.0, ops, opts)
    return {"spec": spec, "ops": ops, "problem": problem, "opts": opts, "branch": branch}


@pytest.fixture(scope="session")
def blowup_demo():
    """The H0-violating family on the (0,30)^2 box traced once."""
    spec = GridSpec(2, ((0.0, 30.0), (0.0, 30.0)), (32, 32))
    ops = build_operators(spec)
    problem = make_problem(spec, h="pi^2/150", profile="A2")
    opts = ContinuationOptions(norm_cap=2.0, max_points=400)
    branch = trace_branch(problem, -2.0, ops, opts)
    return {"spec": spec, "ops": ops, "problem": problem, "opts": opts, "branch": branch}
