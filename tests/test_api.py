"""The public surface: the names ``gqc`` exports and its calls' parameters."""

import inspect

import pytest

import gqc
from gqc import conditions


def test_every_exported_name_resolves():
    assert len(set(gqc.__all__)) == len(gqc.__all__)
    namespace = {}
    exec("from gqc import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(gqc.__all__)


def test_one_call_checks_the_conditions():
    # one condition is check_conditions(problem, [tag], ops)[0]; no one-tag
    # wrapper is exported or kept in the module
    checks = {"check_conditions", "check_ferone_murat"}
    assert {name for name in gqc.__all__ if name.startswith("check_")} == checks
    assert {name for name in dir(conditions) if name.startswith("check_")} == checks


@pytest.mark.parametrize("name, params", [
    ("analyze_branch", ["branch", "gamma1"]),
    ("two_solutions", ["branch", "lam", "problem", "ops", "opts"]),
    ("locate_fold", ["branch", "problem", "ops", "opts"]),
    ("solve_transformed", ["problem", "ops", "opts"]),
    ("monotone_enclosure", ["problem", "ops", "opts"]),
])
def test_one_job_signatures(name, params):
    assert list(inspect.signature(getattr(gqc, name)).parameters) == params
