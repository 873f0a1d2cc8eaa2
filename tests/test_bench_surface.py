"""The gqc names the benchmark under ``bench/`` reaches, read from its sources
by ``ast``, without importing or writing anything there. ``bench/spans.py``
finds functions by name and ``bench/workloads.py`` binds arguments by name,
so a refactor that drops or renames one fails here, in tier 1, and not only
in CI's traced smoke runs."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from gqc import cli, continuation, solver

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _module_level(path: Path, name: str) -> ast.expr:
    """The expression assigned to ``name`` at module level in ``path``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name for target in node.targets):
            return node.value
    raise AssertionError(f"{path.name} assigns no {name}")


@pytest.mark.parametrize("table, kind", [("METHODS", "function"),
                                         ("CLASSMETHODS", "classmethod")])
def test_span_tables_resolve(table, kind):
    entries = ast.literal_eval(_module_level(BENCH / "spans.py", table))
    assert entries
    for (module, class_name), attrs in entries.items():
        owner = getattr(importlib.import_module(f"gqc.{module}"), class_name)
        for attr in attrs:
            found = vars(owner)[attr]
            if kind == "classmethod":
                assert isinstance(found, classmethod), (class_name, attr)
            else:
                assert inspect.isfunction(found), (class_name, attr)


def test_result_hooks_name_functions():
    hooks = _module_level(BENCH / "spans.py", "RESULT_HOOKS")
    names = [ast.literal_eval(key) for key in hooks.keys]
    assert "solver.newton_quasilinear" in names
    for name in names:
        module, attr = name.split(".")
        assert inspect.isfunction(getattr(importlib.import_module(f"gqc.{module}"), attr)), name


def test_workload_attributes_resolve():
    # every module.attr that workloads.py reads off a gqc module it imports
    tree = ast.parse((BENCH / "workloads.py").read_text())
    modules = {alias.asname or alias.name: importlib.import_module(f"gqc.{alias.name}")
               for node in tree.body if isinstance(node, ast.ImportFrom) and node.module == "gqc"
               for alias in node.names}
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert ("continuation", "locate_fold") in used
    for module, attr in used:
        assert hasattr(modules[module], attr), (module, attr)


def test_trace_branch_binds_problem_ops_and_opts():
    # fold-2d captures cli.trace_branch's bound arguments by these names and
    # hands them to locate_fold
    assert cli.trace_branch is continuation.trace_branch
    assert {"problem", "ops", "opts"} <= set(inspect.signature(cli.trace_branch).parameters)


@pytest.mark.parametrize("module, name", [
    (continuation, "locate_fold"), (solver, "solve_cascade"), (solver, "monotone_enclosure"),
    (solver, "multi_start"), (solver, "residual_P"), (solver, "newton_quasilinear"),
    (solver, "quasilinear_jacobian"),
])
def test_traced_names_exist(module, name):
    assert inspect.isfunction(getattr(module, name))
