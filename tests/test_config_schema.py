"""The CLI's config checker against jsonschema's Draft 2020-12 validator.

``cli.load_config`` walks ``CONFIG_SCHEMA`` with a short in-house checker.
On finite input it must give the verdict jsonschema gives, and each
rejection must name a path that jsonschema also reports.
"""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqc.cli import CONFIG_SCHEMA, _schema_error

jsonschema = pytest.importorskip("jsonschema")

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos" / "configs"
VALIDATOR = jsonschema.Draft202012Validator(CONFIG_SCHEMA)

# the shapes of the fold-2d and check-2d benchmark configs, and one config
# that sets every optional section
FOLD_2D = {
    "grid": {"dim": 2, "bounds": [[0.0, 1.0], [0.0, 1.0]], "n": [48, 48]},
    "coefficients": {"c": "1", "mu": "1", "h": "0.1*sin(pi*x1)*sin(pi*x2)"},
    "profile": "A2",
    "lambda": -1.0,
    "solver": {"tol_residual": 1e-10},
    "continuation": {"lambda0": -2.0, "ds0": 0.1, "ds_min": 1e-6, "ds_max": 0.5,
                     "norm_cap": 3.0, "max_points": 400,
                     "two_solution_lambda": "half_fold"},
    "seed": 1,
}
CHECK_2D = {
    "grid": {"dim": 2, "bounds": [[0.0, 1.0], [0.0, 1.0]], "n": [128, 128]},
    "coefficients": {
        "c": "indicator(1,0.25,0.6)*indicator(2,0.25,0.6)",
        "mu": "1+0.5*x2",
        "h": "0.3*sin(pi*x1)*sin(pi*x2)-0.25*sin(2*pi*x1)*sin(pi*x2)",
    },
    "profile": "A1",
    "lambda": -1.0,
    "conditions": ["H0", "Hc", "H", "k1"],
    "seed": 1,
}
EVERY_SECTION = {
    "grid": {"dim": 3, "bounds": [[0, 1], [0, 2], [-1, 1]], "n": [4, 5, 6]},
    "coefficients": {"c": 1, "mu": 0.5, "h": {"file": "h.txt"}},
    "lambda": 2,
    "profile": "A5",
    "p_exponent": 2.5,
    "conditions": ["FeroneMurat"],
    "solver": {"tol_residual": 1e-12, "max_newton": 30},
    "continuation": {"lambda0": -1, "lambda_min": -100, "max_points": 2,
                     "two_solution_lambda": 0.5},
    "exponents": {"p": 2.0, "theta": 0.5, "N": 3},
    "seed": 0,
}
BASES = {name: json.loads((DEMO_DIR / f"{name}.json").read_text())
         for name in ("demo_fig1", "demo_fig2", "demo_manufactured")}
BASES.update(fold_2d=FOLD_2D, check_2d=CHECK_2D, every_section=EVERY_SECTION)


def _keys(schema):
    for key, sub in schema.get("properties", {}).items():
        yield key
        yield from _keys(sub)
    for sub in schema.get("oneOf", []):
        yield from _keys(sub)
    if "items" in schema:
        yield from _keys(schema["items"])


KEYS = sorted(set(_keys(CONFIG_SCHEMA))) + ["unknown_key"]
# type swaps (bools included), integers given as floats, values out of the
# ranges of dim, n, max_points and N, and every form of a coefficient
VALUES = [True, False, None, 0, 1, 2, 3, 4, 4.0, 4.5, -1, -2.5, 1e9,
          "", "1", "x1+", "half_fold", "fold", "H0", "A2",
          [], [4], [4.0, 4.5], [0.0, 1.0], [[0.0, 1.0]], [[0, 1], [0, 1], [0, 1], [0, 1]],
          {}, {"file": "h.txt"}, {"file": "h.txt", "extra": 1}, {"file": 2}]


def assert_agrees(cfg):
    paths = {e.json_path for e in VALIDATOR.iter_errors(cfg)}
    err = _schema_error(cfg, CONFIG_SCHEMA)
    if err is None:
        assert not paths, paths
    else:
        assert err[0] in paths, (err, paths)


def mutated(base: str, path: tuple, value=None, drop=False):
    cfg = copy.deepcopy(BASES[base])
    *parents, last = path
    node = cfg
    for key in parents:
        node = node[key]
    if drop:
        del node[last]
    else:
        node[last] = value
    return cfg


def test_config_schema_is_valid_draft_2020_12():
    jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)


@pytest.mark.parametrize("base", sorted(BASES))
def test_shipped_and_benchmark_configs_agree(base):
    assert _schema_error(BASES[base], CONFIG_SCHEMA) is None
    assert_agrees(BASES[base])


@pytest.mark.parametrize("base, path, value, drop", [
    ("fold_2d", ("grid", "dim"), None, True),
    ("fold_2d", ("coefficients", "h"), None, True),
    ("fold_2d", ("continuation", "lambda0"), None, True),
    ("fold_2d", ("unknown_key",), 1, False),
    ("fold_2d", ("grid", "unknown_key"), 1, False),
    ("every_section", ("exponents", "unknown_key"), 1, False),
    ("fold_2d", ("grid", "dim"), True, False),
    ("fold_2d", ("grid", "dim"), 2.0, False),
    ("fold_2d", ("grid", "dim"), 2.5, False),
    ("fold_2d", ("grid", "dim"), 0, False),
    ("fold_2d", ("grid", "dim"), 4, False),
    ("fold_2d", ("grid", "n"), [4.0, 4.0], False),
    ("fold_2d", ("grid", "n"), [4.5, 4], False),
    ("fold_2d", ("grid", "n"), [3, 4], False),
    ("fold_2d", ("grid", "n"), [], False),
    ("fold_2d", ("grid", "bounds"), [[0.0, 1.0, 2.0]], False),
    ("fold_2d", ("lambda",), False, False),
    ("fold_2d", ("seed",), 4.0, False),
    ("fold_2d", ("seed",), True, False),
    ("fold_2d", ("continuation", "max_points"), 1, False),
    ("fold_2d", ("continuation", "max_points"), 2.0, False),
    ("every_section", ("exponents", "N"), 2, False),
    ("every_section", ("solver", "max_newton"), 0, False),
    ("fold_2d", ("coefficients", "h"), 1.5, False),
    ("fold_2d", ("coefficients", "h"), True, False),
    ("fold_2d", ("coefficients", "h"), "", False),
    ("fold_2d", ("coefficients", "h"), {"file": "h.txt"}, False),
    ("fold_2d", ("coefficients", "h"), {"file": "h.txt", "extra": 1}, False),
    ("fold_2d", ("coefficients", "h"), {"file": 2}, False),
    ("fold_2d", ("coefficients", "h"), {}, False),
    ("fold_2d", ("continuation", "two_solution_lambda"), "half_fold", False),
    ("fold_2d", ("continuation", "two_solution_lambda"), "fold", False),
    ("fold_2d", ("continuation", "two_solution_lambda"), 2, False),
    ("fold_2d", ("continuation", "two_solution_lambda"), True, False),
    ("check_2d", ("conditions", 1), "H1", False),
    ("check_2d", ("conditions",), "H0", False),
    ("check_2d", ("profile",), "A4", False),
])
def test_listed_mutations_agree(base, path, value, drop):
    assert_agrees(mutated(base, path, value, drop))


def _containers(value):
    if isinstance(value, (dict, list)):
        yield value
        for item in (value.values() if isinstance(value, dict) else value):
            yield from _containers(item)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_random_mutations_agree(data):
    cfg = copy.deepcopy(BASES[data.draw(st.sampled_from(sorted(BASES)))])
    for _ in range(data.draw(st.integers(1, 3))):
        node = data.draw(st.sampled_from(list(_containers(cfg))))
        value = copy.deepcopy(data.draw(st.sampled_from(VALUES)))
        if isinstance(node, dict):
            key = data.draw(st.sampled_from(KEYS + sorted(node)))
            present = key in node
        else:
            key = data.draw(st.integers(0, len(node)))
            present = key < len(node)
        if present and data.draw(st.booleans()):
            del node[key]
        elif present or isinstance(node, dict):
            node[key] = value
        else:
            node.append(value)
    assert_agrees(cfg)


@pytest.mark.parametrize("value", [3, 3.5, "3"])
def test_one_of_needs_exactly_one_match(value):
    # CONFIG_SCHEMA's oneOf forms exclude each other; these two overlap on 3
    schema = {"oneOf": [{"type": "number"}, {"type": "integer"}]}
    errors = list(jsonschema.Draft202012Validator(schema).iter_errors(value))
    assert (_schema_error(value, schema) is None) == (not errors)
