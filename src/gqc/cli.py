"""Command-line front end: condition checks, solves, branch traces.

Subcommands and their artifacts (written under --out, default "."):

* ``check``    : report.json with one {condition, holds, margin, sub_infima}
                 entry per requested condition plus the first eigenvalue.
* ``solve``    : solution.txt (flat values file) and report.json. Newton
                 from zero; report.json records the attempt.
* ``branch``   : branch.csv (columns idx, lambda, sup_norm, h10_norm,
                 arclength, newton_iters), analysis.json, and the refined
                 two-solution files when requested.
* ``eigen``    : eigenfunction.txt and report.json.
* ``exponents``: report.json with the exponent witness.

Exit codes: 0 success, 1 usage, config or expression error, 2 a requested
condition fails, 3 a solve or another numerical step failed (any
``RuntimeError``). ``main`` writes the command's report (analysis.json for
``branch``, report.json for the others) on exits 0, 2 and 3; on exit 3 it
carries ``error``. Exit 1 writes none, except when ``branch``'s requested
two-solution lambda turns out undefined only after the trace: then
branch.csv and analysis.json, with the trace's analysis and ``error``, are
written. Reports embed the sha256 of the
canonical config and the seed, so a run is reproducible from its report.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from .conditions import (
    CONDITION_TAGS,
    EigenError,
    check_conditions,
    find_exponents,
    first_eigen,
)
from .continuation import ContinuationOptions, analyze_branch, trace_branch, two_solutions
from .grid import GridSpec, build_operators, norms
from .problem import (
    PROFILES,
    CoefficientSpec,
    ProblemData,
    parse_coefficient,
    save_values_file,
    validate_profile,
)
from .solver import SolveOptions, SolverError, residual_P, solve_cascade

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONDITION_FAILED = 2
EXIT_SOLVE_FAILED = 3

_NUM = {"type": "number"}

_COEFF_SCHEMA = {
    "oneOf": [
        {"type": "string", "minLength": 1},
        {"type": "number"},
        {
            "type": "object",
            "properties": {"file": {"type": "string"}},
            "required": ["file"],
            "additionalProperties": False,
        },
    ]
}

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "grid": {
            "type": "object",
            "properties": {
                "dim": {"type": "integer", "minimum": 1, "maximum": 3},
                "bounds": {
                    "type": "array",
                    "items": {
                        "type": "array",
                        "items": _NUM,
                        "minItems": 2,
                        "maxItems": 2,
                    },
                    "minItems": 1,
                    "maxItems": 3,
                },
                "n": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 4},
                    "minItems": 1,
                    "maxItems": 3,
                },
            },
            "required": ["dim", "bounds", "n"],
            "additionalProperties": False,
        },
        "coefficients": {
            "type": "object",
            "properties": {"c": _COEFF_SCHEMA, "mu": _COEFF_SCHEMA, "h": _COEFF_SCHEMA},
            "required": ["c", "mu", "h"],
            "additionalProperties": False,
        },
        "lambda": _NUM,
        "profile": {"enum": list(PROFILES)},
        "p_exponent": _NUM,
        "conditions": {
            "type": "array",
            "items": {"enum": list(CONDITION_TAGS)},
        },
        "solver": {
            "type": "object",
            "properties": {
                "tol_residual": _NUM,
                "max_newton": {"type": "integer", "minimum": 1},
            },
            "additionalProperties": False,
        },
        "continuation": {
            "type": "object",
            "properties": {
                "lambda0": _NUM,
                "ds0": _NUM,
                "ds_min": _NUM,
                "ds_max": _NUM,
                "norm_cap": _NUM,
                "max_points": {"type": "integer", "minimum": 2},
                "lambda_min": _NUM,
                "two_solution_lambda": {"oneOf": [_NUM, {"const": "half_fold"}]},
            },
            "required": ["lambda0"],
            "additionalProperties": False,
        },
        "exponents": {
            "type": "object",
            "properties": {
                "p": _NUM,
                "theta": _NUM,
                "N": {"type": "integer", "minimum": 3},
            },
            "required": ["p", "theta", "N"],
            "additionalProperties": False,
        },
        "seed": {"type": "integer"},
    },
    "additionalProperties": False,
}


class ConfigError(ValueError):
    pass


def _has_type(value, name: str) -> bool:
    # JSON Schema types: a bool is no number, and 4.0 is an integer
    if name in ("number", "integer"):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        return name == "number" or isinstance(value, int) or value.is_integer()
    return isinstance(value, {"object": dict, "array": list, "string": str}[name])


def _schema_error(value, schema: dict, path: str = "$") -> tuple[str, str] | None:
    """The first place where ``value`` breaks ``schema`` as (json_path,
    message), or None.

    Interprets the Draft 2020-12 keywords that CONFIG_SCHEMA uses, with
    one difference: NaN and infinite numbers, which ``json`` reads from
    ``NaN``, ``Infinity`` and ``1e400``, are refused wherever they stand.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return path, f"{value!r} is not a finite number"
    if "type" in schema and not _has_type(value, schema["type"]):
        return path, f"{value!r} is not of type {schema['type']!r}"
    if "enum" in schema and value not in schema["enum"]:
        return path, f"{value!r} is not one of {schema['enum']!r}"
    if "const" in schema and value != schema["const"]:
        return path, f"{schema['const']!r} was expected"
    if "oneOf" in schema:
        matches = sum(_schema_error(value, s, path) is None for s in schema["oneOf"])
        if matches != 1:
            return path, f"{value!r} matches {matches} of {len(schema['oneOf'])} forms, not 1"
    if _has_type(value, "number"):
        if value < schema.get("minimum", value):
            return path, f"{value!r} is less than the minimum of {schema['minimum']!r}"
        if value > schema.get("maximum", value):
            return path, f"{value!r} is greater than the maximum of {schema['maximum']!r}"
    if isinstance(value, str) and len(value) < schema.get("minLength", 0):
        return path, f"{value!r} is too short"
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            return path, f"{value!r} is too short"
        if len(value) > schema.get("maxItems", len(value)):
            return path, f"{value!r} is too long"
        for i, item in enumerate(value):
            if err := _schema_error(item, schema.get("items", {}), f"{path}[{i}]"):
                return err
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", []):
            if key not in value:
                return path, f"{key!r} is a required property"
        for key, item in value.items():
            if key in props:
                if err := _schema_error(item, props[key], f"{path}.{key}"):
                    return err
            elif schema.get("additionalProperties", True) is False:
                return path, f"additional properties are not allowed ({key!r} was unexpected)"
    return None


def config_sha256(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def load_config(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if err := _schema_error(cfg, CONFIG_SCHEMA):
        raise ConfigError("config error at {}: {}".format(*err))
    cfg["__dir__"] = str(p.parent)
    return cfg


def _coefficient(entry, spec: GridSpec, base_dir: str) -> CoefficientSpec:
    if isinstance(entry, (int, float)):
        return CoefficientSpec.constant(spec, float(entry))
    if isinstance(entry, str):
        return parse_coefficient(entry, spec)
    path = Path(entry["file"])
    if not path.is_absolute():
        path = Path(base_dir) / path
    if not path.exists():
        raise ConfigError(f"coefficient data file not found: {path}")
    return CoefficientSpec.from_file(path, spec)


def build_problem(cfg: dict, lam: float | None = None) -> ProblemData:
    if "grid" not in cfg:
        raise ConfigError("config needs a 'grid' section")
    if "coefficients" not in cfg:
        raise ConfigError("config needs a 'coefficients' section")
    g = cfg["grid"]
    spec = GridSpec(dim=g["dim"], bounds=tuple(tuple(b) for b in g["bounds"]),
                    n=tuple(g["n"]))
    base = cfg.get("__dir__", ".")
    co = cfg["coefficients"]
    c = _coefficient(co["c"], spec, base)
    mu = _coefficient(co["mu"], spec, base)
    h = _coefficient(co["h"], spec, base)
    if lam is None:
        lam = float(cfg.get("lambda", 0.0))
    return ProblemData(
        spec=spec, c=c, mu=mu, h=h, lam=lam,
        p_exponent=float(cfg.get("p_exponent", 2.0)),
        profile=cfg.get("profile", "A1"),
    )


def _options(cls, section: dict, **fixed):
    """``cls`` with the values a config section sets, each coerced to the
    type of the field's default; every other field keeps its default."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    return cls(**{k: type(defaults[k])(v) for k, v in section.items()}, **fixed)


def solve_options(cfg: dict) -> SolveOptions:
    return _options(SolveOptions, cfg.get("solver", {}))


def continuation_options(cfg: dict) -> ContinuationOptions:
    # lambda0 and two_solution_lambda are read by cmd_branch, not options
    c = {k: v for k, v in cfg.get("continuation", {}).items()
         if k not in ("lambda0", "two_solution_lambda")}
    return _options(ContinuationOptions, c, solve=solve_options(cfg))


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _say(quiet: bool, msg: str) -> None:
    if not quiet:
        print(msg)


# ---------------------------------------------------------------------------
# subcommands: each fills the report payload and returns an exit code; a
# numerical failure is a RuntimeError, which main records in the report


def cmd_check(cfg: dict, out: Path, payload: dict, quiet: bool) -> int:
    problem = build_problem(cfg)
    ops = build_operators(problem.spec)
    requested = cfg.get("conditions")
    if not requested:
        requested = ["H0", "Hc"]
        if problem.spec.dim == 3:
            requested.append("FeroneMurat")
    reports = check_conditions(problem, requested, ops)

    gamma_entry = None
    try:
        eig = first_eigen(problem.c, ops)
        gamma_entry = {"gamma1": eig.gamma, "residual": eig.residual,
                       "iterations": eig.iterations}
    except EigenError as exc:
        gamma_entry = {"error": str(exc)}

    payload["conditions"] = [r.to_dict() for r in reports]
    payload["eigen"] = gamma_entry
    for r in reports:
        mark = "holds" if r.holds else "FAILS"
        note = f"  ({r.note})" if r.note else ""
        _say(quiet, f"{r.condition:>12}: {mark}  margin={r.infimum_estimate:+.6g}{note}")
    if gamma_entry and "gamma1" in gamma_entry:
        _say(quiet, f"      gamma1: {gamma_entry['gamma1']:.8g}")
    return EXIT_OK if all(r.holds for r in reports) else EXIT_CONDITION_FAILED


def cmd_solve(cfg: dict, out: Path, payload: dict, quiet: bool) -> int:
    if "lambda" not in cfg:
        raise ConfigError("solve needs a fixed 'lambda' in the config")
    problem = build_problem(cfg)
    ops = build_operators(problem.spec)
    opts = solve_options(cfg)
    solution, strategy, attempts = solve_cascade(problem, ops, opts)

    payload["lambda"] = problem.lam
    payload["attempts"] = attempts
    payload["profile"] = {
        "name": problem.profile,
        "passed": validate_profile(problem).passed,
    }
    payload["converged"] = solution is not None
    if solution is None:
        raise SolverError(f"solve failed at lambda = {problem.lam} "
                          f"(newton: {attempts[-1]['failure_reason']})")

    nr = norms(solution, ops)
    resid = residual_P(solution, problem, ops)
    payload["strategy"] = strategy
    payload["norms"] = {"sup": nr.sup, "h10": nr.h10, "l2": nr.lp, "integral": nr.integral}
    payload["residual_sup"] = float(np.max(np.abs(resid.values), initial=0.0))
    save_values_file(out / "solution.txt", solution.values)
    _say(quiet, f"solved via {strategy}: sup = {nr.sup:.6g}, h10 = {nr.h10:.6g}")
    return EXIT_OK


def cmd_branch(cfg: dict, out: Path, payload: dict, quiet: bool) -> int:
    if "continuation" not in cfg:
        raise ConfigError("branch needs a 'continuation' section with lambda0")
    problem = build_problem(cfg)
    ops = build_operators(problem.spec)
    copts = continuation_options(cfg)
    lam0 = float(cfg["continuation"]["lambda0"])
    if lam0 >= 0.0:
        raise ConfigError(f"continuation.lambda0 must be negative, got {lam0}")
    branch = trace_branch(problem, lam0, ops, copts)
    lines = ["idx,lambda,sup_norm,h10_norm,arclength,newton_iters"]
    for i, p in enumerate(branch.points):
        lines.append(
            f"{i},{p.lam:.17g},{p.sup_norm:.17g},{p.h10_norm:.17g},{p.s:.17g},{p.newton_iters}"
        )
    (out / "branch.csv").write_text("\n".join(lines) + "\n")
    payload["points"] = len(branch.points)
    payload["folds"] = branch.folds

    try:
        gamma1 = first_eigen(problem.c, ops).gamma
    except EigenError as exc:
        gamma1 = None
        payload["eigen"] = {"error": str(exc)}

    analysis = analyze_branch(branch, gamma1)
    payload.update(analysis.to_dict())

    req = cfg["continuation"].get("two_solution_lambda")
    two_lam = None
    if req == "half_fold" and branch.folds and branch.max_lambda() > 0.0:
        two_lam = 0.5 * branch.max_lambda()
    elif isinstance(req, (int, float)):
        two_lam = float(req)
    if two_lam is not None:
        try:
            pair = two_solutions(branch, two_lam, problem, ops, copts)
        except ValueError as exc:  # the requested pair is undefined on the traced branch
            payload["error"] = str(exc)
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        payload["two_solutions"] = pair.to_dict()
        save_values_file(out / "solution_low.txt", pair.u_low.values)
        save_values_file(out / "solution_high.txt", pair.u_high.values)
    _say(
        quiet,
        f"branch: {len(branch.points)} points, termination={branch.termination}, "
        f"max lambda = {analysis.max_lambda:.6g}, "
        f"gamma1 = {math.nan if gamma1 is None else gamma1:.6g}, "
        f"blowup side = {analysis.blowup_side}",
    )
    return EXIT_OK


def cmd_eigen(cfg: dict, out: Path, payload: dict, quiet: bool) -> int:
    problem = build_problem(cfg)
    ops = build_operators(problem.spec)
    eig = first_eigen(problem.c, ops)
    payload["gamma1"] = eig.gamma
    payload["residual"] = eig.residual
    payload["iterations"] = eig.iterations
    save_values_file(out / "eigenfunction.txt", eig.phi.values)
    _say(quiet, f"gamma1 = {eig.gamma:.10g} (residual {eig.residual:.3e})")
    return EXIT_OK


def cmd_exponents(cfg: dict, out: Path, payload: dict, quiet: bool) -> int:
    if "exponents" not in cfg:
        raise ConfigError("exponents needs an 'exponents' section with p, theta, N")
    e = cfg["exponents"]
    try:
        witness = find_exponents(float(e["p"]), float(e["theta"]), int(e["N"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    payload["witness"] = witness.to_dict()
    _say(
        quiet,
        f"witness: alpha={witness.alpha:.6g}, r={witness.r:.6g}, "
        f"q={witness.q:.6g}, tau={witness.tau:.6g}",
    )
    return EXIT_OK


# ---------------------------------------------------------------------------


_COMMANDS = {
    "check": cmd_check,
    "solve": cmd_solve,
    "branch": cmd_branch,
    "eigen": cmd_eigen,
    "exponents": cmd_exponents,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``main`` call of a process
    and reused, as building it costs over ten parses: ``parse_args`` returns
    a fresh namespace each time and keeps no state of its own."""
    parser = argparse.ArgumentParser(
        prog="gqc",
        description="Solvers and branch continuation for the quadratic-gradient "
        "elliptic problem.",
    )
    sub = parser.add_subparsers(dest="command")
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--quiet", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if not args.command:
        parser.print_usage()
        return EXIT_USAGE

    try:
        cfg = load_config(args.config)
        clean = {k: v for k, v in cfg.items() if k != "__dir__"}
        payload = {
            "command": args.command,
            "config_sha256": config_sha256(clean),
            "seed": args.seed if args.seed is not None else int(cfg.get("seed", 0)),
        }
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        try:
            code = _COMMANDS[args.command](cfg, out, payload, args.quiet)
        except RuntimeError as exc:  # numerical failures: solver, eigen, LU
            payload["error"] = str(exc)
            print(f"solve failed: {exc}", file=sys.stderr)
            code = EXIT_SOLVE_FAILED
        report = "analysis.json" if args.command == "branch" else "report.json"
        _write_json(out / report, payload)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # expression errors, grid errors, value errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()
