"""Arithmetic expressions for coefficient fields.

The grammar is a checked subset of Python's expression grammar, with
``^`` for the power (``**`` itself is rejected). Precedence, high to low:
``^`` (right associative, its exponent may carry a unary minus), unary
``-``, ``* /``, ``+ -``. Numbers are decimal literals such as ``2``,
``0.5`` or ``1e-3``. Identifiers: variables ``x1 .. x3``, the constant
``pi``, unary functions ``sin cos exp ln abs`` and the forms ``min(a, b)``,
``max(a, b)`` and ``indicator(axis, lo, hi)``. The indicator is 1 where
lo < x_axis <= hi and 0 elsewhere; axis is an integer in 1..3, and its
three arguments are numeric literals (optionally negated) or ``pi``.

``parse_expression`` parses with ``ast`` and returns the checked tree;
``evaluate`` samples it. Errors are ``ExpressionError``s that carry the
character position in the caller's text when one applies.
"""

from __future__ import annotations

import ast
import operator
import re
import warnings

import numpy as np

UNARY_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "ln": np.log,
    "abs": np.abs,
}

_BINARY_FUNCTIONS = {"min": np.minimum, "max": np.maximum}

_OPERATORS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}

_VARIABLES = {"x1": 1, "x2": 2, "x3": 3}

# everything else (quotes, brackets, '#', ':', '=', '%', non-ASCII) is
# rejected up front, so character offsets equal the parser's byte offsets
_BAD_CHARACTER = re.compile(r"[^A-Za-z0-9_.+\-*/^(),\s]", re.ASCII)
_NUMBER = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")


class ExpressionError(ValueError):
    """Syntax or evaluation error; carries the character position when known."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


def parse_expression(text: str) -> ast.expr:
    """Parse ``text`` into a checked tree whose node offsets index ``text``."""
    if not text or not text.strip():
        raise ExpressionError("empty expression", 0)
    bad = _BAD_CHARACTER.search(text)
    if bad:
        raise ExpressionError(f"unexpected character {bad.group()!r}", bad.start())
    if "**" in text:
        raise ExpressionError("write the power as '^', not '**'", text.index("**"))
    # eval mode takes a leading space for an indent and a newline as an end
    body = text.lstrip()
    start = len(text) - len(body)
    source = re.sub(r"\s", " ", body).replace("^", "**")
    # position in ``text`` of every character of ``source``, plus its end
    where = [start + i for i, ch in enumerate(body) for _ in range(1 + (ch == "^"))]
    where.append(len(text))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", SyntaxWarning)  # e.g. "1if" -> SyntaxError
            tree = ast.parse(source, mode="eval").body
        for node in (n for n in ast.walk(tree) if isinstance(n, ast.expr)):
            node.col_offset = where[node.col_offset]
            node.end_col_offset = where[node.end_col_offset]
            if isinstance(node, ast.Constant):
                literal = text[node.col_offset:node.end_col_offset]
                if not _NUMBER.fullmatch(literal):
                    raise ExpressionError(f"unsupported literal {literal!r}", node.col_offset)
                node.value = float(literal)
        # an empty grid in three dimensions reaches every node and every check
        _evaluate(tree, np.zeros((0, 3)))
    except SyntaxError as exc:
        # offsets are 1-based; the parser gives 0 or None at the end of input
        offset = min(exc.offset - 1 if exc.offset else len(source), len(source))
        raise ExpressionError(exc.msg, where[offset]) from None
    except RecursionError:
        raise ExpressionError("expression nested too deeply") from None
    return tree


def evaluate(node: ast.expr, coords: np.ndarray) -> np.ndarray:
    """Evaluate a tree from ``parse_expression`` over points given as an
    (npoints, dim) coordinate array."""
    try:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return _evaluate(node, coords)
    except RecursionError:
        raise ExpressionError("expression nested too deeply") from None


def _evaluate(node: ast.expr, coords: np.ndarray) -> np.ndarray:
    npts, dim = coords.shape

    def column(axis: int, at: ast.expr) -> np.ndarray:
        if axis > dim:
            raise ExpressionError(f"variable x{axis} undefined on a {dim}-d grid", at.col_offset)
        return coords[:, axis - 1]

    def rec(e: ast.expr) -> np.ndarray:
        if isinstance(e, ast.Constant):
            return np.full(npts, e.value)
        if isinstance(e, ast.Name):
            if e.id == "pi":
                return np.full(npts, np.pi)
            if e.id in _VARIABLES:
                return column(_VARIABLES[e.id], e).copy()
            raise ExpressionError(f"unknown identifier {e.id!r}", e.col_offset)
        if isinstance(e, ast.UnaryOp) and isinstance(e.op, ast.USub):
            return -rec(e.operand)
        if isinstance(e, ast.BinOp) and type(e.op) in _OPERATORS:
            return _OPERATORS[type(e.op)](rec(e.left), rec(e.right))
        if isinstance(e, ast.Call) and isinstance(e.func, ast.Name) and not e.keywords:
            return call(e.func.id, e.args, e)
        what = type(getattr(e, "op", e)).__name__  # the operator of UAdd, FloorDiv, ...
        raise ExpressionError(f"unsupported syntax {what}", e.col_offset)

    def call(name: str, args: list[ast.expr], at: ast.expr) -> np.ndarray:
        if name == "indicator" and len(args) == 3:
            axis, lo, hi = (_literal(a) for a in args)
            if axis not in (1, 2, 3):
                raise ExpressionError("indicator axis must be an integer in 1..3", at.col_offset)
            x = column(int(axis), at)
            return np.where((x > lo) & (x <= hi), 1.0, 0.0)
        if name in UNARY_FUNCTIONS and len(args) == 1:
            return UNARY_FUNCTIONS[name](rec(args[0]))
        if name in _BINARY_FUNCTIONS and len(args) == 2:
            return _BINARY_FUNCTIONS[name](rec(args[0]), rec(args[1]))
        raise ExpressionError(f"no function {name!r} of {len(args)} argument(s)", at.col_offset)

    return rec(node)


def _literal(node: ast.expr) -> float:
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_literal(node.operand)
    if isinstance(node, ast.Name) and node.id == "pi":
        return float(np.pi)
    raise ExpressionError("indicator arguments must be numeric literals", node.col_offset)
