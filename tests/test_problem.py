import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqc import GridSpec, compute_zero_mask, parse_coefficient, validate_profile
from gqc.expressions import ExpressionError, parse_expression
from gqc.grid import GridError
from gqc.problem import CoefficientSpec, load_values_file, save_values_file

from conftest import make_problem


@pytest.fixture(scope="module")
def square8():
    return GridSpec(2, ((0.0, 1.0), (0.0, 1.0)), (8, 8))


# ---------------------------------------------------------------------------
# parsing and evaluation


def test_zero_expression(square8):
    c = parse_coefficient("0", square8)
    assert np.all(c.values == 0.0)


def test_product_of_sines_peak(square8):
    c = parse_coefficient("sin(pi*x1)*sin(pi*x2)", square8)
    pts = square8.interior_points()
    center = np.argmin(np.abs(pts[:, 0] - 0.5) + np.abs(pts[:, 1] - 0.5))
    assert c.values[center] == pytest.approx(1.0, abs=1e-12)


def test_indicator_semantics():
    spec = GridSpec(1, ((0.0, 1.0),), (8,))
    c = parse_coefficient("indicator(1, 0.5, 1.0)", spec)
    x = spec.axis_coords(0)
    assert np.array_equal(c.values, np.where(x > 0.5, 1.0, 0.0))


@pytest.mark.parametrize(
    "text,x,expected",
    [
        ("2^3^2", 0.1, 512.0),           # right-associative power
        ("-2^2", 0.1, -4.0),             # ^ binds tighter than unary minus
        ("2*3+4", 0.1, 10.0),
        ("2+3*4", 0.1, 14.0),
        ("6/3/2", 0.1, 1.0),             # left-associative division
        ("min(x1, 0.25)", 0.5, 0.25),
        ("max(2*x1, 0.25)", 0.5, 1.0),
        ("abs(0-x1)", 0.5, 0.5),
        ("exp(ln(4))", 0.5, 4.0),
        ("cos(0*x1)", 0.5, 1.0),
        ("pi/pi", 0.5, 1.0),
        ("1 + 2*x1", 0.25, 1.5),
        ("-x1^2 + 3", 0.5, 2.75),
        ("2^-x1", 0.5, 2.0**-0.5),
        ("1 - 2 - 3", 0.1, -4.0),        # left-associative subtraction
        ("1 - (2 - 3)", 0.1, 2.0),
        ("abs(x1 - 0.5)^1.5", 0.25, 0.125),
        (" 1 +\n\t2", 0.1, 3.0),         # leading, tab and newline whitespace
    ],
)
def test_expression_values(text, x, expected):
    spec = GridSpec(1, ((0.0, 1.0),), (8,))
    c = parse_coefficient(text, spec)
    xs = spec.axis_coords(0)
    idx = int(np.argmin(np.abs(xs - x)))
    assert c.values[idx] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "text,point,expected",
    [
        ("sin(pi*x1)*cos(pi*x2)", (0.5, 0.25), np.cos(np.pi / 4)),
        ("min(x1, max(x2, 0.5))", (0.75, 0.25), 0.5),
        ("indicator(2, 0.25, 0.75) * exp(-x1)", (0.5, 0.5), np.exp(-0.5)),
        ("indicator(2, 0.25, 0.75) * exp(-x1)", (0.5, 0.25), 0.0),  # lo excluded
        ("(x1 + x2)/(1 + x1*x2)", (0.5, 0.5), 0.8),
    ],
)
def test_expression_values_2d(square8, text, point, expected):
    c = parse_coefficient(text, square8)
    idx = int(np.argmin(np.sum(np.abs(square8.interior_points() - point), axis=1)))
    assert c.values[idx] == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_syntax_error_carries_position():
    with pytest.raises(ExpressionError) as err:
        parse_expression("1 + * 2")
    assert err.value.position == 4


def test_undefined_variable_for_dimension(square8):
    with pytest.raises(ExpressionError, match="x3"):
        parse_coefficient("x3", square8)


def test_unknown_identifier():
    with pytest.raises(ExpressionError, match="tan"):
        parse_expression("tan(x1)")


def test_empty_expression_rejected(square8):
    with pytest.raises(ExpressionError):
        parse_coefficient("", square8)


def test_nonfinite_sample_reports_node():
    spec = GridSpec(1, ((0.0, 1.0),), (8,))  # 0.5 is an interior node
    with pytest.raises(ExpressionError, match="node"):
        parse_coefficient("1/(x1-0.5)", spec)


@pytest.mark.parametrize(
    "text,position",
    [
        ("2**3", 1),                     # the power is written ^
        ("+1", 0),
        ("1 % 2", 2),
        ("1_000", 0),
        ("1j", 0),
        ("True", 0),
        ("x1 < 2", 3),
        ("a.b", 0),
        ("1 # c", 2),
        ("min(1)", 0),
        ("sin(1,2)", 0),
        ("indicator(x1,0,1)", 10),
        ("indicator(4,0,1)", 0),
        ("(1", 0),
        ("1.2.3", 3),
        ("x1^2 + * 2", 7),               # positions count ^ as one character
        ("x1^2 + a.b", 7),
        ("+".join(["x1"] * 5000), None),  # nested too deeply, no position
    ],
)
def test_rejected_expressions(text, position):
    with pytest.raises(ExpressionError) as err:
        parse_expression(text)
    assert err.value.position == position


# random expression trees, rendered fully parenthesized, paired with the
# numpy evaluation the grammar promises
_SPEC = GridSpec(2, ((-0.5, 1.0), (0.0, 2.0)), (5, 4))
# indicator bounds sometimes sit exactly on a node, where lo < x <= hi decides
_bounds = st.one_of(st.floats(-0.5, 1.5),
                    st.sampled_from([float(v) for v in np.unique(_SPEC.interior_points())]))
_leaves = st.one_of(
    st.floats(-10.0, 10.0).map(lambda v: (f"({v!r})", lambda x: np.full(len(x), v))),
    st.integers(1, 2).map(lambda k: (f"x{k}", lambda x: x[:, k - 1].copy())),
    st.just(("pi", lambda x: np.full(len(x), np.pi))),
    st.tuples(st.integers(1, 2), _bounds, _bounds).map(
        lambda a: (f"indicator({a[0]}, {a[1]!r}, {a[2]!r})",
                   lambda x: np.where((x[:, a[0] - 1] > a[1]) & (x[:, a[0] - 1] <= a[2]), 1.0, 0.0))),
)
_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}
_CALLS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "ln": np.log, "abs": np.abs}


def _branches(children):
    def binary(op, a, b):
        return f"({a[0]}){op}({b[0]})", lambda x: _BINARY[op](a[1](x), b[1](x))

    def call(name, a):
        return f"{name}({a[0]})", lambda x: _CALLS[name](a[1](x))

    def minmax(name, a, b):
        f = np.minimum if name == "min" else np.maximum
        return f"{name}({a[0]}, {b[0]})", lambda x: f(a[1](x), b[1](x))

    return st.one_of(
        st.builds(binary, st.sampled_from(sorted(_BINARY)), children, children),
        st.builds(call, st.sampled_from(sorted(_CALLS)), children),
        st.builds(minmax, st.sampled_from(["min", "max"]), children, children),
        children.map(lambda a: (f"-({a[0]})", lambda x: -a[1](x))),
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tree=st.recursive(_leaves, _branches, max_leaves=12))
def test_parse_matches_numpy_evaluation(tree):
    text, reference = tree
    with np.errstate(all="ignore"):
        expected = reference(_SPEC.interior_points())
    if not np.all(np.isfinite(expected)):
        with pytest.raises(ExpressionError, match="non-finite"):
            parse_coefficient(text, _SPEC)
        return
    assert parse_coefficient(text, _SPEC).values.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# coefficient data files


def test_values_file_roundtrip(tmp_path, square8):
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(square8.n_interior)
    save_values_file(tmp_path / "c.txt", vals)
    again = load_values_file(tmp_path / "c.txt", square8)
    assert np.array_equal(again.values, vals)
    coeff = CoefficientSpec.from_file(tmp_path / "c.txt", square8)
    assert np.array_equal(coeff.values, vals)


def test_values_file_matches_savetxt_bytes(tmp_path):
    vals = np.array([1.0, -1.0, 0.0, -0.0, 3.0, -42.0, 5e-324, -2.5e-310, 1e300,
                     -1e300, 0.1, 1 / 3, np.pi, 2.0**53, 123456789.0])
    rng = np.random.default_rng(5)
    vals = np.concatenate([vals, rng.standard_normal(65) * 10.0 ** rng.integers(-20, 20, 65)])
    np.savetxt(tmp_path / "ref.txt", vals, fmt="%.17g")
    save_values_file(tmp_path / "ours.txt", vals.reshape(-1, 5))
    assert (tmp_path / "ours.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()
    # an empty array writes an empty file, as savetxt does
    np.savetxt(tmp_path / "ref_empty.txt", np.zeros(0), fmt="%.17g")
    save_values_file(tmp_path / "ours_empty.txt", np.zeros(0))
    assert (tmp_path / "ours_empty.txt").read_bytes() == b""
    assert (tmp_path / "ref_empty.txt").read_bytes() == b""


def test_values_file_count_mismatch(tmp_path, square8):
    save_values_file(tmp_path / "short.txt", np.zeros(5))
    with pytest.raises(Exception, match="49"):
        CoefficientSpec.from_file(tmp_path / "short.txt", square8)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_coefficient_values_must_be_finite(tmp_path, square8, bad):
    # arrays, files and expressions are held to one rule, naming the first bad node
    vals = np.zeros(square8.n_interior)
    vals[10] = bad
    with pytest.raises(ExpressionError, match="non-finite value at node 10"):
        CoefficientSpec.from_values(vals, square8)
    save_values_file(tmp_path / "bad.txt", vals)
    with pytest.raises(ExpressionError, match="non-finite value at node 10"):
        CoefficientSpec.from_file(tmp_path / "bad.txt", square8)
    with pytest.raises(ExpressionError, match="non-finite"):
        make_problem(square8, h=vals)
    # a constant is held to the grid function's own rule
    with pytest.raises(GridError, match="non-finite value at node 0"):
        CoefficientSpec.constant(square8, bad)


# ---------------------------------------------------------------------------
# derived fields and profiles


def test_plus_minus_part_identities(square8):
    problem = make_problem(square8, h="sin(3*x1) - x2", mu="x1 - 0.5")
    h = problem.h.values
    assert np.allclose(problem.h_plus - problem.h_minus, h)
    assert np.all(problem.h_plus * problem.h_minus == 0.0)
    assert problem.mu_plus_sup == pytest.approx(np.max(np.maximum(problem.mu.values, 0)))
    assert problem.mu_minus_sup == pytest.approx(np.max(np.maximum(-problem.mu.values, 0)))


def test_zero_mask_monotone_in_tau():
    vals = np.array([0.0, 1e-14, 1e-10, 0.5, -1e-12])
    taus = [0.0, 1e-13, 1e-11, 1e-9, 1.0]
    masks = [compute_zero_mask(vals, t) for t in taus]
    for a, b in zip(masks, masks[1:]):
        assert np.all(b[a])  # larger tau never shrinks the mask


def test_c_zero_mask_c_positive_everywhere(square8):
    problem = make_problem(square8, c="1")
    assert not problem.c_zero_mask.any()


def test_c_zero_mask_indicator(square8):
    problem = make_problem(square8, c="indicator(1, 0.5, 1.0)")
    pts = square8.interior_points()
    assert np.array_equal(problem.c_zero_mask, pts[:, 0] <= 0.5)


def test_profile_a2_constants_pass(square8):
    problem = make_problem(square8, c="1", mu="1", h="1", profile="A2")
    report = validate_profile(problem)
    assert report.passed
    assert problem.mu_plus_sup == problem.mu_minus_sup + 1.0 == 1.0


def test_profile_a1_negative_c_fails(square8):
    problem = make_problem(square8, c="0-1")
    report = validate_profile(problem)
    bad = report.failures()
    assert bad and bad[0].clause == "c >= 0"
    assert bad[0].witness_node is not None


def test_profile_a1_zero_c_fails(square8):
    problem = make_problem(square8, c="0")
    report = validate_profile(problem)
    assert any(f.clause == "c not identically 0" for f in report.failures())


def test_profile_a3_requires_constant_mu(square8):
    problem = make_problem(square8, mu="1 + x1", h="1", lam=-1.0, profile="A3")
    report = validate_profile(problem)
    assert any(f.clause == "mu constant" for f in report.failures())


def test_profile_a5_sign(square8):
    ok = make_problem(square8, lam=-2.0, profile="A5")
    assert validate_profile(ok).passed
    bad = make_problem(square8, lam=2.0, profile="A5")
    assert not validate_profile(bad).passed


def test_p_exponent_bound(square8):
    with pytest.raises(ValueError, match="dim/2"):
        make_problem(square8, p_exponent=1.0)
    with pytest.raises(ValueError, match="dim/2"):
        make_problem(square8, p_exponent=float("nan"))
