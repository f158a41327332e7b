import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdreflect.exprparse import (
    EvalOverflowError,
    EvalPoleError,
    ParseError,
    collect_u_indices,
    eval_ast,
    parse_expr,
    to_source,
    variables,
)
from exproracle import random_expression, reference_eval


def test_linear_example():
    ast = parse_expr("lambda1 + 2*gamma")
    assert np.isclose(eval_ast(ast, [3, 1], gamma=1.0), 5.0)


def test_division_and_pole():
    ast = parse_expr("1/(u1-u2)")
    assert np.isclose(eval_ast(ast, [0, 0], {1: 2.0, 2: 0.0}), 0.5)
    with pytest.raises(EvalPoleError):
        eval_ast(ast, [0, 0], {1: 1.0, 2: 1.0})


def test_exp_power_against_closed_form():
    ast = parse_expr("exp(sigma)^2")
    v = eval_ast(ast, [1, 1])
    assert abs(v - np.exp(4.0)) < 1e-13 * abs(v)


def test_imaginary_unit_and_gamma():
    ast = parse_expr("i*gamma + sigma")
    assert np.isclose(eval_ast(ast, [0.5, 0.5], gamma=2.0), 1.0 + 2.0j)


def test_negative_exponent():
    ast = parse_expr("u1^-2")
    assert np.isclose(eval_ast(ast, [0, 0], {1: 2.0}), 0.25)


def test_precedence_and_parens():
    ast = parse_expr("2+3*4^2")
    assert np.isclose(eval_ast(ast, [0, 0]), 50.0)
    ast = parse_expr("(2+3)*4")
    assert np.isclose(eval_ast(ast, [0, 0]), 20.0)


@pytest.mark.parametrize("src,fragment", [
    ("foo*2", "unknown identifier"),
    ("1++2", "expected a value"),
    ("u1^x", "integer exponent"),
    ("2*(u1", "expected ')'"),
    ("lambda0", "1-based"),
    ("2 @ 3", "unexpected character"),
    ("", "expected a value"),
    ("1 2", "trailing input"),
])
def test_parse_errors_carry_position_info(src, fragment):
    with pytest.raises(ParseError) as err:
        parse_expr(src)
    assert fragment in str(err.value)
    assert "position" in str(err.value)


def test_collect_u_indices():
    ast = parse_expr("u1*lambda2 + exp(u3)")
    assert collect_u_indices(ast) == {1, 3}
    assert variables(parse_expr("i*sigma + gamma^2/u1 - lambda2")) == {
        "sigma", "gamma", "u1", "lambda2"}


def test_roundtrip_and_reference_agreement():
    rng = np.random.default_rng(42)
    lam = np.array([0.3 + 0.2j, -0.7 + 0.1j])
    u = {1: 1.4 - 0.3j, 2: -0.8 + 0.9j}
    for _ in range(1000):
        src = random_expression(rng)
        ast = parse_expr(src)
        assert parse_expr(to_source(ast)) == ast

        def run(f, *a):
            try:
                return ("ok", f(*a))
            except EvalPoleError:
                return ("pole", None)
            except EvalOverflowError:
                return ("overflow", None)

        s1 = run(eval_ast, ast, lam, u, 1.0)
        s2 = run(reference_eval, src, lam, u, 1.0)
        assert s1[0] == s2[0]
        if s1[0] == "ok":
            denom = max(abs(s1[1]), abs(s2[1]), 1.0)
            assert abs(s1[1] - s2[1]) / denom < 1e-14


def test_unbound_spectral_variable():
    ast = parse_expr("u2+1")
    with pytest.raises(ValueError):
        eval_ast(ast, [0, 0], {1: 1.0})


def _outcome(f, *args):
    """('ok', repr of the value) or ('raised', error class)."""
    try:
        return "ok", repr(f(*args))
    except Exception as exc:
        return "raised", type(exc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_compiled_eval_is_exactly_the_reference(seed):
    rng = np.random.default_rng(seed)
    src = random_expression(rng, rank=3, u_count=2, depth=int(rng.integers(1, 5)))
    lam = rng.normal(size=3) + 1j * rng.normal(size=3)
    u = {1: complex(*rng.normal(size=2)), 2: complex(*rng.normal(size=2))}
    gamma = complex(*rng.normal(size=2))
    got = _outcome(eval_ast, parse_expr(src), lam, u, gamma)
    assert got == _outcome(reference_eval, src, lam, u, gamma), src


def test_compiled_eval_is_reused_and_raises_like_the_walk():
    ast = parse_expr("lambda1/(u1-1)")
    assert eval_ast(ast, [2.0, 0.0], {1: 3.0}) == 1.0
    code = ast._code
    assert eval_ast(ast, [4.0, 0.0], {1: 3.0}) == 2.0
    assert ast._code is code
    with pytest.raises(EvalPoleError):
        eval_ast(ast, [4.0, 0.0], {1: 1.0})
    with pytest.raises(ValueError, match="no spectral value"):
        eval_ast(ast, [4.0, 0.0])
    with pytest.raises(ValueError, match="out of range"):
        eval_ast(parse_expr("lambda3"), [1.0, 2.0])
    with pytest.raises(TypeError):
        eval_ast(object(), [1.0, 2.0])


# -- stacks of points -----------------------------------------------------------


def _bits(values):
    values = np.asarray(values, dtype=complex)
    return values.real.view(np.int64).tolist(), values.imag.view(np.int64).tolist()


def _assert_stack_is_the_point_calls(ast, lam, u, gamma):
    """The stacked call gives the point calls' values bit for bit, or
    raises the error class of the first point that raises, with that
    point's flat index as its ``row``.  A tuple in ``u`` holds one
    spectral value per point."""
    rows = lam.reshape(-1, lam.shape[-1])
    at = [{k: v[r] if isinstance(v, tuple) else v for k, v in u.items()}
          for r in range(len(rows))]
    outcomes = [_outcome(eval_ast, ast, row, ur, gamma) for row, ur in zip(rows, at)]
    failed = [(r, err) for r, (kind, err) in enumerate(outcomes) if kind == "raised"]
    if failed:
        with pytest.raises(Exception) as err:
            eval_ast(ast, lam, u, gamma)
        assert (type(err.value), err.value.row) == (failed[0][1], failed[0][0])
        return failed[0][1]
    got = eval_ast(ast, lam, u, gamma)
    assert got.shape == lam.shape[:-1]
    assert _bits(got.ravel()) == _bits([eval_ast(ast, row, ur, gamma)
                                        for row, ur in zip(rows, at)])
    return None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
@example(seed=13525)  # src itself raises a pole at the planted overflow row
def test_stacked_eval_is_the_point_calls_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    src = random_expression(rng, rank=3, u_count=2, depth=int(rng.integers(1, 5)))
    lam = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    u = {1: complex(*rng.normal(size=2)), 2: complex(*rng.normal(size=2))}
    gamma = complex(*rng.normal(size=2))
    _assert_stack_is_the_point_calls(parse_expr(src), lam, u, gamma)
    _assert_stack_is_the_point_calls(parse_expr(src), lam.reshape(2, 3, 3), u, gamma)
    # a pole row (lambda1 = lambda2) and an exp-overflow row (lambda3 = 800),
    # in either order
    pole, overflow = rng.choice(6, size=2, replace=False)
    lam[pole, 1] = lam[pole, 0]
    lam[overflow, 2] = 800.0
    first = min(pole, overflow)
    ast = parse_expr(f"({src})/(lambda1-lambda2)*exp(lambda3)")
    raised = _assert_stack_is_the_point_calls(ast, lam, u, gamma)
    assert raised is not None
    # the planted class, unless src raises on its own at or before the
    # first planted row (lambda3 = 800 can underflow a divisor in src to 0)
    expected = EvalPoleError if first == pole else EvalOverflowError
    for row in lam[:first + 1]:
        kind, own = _outcome(eval_ast, parse_expr(src), row, u, gamma)
        if kind == "raised":
            expected = own
            break
    if raised in (EvalPoleError, EvalOverflowError):
        assert raised is expected


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_stacked_eval_with_a_spectral_value_per_row(seed):
    # u1 and u2 hold one distinct value per row; the planted rows are a
    # pole (u1 = lambda1), an exponential overflow (u2 = 800) and a power
    # overflow (u1 = 1e120), each set through the spectral values only
    rng = np.random.default_rng(seed)
    src = random_expression(rng, rank=3, u_count=2, depth=int(rng.integers(1, 5)))
    lam = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    u1, u2 = (rng.normal(size=6) + 1j * rng.normal(size=6) for _ in range(2))
    gamma = complex(*rng.normal(size=2))

    def per_row():
        return {1: tuple(u1.tolist()), 2: tuple(u2.tolist())}

    _assert_stack_is_the_point_calls(parse_expr(src), lam, per_row(), gamma)
    _assert_stack_is_the_point_calls(parse_expr(src), lam.reshape(2, 3, 3), per_row(), gamma)
    _assert_stack_is_the_point_calls(parse_expr(src), lam, {1: per_row()[1], 2: u2[0]}, gamma)
    pole, over_exp, over_pow = rng.choice(6, size=3, replace=False)
    u1[pole] = lam[pole, 0]
    u2[over_exp] = 800.0
    u1[over_pow] = 1e120
    ast = parse_expr(f"({src})/(u1-lambda1)*exp(u2)*u1^3")
    raised = _assert_stack_is_the_point_calls(ast, lam, per_row(), gamma)
    assert raised is not None
    planted = {pole: EvalPoleError, over_exp: EvalOverflowError, over_pow: OverflowError}
    # the class planted at the first of these rows, unless src raises on
    # its own at or before it
    first = min(planted)
    expected = planted[first]
    for r in range(first + 1):
        kind, own = _outcome(eval_ast, parse_expr(src), lam[r], {1: u1[r], 2: u2[r]}, gamma)
        if kind == "raised":
            expected = own
            break
    assert issubclass(raised, expected)


def test_spectral_sequence_needs_one_value_per_point():
    ast = parse_expr("u1*lambda1")
    lam = np.ones((3, 2), dtype=complex)
    assert _bits(eval_ast(ast, lam, {1: (1.0, 2.0, 3j)})) == _bits([1.0, 2.0, 3j])
    with pytest.raises(ValueError, match="one value per point"):
        eval_ast(ast, lam, {1: (1.0, 2.0)})


@pytest.mark.parametrize("src", [
    "(lambda1*1.5)^100", "(lambda1*0.01)^-100", "(lambda1*1.5)^101", "(lambda1*1.5)^-101",
    "lambda2^150", "(lambda1+i)^-130", "lambda1^-100*exp(lambda2*300)",
])
def test_stacked_eval_of_large_powers(src):
    # |exponent| <= 100 is repeated squaring, above it CPython's general
    # complex power; the last rows overflow, underflow to a zero
    # divisor, or hit the pole floor
    rng = np.random.default_rng(11)
    lam = rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2))
    extremes = [[1e3, 2.0], [0.05, 1.0], [1e-13, 1.0], [0.0, -0.0]]
    for stack in (lam, np.concatenate([lam, extremes])):
        _assert_stack_is_the_point_calls(parse_expr(src), stack, {}, 1.0)
