"""Availability-condition language: parser and evaluator.

The oracle side is test-local: a fully parenthesized renderer (forcing a
unique parse), a minimal-parenthesis printer whose output must reparse to
the same tree, and a brute-force recursive evaluator, checked against the
real implementation over the full environment table of every generated
expression.
"""

from __future__ import annotations

from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from flowgen.condexpr import (
    And,
    Comparison,
    ConditionExpr,
    ConditionSyntaxError,
    ConditionTypeError,
    Defined,
    Literal,
    Not,
    Or,
    MAX_TOKENS,
    PropertyRef,
    eval_condition,
    parse_condition,
    references,
)

# --- parsing examples ---------------------------------------------------------


def test_parses_comparison_with_qualified_path():
    expr = parse_condition("'Options/Column Method' = \"Explicit\"")
    assert expr == Comparison(
        PropertyRef("Options/Column Method"), "=", Literal("string", "Explicit")
    )


def test_precedence_or_and_not():
    expr = parse_condition("'a' = 1 or 'b' = 2 and not defined('c')")
    assert expr == Or(
        Comparison(PropertyRef("a"), "=", Literal("integer", 1)),
        And(
            Comparison(PropertyRef("b"), "=", Literal("integer", 2)),
            Not(Defined("c")),
        ),
    )
    assert expr != And(expr.left, expr.right)  # nodes compare by type as well as fields


def test_parens_override_precedence():
    grouped = parse_condition("('a' = 1 or 'b' = 2) and defined('c')")
    assert isinstance(grouped, And)
    assert isinstance(grouped.left, Or)


def test_not_binds_tighter_than_comparison():
    # `not` grabs the ref before the comparison can, which is then malformed
    with pytest.raises(ConditionSyntaxError):
        parse_condition("not 'a' = 1")
    expr = parse_condition("not ('a' = 1)")
    assert expr == Not(Comparison(PropertyRef("a"), "=", Literal("integer", 1)))


def test_literal_kinds():
    assert parse_condition("'n' = -3") == Comparison(
        PropertyRef("n"), "=", Literal("integer", -3)
    )
    assert parse_condition("'n' >= .5") == Comparison(
        PropertyRef("n"), ">=", Literal("decimal", Decimal("0.5"))
    )
    assert parse_condition("'f' != true") == Comparison(
        PropertyRef("f"), "!=", Literal("boolean", True)
    )


def test_unquoted_word_is_rejected_with_hint():
    with pytest.raises(ConditionSyntaxError, match="single-quoted"):
        parse_condition('mode = "strict"')


def test_error_carries_position_and_expected():
    with pytest.raises(ConditionSyntaxError) as err:
        parse_condition("'a' =")
    assert err.value.position == 5
    assert "literal" in err.value.expected


@pytest.mark.parametrize(
    "text, message, position, expected",
    [
        ("'a' =", "unexpected end of input at position 5 (expected literal)", 5, ("literal",)),
        ("defined('x'", "unexpected end of input at position 11 (expected rparen)", 11, ("rparen",)),
        ("defined 'x'", "unexpected path at position 8 (expected lparen)", 8, ("lparen",)),
        (
            "and 'x' = 1",
            "unexpected and at position 0 (expected path, literal, defined, not, ()",
            0,
            ("path", "literal", "defined", "not", "("),
        ),
        (
            "",
            "unexpected end of input at position 0 (expected path, literal, defined, not, ()",
            0,
            ("path", "literal", "defined", "not", "("),
        ),
    ],
)
def test_an_unexpected_token_error_names_the_token(text, message, position, expected):
    with pytest.raises(ConditionSyntaxError) as err:
        parse_condition(text)
    assert (str(err.value), err.value.position, err.value.expected) == (message, position, expected)


def test_trailing_input_rejected():
    with pytest.raises(ConditionSyntaxError, match="trailing"):
        parse_condition("'a' = 1 'b'")


def test_unclosed_string_is_unrecognized_input():
    with pytest.raises(ConditionSyntaxError, match="unrecognized"):
        parse_condition("'a' = \"unclosed")


def test_empty_and_malformed_paths():
    with pytest.raises(ConditionSyntaxError, match="empty property path"):
        parse_condition("defined('')")
    with pytest.raises(ConditionSyntaxError, match="malformed"):
        parse_condition("'a//b' = 1")


def test_literal_comparison_left_side_rejected():
    with pytest.raises(ConditionSyntaxError, match="left side"):
        parse_condition('1 = 1')


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("'m' = " + "9" * 5000, "integer literal of 5000 characters is too long at position 6", 6),
        ("(" * 2000 + "'n'" + ")" * 2000, "condition is longer than 200 tokens at position 200", 200),
        ("not " * 3000 + "'n'", "condition is longer than 200 tokens at position 800", 800),
        (" and ".join(["'n'"] * 5000), "condition is longer than 200 tokens at position 800", 800),
    ],
    ids=["huge-integer", "deep-parentheses", "long-not-chain", "long-and-chain"],
)
def test_a_condition_past_the_parser_limits_is_a_syntax_error(text, message, position):
    # each would raise ValueError or RecursionError in the parser or in a walk of its tree
    with pytest.raises(ConditionSyntaxError) as err:
        parse_condition(text)
    assert (str(err.value), err.value.position) == (message, position)


def test_conditions_up_to_the_token_limit_parse_and_evaluate():
    nested = "(" * 99 + "'n'" + ")" * 99
    assert parse_condition(nested) == PropertyRef("n")
    assert eval_condition(parse_condition("not " + nested), {"n": False})  # MAX_TOKENS tokens
    chain = parse_condition(" and ".join(["'n'"] * 100))
    assert eval_condition(chain, {"n": True}) and not eval_condition(chain, {"n": False})
    assert references(chain) == [("n", None)] * 100
    with pytest.raises(ConditionSyntaxError, match=f"longer than {MAX_TOKENS} tokens"):
        parse_condition("not not " + nested)


# --- evaluation examples --------------------------------------------------------


def test_absent_property_compares_false_but_defined_sees_presence():
    expr = parse_condition("'mode' = \"strict\"")
    assert eval_condition(expr, {}) is False
    assert eval_condition(expr, {"mode": "strict"}) is True
    assert eval_condition(parse_condition("defined('mode')"), {}) is False
    assert eval_condition(parse_condition("defined('mode')"), {"mode": "x"}) is True


def test_bare_boolean_reference():
    expr = parse_condition("'flag'")
    assert eval_condition(expr, {"flag": True}) is True
    assert eval_condition(expr, {"flag": False}) is False
    assert eval_condition(expr, {}) is False
    with pytest.raises(ConditionTypeError):
        eval_condition(expr, {"flag": "yes"})


def test_numeric_comparison_crosses_int_and_decimal():
    expr = parse_condition("'n' < 2.5")
    assert eval_condition(expr, {"n": 2}) is True
    assert eval_condition(expr, {"n": Decimal("2.6")}) is False


def test_type_mismatch_raises_not_false():
    expr = parse_condition("'mode' = 1")
    with pytest.raises(ConditionTypeError):
        eval_condition(expr, {"mode": "strict"})


def test_ordering_on_boolean_rejected():
    with pytest.raises(ConditionTypeError):
        eval_condition(parse_condition("'f' < true"), {"f": False})


def test_no_short_circuit_hides_type_errors():
    expr = parse_condition("'n' = 1 or 'mode' = 2")
    with pytest.raises(ConditionTypeError):
        eval_condition(expr, {"n": 1, "mode": "strict"})


def test_bare_non_boolean_literal_is_not_a_condition():
    with pytest.raises(ConditionTypeError):
        eval_condition(parse_condition('"yes"'), {})
    assert eval_condition(parse_condition("true"), {}) is True


# --- randomized agreement with a brute-force oracle -------------------------------

# fixed type scheme keeps generated expressions type-correct under evaluation
PATH_TYPES = {"p_str": "string", "p_int": "integer", "p_bool": "boolean", "p_dec": "decimal"}
VALUES = {
    "p_str": ["a", "b"],
    "p_int": [0, 5],
    "p_bool": [True, False],
    "p_dec": [Decimal("1.5")],
}


def _literal_for(path: str, draw_index: int) -> Literal:
    kind = PATH_TYPES[path]
    pool = {
        "string": [Literal("string", "a"), Literal("string", "z")],
        "integer": [Literal("integer", 0), Literal("integer", 7)],
        "boolean": [Literal("boolean", True), Literal("boolean", False)],
        "decimal": [Literal("decimal", Decimal("1.5")), Literal("decimal", Decimal("0.5"))],
    }[kind]
    return pool[draw_index % len(pool)]


def _ops_for(path: str) -> tuple[str, ...]:
    if PATH_TYPES[path] == "boolean":
        return ("=", "!=")
    return ("=", "!=", "<", "<=", ">", ">=")


@st.composite
def comparisons(draw):
    path = draw(st.sampled_from(sorted(PATH_TYPES)))
    op = draw(st.sampled_from(_ops_for(path)))
    lit = _literal_for(path, draw(st.integers(0, 1)))
    return Comparison(PropertyRef(path), op, lit)


def conditions():
    leaves = st.one_of(
        comparisons(),
        st.sampled_from(sorted(PATH_TYPES)).map(Defined),
        st.just(PropertyRef("p_bool")),
        st.booleans().map(lambda b: Literal("boolean", b)),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            children.map(Not),
            st.tuples(children, children).map(lambda lr: And(*lr)),
            st.tuples(children, children).map(lambda lr: Or(*lr)),
        ),
        max_leaves=8,
    )


def render_parenthesized(expr) -> str:
    """Test-local renderer: parens around every composite force a unique parse."""
    if isinstance(expr, Literal):
        if expr.kind == "string":
            return f'"{expr.value}"'
        if expr.kind == "boolean":
            return "true" if expr.value else "false"
        return str(expr.value)
    if isinstance(expr, PropertyRef):
        return f"'{expr.path}'"
    if isinstance(expr, Comparison):
        return f"('{expr.ref.path}' {expr.op} {render_parenthesized(expr.literal)})"
    if isinstance(expr, Defined):
        return f"(defined('{expr.path}'))"
    if isinstance(expr, Not):
        return f"(not {render_parenthesized(expr.operand)})"
    if isinstance(expr, And):
        return f"({render_parenthesized(expr.left)} and {render_parenthesized(expr.right)})"
    if isinstance(expr, Or):
        return f"({render_parenthesized(expr.left)} or {render_parenthesized(expr.right)})"
    raise AssertionError(expr)


# The round-trip oracle: a printer by binding strength. Children weaker than
# their parent get parenthesized (comparisons sit between `and` and `not`:
# `not` binds tightest).
_PRECEDENCE = {Or: 1, And: 2, Comparison: 3, Not: 4}
_ATOM_PRECEDENCE = 5


def _precedence(expr: ConditionExpr) -> int:
    return _PRECEDENCE.get(type(expr), _ATOM_PRECEDENCE)


def _literal_text(lit: Literal) -> str:
    if lit.kind == "string":
        return f'"{lit.value}"'
    if lit.kind == "boolean":
        return "true" if lit.value else "false"
    return str(lit.value)


def _render(expr: ConditionExpr, parent_prec: int) -> str:
    prec = _precedence(expr)
    if isinstance(expr, Literal):
        text = _literal_text(expr)
    elif isinstance(expr, PropertyRef):
        text = f"'{expr.path}'"
    elif isinstance(expr, Comparison):
        text = f"'{expr.ref.path}' {expr.op} {_literal_text(expr.literal)}"
    elif isinstance(expr, Defined):
        text = f"defined('{expr.path}')"
    elif isinstance(expr, Not):
        text = f"not {_render(expr.operand, prec)}"
    elif isinstance(expr, And):
        text = f"{_render(expr.left, prec)} and {_render(expr.right, prec + 1)}"
    elif isinstance(expr, Or):
        text = f"{_render(expr.left, prec)} or {_render(expr.right, prec + 1)}"
    else:
        raise AssertionError(f"unknown expression node {expr!r}")
    if prec < parent_prec:
        return f"({text})"
    return text


def to_text(expr: ConditionExpr) -> str:
    """Render an expression tree back to source; reparsing yields an equal tree."""
    return _render(expr, 0)


def oracle_eval(expr, env) -> bool:
    if isinstance(expr, Literal):
        assert expr.kind == "boolean"
        return bool(expr.value)
    if isinstance(expr, PropertyRef):
        return bool(env[expr.path]) if expr.path in env else False
    if isinstance(expr, Comparison):
        if expr.ref.path not in env:
            return False
        value, lit = env[expr.ref.path], expr.literal.value
        return {
            "=": value == lit,
            "!=": value != lit,
            "<": value < lit,
            "<=": value <= lit,
            ">": value > lit,
            ">=": value >= lit,
        }[expr.op]
    if isinstance(expr, Defined):
        return expr.path in env
    if isinstance(expr, Not):
        return not oracle_eval(expr.operand, env)
    if isinstance(expr, And):
        return oracle_eval(expr.left, env) and oracle_eval(expr.right, env)
    if isinstance(expr, Or):
        return oracle_eval(expr.left, env) or oracle_eval(expr.right, env)
    raise AssertionError(expr)


def environment_table():
    """Every combination of presence and value over the fixed scheme."""
    envs = [{}]
    for path, pool in sorted(VALUES.items()):
        envs = [
            {**env, **({path: value} if value is not None else {})}
            for env in envs
            for value in [None, *pool]
        ]
    return envs


ENVS = environment_table()


@given(conditions())
def test_parenthesized_render_parses_to_same_tree(expr):
    assert parse_condition(render_parenthesized(expr)) == expr


@given(conditions())
def test_printer_round_trips(expr):
    assert parse_condition(to_text(expr)) == expr


@given(conditions())
def test_eval_agrees_with_oracle_on_all_environments(expr):
    for env in ENVS:
        assert eval_condition(expr, env) == oracle_eval(expr, env), (to_text(expr), env)


@given(conditions())
def test_canonical_text_is_stable(expr):
    text = to_text(expr)
    assert to_text(parse_condition(text)) == text
