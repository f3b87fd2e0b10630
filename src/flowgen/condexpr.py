"""Availability conditions for catalog properties.

A property can be gated on the values of sibling properties, e.g. the column
name of an explicit column generator is only meaningful while
``'Options/Column Method' = "Explicit"``. Conditions are written in a small
expression language:

* ``'Options/Column Method'`` — single-quoted, slash-qualified property path
* ``"Explicit"``, ``50``, ``3.5``, ``true`` — string / numeric / boolean literals
* ``= != < <= > >=`` — comparisons between a property path and a literal
* ``defined('path')`` — presence test
* ``and``, ``or``, ``not``, parentheses — ``not`` binds tightest, then
  comparisons, then ``and``, then ``or``

Evaluation is against a property environment (path -> value). A comparison
against an absent property is false; ``defined`` is the only way to observe
presence directly. Comparing a value against a literal of an incompatible
type is an error, not false — a condition that can never hold is a catalog
authoring bug. The error depends only on the value's type, the literal's
kind and the operator, so catalog loading finds each one by evaluating the
condition once against a value of each declared type.
"""

from __future__ import annotations

import operator
import re
from decimal import Decimal
from typing import Mapping, Union

from . import Record

__all__ = [
    "Literal",
    "PropertyRef",
    "Comparison",
    "Defined",
    "Not",
    "And",
    "Or",
    "ConditionExpr",
    "ConditionSyntaxError",
    "ConditionTypeError",
    "parse_condition",
    "eval_condition",
    "references",
]

EnvValue = Union[str, int, Decimal, bool]

_OPS = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}
COMPARISON_OPS = tuple(_OPS)


class ConditionSyntaxError(ValueError):
    """Raised when a condition does not parse.

    Carries the character ``position`` of the offending token and the
    ``expected`` token kinds, so catalog validation can point at the culprit.
    """

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        detail = f"{message} at position {position}"
        if expected:
            detail += f" (expected {', '.join(expected)})"
        super().__init__(detail)
        self.position = position
        self.expected = expected


class ConditionTypeError(TypeError):
    """Raised when evaluation compares incompatible value types."""


class Literal(Record):
    __slots__ = ("kind", "value")

    def __init__(self, kind: str, value: object):
        self.kind = kind  # "string" | "integer" | "decimal" | "boolean"
        self.value = value


class PropertyRef(Record):
    __slots__ = ("path",)

    def __init__(self, path: str):
        self.path = path


class Comparison(Record):
    __slots__ = ("ref", "op", "literal")

    def __init__(self, ref: PropertyRef, op: str, literal: Literal):
        self.ref = ref
        self.op = op
        self.literal = literal


class Defined(Record):
    __slots__ = ("path",)

    def __init__(self, path: str):
        self.path = path


class Not(Record):
    __slots__ = ("operand",)

    def __init__(self, operand: "ConditionExpr"):
        self.operand = operand


class And(Record):
    __slots__ = ("left", "right")

    def __init__(self, left: "ConditionExpr", right: "ConditionExpr"):
        self.left = left
        self.right = right


class Or(Record):
    __slots__ = ("left", "right")

    def __init__(self, left: "ConditionExpr", right: "ConditionExpr"):
        self.left = left
        self.right = right


ConditionExpr = Union[Literal, PropertyRef, Comparison, Defined, Not, And, Or]


# --- tokenizer -------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<path>'[^'\n]*')
    | (?P<string>"[^"\n]*")
    | (?P<number>-?(?:\d+\.\d+|\.\d+|\d+))
    | (?P<word>[A-Za-z_]\w*)
    | (?P<op><=|>=|!=|=|<|>)
    | (?P<lparen>\()
    | (?P<rparen>\))
    """,
    re.VERBOSE,
)

_KEYWORDS = {"and", "or", "not", "defined", "true", "false"}

# the longest condition, in tokens: it bounds the parser's recursion (five
# frames per parenthesis) and the tree's depth well under the interpreter's limit
MAX_TOKENS = 200


# a token is (kind, text, pos): its kind, its source text and where it starts
_Token = tuple[str, str, int]


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            snippet = text[pos : pos + 10]
            raise ConditionSyntaxError(f"unrecognized input {snippet!r}", pos)
        kind = m.lastgroup or ""
        if kind != "ws":
            if kind == "word":
                word = m.group()
                if word not in _KEYWORDS:
                    raise ConditionSyntaxError(
                        f"unknown word {word!r}; property paths must be single-quoted", pos
                    )
                kind = word
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    if len(tokens) > MAX_TOKENS:
        message = f"condition is longer than {MAX_TOKENS} tokens"
        raise ConditionSyntaxError(message, tokens[MAX_TOKENS][2])
    tokens.append(("end of input", "", len(text)))
    return tokens


def _validate_path(raw: str, pos: int) -> str:
    path = raw[1:-1]
    if not path:
        raise ConditionSyntaxError("empty property path", pos)
    segments = path.split("/")
    if any(not seg.strip() for seg in segments):
        raise ConditionSyntaxError(f"malformed property path {path!r}", pos)
    return path


# --- parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    @property
    def kind(self) -> str:
        return self.tokens[self.i][0]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def unexpected(self, expected: tuple[str, ...]) -> ConditionSyntaxError:
        kind, _, pos = self.tokens[self.i]
        return ConditionSyntaxError(f"unexpected {kind}", pos, expected)

    def expect(self, kind: str) -> _Token:
        if self.kind != kind:
            raise self.unexpected((kind,))
        return self.advance()

    def parse(self) -> ConditionExpr:
        expr = self.or_expr()
        kind, text, pos = self.tokens[self.i]
        if kind != "end of input":
            raise ConditionSyntaxError(f"trailing input {text!r}", pos, ("end of input",))
        return expr

    def or_expr(self) -> ConditionExpr:
        left = self.and_expr()
        while self.kind == "or":
            self.advance()
            left = Or(left, self.and_expr())
        return left

    def and_expr(self) -> ConditionExpr:
        left = self.cmp_expr()
        while self.kind == "and":
            self.advance()
            left = And(left, self.cmp_expr())
        return left

    def cmp_expr(self) -> ConditionExpr:
        left = self.unary()
        if self.kind == "op":
            _, op, pos = self.advance()
            if not isinstance(left, PropertyRef):
                raise ConditionSyntaxError("left side of a comparison must be a property path", pos)
            return Comparison(left, op, self.literal())
        return left

    def unary(self) -> ConditionExpr:
        if self.kind == "not":
            self.advance()
            return Not(self.unary())
        return self.primary()

    def primary(self) -> ConditionExpr:
        kind, text, pos = self.tokens[self.i]
        if kind == "defined":
            self.advance()
            self.expect("lparen")
            _, path, path_pos = self.expect("path")
            self.expect("rparen")
            return Defined(_validate_path(path, path_pos))
        if kind == "path":
            self.advance()
            return PropertyRef(_validate_path(text, pos))
        if kind == "lparen":
            self.advance()
            expr = self.or_expr()
            self.expect("rparen")
            return expr
        if kind in ("string", "number", "true", "false"):
            return self.literal()
        raise self.unexpected(("path", "literal", "defined", "not", "("))

    def literal(self) -> Literal:
        kind, text, pos = self.tokens[self.i]
        if kind == "string":
            self.advance()
            return Literal("string", text[1:-1])
        if kind == "number":
            self.advance()
            if "." in text:
                return Literal("decimal", Decimal(text))
            try:
                return Literal("integer", int(text))
            except ValueError:  # more digits than ``sys.get_int_max_str_digits`` allows
                message = f"integer literal of {len(text)} characters is too long"
                raise ConditionSyntaxError(message, pos) from None
        if kind in ("true", "false"):
            self.advance()
            return Literal("boolean", kind == "true")
        raise self.unexpected(("literal",))


def parse_condition(text: str) -> ConditionExpr:
    """Parse a condition into its expression tree.

    Raises :class:`ConditionSyntaxError` with position and expected-token
    information on malformed input. Contradictory but well-formed conditions
    parse fine; contradiction is a semantic property, not a syntactic one.
    """
    return _Parser(_tokenize(text)).parse()


# --- evaluation ------------------------------------------------------------


def _type_name(value: object) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, Decimal):
        return "decimal"
    if isinstance(value, str):
        return "string"
    return type(value).__name__


def _compare(path: str, value: EnvValue, op: str, lit: Literal) -> bool:
    value_is_num = isinstance(value, (int, Decimal)) and not isinstance(value, bool)
    lit_is_num = lit.kind in ("integer", "decimal")
    if value_is_num and lit_is_num:
        pass  # int and Decimal compare across each other
    elif isinstance(value, bool) and lit.kind == "boolean":
        if op not in ("=", "!="):
            raise ConditionTypeError(f"ordering comparison {op!r} on boolean {path!r}")
    elif isinstance(value, str) and lit.kind == "string":
        pass  # strings order lexicographically
    else:
        raise ConditionTypeError(
            f"comparing {lit.kind} literal against {_type_name(value)} value of {path!r}"
        )
    return _OPS[op](value, lit.value)


def eval_condition(expr: ConditionExpr, env: Mapping[str, EnvValue]) -> bool:
    """Evaluate a parsed condition against a property environment.

    Absent properties make comparisons (and bare references) false; presence
    is observable only through ``defined``. Evaluation is strict — type
    mismatches raise :class:`ConditionTypeError` even in branches a
    short-circuiting evaluator would skip.
    """
    if isinstance(expr, Literal):
        if expr.kind != "boolean":
            raise ConditionTypeError(f"bare {expr.kind} literal is not a condition")
        return bool(expr.value)
    if isinstance(expr, PropertyRef):
        if expr.path not in env:
            return False
        value = env[expr.path]
        if not isinstance(value, bool):
            raise ConditionTypeError(
                f"bare reference to non-boolean property {expr.path!r}"
            )
        return value
    if isinstance(expr, Comparison):
        if expr.ref.path not in env:
            return False
        return _compare(expr.ref.path, env[expr.ref.path], expr.op, expr.literal)
    if isinstance(expr, Defined):
        return expr.path in env
    if isinstance(expr, Not):
        return not eval_condition(expr.operand, env)
    if isinstance(expr, And):
        left = eval_condition(expr.left, env)
        right = eval_condition(expr.right, env)
        return left and right
    if isinstance(expr, Or):
        left = eval_condition(expr.left, env)
        right = eval_condition(expr.right, env)
        return left or right
    raise AssertionError(f"unknown expression node {expr!r}")


def references(expr: ConditionExpr) -> list[tuple[str, Literal | None]]:
    """Each path a parsed condition reads, left to right, with the literal it is compared against."""
    if isinstance(expr, (PropertyRef, Defined)):
        return [(expr.path, None)]
    if isinstance(expr, Comparison):
        return [(expr.ref.path, expr.literal)]
    if isinstance(expr, Not):
        return references(expr.operand)
    if isinstance(expr, (And, Or)):
        return references(expr.left) + references(expr.right)
    return []
