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
authoring bug and should surface loudly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from typing import Mapping, Union

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
]

EnvValue = Union[str, int, Decimal, bool]

COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")


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


@dataclass(frozen=True)
class Literal:
    kind: str  # "string" | "integer" | "decimal" | "boolean"
    value: object


@dataclass(frozen=True)
class PropertyRef:
    path: str


@dataclass(frozen=True)
class Comparison:
    ref: PropertyRef
    op: str
    literal: Literal


@dataclass(frozen=True)
class Defined:
    path: str


@dataclass(frozen=True)
class Not:
    operand: "ConditionExpr"


@dataclass(frozen=True)
class And:
    left: "ConditionExpr"
    right: "ConditionExpr"


@dataclass(frozen=True)
class Or:
    left: "ConditionExpr"
    right: "ConditionExpr"


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


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


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
            tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
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
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.cur
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        if self.cur.kind != kind:
            raise ConditionSyntaxError(
                f"unexpected {self.cur.kind or 'end of input'}", self.cur.pos, (kind,)
            )
        return self.advance()

    def parse(self) -> ConditionExpr:
        expr = self.or_expr()
        if self.cur.kind != "end":
            raise ConditionSyntaxError(
                f"trailing input {self.cur.text!r}", self.cur.pos, ("end of input",)
            )
        return expr

    def or_expr(self) -> ConditionExpr:
        left = self.and_expr()
        while self.cur.kind == "or":
            self.advance()
            left = Or(left, self.and_expr())
        return left

    def and_expr(self) -> ConditionExpr:
        left = self.cmp_expr()
        while self.cur.kind == "and":
            self.advance()
            left = And(left, self.cmp_expr())
        return left

    def cmp_expr(self) -> ConditionExpr:
        left = self.unary()
        if self.cur.kind == "op":
            op_tok = self.advance()
            if not isinstance(left, PropertyRef):
                raise ConditionSyntaxError(
                    "left side of a comparison must be a property path", op_tok.pos
                )
            return Comparison(left, op_tok.text, self.literal())
        return left

    def unary(self) -> ConditionExpr:
        if self.cur.kind == "not":
            self.advance()
            return Not(self.unary())
        return self.primary()

    def primary(self) -> ConditionExpr:
        tok = self.cur
        if tok.kind == "defined":
            self.advance()
            self.expect("lparen")
            path_tok = self.expect("path")
            self.expect("rparen")
            return Defined(_validate_path(path_tok.text, path_tok.pos))
        if tok.kind == "path":
            self.advance()
            return PropertyRef(_validate_path(tok.text, tok.pos))
        if tok.kind == "lparen":
            self.advance()
            expr = self.or_expr()
            self.expect("rparen")
            return expr
        if tok.kind in ("string", "number", "true", "false"):
            return self.literal()
        raise ConditionSyntaxError(
            f"unexpected {tok.kind or 'end of input'}",
            tok.pos,
            ("path", "literal", "defined", "not", "("),
        )

    def literal(self) -> Literal:
        tok = self.cur
        if tok.kind == "string":
            self.advance()
            return Literal("string", tok.text[1:-1])
        if tok.kind == "number":
            self.advance()
            if "." in tok.text:
                return Literal("decimal", Decimal(tok.text))
            return Literal("integer", int(tok.text))
        if tok.kind in ("true", "false"):
            self.advance()
            return Literal("boolean", tok.kind == "true")
        raise ConditionSyntaxError(
            f"unexpected {tok.kind or 'end of input'}", tok.pos, ("literal",)
        )


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
    lit_value = lit.value
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
    if op == "=":
        return value == lit_value
    if op == "!=":
        return value != lit_value
    if op == "<":
        return value < lit_value
    if op == "<=":
        return value <= lit_value
    if op == ">":
        return value > lit_value
    if op == ">=":
        return value >= lit_value
    raise AssertionError(f"unknown operator {op!r}")


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

