"""Minimal arithmetic expression grammar for user-supplied right-hand sides.

Accepted: the variables t and y, decimal numbers, + - * / ^ (right
associative), unary minus, parentheses, and the functions exp, sin, cos.
Expressions are evaluated with numpy ufuncs on floats or arrays.  The grammar
is deliberately total: a domain error gives nan element by element instead
of raising (division by zero, overflow of ^ or exp, ^ with no real value
such as a fractional power of a negative base, sin/cos of an infinity), so
a bad rhs fails the nonnegativity certificate rather than crashing a run.

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := NUMBER | 't' | 'y' | FUNC '(' expr ')' | '(' expr ')'
"""

from __future__ import annotations

import re
from typing import Callable, List, Tuple

import numpy as np

from .errors import ExpressionError

_TOKEN_RE = re.compile(r"""
    (?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_]+)
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
""", re.VERBOSE)

Evaluator = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _overflow_to_nan(result, *operands):
    """nan where finite operands produced an infinity."""
    overflow = np.isinf(result)
    for x in operands:
        overflow &= np.isfinite(x)
    return np.where(overflow, np.nan, result)


_FUNCTIONS = {"exp": lambda x: _overflow_to_nan(np.exp(x), x), "sin": np.sin, "cos": np.cos}
_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply,
           "/": lambda a, b: np.where(b == 0.0, np.nan, np.divide(a, b)),
           "^": lambda a, b: _overflow_to_nan(np.power(a, b), a, b)}


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExpressionError(
                f"unexpected character {text[pos]!r} at position {pos} in rhs "
                f"expression {text!r}"
            )
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ExpressionError(
                f"expected {op!r} at position {pos} in rhs expression {self.text!r}, "
                f"found {value!r}" if value else
                f"expected {op!r} at end of rhs expression {self.text!r}"
            )
        self.advance()

    def parse(self) -> Evaluator:
        fn = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExpressionError(
                f"unexpected {value!r} at position {pos} in rhs expression {self.text!r}"
            )
        return fn

    def expr(self) -> Evaluator:
        fn = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                fn = self._binary(value, fn, rhs)
            else:
                return fn

    def term(self) -> Evaluator:
        fn = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.factor()
                fn = self._binary(value, fn, rhs)
            else:
                return fn

    def factor(self) -> Evaluator:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            inner = self.factor()
            return lambda t, y: -inner(t, y)
        return self.power()

    def power(self) -> Evaluator:
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            expo = self.factor()
            return self._binary("^", base, expo)
        return base

    def atom(self) -> Evaluator:
        kind, value, pos = self.advance()
        if kind == "number":
            const = float(value)
            return lambda t, y: const
        if kind == "name":
            if value == "t":
                return lambda t, y: t
            if value == "y":
                return lambda t, y: y
            if value in _FUNCTIONS:
                func = _FUNCTIONS[value]
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                return lambda t, y: func(inner(t, y))
            raise ExpressionError(
                f"unknown name {value!r} at position {pos} in rhs expression "
                f"{self.text!r}; allowed names: t, y, exp, sin, cos"
            )
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ExpressionError(
            f"unexpected {value!r} at position {pos} in rhs expression {self.text!r}"
        )

    @staticmethod
    def _binary(op: str, lhs: Evaluator, rhs: Evaluator) -> Evaluator:
        func = _BINARY[op]
        return lambda t, y: func(lhs(t, y), rhs(t, y))


def parse_expression(text: str) -> Evaluator:
    """Compile an rhs expression into a callable (t, y) -> value, evaluated
    elementwise on floats or arrays of one shape."""
    if not text or text.isspace():
        raise ExpressionError("empty rhs expression")
    fn = _Parser(text).parse()

    def evaluate(t, y):
        with np.errstate(all="ignore"):
            return np.asarray(fn(np.asarray(t, dtype=float), np.asarray(y, dtype=float)))[()]

    return evaluate
