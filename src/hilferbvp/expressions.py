"""Arithmetic expressions for user-supplied right-hand sides.

The language is Python's arithmetic grammar over the tokens of `_tokenize`,
with ^ for ** (right associative, above unary minus: -t^2 is -(t^2)):
numbers, t, y, unary minus, + - * / ^, parentheses, and exp, sin or cos of
one argument.  Parentheses nest at most 200 deep and operators `_MAX_DEPTH`;
a chain such as a+b-c*d does not nest, and Python's parser takes a few
thousand terms.  Every error reads "unexpected <token> at position <p> in
rhs expression <text>", then ": <limit>" if a limit was reached.

Values are numpy ufunc results on floats or arrays, and total: division by
zero, overflow of ^ or exp, ^ with no real value (such as a fractional power
of a negative base) and sin/cos of an infinity give nan element by element,
so a bad rhs fails the nonnegativity certificate instead of crashing a run.
"""

from __future__ import annotations

import ast
import itertools
import re
from typing import Callable, List

import numpy as np

from .errors import ExpressionError

_TOKEN_RE = re.compile(r"""\s*(?:
    (?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?P<exponent>[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_]+)
  | (?P<op>[-+*/^()])
  | (?P<other>\S))""", re.VERBOSE)

_MAX_DEPTH = 500    # evaluation recurses once a level: well inside the recursion limit
Evaluator = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _overflow_to_nan(result, *operands):
    """nan where finite operands produced an infinity."""
    overflow = np.isinf(result)
    for x in operands:
        overflow &= np.isfinite(x)
    return np.where(overflow, np.nan, result)


_FUNCTIONS = {"exp": lambda x: _overflow_to_nan(np.exp(x), x), "sin": np.sin, "cos": np.cos}
_VARIABLES = {"t": lambda t, y: t, "y": lambda t, y: y}
_BINARY = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
           ast.Div: lambda a, b: np.where(b == 0.0, np.nan, np.divide(a, b)),
           ast.Pow: lambda a, b: _overflow_to_nan(np.power(a, b), a, b)}


def _error(text: str, index: int, reason: str = "") -> ExpressionError:
    """The error at the index-th token of ``text``, or at its end."""
    m = next(itertools.islice(_TOKEN_RE.finditer(text), index, None), None)
    at = f"{m[m.lastindex]!r} at position {m.start(m.lastindex)}" if m else \
        f"end of expression at position {len(text)}"
    limit = f": {reason}" if reason.startswith("too") else ""    # only limits are named
    return ExpressionError(f"unexpected {at} in rhs expression {text!r}{limit}")


def _tokenize(text: str) -> List[str]:
    """The Python source of each token, closed by an empty end token: ^ as **,
    a number as a float literal of its value (of float() if not ASCII)."""
    pieces = []
    for num, exponent, name, op, _ in _TOKEN_RE.findall(text):
        if num:
            num = num if exponent else num + "e0"
            pieces.append(num if num.isascii() else repr(float(num)).replace("inf", "1e999"))
        elif op or name in _VARIABLES or name in _FUNCTIONS:
            pieces.append("**" if op == "^" else op or name)
        else:
            raise _error(text, len(pieces))
    return pieces + [""]


def _compile(node: ast.expr, source: str, depth: int = 0) -> Evaluator:
    """The evaluator of a tree; other nodes raise SyntaxError at a token."""
    if isinstance(node, ast.Constant):
        return lambda t, y, const=node.value: const
    if isinstance(node, ast.Name) and node.id in _VARIABLES:
        return _VARIABLES[node.id]
    if depth > _MAX_DEPTH:
        raise SyntaxError("too many nested operators", ("", 1, node.col_offset + 1, ""))
    if isinstance(node, ast.BinOp):
        # A left-associative chain runs in a loop, in the order of its terms.
        spine = []
        while isinstance(node, ast.BinOp):
            spine.append(node)
            node = node.left
        first = _compile(node, source, depth + 1)
        steps = []
        for link in reversed(spine):
            steps.append((_BINARY[type(link.op)], _compile(link.right, source, depth + 1)))

        def chain(t, y):
            value = first(t, y)
            for func, operand in steps:
                value = func(value, operand(t, y))
            return value
        return chain
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _compile(node.operand, source, depth + 1)
        return lambda t, y: -inner(t, y)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCTIONS and source[node.func.end_col_offset + 1] == "("
            and len(node.args) == 1 and not node.keywords):
        func, inner = _FUNCTIONS[node.func.id], _compile(node.args[0], source, depth + 1)
        return lambda t, y: func(inner(t, y))
    # Any other call, and a function name with no '(' after it, fail at the
    # token after the callee or the name.
    call = isinstance(node, (ast.Call, ast.Name))
    offset = getattr(node, "func", node).end_col_offset + 1 if call else node.col_offset
    raise SyntaxError("", ("", 1, offset + 1, ""))


def parse_expression(text: str) -> Evaluator:
    """Compile an rhs expression into a callable (t, y) -> value, elementwise."""
    pieces = _tokenize(text)
    source = " ".join(pieces)
    try:
        fn = _compile(compile(source, "<rhs>", "eval", ast.PyCF_ONLY_AST).body, source)
    except (RecursionError, MemoryError):   # CPython's parser ran out of depth
        raise _error(text, len(pieces), "too long or nested too deeply") from None
    except SyntaxError as exc:
        # Tokens hold no spaces, so the spaces before an offset count its token;
        # CPython 3.11 gives offset 0 at the end of the source.
        index = source.count(" ", 0, exc.offset - 1 if exc.offset else None)
        raise _error(text, index, exc.msg) from None

    def evaluate(t, y):
        with np.errstate(all="ignore"):
            return np.asarray(fn(np.asarray(t, dtype=float), np.asarray(y, dtype=float)))[()]

    return evaluate
