"""Tiny arithmetic expression evaluator for CLI flags.

Grammar: decimal literals, ``pi``, ``sqrt(<int>)``, unary ``-``, binary
``+ - * /`` and parentheses.  Python's parser reads the text, once its
whitespace is joined to single spaces and the leading zeros it refuses are
dropped, and a walk over a whitelist of its nodes evaluates it twice: in
mpmath (40 digits by default), from each literal's source digits, and in
exact rational arithmetic, which survives only if no irrational leaf occurs,
so ``3/7`` stays an exact Fraction while ``1+sqrt(2)`` does not.
"""

import ast
import math
import operator
import re
from fractions import Fraction

import mpmath

from .errors import ConfigError

_LEADING_ZEROS = re.compile(r"(?<![0-9.])0+(?=[0-9])")
_LEAF = re.compile(r"(pi)|sqrt ?\( ?([0-9]+) ?\)|[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+")
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}


class ExprValue:
    """Evaluated expression: float value, mpf, exact Fraction or None."""

    def __init__(self, mp, exact):
        self.mp = mp
        self.exact = exact
        self.value = float(mp)

    def as_fraction(self):
        """Exact value if rational, else the exact binary value of the mpf,
        136 bits at 40 digits."""
        if self.exact is not None:
            return self.exact
        man, exp = self.mp.man_exp
        return Fraction(man) * Fraction(2) ** exp


def _evaluate(node, src):
    """(mpf, Fraction or None) of a node of the grammar; src is one ASCII
    line, so a node's column offsets index it."""
    leaf = _LEAF.fullmatch(src, node.col_offset, node.end_col_offset)
    if leaf and leaf[1]:
        return +mpmath.pi, None
    if leaf and leaf[2]:
        n = int(leaf[2])
        root = math.isqrt(n)
        return mpmath.sqrt(n), Fraction(root) if root * root == n else None
    if leaf:  # mpmath misreads ".0" without its leading zero
        return mpmath.mpf("0" + leaf[0]), Fraction(leaf[0])
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        mp, ex = _evaluate(node.operand, src)
        return -mp, None if ex is None else -ex
    op = _BINARY.get(type(node.op)) if isinstance(node, ast.BinOp) else None
    if op is None:
        raise ConfigError(f"unsupported {src[node.col_offset:node.end_col_offset]!r} in {src!r}")
    (mp, ex), (mp2, ex2) = _evaluate(node.left, src), _evaluate(node.right, src)
    if op is operator.truediv and mp2 == 0:
        raise ConfigError(f"division by zero in {src!r}")
    return op(mp, mp2), None if ex is None or ex2 is None else op(ex, ex2)


def parse_expr(text, dps=40):
    src = _LEADING_ZEROS.sub("", " ".join(text.split()))
    if not src.isascii() or "#" in src:  # Python folds non-ASCII names and skips comments
        raise ConfigError(f"bad expression {text!r}")
    try:
        with mpmath.workdps(dps):
            mp, ex = _evaluate(ast.parse(src, mode="eval").body, src)
            value = ExprValue(+mp, ex)
    except (RecursionError, MemoryError):  # MemoryError: Python's parser stack
        raise ConfigError("expression nests too deeply") from None
    except SyntaxError as e:
        if e.msg == "too many nested parentheses":
            raise ConfigError("expression nests too deeply") from None
        raise ConfigError(f"bad expression {text!r}: {e.msg}") from None
    except ValueError as e:  # a literal past Python's integer digit limit
        raise ConfigError(f"bad expression {text!r}: {e}") from None
    if not math.isfinite(value.value):
        raise ConfigError(f"{text!r} exceeds the float range")
    return value
