"""Tiny arithmetic expression evaluator for CLI flags.

Grammar: decimal literals, ``pi``, ``sqrt(<int>)``, ``+ - * /`` and parentheses.
Evaluation runs twice: in mpmath (40 digits by default) and in exact rational
arithmetic; the rational result survives only if no irrational leaf occurs,
so ``3/7`` stays an exact Fraction while ``1+sqrt(2)`` does not.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import mpmath

from .errors import ConfigError

_TOKEN = re.compile(r"\s*(\d+\.\d*|\.\d+|\d+|pi|sqrt|[()+\-*/])")


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


def _tokenize(text):
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ConfigError(f"bad expression near {text[pos:]!r}")
            break
        out.append(m.group(1))
        pos = m.end()
    return out


def parse_expr(text, dps=40):
    tokens = _tokenize(text)
    idx = [0]

    def peek():
        return tokens[idx[0]] if idx[0] < len(tokens) else None

    def take(expected=None):
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise ConfigError(f"expected {expected or 'token'} in {text!r}")
        idx[0] += 1
        return tok

    def atom():
        tok = take()
        if tok == "(":
            v = expr()
            take(")")
            return v
        if tok == "-":
            mp, ex = atom()
            return -mp, None if ex is None else -ex
        if tok == "pi":
            return +mpmath.pi, None
        if tok == "sqrt":
            take("(")
            inner = take()
            take(")")
            if not inner.isdigit():
                raise ConfigError("sqrt takes an integer literal")
            n = int(inner)
            root = math.isqrt(n)
            exact = Fraction(root) if root * root == n else None
            return mpmath.sqrt(n), exact
        if re.fullmatch(r"\d+\.\d*|\.\d+|\d+", tok):
            return mpmath.mpf(tok), Fraction(tok)
        raise ConfigError(f"unexpected token {tok!r} in {text!r}")

    def term():
        mp, ex = atom()
        while peek() in ("*", "/"):
            op = take()
            mp2, ex2 = atom()
            if op == "*":
                mp = mp * mp2
                ex = None if ex is None or ex2 is None else ex * ex2
            else:
                if mp2 == 0:
                    raise ConfigError(f"division by zero in {text!r}")
                mp = mp / mp2
                ex = None if ex is None or ex2 is None else ex / ex2
        return mp, ex

    def expr():
        mp, ex = term()
        while peek() in ("+", "-"):
            op = take()
            mp2, ex2 = term()
            if op == "+":
                mp = mp + mp2
                ex = None if ex is None or ex2 is None else ex + ex2
            else:
                mp = mp - mp2
                ex = None if ex is None or ex2 is None else ex - ex2
        return mp, ex

    with mpmath.workdps(dps):
        try:
            mp, ex = expr()
        except RecursionError:
            raise ConfigError("expression nests too deeply") from None
        if idx[0] != len(tokens):
            raise ConfigError(f"trailing input in {text!r}")
        value = ExprValue(+mp, ex)
    if not math.isfinite(value.value):
        raise ConfigError(f"{text!r} exceeds the float range")
    return value
