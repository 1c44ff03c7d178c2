"""The tests' reference cover of a sweep and reference coded points.

The level sweeper keeps the whole level-n cover as one ``CylinderBatch``
and projects every cylinder at an angle, with no cap of its own.  The
projection recursion of ``favlab.favard`` never builds a cover; its lengths
are checked against this one.

``iterated_pi_point`` approximates a coded point by iterating the anchor's
period from the centre of the enclosing disk until the residual contraction
drops below a tolerance, and returns a rigorous error radius with it;
``IFS.pi_point``'s closed form is checked against it, and against
``mp_pi_point``, the coded point of the same float maps in 60-digit
arithmetic.

``reference_parse_expr`` is a hand-written tokenizer and recursive-descent
parser of the CLI expression grammar, which ``favlab.exprs.parse_expr``,
built on Python's own parser, is checked against."""

import math
import re
from fractions import Fraction

import mpmath

from favlab.errors import ConfigError
from favlab.exprs import ExprValue
from favlab.favard import merge_intervals
from favlab.ifs import IDENTITY, DiskBody, compose_geoms


class LevelSweeper:
    """Incrementally maintained level-n cylinder cover for one system.  Each
    cylinder's geometry is applied to an anchor: a disk body's centre, or for
    a hull body the origin, whose images are the cylinders' translations."""

    def __init__(self, ifs, body=None):
        self.ifs = ifs
        self.body = body or DiskBody(ifs.center, ifs.R0)
        self._disk = isinstance(self.body, DiskBody)
        self.anchor = self.body.center if self._disk else (0.0, 0.0)
        self.n, self.cover = 0, ifs.cover(0)
        self.x, self.y = self.cover.images(*self.anchor)

    def advance_to(self, n):
        if self.n < n:
            self.cover = self.ifs.cover(n - self.n, self.cover)
            self.n = n
            self.x, self.y = self.cover.images(*self.anchor)

    def intervals_at(self, theta):
        cover = self.cover
        mid = self.x * math.cos(theta) + self.y * math.sin(theta)
        if self._disk:
            half = cover.r * self.body.radius
            return mid - half, mid + half
        lo, hi = self.body.support_range(cover.orient * (theta - cover.theta))
        return mid + cover.r * lo, mid + cover.r * hi

    def merged_at(self, theta):
        """Union of the projected level-n intervals at angle theta."""
        return merge_intervals(*self.intervals_at(theta))

    def length_at(self, theta):
        return self.merged_at(theta).total_length


def sweeper_at(ifs, n, body=None):
    """The level sweeper of (ifs, body) advanced to level n."""
    sweeper = LevelSweeper(ifs, body=body)
    sweeper.advance_to(n)
    return sweeper


def geom_power(g, k):
    """g composed with itself k times, by binary exponentiation."""
    acc = IDENTITY
    base = g
    while k > 0:
        if k & 1:
            acc = compose_geoms(acc, base)
        base = compose_geoms(base, base)
        k >>= 1
    return acc


def iterated_pi_point(ifs, g_u, anchor, tol):
    """The coded point of u . anchor, given g_u = compose(u), and an error
    radius: the image of the disk centre under F_u, F_prefix and k copies of
    F_period, k the least with r_period^k <= tol.  The true point lies in the
    same image of the enclosing disk, so within D * r_u * r_tail of it."""
    g_per = ifs.compose(anchor.period)
    k = max(1, math.ceil(math.log(tol) / g_per.log_r))
    g_tail = compose_geoms(ifs.compose(anchor.prefix), geom_power(g_per, k))
    p = g_u.apply(g_tail.apply(ifs.center))
    return p, ifs.D * math.exp(min(g_u.log_r + g_tail.log_r, 0.0))


def mp_pi_point(ifs, word, anchor, dps=60):
    """The coded point of word . anchor as an mpmath complex number: every
    map z -> r e^{i theta} (z or its conjugate) + t of the float maps taken
    exactly, the period iterated from 0 until r_period^k < 10^-(dps + 10),
    then the prefix and the word applied, each symbol's map innermost last."""
    with mpmath.workdps(dps):
        maps = [(mpmath.mpf(f.r) * mpmath.expj(mpmath.mpf(f.theta)), f.orient,
                 mpmath.mpc(f.tx, f.ty)) for f in ifs.maps]

        def apply(w, z):
            for sym in reversed(w):
                a, o, t = maps[sym - 1]
                z = a * (z if o == 1 else mpmath.conj(z)) + t
            return z

        steps = math.ceil((dps + 10) * math.log(10) / -ifs.compose(anchor.period).log_r)
        z = mpmath.mpc(0)
        for _ in range(steps):
            z = apply(anchor.period, z)
        return apply(word, apply(anchor.prefix, z))


_TOKEN = re.compile(r"\s*(\d+\.\d*|\.\d+|\d+|pi|sqrt|[()+\-*/])")


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


def reference_parse_expr(text, dps=40):
    """The ExprValue of text, read token by token by recursive descent."""
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
            return mpmath.mpf("0" + tok), Fraction(tok)  # mpmath misreads ".0"
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
