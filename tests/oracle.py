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
arithmetic."""

import math

import mpmath

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
