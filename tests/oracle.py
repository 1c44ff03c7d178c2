"""The tests' reference cover of a sweep: the level sweeper keeps the whole
level-n cover as one ``CylinderBatch`` and projects every cylinder at an
angle, with no cap of its own.  The projection recursion of
``favlab.favard`` never builds a cover; its lengths are checked against this
one."""

import math

from favlab.favard import merge_intervals
from favlab.ifs import DiskBody


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
