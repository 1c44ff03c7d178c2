"""Planar similitude systems and their symbolic coding.

A system is a finite list of contracting similitudes F_i(z) = r_i M_i z + t_i
where M_i is a rotation (orientation +1) or a reflection (orientation -1).
Finite words over {1..m} index composed maps; the empty word is the identity.
All angles live in [0, 2*pi) and comparisons are circular.

Word geometry costs one step per symbol.  ``IFS.compose`` runs over a
per-symbol table (r, theta, orient, tx, ty, log r) built once per system, with
exactly the arithmetic of the left fold of ``compose_geoms`` from the
identity, so its results are bit-identical to that fold.  A batch of words
is a ``CylinderBatch`` of geometry columns, and mass bands (``IFS.band``) and
level covers (``IFS.cover``) grow by the one child step u -> u.i with the
same arithmetic, so no word is recomposed from the root.  A band keeps its
words as a matrix of symbol rows beside its batch, and ``row_words`` forms
tuples only where a word is read.  ``CylinderBatch.images`` is the one code
path that applies the maps to arrays of points.  ``IFS.pi_point`` takes a
word's composed geometry from its caller, which composes each word once per
check, and applies it to the anchor's coded point, formed once per anchor in
closed form: an eventually periodic tail prefix.period.period... codes
F_prefix(z) for z the fixed point of F_period, so the point carries only
the rounding of its few operations.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import astuple, dataclass, field

import numpy as np

from .errors import ConfigError, LevelTooLarge, PreconditionViolated, SymbolOutOfRange

TWO_PI = 2.0 * math.pi

Word = tuple  # tuple of 1-based symbols
TAIL_CACHE = 4096  # anchor points held per system
BAND_CAP = 2_000_000  # words of one mass band
BAND_DEPTH_CAP = 600  # levels of the mass-band descent
HULL_DEPTH = 6  # attractor sample depth of the hull
HULL_SAMPLE_CAP = 200_000  # sample points past which the hull stops refining
HULL_TOL = 1e-9  # containment slack of the hull invariance check


def norm_angle(t):
    """Reduce an angle into [0, 2*pi)."""
    t = math.fmod(t, TWO_PI)
    return t + TWO_PI if t < 0.0 else t


def circ_dist(a, b):
    """Circular distance between two angles, in [0, pi]."""
    d = abs(math.fmod(a - b, TWO_PI))
    return min(d, TWO_PI - d)


def parse_word(text):
    """Parse a digit string like '213' into a word tuple."""
    if text in ("", "-"):
        return ()
    try:
        return tuple(int(c) for c in text)
    except ValueError:
        raise SymbolOutOfRange(f"bad word {text!r}")


def word_str(u):
    return "".join(map(str, u))


def exceeds(m, n, cap):
    """Whether m**n > cap, without forming m**n for a huge n."""
    return m ** min(n, cap.bit_length()) > cap


def finite_number(value, what):
    """A finite JSON number as a float; ``what`` names it in the ConfigError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer literal beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{what} must be finite")
    return x


def read_text(path):
    """The text of the file at path; an unreadable file or bad UTF-8 is a
    config error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read {path}: {getattr(e, 'strerror', None) or e}") from None


def read_json(path):
    """The JSON document in the file at path, for configs and certificates.
    Beside read_text's errors, bad JSON, nesting past the recursion limit
    and an integer past Python's digit limit are config errors."""
    text = read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:  # ValueError: JSON or integer
        raise ConfigError(f"cannot read {path}: {e}") from None


@dataclass(frozen=True)
class CylinderGeometry:
    """Parameters of a composed map F_u: ratio product, net angle, orientation,
    translation.  log_r duplicates log(r) so that very long words stay usable
    after r underflows."""

    r: float
    theta: float
    orient: int  # +1 rotation, -1 contains a reflection
    tx: float
    ty: float
    log_r: float = 0.0

    def apply(self, p):
        x, y = p
        c, s = math.cos(self.theta), math.sin(self.theta)
        o = self.orient
        return (
            self.r * (c * x - o * s * y) + self.tx,
            self.r * (s * x + o * c * y) + self.ty,
        )

    def matrix(self):
        c, s = math.cos(self.theta), math.sin(self.theta)
        o = self.orient
        return np.array([[c, -o * s], [s, o * c]])

    def fixed_point(self):
        """Solve z = F(z), for a ratio r < 1; the 2x2 system (I - r M) z = t."""
        a = np.eye(2) - self.r * self.matrix()
        x, y = np.linalg.solve(a, np.array([self.tx, self.ty]))
        return (float(x), float(y))


@dataclass(frozen=True)
class Similitude(CylinderGeometry):
    """One contracting planar map, the geometry of a one-symbol word: the
    ratio must lie in (0, 1), the angle is reduced into [0, 2*pi) and log_r is
    set to log r."""

    def __post_init__(self):
        if not (0.0 < self.r < 1.0):
            raise ConfigError(f"ratio {self.r} outside (0,1)")
        if self.orient not in (1, -1):
            raise ConfigError(f"orientation {self.orient} not in {{+1,-1}}")
        object.__setattr__(self, "theta", norm_angle(self.theta))
        object.__setattr__(self, "log_r", math.log(self.r))


IDENTITY = CylinderGeometry(1.0, 0.0, 1, 0.0, 0.0, 0.0)


def compose_geoms(g, h):
    """Geometry of F_g o F_h (g applied after h)."""
    tx, ty = g.apply((h.tx, h.ty))
    return CylinderGeometry(
        r=g.r * h.r,
        theta=norm_angle(g.theta + g.orient * h.theta),
        orient=g.orient * h.orient,
        tx=tx,
        ty=ty,
        log_r=g.log_r + h.log_r,
    )


@dataclass(frozen=True)
class TailWord:
    """Eventually periodic infinite sequence prefix . period period ...

    Canonical form: primitive period, and the prefix never ends with the last
    period symbol (it is absorbed into a rotation of the period), so equality
    of representations is equality of the represented sequences.
    """

    prefix: Word
    period: Word

    def __post_init__(self):
        if not self.period:
            raise ConfigError("TailWord period must be nonempty")
        prefix, period = self.prefix, self.period
        # primitive period
        n = len(period)
        for d in range(1, n):
            if n % d == 0 and period[:d] * (n // d) == period:
                period = period[:d]
                n = d
                break
        # absorb prefix tail into the period by rotating it
        while prefix and prefix[-1] == period[-1]:
            prefix = prefix[:-1]
            period = (period[-1],) + period[:-1]
        object.__setattr__(self, "prefix", tuple(prefix))
        object.__setattr__(self, "period", tuple(period))

    def head(self, n):
        """First n symbols of the represented sequence."""
        out = list(self.prefix[:n])
        i = 0
        while len(out) < n:
            out.append(self.period[i % len(self.period)])
            i += 1
        return tuple(out)


def similarity_dimension(ratios):
    """Solve sum r_i^gamma = 1 by bisection on the decreasing sum."""
    ratios = list(ratios)
    if not ratios:
        raise ConfigError("empty ratio list")
    for r in ratios:
        if not (0.0 < r < 1.0):
            raise ConfigError(f"ratio {r} outside (0,1)")

    def f(g):
        return math.fsum(r**g for r in ratios)

    lo, hi = 0.0, 1.0
    while f(hi) > 1.0:
        lo, hi = hi, 2.0 * hi
    # f(lo) >= 1 >= f(hi)
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if f(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class IFS:
    """A similitude system and the constants derived from its maps: similarity
    dimension, enclosing invariant disk and the diameter bound D = 2*R0."""

    maps: tuple
    gamma: float = field(init=False)
    r_min: float = field(init=False)
    center: tuple = field(init=False)
    R0: float = field(init=False)
    D: float = field(init=False)

    def __post_init__(self):
        if not self.maps:
            raise ConfigError("no maps")
        gamma = similarity_dimension([f.r for f in self.maps])
        center, R0 = _enclosing_disk(self.maps)
        if not all(map(math.isfinite, (*center, 2.0 * R0))):
            raise ConfigError("the enclosing disk of the maps exceeds the float range")
        # _rows, the per-symbol rows of compose keyed by symbol, _maps, the
        # same rows as a batch, and _tails, the bounded cache of anchor
        # points, are not fields
        rows = {i: (f.r, f.theta, f.orient, f.tx, f.ty, f.log_r)
                for i, f in enumerate(self.maps, start=1)}
        self.__dict__.update(gamma=gamma, r_min=min(f.r for f in self.maps), center=center,
                             R0=R0, D=2.0 * R0, _rows=rows, _maps=CylinderBatch.of(self.maps),
                             _tails={})

    @classmethod
    def from_maps(cls, maps):
        return cls(tuple(maps))

    @classmethod
    def from_dict(cls, data):
        try:
            raw_maps = data["maps"]
        except (KeyError, TypeError):
            raise ConfigError("missing 'maps' list")
        if not isinstance(raw_maps, list) or not raw_maps:
            raise ConfigError("'maps' must be a nonempty list")
        maps = []
        for i, m in enumerate(raw_maps):
            if not isinstance(m, dict):
                raise ConfigError(f"map {i}: expected an object, got {m!r}")
            extra = set(m) - {"r", "theta", "theta_over_pi", "reflect", "tx", "ty"}
            if extra:
                raise ConfigError(f"map {i}: unknown keys {sorted(extra)}")
            if ("theta" in m) == ("theta_over_pi" in m):
                raise ConfigError(f"map {i}: exactly one of theta/theta_over_pi")
            for key in ("r", "tx", "ty"):
                if key not in m:
                    raise ConfigError(f"map {i}: missing field {key!r}")
            if not isinstance(m.get("reflect", False), bool):
                raise ConfigError(f"map {i}: reflect must be true or false")
            num = {k: finite_number(v, f"map {i}: {k}") for k, v in m.items() if k != "reflect"}
            theta = num["theta"] if "theta" in num else num["theta_over_pi"] * math.pi
            if not math.isfinite(theta):
                raise ConfigError(f"map {i}: theta_over_pi * pi overflows")
            maps.append(
                Similitude(
                    r=num["r"],
                    theta=theta,
                    orient=-1 if m.get("reflect", False) else 1,
                    tx=num["tx"],
                    ty=num["ty"],
                )
            )
        return cls.from_maps(maps)

    @classmethod
    def from_json(cls, path):
        return cls.from_dict(read_json(path))

    @property
    def m(self):
        return len(self.maps)

    def compose(self, u, g=IDENTITY):
        """Geometry of F_g o F_u; the empty word gives g.  One table row per
        symbol, with the arithmetic of compose_geoms, so the result is
        bit-identical to the left fold of compose_geoms over u from g."""
        r, th, o, tx, ty, lr = g.r, g.theta, g.orient, g.tx, g.ty, g.log_r
        rows, cos, sin, fmod = self._rows, math.cos, math.sin, math.fmod
        for sym in u:
            try:
                hr, hth, ho, hx, hy, hlr = rows[sym]
            except KeyError:
                raise SymbolOutOfRange(f"symbol {sym} outside 1..{len(self.maps)}")
            c, s = cos(th), sin(th)
            tx, ty = r * (c * hx - o * s * hy) + tx, r * (s * hx + o * c * hy) + ty
            r *= hr
            th = fmod(th + o * hth, TWO_PI)
            if th < 0.0:
                th += TWO_PI
            o *= ho
            lr += hlr
        return CylinderGeometry(r, th, o, tx, ty, lr)

    def mu_mass(self, u):
        """Natural-measure mass of the cylinder [u]: r_u^gamma."""
        g = self.compose(u)
        return math.exp(self.gamma * g.log_r)

    def mass_band(self, r):
        """All words s with r*r_min < r_s <= r, in depth-first symbol order."""
        return row_words(self.band(r)[1])

    def band(self, r, cap=BAND_CAP):
        """The mass band of level r, the words s with r*r_min < r_s <= r, as
        a pair (batch, symbols): the (N, depth) unsigned matrix ``symbols``
        holds word k's symbols in row k, followed by zeros, and row k of the
        ``CylinderBatch`` is its ``compose`` bit for bit, formed a level at a
        time by the child step.  Sorting the rows (a prefix first) gives
        depth-first order.  A band of more than ``cap`` words is refused,
        before a level's geometry is formed where that level has more than
        ``cap`` nodes, as each node heads band words of its own."""
        if not (0.0 < r < 1.0):
            raise ConfigError(f"band level {r} outside (0,1)")
        low = r * self.r_min
        # the descent takes one step a level, deepest along the largest ratio
        depth, r_s, r_max = 0, 1.0, max(f.r for f in self.maps)
        while r_s * r_max > low:
            depth, r_s = depth + 1, r_s * r_max
            if depth > BAND_DEPTH_CAP:
                raise LevelTooLarge(f"mass band {r} descends past level {BAND_DEPTH_CAP}")
        digits = np.arange(1, self.m + 1, dtype=np.min_scalar_type(self.m))
        # each level's words as rows of symbols, beside their geometry
        level, spelt = CylinderBatch.of([IDENTITY]), np.empty((1, 0), digits.dtype)
        parts, size = [], 0
        while True:
            parent, i = np.nonzero(np.multiply.outer(level.r, self._maps.r) > low)
            if len(parent) > cap or size > cap:
                raise LevelTooLarge(f"mass band exceeds cap {cap}")
            if not len(parent):
                break
            level = _band_children(level, parent, i, self._maps)
            spelt = np.column_stack((spelt[parent], digits[i]))
            emit = level.r <= r
            size += np.count_nonzero(emit)
            if emit.any():
                parts.append((spelt, level) if emit.all() else (spelt[emit], level.take(emit)))
        symbols, band = parts[0]
        if len(parts) > 1:  # more than one level emits: sort the zero-padded rows
            width = parts[-1][0].shape[1]
            rows = np.concatenate([np.pad(mat, ((0, 0), (0, width - mat.shape[1]))) for mat, _ in parts])
            order = np.lexsort(rows.T[::-1])
            symbols = rows[order]
            columns = zip(*(part.columns() for _, part in parts))
            band = CylinderBatch(*(np.concatenate(col)[order] for col in columns))
        return band, symbols

    def cover(self, n, level=None):
        """The level-n descendants u.v of the words u of the batch ``level``
        (the empty word where None), each by n child steps, in (u, v) order:
        from the empty word, the m^n words of length n in lexicographic
        order, row k ``compose`` of the k-th word bit for bit."""
        level = CylinderBatch.of([IDENTITY]) if level is None else level
        for _ in range(n):
            parent, i = np.divmod(np.arange(len(level) * self.m), self.m)
            level = _band_children(level, parent, i, self._maps)
        return level

    def pi_point(self, g_u, anchor):
        """The coded point of u . anchor, given g_u = compose(u): F_u applied
        to the anchor's coded point; g_u = compose(u, compose(s)) gives the
        point of s . u . anchor."""
        return g_u.apply(self._anchor_point(anchor))

    def _anchor_point(self, anchor):
        """The coded point of the anchor, F_prefix of the fixed point of
        F_period, formed once per anchor and held in a bounded cache."""
        point = self._tails.get(anchor)
        if point is None:
            point = self.compose(anchor.prefix).apply(self.compose(anchor.period).fixed_point())
            if len(self._tails) >= TAIL_CACHE:
                # oldest first; pop tolerates a concurrent caller's eviction
                self._tails.pop(next(iter(self._tails)), None)
            self._tails[anchor] = point
        return point


@dataclass(eq=False)
class CylinderBatch:
    """The geometries F_u of a batch of words u, one numpy column per
    CylinderGeometry field (theta in [0, 2*pi), orient as int8), in word
    order; ``batch[k]`` is row k's CylinderGeometry in Python scalars.

    Bands and covers grow by the one child step ``_band_children``, with
    compose's arithmetic, so row k is ``compose`` of its word bit for bit.
    ``images`` is the one code that applies the maps to arrays of points."""

    r: np.ndarray
    theta: np.ndarray
    orient: np.ndarray
    tx: np.ndarray
    ty: np.ndarray
    log_r: np.ndarray

    @classmethod
    def of(cls, geoms):
        """The batch of a sequence of CylinderGeometry."""
        cols = np.array([astuple(g) for g in geoms]).T
        return cls(cols[0], cols[1], cols[2].astype(np.int8), *cols[3:])

    def columns(self):
        """The six geometry columns, in CylinderGeometry's field order."""
        return self.r, self.theta, self.orient, self.tx, self.ty, self.log_r

    def __len__(self):
        return len(self.r)

    def __getitem__(self, k):
        return CylinderGeometry(*(col[k].item() for col in self.columns()))

    def take(self, rows):
        """The rows at ``rows``, an index or boolean mask array."""
        return CylinderBatch(*(col[rows] for col in self.columns()))

    def images(self, x, y):
        """F_u(p) for every row u (outer) and every point p (inner) of the
        points (x, y), numbers or arrays, flattened; each is
        CylinderGeometry.apply's expression, bit for bit."""
        r, o = self.r[:, None], self.orient[:, None]
        c, s = np.cos(self.theta)[:, None], np.sin(self.theta)[:, None]
        return ((r * (c * x - o * s * y) + self.tx[:, None]).ravel(),
                (r * (s * x + o * c * y) + self.ty[:, None]).ravel())


def row_words(symbols):
    """The words of a band's symbol rows, each row's symbols before its zero
    padding, as tuples."""
    lengths = np.count_nonzero(symbols, axis=1).tolist()
    return [tuple(row[:n]) for row, n in zip(symbols.tolist(), lengths)]


def _band_children(level, parent, i, maps):
    """The children u.(i+1) of a batch's words u = level[parent]: F_u o F_{i+1},
    with compose's arithmetic, for the batch ``maps`` of the system's maps."""
    c, s = np.cos(level.theta)[parent], np.sin(level.theta)[parent]
    r_p, o_p = level.r[parent], level.orient[parent]
    t = np.fmod(level.theta[parent] + o_p * maps.theta[i], TWO_PI)
    t[t < 0.0] += TWO_PI
    return CylinderBatch(r_p * maps.r[i], t, o_p * maps.orient[i],
                         r_p * (c * maps.tx[i] - o_p * s * maps.ty[i]) + level.tx[parent],
                         r_p * (s * maps.tx[i] + o_p * c * maps.ty[i]) + level.ty[parent],
                         level.log_r[parent] + maps.log_r[i])


def _enclosing_disk(maps):
    center = maps[0].fixed_point()
    r0 = 0.0
    for f in maps:
        fx, fy = f.apply(center)
        d = math.hypot(fx - center[0], fy - center[1])
        if f.r < 1.0:
            r0 = max(r0, d / (1.0 - f.r))
    return center, r0


# ---------------------------------------------------------------------------
# Convex bodies used for projection intervals.


class DiskBody:
    """The enclosing disk; projections are closed-form."""

    def __init__(self, center, radius):
        self.center = center
        self.radius = radius

    def interval(self, batch, theta):
        """Projections at theta of the disk under each row of a
        CylinderBatch."""
        cx, cy = batch.images(*self.center)
        p = cx * math.cos(theta) + cy * math.sin(theta)
        h = batch.r * self.radius
        return p - h, p + h


class HullBody:
    """A certified invariant convex polygon (possibly a degenerate segment).

    ``support_range(psi)`` gives, for each direction psi, the minimum and
    maximum over the vertices of fl(fl(cos(psi) x) + fl(sin(psi) y)), the
    min and max of the dense N x V matrix of those products, accumulated one
    vertex at a time.  The one freedom left is the sign of a zero extreme
    that two vertices reach as +0.0 and -0.0, where the dense reduction
    itself returns either."""

    def __init__(self, vertices):
        self.vertices = np.asarray(vertices, dtype=float)
        if not (len(self.vertices) and np.isfinite(self.vertices).all()):
            raise PreconditionViolated("hull vertices must be finite and nonempty")

    def support_range(self, psi):
        """Min and max over the vertices of cos(psi) x + sin(psi) y, per entry
        of the array psi; NaN where psi is NaN."""
        psi = np.asarray(psi, dtype=float)
        c, s = np.cos(psi), np.sin(psi)
        lo, hi = np.full_like(c, np.inf), np.full_like(c, -np.inf)
        val, term = np.empty_like(c), np.empty_like(c)
        for x, y in self.vertices:
            np.add(np.multiply(c, x, out=val), np.multiply(s, y, out=term), out=val)
            np.minimum(lo, val, out=lo)
            np.maximum(hi, val, out=hi)
        return lo, hi


def _convex_hull(points):
    """Monotone chain; collinear input collapses to its two extreme points.
    The points strictly inside the octagon of the extreme points in eight
    directions are dropped first, by a slack far above the rounding of the
    cross products: none is a vertex, and the chain would pop each."""
    xy = np.asarray(points, dtype=float).reshape(-1, 2)
    x, y = xy.T
    directions = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))
    octagon = [tuple(xy[np.argmax(u * x + v * y)]) for u, v in directions]
    slack = 1e-9 * (np.abs(x).max() + np.abs(y).max()) ** 2
    # with fewer than three distinct corners no point is strictly inside
    inside = np.full(len(xy), len(set(octagon)) > 2)
    for (ax, ay), (bx, by) in zip(octagon, octagon[1:] + octagon[:1]):
        if (ax, ay) != (bx, by):
            inside &= (bx - ax) * (y - ay) - (by - ay) * (x - ax) > slack
    pts = sorted(set(map(tuple, xy[~inside].tolist())))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 2:  # fully collinear: keep the extremes
        return [pts[0], pts[-1]]
    return hull


def _contains(vertices, p, tol):
    n = len(vertices)
    if n == 1:
        return math.dist(vertices[0], p) <= tol
    if n == 2:
        (ax, ay), (bx, by) = vertices
        vx, vy = bx - ax, by - ay
        L2 = vx * vx + vy * vy
        if L2 == 0.0:
            return math.dist(vertices[0], p) <= tol
        t = ((p[0] - ax) * vx + (p[1] - ay) * vy) / L2
        t = min(1.0, max(0.0, t))
        return math.dist((ax + t * vx, ay + t * vy), p) <= tol
    for i in range(n):
        ax, ay = vertices[i]
        bx, by = vertices[(i + 1) % n]
        if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) < -tol:
            return False
    return True


def attractor_hull(ifs):
    """Convex polygon refinement of the enclosing disk.

    Samples the attractor at depth HULL_DEPTH (cylinder images of every map's
    fixed point), takes the convex hull and then inflates it about its centroid
    until the vertex check F_i(P) subset P certifies invariance.
    """
    from .errors import HullNotInvariant

    fixes = [f.fixed_point() for f in ifs.maps]
    level = ifs.cover(0)
    for _ in range(HULL_DEPTH):
        level = ifs.cover(1, level)
        if len(level) * len(fixes) > HULL_SAMPLE_CAP:
            break
    x, y = level.images(*np.array(fixes).T)
    hull = _convex_hull(np.concatenate((np.column_stack((x, y)), fixes)))
    cx = sum(p[0] for p in hull) / len(hull)
    cy = sum(p[1] for p in hull) / len(hull)
    lam = 0.0
    for _ in range(60):
        verts = [(cx + (1 + lam) * (x - cx), cy + (1 + lam) * (y - cy)) for x, y in hull]
        ok = all(
            _contains(verts, f.apply(v), HULL_TOL) for f in ifs.maps for v in verts
        )
        if ok:
            return HullBody(verts)
        lam = max(2.0 * lam, ifs.r_min**HULL_DEPTH)
    raise HullNotInvariant("could not certify an invariant hull")
