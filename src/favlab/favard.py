"""Level covers, projected interval unions, Favard quadrature, the decay
schedule, bound curves and the sweep-CSV reader of the decay fit.

A sweep takes one of two paths, chosen from the input alone.

The projection recursion serves the one-rotation-class systems of the
paper's last theorem, fig1 among them: the default enclosing-disk body,
every ratio exactly equal, and every map that is not a pure homothety
(theta 0, orientation +1) sharing one (theta, orientation).  A map is
linear, so the projected level-j cover obeys
P_j(phi) = U_i r P_{j-1}(o_i (phi - theta_i)) + <e_phi, t_i>, and only
merged components pass from one level to the next; no cover is built.  The
directions a level needs are angle keys (s, k), the angle s phi + k theta,
at most n - j + 1 of them at level j of a pass to level n, and that one pass
per angle yields every requested level.  Its depth is bounded by MERGE_CAP
(level-key merges per angle, checked before any work) and by INTERVAL_CAP
on the intervals one level's merges take in, not by m^n: fig1 runs to
n = 18 and stops at n = 19.

Every other system takes the level sweeper: the level-n cover is one
``CylinderBatch``, expanded once per level, and each angle costs one
projection and one union of its interval endpoints, at most INTERVAL_CAP =
2^24 intervals.  A hull body's intervals come from ``HullBody.support_range``,
which looks up the few vertices that can be extreme in each direction
instead of projecting all V vertices of every cylinder; its endpoints are
bit-identical to the dense N x V form.

The recursion's lengths differ from the sweeper's in the last bits (a
centre projection rounds differently from projecting each cylinder; on
fig1 at n <= 12 by at most 6.2e-14 relative), and both are bit-identical
across worker counts."""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateFit,
    LevelTooLarge,
    NonHomogeneous,
    NumericOverflow,
    PreconditionViolated,
    RhoTooSmall,
)
from .ifs import CylinderBatch, DiskBody, exceeds

INTERVAL_CAP = 2**24  # projected intervals of one level, swept or recursive
MERGE_CAP = 4096  # (level, angle key) merges per angle on the recursive path
RHO_CAP_LEVEL = 600  # r_min^level floor for the neighborhood sweep


@dataclass
class IntervalSet:
    """Disjoint closed intervals [lo - half, hi + half] in ascending order:
    endpoints when half is 0, the extreme centres of equal-width intervals
    otherwise."""

    los: np.ndarray
    his: np.ndarray
    half: float = 0.0

    def endpoints(self):
        if not self.half:
            return self.los, self.his
        return self.los - self.half, self.his + self.half

    @property
    def total_length(self):
        lo, hi = self.endpoints()
        return float((hi - lo).sum())

    @property
    def intervals(self):
        lo, hi = self.endpoints()
        return list(zip(lo.tolist(), hi.tolist()))

    def __len__(self):
        return len(self.los)


def merge_intervals(los, his, half=0.0):
    """Sort-and-sweep union of the closed intervals [lo - half, hi + half],
    lo <= hi and half >= 0; touching ones coalesce.

    It sorts ``los`` and ``his`` in place, each on its own, and returns each
    component as its least lo and greatest hi with the given ``half``: the
    endpoints themselves when half is 0, and for the projection recursion's
    centre form the extreme centres, rounded to endpoints only to compare,
    as c - h and c + h.  With lo <= hi, a gap follows the k-th left end in
    order exactly when the k-th smallest right end lies before the next left
    end; then the k smallest right ends are the first k intervals' own, and
    the k-th is their greatest, so no argsort, gather or running maximum is
    needed.
    """
    lo, reach = np.asarray(los, dtype=float), np.asarray(his, dtype=float)
    lo.sort()
    reach.sort()
    if len(lo) == 0:
        return IntervalSet(lo, reach, half)
    gap = (lo[1:] - half > reach[:-1] + half) if half else (lo[1:] > reach[:-1])
    idx = np.flatnonzero(gap) + 1
    starts = np.concatenate((lo[:1], lo[idx]))
    ends = np.concatenate((reach[idx - 1], reach[-1:]))
    return IntervalSet(starts, ends, half)


def default_workers():
    env = os.environ.get("FAVLAB_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return min(4, os.cpu_count() or 1)


class _LevelSweeper:
    """Incrementally maintained level-n cylinder cover for one system.  A disk
    body's cover is anchored at the disk's centre, a hull body's at the
    origin, where its images are the cylinders' translations."""

    def __init__(self, ifs, body=None):
        self.ifs = ifs
        self.body = body or DiskBody(ifs.center, ifs.R0)
        self.n = 0
        self._disk = isinstance(self.body, DiskBody)
        self.cover = CylinderBatch.at(self.body.center if self._disk else (0.0, 0.0))

    def advance_to(self, n):
        if exceeds(self.ifs.m, n, INTERVAL_CAP):
            raise LevelTooLarge(f"{self.ifs.m}^{n} intervals exceed cap {INTERVAL_CAP}")
        while self.n < n:
            self.cover = self.cover.children(self.ifs.maps)
            self.n += 1

    def intervals_at(self, theta):
        cover = self.cover
        mid = cover.project(theta)
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


class _ProjectionRecursion:
    """Projected lengths of the disk cover of a one-rotation-class system by
    P_j(phi) = U_i r P_{j-1}(o_i (phi - theta_i)) + <e_phi, t_i>, passing only
    merged components from level to level.

    A direction is an angle key (s, k), the angle s phi + k theta of the
    class's (theta, o): the class map sends the key to (o s, o (k - 1)) and a
    homothety keeps it.  ``keys[j]`` holds, per key of level j, the key each
    map reads at level j - 1; the pass to the top level needs (1, 0) there
    and at every requested level.

    A component is its extreme centre projections; its endpoints are formed
    only to merge and to measure, as c - h and c + h with the level sweeper's
    own half-width h = r_j R0, r_j built as ``CylinderBatch.children`` builds
    it."""

    def __init__(self, ifs, theta, orient, ns):
        self.ifs, self.theta, self.ns = ifs, theta, set(ns)
        homothety = [f.theta == 0.0 and f.orient == 1 for f in ifs.maps]
        level = {(1, 0)}
        keys, merges = [], 0
        for j in range(max(ns), 0, -1):
            merges += len(level)
            if merges > MERGE_CAP:
                raise LevelTooLarge(
                    f"level {max(ns)} needs over {MERGE_CAP} angle-key merges per angle"
                )
            rows = [
                ((s, k), [(s, k) if h else (orient * s, orient * (k - 1)) for h in homothety])
                for s, k in sorted(level)
            ]
            keys.append(rows)
            level = {child for _, children in rows for child in children}
            if j - 1 in self.ns:
                level.add((1, 0))
        keys.append([(key, []) for key in sorted(level)])
        self.keys = keys[::-1]

    @classmethod
    def of(cls, ifs, ns, body):
        """The recursion for an eligible (ifs, ns, body), else None."""
        if body is not None or not ns or min(ns) < 0:
            return None
        if any(f.r != ifs.maps[0].r for f in ifs.maps):
            return None
        classes = {(f.theta, f.orient) for f in ifs.maps} - {(0.0, 1)}
        if len(classes) > 1:
            return None
        return cls(ifs, *(classes.pop() if classes else (0.0, 1)), ns)

    def merged_at(self, phi):
        """Yield (n, union of the projected level-n cover at angle phi) for
        the requested levels in ascending order, in the centre form."""
        ifs, theta = self.ifs, self.theta
        r, (cx, cy), maps = ifs.maps[0].r, ifs.center, ifs.maps

        def direction(key):
            a = key[0] * phi + key[1] * theta
            return math.cos(a), math.sin(a)

        comps = {}
        for key, _ in self.keys[0]:
            c, s = direction(key)
            p = np.array([cx * c + cy * s])
            comps[key] = IntervalSet(p, p, ifs.R0)
        if 0 in self.ns:
            yield 0, comps[(1, 0)]
        r_j = 1.0
        for j, rows in enumerate(self.keys[1:], start=1):
            # the merges of one level together hold at most INTERVAL_CAP
            # intervals, which bounds the components a level stores
            size = sum(len(comps[child]) for _, children in rows for child in children)
            if size > INTERVAL_CAP:
                raise LevelTooLarge(f"level {j} merges {size} intervals, over cap {INTERVAL_CAP}")
            r_j = r * r_j
            half = r_j * ifs.R0
            level = {}
            for key, children in rows:
                c, s = direction(key)
                parts = [comps[child] for child in children]
                shift = np.repeat([f.tx * c + f.ty * s for f in maps], [len(p) for p in parts])
                los = np.concatenate([p.los for p in parts])
                his = np.concatenate([p.his for p in parts])
                los *= r
                los += shift
                his *= r
                his += shift
                level[key] = merge_intervals(los, his, half=half)
            comps = level
            if j in self.ns:
                yield j, comps[(1, 0)]

    def lengths_at(self, phi):
        return {n: merged.total_length for n, merged in self.merged_at(phi)}


def level_projection_length(ifs, n, theta, body=None):
    """Total length and merged interval set of the projected level-n cover."""
    sweeper = _LevelSweeper(ifs, body=body)
    sweeper.advance_to(n)
    merged = sweeper.merged_at(theta)
    return merged.total_length, merged


def neighborhood_projection_length(ifs, rho, theta):
    """Projected length of the rho-neighborhood estimate: mass-band cylinder
    intervals of the enclosing disk padded by rho, merged."""
    if not (0.0 < rho < 1.0):
        raise PreconditionViolated("rho in (0,1) required")
    if rho < ifs.r_min**RHO_CAP_LEVEL:
        raise RhoTooSmall(f"rho below r_min^{RHO_CAP_LEVEL}")
    body = DiskBody(ifs.center, ifs.R0)
    band = ifs.band(rho)
    los, his = np.empty(len(band)), np.empty(len(band))
    for k, g in enumerate(band):
        lo, hi = body.interval(g, theta)
        los[k] = lo - rho
        his[k] = hi + rho
    return merge_intervals(los, his).total_length


@dataclass
class FavardResult:
    n: int
    value: float
    max_over_theta: float
    thetas: np.ndarray
    lengths: np.ndarray


def projection_sweep(ifs, ns, thetas, body=None, workers=None):
    """Per-theta lengths for each level in ns (ascending), by the projection
    recursion where the system is eligible and by the level sweeper
    otherwise.  The result is a deterministic function of (ifs, ns, thetas)
    regardless of worker count."""
    ns = sorted(ns)
    thetas = list(thetas)
    workers = workers or default_workers()
    recursion = _ProjectionRecursion.of(ifs, ns, body)
    out = {}
    with ExitStack() as stack:
        mapper = map
        if workers > 1 and len(thetas) > 1:
            mapper = stack.enter_context(ThreadPoolExecutor(max_workers=workers)).map
        if recursion is not None:
            rows = list(mapper(recursion.lengths_at, thetas))
            return {n: np.array([row[n] for row in rows]) for n in ns}
        sweeper = _LevelSweeper(ifs, body=body)
        for n in ns:
            sweeper.advance_to(n)
            out[n] = np.array(list(mapper(sweeper.length_at, thetas)))
    return out


def favard(ifs, n, K, body=None):
    """Midpoint-rule Favard integral of the level-n cover over K angles."""
    if K < 1:
        raise PreconditionViolated("K >= 1 required")
    thetas = [(j + 0.5) * math.pi / K for j in range(K)]
    lengths = projection_sweep(ifs, [n], thetas, body=body)[n]
    value = float(lengths.sum() * math.pi / K)
    if not math.isfinite(value):
        raise NumericOverflow(f"Favard integral at n={n} exceeds the float range")
    return FavardResult(
        n=n,
        value=value,
        max_over_theta=float(lengths.max()),
        thetas=np.array(thetas),
        lengths=lengths,
    )


def log_star(x):
    """Number of natural-log iterations needed to bring x to <= 1."""
    if x <= 0.0:
        raise PreconditionViolated("x > 0 required")
    count = 0
    while x > 1.0:
        x = math.log(x)
        count += 1
    return count


@dataclass
class FavardSchedule:
    c1: float
    k: int
    d: float
    delta: float
    n: int
    m: int
    s_n: float
    log_L_n: float
    log_neg_log_rho: float
    B: float
    s_lower_bound: float  # log(-log rho_n) / (1 + log m)
    inequality_holds: bool


def bound_constant(k, d, m, delta):
    """Decay exponent log 2 / ((1+delta) k (d+1) log m), for k, d, delta > 0
    and m >= 2."""
    if min(k, d, delta) <= 0 or m < 2:
        raise PreconditionViolated("k, d, delta > 0 and m >= 2 required")
    return math.log(2.0) / ((1.0 + delta) * k * (d + 1.0) * math.log(m))


def schedule(ifs, n, c1, k, d, delta):
    """Block-length schedule and derived log-space quantities for a
    homogeneous system."""
    rs = [f.r for f in ifs.maps]
    if max(rs) - min(rs) > 1e-12:
        raise NonHomogeneous("schedule requires a common contraction ratio")
    if c1 <= 0 or n < 1:
        raise PreconditionViolated("positive schedule parameters required")
    m = len(rs)
    B = bound_constant(k, d, m, delta)
    r = rs[0]
    log_m = math.log(m)
    s_n = 2.0 * c1 * m ** ((d + 1.0) * k * n)
    log_L_n = s_n * log_m + 2.0 * math.log(s_n)
    log_neg_log_rho = log_L_n + math.log(-math.log(r))
    lower = log_neg_log_rho / (1.0 + log_m)
    if not math.isfinite(lower):
        raise NumericOverflow(f"schedule at n={n} exceeds the float range")
    return FavardSchedule(
        c1=c1,
        k=k,
        d=d,
        delta=delta,
        n=n,
        m=m,
        s_n=s_n,
        log_L_n=log_L_n,
        log_neg_log_rho=log_neg_log_rho,
        B=B,
        s_lower_bound=lower,
        inequality_holds=s_n * (1.0 + log_m) >= log_neg_log_rho,
    )


def bound_curves(B, m, c_low, C_ls, a_ls, grid, A=1.0):
    """Three reference curves over a grid of levels n for a system of m maps:
    the 1/n lower bound, the iterated-log upper bound at rho = m^-n, and
    A/(log n)^B."""
    grid = list(grid)
    log_m = math.log(m)
    lower = [c_low / n for n in grid]
    # log_*(m^n) = 1 + log_*(n log m) for n >= 1 without forming m^n
    ls = [C_ls * math.exp(-a_ls * (1 + log_star(n * log_m))) for n in grid]
    if not all(map(math.isfinite, ls)):
        raise NumericOverflow("log_star curve exceeds the float range")
    log_power = [
        A / math.log(n) ** B if n > 1 else math.inf for n in grid
    ]
    return {"mattila": lower, "log_star": ls, "log_power": log_power}


def decay_samples(text):
    """Per-level Favard values (n, pi * mean length) from the text of a sweep
    CSV, in ascending n, on the scale of ``favard().value``.  Blank lines,
    '#' comments, the 'n,' header and rows whose level or last field does not
    parse are skipped; with several rows per level the last one is the
    summary row and is dropped."""
    by_n = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("n,"):
            continue
        parts = line.split(",")
        try:
            n, val = int(parts[0]), float(parts[-1])
        except ValueError:
            continue
        by_n.setdefault(n, []).append(val)
    return [
        (n, math.pi * (sum(v[:-1]) / (len(v) - 1) if len(v) > 1 else v[0]))
        for n, v in sorted(by_n.items())
    ]


@dataclass
class DecayFit:
    samples: tuple
    A_hat: float
    B_hat: float
    residual: float


def fit_decay(samples):
    """Least squares of log(length) on log(log n), samples with n >= 3."""
    pts = [(n, y) for n, y in samples if n >= 3]
    if len(pts) < 3:
        raise DegenerateFit("need >= 3 samples with n >= 3")
    if not all(0 < y < math.inf for _, y in pts):
        raise DegenerateFit("lengths must be positive and finite")
    x = np.array([math.log(math.log(n)) for n, _ in pts])
    y = np.array([math.log(v) for _, v in pts])
    if np.ptp(x) == 0.0:
        raise DegenerateFit("zero variance in log log n")
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(((y - (slope * x + intercept)) ** 2).sum())
    return DecayFit(
        samples=tuple(pts),
        A_hat=float(math.exp(intercept)),
        B_hat=float(-slope),
        residual=resid,
    )
