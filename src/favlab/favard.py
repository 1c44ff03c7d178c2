"""Level covers, projected interval unions, Favard quadrature, the decay
schedule, bound curves and the sweep-CSV reader of the decay fit.

Every sweep runs the projection recursion, for every system and body,
disk or hull.  A map is linear, so the projected level-j cover obeys
P_j(phi) = U_i r_i P_{j-1}(o_i (phi - theta_i)) + <e_phi, t_i>, and only
merged components pass from one level to the next; no cover is built.  The
directions a level needs are angle keys (s, c_1..c_q), the angle
s phi + sum_k c_k theta_k over the q distinct (theta, orientation) classes
of the maps that are not pure homotheties; at most n - j + 1 keys at level
j of a pass to level n for one class, and one pass yields every requested
level.  Level 0 is the body's own projection at each key's direction: the
disk's centre projection, or the hull's ``HullBody.support_range``.  One
level step serves a block of angles and every key of the level: each
(angle, key) row gathers its children's rows, padded with +inf, and one
row-wise ``merge_intervals`` call merges them all.  A block starts as a
part's angles and halves, down to one angle, before any step whose padded
intake would pass BLOCK_CAP; a one-angle block past it merges its rows in
groups under the cap.  Its depth is bounded by MERGE_CAP (level-key merges
per angle, counted before any work) and by INTERVAL_CAP on the intervals
one angle's level takes in over all its keys, not by m^n: fig1 runs to
n = 18 and stops at n = 19, and a sparse cover can pass INTERVAL_CAP at a
level whose m^n cylinders fit it.

FAVLAB_THREADS (an integer >= 1, default min(4, CPUs)) sets the threads of
the one pool a sweep builds, over which the recursion maps parts of its
angles; a sweep of one part builds none.

The recursion's lengths differ in the last bits from those of the whole
level-n cover projected cylinder by cylinder, the tests' oracle (the body
is projected once per direction rather than once per cylinder; on fig1 at
n <= 12 and 64 angles by at most 4.7e-13 relative), and are bit-identical
across worker counts."""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateFit,
    LevelTooLarge,
    NonHomogeneous,
    NumericOverflow,
    PreconditionViolated,
    RhoTooSmall,
)
from .ifs import BAND_DEPTH_CAP, DiskBody

INTERVAL_CAP = 2**24  # intervals one angle's recursive level takes in, over all its keys
MERGE_CAP = 2**16  # (level, angle key) merges per angle of a recursive pass
BLOCK_CAP = 2**16  # padded intervals one recursive level step takes in


@dataclass
class IntervalSet:
    """Disjoint closed intervals [lo - half, hi + half] in ascending order:
    endpoints when half is 0, the extreme centres of equal-width intervals
    otherwise.  A row-wise merge returns 2-D ``los`` and ``his``, one such
    set per row, padded with +inf."""

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

    Given 2-D (rows, W) arrays padded with +inf, it merges each row on its
    own and returns 2-D components, each row's in ascending order and then
    +inf.  The padding sorts last and forms a row's last component, which
    starts at +inf and so reads as padding again: every +inf left end is
    padding, and real ones must be finite.
    """
    lo, reach = np.asarray(los, dtype=float), np.asarray(his, dtype=float)
    lo.sort(axis=-1)
    reach.sort(axis=-1)
    if lo.shape[-1] == 0:
        return IntervalSet(lo, reach, half)
    gap = (lo[..., 1:] - half > reach[..., :-1] + half) if half else (lo[..., 1:] > reach[..., :-1])
    if lo.ndim == 1:
        idx = np.flatnonzero(gap) + 1
        starts = np.concatenate((lo[:1], lo[idx]))
        ends = np.concatenate((reach[idx - 1], reach[-1:]))
        return IntervalSet(starts, ends, half)
    # a row's components start at its first left end and after each gap, and
    # end at each gap and at its last right end
    rows, gaps = len(lo), np.count_nonzero(gap, axis=1)
    filled = np.arange(gaps.max()) < gaps[:, None]
    starts, ends = np.full((rows, len(filled[0]) + 1), np.inf), np.full((rows, len(filled[0]) + 1), np.inf)
    starts[:, 0] = lo[:, 0]
    starts[:, 1:][filled] = lo[:, 1:][gap]
    ends[:, :-1][filled] = reach[:, :-1][gap]
    ends[np.arange(rows), gaps] = reach[:, -1]
    return IntervalSet(starts, ends, half)


def default_workers():
    """FAVLAB_THREADS, an integer >= 1, or min(4, CPUs) where unset or empty."""
    env = os.environ.get("FAVLAB_THREADS")
    if not env:
        return min(4, os.cpu_count() or 1)
    if not env.strip().isdecimal() or int(env) < 1:
        raise ConfigError(f"FAVLAB_THREADS must be an integer >= 1, got {env!r}")
    return int(env)


@dataclass
class _Block:
    """Angles start:stop of a recursive sweep at level j: one row per (angle,
    key), angle-major, holding that direction's merged level-j components
    padded with +inf, and each row's component count."""

    start: int
    stop: int
    j: int
    comps: IntervalSet
    count: np.ndarray

    def halves(self):
        """The block's two halves by angle, each a copy trimmed to its
        longest row, so that the block's own rows can be freed."""
        mid = (self.start + self.stop) // 2
        cut = (mid - self.start) * (len(self.count) // (self.stop - self.start))
        parts = []
        for start, stop, rows in ((self.start, mid, slice(0, cut)), (mid, self.stop, slice(cut, None))):
            count = self.count[rows]
            width = count.max()
            comps = IntervalSet(
                self.comps.los[rows, :width].copy(), self.comps.his[rows, :width].copy(), self.comps.half
            )
            parts.append(_Block(start, stop, self.j, comps, count))
        return parts


def _stack(parts):
    """The rows of padded IntervalSets, in order, padded to the widest; each
    part is copied into untouched memory and dropped from ``parts``, so that
    the two need not be resident at once."""
    rows, width = sum(len(part.los) for part in parts), max(part.los.shape[1] for part in parts)
    los, his, half, row = np.empty((rows, width)), np.empty((rows, width)), parts[0].half, 0
    while parts:
        part = parts.pop(0)
        for ends, part_ends in ((los, part.los), (his, part.his)):
            ends[row : row + len(part_ends), : part_ends.shape[1]] = part_ends
            ends[row : row + len(part_ends), part_ends.shape[1] :] = np.inf
        row += len(part.los)
    return IntervalSet(los, his, half)


def _unique_rows(rows):
    """The distinct rows of an integer matrix in ascending order, column 0
    first, and the index in them of each row: np.unique(rows, axis=0,
    return_inverse=True), by one lexsort and a first-of-run mask."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    first = np.ones(len(ranked), dtype=bool)
    first[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    inverse = np.empty(len(ranked), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ranked[first], inverse


class _ProjectionRecursion:
    """Projected lengths of the level covers of a system and body by
    P_j(phi) = U_i r_i P_{j-1}(o_i (phi - theta_i)) + <e_phi, t_i>, passing
    only merged components from level to level.

    A direction is an angle key (s, c_1..c_q), one count per class, the
    angle s phi + sum_k c_k theta_k over the classes' angles ``thetas``: a
    map of class k and orientation o sends the key to o (s, c - e_k) and a
    homothety keeps it.  ``keys[j]`` holds the keys of level j as rows, in
    ascending order, and ``children[j]`` per key of level j the row in level
    j - 1 that each map reads; the pass to the top level needs the home key
    (1, 0..0) there and at every requested level.  ``turn[j]`` is each key's
    class sum, formed once per level, so that a key's direction does not
    depend on the block, part or worker that reads it.

    Where every ratio is equal and the body is a disk, a component is its
    extreme centre projections; its endpoints are formed only to merge and
    to measure, as c - h and c + h with the half-width h = r_j R of a
    level-j disk (``half[j]``), r_j built as ``IFS.cover`` builds it.
    Otherwise a component is its endpoints (``half[j]`` is 0), and each
    map scales its children by its own ratio.  One level step serves a
    block of angles and every key at once: each (angle, key) row gathers its
    children's padded rows, scales and shifts them, and one row-wise
    ``merge_intervals`` merges them all."""

    def __init__(self, ifs, body, ns, thetas, keys, children):
        self.ifs, self.body, self.ns, self.keys, self.children = ifs, body, ns, keys, children
        self.r = np.array([f.r for f in ifs.maps])
        self.turn = []
        for level in keys:
            turn = level[:, 1] * thetas[0] if thetas else np.zeros(len(level))
            for k, theta in enumerate(thetas[1:], start=2):
                turn += level[:, k] * theta
            self.turn.append(turn)
        self.half = [0.0] * len(keys)
        if isinstance(body, DiskBody) and all(f.r == ifs.maps[0].r for f in ifs.maps):
            r_j = 1.0
            for j in range(len(keys)):
                self.half[j] = r_j * body.radius
                r_j = ifs.maps[0].r * r_j

    @classmethod
    def of(cls, ifs, ns, body):
        """The recursion of (ifs, ns, body), the enclosing disk where body is
        None, for a non-empty set of levels ns >= 0; LevelTooLarge where its
        angle keys would pass MERGE_CAP merges per angle, raised before any
        work."""
        ns = set(ns)
        if not ns or min(ns) < 0:
            raise PreconditionViolated("a non-empty set of levels >= 0 required")
        refusal = LevelTooLarge(f"the pass to level {max(ns)} passes {MERGE_CAP} level-key merges per angle")
        # every level of the pass merges at least the home key
        if max(ns) > MERGE_CAP:
            raise refusal
        # the non-homothety (theta, orient) classes in order of appearance
        classes = [c for c in dict.fromkeys((f.theta, f.orient) for f in ifs.maps) if c != (0.0, 1)]
        # map i sends a key to o_i (key - step_i), step_i its class's unit
        # vector, or 0 for a homothety
        steps = np.array([[(f.theta, f.orient) == c for c in [None, *classes]] for f in ifs.maps], dtype=np.intp)
        orients = np.array([[f.orient] for f in ifs.maps])
        home = np.eye(1, 1 + len(classes), dtype=np.intp)
        level, keys, children, merges = home, [], [], 0
        for j in range(max(ns), 0, -1):
            merges += len(level)
            if merges > MERGE_CAP:
                raise refusal
            below = (orients * (level[:, None, :] - steps)).reshape(-1, 1 + len(classes))
            if j - 1 in ns:
                below = np.vstack((below, home))
            keys.append(level)
            level, inverse = _unique_rows(below)
            children.append(inverse[: len(keys[-1]) * ifs.m].reshape(-1, ifs.m))
        keys.append(level)
        body = body or DiskBody(ifs.center, ifs.R0)
        return cls(ifs, body, ns, [theta for theta, _ in classes], keys[::-1], [None] + children[::-1])

    def sweep(self, phis, workers):
        """(lengths, components): for each requested level, in ascending
        order, the length and the component count of the projected cover at
        each angle of phis.

        The angles are cut into contiguous parts, one at one worker and
        2 * workers (at most one per angle) otherwise, mapped in angle order
        over ``workers`` threads; each runs its blocks depth first from one
        block, and a block halves, down to one angle, before any step whose
        padded intake would pass BLOCK_CAP.  No result depends on the parts,
        blocks or ``workers``; of failing parts, the first in order raises."""
        phis, levels = list(phis), sorted(self.ns)
        out = (
            {n: np.empty(len(phis)) for n in levels},
            {n: np.empty(len(phis), dtype=np.intp) for n in levels},
        )
        parts = min(len(phis), 1 if workers == 1 else 2 * workers)
        cuts = [len(phis) * p // parts for p in range(parts + 1)] if phis else []
        failed = []  # starts of the parts that raised

        def run(start, stop):
            if failed and min(failed) < start:
                return  # a part of lesser angles raises whatever this one does
            try:
                pending = [self._base(phis, start, stop)]
                while pending:
                    pending[:0] = self._advance(pending.pop(0), phis, out)
            except (LevelTooLarge, NumericOverflow):
                failed.append(start)
                raise

        if parts < 2:
            list(map(run, cuts, cuts[1:]))
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(run, cuts, cuts[1:]))
        return out

    def _angles(self, phis, j):
        """The direction s phi + turn of every (angle, key) row of level j,
        as an (angles, keys) array."""
        return self.keys[j][:, 0] * np.asarray(phis, dtype=float)[:, None] + self.turn[j]

    def _base(self, phis, start, stop):
        """Level 0 for angles start:stop: the body projects to one interval
        in each key's direction."""
        angle = self._angles(phis[start:stop], 0).reshape(-1)
        if isinstance(self.body, DiskBody):
            (cx, cy), radius = self.body.center, self.body.radius
            p = cx * np.cos(angle) + cy * np.sin(angle)
            lo, hi = (p, p) if self.half[0] else (p - radius, p + radius)
        else:
            lo, hi = self.body.support_range(angle)
        comps = IntervalSet(lo.reshape(-1, 1), hi.reshape(-1, 1), self.half[0])
        return _Block(start, stop, 0, comps, np.ones(len(angle), dtype=np.intp))

    def _advance(self, block, phis, out):
        """Record the block's requested levels in out while stepping it up to
        the top level; return [] there, or its two halves where a step's
        padded intake would pass BLOCK_CAP.  A one-angle block past the cap
        merges its rows in groups of at most BLOCK_CAP padded intervals (or
        one row)."""
        maps = self.ifs.maps
        tx, ty = np.array([f.tx for f in maps]), np.array([f.ty for f in maps])
        while True:
            self._record(block, out)
            j, angles = block.j + 1, block.stop - block.start
            if j == len(self.keys):
                return []
            row_intake = len(maps) * block.comps.los.shape[1]
            if angles > 1 and angles * len(self.children[j]) * row_intake > BLOCK_CAP:
                return block.halves()
            rows = self.children[j] + (np.arange(angles) * len(self.keys[j - 1]))[:, None, None]
            # INTERVAL_CAP bounds the intervals one angle's level takes in
            # over all its keys, and so the components a level stores
            size = block.count[rows].sum(axis=(1, 2))
            over = np.flatnonzero(size > INTERVAL_CAP)
            if len(over):
                raise LevelTooLarge(
                    f"level {j} merges {size[over[0]]} intervals, over cap {INTERVAL_CAP} "
                    "(counted over all the level's angle keys, so a sparse cover can pass it "
                    "before its m^n cylinders do)"
                )
            angle = self._angles(phis[block.start : block.stop], j)[..., None]
            shift = tx * np.cos(angle) + ty * np.sin(angle)
            rows, shift = rows.reshape(-1, len(maps)), shift.reshape(-1, len(maps))
            group = max(1, BLOCK_CAP // row_intake)
            parts = [
                self._merge(block, rows[g : g + group], shift[g : g + group], j)
                for g in range(0, len(rows), group)
            ]
            comps = parts[0] if len(parts) == 1 else _stack(parts)
            block = _Block(block.start, block.stop, j, comps, np.count_nonzero(comps.los < np.inf, axis=1))

    def _merge(self, block, rows, shift, j):
        """Merge the given (angle, key) rows of level j, each the union of its
        children's rows (rows[q, i] for map i) scaled by r_i and shifted by
        shift[q, i]."""
        width = block.count[rows].max()
        los, his = block.comps.los[:, :width][rows], block.comps.his[:, :width][rows]
        for ends in (los, his):
            ends *= self.r[:, None]
            ends += shift[..., None]
        los, his = los.reshape(len(rows), -1), his.reshape(len(rows), -1)
        comps = merge_intervals(los, his, half=self.half[j])
        # +inf left ends are padding: a projection that overflows must not
        # pass for it
        last = block.count[rows].sum(axis=1) - 1
        edges = (los[:, 0], los[np.arange(len(rows)), last], his[np.arange(len(rows)), last])
        if not all(np.isfinite(e).all() for e in edges):
            raise NumericOverflow(f"level {j} projections exceed the float range")
        return comps

    def _record(self, block, out):
        if block.j not in self.ns:
            return
        level = self.keys[block.j]
        keys, home = len(level), np.flatnonzero((level[:, 0] == 1) & (level[:, 1:] == 0).all(axis=1))[0]
        comps = block.comps
        for a, (lo, hi, count) in enumerate(
            zip(comps.los[home::keys], comps.his[home::keys], block.count[home::keys])
        ):
            out[0][block.j][block.start + a] = IntervalSet(lo[:count], hi[:count], comps.half).total_length
            out[1][block.j][block.start + a] = count


def neighborhood_projection_length(ifs, rho, theta):
    """Projected length of the rho-neighborhood estimate: mass-band cylinder
    intervals of the enclosing disk padded by rho, merged."""
    if not (0.0 < rho < 1.0):
        raise PreconditionViolated("rho in (0,1) required")
    if rho < ifs.r_min**BAND_DEPTH_CAP:
        raise RhoTooSmall(f"rho below r_min^{BAND_DEPTH_CAP}")
    los, his = DiskBody(ifs.center, ifs.R0).interval(ifs.band(rho)[0], theta)
    return merge_intervals(los - rho, his + rho).total_length


@dataclass
class FavardResult:
    n: int
    value: float
    max_over_theta: float
    thetas: np.ndarray
    lengths: np.ndarray


def projection_sweep(ifs, ns, thetas, body=None, workers=None):
    """Per-theta lengths for each level in ns (ascending), by the projection
    recursion.  A negative level, or a pass whose angle keys pass MERGE_CAP,
    is refused before any work; a level whose intake passes INTERVAL_CAP is
    refused when the pass reaches it.  The result is a deterministic
    function of (ifs, ns, thetas, body) regardless of worker count."""
    ns = sorted(ns)
    if not ns:
        return {}
    recursion = _ProjectionRecursion.of(ifs, ns, body)
    return recursion.sweep(list(thetas), workers or default_workers())[0]


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
