"""Orthogonal and radial projections of the coded measure: discretized level
measures, density probes around constructed witness points, and arc-cover
visibility estimates."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Indeterminate, LevelTooLarge, PreconditionViolated, ResolutionTooCoarse
from .favard import merge_intervals
from .ifs import TWO_PI, TailWord, exceeds, norm_angle
from .rotation import find_rotation_word, steering_suffix

LEVEL_CAP = 2**21  # cylinders of a level measure or visibility cover
VIS_BLOCK_LEVELS = 4  # levels of a visibility block below its prefix


def project(point, theta):
    """Scalar projection onto the unit vector at angle theta."""
    return point[0] * math.cos(theta) + point[1] * math.sin(theta)


@dataclass
class AtomicMeasure:
    positions: np.ndarray
    weights: np.ndarray
    scale: int
    position_error: np.ndarray

    @property
    def total(self):
        return float(self.weights.sum())


def _check_level(ifs, n):
    if exceeds(ifs.m, n, LEVEL_CAP):
        raise LevelTooLarge(f"{ifs.m}^{n} cylinders exceed cap {LEVEL_CAP}")


def level_measure(ifs, theta, n):
    """One atom per length-n word at the projected coded point of u.1-bar,
    weighted by the natural measure r_u^gamma."""
    if n < 0:
        raise PreconditionViolated("n >= 0 required")
    _check_level(ifs, n)
    cover = ifs.cover(n)
    x, y = cover.images(*ifs.maps[0].fixed_point())
    return AtomicMeasure(
        positions=x * math.cos(theta) + y * math.sin(theta),
        weights=cover.r**ifs.gamma,
        scale=n,
        position_error=ifs.D * cover.r,
    )


def density_profile(ifs, theta, x, radii, n):
    """mu_theta(B(x, r)) / (2r)^gamma for each radius, from the level-n atoms."""
    measure = level_measure(ifs, theta, n)
    out = []
    for r in radii:
        if r <= 0:
            raise PreconditionViolated("radii must be positive")
        if measure.position_error.max() >= r / 100.0:
            raise ResolutionTooCoarse(
                f"level {n} atoms too coarse for radius {r}"
            )
        inside = np.abs(measure.positions - x) < r
        out.append(float(measure.weights[inside].sum()) / (2.0 * r) ** ifs.gamma)
    return out


@dataclass
class DensityWitness:
    x: float
    b: float
    log10_b: float
    ratio: float
    steering_word_len: int
    max_offset_over_b: float
    chain_bound_ok: bool


def density_witness(ifs, cert, theta):
    """Constructed high-density ball for a verified family.

    Finds a steering prefix s with orientation +1 and theta_s + theta_cert
    within r_{u_1} of theta, centers a ball of radius b = 5*D*r_{s u_1} at the
    projected coded point of s.u_1 and checks that every family point lands
    inside.  Containment and the density ratio are evaluated in the frame with
    F_s factored out, so extremely long steering prefixes (whose raw ratio
    underflows) stay numerically meaningful.
    """
    u1 = cert.words[0]
    g1 = ifs.compose(u1)
    r_u1 = math.exp(g1.log_r)
    a = find_rotation_word(ifs, r_u1)
    target = norm_angle(theta - cert.theta)
    s = steering_suffix(ifs, (), target, r_u1, a)
    gs = ifs.compose(s)
    psi = norm_angle(theta - gs.theta)  # projection direction with F_s removed

    fallback_tail = (
        next(iter(cert.omegas.values())) if cert.omegas else TailWord((), u1)
    )

    # per-word scaled projections q_i . e_psi where q_i = F_{u_i}(coded tail)
    def scaled_proj(w, g_w):
        om = cert.omegas.get(tuple(sorted((u1, w))), fallback_tail)
        return project(ifs.pi_point(g_w, om), psi)

    base = scaled_proj(u1, g1)
    b_scaled = 5.0 * ifs.D * r_u1
    chain_scaled = 3.0 * ifs.D * r_u1
    max_off = 0.0
    chain_ok = True
    mass = 0.0
    for k, w in enumerate(cert.words):
        g_w = ifs.compose(w) if k else g1  # u1 is the first word
        q = scaled_proj(w, g_w)
        off = abs(q - base)
        max_off = max(max_off, off)
        if off > chain_scaled * (1.0 + 1e-9):
            chain_ok = False
        if off > b_scaled:
            raise PreconditionViolated(
                f"point for word {w} escapes the witness ball"
            )
        mass += math.exp(ifs.gamma * g_w.log_r)
    # ratio = sum_i mu([s u_i]) / (2b)^gamma with r_s^gamma cancelling
    ratio = mass / (10.0 * ifs.D * r_u1) ** ifs.gamma
    log10_b = (gs.log_r + math.log(b_scaled)) / math.log(10.0)
    return DensityWitness(
        x=project(ifs.pi_point(ifs.compose(u1, gs), fallback_tail), theta),
        b=math.exp(gs.log_r) * b_scaled,
        log10_b=log10_b,
        ratio=ratio,
        steering_word_len=len(s),
        max_offset_over_b=max_off / b_scaled if b_scaled > 0 else 0.0,
        chain_bound_ok=chain_ok,
    )


def _turn(x):
    """x % TWO_PI, bit for bit, for an array x in [-2*pi, 2*pi]: an add where
    x < 0 and a subtract where x >= 2*pi, in place of numpy's float
    remainder, which takes several times as long."""
    out = x + TWO_PI * (x < 0.0)
    np.subtract(out, TWO_PI, out=out, where=x >= TWO_PI)
    return out


def _arc_pieces(starts, widths):
    """Closed arcs [start, start + width], start in [0, 2*pi], of the circle
    as closed pieces (lo, hi) of [0, 2*pi]: an arc that wraps past 2*pi
    splits into a tail piece and a head piece."""
    s = _turn(np.asarray(starts, dtype=float))
    e = s + np.asarray(widths, dtype=float)
    wrap = e > TWO_PI
    lo = np.concatenate([s, np.zeros(int(wrap.sum()))])
    hi = np.concatenate([np.minimum(e, TWO_PI), e[wrap] - TWO_PI])
    return lo, hi


def _merge_circular_arcs(lo, hi):
    """Union of closed pieces of [0, 2*pi], as ``_arc_pieces`` cuts them.
    Returns (components, full_circle): the components as (start, length) in
    circular order, where a piece ending at 2*pi joins one starting at 0,
    and as the one component (0, 2*pi) once their lengths sum to 2*pi within
    1e-15."""
    comps = merge_intervals(lo, hi).intervals
    if len(comps) >= 2 and comps[0][0] <= 0.0 and comps[-1][1] >= TWO_PI:
        # the wrap joins the first and last pieces into one circular component
        first, last = comps[0], comps[-1]
        comps = [(last[0] - TWO_PI, first[1])] + comps[1:-1]
    total = sum(hi_ - lo_ for lo_, hi_ in comps)
    if total >= TWO_PI - 1e-15:
        return [(0.0, TWO_PI)], True
    return [(lo_, hi_ - lo_) for lo_, hi_ in comps], False


def _inside(los, his, lo, hi):
    """Whether each [lo, hi] lies inside one of the disjoint closed
    intervals [los, his], given in ascending order."""
    j = np.maximum(np.searchsorted(los, lo, side="right") - 1, 0)
    return (los[j] <= lo) & (hi <= his[j])


@dataclass
class VisibilityEstimate:
    covering_sum: float
    delta: float
    components: int
    engulfing_cylinders: int
    full_circle: bool


def _disks(blocks, points, a, R0):
    """Offsets (dx, dy) from a, distances and radii of the disks
    F_p(F_q(D(c, R0))) for every block word p (outer) and inner word q
    (inner), given the rows (x, y, r) of ``points``: F_q(c) and r_q."""
    x, y, r = points
    dx, dy = blocks.images(x, y)
    dx -= a[0]
    dy -= a[1]
    return dx, dy, np.hypot(dx, dy), np.multiply.outer(blocks.r, r).ravel() * R0


def _arcs(dx, dy, dist, radii):
    """Start, in [0, 2*pi] (2*pi only where a start just below 0 rounds
    up), and width of the arc that each disk subtends from outside it."""
    mid = _turn(np.arctan2(dy, dx))
    half = np.arcsin(np.minimum(1.0, radii / dist))
    return _turn(mid - half), 2.0 * half


def _seen_arcs(disks):
    """The arcs of the disks, refused where a positive width vanishes into
    the rounding of its start: the arc would count as a point."""
    starts, widths = _arcs(*disks)
    if np.any((widths > 0.0) & (starts + widths == starts)):
        raise Indeterminate("an arc is narrower than the rounding of its start angle")
    return starts, widths


def visibility_estimate(ifs, a, s, n):
    """Arc-cover estimate of the s-content of the radial projection from a
    of the level-n cover.  Each level-n disk F_w(D(c, R0)) subtends an arc;
    each component of their union is covered by k equal arcs no longer than
    delta, the widest disk arc, and the estimate sums k (length/k)^s.  Disks
    that contain a (within 1e-15 R0) see every direction: the estimate is then
    the full circle, 2 pi^s, with their number reported, so it stays an upper
    bound.  At s = 1 the sum is the union's length, and as every level-(n+1)
    disk lies in a level-n disk, the sequence in n is nonincreasing; at other
    s it need not be (on fig1 from (3, 0), at s = 0.5 it grows from 0.970 at
    n = 1 to 42.1 at n = 10).

    The cover is never built whole.  Its words fall into blocks, one per
    level-k prefix p, k = max(n - VIS_BLOCK_LEVELS, 0), and the disk of a word
    p.q is F_p applied to the disk of q in the level-(n - k) inner cover:
    centre F_p(F_q(c)), radius r_p r_q R0.  As F_i(D) lies in D, a block's
    disks all lie in the prefix disk F_p(D).  So only the near blocks, whose
    disk holds a within a slack widened for rounding, can hold a disk that
    contains a, and they are expanded first.  Failing that, the arcs of the
    near blocks' words and of the words ending in a largest-ratio map, 1/m of
    the cover, form an inner union L, which lies in the answer.  A far block
    is skipped when its disk's arc, widened by a rounding margin, lies inside
    one component of L and a bound on its words' arc widths lies below L's
    widest arc: its arcs then lie strictly inside a component of the arcs
    kept and are narrower than the widest arc kept, so they change neither
    the union nor delta.  The other far blocks' remaining words are formed,
    and those of their arc pieces that no piece of L holds are merged once
    with L's pieces.  The components, delta, covering sum and full-circle
    flag are those of merging every level-n arc at once, bit for bit, and no
    arc is formed twice.  An arc of positive width whose end rounds back to
    its start is refused as Indeterminate, since the sum would miss it."""
    if not (0.0 < s <= 2.0):
        raise PreconditionViolated("s in (0, 2] required")
    _check_level(ifs, n)
    m, R0 = ifs.m, ifs.R0
    k = max(n - VIS_BLOCK_LEVELS, 0)
    inner = ifs.cover(n - k)
    points = np.array([*inner.images(*ifs.center), inner.r])
    blocks = ifs.cover(k)
    bdx, bdy, bdist, bradii = _disks(blocks, (*ifs.center, 1.0), a, R0)
    # positions, distances and angles carry rounding errors near eps * scale;
    # where scale overflows, every block is near and the descent is dense
    scale = R0 + abs(ifs.center[0]) + abs(ifs.center[1]) + abs(a[0]) + abs(a[1])
    near = bdist <= bradii + (1e-15 * R0 + 1e-9 * scale)
    far = ~near
    sample = []  # (starts, widths) of the arcs merged into L
    if near.any():
        # a word's disk lies in its block's, so every disk that contains a
        # is in a near block
        disks = _disks(blocks.take(near), points, a, R0)
        engulfing = int(np.count_nonzero(disks[2] <= disks[3] + 1e-15 * R0))
        if engulfing:
            return VisibilityEstimate(
                covering_sum=TWO_PI**s, delta=TWO_PI, components=1,
                engulfing_cylinders=engulfing, full_circle=True,
            )
        sample.append(_seen_arcs(disks))
    star = max(range(m), key=lambda i: ifs.maps[i].r)
    # a word's last symbol is its inner cover index mod m; at n = 0 the one
    # word is empty and forms L alone
    ends_star = (np.arange(len(inner)) % m == star) | (n == 0)
    sample.append(_seen_arcs(_disks(blocks.take(far), points[:, ends_star], a, R0)))
    starts, widths = map(np.concatenate, zip(*sample))
    widest = widths.max()
    held = merge_intervals(*_arc_pieces(starts, widths))

    # The words of a far block p have disks of radius at most
    # r_p r_max^(n-k) R0 at distance at least d_p - r_p R0 from a, which bounds
    # their arc widths.  The margin covers the rounding of the block's arc and
    # of its words' arcs, which grows as a nears the block and as the arcs
    # near a half turn.  A widened arc that wraps past 2*pi lies inside L when
    # both of its pieces lie inside pieces of L.
    dist, radii = bdist[far], bradii[far]
    gap = dist - radii
    bound = 2.0 * np.arcsin(np.minimum(1.0, radii * ifs.maps[star].r ** (n - k) / gap))
    margin = 1e-9 * (1.0 + scale / gap) / np.cos(bound / 2.0)
    start, width = _arcs(bdx[far], bdy[far], dist, radii)
    lo = (start - margin) % TWO_PI
    hi = lo + width + 2.0 * margin
    inside = _inside(held.los, held.his, lo, np.minimum(hi, TWO_PI)) & (
        (hi <= TWO_PI) | _inside(held.los, held.his, np.zeros_like(hi), hi - TWO_PI)
    )
    skip = np.zeros_like(far)
    skip[far] = inside & (bound + margin < widest)

    starts, widths = _seen_arcs(_disks(blocks.take(far & ~skip), points[:, ~ends_star], a, R0))
    lo, hi = _arc_pieces(starts, widths)
    # a piece that lies inside one of L's leaves the union as it is
    new = ~_inside(held.los, held.his, lo, hi)
    comps, full = _merge_circular_arcs(
        np.concatenate((held.los, lo[new])), np.concatenate((held.his, hi[new]))
    )
    delta = float(max(widest, widths.max(initial=0.0)))
    total = 0.0
    for _, length in comps:
        if delta <= 0.0:
            continue
        parts = max(1, math.ceil(length / delta - 1e-12))
        total += parts * (length / parts) ** s
    return VisibilityEstimate(
        covering_sum=float(total),
        delta=delta,
        components=len(comps),
        engulfing_cylinders=0,
        full_circle=full,
    )
