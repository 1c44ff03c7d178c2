"""Orthogonal and radial projections of the coded measure: discretized level
measures, density probes around constructed witness points, and arc-cover
visibility estimates."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LevelTooLarge, PreconditionViolated, ResolutionTooCoarse
from .favard import merge_intervals
from .ifs import TWO_PI, CylinderBatch, TailWord, exceeds, norm_angle
from .rotation import find_rotation_word, steering_suffix

LEVEL_CAP = 2**21  # cylinders of a level measure or visibility cover


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


def _level_cover(ifs, anchor, n):
    """The level-n cylinders anchored at one point, at most LEVEL_CAP."""
    if exceeds(ifs.m, n, LEVEL_CAP):
        raise LevelTooLarge(f"{ifs.m}^{n} cylinders exceed cap {LEVEL_CAP}")
    cover = CylinderBatch.at(anchor)
    for _ in range(n):
        cover = cover.children(ifs.maps)
    return cover


def level_measure(ifs, theta, n):
    """One atom per length-n word at the projected coded point of u.1-bar,
    weighted by the natural measure r_u^gamma."""
    if n < 0:
        raise PreconditionViolated("n >= 0 required")
    cover = _level_cover(ifs, ifs.maps[0].fixed_point(), n)
    return AtomicMeasure(
        positions=cover.project(theta),
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
    def scaled_proj(w):
        key = tuple(sorted((u1, w)))
        om = cert.omegas.get(key, fallback_tail)
        p, err = ifs.pi_point(w, om)
        return project(p, psi), err

    base, _ = scaled_proj(u1)
    b_scaled = 5.0 * ifs.D * r_u1
    chain_scaled = 3.0 * ifs.D * r_u1
    max_off = 0.0
    chain_ok = True
    mass = 0.0
    for w in cert.words:
        q, _ = scaled_proj(w)
        off = abs(q - base)
        max_off = max(max_off, off)
        if off > chain_scaled * (1.0 + 1e-9):
            chain_ok = False
        if off > b_scaled:
            raise PreconditionViolated(
                f"point for word {w} escapes the witness ball"
            )
        mass += math.exp(ifs.gamma * ifs.compose(w).log_r)
    # ratio = sum_i mu([s u_i]) / (2b)^gamma with r_s^gamma cancelling
    ratio = mass / (10.0 * ifs.D * r_u1) ** ifs.gamma
    log10_b = (gs.log_r + math.log(b_scaled)) / math.log(10.0)
    x_point, _ = ifs.pi_point(u1, fallback_tail, g=gs)
    return DensityWitness(
        x=project(x_point, theta),
        b=math.exp(gs.log_r) * b_scaled,
        log10_b=log10_b,
        ratio=ratio,
        steering_word_len=len(s),
        max_offset_over_b=max_off / b_scaled if b_scaled > 0 else 0.0,
        chain_bound_ok=chain_ok,
    )


def _merge_circular_arcs(starts, widths):
    """Union of circular arcs as a list of (start, length) components.
    Returns (components, full_circle)."""
    if len(starts) == 0:
        return [], False
    if np.any(widths >= TWO_PI):
        return [(0.0, TWO_PI)], True
    s = np.asarray(starts, dtype=float) % TWO_PI
    e = s + np.asarray(widths, dtype=float)
    # split arcs that wrap past 2*pi into a tail piece and a head piece,
    # then this is an ordinary interval union on [0, 2*pi]
    wrap = e > TWO_PI
    lo = np.concatenate([s, np.zeros(int(wrap.sum()))])
    hi = np.concatenate([np.minimum(e, TWO_PI), e[wrap] - TWO_PI])
    comps = merge_intervals(lo, hi).intervals
    if len(comps) >= 2 and comps[0][0] <= 0.0 and comps[-1][1] >= TWO_PI:
        # the wrap joins the first and last pieces into one circular component
        first, last = comps[0], comps[-1]
        comps = [(last[0] - TWO_PI, first[1])] + comps[1:-1]
    total = sum(hi_ - lo_ for lo_, hi_ in comps)
    if total >= TWO_PI - 1e-15:
        return [(0.0, TWO_PI)], True
    return [(lo_, hi_ - lo_) for lo_, hi_ in comps], False


@dataclass
class VisibilityEstimate:
    covering_sum: float
    delta: float
    components: int
    engulfing_cylinders: int
    full_circle: bool


def visibility_estimate(ifs, a, s, n):
    """Arc-cover estimate of the s-content of the radial projection of the
    level-n cover.  Cylinder disks containing the center project to the whole
    circle and are reported, keeping the estimate an upper bound and the
    sequence in n nonincreasing."""
    if not (0.0 < s <= 2.0):
        raise PreconditionViolated("s in (0, 2] required")
    cover = _level_cover(ifs, ifs.center, n)
    radii = cover.r * ifs.R0
    dx = cover.x - a[0]
    dy = cover.y - a[1]
    dist = np.hypot(dx, dy)
    # the slack scales with the system, so that a scaled copy engulfs alike
    engulfing = dist <= radii + 1e-15 * ifs.R0
    n_engulf = int(engulfing.sum())
    if n_engulf > 0:
        # a cylinder disk containing the center covers every direction
        return VisibilityEstimate(
            covering_sum=TWO_PI**s, delta=TWO_PI, components=1,
            engulfing_cylinders=n_engulf, full_circle=True,
        )
    mid = np.arctan2(dy, dx) % TWO_PI
    half = np.arcsin(np.minimum(1.0, radii / dist))
    starts = (mid - half) % TWO_PI
    widths = 2.0 * half
    comps, full = _merge_circular_arcs(starts, widths)
    delta = float(widths.max()) if len(widths) else 0.0
    total = 0.0
    for _, length in comps:
        if delta <= 0.0:
            continue
        k = max(1, math.ceil(length / delta - 1e-12))
        total += k * (length / k) ** s
    return VisibilityEstimate(
        covering_sum=float(total),
        delta=delta,
        components=len(comps),
        engulfing_cylinders=0,
        full_circle=full,
    )
