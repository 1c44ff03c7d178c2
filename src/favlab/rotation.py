"""Circle-rotation combinatorics: orbit nets, Diophantine profiling from
continued fractions, and steering suffixes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    NoNetWithinBound,
    NoReflectorAvailable,
    NumericOverflow,
    PreconditionViolated,
    RationalAlpha,
)
from .ifs import TWO_PI, circ_dist, norm_angle

NET_P_MAX = 1_000_000  # orbit length bound of the nets that steer words
ROTATION_K_MAX = 200_000  # rotation powers scanned for a small-rotation word
SIGMA_MAX_DEN = 1_000_000  # denominator bound of the ratio relations


@dataclass(frozen=True)
class NetResult:
    p: int
    max_gap: float
    c1_hat: float


@dataclass(frozen=True)
class DiophProfile:
    convergents: tuple  # (N, M, |N*alpha - M|)
    c_hat: float
    d_hat: float


def _orbit_max_gap(theta1, p):
    angles = np.sort((np.arange(1, p + 1, dtype=float) * theta1) % TWO_PI)
    if p == 1:
        return TWO_PI
    gaps = np.diff(angles)
    wrap = angles[0] + TWO_PI - angles[-1]
    return float(max(gaps.max(), wrap))


def epsilon_net(theta1, eps, p_max, d=2.0):
    """Smallest p <= p_max whose orbit {k*theta1 : k=1..p} has max circular
    gap below eps.  The gap is nonincreasing in p, so binary search applies."""
    if eps <= 0.0 or p_max < 1:
        raise PreconditionViolated("eps > 0 and p_max >= 1 required")
    theta1 = norm_angle(theta1)
    hi = 1
    while _orbit_max_gap(theta1, hi) >= eps:
        if hi >= p_max:
            raise NoNetWithinBound(
                f"no eps-net with p <= {p_max} for theta1={theta1:.6g}, eps={eps:.6g}"
            )
        hi = min(2 * hi, p_max)
    lo = max(1, hi // 2)
    while lo < hi:
        mid = (lo + hi) // 2
        if _orbit_max_gap(theta1, mid) < eps:
            hi = mid
        else:
            lo = mid + 1
    gap = _orbit_max_gap(theta1, hi)
    c1_hat = hi * eps ** (d + 1)
    if not math.isfinite(c1_hat):
        raise NumericOverflow(f"c1_hat = {hi} * eps^{d + 1} exceeds the float range")
    return NetResult(p=hi, max_gap=gap, c1_hat=c1_hat)


def _continued_fraction_convergents(frac, n_max):
    """Convergents (p_k, q_k) of an exact rational, denominators <= n_max.
    Returns (convergents, terminated) where terminated means the expansion
    ended at a listed convergent (the input equals it exactly)."""
    num, den = frac.numerator, frac.denominator
    h0, h1 = 1, int(num // den)
    k0, k1 = 0, 1
    num, den = den, num - (num // den) * den  # remainder
    conv = [(h1, k1)]
    terminated = den == 0
    while den != 0:
        a = num // den
        num, den = den, num - a * den
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0
        if k1 > n_max:
            return conv, False
        conv.append((h1, k1))
        if den == 0:
            terminated = True
    return conv, terminated


def _scaled(res, n, d):
    try:
        return res * n**d
    except OverflowError:
        return math.inf


def diophantine_profile(alpha, n_max, d):
    """Continued-fraction convergents of alpha with residual diagnostics.

    alpha may be a float or an exact Fraction; floats are used at their exact
    binary value, so RationalAlpha fires only for genuinely rational input.
    """
    if n_max < 2:
        raise PreconditionViolated("n_max >= 2 required")
    frac = alpha if isinstance(alpha, Fraction) else Fraction(alpha)
    conv, terminated = _continued_fraction_convergents(frac, n_max)
    if terminated:
        raise RationalAlpha(f"alpha = {frac} is rational; not Diophantine")
    triples = []
    for p, q in conv:
        if q < 1:
            continue
        res = abs(q * frac - p)
        triples.append((q, p, float(res)))
    # n**d beyond the float range counts as +inf; the q = 1 term keeps the
    # minimum finite
    c_hat = min(_scaled(res, n, d) for n, _, res in triples)
    # log q_{k+1} / log q_k estimates the exponent only once the denominators
    # have left the single-digit regime
    qs = [n for n, _, _ in triples if n >= 10]
    if len(qs) >= 2:
        d_hat = max(
            math.log(qs[i + 1]) / math.log(qs[i]) for i in range(len(qs) - 1)
        )
    else:
        d_hat = 1.0
    return DiophProfile(convergents=tuple(triples), c_hat=float(c_hat), d_hat=d_hat)


def sigma_arithmetic(values, tol):
    """Largest sigma > 0 with every value an integer multiple of sigma (within
    tol), found by a rational-relation scan on ratios; None if no relation."""
    values = [float(v) for v in values]
    if not values or any(v <= 0 for v in values):
        raise PreconditionViolated("positive values required")
    base = min(values)
    mults = []
    lcm = 1
    for v in values:
        ratio = v / base
        fr = Fraction(ratio).limit_denominator(SIGMA_MAX_DEN)
        if abs(fr.denominator * ratio - fr.numerator) > tol:
            return None
        mults.append(fr)
        lcm = lcm * fr.denominator // math.gcd(lcm, fr.denominator)
    sigma0 = base / lcm
    ints = [f.numerator * (lcm // f.denominator) for f in mults]
    g = 0
    for n in ints:
        g = math.gcd(g, n)
    sigma = sigma0 * g
    if any(abs(v - round(v / sigma) * sigma) > tol for v in values):
        return None
    return sigma


def find_rotation_word(ifs, eps):
    """A word a(eps): orientation +1, nonzero angle with |theta_a| < eps.
    Scans pure powers i^k of the rotating maps, shortest hit first."""
    rot = [
        (i, f.theta)
        for i, f in enumerate(ifs.maps, start=1)
        if f.orient == 1 and circ_dist(f.theta, 0.0) > 0.0
    ]
    if not rot:
        raise NoNetWithinBound("system has no rotating map")
    for k in range(1, ROTATION_K_MAX + 1):
        for i, th in rot:
            ang = norm_angle(k * th)
            if 0.0 < circ_dist(ang, 0.0) < eps:
                return (i,) * k
    raise NoNetWithinBound(f"no rotation power within {eps} in {ROTATION_K_MAX} steps")


def steering_suffix(ifs, base, phi, eps, a_word):
    """Suffix t of <= p copies of a_word (optionally after one reflecting
    symbol) with orientation(base.t) = +1 and |theta(base.t) - phi| < eps."""
    ga = ifs.compose(a_word)
    if ga.orient != 1:
        raise PreconditionViolated("a_word must have orientation +1")
    gb = ifs.compose(base)
    head = ()
    if gb.orient == -1:
        i0 = next((i for i, f in enumerate(ifs.maps, start=1) if f.orient == -1), None)
        if i0 is None:
            raise NoReflectorAvailable("orientation -1 base and no reflecting map")
        head = (i0,)
        gb = ifs.compose(base + head)
    if circ_dist(gb.theta, phi) < eps:
        return head
    net = epsilon_net(ga.theta, eps, NET_P_MAX)
    for j in range(1, net.p + 1):
        if circ_dist(gb.theta + j * ga.theta, phi) < eps:
            return head + a_word * j
    raise NoNetWithinBound("net promised a hit but the scan found none")
