"""Circle-rotation combinatorics: orbit nets from the three-gap theorem,
Diophantine profiling from continued fractions, and steering suffixes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    NoNetWithinBound,
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


def _three_gap(theta1, eps):
    """Least N whose exact orbit {k*alpha mod 1 : k = 1..N}, alpha =
    theta1/2pi, has largest gap below e = eps/2pi, with that gap in radians
    rounded once; None where the expansion of alpha ends first.

    Three-gap theorem: with delta_{-1} = 1, delta_0 = alpha, a_j =
    delta_{j-1} // delta_j, delta_{j+1} = delta_{j-1} - a_j delta_j and q_j
    the denominators, every N = m q_j + q_{j-1} + r (1 <= m <= a_j,
    0 <= r < q_j) has largest gap delta_{j-1} - (m-1) delta_j."""
    e = Fraction(eps) / Fraction(TWO_PI)
    d0, d1 = Fraction(1), Fraction(theta1) / Fraction(TWO_PI)
    q0, q1 = 0, 1
    while d1:
        a = d0 // d1
        m = max(1, (d0 - e) // d1 + 2)
        if m <= a:
            return m * q1 + q0, float((d0 - (m - 1) * d1) * Fraction(TWO_PI))
        d0, d1 = d1, d0 - a * d1
        q0, q1 = q1, a * q1 + q0
    return None


def epsilon_net(theta1, eps, p_max, d=2.0):
    """Smallest p <= p_max whose orbit {k*theta1 : k=1..p} has max circular
    gap below eps, from the three-gap theorem on the exact orbit of the
    float angle; max_gap is that orbit's largest gap.  One point, gap 2*pi,
    serves every eps above 2*pi (or infinite or NaN)."""
    if eps <= 0.0 or p_max < 1:
        raise PreconditionViolated("eps > 0 and p_max >= 1 required")
    theta1 = norm_angle(theta1)
    net = (1, TWO_PI) if not eps <= TWO_PI else _three_gap(theta1, eps)
    if net is None or net[0] > p_max:
        raise NoNetWithinBound(
            f"no eps-net with p <= {p_max} for theta1={theta1:.6g}, eps={eps:.6g}"
        )
    p, max_gap = net
    c1_hat = p * eps ** (d + 1)
    if not math.isfinite(c1_hat):
        raise NumericOverflow(f"c1_hat = {p} * eps^{d + 1} exceeds the float range")
    return NetResult(p=p, max_gap=max_gap, c1_hat=c1_hat)


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
    Scans pure powers i^k of the rotating maps, shortest hit first and ties
    to the lowest map index, over chunks of k that grow geometrically; a
    chunk is one array pass with the float operations of norm_angle and
    circ_dist, which for k >= 1 and an angle in [0, 2*pi) are one fmod and
    min(a, 2*pi - a)."""
    rot = [
        (i, f.theta)
        for i, f in enumerate(ifs.maps, start=1)
        if f.orient == 1 and circ_dist(f.theta, 0.0) > 0.0
    ]
    if not rot:
        raise NoNetWithinBound("system has no rotating map")
    symbols, thetas = zip(*rot)
    thetas = np.array(thetas)
    lo, size = 1, 1024
    while lo <= ROTATION_K_MAX:
        hi = min(lo + size, ROTATION_K_MAX + 1)
        ang = np.fmod(np.arange(lo, hi, dtype=float)[:, None] * thetas, TWO_PI)
        dist = np.minimum(ang, TWO_PI - ang)
        hit = (0.0 < dist) & (dist < eps)
        if hit.any():
            k, i = np.unravel_index(np.argmax(hit), hit.shape)  # row-major: least k first
            return (symbols[i],) * int(lo + k)
        lo, size = hi, 2 * size
    raise NoNetWithinBound(f"no rotation power within {eps} in {ROTATION_K_MAX} steps")


def reflector(ifs):
    """The symbol of the first reflecting map, which turns a word of
    orientation -1 to +1; such a word holds a reflecting symbol."""
    return next(i for i, f in enumerate(ifs.maps, start=1) if f.orient == -1)


def steering_copies(ifs, thetas, phi, eps, a_word, net_eps):
    """Least j <= p with every angle of thetas plus j copies of a_word's angle
    within eps of phi, p the size of the net_eps-net of a_word's orbit; None
    if no j hits.  The angles themselves (j = 0) are tried first, before
    a_word is composed or its net built."""
    if all(circ_dist(t, phi) < eps for t in thetas):
        return 0
    ga = ifs.compose(a_word)
    if ga.orient != 1:
        raise PreconditionViolated("a_word must have orientation +1")
    net = epsilon_net(ga.theta, net_eps, NET_P_MAX)
    for j in range(1, net.p + 1):
        if all(circ_dist(t + j * ga.theta, phi) < eps for t in thetas):
            return j
    return None


def steering_suffix(ifs, base, phi, eps, a_word):
    """Suffix t of <= p copies of a_word (optionally after one reflecting
    symbol) with orientation(base.t) = +1 and |theta(base.t) - phi| < eps,
    p the size of the eps-net of a_word's orbit."""
    gb = ifs.compose(base)
    head = (reflector(ifs),) if gb.orient == -1 else ()
    gb = ifs.compose(head, gb)
    j = steering_copies(ifs, (gb.theta,), phi, eps, a_word, eps)
    if j is None:
        raise NoNetWithinBound("net promised a hit but the scan found none")
    return head + a_word * j
