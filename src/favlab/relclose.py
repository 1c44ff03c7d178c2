"""Search for and verification of relatively-close cylinder families.

A family certificate carries words, the closeness parameter eps, the projection
angle theta, a shared-tail witness per pair and the measured slacks of the
three closeness conditions:

  (i)   size ratio r_u/r_v inside (e^-eps, e^eps)
  (ii)  same orientation, angles within eps
  (iii) projections onto the theta-line at a common tail within
        eps * D * min(r_u, r_v)

Constructors never emit a certificate that fails an independent re-check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .errors import (
    BudgetExhausted,
    ConfigError,
    NumericOverflow,
    PreconditionViolated,
    VerificationFailed,
)
from .ifs import TWO_PI, TailWord, circ_dist, finite_number, norm_angle, parse_word, row_words, word_str
from .projection import project
from .rotation import find_rotation_word, reflector, sigma_arithmetic, steering_copies

PAIR_BAND_CAP = 500_000  # words of one mass band of the pair search


@dataclass(frozen=True)
class PairReport:
    passed: bool
    slack_i: float
    slack_ii: float
    slack_iii: float


@dataclass
class SearchBudget:
    max_depth: int = 12


@dataclass
class RelCloseCertificate:
    words: tuple
    eps: float
    theta: float
    omegas: dict  # (u, v) sorted pair -> TailWord
    slacks: dict  # (u, v) sorted pair -> PairReport
    provenance: dict = field(default_factory=dict)

    def omega(self, u, v):
        return self.omegas[tuple(sorted((u, v)))]

    def pairs(self):
        ws = self.words
        for i in range(len(ws)):
            for j in range(i + 1, len(ws)):
                yield ws[i], ws[j]

    def to_dict(self):
        return {
            "words": [word_str(w) for w in self.words],
            "eps": self.eps,
            "theta": self.theta,
            "omegas": [
                {
                    "pair": [word_str(u), word_str(v)],
                    "prefix": word_str(om.prefix),
                    "period": word_str(om.period),
                }
                for (u, v), om in sorted(self.omegas.items())
            ],
            "slacks": [
                {
                    "pair": [word_str(u), word_str(v)],
                    "slack_i": rep.slack_i,
                    "slack_ii": rep.slack_ii,
                    "slack_iii": rep.slack_iii,
                }
                for (u, v), rep in sorted(self.slacks.items())
            ],
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, data):
        """Read a certificate written by ``to_dict``; its slacks are not read
        but recomputed by whoever verifies it.  A document that does not
        follow the schema raises ConfigError."""
        words = tuple(parse_word(w) for w in _cert_list(data, "words", str))
        if not words:
            raise ConfigError("certificate: 'words' is empty")
        if len(set(words)) < len(words):
            raise ConfigError("certificate: 'words' repeats a word")
        eps = finite_number(_cert_field(data, "eps", (int, float)), "certificate: 'eps'")
        theta = finite_number(_cert_field(data, "theta", (int, float)), "certificate: 'theta'")
        omegas = {}
        for i, e in enumerate(_cert_list(data, "omegas", dict)):
            where = f"certificate omegas[{i}]"
            pair = _cert_field(e, "pair", list, where)
            if len(pair) != 2 or not all(isinstance(w, str) for w in pair):
                raise ConfigError(f"{where}: 'pair' must be two word strings")
            prefix = _cert_field(e, "prefix", str, where)
            period = _cert_field(e, "period", str, where)
            key = tuple(sorted((parse_word(pair[0]), parse_word(pair[1]))))
            omegas[key] = TailWord(parse_word(prefix), parse_word(period))
        provenance = data.get("provenance", {})
        if not isinstance(provenance, dict):
            raise ConfigError("certificate: 'provenance' must be an object")
        cert = cls(words, eps, theta, omegas, slacks={}, provenance=provenance)
        for u, v in cert.pairs():
            if tuple(sorted((u, v))) not in omegas:
                raise ConfigError(
                    f"certificate: no omega for pair ({word_str(u)}, {word_str(v)})"
                )
        return cert


def _cert_field(obj, key, kind, where="certificate"):
    """obj[key], which must exist and be an instance of kind."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise ConfigError(f"{where}: missing {key!r}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"{where}: {key!r} has the wrong type ({type(value).__name__})")
    return value


def _cert_list(data, key, kind):
    """data[key], a list whose entries are instances of kind."""
    items = _cert_field(data, key, list)
    for i, item in enumerate(items):
        if not isinstance(item, kind):
            raise ConfigError(
                f"certificate: {key}[{i}] has the wrong type ({type(item).__name__})"
            )
    return items


def check_relclose(ifs, u, v, eps, theta, omega):
    """Independent verifier for one pair; slacks are margins to violation
    (all positive means pass).  Condition (iii) compares the coded points of
    u.omega and v.omega in closed form, so their only error is rounding."""
    if eps <= 0.0:
        raise PreconditionViolated("eps > 0 required")
    gu = ifs.compose(u)
    gv = ifs.compose(v)
    slack_i = eps - abs(gu.log_r - gv.log_r)
    if gu.orient != gv.orient:
        slack_ii = -math.inf
    else:
        slack_ii = eps - circ_dist(gu.theta, gv.theta)
    r = math.exp(min(gu.log_r, gv.log_r))
    thresh = eps * ifs.D * r
    if not math.isfinite(thresh):
        # eps * D alone can overflow where the threshold itself is finite
        thresh = eps * (ifs.D * r)
    if not math.isfinite(thresh):
        raise NumericOverflow(f"threshold eps*D*r at eps={eps} exceeds the float range")
    if ifs.D == 0.0:
        slack_iii = 0.0
    else:
        pu, pv = ifs.pi_point(gu, omega), ifs.pi_point(gv, omega)
        slack_iii = thresh - abs(project(pu, theta) - project(pv, theta))
    passed = slack_i > 0.0 and slack_ii > 0.0 and slack_iii > 0.0
    return PairReport(passed, slack_i, slack_ii, slack_iii)


def _verify_all(ifs, cert):
    """Re-run the checker over every pair; abort on any failure."""
    for u, v in cert.pairs():
        rep = check_relclose(ifs, u, v, cert.eps, cert.theta, cert.omega(u, v))
        cert.slacks[tuple(sorted((u, v)))] = rep
        if not rep.passed:
            raise VerificationFailed(
                f"pair ({word_str(u)}, {word_str(v)}) fails at eps={cert.eps}"
            )
    return cert


def _perp_direction(ifs, gu, gv, omega):
    """Angle perpendicular to the segment between the coded points of u.omega
    and v.omega, given gu = compose(u) and gv = compose(v); 0 when the segment
    degenerates."""
    pu, pv = ifs.pi_point(gu, omega), ifs.pi_point(gv, omega)
    dx, dy = pv[0] - pu[0], pv[1] - pu[1]
    if math.hypot(dx, dy) <= 1e-12 * max(ifs.D, 1.0):
        return 0.0
    return norm_angle(math.atan2(dy, dx) + 0.5 * math.pi)


def find_pair(ifs, eps, phi=None, budget=None):
    """Search for a distinct relatively-close pair plus its angle.

    Walks shrinking mass bands, buckets cylinders by discretized angle,
    orientation and log-size (cell width eps/2) and takes the first bucket
    collision in depth-first order.  Orientation is fixed with one reflecting
    symbol if needed; theta is perpendicular to the two coded tail points;
    the angle-target condition |phi(theta) - theta_u| < eps is met by
    appending copies of the small-rotation word a(eps/2) to both words.
    """
    budget = budget or SearchBudget()
    sigma = sigma_arithmetic([-math.log(f.r) for f in ifs.maps], tol=1e-9)
    a = find_rotation_word(ifs, eps / 2.0)
    omega = TailWord((), a)
    width = eps / 2.0
    n_cells = max(1, math.ceil(TWO_PI / width))

    r = 1.0
    for _depth in range(1, budget.max_depth + 1):
        r *= ifs.r_min
        band, symbols = ifs.band(r, cap=PAIR_BAND_CAP)
        buckets = {}
        collision = None
        rows = zip(band.theta.tolist(), band.orient.tolist(), band.log_r.tolist())
        for k, (th, o, lr) in enumerate(rows):
            key = (int(th / width) % n_cells, o, math.floor(lr / width))
            if key in buckets:
                collision = (buckets[key], k)
                break
            buckets[key] = k
        if collision is None:
            continue
        iu, iv = collision
        (u, v), gu, gv = row_words(symbols[[iu, iv]]), band[iu], band[iv]
        if gu.orient == -1:
            i0 = reflector(ifs)
            u, v = u + (i0,), v + (i0,)
            gu, gv = ifs.compose((i0,), gu), ifs.compose((i0,), gv)
        theta = _perp_direction(ifs, gu, gv, omega)
        if phi is not None:
            j = steering_copies(ifs, (gu.theta, gv.theta), phi(theta), eps, a, eps / 2.0)
            if j is None:
                continue
            u, v = u + a * j, v + a * j
        pair = tuple(sorted((u, v)))
        cert = RelCloseCertificate(
            words=(u, v),
            eps=eps,
            theta=theta,
            omegas={pair: omega},
            slacks={},
            provenance={
                "op": "find_pair",
                "eps": eps,
                "sigma": sigma,
                "a_word": word_str(a),
                "band_r": r,
            },
        )
        try:
            return _verify_all(ifs, cert)
        except VerificationFailed:
            continue
    raise BudgetExhausted(f"no colliding pair within depth {budget.max_depth}")


def _eps2_bounds(eps, eps1, r_umin):
    """The two smallness bounds on the inner closeness parameter used when
    doubling: a linear one scaled by the smallest family ratio, and the
    solution of (e^t - 1) + t = (eps/3) * r_umin."""
    b1 = min(math.exp(-eps / 6.0) * (eps / 3.0 - eps1) * r_umin, eps / 6.0)
    target = (eps / 3.0) * r_umin
    lo, hi = 0.0, target
    while (math.exp(hi) - 1.0) + hi < target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (math.exp(mid) - 1.0) + mid < target:
            lo = mid
        else:
            hi = mid
    return b1, lo


def double_family(ifs, cert, eps, budget=None):
    """Turn a verified N-family at eps1 < eps/6 into a verified 2N-family at
    eps, by finding an inner pair (s, t) whose angles steer onto the family's
    direction and prefixing every family word with each of s and t."""
    eps1 = cert.eps
    if not (0.0 < eps1 < eps / 6.0):
        raise PreconditionViolated(f"need cert eps {eps1} < eps/6 = {eps / 6.0}")
    theta1 = cert.theta
    r_umin = min(math.exp(ifs.compose(w).log_r) for w in cert.words)
    b1, b2 = _eps2_bounds(eps, eps1, r_umin)
    eps2 = 0.9 * min(b1, b2)
    if eps2 <= 0.0:
        raise PreconditionViolated("eps2 underflow: family ratios too small")
    inner = find_pair(
        ifs, eps2, phi=lambda th: norm_angle(th - theta1), budget=budget
    )
    s, t = inner.words
    theta2 = inner.theta
    omega_inner = inner.omega(s, t)

    words = tuple(s + u for u in cert.words) + tuple(t + u for u in cert.words)
    omegas = {}
    n = len(cert.words)
    for i in range(n):
        for j in range(n):
            ui, uj = cert.words[i], cert.words[j]
            if i < j:
                om = cert.omega(ui, uj)
                omegas[tuple(sorted((s + ui, s + uj)))] = om
                omegas[tuple(sorted((t + ui, t + uj)))] = om
                omegas[tuple(sorted((s + ui, t + uj)))] = om
                omegas[tuple(sorted((s + uj, t + ui)))] = om
            elif i == j:
                omegas[tuple(sorted((s + ui, t + ui)))] = omega_inner
    out = RelCloseCertificate(
        words=words,
        eps=eps,
        theta=theta2,
        omegas=omegas,
        slacks={},
        provenance={
            "op": "double_family",
            "eps": eps,
            "eps1": eps1,
            "eps2": eps2,
            "eps2_bound_linear": b1,
            "eps2_bound_matrix": b2,
            "theta1": theta1,
            "theta2": theta2,
            "s": word_str(s),
            "t": word_str(t),
            "inner": inner.provenance,
            "base": cert.provenance,
        },
    )
    return _verify_all(ifs, out)


def grow_family(ifs, eps, size, budget=None):
    """Iterate doubling from a searched pair until the family has >= size
    words, all mutually relatively close at eps."""
    if size <= 2:
        return find_pair(ifs, eps, None, budget)
    sub = grow_family(ifs, 0.9 * eps / 6.0, (size + 1) // 2, budget)
    return double_family(ifs, sub, eps, budget)


def power_family(ifs, u, v, n, eps=1e-6):
    """The 2^n words made of n blocks from {u, v}, for non-rotating blocks of
    equal length; every pair is relatively close at numeric tolerance with the
    same tail u-bar and the direction perpendicular to the two coded points."""
    if u == v or len(u) != len(v):
        raise PreconditionViolated("need distinct u, v of equal length")
    gu, gv = ifs.compose(u), ifs.compose(v)
    if gu.orient != 1 or gv.orient != 1:
        raise PreconditionViolated("blocks must have orientation +1")
    if circ_dist(gu.theta, 0.0) > 1e-12 or circ_dist(gv.theta, 0.0) > 1e-12:
        raise PreconditionViolated("blocks must be non-rotating")
    if n < 1:
        raise PreconditionViolated("n >= 1 required")
    omega = TailWord((), u)
    theta = _perp_direction(ifs, gu, gv, omega)
    words = tuple(
        sum(blocks, ()) for blocks in itertools.product((u, v), repeat=n)
    )
    omegas = {tuple(sorted(p)): omega for p in itertools.combinations(words, 2)}
    cert = RelCloseCertificate(
        words=words,
        eps=eps,
        theta=theta,
        omegas=omegas,
        slacks={},
        provenance={
            "op": "power_family",
            "u": word_str(u),
            "v": word_str(v),
            "n": n,
            "eps": eps,
        },
    )
    return _verify_all(ifs, cert)
