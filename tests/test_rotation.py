import bisect
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import src_env

from favlab import cli, rotation
from favlab.errors import NoNetWithinBound, NumericOverflow, PreconditionViolated, RationalAlpha
from favlab.ifs import IFS, TWO_PI, Similitude, circ_dist, norm_angle
from favlab.rotation import (
    NetResult,
    diophantine_profile,
    epsilon_net,
    find_rotation_word,
    sigma_arithmetic,
    steering_suffix,
)


ALPHA = (1.0 + math.sqrt(2.0)) / 2.0  # fig1 angle over 2*pi


def _gap_oracle(theta1, eps, p):
    """[DERIVED] oracle: sort the orbit {j*theta1 mod 2pi : 1 <= j <= p} and
    scan adjacent circular gaps."""
    pts = sorted(norm_angle(j * theta1) for j in range(1, p + 1))
    gaps = [b - a for a, b in zip(pts, pts[1:])]
    gaps.append(2 * math.pi - pts[-1] + pts[0])
    return max(gaps)


def test_epsilon_net_matches_gap_oracle():
    theta1 = 2 * math.pi * ALPHA
    for eps in (0.5, 0.2, 0.1, 0.05):
        net = epsilon_net(theta1, eps, 100_000)
        assert net.max_gap < eps
        assert abs(net.max_gap - _gap_oracle(theta1, eps, net.p)) < 1e-12
        # minimality: one fewer point must not already be an eps-net
        if net.p > 1:
            assert _gap_oracle(theta1, eps, net.p - 1) >= eps
        assert net.c1_hat == pytest.approx(net.p * eps**3.0)


def test_epsilon_net_rational_angle_fails():
    # orbit of pi/2 has only 4 points; no 0.1-net exists
    with pytest.raises(NoNetWithinBound):
        epsilon_net(math.pi / 2, 0.1, 10_000)


def test_diophantine_golden_ratio():
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    prof = diophantine_profile(phi, 10**6, 2.0)
    # liminf N|N phi - M| = 1/sqrt(5) along convergents [DERIVED:
    # classical closed-form value used as oracle]
    # the liminf is the limit along convergents; early ones undershoot, so
    # read it off the tail (denominators above 100)
    residuals = [n * abs(n * phi - m) for n, m, _ in prof.convergents if n > 100]
    assert min(residuals) == pytest.approx(1.0 / math.sqrt(5.0), rel=0.05)
    assert prof.c_hat > 0.0
    assert 1.0 <= prof.d_hat < 1.2  # golden ratio is badly approximable


def test_diophantine_rejects_rationals():
    with pytest.raises(RationalAlpha):
        diophantine_profile(Fraction(3, 7), 1000, 2.0)


def test_diophantine_convergents_are_best():
    # [DERIVED] each convergent beats every smaller denominator
    alpha = math.sqrt(2.0)
    prof = diophantine_profile(alpha, 10_000, 2.0)
    ns = [n for n, _, _ in prof.convergents]
    assert ns == sorted(ns)
    for n, m, res in prof.convergents[:6]:
        best = min(
            abs(k * alpha - round(k * alpha)) for k in range(1, n + 1)
        )
        assert res == pytest.approx(best, abs=1e-12)


def test_sigma_arithmetic():
    base = math.log(3.0)
    sig = sigma_arithmetic([2 * base, 3 * base, 5 * base], 1e-9)
    assert sig == pytest.approx(base, abs=1e-9)
    # log 3 / log 2 is irrational: no common sigma at tight tolerance
    assert sigma_arithmetic([math.log(2.0), math.log(3.0)], 1e-12) is None


@given(
    st.integers(1, 20),
    st.integers(1, 20),
    st.floats(0.1, 3.0),
)
def test_sigma_arithmetic_divides(a, b, base):
    sig = sigma_arithmetic([a * base, b * base], 1e-9)
    assert sig is not None
    g = math.gcd(a, b)
    assert sig == pytest.approx(g * base, rel=1e-6)


def test_find_rotation_word():
    ifs = IFS.from_json("configs/fig1.json")
    for eps in (0.5, 0.1, 0.01):
        w = find_rotation_word(ifs, eps)
        g = ifs.compose(w)
        ang = min(g.theta, 2 * math.pi - g.theta)
        assert 0.0 < ang < eps
        assert g.orient == 1


def test_steering_suffix(monkeypatch):
    monkeypatch.setattr(rotation, "NET_P_MAX", 10_000)
    ifs = IFS.from_json("configs/fig1.json")
    a = find_rotation_word(ifs, 0.05)
    # steer the angle of the word (2,) to within 0.05 of phi
    for phi in (0.0, 1.0, 3.0, 6.0):
        suffix = steering_suffix(ifs, (2,), phi, 0.05, a)
        g = ifs.compose((2,) + suffix)
        d = abs(norm_angle(g.theta - phi))
        assert min(d, 2 * math.pi - d) < 0.05


# ------------------------------------------- the scan and the search replaced
# find_rotation_word scanned the powers one k at a time, and epsilon_net
# doubled p from 1 and bisected, sorting the orbit afresh at every probe.
# Both are kept here as oracles: of the array scan's words, and of the
# three-gap net's p, c1_hat and errors.


def old_find_rotation_word(ifs, eps):
    rot = [
        (i, f.theta)
        for i, f in enumerate(ifs.maps, start=1)
        if f.orient == 1 and circ_dist(f.theta, 0.0) > 0.0
    ]
    if not rot:
        raise NoNetWithinBound("system has no rotating map")
    for k in range(1, rotation.ROTATION_K_MAX + 1):
        for i, th in rot:
            ang = norm_angle(k * th)
            if 0.0 < circ_dist(ang, 0.0) < eps:
                return (i,) * k
    raise NoNetWithinBound(f"no rotation power within {eps} in {rotation.ROTATION_K_MAX} steps")


def old_orbit_max_gap(theta1, p):
    angles = np.sort((np.arange(1, p + 1, dtype=float) * theta1) % TWO_PI)
    if p == 1:
        return TWO_PI
    gaps = np.diff(angles)
    wrap = angles[0] + TWO_PI - angles[-1]
    return float(max(gaps.max(), wrap))


def old_epsilon_net(theta1, eps, p_max, d=2.0):
    if eps <= 0.0 or p_max < 1:
        raise PreconditionViolated("eps > 0 and p_max >= 1 required")
    theta1 = norm_angle(theta1)
    hi = 1
    while old_orbit_max_gap(theta1, hi) >= eps:
        if hi >= p_max:
            raise NoNetWithinBound(
                f"no eps-net with p <= {p_max} for theta1={theta1:.6g}, eps={eps:.6g}"
            )
        hi = min(2 * hi, p_max)
    lo = max(1, hi // 2)
    while lo < hi:
        mid = (lo + hi) // 2
        if old_orbit_max_gap(theta1, mid) < eps:
            hi = mid
        else:
            lo = mid + 1
    gap = old_orbit_max_gap(theta1, hi)
    c1_hat = hi * eps ** (d + 1)
    if not math.isfinite(c1_hat):
        raise NumericOverflow(f"c1_hat = {hi} * eps^{d + 1} exceeds the float range")
    return NetResult(p=hi, max_gap=gap, c1_hat=c1_hat)


def outcome(fn, *args):
    """The result's p and c1_hat bits, or the error's repr.  The doubling
    search's max_gap is the float orbit's, which drifts from the exact gap
    as p grows; the exact orbits below are the oracles of max_gap."""
    try:
        res = fn(*args)
    except Exception as e:
        return repr(e)
    return res.p, res.c1_hat.hex()


def exact_orbit_max_gap(theta1, p):
    """[DERIVED] the largest gap of {k*theta1 mod 2pi : k = 1..p} in exact
    arithmetic, rounded once: with theta1/2pi = A/B, the orbit is {k*A mod B}
    over B."""
    alpha = Fraction(norm_angle(theta1)) / Fraction(TWO_PI)
    a, b = alpha.numerator, alpha.denominator
    pts = sorted(k * a % b for k in range(1, p + 1))
    gap = max([y - x for x, y in zip(pts, pts[1:])] + [pts[0] + b - pts[-1]])
    return float(Fraction(gap, b) * Fraction(TWO_PI))


FIG1_THETA = 2 * math.pi * ALPHA
ANGLES = st.one_of(
    st.floats(0.0, 2 * math.pi),
    st.floats(1e-9, 1e-3),  # tiny
    st.floats(1e-9, 1e-3).map(lambda t: 2 * math.pi - t),  # near 2*pi
    st.integers(1, 60).map(lambda k: k * FIG1_THETA),
    st.tuples(st.integers(1, 40), st.integers(1, 40)).map(lambda t: math.pi * t[0] / t[1]),
    st.just(0.0),
)


@settings(max_examples=300, deadline=None)
@given(
    ANGLES,
    st.floats(-5.0, 1.0).map(lambda x: 10.0**x),
    st.one_of(st.integers(1, 50), st.sampled_from([1_000, 20_000, 200_000])),
)
@example(FIG1_THETA, 0.1, 1_000_000)  # the README's favlab net
@example(math.pi / 2, 0.1, 10_000)  # a rational angle: the expansion ends
@example(0.0, 7.0, 10)  # eps above 2*pi: one point
@example(1.0, math.inf, 10)
@example(1.0, math.nan, 10)
def test_epsilon_net_matches_the_doubling_search(theta1, eps, p_max):
    assert outcome(epsilon_net, theta1, eps, p_max) == outcome(
        old_epsilon_net, theta1, eps, p_max
    )


@pytest.mark.parametrize("theta1", [FIG1_THETA % TWO_PI, 1.0, 0.3, 5.9, 0.01])
def test_three_gap_guess_is_the_exact_orbit_answer(theta1):
    # the largest gap of {k*alpha mod 1 : k = 1..N} in rational arithmetic
    alpha = Fraction(theta1) / Fraction(TWO_PI)
    pts, gaps = [], []
    for n in range(1, 300):
        bisect.insort(pts, (n * alpha) % 1)
        gaps.append(max([b - a for a, b in zip(pts, pts[1:])] + [pts[0] + 1 - pts[-1]]))
    for eps in (2.0, 0.5, 0.1, 0.04, 0.02):
        e = Fraction(eps) / Fraction(TWO_PI)
        want = next((n for n, g in enumerate(gaps, start=1) if g < e), None)
        got = rotation._three_gap(theta1, eps)
        if want:
            assert got == (want, float(gaps[want - 1] * Fraction(TWO_PI)))
        else:
            assert got[0] > len(gaps)


@pytest.mark.parametrize("argv", [
    ("--theta-over-pi", "1+sqrt(2)", "--eps", "0.1"),
    ("--theta-over-pi", "sqrt(5)", "--eps", "1e-4", "--d", "1.5"),
    ("--theta-over-pi", "1/2", "--eps", "0.5", "--pmax", "100"),
])
def test_net_command_prints_the_doubling_search_result(capsys, argv):
    code = cli.run(["net", *argv])
    args = cli.build_parser().parse_args(["net", *argv])
    theta1 = cli.parse_expr(args.theta_over_pi).value * math.pi
    try:
        net = old_epsilon_net(theta1, args.eps, args.pmax, d=args.d)
        gap = exact_orbit_max_gap(theta1, net.p)
        want = (0, f"p {net.p} max_gap {gap} c1_hat {net.c1_hat}\n", "")
    except NoNetWithinBound as e:
        want = (1, "", f"ERROR {e}\n")
    out, err = capsys.readouterr()
    assert (code, out, err.split("\n", 1)[1]) == want


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="needs an 80-bit or wider long double")
def test_epsilon_net_max_gap_is_the_extended_precision_orbits():
    # at p = 1,136,689 a float orbit's largest gap is 1.1e-5 (relative) from
    # the exact one; an orbit in 64-bit mantissas is within about 1e-8 of it
    theta1 = norm_angle(FIG1_THETA)
    net = epsilon_net(theta1, 1e-5, 10_000_000)
    k = np.arange(1, net.p + 1, dtype=np.longdouble)
    pts = np.sort(k * np.longdouble(theta1) % np.longdouble(TWO_PI))
    gap = max(np.diff(pts).max(), pts[0] + np.longdouble(TWO_PI) - pts[-1])
    assert net.p == 1_136_689
    assert abs(net.max_gap - gap) < 1e-7 * gap


def test_net_command_answers_a_net_past_a_hundred_million_points():
    # a float orbit of every point here takes about 4.7 GB to sort; the 3 GB
    # address-space cap makes a search that forms it fail fast, not fill memory
    r = subprocess.run(
        ["sh", "-c", 'ulimit -v 3145728 && exec "$@"', "sh",
         sys.executable, "-m", "favlab.cli", "net", "--theta-over-pi", "1+sqrt(2)",
         "--eps", "1e-7", "--pmax", "1000000000"],
        capture_output=True, text=True, env=src_env(), timeout=5,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.split()[:2] == ["p", "147830751"]


def _rotating_system(thetas):
    n = len(thetas)
    return IFS.from_maps([
        Similitude(0.4, th, 1, math.cos(i), math.sin(i)) for i, th in enumerate(thetas)
    ] + [Similitude(0.4, 0.0, 1, 0.0, 0.0)] * (n == 1))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(ANGLES, min_size=1, max_size=3).map(
        lambda ts: ts + ts[:1]),  # a repeated angle: the tie goes to the lower index
    st.floats(-4.0, 0.0).map(lambda x: 10.0**x),
)
def test_find_rotation_word_matches_the_scalar_scan(thetas, eps):
    ifs = _rotating_system(thetas)
    assert outcome_word(find_rotation_word, ifs, eps) == outcome_word(
        old_find_rotation_word, ifs, eps
    )


def outcome_word(fn, ifs, eps):
    try:
        return fn(ifs, eps)
    except NoNetWithinBound as e:
        return repr(e)


def test_find_rotation_word_matches_the_scalar_scan_on_fig1():
    ifs = IFS.from_json("configs/fig1.json")
    for eps in (0.5, 1e-2, 1e-3, 1e-4, 3e-5, 1e-6):
        assert outcome_word(find_rotation_word, ifs, eps) == outcome_word(
            old_find_rotation_word, ifs, eps
        )
