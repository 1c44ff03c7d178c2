import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from favlab import rotation
from favlab.errors import NoNetWithinBound, RationalAlpha
from favlab.ifs import IFS, norm_angle
from favlab.rotation import (
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
