import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from favlab import counting
from favlab.errors import EnumerationCap
from favlab.counting import (
    avoidance_count,
    e_bound_holds,
    h2_length_bound,
    removal_recursion,
)
from favlab.ifs import IFS, Similitude


def toy_ifs():
    # m=2 homogeneous system with one rotating map (dense angles)
    return IFS.from_maps(
        [
            Similitude(r=0.4, theta=math.sqrt(2.0), orient=1, tx=0.0, ty=0.0),
            Similitude(r=0.4, theta=0.0, orient=1, tx=0.5, ty=0.1),
        ]
    )


# ------------------------------------------------------------ avoidance


def test_avoidance_trivial():
    exact, bound = avoidance_count(2, 2, 2)
    assert exact == 9 and bound == 9


def _brute_avoid(m, s, blocks):
    """[DERIVED] oracle: enumerate words of length blocks*s, forbid in each
    block the designated continuation (the all-ones block)."""
    forbidden = (1,) * s
    count = 0
    for w in itertools.product(range(1, m + 1), repeat=blocks * s):
        ok = all(w[i * s:(i + 1) * s] != forbidden for i in range(blocks))
        count += ok
    return count


def test_avoidance_matches_enumeration():
    for m, s, blocks in [(2, 2, 4), (2, 2, 2), (3, 1, 4), (2, 3, 2)]:
        exact, bound = avoidance_count(m, s, blocks)
        assert exact == _brute_avoid(m, s, blocks)
        assert exact <= bound


def test_avoidance_big_integers():
    exact, bound = avoidance_count(3, 5, 40)
    assert exact == (3**5 - 1) ** 40
    assert isinstance(exact, int)


@given(st.integers(2, 6), st.integers(1, 6))
def test_e_bound(m, s):
    # [TRIVIAL] (1 - m^-s)^(m^s * s) <= e^-s, checked directly
    assert e_bound_holds(m, s)
    assert (1.0 - float(m) ** -s) ** (m**s * s) <= math.exp(-s) + 1e-15


def test_h2_length_bound():
    h = h2_length_bound(2, 2, 4, 0.5)
    # consistency identity of the surrogate
    assert h["value"] == pytest.approx(3.0 * (1 - 2.0**-2) ** 4)
    assert not h["e_bound_applicable"]  # needs blocks >= m^s * s = 8
    h8 = h2_length_bound(2, 2, 8, 0.5)
    assert h8["e_bound_applicable"]
    assert h8["within_e_bound"]
    assert h8["value"] <= 3.0 * math.exp(-2) + 1e-15
    # monotone decreasing in s at the schedule scale blocks = m^s * s
    vals = [h2_length_bound(2, s, 2**s * s, 0.5)["value"] for s in (1, 2, 3)]
    assert vals[0] >= vals[1] >= vals[2]


# ------------------------------------------------------------ removal


def test_removal_masses_decrease():
    ifs = toy_ifs()
    trace = removal_recursion(ifs, (2,), 0.0, 2.0, 4)
    assert trace.masses[0] == pytest.approx(1.0)
    for a, b in zip(trace.masses, trace.masses[1:]):
        assert b < (1.0 - trace.c) * a + 1e-12
    assert trace.c > 0.0


def test_removal_matches_enumeration():
    # [DERIVED] oracle: with eps > 2*pi every angle is already on target, the
    # steering suffix is empty, and the recursion reduces to pure block
    # avoidance -- enumerable exhaustively at full depth
    ifs = toy_ifs()
    target = (2, 2)
    steps = 4
    trace = removal_recursion(ifs, target, 0.0, 7.0, steps)
    assert trace.n0 == 0
    block = len(target)
    for i in range(steps + 1):
        depth = i * block
        mass = 0.0
        for w in itertools.product((1, 2), repeat=depth):
            if all(w[j * block:(j + 1) * block] != target
                   for j in range(i)):
                mass += ifs.mu_mass(w)
        assert trace.masses[i] == pytest.approx(mass, rel=1e-9)
    assert trace.survivors == (2**block - 1) ** steps


def test_removal_geometric_bound():
    ifs = toy_ifs()
    trace = removal_recursion(ifs, (1,), 0.0, 2.0, 5)
    for i, mass in enumerate(trace.masses):
        assert mass <= (1.0 - trace.c) ** i + 1e-12


def test_removal_enumeration_cap(monkeypatch):
    monkeypatch.setattr(counting, "ENUMERATION_CAP", 1000)
    ifs = toy_ifs()
    with pytest.raises(EnumerationCap):
        removal_recursion(ifs, (1, 2), 0.0, 7.0, 8)
