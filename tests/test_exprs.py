import math
from fractions import Fraction

import pytest

from favlab.errors import ConfigError
from favlab.exprs import parse_expr
from favlab.rotation import diophantine_profile


def test_literals_and_pi():
    assert parse_expr("0.5").value == 0.5
    assert parse_expr("pi").value == pytest.approx(math.pi)
    assert parse_expr("2*pi").value == pytest.approx(2 * math.pi)


def test_arithmetic():
    assert parse_expr("(1+sqrt(2))/2").value == pytest.approx(
        (1 + math.sqrt(2)) / 2
    )
    assert parse_expr("-3/4").value == -0.75
    assert parse_expr("1 + 2 * 3").value == 7.0


def test_exact_rationals_tracked():
    e = parse_expr("3/7")
    assert e.exact == Fraction(3, 7)
    assert parse_expr("sqrt(2)").exact is None
    assert parse_expr("pi/4").exact is None
    assert parse_expr("sqrt(4)").exact == Fraction(2)


def test_as_fraction_high_precision():
    fr = parse_expr("1/3").as_fraction()
    assert fr == Fraction(1, 3)
    # the 40-digit value of sqrt(2) is its 136-bit rounding, exactly
    fr2 = parse_expr("sqrt(2)").as_fraction()
    assert fr2.denominator == 2**135
    assert abs(fr2 * fr2 - 2) < Fraction(1, 2**134)


def test_sqrt2_convergents_are_the_pell_denominators():
    pell = [1, 2]
    while 2 * pell[-1] + pell[-2] <= 10**12:
        pell.append(2 * pell[-1] + pell[-2])
    prof = diophantine_profile(parse_expr("sqrt(2)").as_fraction(), 10**12, 2.0)
    assert [q for q, _, _ in prof.convergents] == pell
    assert pell[-2:] == [259717522849, 627013566048]


def test_rejects_garbage():
    for bad in ["", "1 +", "sqrt(-1)", "foo", "1//2", "(1"]:
        with pytest.raises(ConfigError):
            parse_expr(bad)
