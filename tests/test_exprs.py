import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from favlab.errors import ConfigError
from favlab.exprs import parse_expr
from favlab.rotation import diophantine_profile
from oracle import reference_parse_expr


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
    for bad in ["", "1 +", "sqrt(-1)", "foo", "1//2", "(1", "1 # 2", "\uff50\uff49", "sqrt((2))",
                "2**3", "+1", "1e3", "1_0"]:
        with pytest.raises(ConfigError):
            parse_expr(bad)


# tokens of the grammar, leading zeros among them, and tokens outside it
NUMBER = st.sampled_from(("0", "1", "2", "7", "12", "007", "00", "012", "0.5", "00.25", ".5",
                          "3.", "1.5", "0.0", ".0", ".00"))
SQRT = st.sampled_from(("sqrt({})", "sqrt(00{})", "sqrt( {} )")).flatmap(
    lambda form: st.integers(0, 20).map(form.format))
OFF_GRAMMAR = ("e", "//", "**", "x", "1e3", "#", "_", ".", "sqrt", ",", "pi2", "0x1", "+")
OPERATOR = st.sampled_from(("+", "-", "*", "/") * 3 + ("**", "//", "%"))
SEPARATOR = st.sampled_from(("", "", "", " ", "\t", "\n", "  "))


def _nest(inner):
    return st.one_of(
        st.tuples(inner, OPERATOR, inner).map(lambda t: t[0] + [t[1]] + t[2]),
        inner.map(lambda t: ["(", *t, ")"]),
        inner.map(lambda t: ["-", *t]),
    )


TOKENS = st.recursive(
    st.one_of(NUMBER, NUMBER, st.just("pi"), SQRT, st.sampled_from(OFF_GRAMMAR)).map(lambda t: [t]),
    _nest, max_leaves=12)


@st.composite
def expression_text(draw):
    """An expression of up to about 40 tokens, sometimes with one token
    spliced in or dropped, inside up to 80 more parentheses, with spaces,
    tabs or newlines between its tokens."""
    tokens = draw(TOKENS)
    if draw(st.integers(0, 2)) == 0:
        tokens.insert(draw(st.integers(0, len(tokens))),
                      draw(st.sampled_from(OFF_GRAMMAR + ("(", ")", "-", "*"))))
    if len(tokens) > 1 and draw(st.integers(0, 2)) == 0:
        del tokens[draw(st.integers(0, len(tokens) - 1))]
    wrap = draw(st.integers(0, 80))
    tokens = ["("] * wrap + tokens + [")"] * wrap
    return draw(SEPARATOR) + "".join(t + draw(SEPARATOR) for t in tokens)


def _outcome(parse, text):
    try:
        v = parse(text)
    except ConfigError:
        return ConfigError
    return v.mp, v.exact, v.value


@pytest.mark.parametrize("text", ["pi", "3/7", "-2/3", "sqrt(2)", "sqrt(4)", "(1+sqrt(5))/2",
                                  "pi/3", "007 + sqrt(004)", "2*-3", "2--3", ".0", "1+.00"])
def test_named_expressions_match_the_reference(text):
    assert _outcome(parse_expr, text) == _outcome(reference_parse_expr, text) != ConfigError


@settings(max_examples=500, deadline=None)
@given(text=expression_text())
@example(text="007/sqrt(004)")
@example(text="2**3")
def test_parse_matches_the_reference_parser(text):
    """Python's parser with the grammar's whitelist gives the hand-written
    parser's mpf and Fraction, or a config error where it gives one."""
    assert _outcome(parse_expr, text) == _outcome(reference_parse_expr, text)
