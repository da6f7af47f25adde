import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from geu.errors import ParseError
from geu.scalars import (
    GS_ONE,
    GS_ZERO,
    GaussScalar,
    encode_scalar,
    gs,
    parse_scalar,
)

fractions = st.fractions(
    min_value=-9, max_value=9, max_denominator=12
)
scalars = st.builds(gs, fractions, fractions)


def test_basic_arithmetic():
    a = gs("1/2", "1/3")
    b = gs(2, -1)
    assert a + b == gs("5/2", "-2/3")
    assert a * b == gs(Fraction(1, 2) * 2 + Fraction(1, 3), Fraction(2, 3) - Fraction(1, 2))
    assert (a / b) * b == a
    assert -a + a == GS_ZERO


def test_canonical_fractions():
    z = gs("4/6")
    assert z.re.numerator == 2 and z.re.denominator == 3
    assert gs("-2/4").re == Fraction(-1, 2)


def test_conjugate_and_pow():
    z = gs(1, 2)
    assert z.conjugate() == gs(1, -2)
    assert z * z.conjugate() == gs(5)
    assert gs(0, 1) ** 2 == gs(-1)
    assert gs(2) ** -2 == gs("1/4")


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GS_ONE / GS_ZERO


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    if a:
        assert a * (GS_ONE / a) == GS_ONE


@given(fractions, fractions)
def test_equal_values_hash_equally(re, im):
    z = gs(re, im)
    assert {z: 1}[gs(re, im)] == 1
    if im:
        assert z != re and hash(z) == hash((re, im))
        return
    assert z == re and hash(z) == hash(re)
    assert z in {re} and re in {z} and {re: 1}[z] == 1
    if re.denominator == 1:
        k = int(re)
        assert z == k and hash(z) == hash(k) and k in {z} and z in {k}


def test_integers_and_fractions_find_real_scalars():
    assert 1 in {gs(1)} and 0 in {GS_ZERO} and -3 in {gs(-3)}
    assert Fraction(1, 2) in {gs("1/2")} and gs("2/4") in {Fraction(1, 2)}
    assert gs(1, 1) not in {1} and gs(0, 1) not in {0}
    assert len({gs(2), 2, Fraction(2), gs("4/2")}) == 1


@given(scalars)
def test_encode_parse_round_trip(z):
    assert parse_scalar(encode_scalar(z)) == z


def test_parse_forms():
    assert parse_scalar("3/4") == gs("3/4")
    assert parse_scalar(5) == gs(5)
    assert parse_scalar({"re": "1/2", "im": "-1/3"}) == gs("1/2", "-1/3")
    with pytest.raises(ParseError):
        parse_scalar("not-a-number")
    with pytest.raises(ParseError):
        parse_scalar(1.5)
    with pytest.raises(ParseError):
        parse_scalar({"re": "1", "bogus": "2"})
    # JSON booleans and floats are not exact scalars, also inside an object
    for bad in (True, False, {"re": True}, {"re": "1", "im": 0.5},
                {"im": float("inf")}):
        with pytest.raises(ParseError):
            parse_scalar(bad)
    # text is ASCII digits, '+-/.eE' only: Fraction alone would read these
    for bad in ("1_000", " 1 ", "1 ", "\u0661", "\uff11", "1/ 2", "\t3",
                "nan", "inf", {"re": "1", "im": "2_0"}):
        with pytest.raises(ParseError, match="other than ASCII digits"):
            parse_scalar(bad, "b[0]")
    assert parse_scalar("+7/14") == gs("1/2")
    assert parse_scalar("-.5e1") == gs(-5)


def test_parse_bounds_decimal_exponent():
    # Fraction would build 10**10000000 before any check
    start = time.perf_counter()
    for bad in ("1e10000000", "1E-10000000", "-2.5e4301", {"im": "1e9999"}):
        with pytest.raises(ParseError):
            parse_scalar(bad)
    assert time.perf_counter() - start < 0.5
    assert parse_scalar("1e400") == gs(10**400)
    assert parse_scalar("1e-4300") == gs(Fraction(1, 10**4300))
    assert parse_scalar("-2.5E+3") == gs(-2500)
