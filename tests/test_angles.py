import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cccsim.angles import ExactAngle, parse_angle
from cccsim.errors import ParseError


def test_rational_constructor_and_kind():
    a = ExactAngle.rational(1, 3)
    assert a.kind == "RATIONAL_PI"
    assert a.as_pi_fraction() == Fraction(1, 3)
    assert math.isclose(float(a), math.pi / 3)


def test_real_constructor():
    a = ExactAngle.real(0.7)
    assert a.kind == "REAL"
    assert a.as_pi_fraction() is None
    assert float(a) == 0.7


def test_from_radians_recognizes_near_rationals():
    a = ExactAngle.from_radians(math.pi / 2)
    assert a.kind == "RATIONAL_PI" and a.as_pi_fraction() == Fraction(1, 2)
    # a hair outside the reconstruction tolerance stays REAL
    b = ExactAngle.from_radians(math.pi / 2 + 1e-5)
    assert b.kind == "REAL"


def test_from_radians_respects_denominator_cap():
    assert ExactAngle.from_radians(math.pi / 64).kind == "RATIONAL_PI"
    assert ExactAngle.from_radians(math.pi / 65).kind == "REAL"


def test_membership_predicates():
    table = [
        # (p, q, in_pi, in_half, in_half_odd, in_quarter)
        (0, 1, True, True, False, True),
        (1, 1, True, True, False, True),
        (-3, 1, True, True, False, True),
        (1, 2, False, True, True, True),
        (3, 2, False, True, True, True),
        (1, 4, False, False, False, True),
        (3, 4, False, False, False, True),
        (1, 3, False, False, False, False),
        (2, 3, False, False, False, False),
    ]
    for p, q, in_pi, in_half, in_half_odd, in_quarter in table:
        a = ExactAngle.rational(p, q)
        assert a.in_pi_z() == in_pi, (p, q)
        assert a.in_half_pi_z() == in_half, (p, q)
        assert a.in_half_pi_z_odd() == in_half_odd, (p, q)
        assert a.in_quarter_pi_z() == in_quarter, (p, q)


def test_real_angles_fail_all_lattice_predicates():
    a = ExactAngle.real(0.5)
    assert not a.in_pi_z()
    assert not a.in_half_pi_z()
    assert not a.in_half_pi_z_odd()
    assert not a.in_quarter_pi_z()


def test_exact_arithmetic_stays_rational():
    a = ExactAngle.rational(1, 3) + ExactAngle.rational(1, 6)
    assert a.kind == "RATIONAL_PI" and a.as_pi_fraction() == Fraction(1, 2)
    b = ExactAngle.rational(1, 4) - ExactAngle.rational(1, 4)
    assert b.as_pi_fraction() == 0
    c = -ExactAngle.rational(1, 2)
    assert c.as_pi_fraction() == Fraction(-1, 2)


def test_mixed_arithmetic_degrades_to_real():
    a = ExactAngle.rational(1, 2) + ExactAngle.real(0.1)
    assert a.kind == "REAL"
    assert math.isclose(float(a), math.pi / 2 + 0.1)


def test_mod_two_pi():
    a = ExactAngle.rational(9, 2).mod_two_pi()
    assert a.as_pi_fraction() == Fraction(1, 2)
    b = ExactAngle.rational(-1, 2).mod_two_pi()
    assert b.as_pi_fraction() == Fraction(3, 2)
    c = ExactAngle.real(7.0).mod_two_pi()
    assert 0 <= float(c) < 2 * math.pi


@pytest.mark.parametrize(
    "text,expected",
    [
        ("pi", Fraction(1)),
        ("-pi", Fraction(-1)),
        ("pi*3", Fraction(3)),
        ("pi*1/2", Fraction(1, 2)),
        ("-pi*1/2", Fraction(-1, 2)),
        ("pi*5/4", Fraction(5, 4)),
    ],
)
def test_parse_angle_rational_forms(text, expected):
    a = parse_angle(text)
    assert a.kind == "RATIONAL_PI" and a.as_pi_fraction() == expected


def test_parse_angle_decimal():
    a = parse_angle("0.25")
    assert a.kind == "REAL" and float(a) == 0.25
    assert float(parse_angle("-2")) == -2.0


@pytest.mark.parametrize(
    "bad", ["", "pi*", "pi/2", "tau", "pi*1/0", "2pi", "nan", "inf", "-inf", "1e999"]
)
def test_parse_angle_rejects_garbage(bad):
    with pytest.raises(ParseError):
        parse_angle(bad)


def test_str_round_trips_through_parse():
    for a in [ExactAngle.rational(5, 4), ExactAngle.rational(-1, 2), ExactAngle.real(0.7)]:
        b = parse_angle(str(a))
        assert b.kind == a.kind
        assert math.isclose(float(b), float(a))


@given(st.integers(-40, 40), st.integers(1, 64))
def test_rational_float_value_matches_fraction(p, q):
    a = ExactAngle.rational(p, q)
    assert math.isclose(float(a), math.pi * p / q, abs_tol=1e-12)


@given(st.integers(-40, 40), st.integers(1, 64))
def test_from_radians_round_trip(p, q):
    a = ExactAngle.from_radians(math.pi * p / q)
    assert a.kind == "RATIONAL_PI"
    assert a.as_pi_fraction() == Fraction(p, q)
