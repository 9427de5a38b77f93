import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cccsim.angles import ExactAngle, parse_angle
from cccsim.errors import ParseError


def test_rational_constructor_and_kind():
    a = ExactAngle.rational(1, 3)
    assert a.pi_multiple == Fraction(1, 3)
    assert math.isclose(float(a), math.pi / 3)


def test_real_constructor():
    a = ExactAngle.real(0.7)
    assert a.pi_multiple is None
    assert float(a) == 0.7


def test_from_radians_recognizes_near_rationals():
    a = ExactAngle.from_radians(math.pi / 2)
    assert a.pi_multiple == Fraction(1, 2)
    # a hair outside the reconstruction tolerance stays REAL
    b = ExactAngle.from_radians(math.pi / 2 + 1e-5)
    assert b.pi_multiple is None


def test_from_radians_respects_denominator_cap():
    assert ExactAngle.from_radians(math.pi / 64).pi_multiple is not None
    assert ExactAngle.from_radians(math.pi / 65).pi_multiple is None


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
    # pi/2 would reconstruct, but an untagged angle is never reconstructed
    for a in (ExactAngle.real(0.5), ExactAngle.real(math.pi / 2)):
        assert not a.in_pi_z(), a
        assert not a.in_half_pi_z(), a
        assert not a.in_half_pi_z_odd(), a
        assert not a.in_quarter_pi_z(), a


def test_exact_arithmetic_stays_rational():
    a = ExactAngle.rational(1, 3) + ExactAngle.rational(1, 6)
    assert a.pi_multiple == Fraction(1, 2)
    b = ExactAngle.rational(1, 4) - ExactAngle.rational(1, 4)
    assert b.pi_multiple == 0
    c = -ExactAngle.rational(1, 2)
    assert c.pi_multiple == Fraction(-1, 2)


def test_mixed_arithmetic_degrades_to_real():
    a = ExactAngle.rational(1, 2) + ExactAngle.real(0.1)
    assert a.pi_multiple is None
    assert math.isclose(float(a), math.pi / 2 + 0.1)


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
    assert a.pi_multiple == expected


def test_parse_angle_decimal():
    a = parse_angle("0.25")
    assert a.pi_multiple is None and float(a) == 0.25
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
        assert (b.pi_multiple is None) == (a.pi_multiple is None)
        assert math.isclose(float(b), float(a))


@given(st.integers(-40, 40), st.integers(1, 64))
def test_rational_float_value_matches_fraction(p, q):
    a = ExactAngle.rational(p, q)
    assert math.isclose(float(a), math.pi * p / q, abs_tol=1e-12)


@given(st.integers(-40, 40), st.integers(1, 64))
def test_from_radians_round_trip(p, q):
    a = ExactAngle.from_radians(math.pi * p / q)
    assert a.pi_multiple == Fraction(p, q)
