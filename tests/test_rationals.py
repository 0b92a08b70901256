from fractions import Fraction

import pytest

from nasharc import ValidationError, parse_rational, parse_tangent
from nasharc.rationals import exact_rational, is_exact_int


class Count(int):
    pass


def test_an_exact_integer_is_an_int_but_not_a_bool():
    assert [is_exact_int(v) for v in (0, -7, 10**40, Count(3))] == [True] * 4
    assert [is_exact_int(v) for v in (True, False, 1.0, Fraction(1), "1", None)] == [False] * 6


def test_exact_rational_makes_plain_ints_and_canonical_fractions():
    assert type(exact_rational(Count(3), "counts")) is int
    assert type(exact_rational(Fraction(4, 2), "counts")) is int
    assert exact_rational(Fraction(-3, 6), "counts") == Fraction(-1, 2)
    for bad in (True, 0.5, "1", None, complex(1, 0)):
        with pytest.raises(ValidationError, match=r"^counts must be exact rationals, got "):
            exact_rational(bad, "counts")


def test_parse_rational_refuses_bools_and_floats():
    assert parse_rational(Count(2)) == 2 and parse_rational(" 3/6 ") == Fraction(1, 2)
    for bad in (True, 1.0):
        with pytest.raises(ValidationError, match=r"^expected a rational number, got "):
            parse_rational(bad)


def test_parse_rational_takes_what_exact_rational_takes():
    for value in (Fraction(1, 2), Fraction(4, 2), Count(3), -7):
        assert parse_rational(value) == exact_rational(value, "rationals")
        assert parse_tangent(value) == value
    assert type(parse_rational(Fraction(4, 2))) is Fraction
