"""Exact rational scalars and the point-at-infinity tangent marker.

Every numeric quantity in this package is an ``int`` or a ``Fraction``, never
a float: all criteria here hinge on exact signs and integrality.  This module
alone says what is exact: ``is_exact_int`` (an ``int``, never a ``bool``) for
indices and counts, ``exact_rational`` (such an ``int`` or a ``Fraction``) for
matrix entries, coefficients and tangents.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ValidationError


class _Infinity:
    """Direction marker for the vertical tangent; compares equal only to itself."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __reduce__(self):
        return (_Infinity, ())


#: The tangent direction "x = 0" on an exceptional component.
INF = _Infinity()

Rational = Fraction | int
Tangent = Fraction | int | _Infinity


def is_exact_int(value) -> bool:
    """An ``int`` other than a ``bool``: the one test for an exact integer."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_rational(text: str | Rational) -> Fraction:
    """Parse ``"p/q"`` or an integer literal, or take an exact scalar, into a Fraction."""
    if is_exact_int(text) or isinstance(text, Fraction):
        return Fraction(text)
    if isinstance(text, str):
        try:
            return Fraction(text.strip().replace("−", "-"))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"malformed rational {text!r}: {exc}") from exc
    raise ValidationError(f"expected a rational number, got {text!r}")


def canonical_rational(value: Rational) -> Rational:
    """The ``int`` for an integral value, the ``Fraction`` itself for a true quotient."""
    return value.numerator if type(value) is Fraction and value.denominator == 1 else value


def exact_rational(value, what: str) -> Rational:
    """An exact scalar as a plain ``int`` or a canonical ``Fraction``, else ValidationError."""
    if is_exact_int(value):
        return int(value)
    if isinstance(value, Fraction):
        return canonical_rational(value)
    raise ValidationError(f"{what} must be exact rationals, got {value!r}")


def format_rational(value: Rational) -> str:
    """Render exactly, as ``"p/q"`` or a plain integer string."""
    frac = Fraction(value)
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"


def parse_tangent(value) -> Tangent | None:
    """Parse a tangent field: a rational, the string ``"inf"``, or ``None``."""
    if value is None:
        return None
    if isinstance(value, _Infinity):
        return INF
    if isinstance(value, str) and value.strip().lower() in ("inf", "infinity", "oo"):
        return INF
    return parse_rational(value)


def format_tangent(value: Tangent | None):
    if value is None:
        return None
    if isinstance(value, _Infinity):
        return "inf"
    return format_rational(value)
