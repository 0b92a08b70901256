"""Exact rational scalars and the point-at-infinity tangent marker.

Every numeric quantity in this package is an ``int`` or a ``Fraction``, never
a float: all criteria here hinge on exact signs and integrality.  This module
alone says what is exact: ``is_exact_int`` (an ``int``, never a ``bool``) for
indices and counts, ``exact_rational`` (such an ``int`` or a ``Fraction``) for
matrix entries, coefficients and tangents.
"""

from __future__ import annotations

import re
import sys
from enum import Enum
from fractions import Fraction

from .errors import ValidationError


class _Infinity(Enum):
    """Direction marker for the vertical tangent; compares equal only to itself."""

    INF = "inf"

    __hash__ = object.__hash__  # by identity: tangents are hashed on every replay

    def __repr__(self):
        return "inf"

    __str__ = __repr__


#: The tangent direction "x = 0" on an exceptional component.
INF = _Infinity.INF

Rational = Fraction | int
Tangent = Fraction | int | _Infinity


def is_exact_int(value) -> bool:
    """An ``int`` other than a ``bool``: the one test for an exact integer."""
    return type(value) is int or isinstance(value, int) and not isinstance(value, bool)


def parse_rational(text: str | Rational) -> Fraction:
    """Parse ``"p/q"`` or a decimal literal, in ASCII digits 0-9 without ``_``, or take an
    exact scalar, into a Fraction."""
    if is_exact_int(text) or isinstance(text, Fraction):
        return _within_digit_limit(Fraction(text), "rational number")
    if isinstance(text, str):
        source = text.strip().replace("−", "-")
        exponent = re.search(r"e([-+]?[0-9]+)$", source, re.IGNORECASE)
        limit = sys.get_int_max_str_digits()
        try:
            if not source.isascii() or "_" in source:  # Fraction alone reads any decimal digit and 1_0
                raise ValueError(f"Invalid literal for Fraction: {source!r}")
            if limit and exponent and abs(int(exponent[1])) > limit + len(source):  # not building 10**exponent
                raise ValidationError(f"rational number past the {limit}-digit limit of integer conversion")
            return _within_digit_limit(Fraction(source), "rational number")
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"malformed rational {text!r}: {exc}") from exc
    raise ValidationError(f"expected a rational number, got {text!r}")


def _within_digit_limit(value: Fraction, what: str) -> Fraction:
    """The value, unless its numerator or denominator has more digits than ints convert to text."""
    limit = sys.get_int_max_str_digits()
    big = max(abs(value.numerator), value.denominator)
    if limit and big.bit_length() > 3 * limit and big >= 10**limit:
        raise ValidationError(f"{what} past the {limit}-digit limit of integer conversion")
    return value


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
    try:
        return str(Fraction(value))
    except ValueError:  # past the digit limit: refused as parse_rational refuses it
        _within_digit_limit(Fraction(value), "result")
        raise


def parse_tangent(value) -> Tangent | None:
    """Parse a tangent field: a rational, the string ``"inf"``, or ``None``."""
    if value is None:
        return None
    if value is INF or isinstance(value, str) and value.strip().lower() in ("inf", "infinity", "oo"):
        return INF
    return parse_rational(value)


def format_tangent(value: Tangent | None):
    if value is None:
        return None
    if value is INF:
        return "inf"
    return format_rational(value)
