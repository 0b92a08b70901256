"""Sparse bivariate polynomials with exact rational coefficients.

These are the local equations fed to the order-of-vanishing computations.  A
germ from outside the program enters as text through ``parse_poly``, one
left-to-right pass that refuses the first character outside the grammar at its
index; the chart walk's results (``subst_free``), exact by construction, skip
the constructor's checks.  No factorization is ever performed; multiplicities are
minimal total degrees.  Coefficients are ``int`` where integral, ``Fraction``
only for a true quotient, so integer germs stay in integer arithmetic.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb

from .errors import InternalInvariantError, ValidationError
from .rationals import Rational, canonical_rational, exact_rational, format_rational

Monomial = tuple[int, int]


class Poly2:
    """Immutable-by-convention sparse polynomial in x and y."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, Rational] | None = None):
        items = (terms or {}).items()
        what = "polynomial coefficients"
        self.terms = {k: c for k, v in items if (c := v if type(v) is int else exact_rational(v, what))}

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "Poly2") -> "Poly2":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return Poly2(out)

    def __neg__(self) -> "Poly2":
        return Poly2({k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "Poly2") -> "Poly2":
        return self + (-other)

    def __mul__(self, other: "Poly2") -> "Poly2":
        out: dict[Monomial, Rational] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                k = (a1 + a2, b1 + b2)
                out[k] = out.get(k, 0) + c1 * c2
        return Poly2(out)

    def __eq__(self, other):
        return isinstance(other, Poly2) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- queries ---------------------------------------------------------------

    def multiplicity(self) -> int:
        """Order of vanishing at the origin: the minimal total degree."""
        if not self.terms:
            raise ValidationError("the zero polynomial has no multiplicity")
        return min(a + b for a, b in self.terms)

    # -- blow-up charts ---------------------------------------------------------

    def subst_free(self, c: Rational) -> "Poly2":
        """Total transform in the chart (x, y) -> (x, x*(y + c))."""
        c = c if type(c) is int else exact_rational(c, "chart tangents")
        out: dict[Monomial, Rational] = {}
        for (a, b), coef in self.terms.items():
            for k in range(b, -1, -1):
                key = (a + b, k)
                out[key] = out.get(key, 0) + comb(b, k) * coef
                coef *= c
        return _exact_poly({k: v if type(v) is int else canonical_rational(v) for k, v in out.items() if v})

    # -- no caller in the library; perfbench trace targets ---------------------------

    def subst_inf(self) -> "Poly2":
        """Total transform in the chart (x, y) -> (x*y, y)."""
        return Poly2({(a, a + b): coef for (a, b), coef in self.terms.items()})

    def divide_power(self, var: int, m: int) -> "Poly2":
        """Exact division by x^m or y^m (var 0 or 1); exactness is a theorem."""
        if m == 0:
            return self
        if any(key[var] < m for key in self.terms):
            raise InternalInvariantError(
                "total transform is not divisible by the expected exceptional power"
            )
        da, db = (m, 0) if var == 0 else (0, m)
        return Poly2({(a - da, b - db): c for (a, b), c in self.terms.items()})

    def exact_div(self, other: "Poly2") -> "Poly2":
        """Quotient when ``other`` divides exactly; raises otherwise."""
        if not other.terms:
            raise ValidationError("division by the zero polynomial")
        rem = dict(self.terms)
        quot: dict[Monomial, Rational] = {}
        (lo_a, lo_b), lead = max(other.terms.items())  # keys are distinct, so only they compare
        while rem:
            (a, b) = max(rem)
            if a < lo_a or b < lo_b:
                raise InternalInvariantError("exact polynomial division left a remainder")
            qk = (a - lo_a, b - lo_b)
            qc = canonical_rational(Fraction(rem[(a, b)], lead))
            quot[qk] = quot.get(qk, 0) + qc
            for (oa, ob), oc in other.terms.items():
                key = (oa + qk[0], ob + qk[1])
                val = rem.get(key, 0) - qc * oc
                if val == 0:
                    rem.pop(key, None)
                else:
                    rem[key] = val
        return Poly2(quot)

    # -- formatting ---------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (a, b), coef in sorted(self.terms.items(), key=lambda kv: (-(kv[0][0] + kv[0][1]), -kv[0][0])):
            factors = []
            frac = Fraction(coef)
            if abs(frac) != 1 or (a, b) == (0, 0):
                factors.append(format_rational(abs(frac)))
            if a:
                factors.append("x" if a == 1 else f"x^{a}")
            if b:
                factors.append("y" if b == 1 else f"y^{b}")
            text = "*".join(factors)
            parts.append(("- " if frac < 0 else "+ ") + text)
        out = " ".join(parts)
        return out[2:] if out.startswith("+ ") else "-" + out[2:]

    def __repr__(self):
        return f"Poly2({self})"


def _exact_poly(terms: dict[Monomial, Rational]) -> Poly2:
    """A Poly2 on ``terms`` as given: chart results, nonzero and canonical by construction."""
    poly = Poly2.__new__(Poly2)
    poly.terms = terms
    return poly


# An ASCII digit run, a variable, an operator, or any other non-blank character (refused);
# blanks between tokens match nothing and are skipped.
_TOKEN = re.compile(r"(?P<num>[0-9]+)|(?P<var>[xy])|(?P<op>[*/^+-])|(?P<bad>\S)")

# Germ size limits of the text grammar.  The chart walk of an order or
# strict-transform computation grows with the germ's total degree and
# term count; at these caps, on a 24-point chain of tangent-1 free points,
# the worst shapes measured (a degree-32 germ of high y-degree, a dense
# degree-32 germ) take 0.9-1.3 s on 2 cores, mostly big-integer arithmetic.
MAX_GERM_DEGREE = 32
MAX_GERM_TERMS = 256


def parse_poly(text: str) -> Poly2:
    """Parse a germ text: an optional sign, then terms joined by + or -, each
    term factors ``p``, ``p/q``, ``x``, ``x^n``, ``y`` or ``y^n`` joined by *.

    One left-to-right pass over the tokens adds each term into one term dict;
    the one ``Poly2`` is built at the end, and its total degree checked."""
    tokens: list[tuple[str | None, str | None]] = []
    for m in _TOKEN.finditer(text.replace("−", "-")):
        if m.lastgroup == "bad":
            raise ValidationError(f"polynomial parse error at position {m.start()}: unexpected {m[0]!r}")
        tokens.append((m.lastgroup, m[0]))
    if not tokens:
        raise ValidationError("empty polynomial text")
    tokens.append((None, None))  # the end of the germ text

    def number(i: int, what: str) -> int:
        """The digit run at token ``i``; without one, the refusal ``expected <what>``."""
        kind, value = tokens[i]
        if kind != "num":
            raise ValidationError(f"polynomial parse error: expected {what}")
        try:
            return int(value)
        except ValueError as exc:  # past the interpreter's digit limit
            raise ValidationError(f"polynomial parse error: {exc}") from exc

    terms: dict[Monomial, Rational] = {}
    i = count = 0
    while tokens[i][0] is not None:
        sign = tokens[i][1]
        if sign in ("+", "-"):
            i += 1
        elif count:  # only the first term may go unsigned
            raise ValidationError(f"polynomial parse error: expected + or -, got {sign!r}")
        count += 1
        if count > MAX_GERM_TERMS:
            raise ValidationError(f"germs are limited to {MAX_GERM_TERMS} terms")
        coef, power = -1 if sign == "-" else 1, {"x": 0, "y": 0}
        while True:  # one factor, with its suffix ^n or /q
            kind, value = tokens[i]
            if kind != "var":
                got = "the end of the germ text" if kind is None else repr(value)
                coef *= number(i, f"a factor, got {got}")
            mark, what = ("^", "an exponent") if kind == "var" else ("/", "a denominator")
            suffix = tokens[i + 1] == ("op", mark)
            n = number(i + 2, what) if suffix else 1
            i += 3 if suffix else 1
            if kind == "var":
                power[value] += n
            elif n == 0:
                raise ValidationError("polynomial parse error: zero denominator")
            elif n != 1:
                coef = Fraction(coef, n)
            if tokens[i] != ("op", "*"):
                break
            i += 1
        key = (power["x"], power["y"])
        terms[key] = terms.get(key, 0) + coef
    result = Poly2(terms)  # drops the zero coefficients and canonicalizes the rest
    degree = max((a + b for a, b in result.terms), default=0)
    if degree > MAX_GERM_DEGREE:
        raise ValidationError(f"germs are limited to total degree {MAX_GERM_DEGREE}, got {degree}")
    return result
