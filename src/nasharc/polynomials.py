"""Sparse bivariate polynomials with exact rational coefficients.

These are the local equations fed to the order-of-vanishing computations; the
chart walk's results (``subst_free``), exact by construction, skip the
constructor's checks.  No factorization is ever performed; multiplicities are
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

    def scale(self, c: Rational) -> "Poly2":
        c = c if type(c) is int else exact_rational(c, "polynomial scalars")
        return Poly2({k: v * c for k, v in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, Poly2) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- queries ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def multiplicity(self) -> int:
        """Order of vanishing at the origin: the minimal total degree."""
        if not self.terms:
            raise ValidationError("the zero polynomial has no multiplicity")
        return min(a + b for a, b in self.terms)

    def evaluate(self, x, y):
        return sum(c * x**a * y**b for (a, b), c in self.terms.items())

    # -- blow-up charts ---------------------------------------------------------

    def subst_free(self, c: Rational) -> "Poly2":
        """Total transform in the chart (x, y) -> (x, x*(y + c)), also of the walk's x^-m-shifted germs."""
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
        if other.is_zero():
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


_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<var>[xy])|(?P<op>[*/^+-]))")

# Germ size limits of the text grammar.  The chart walk of an order or
# strict-transform computation grows with the germ's total degree and
# term count; at these caps, on a 24-point chain of tangent-1 free points,
# the worst shapes measured (a degree-32 germ of high y-degree, a dense
# degree-32 germ) take 0.9-1.3 s on 2 cores, mostly big-integer arithmetic.
MAX_GERM_DEGREE = 32
MAX_GERM_TERMS = 256


def parse_poly(text: str) -> Poly2:
    """Parse the plain-text grammar: terms like ``2/3*x^2*y`` joined by + or -.

    Each term is read into one coefficient and one exponent pair, added into
    a single term dict; the one ``Poly2`` is built at the end."""
    source = text.replace("−", "-")
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(source):
        m = _TOKEN.match(source, pos)
        if m is None:
            if source[pos:].strip():
                raise ValidationError(
                    f"polynomial parse error at position {pos}: unexpected {source[pos]!r}"
                )
            break
        tokens.append((m.lastgroup, m.group(m.lastgroup)))
        pos = m.end()

    idx = 0

    def peek():
        return tokens[idx] if idx < len(tokens) else (None, None)

    def take():
        nonlocal idx
        tok = peek()
        idx += 1
        return tok

    def number(value: str) -> int:
        try:
            return int(value)
        except ValueError as exc:  # past the interpreter's digit limit
            raise ValidationError(f"polynomial parse error: {exc}") from exc

    def parse_rational_token() -> Rational:
        num = number(take()[1])  # the caller has peeked a number
        if peek() == ("op", "/"):
            take()
            kind, value = take()
            if kind != "num":
                raise ValidationError("polynomial parse error: expected a denominator")
            den = number(value)
            if den == 0:
                raise ValidationError("polynomial parse error: zero denominator")
            return canonical_rational(Fraction(num, den))
        return num

    def parse_factor() -> tuple[Rational, int, int]:  # a coefficient, the exponents of x and y
        kind, value = peek()
        if kind == "num":
            return parse_rational_token(), 0, 0
        if kind == "var":
            take()
            exp = 1
            if peek() == ("op", "^"):
                take()
                kind2, value2 = take()
                if kind2 != "num":
                    raise ValidationError("polynomial parse error: expected an exponent")
                exp = number(value2)
            return (1, exp, 0) if value == "x" else (1, 0, exp)
        got = "the end of the germ text" if kind is None else repr(value)
        raise ValidationError(f"polynomial parse error: expected a factor, got {got}")

    def add_term(sign: int):
        """Read one term and add ``sign`` times it into ``terms``."""
        coef, a, b = parse_factor()
        while peek() == ("op", "*"):
            take()
            c, da, db = parse_factor()
            coef, a, b = coef * c, a + da, b + db
        terms[a, b] = terms.get((a, b), 0) + sign * coef

    if not tokens:
        raise ValidationError("empty polynomial text")
    terms: dict[Monomial, Rational] = {}
    sign = 1
    kind, value = peek()
    if kind == "op" and value in "+-":
        take()
        sign = -1 if value == "-" else 1
    add_term(sign)
    count = 1
    while idx < len(tokens):
        kind, value = take()
        if kind != "op" or value not in "+-":
            raise ValidationError(f"polynomial parse error: expected + or -, got {value!r}")
        count += 1
        if count > MAX_GERM_TERMS:
            raise ValidationError(f"germs are limited to {MAX_GERM_TERMS} terms")
        add_term(-1 if value == "-" else 1)
    result = Poly2(terms)  # drops the zero coefficients and canonicalizes the rest
    degree = max((a + b for a, b in result.terms), default=0)
    if degree > MAX_GERM_DEGREE:
        raise ValidationError(f"germs are limited to total degree {MAX_GERM_DEGREE}, got {degree}")
    return result
