from fractions import Fraction

import pytest
from helpers import GERM_REFUSALS, evaluate
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nasharc import InternalInvariantError, Poly2, ValidationError, parse_poly
from nasharc.polynomials import MAX_GERM_DEGREE, MAX_GERM_TERMS


def test_parse_simple_terms():
    assert parse_poly("x").terms == {(1, 0): Fraction(1)}
    assert parse_poly("y^3").terms == {(0, 3): Fraction(3) / 3}
    assert parse_poly("2/3*x^2*y").terms == {(2, 1): Fraction(2, 3)}
    assert parse_poly("-x + y").terms == {(1, 0): Fraction(-1), (0, 1): Fraction(1)}
    assert parse_poly("y - x^2") == parse_poly("0 - x^2 + y")
    assert parse_poly("x*x*y").terms == {(2, 1): Fraction(1)}
    assert parse_poly("5").terms == {(0, 0): Fraction(5)}
    # unicode minus is accepted, and so is trailing whitespace
    assert parse_poly("y − x") == parse_poly("y - x")
    assert parse_poly("y - x^2 ") == parse_poly("y - x^2")


def test_a_germ_text_builds_one_polynomial(monkeypatch):
    built = []
    init = Poly2.__init__

    def spy(self, terms=None):
        built.append(terms)
        init(self, terms)

    monkeypatch.setattr(Poly2, "__init__", spy)
    poly = parse_poly("2/3*x^2*y - y^3 + 5")
    assert len(built) == 1
    assert poly.terms == {(2, 1): Fraction(2, 3), (0, 3): -1, (0, 0): 5}


def test_parse_cancellation():
    assert not parse_poly("x - x").terms


def test_parse_errors():
    """Every refusal of the grammar, word for word; a stray character is named at its own index."""
    for text, message in GERM_REFUSALS:
        with pytest.raises(ValidationError) as refused:
            parse_poly(text)
        assert str(refused.value) == message, text[:40]


def test_end_of_input_is_named_as_such():
    for bad in ("y -", "x *", "-"):
        with pytest.raises(ValidationError, match="expected a factor, got the end of the germ text$"):
            parse_poly(bad)
    with pytest.raises(ValidationError, match=r"expected a factor, got '\^'"):
        parse_poly("x * ^")


def test_germ_total_degree_is_capped():
    d = MAX_GERM_DEGREE
    assert parse_poly(f"y^{d} + x^{d // 2}*y^{d - d // 2} + 3*x^{d}").multiplicity() == d
    assert parse_poly(f"x^{d + 8} - x^{d + 8} + y").terms == {(0, 1): 1}  # the germ's degree counts
    for text in (f"y^{d + 1}", f"x^{d}*y", f"y + x^{d // 2 + 1}*y^{d // 2}"):
        with pytest.raises(ValidationError, match=f"limited to total degree {d}, got {d + 1}"):
            parse_poly(text)


def test_germ_term_count_is_capped():
    assert len(parse_poly(" + ".join(["x"] * MAX_GERM_TERMS)).terms) == 1
    with pytest.raises(ValidationError, match=f"limited to {MAX_GERM_TERMS} terms"):
        parse_poly(" - ".join(["x"] * (MAX_GERM_TERMS + 1)))


def test_numbers_past_the_digit_limit_are_refused():
    for text in ("1" * 5000 + "*y", "y^" + "1" * 5000, "1/" + "7" * 5000 + "*y"):
        with pytest.raises(ValidationError, match="integer string conversion"):
            parse_poly(text)


_MONOMIALS = st.tuples(st.integers(0, MAX_GERM_DEGREE), st.integers(0, MAX_GERM_DEGREE)).filter(
    lambda k: sum(k) <= MAX_GERM_DEGREE
)
_COEFFICIENTS = st.fractions(max_denominator=60) | st.integers(-(10**30), 10**30)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.dictionaries(_MONOMIALS, _COEFFICIENTS, max_size=40).map(Poly2))
@example(Poly2())
@example(Poly2({(0, 2): 1, (3, 0): -1}))
@example(Poly2({(1, 1): 2, (0, 1): Fraction(1, 2), (0, 0): -3}))
@example(Poly2({(1, 0): -1, (0, 1): -1}))
def test_str_roundtrip(poly):
    """Every germ within the caps reads back from its text, coefficient types included."""
    back = parse_poly(str(poly))
    assert back == poly
    assert {k: type(v) for k, v in back.terms.items()} == {k: type(v) for k, v in poly.terms.items()}
    assert str(Poly2()) == "0"


def test_arithmetic():
    x, y = Poly2({(1, 0): 1}), Poly2({(0, 1): 1})
    assert (x + y) * (x - y) == x * x - y * y
    assert (x + y) * (x + y) == x * x + x * y + x * y + y * y
    assert not (x - x).terms


def test_degree_and_multiplicity():
    cusp = parse_poly("y^2 - x^3")
    assert cusp.multiplicity() == 2
    assert parse_poly("1 + x").multiplicity() == 0
    with pytest.raises(ValidationError):
        Poly2().multiplicity()


def test_chart_substitutions():
    y = parse_poly("y")
    # y -> x*(y + 0) = x*y
    assert y.subst_free(Fraction(0)) == parse_poly("x*y")
    # y - x^2 -> x*y - x^2 after the same chart
    assert parse_poly("y - x^2").subst_free(Fraction(0)) == parse_poly("x*y - x^2")
    # tangent shifts enter through the binomial expansion
    assert parse_poly("y^2").subst_free(Fraction(1)) == parse_poly("x^2*y^2 + 2*x^2*y + x^2")
    # the infinite chart swaps the exceptional to the y-axis
    assert parse_poly("x^2*y").subst_inf() == parse_poly("x^2*y^3")


def test_divide_power():
    poly = parse_poly("x^2*y - x^3")
    assert poly.divide_power(0, 2) == parse_poly("y - x")
    assert poly.divide_power(0, 0) == poly
    with pytest.raises(InternalInvariantError):
        poly.divide_power(1, 2)


def test_exact_division():
    x, y = Poly2({(1, 0): 1}), Poly2({(0, 1): 1})
    assert (x * x - y * y).exact_div(x - y) == x + y
    product = parse_poly("y^2 - x^3") * parse_poly("2*x + y")
    assert product.exact_div(parse_poly("2*x + y")) == parse_poly("y^2 - x^3")
    with pytest.raises(InternalInvariantError):
        (x * x + y).exact_div(x - y)
    with pytest.raises(ValidationError):
        x.exact_div(Poly2())


def test_evaluate():
    poly = parse_poly("y^2 - x^3")
    assert evaluate(poly, Fraction(1), Fraction(2)) == 3


def _coefficient_types(poly):
    return {type(c) for c in poly.terms.values()}


def test_integral_coefficients_are_ints():
    cusp = parse_poly("y^2 - 3*x^3 + 4/2*x*y")
    assert _coefficient_types(cusp) == {int}
    assert cusp.terms[(1, 1)] == 2
    for chart in (cusp.subst_free(0), cusp.subst_free(-2), cusp.subst_inf()):
        assert _coefficient_types(chart) == {int}
    assert _coefficient_types(cusp.subst_free(0).divide_power(0, 2)) == {int}
    assert _coefficient_types(cusp.subst_inf().divide_power(1, 2)) == {int}
    product = cusp * parse_poly("2*x - y")
    assert _coefficient_types(product) == {int}
    assert _coefficient_types(product.exact_div(parse_poly("2*x - y"))) == {int}
    assert _coefficient_types(product.exact_div(cusp)) == {int}
    # a rational tangent or quotient whose value is integral comes back as an int
    assert _coefficient_types(parse_poly("4") * parse_poly("y^2").subst_free(Fraction(1, 2))) == {int}
    assert _coefficient_types(parse_poly("1/2*x") + parse_poly("1/2*x")) == {int}
    # a true quotient stays a Fraction
    assert parse_poly("2/3*x").terms == {(1, 0): Fraction(2, 3)}
    assert _coefficient_types(parse_poly("2*x + 4*y").exact_div(parse_poly("4*x + 8*y"))) == {Fraction}
    assert _coefficient_types(parse_poly("2/3*x")) == {Fraction}
    assert _coefficient_types(parse_poly("y - 2/3*x^2").subst_free(Fraction(1, 2))) == {int, Fraction}


@pytest.mark.parametrize(
    "terms",
    [{(0, 1): 1.5, (1, 0): 1}, {(0, 1): 1, (1, 0): True}, {(0, 0): 0.0}, {(0, 0): False},
     {(0, 0): "1"}, {(0, 0): None}, {(0, 0): complex(1, 0)}],
)
def test_inexact_coefficients_are_refused(terms):
    with pytest.raises(ValidationError, match="exact rationals"):
        Poly2(terms)


def test_floats_are_refused_by_every_constructor():
    with pytest.raises(ValidationError):
        Poly2({(0, 0): 0.5})
    with pytest.raises(ValidationError):
        Poly2({(1, 0): 2.0})
    with pytest.raises(ValidationError):
        parse_poly("x").subst_free(0.5)


@pytest.mark.parametrize("scalar", [True, False, 0.0, 1.0])
def test_scalars_and_tangents_follow_the_exact_value_rule(scalar):
    g = parse_poly("x + y")
    with pytest.raises(ValidationError, match="^polynomial coefficients must be exact rationals"):
        Poly2({(1, 0): scalar})
    with pytest.raises(ValidationError, match="^chart tangents must be exact rationals"):
        g.subst_free(scalar)


def test_exact_scalars_and_tangents_are_taken_in_canonical_form():
    g = parse_poly("x + y")
    assert _coefficient_types(Poly2({(1, 0): Fraction(4, 2)})) == {int}
    assert not Poly2({(1, 0): 0}).terms
    assert g.subst_free(Fraction(2, 2)) == g.subst_free(1)


def test_int_subclass_coefficients_become_plain_ints():
    class Tally(int):
        pass

    poly = Poly2({(1, 0): Tally(3), (0, 1): Fraction(4, 2)})
    assert poly.terms == {(1, 0): 3, (0, 1): 2}
    assert _coefficient_types(poly) == {int}


def test_equal_polynomials_hash_equal():
    as_int = Poly2({(1, 0): 2, (0, 2): -1})
    as_fraction = Poly2({(1, 0): Fraction(2), (0, 2): Fraction(-1)})
    assert as_int == as_fraction
    assert hash(as_int) == hash(as_fraction)
    assert hash(parse_poly("1/2*x - y")) == hash(Poly2({(1, 0): Fraction(1, 2), (0, 1): -1}))
    assert len({as_int, as_fraction, parse_poly("2*x - y^2")}) == 1
