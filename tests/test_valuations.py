import re
from fractions import Fraction
from itertools import combinations_with_replacement, count, product
from operator import mul

import pytest
from helpers import (
    arc_orders,
    eliminate_parameter,
    evaluate,
    every_point_walk,
    inverse_adjugate,
    pushed_parametrization,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from nasharc import (
    INF,
    BlowupCluster,
    ClusterPoint,
    Comparison,
    InternalInvariantError,
    Poly2,
    ValidationError,
    cluster_fixture,
    cluster_from_doc,
    cluster_matrix,
    compare,
    curvette_order_rows,
    curvette_polynomial,
    enumerate_proximity_structures,
    enumerate_tangent_assignments,
    multiplicities,
    ord_poly,
    parse_poly,
    strict_transform_profile,
)
from nasharc import valuations
from nasharc.valuations import ord_vector

CHAIN2 = cluster_fixture("chain2")
SATELLITE = cluster_fixture("satellite3")
TWO_DIRECTIONS = cluster_fixture("twodir")

TANGENT_POOL = (Fraction(0), Fraction(1), Fraction(-1), INF)
RATIONAL_POOL = (Fraction(1, 2), Fraction(-2, 3), Fraction(0), INF)
RATIONAL_GERMS = (
    "y^2 - 2/3*x^3",
    "y - 1/2*x",
    "3*y + 2*x",
    "3/2*y^2 - x^5 + 1/3*x*y",
    "y^3 - 2/3*x^2*y + 5/7*x^4",
    "x^2 - 4*y^3",
)


def sample_family():
    """Monomials of total degree <= 6 and binomials y^q - c*x^p, p,q <= 4."""
    polys = []
    for a, b in combinations_with_replacement(range(7), 2):
        for ea, eb in {(a, b), (b, a)}:
            if ea + eb == 0 or ea + eb > 6:
                continue
            polys.append(parse_poly(f"x^{ea}*y^{eb}"))
    for p in range(1, 5):
        for q in range(1, 5):
            for lam in (1, 2):
                polys.append(parse_poly(f"y^{q} - {lam}*x^{p}"))
    return polys


def test_curvette_orders_single_point():
    assert curvette_order_rows(cluster_fixture("chain1"))[0] == (1,)


def test_curvette_orders_chain():
    assert curvette_order_rows(CHAIN2)[0] == (1, 1)
    assert curvette_order_rows(CHAIN2)[1] == (1, 2)


def test_curvette_orders_satellite():
    rows = curvette_order_rows(SATELLITE)
    assert rows == ((1, 1, 2), (1, 2, 3), (2, 3, 6))


def test_curvette_rows_match_adjugate_oracle():
    for cluster in (CHAIN2, SATELLITE, TWO_DIRECTIONS, cluster_fixture("chain4")):
        matrix = cluster_matrix(cluster)
        oracle = inverse_adjugate(matrix)
        rows = curvette_order_rows(cluster)
        assert [[-v for v in row] for row in oracle] == [list(map(Fraction, r)) for r in rows]
    # the elimination route, kept only as this oracle for the rows built from the proximities
    for cluster in (*enumerate_proximity_structures(6), cluster_fixture("chain24")):
        assert curvette_order_rows(cluster) == cluster_matrix(cluster).inverse().neg().rows


def test_plans_and_curvette_rows_are_built_on_first_use():
    # lattice_sweep keeps every enumerated cluster: an eager memo would grow its peak RSS
    swept = list(enumerate_proximity_structures(5))
    assert not any({"plan", "curvette_rows"} & vars(c).keys() for c in swept)
    cluster = cluster_fixture("satellite3")
    assert ord_vector(cluster, parse_poly("y^2 - x^3")) == (2, 3, 6)
    plan = cluster.plan
    assert plan == ((0, None), (0, 0), (1, INF))
    assert vars(cluster)["plan"] is plan
    curvette_polynomial(cluster, 2)
    assert cluster.plan is plan and "curvette_rows" in vars(cluster)


def test_ord_poly_examples():
    assert ord_poly(cluster_fixture("chain1"), parse_poly("x"), 0) == 1
    assert ord_poly(CHAIN2, parse_poly("y"), 1) == 2
    assert ord_poly(CHAIN2, parse_poly("x"), 1) == 1
    assert ord_poly(CHAIN2, parse_poly("y - x^2"), 1) == 2


def test_ord_poly_cusp():
    assert ord_poly(CHAIN2, parse_poly("y^2 - x^3"), 0) == 2
    assert ord_poly(CHAIN2, parse_poly("y^2 - x^3"), 1) == 3
    assert ord_poly(SATELLITE, parse_poly("y^2 - x^3"), 2) == 6


def test_ord_poly_errors():
    with pytest.raises(ValidationError):
        ord_poly(CHAIN2, parse_poly("x - x"), 0)
    bare = BlowupCluster.from_specs([(None,), (0,)])
    with pytest.raises(ValidationError):
        ord_poly(bare, parse_poly("y"), 1)
    with pytest.raises(ValidationError):
        ord_poly(CHAIN2, parse_poly("x"), 7)


def test_multiplicities_and_profile():
    assert multiplicities(CHAIN2, parse_poly("y")) == (1, 1)
    assert strict_transform_profile(CHAIN2, parse_poly("y")) == (0, 1)
    assert strict_transform_profile(CHAIN2, parse_poly("x")) == (1, 0)
    assert multiplicities(CHAIN2, parse_poly("y^2 - x^3")) == (2, 1)
    assert strict_transform_profile(CHAIN2, parse_poly("y^2 - x^3")) == (1, 1)
    assert multiplicities(SATELLITE, parse_poly("y^2 - x^3")) == (2, 1, 1)
    assert strict_transform_profile(SATELLITE, parse_poly("y^2 - x^3")) == (0, 0, 1)


def test_ord_equals_lattice_route_small():
    # a compact version of the acceptance oracle: clusters of <= 3 points
    polys = sample_family()
    structures = [c for c in enumerate_proximity_structures(3)]
    count = 0
    for structure in structures:
        for cluster in enumerate_tangent_assignments(structure, TANGENT_POOL):
            rows = curvette_order_rows(cluster)
            for g in polys:
                t = strict_transform_profile(cluster, g)
                for e in range(cluster.n):
                    lattice = sum(rows[e][i] * t[i] for i in range(cluster.n))
                    assert ord_poly(cluster, g, e) == lattice
                    count += 1
    assert count > 1000


def test_compare_examples():
    assert compare(CHAIN2, 0, 1) is Comparison.LESS_EQ
    assert compare(CHAIN2, 1, 0) is Comparison.GREATER_EQ
    assert compare(CHAIN2, 1, 1) is Comparison.EQUAL
    assert compare(SATELLITE, 0, 1) is Comparison.LESS_EQ
    assert compare(SATELLITE, 1, 2) is Comparison.LESS_EQ
    assert compare(SATELLITE, 0, 2) is Comparison.LESS_EQ
    assert compare(TWO_DIRECTIONS, 1, 2) is Comparison.INCOMPARABLE


def test_compare_monotone_along_ancestry():
    for cluster in enumerate_proximity_structures(5):
        for f in range(1, cluster.n):
            for e in (0,) + cluster.proximities(f):
                assert compare(cluster, e, f) is Comparison.LESS_EQ


def test_compare_uses_minimal_joint_model():
    # an unrelated extra point must not change the comparison
    cluster = BlowupCluster.from_specs(
        [(None,), (0, None, Fraction(0)), (0, None, Fraction(1)), (1,)]
    )
    assert compare(cluster, 1, 2) is Comparison.INCOMPARABLE
    assert compare(cluster, 0, 3) is Comparison.LESS_EQ


def test_curvette_polynomial_free_point():
    g = curvette_polynomial(TWO_DIRECTIONS, 2)
    assert [ord_poly(TWO_DIRECTIONS, g, k) for k in range(3)] == [1, 1, 2]


def test_curvette_polynomial_satellite_is_a_cusp():
    g = curvette_polynomial(SATELLITE, 2)
    assert [ord_poly(SATELLITE, g, k) for k in range(3)] == [2, 3, 6]
    assert g.multiplicity() == 2


def test_curvette_polynomial_origin():
    g = curvette_polynomial(cluster_fixture("chain1"), 0)
    assert g.multiplicity() == 1


def test_curvette_polynomial_deep_chain():
    chain4 = cluster_fixture("chain4")
    g = curvette_polynomial(chain4, 3)
    assert [ord_poly(chain4, g, k) for k in range(4)] == [1, 2, 3, 4]


def test_curvette_polynomial_needs_tangents():
    bare = BlowupCluster.from_specs([(None,), (0,)])
    with pytest.raises(ValidationError):
        curvette_polynomial(bare, 1)


def test_curvette_polynomial_refuses_a_free_point_without_a_tangent():
    bare = cluster_from_doc({"schema": "cluster/1", "points": [{}, {"parent": 0}]})
    message = "point 1 is free without a tangent parameter; an explicit curvette equation needs coordinates"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        curvette_polynomial(bare, 1)


def test_curvette_polynomial_eliminates_once(monkeypatch):
    """One candidate per call: a supported point costs one self-check, a refused one none."""
    calls = []
    orders = valuations._orders

    def spy(cluster, g, points):
        calls.append(g)
        return orders(cluster, g, points)

    monkeypatch.setattr(valuations, "_orders", spy)
    curvette_polynomial(cluster_fixture("chain4"), 3)
    assert len(calls) == 1
    # a free point beyond a tangent-inf chart: x(t) = t^2 (t + 1) has a second root
    two_branches = BlowupCluster.from_specs([(None,), (0, None, INF), (0, None, 0), (1, None, 1)])
    with pytest.raises(InternalInvariantError):
        curvette_polynomial(two_branches, 3)
    assert len(calls) == 1
    assert pushed_parametrization(two_branches, 3)[0] == parse_poly("x^3 + x^2")


def test_parameter_elimination_meets_no_zero_pivot():
    """Res_t(X(t) - x, Y(t) - y) vanishes along (X(t), Y(t)) for every nonconstant
    X of degree <= 3 and Y of degree <= 2 with coefficients in {-1, 0, 1}.
    The elimination never swaps rows, so a zero pivot would break this."""

    def univariates(degree):
        for coeffs in product((-1, 0, 1), repeat=degree + 1):
            if any(coeffs[1:]):
                yield Poly2({(d, 0): c for d, c in enumerate(coeffs) if c})

    for X, Y in product(univariates(3), list(univariates(2))):
        g = eliminate_parameter(X, Y)
        assert max(b for _, b in g.terms) == max(a for a, _ in X.terms)
        for t in range(-2, 3):
            assert evaluate(g, evaluate(X, t, 0), evaluate(Y, t, 0)) == 0, (X, Y, g)


def test_curvette_polynomial_equals_the_resultant_oracle():
    """At every supported point the equation is the Sylvester resultant of the pushed-down
    parametrization, scale included; every other point is refused, naming its x(t)."""
    checked = 0
    for pool in (TANGENT_POOL, (Fraction(1, 2), Fraction(-2, 3), Fraction(3), INF)):
        for structure in enumerate_proximity_structures(4):
            for cluster in enumerate_tangent_assignments(structure, pool):
                for i in range(cluster.n):
                    if _curvette_supported(cluster, i):
                        assert curvette_polynomial(cluster, i) == eliminate_parameter(
                            *pushed_parametrization(cluster, i)
                        ), (cluster, i)
                        checked += 1
                    else:
                        x_t = str(pushed_parametrization(cluster, i)[0]).replace("x", "t")
                        refusal = rf"^curvette candidate with slope \d+ produced x\(t\) = {re.escape(x_t)}, "
                        with pytest.raises(InternalInvariantError, match=refusal):
                            curvette_polynomial(cluster, i)
    assert checked == 1155 + 1227
    chain24 = cluster_fixture("chain24")
    for i in range(23):
        assert curvette_polynomial(chain24, i) == eliminate_parameter(*pushed_parametrization(chain24, i))
    with pytest.raises(ValidationError, match="total degree 24"):
        curvette_polynomial(chain24, 23)


def test_rational_tangents_and_germs_agree_with_lattice_route():
    germs = [parse_poly(text) for text in RATIONAL_GERMS]
    clusters = 0
    for structure in enumerate_proximity_structures(4):
        for cluster in enumerate_tangent_assignments(structure, RATIONAL_POOL):
            n = cluster.n
            rows = curvette_order_rows(cluster)
            orders = []
            for g in germs:
                profile = strict_transform_profile(cluster, g)
                ords = ord_vector(cluster, g)
                assert ords == tuple(sum(rows[e][i] * profile[i] for i in range(n)) for e in range(n))
                assert ords[-1] == ord_poly(cluster, g, n - 1)
                orders.append(ords)
            for a in range(len(germs)):
                for b in range(a, len(germs)):
                    product = ord_vector(cluster, germs[a] * germs[b])
                    assert product == tuple(p + q for p, q in zip(orders[a], orders[b]))
            clusters += 1
    assert clusters > 200


def test_integral_tangents_stay_in_integer_arithmetic(monkeypatch):
    seen = set()
    subst_free = Poly2.subst_free

    def spy(poly, c):
        seen.add(type(c))
        seen.update(type(v) for v in poly.terms.values())
        return subst_free(poly, c)

    monkeypatch.setattr(Poly2, "subst_free", spy)
    # tangent-0 and INF steps bypass subst_free, so every step's strict transform is seen too
    stepped = set()
    chart_step = valuations._chart_step

    def step_spy(strict, tangent, m):
        out, mult = chart_step(strict, tangent, m)
        stepped.update(type(v) for v in out.values())
        return out, mult

    monkeypatch.setattr(valuations, "_chart_step", step_spy)
    for structure in enumerate_proximity_structures(4):
        for cluster in enumerate_tangent_assignments(structure, TANGENT_POOL):
            for g in sample_family():
                ord_vector(cluster, g)
    assert seen == {int}
    assert stepped == {int}


def test_the_walk_builds_no_checked_polynomial(monkeypatch):
    """Every strict transform comes from the chart step's exact arithmetic, so the
    walk never runs the constructor's coefficient checks."""
    germs = sample_family() + [parse_poly(text) for text in RATIONAL_GERMS]
    built = []
    init = Poly2.__init__

    def spy(self, terms=None):
        built.append(terms)
        init(self, terms)

    monkeypatch.setattr(Poly2, "__init__", spy)
    walks = 0
    for structure in enumerate_proximity_structures(4):
        for cluster in enumerate_tangent_assignments(structure, TANGENT_POOL):
            for g in germs:
                ord_vector(cluster, g)
                walks += 1
    assert built == [] and walks > 10_000


def test_the_walk_builds_no_polynomial_with_a_negative_exponent(monkeypatch):
    """The free chart substitutes the strict transform itself and then divides by x^m;
    the walk once shifted the germ by x^-m first and substituted that."""
    subst_free = Poly2.subst_free
    inputs = []

    def checked(self, c):
        inputs.append(self)
        assert min(min(key) for key in self.terms) >= 0, self.terms
        return subst_free(self, c)

    monkeypatch.setattr(Poly2, "subst_free", checked)
    for structure in enumerate_proximity_structures(4):
        for cluster in enumerate_tangent_assignments(structure, TANGENT_POOL):
            for g in sample_family():
                ord_vector(cluster, g)
                strict_transform_profile(cluster, g)
    assert len(inputs) > 1000


_STEP_TANGENTS = (0, 1, -1, Fraction(1, 2), Fraction(-2, 3), 10**40 + 1, INF)
_COEFFICIENTS = st.one_of(
    st.integers(-6, 6), st.fractions(min_value=-3, max_value=3, max_denominator=6)
)
_POLYS = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), _COEFFICIENTS, min_size=1, max_size=6
).map(Poly2).filter(lambda p: p.terms)


def _total_transform(h: Poly2, tangent) -> Poly2:
    """h(x*y, y) for INF, h(x, x*(y + c)) for a tangent c, by ring arithmetic alone."""
    x, y = Poly2({(1, 0): 1}), Poly2({(0, 1): 1})
    X, Y = (x * y, y) if tangent is INF else (x, x * (y + Poly2({(0, 0): tangent})))
    total = Poly2()
    for (a, b), coef in h.terms.items():
        term = Poly2({(0, 0): coef})
        for factor in [X] * a + [Y] * b:
            term = term * factor
        total = total + term
    return total


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(h=_POLYS, tangent=st.sampled_from(_STEP_TANGENTS), through=st.booleans())
def test_chart_step_equals_substitution_then_division(h, tangent, through):
    # a factor through the chart's point makes terms of the free substitution cancel
    if through:
        h = h * (Poly2({(1, 0): 1}) if tangent is INF else Poly2({(0, 1): 1, (1, 0): -tangent}))
    m = h.multiplicity()
    if tangent is INF:
        expect = h.subst_inf().divide_power(1, m)
    else:
        expect = h.subst_free(tangent).divide_power(0, m)
    assert expect == _total_transform(h, tangent).divide_power(int(tangent is INF), m)
    strict, mult = valuations._chart_step(h.terms, tangent, m)
    assert strict == expect.terms and mult == expect.multiplicity()
    assert min(min(k) for k in strict) >= 0
    assert all(type(v) is int or v.denominator != 1 for v in strict.values())


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(h=_POLYS, tangent=st.sampled_from(_STEP_TANGENTS), through=st.booleans())
def test_the_tangent_cone_holds_the_points_on_the_strict_transform(h, tangent, through):
    if through:
        h = h * (Poly2({(1, 0): 1}) if tangent is INF else Poly2({(0, 1): 1, (1, 0): -tangent}))
    m = h.multiplicity()
    _, mult = valuations._chart_step(h.terms, tangent, m)
    assert valuations._on_tangent_cone(h.terms, tangent, m) == (mult > 0)


def test_the_walk_steps_only_on_the_strict_transform(monkeypatch):
    """The tangent clusters of <= 4 points hold 900 points past their origins, so a step at
    every point takes 53,100 steps over the sample family; the walk takes 10,754 for the
    same orders and profiles."""
    germs = sample_family()
    clusters = [cluster for structure in enumerate_proximity_structures(4)
                for cluster in enumerate_tangent_assignments(structure, TANGENT_POOL)]
    assert sum(cluster.n - 1 for cluster in clusters) * len(germs) == 53_100
    expected = [every_point_walk(cluster, g) for cluster in clusters for g in germs]
    steps = []
    chart_step = valuations._chart_step

    def spy(strict, tangent, m):
        steps.append(tangent)
        return chart_step(strict, tangent, m)

    monkeypatch.setattr(valuations, "_chart_step", spy)
    orders = [ord_vector(cluster, g) for cluster in clusters for g in germs]
    assert len(steps) == 10_754
    profiles = [strict_transform_profile(cluster, g) for cluster in clusters for g in germs]
    assert list(zip(orders, profiles)) == expected


def test_chart_step_keeps_its_invariants():
    cusp = parse_poly("y^2 - x^3")
    with pytest.raises(InternalInvariantError, match="not divisible"):
        valuations._chart_step(cusp.terms, 1, 3)
    # no polynomial's total transform vanishes; a y^-1 term, which no chart map keeps, does
    with pytest.raises(InternalInvariantError, match="vanished"):
        valuations._chart_step({(1, -1): 1}, 1, 0)


def _curvette_supported(cluster, i):
    """False when a free point lies beyond a tangent-inf or satellite chart
    on the chart chain of i; curvette_polynomial does not handle those yet."""
    kinds = cluster.kinds
    deeper_free = False
    while i != 0:
        if kinds[i] == "free":
            deeper_free = True
        elif deeper_free:
            return False
        i = max(cluster.proximities(i))
    return True


def test_curvette_polynomial_matches_sympy_resultant():
    sympy = pytest.importorskip("sympy")
    t, x, y = sympy.symbols("t x y")

    def rational(value):
        value = Fraction(value)
        return sympy.Rational(value.numerator, value.denominator)

    checked = 0
    for structure in enumerate_proximity_structures(3):
        for cluster in enumerate_tangent_assignments(structure, TANGENT_POOL):
            for i in range(cluster.n):
                if not _curvette_supported(cluster, i):
                    continue
                g = curvette_polynomial(cluster, i)
                # the first slope the construction tries, pushed down the charts
                slope = next(s for s in count(1) if s not in cluster.forbidden_slopes(i))
                X, Y = t, slope * t
                j = i
                while j != 0:
                    kind = cluster.kinds[j]
                    if kind == "free":
                        X, Y = X, X * (Y + rational(cluster.points[j].tangent))
                    elif kind == "sat_y":
                        X, Y = X, X * Y
                    else:
                        X, Y = X * Y, Y
                    j = max(cluster.proximities(j))
                resultant = sympy.resultant(x - X, y - Y, t)
                ours = sum(rational(c) * x**a * y**b for (a, b), c in g.terms.items())
                ratio = sympy.cancel(resultant / ours)
                assert ratio.is_number and ratio != 0, (cluster, i, g, resultant)
                checked += 1
    assert checked > 50


def test_the_arc_route_catches_a_sign_slip_in_the_free_chart(monkeypatch):
    """Rows . profile equals the chart walk's orders for any multiplicities, so
    a free chart taken with -c in place of c passes it; the arc route does not."""
    subst_free = Poly2.subst_free
    monkeypatch.setattr(Poly2, "subst_free", lambda self, c: subst_free(self, -c))
    cluster = BlowupCluster((ClusterPoint(), ClusterPoint(0, None, Fraction(1))))
    g = parse_poly("y - x")  # through the point of tangent 1, not through the one of tangent -1
    orders = ord_vector(cluster, g)
    profile = strict_transform_profile(cluster, g)
    assert orders == tuple(sum(map(mul, row, profile)) for row in curvette_order_rows(cluster))
    assert orders == (1, 1) and arc_orders(cluster, g) == (1, 2)
