"""Property net for clusters up to ``MAX_POINTS`` centers.

Clusters grow the way the enumerators grow them: each new center is free
on an existing component or a satellite on a surviving intersection.  A
free center either has no tangent, or takes one from a pool of rationals
and inf that is not already taken on its component.  Every drawn cluster
is checked; none is filtered out.  The runs are derandomized with a fixed
example budget, so they are reproducible.
"""

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from operator import add, mul
from pathlib import Path

import pytest
from helpers import arc_orders, eliminate_parameter, pushed_parametrization
from hypothesis import given, settings
from hypothesis import strategies as st

from nasharc import (
    INF,
    BlowupCluster,
    ClusterPoint,
    InternalInvariantError,
    ValidationError,
    canonical_key,
    cluster_matrix,
    curvette_order_rows,
    curvette_polynomial,
    intersection_from_proximity,
    pair_graph,
    parse_poly,
    proximity_matrix,
    simulate,
    strict_transform_profile,
)
from nasharc import cli
from nasharc.clusters import MAX_POINTS
from nasharc.valuations import ord_vector

TANGENTS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2, 3), Fraction(3), INF)
GERM_TEXTS = ("x", "y - x", "y^2 - x^3", "3*y + 2*x", "y^3 - 2/3*x^2*y + 5/7*x^4", "x^2 - 4*y^3")
GERMS = tuple(parse_poly(text) for text in GERM_TEXTS)


@st.composite
def clusters(draw, pool=None, max_points=MAX_POINTS):
    """Clusters of 1..max_points centers; free centers take tangents from ``pool`` if given."""
    size = draw(st.integers(1, max_points))
    cluster = BlowupCluster((ClusterPoint(),))
    while cluster.n < size:
        if pool is None:
            free = [ClusterPoint(parent) for parent in range(cluster.n)]
        else:
            free = [
                ClusterPoint(parent, None, t)
                for parent in range(cluster.n)
                for t in pool
                if t not in cluster.forbidden_slopes(parent)
            ]
        satellites = [ClusterPoint(hi, lo) for lo, hi in cluster.edges]
        point = draw(st.sampled_from(free + satellites))
        cluster = BlowupCluster(cluster.points + (point,))
    return cluster


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(clusters())
def test_cluster_lattices(cluster):
    M = cluster_matrix(cluster)
    assert M.rows == intersection_from_proximity(proximity_matrix(cluster)).rows
    assert M.determinant() in (1, -1)
    rows = curvette_order_rows(cluster)
    assert rows == M.inverse().neg().rows
    assert all(v > 0 for row in rows for v in row)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    clusters(TANGENTS),
    st.sampled_from(GERMS),
    st.sampled_from(GERMS),
    st.randoms(use_true_random=False),
)
def test_tangent_clusters_chart_orders_and_keys(cluster, g, h, rng):
    """Chart orders equal lattice orders and add up on a product of germs;
    the canonical keys of the whole dual graph and of a pair graph survive
    a relabelling and come out as the same bytes twice."""
    rows = curvette_order_rows(cluster)
    orders = []
    for germ in (g, h):
        profile = strict_transform_profile(cluster, germ)
        orders.append(ord_vector(cluster, germ))
        assert orders[-1] == tuple(sum(map(mul, row, profile)) for row in rows)
    assert ord_vector(cluster, g * h) == tuple(map(add, *orders))

    for graph in (simulate(cluster), pair_graph(cluster, rng.randrange(cluster.n), rng.randrange(cluster.n))):
        key = canonical_key(graph).key
        assert canonical_key(graph).key == key
        ids = list(graph.ids)
        relabelled = graph.relabel(dict(zip(ids, rng.sample(ids, len(ids)))))
        assert canonical_key(relabelled).key == key


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(clusters(TANGENTS, max_points=16), st.sampled_from(GERMS))
def test_tangent_clusters_arc_orders(cluster, g):
    """Orders along the generic arcs of the components, pushed to the origin
    through the chart maps, equal the chart walk's orders."""
    assert arc_orders(cluster, g) == ord_vector(cluster, g)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.data())
def test_tangent_clusters_curvette_at_a_drawn_point(data):
    """The explicit curvette is the resultant of its pushed-down parametrization,
    or is refused by size, or fails its self-check exactly when x(t) is not a monomial."""
    cluster = data.draw(clusters(TANGENTS))
    i = data.draw(st.integers(0, cluster.n - 1))
    x_t, y_t = pushed_parametrization(cluster, i)
    dx, dy = (max(a for a, _ in p.terms) for p in (x_t, y_t))
    if dx + dy > 24:
        with pytest.raises(ValidationError):
            curvette_polynomial(cluster, i)
    elif len(x_t.terms) > 1:
        with pytest.raises(InternalInvariantError):
            curvette_polynomial(cluster, i)
    else:
        assert curvette_polynomial(cluster, i) == eliminate_parameter(x_t, y_t)


def _no_float(text):
    raise AssertionError(f"a structured report holds the non-integer number {text}")


@settings(derandomize=True, database=None, max_examples=70, deadline=None)
@given(st.data())
def test_structured_reports_round_trip_through_json(data):
    """Every cluster report, written for a drawn cluster document, parses with
    no float in it and re-serializes to the same bytes."""
    cluster = data.draw(clusters(TANGENTS))
    n = cluster.n
    e = data.draw(st.integers(0, n - 1))
    f = (e + data.draw(st.integers(1, n - 1))) % n if n > 1 else e
    returns = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    germ = data.draw(st.sampled_from(GERM_TEXTS))
    with tempfile.TemporaryDirectory() as scratch:
        doc = Path(scratch) / "cluster.json"
        doc.write_text(json.dumps(cluster.to_doc()), encoding="utf-8")
        requests = [
            ["cluster", "build", str(doc)],
            ["val", "compare", str(doc), str(e), str(f)],
            ["adj", "table", str(doc)],
            ["val", "ord", str(doc), str(e), "--poly", germ],
        ]
        if e != f:  # an adjacency needs two components
            requests.append(
                ["adj", "obstruct", str(doc), str(e), str(f), "--returns", ",".join(map(str, returns))]
            )
        for argv in requests:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.run(argv + ["--format", "structured"])
            assert code == 0, argv
            report = json.loads(out.getvalue(), parse_float=_no_float, parse_constant=_no_float)
            assert json.dumps(report, indent=2, sort_keys=True) + "\n" == out.getvalue()
