"""Divisorial valuations attached to the components of a blow-up cluster.

Two independent routes to the same numbers live here.  The lattice route
reads orders of vanishing off the curvette rows QQ^t = -M^-1, Q = P^-1,
checked once per cluster against the simulated lattice M: row e lists the
orders, along the e-th component, of smooth germs transverse to each
component.  The polynomial route transforms an explicit germ through the
chart chain of the cluster and accumulates multiplicities of strict
transforms by the proximity recursion.  Their agreement is one of the
package's acceptance gates.
"""

from __future__ import annotations

import enum
from itertools import count
from operator import mul

from .clusters import BlowupCluster, _check_index, _unfold, closure_indices, simulate
from .dual_graphs import intersection_matrix
from .errors import InternalInvariantError, ValidationError
from .exact_linalg import ExactMatrix
from .polynomials import Poly2
from .rationals import INF, Tangent, canonical_rational


def cluster_matrix(cluster: BlowupCluster) -> ExactMatrix:
    return intersection_matrix(simulate(cluster))


def _curvette_rows(cluster: BlowupCluster) -> tuple[tuple[int, ...], ...]:
    """QQ^t with Q = P^-1, checked against the simulated lattice: M QQ^t = -I.

    Column k of Q unfolds the k-th unit vector.  Column f of QQ^t unfolds
    row f of Q, and QQ^t is symmetric, so its columns are its rows.
    """
    n = cluster.n
    q_cols = [_unfold(cluster, [int(i == k) for i in range(n)]) for k in range(n)]
    rows = tuple(tuple(_unfold(cluster, q_row)) for q_row in zip(*q_cols))
    for i, m_row in enumerate(cluster_matrix(cluster).rows):
        if [sum(map(mul, m_row, col)) for col in rows] != [-int(i == j) for j in range(n)]:
            raise InternalInvariantError("simulated lattice times curvette rows is not -I")
    return rows


def curvette_order_rows(cluster: BlowupCluster) -> tuple[tuple[int, ...], ...]:
    """All rows of the negated inverse intersection matrix, as integers.

    Entry (e, i) is the order of vanishing along component e of a germ
    whose strict transform crosses component i transversely at a general
    point.  The rows are QQ^t with Q = P^-1, integral by construction, and
    are checked once per cluster against the simulated lattice M: their
    product must be -I, or InternalInvariantError is raised.
    """
    return cluster.kept(_curvette_rows)


def curvette_orders(cluster: BlowupCluster, e: int) -> tuple[int, ...]:
    """Row e of the negated inverse intersection matrix."""
    _check_index(cluster, e)
    return curvette_order_rows(cluster)[e]


# -- strict transforms along the chart chain ----------------------------------


def _chart_plan(cluster: BlowupCluster) -> tuple[tuple[int, Tangent | None], ...]:
    """Chart parent (the latest component through the point) and tangent per point.

    Tangent c means the chart (x, y) -> (x, x*(y + c)) with exceptional
    divisor x = 0, INF the chart (x, y) -> (x*y, y) with divisor y = 0,
    None a free point without a tangent; satellites take c = 0 or INF.
    """
    geom = cluster.geometry()
    plan: list[tuple[int, Tangent | None]] = [(0, None)]  # the origin has no chart
    for i in range(1, cluster.n):
        tangent = {"sat_y": 0, "sat_x": INF}.get(geom.kinds[i], cluster.points[i].tangent)
        plan.append((max(geom.prox[i]), canonical_rational(tangent)))
    return tuple(plan)


def _multiplicities(cluster: BlowupCluster, g: Poly2, points) -> list[int]:
    """Multiplicity of the strict transform of g at each of ``points``, 0 elsewhere.

    ``points`` is sorted and closed under proximity.  Each chart step
    divides by the exceptional power: the multiplicity at the chart parent.
    """
    if g.is_zero():
        raise ValidationError("the zero polynomial has no orders of vanishing")
    plan = cluster.kept(_chart_plan)
    strict, mult = [g] * cluster.n, [g.multiplicity()] + [0] * (cluster.n - 1)
    for i in points[1:]:
        parent, tangent = plan[i]
        if tangent is None:
            raise ValidationError(
                f"point {i} is free without a tangent parameter; "
                f"orders of polynomials need explicit coordinates"
            )
        if tangent is INF:
            strict[i] = strict[parent].subst_inf().divide_power(1, mult[parent])
        else:
            strict[i] = strict[parent].subst_free(tangent).divide_power(0, mult[parent])
        if strict[i].is_zero():
            raise InternalInvariantError("strict transform of a nonzero germ vanished")
        mult[i] = strict[i].multiplicity()
    return mult


def _orders(cluster: BlowupCluster, g: Poly2, points) -> list[int]:
    """Orders of g along ``points``: ord_i = m_i + the orders at the centers i is proximate to.
    The unfold covers every center; callers read only ``points``, which is closed under proximity."""
    return _unfold(cluster, _multiplicities(cluster, g, points))


def multiplicities(cluster: BlowupCluster, g: Poly2) -> tuple[int, ...]:
    """Multiplicity of the strict transform of g at every center."""
    return tuple(_multiplicities(cluster, g, range(cluster.n)))


def strict_transform_profile(cluster: BlowupCluster, g: Poly2) -> tuple[int, ...]:
    """Intersection numbers of the strict transform of g with each component.

    In the fully blown-up model the strict transform meets component i with
    total multiplicity m_i minus the multiplicities at the centers
    proximate to i; non-negativity is the proximity inequality.
    """
    m = _multiplicities(cluster, g, range(cluster.n))
    t = list(m)
    for j in range(cluster.n):
        for i in cluster.proximities(j):
            t[i] -= m[j]
    if min(t) < 0:
        raise InternalInvariantError("proximity inequality failed for a polynomial germ")
    return tuple(t)


def ord_poly(cluster: BlowupCluster, g: Poly2, e: int) -> int:
    """Order of vanishing of the germ along component e."""
    return _orders(cluster, g, closure_indices(cluster, e))[e]


def ord_vector(cluster: BlowupCluster, g: Poly2) -> tuple[int, ...]:
    """Orders of vanishing along every component, sharing one chart traversal."""
    return tuple(_orders(cluster, g, range(cluster.n)))


# -- comparison of valuations ---------------------------------------------------


def _first_smaller_curvette(cluster: BlowupCluster, e: int, f: int, keep) -> int | None:
    """The first curvette of ``keep`` with a smaller order along f than along e, or None.

    None means the valuation of e is dominated by the valuation of f on
    ``keep``; a curvette found is the witness that it is not.
    """
    rows = curvette_order_rows(cluster)
    row_e, row_f = rows[e], rows[f]
    return next((i for i in keep if row_f[i] < row_e[i]), None)


class Comparison(enum.Enum):
    LESS_EQ = "LESS_EQ"
    GREATER_EQ = "GREATER_EQ"
    EQUAL = "EQUAL"
    INCOMPARABLE = "INCOMPARABLE"


def compare(cluster: BlowupCluster, e: int, f: int) -> Comparison:
    """Compare the valuations of components e and f componentwise.

    Decided inside the minimal joint model, whose curvette rows are the
    cluster's rows restricted to the proximity closure of e and f: the
    valuation of e is at most the valuation of f exactly when row e is
    dominated by row f there.  EQUAL only happens for identical indices.
    """
    keep = closure_indices(cluster, e, f)
    if e == f:
        return Comparison.EQUAL
    le = _first_smaller_curvette(cluster, e, f, keep) is None
    ge = _first_smaller_curvette(cluster, f, e, keep) is None
    if le and ge:  # distinct rows of an invertible matrix cannot tie
        raise InternalInvariantError("distinct components produced identical order rows")
    if le:
        return Comparison.LESS_EQ
    if ge:
        return Comparison.GREATER_EQ
    return Comparison.INCOMPARABLE


# -- explicit curvette equations --------------------------------------------------


def curvette_polynomial(cluster: BlowupCluster, i: int) -> Poly2:
    """An explicit germ whose lift crosses component i transversely.

    One candidate, the line y = s*x in the chart at center i with s the
    first positive integer slope free on component i, is pushed down the
    chart chain as (x(t), y(t)) and its parameter eliminated by an exact
    resultant.  Its orders along the proximity closure of i must be column
    i of the curvette rows there, else InternalInvariantError.  That holds
    exactly when x(t) is a monomial (on every tangent cluster of <= 5 points
    over 0, 1, -1, inf); else another root of x(t) also reaches the origin,
    e.g. x = t^2 (t + 1), y = t (t + 1) at t = -1.
    """
    keep = closure_indices(cluster, i)
    plan = cluster.kept(_chart_plan)
    rows = curvette_order_rows(cluster)
    expect = tuple(rows[k][i] for k in keep)

    taken = cluster.geometry().forbidden_slopes(i)
    slope = next(c for c in count(1) if c not in taken)
    x_t = Poly2.monomial(1, 0)  # parameter t rides in the x slot
    y_t = Poly2.monomial(1, 0, slope)
    j = i
    while j != 0:  # chart maps are applied from the deepest point outward
        parent, tangent = plan[j]
        if tangent is None:
            raise ValidationError(
                f"point {j} is free without a tangent parameter; "
                f"an explicit curvette equation needs coordinates"
            )
        if tangent is INF:
            x_t, y_t = x_t * y_t, y_t
        else:
            x_t, y_t = x_t, x_t * (y_t + Poly2.constant(tangent))
        j = parent
    g = _eliminate_parameter(x_t, y_t)
    orders = _orders(cluster, g, keep)
    profile = tuple(orders[k] for k in keep)
    if profile != expect:
        raise InternalInvariantError(
            f"curvette candidate with slope {slope} produced profile {profile}, expected {expect}"
        )
    return g


def _eliminate_parameter(x_t: Poly2, y_t: Poly2) -> Poly2:
    """Resultant in t of x - X(t) and y - Y(t), over exact bivariate entries.

    X and Y arrive as univariate polynomials written in the x slot of a
    Poly2.  The Sylvester determinant is computed by fraction-free Bareiss
    elimination in the polynomial ring, where every division is exact.

    No pivot vanishes, so rows are never swapped: the pivot of step k is the
    leading (k+1)-minor; y sits only on the diagonal (dy + s, dy + s) of the
    q-rows, under a triangular dy x dy block with diagonal lc(X), so each
    leading k-minor has y^max(0, k - dy) coefficient +-lc(X)^min(k, dy).
    """
    px = {k[0]: v for k, v in x_t.terms.items()}
    py = {k[0]: v for k, v in y_t.terms.items()}
    dx = max(px) if px else 0
    dy = max(py) if py else 0
    if dx + dy > 24:
        raise ValidationError("parameter elimination is limited to small chart chains")
    # coefficient lists of X(t) - x and Y(t) - y, highest degree first
    p = [Poly2.constant(px.get(d, 0)) for d in range(dx, -1, -1)]
    p[-1] = p[-1] - Poly2.variable("x")
    q = [Poly2.constant(py.get(d, 0)) for d in range(dy, -1, -1)]
    q[-1] = q[-1] - Poly2.variable("y")
    n = dx + dy
    rows: list[list[Poly2]] = []
    for shift in range(dy):
        rows.append([Poly2()] * shift + p + [Poly2()] * (dy - 1 - shift))
    for shift in range(dx):
        rows.append([Poly2()] * shift + q + [Poly2()] * (dx - 1 - shift))
    if len(rows) != n or any(len(r) != n for r in rows):
        raise InternalInvariantError("Sylvester matrix is not square")

    prev = Poly2.constant(1)
    for k in range(n - 1):
        pivot = rows[k][k]  # a nonzero leading minor: y sits on the q-row diagonal
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                rows[r][c] = (rows[r][c] * pivot - rows[r][k] * rows[k][c]).exact_div(prev)
            rows[r][k] = Poly2()
        prev = pivot
    return rows[n - 1][n - 1]
