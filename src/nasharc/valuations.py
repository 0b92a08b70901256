"""Divisorial valuations attached to the components of a blow-up cluster.

Two independent routes to the same numbers live here.  The lattice route
reads orders of vanishing off the negated inverse intersection matrix: row
e lists the orders, along the e-th component, of smooth germs transverse
to each component.  The polynomial route transforms an explicit germ
through the chart chain of the cluster and accumulates multiplicities of
strict transforms by the proximity recursion.  Their agreement is one of
the package's acceptance gates.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .clusters import BlowupCluster, closure_indices, minimal_joint_model, simulate
from .dual_graphs import intersection_matrix
from .errors import InternalInvariantError, ValidationError
from .exact_linalg import ExactMatrix
from .polynomials import Poly2


def cluster_matrix(cluster: BlowupCluster) -> ExactMatrix:
    return intersection_matrix(simulate(cluster))


def curvette_order_rows(cluster: BlowupCluster) -> tuple[tuple[int, ...], ...]:
    """All rows of the negated inverse intersection matrix, as integers.

    Entry (e, i) is the order of vanishing along component e of a germ
    whose strict transform crosses component i transversely at a general
    point.  Integrality is forced by unimodularity of the lattice.
    """
    inv = cluster_matrix(cluster).inverse()
    if not inv.is_integral():
        raise InternalInvariantError("cluster lattice inverse must be integral")
    return tuple(tuple(-v for v in row) for row in inv.rows)


def curvette_orders(cluster: BlowupCluster, e: int) -> tuple[int, ...]:
    """Row e of the negated inverse intersection matrix."""
    _check(cluster, e)
    return curvette_order_rows(cluster)[e]


def _check(cluster: BlowupCluster, i: int):
    if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < cluster.n:
        raise ValidationError(f"point index {i!r} out of range for a {cluster.n}-point cluster")


# -- strict transforms along the chart chain ----------------------------------


def _chart_parent(cluster: BlowupCluster, i: int) -> int:
    return max(cluster.proximities(i))


def _strict_transforms(cluster: BlowupCluster, g: Poly2, indices) -> dict[int, tuple[Poly2, int]]:
    """Strict transform and multiplicity of g at each requested center.

    Proceeds in creation order; each step substitutes the chart of the
    latest component through the point and divides by the exceptional
    power, which equals the multiplicity at the previous center.
    """
    if g.is_zero():
        raise ValidationError("the zero polynomial has no orders of vanishing")
    geom = cluster.geometry()
    wanted = set(indices)
    needed = set(closure_indices(cluster, *wanted)) if wanted else set()
    out: dict[int, tuple[Poly2, int]] = {}
    for i in sorted(needed):
        if i == 0:
            strict = g
        else:
            kind = geom.kinds[i]
            parent_poly, parent_mult = out[_chart_parent(cluster, i)]
            if kind == "free":
                c = cluster.points[i].tangent
                if c is None:
                    raise ValidationError(
                        f"point {i} is free without a tangent parameter; "
                        f"orders of polynomials need explicit coordinates"
                    )
                strict = parent_poly.subst_free(Fraction(c)).divide_power(0, parent_mult)
            elif kind == "free_inf":
                strict = parent_poly.subst_inf().divide_power(1, parent_mult)
            elif kind == "sat_x":
                strict = parent_poly.subst_inf().divide_power(1, parent_mult)
            elif kind == "sat_y":
                strict = parent_poly.subst_free(Fraction(0)).divide_power(0, parent_mult)
            else:  # pragma: no cover
                raise InternalInvariantError(f"unknown chart kind {kind!r}")
        if strict.is_zero():
            raise InternalInvariantError("strict transform of a nonzero germ vanished")
        out[i] = (strict, strict.multiplicity())
    return out


def multiplicities(cluster: BlowupCluster, g: Poly2) -> tuple[int, ...]:
    """Multiplicity of the strict transform of g at every center."""
    data = _strict_transforms(cluster, g, range(cluster.n))
    return tuple(data[i][1] for i in range(cluster.n))


def strict_transform_profile(cluster: BlowupCluster, g: Poly2) -> tuple[int, ...]:
    """Intersection numbers of the strict transform of g with each component.

    In the fully blown-up model the strict transform meets component i with
    total multiplicity m_i minus the multiplicities at the centers
    proximate to i; non-negativity is the proximity inequality.
    """
    m = multiplicities(cluster, g)
    t = []
    for i in range(cluster.n):
        drop = sum(m[j] for j in range(cluster.n) if i in cluster.proximities(j))
        value = m[i] - drop
        if value < 0:
            raise InternalInvariantError("proximity inequality failed for a polynomial germ")
        t.append(value)
    return tuple(t)


def ord_poly(cluster: BlowupCluster, g: Poly2, e: int) -> int:
    """Order of vanishing of the germ along component e.

    Total-transform recursion: the order at a center is the multiplicity
    of the strict transform there plus the orders at all earlier centers
    the point is proximate to.
    """
    _check(cluster, e)
    data = _strict_transforms(cluster, g, (e,))
    orders: dict[int, int] = {}
    for i in sorted(data):
        orders[i] = data[i][1] + sum(orders[j] for j in cluster.proximities(i))
    return orders[e]


def ord_vector(cluster: BlowupCluster, g: Poly2) -> tuple[int, ...]:
    """Orders of vanishing along every component, sharing one chart traversal."""
    data = _strict_transforms(cluster, g, range(cluster.n))
    orders: list[int] = []
    for i in range(cluster.n):
        orders.append(data[i][1] + sum(orders[j] for j in cluster.proximities(i)))
    return tuple(orders)


# -- comparison of valuations ---------------------------------------------------


class Comparison(enum.Enum):
    LESS_EQ = "LESS_EQ"
    GREATER_EQ = "GREATER_EQ"
    EQUAL = "EQUAL"
    INCOMPARABLE = "INCOMPARABLE"


def compare(cluster: BlowupCluster, e: int, f: int) -> Comparison:
    """Compare the valuations of components e and f componentwise.

    Decided inside the minimal joint model: the valuation of e is at most
    the valuation of f exactly when row e of the negated inverse matrix is
    dominated by row f.  EQUAL only happens for identical indices.
    """
    _check(cluster, e)
    _check(cluster, f)
    if e == f:
        return Comparison.EQUAL
    keep = closure_indices(cluster, e, f)
    index = {old: new for new, old in enumerate(keep)}
    rows = curvette_order_rows(minimal_joint_model(cluster, e, f))
    row_e, row_f = rows[index[e]], rows[index[f]]
    le = all(a <= b for a, b in zip(row_e, row_f))
    ge = all(a >= b for a, b in zip(row_e, row_f))
    if le and ge:  # distinct rows of an invertible matrix cannot tie
        raise InternalInvariantError("distinct components produced identical order rows")
    if le:
        return Comparison.LESS_EQ
    if ge:
        return Comparison.GREATER_EQ
    return Comparison.INCOMPARABLE


# -- explicit curvette equations --------------------------------------------------


def curvette_polynomial(cluster: BlowupCluster, i: int, max_tries: int = 8) -> Poly2:
    """An explicit germ whose lift crosses component i transversely.

    Built by parametrizing a general direction in the chart at center i,
    pushing the parametrization down the chart chain, and eliminating the
    parameter with an exact resultant.  The construction is self-checked:
    the order profile of the result must be column i of the negated
    inverse intersection matrix of the sub-cluster below i.
    """
    _check(cluster, i)
    geom = cluster.geometry()
    sub = minimal_joint_model(cluster, i, i)
    keep = closure_indices(cluster, i, i)
    expect = tuple(row[keep.index(i)] for row in curvette_order_rows(sub))

    chain = []  # chart maps are applied from the deepest point outward
    j = i
    while j != 0:
        chain.append(j)
        j = _chart_parent(cluster, j)

    taken = geom.forbidden_slopes(i)
    candidates = (c for c in map(Fraction, range(1, 1 + 50)) if c not in taken)
    last_error: Exception | None = None
    for _ in range(max_tries):
        slope = next(candidates)
        x_t = Poly2.monomial(1, 0)  # parameter t rides in the x slot
        y_t = Poly2.monomial(1, 0).scale(slope)
        for j in chain:
            kind = geom.kinds[j]
            if kind == "free":
                c = cluster.points[j].tangent
                if c is None:
                    raise ValidationError(
                        f"point {j} is free without a tangent parameter; "
                        f"an explicit curvette equation needs coordinates"
                    )
                x_t, y_t = x_t, x_t * (y_t + Poly2.constant(Fraction(c)))
            elif kind in ("free_inf", "sat_x"):
                x_t, y_t = x_t * y_t, y_t
            else:  # sat_y
                x_t, y_t = x_t, x_t * y_t
        g = _eliminate_parameter(x_t, y_t)
        profile = tuple(ord_poly(sub, g, k) for k in range(sub.n))
        if profile == expect:
            return g
        last_error = InternalInvariantError(
            f"curvette candidate with slope {slope} produced profile {profile}, expected {expect}"
        )
    raise last_error if last_error is not None else InternalInvariantError("curvette search failed")


def _eliminate_parameter(x_t: Poly2, y_t: Poly2) -> Poly2:
    """Resultant in t of x - X(t) and y - Y(t), over exact bivariate entries.

    X and Y arrive as univariate polynomials written in the x slot of a
    Poly2.  The Sylvester determinant is computed by fraction-free Bareiss
    elimination in the polynomial ring, where every division is exact.
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
    sign = 1
    for k in range(n - 1):
        if rows[k][k].is_zero():
            swap = next((r for r in range(k + 1, n) if not rows[r][k].is_zero()), None)
            if swap is None:
                return Poly2()
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot = rows[k][k]
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                rows[r][c] = (rows[r][c] * pivot - rows[r][k] * rows[k][c]).exact_div(prev)
            rows[r][k] = Poly2()
        prev = pivot
    return rows[n - 1][n - 1].scale(sign)
