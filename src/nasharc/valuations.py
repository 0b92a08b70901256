"""Divisorial valuations attached to the components of a blow-up cluster.

Two routes to orders of vanishing live here.  The lattice route reads them
off the curvette rows QQ^t = -M^-1, Q = P^-1 (row e: orders along component e
of smooth germs transverse to each component).  The polynomial route pushes a
germ down the cluster's chart plan (``cluster.plan``), one ``_chart_step`` per
point, and unfolds the multiplicities m of its strict transforms.  Both read the
same m (orders P^-1 m, profile P^t m), so rows . profile = orders for any m:
their agreement, an acceptance gate, checks the replay's proximity bookkeeping
and the proximity inequality.  The self-check of ``curvette_polynomial`` and
the tests' Sylvester and sympy oracles check the chart arithmetic.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from itertools import count

from .clusters import BlowupCluster, closure_indices, simulate
from .dual_graphs import intersection_matrix
from .errors import InternalInvariantError, ValidationError
from .exact_linalg import ExactMatrix
from .polynomials import Poly2, _exact_poly
from .rationals import INF

# The largest deg x(t) + deg y(t) of the pushed-down parametrization of an
# explicit curvette (``curvette_polynomial``); chain24 reaches it at point 22.
MAX_CURVETTE_DEGREE = 24


def cluster_matrix(cluster: BlowupCluster) -> ExactMatrix:
    return intersection_matrix(simulate(cluster))


def curvette_order_rows(cluster: BlowupCluster) -> tuple[tuple[int, ...], ...]:
    """All rows of the negated inverse intersection matrix, as integers.

    Entry (e, i) is the order of vanishing along component e of a germ
    whose strict transform crosses component i transversely at a general
    point.  The rows are QQ^t with Q = P^-1, integral by construction,
    kept on the cluster's replay and checked once against the simulated
    lattice M: their product must be -I, or InternalInvariantError is raised.
    """
    return cluster.curvette_rows


# -- strict transforms along the chart chain ----------------------------------


def _chart_step(strict: dict, tangent, m: int) -> tuple[dict, int]:
    """Terms and multiplicity of the strict transform of a germ (terms ``strict``, multiplicity m)
    in the chart of ``tangent``.  A nonzero tangent fixes x, so the germ is shifted by x^-m first,
    a transient Poly2 with negative x-exponents that never escapes, and then substituted."""
    if min(a + b for a, b in strict) < m:
        raise InternalInvariantError("total transform is not divisible by the expected exceptional power")
    if tangent is INF:
        out = {(a, a + b - m): v for (a, b), v in strict.items()}
    elif tangent == 0:
        out = {(a + b - m, b): v for (a, b), v in strict.items()}
    else:
        out = _exact_poly({(a - m, b): v for (a, b), v in strict.items()}).subst_free(tangent).terms
    if not out:
        raise InternalInvariantError("strict transform of a nonzero germ vanished")
    return out, min(a + b for a, b in out)


def _multiplicities(cluster: BlowupCluster, g: Poly2, points) -> list[int]:
    """Multiplicity of the strict transform of g at each of ``points`` (sorted, closed under
    proximity), 0 elsewhere: one chart step per point, by the multiplicity at its chart parent."""
    if g.is_zero():
        raise ValidationError("the zero polynomial has no orders of vanishing")
    plan, strict, mult = cluster.plan, {0: g.terms}, [g.multiplicity()] + [0] * (cluster.n - 1)
    for i in points[1:]:
        parent, tangent = plan[i]
        if tangent is None:
            raise ValidationError(f"point {i} is free without a tangent parameter; "
                                  f"orders of polynomials need explicit coordinates")
        strict[i], mult[i] = _chart_step(strict[parent], tangent, mult[parent])
    return mult


def _orders(cluster: BlowupCluster, g: Poly2, points) -> list[int]:
    """Orders of g along ``points``: ord_i = m_i + the orders at the centers i is proximate to.
    The unfold covers every center; callers read only ``points``, which is closed under proximity."""
    return cluster.unfold(_multiplicities(cluster, g, points))


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
    for j, here in enumerate(cluster.prox):
        for i in here:
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

    One candidate, the line y - s*x in the chart at center i with s the
    first positive integer slope free on component i, is pushed down the
    chart chain by its equation: each chart map is birational, so the image
    of a curve is its equation substituted back and rid of the exceptional
    divisor.  The germ is scaled as the resultant Res_t(x(t) - x, y(t) - y)
    of the line's pushed-down parametrization, whose degrees may sum to at
    most MAX_CURVETTE_DEGREE, else ValidationError.  Its orders along the
    proximity closure of i must be column i of the curvette rows there, else
    InternalInvariantError.  That holds exactly when x(t) is a monomial (on
    every tangent cluster of <= 5 points over 0, 1, -1, inf); else another
    root of x(t) also reaches the origin, e.g. x = t^2 (t + 1), y = t (t + 1)
    at t = -1.
    """
    keep = closure_indices(cluster, i)
    rows = curvette_order_rows(cluster)
    expect = tuple(rows[k][i] for k in keep)

    taken = cluster.forbidden_slopes(i)
    slope = next(c for c in count(1) if c not in taken)
    g = Poly2({(0, 1): 1, (1, 0): -slope})
    dx, dy, lx, ly = 1, 1, 1, slope  # degrees and leading coefficients of x(t), y(t)
    j = i
    while j != 0:  # chart maps are applied from the deepest point outward
        parent, tangent = cluster.plan[j]
        if tangent is None:
            raise ValidationError(
                f"point {j} is free without a tangent parameter; "
                f"an explicit curvette equation needs coordinates"
            )
        if tangent is INF:
            g, dx, lx = g.blow_down_inf(), dx + dy, lx * ly
        else:
            g, dy, ly = g.blow_down_free(tangent), dx + dy, lx * ly
        if dx + dy > MAX_CURVETTE_DEGREE:
            raise ValidationError(
                f"explicit curvettes are limited to parametrizations of total degree {MAX_CURVETTE_DEGREE}"
            )
        j = parent
    # the resultant's pure y^dx coefficient is lc(x(t))^dy times (-1)^dx from the y(t) - y factors
    g = g.scale(Fraction((-1) ** dx * lx**dy) / g.terms[(0, dx)])
    orders = _orders(cluster, g, keep)
    profile = tuple(orders[k] for k in keep)
    if profile != expect:
        raise InternalInvariantError(
            f"curvette candidate with slope {slope} produced profile {profile}, expected {expect}"
        )
    return g
