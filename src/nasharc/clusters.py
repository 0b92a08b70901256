"""Constellations of infinitely near points over a smooth surface origin.

A cluster is an ordered list of blow-up centers: the origin first, then
points each lying on one exceptional component of the model built so far
(free points) or on the intersection of two of them (satellite points).
Free points may carry an exact rational tangent parameter, or the marker
``INF``, selecting their direction on the parent component; only the
polynomial computations consult it.

A ``BlowupCluster`` is its replay: it simulates its blow-ups one center at
a time and keeps the results (``prox``, ``kinds``, ``self_ints``, ``edges``),
the dual graph among them; the classical proximity matrix gives an
independent route to the same intersection lattice through M = -P^t P.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator

from .dual_graphs import DualGraph, GraphVertex, document_items, object_items
from .errors import InternalInvariantError, ValidationError
from .exact_linalg import ExactMatrix
from .rationals import INF, Tangent, canonical_rational, format_tangent, is_exact_int, parse_tangent

MAX_POINTS = 24
# The index tuples a replay keeps (proximities, surviving intersections),
# built once: every cluster shares them instead of holding its own copies.
_SINGLES = tuple((i,) for i in range(MAX_POINTS))
_PAIRS = tuple(tuple((s, i) for i in range(MAX_POINTS)) for s in range(MAX_POINTS))


@dataclass(frozen=True)
class ClusterPoint:
    """One blow-up center: its component references and optional tangent."""

    parent: int | None = None
    satellite_of: int | None = None
    tangent: Tangent | None = None


def _direction(kinds, prox, hi: int, lo: int) -> Tangent:
    """The direction on component ``hi`` of a component ``lo`` through hi's center.

    The chart of tangent c, (x, y) -> (x, x*(y + c)), has the chart parent (the latest
    component through the center) at x = 0, met by the next component at INF; the INF
    chart, (x, y) -> (x*y, y), at y = 0, met at 0.  A satellite's other component is
    the other axis, so it sits at the other direction."""
    return INF if (kinds[hi] in ("free_inf", "sat_x")) != (lo == max(prox[hi])) else Fraction(0)


def _forbidden_slopes(kinds, prox, points, component: int) -> set:
    """Directions on a component unavailable to a new free point among ``points``:
    those of the components through its center and the tangents of its free children."""
    siblings = (p for p in points if p.parent == component and p.satellite_of is None)
    taken = {_direction(kinds, prox, component, s) for s in prox[component]}
    return taken | {p.tangent for p in siblings if p.tangent is not None}


def _blow_up(here: tuple[int, ...], self_ints: list[int], alive: set) -> None:
    """Blow up a center on the components ``here``: their self-intersections drop
    by one, each meets the new (-1)-component, and a satellite center separates its
    two components."""
    i = len(self_ints)
    for s in here:
        self_ints[s] -= 1
        alive.add(_PAIRS[s][i])
    alive.discard(here)
    self_ints.append(-1)


@dataclass(frozen=True)
class BlowupCluster:
    """The centers, checked by one replay of their blow-ups, and what that replay finds.

    Per center: the earlier centers whose components pass through it
    (``prox``), the chart kind used to reach it (``kinds``) and the final
    self-intersection of its component (``self_ints``); for the model, the
    intersections that survive every blow-up (``edges``, sorted pairs).
    One rule (``_direction``) reads off the chart kinds the direction on a
    component of each component through its center; it fixes the chart kind
    of a later satellite and the directions a free point must avoid.  The
    chart kinds fix the chart of every point (``plan``), and the
    proximities unfold P^-1 (``unfold``) into the ``curvette_rows``.
    """

    points: tuple[ClusterPoint, ...]

    def __post_init__(self):
        if not self.points:
            raise ValidationError("a cluster needs at least one point, the origin")
        prox: list[tuple[int, ...]] = []
        kinds: list[str] = []
        self_ints: list[int] = []
        alive: set[tuple[int, int]] = set()
        for i, point in enumerate(self.points):
            parent = point.parent
            if i >= MAX_POINTS:
                raise ValidationError(f"clusters are capped at {MAX_POINTS} points")
            if i == 0:
                if parent is not None or point.satellite_of is not None:
                    raise ValidationError("point 0 is the origin and has no parent")
                if point.tangent is not None:
                    raise ValidationError("point 0 carries no tangent parameter")
                here, kind = (), "root"
            elif not is_exact_int(parent):
                raise ValidationError(f"points[{i}].parent: expected an index below {i}")
            elif not 0 <= parent < i:
                raise ValidationError(f"points[{i}].parent: index {parent} must be below {i}")
            elif point.satellite_of is None:
                tangent = point.tangent
                if tangent is not None:
                    if not (tangent is INF or isinstance(tangent, Fraction) or is_exact_int(tangent)):
                        raise ValidationError(f"points[{i}].tangent: expected a rational or inf")
                    if tangent in _forbidden_slopes(kinds, prox, self.points[:i], parent):
                        raise ValidationError(
                            f"points[{i}].tangent: direction {format_tangent(tangent)} on component "
                            f"{parent} is already occupied by another component or sibling"
                        )
                here = _SINGLES[parent]
                kind = "free_inf" if tangent is INF else "free"
            else:
                other = point.satellite_of
                if not is_exact_int(other) or not 0 <= other < i:
                    raise ValidationError(f"points[{i}].satellite_of: index must be below {i}")
                if other == parent:
                    raise ValidationError(f"points[{i}].satellite_of: must differ from parent")
                if point.tangent is not None:
                    raise ValidationError(f"points[{i}].tangent: satellite points carry no tangent")
                here = _PAIRS[min(parent, other)][max(parent, other)]
                if here not in alive:
                    raise ValidationError(
                        f"points[{i}]: components {parent} and {other} do not intersect "
                        f"in the model before this blow-up"
                    )
                lo, hi = here
                kind = "sat_x" if _direction(kinds, prox, hi, lo) is INF else "sat_y"

            _blow_up(here, self_ints, alive)
            prox.append(here)
            kinds.append(kind)
        results = {"prox": prox, "kinds": kinds, "self_ints": self_ints, "edges": sorted(alive)}
        for name, value in results.items():  # a frozen dataclass takes no plain assignment
            object.__setattr__(self, name, tuple(value))

    @classmethod
    def from_specs(cls, specs: Iterable) -> "BlowupCluster":
        """Build from (parent, satellite_of, tangent) tuples; shorter tuples allowed."""
        return cls(tuple(ClusterPoint(*tuple(spec)[:3]) for spec in specs))

    @property
    def n(self) -> int:
        return len(self.points)

    def geometry(self) -> "BlowupCluster":  # read by perfbench/workloads.py::curvette_supported
        return self

    def proximities(self, i: int) -> tuple[int, ...]:  # read by perfbench/workloads.py::curvette_supported
        """Indices of the earlier centers whose components pass through point i."""
        return self.prox[i]

    def is_free(self, i: int) -> bool:
        return self.points[i].satellite_of is None and i > 0

    def forbidden_slopes(self, component: int) -> set:
        """Directions on a component unavailable to a new free point."""
        return _forbidden_slopes(self.kinds, self.prox, self.points, component)

    def unfold(self, values) -> list[int]:
        """P^-1 values, by forward substitution over the proximity lists:
        out_i = values_i + the sum of out_j over the centers j that i is proximate to."""
        out = list(values)
        for i, here in enumerate(self.prox):
            for j in here:
                out[i] += out[j]
        return out

    @cached_property
    def curvette_rows(self) -> tuple[tuple[int, ...], ...]:
        """QQ^t with Q = P^-1, checked against the replay's lattice M: M QQ^t = -I.

        Column k of Q unfolds the k-th unit vector; column f of QQ^t unfolds
        row f of Q, and QQ^t is symmetric.  Row i of M QQ^t is self_ints[i]
        times row i plus the rows of the components meeting component i.
        """
        n = self.n
        q_cols = [self.unfold([int(i == k) for i in range(n)]) for k in range(n)]
        rows = tuple(tuple(self.unfold(q_row)) for q_row in zip(*q_cols))
        product = [[w * v for v in row] for w, row in zip(self.self_ints, rows)]
        for a, b in self.edges:
            product[a] = [u + v for u, v in zip(product[a], rows[b])]
            product[b] = [u + v for u, v in zip(product[b], rows[a])]
        if product != [[-int(i == j) for j in range(n)] for i in range(n)]:
            raise InternalInvariantError("the replay's lattice times the curvette rows is not -I")
        return rows

    @cached_property
    def plan(self) -> tuple[tuple[int, Tangent | None], ...]:
        """Chart parent (the latest component through the point) and tangent per point.

        Tangent c means the chart (x, y) -> (x, x*(y + c)) with exceptional
        divisor x = 0, INF the chart (x, y) -> (x*y, y) with divisor y = 0,
        None a free point without a tangent; satellites take c = 0 or INF.
        Built on first use: enumerations that never walk charts pay nothing.
        """
        steps = zip(self.prox[1:], self.kinds[1:], self.points[1:])
        return ((0, None),) + tuple(  # the origin has no chart
            (max(here), canonical_rational({"sat_y": 0, "sat_x": INF}.get(kind, point.tangent)))
            for here, kind, point in steps
        )

    def to_doc(self) -> dict:
        return {
            "schema": CLUSTER_SCHEMA,
            "points": [
                {
                    "parent": p.parent,
                    "satellite_of": p.satellite_of,
                    "tangent": format_tangent(p.tangent),
                }
                for p in self.points
            ],
        }


CLUSTER_SCHEMA = "cluster/1"


def validate_cluster_doc(doc) -> list[str]:
    """Schema diagnostics for a cluster document; empty means structurally valid."""
    points = document_items(doc, CLUSTER_SCHEMA, "points")
    if isinstance(points, str):
        return [points]
    diags: list[str] = []
    for k, where, p in object_items("points", points, diags):
        parent = p.get("parent")
        if k == 0:
            if parent is not None:
                diags.append(f"{where}.parent: the origin has no parent")
            continue
        if not is_exact_int(parent) or not 0 <= parent < k:
            diags.append(f"{where}.parent: expected an index below {k}")
        sat = p.get("satellite_of")
        if sat is not None and (not is_exact_int(sat) or not 0 <= sat < k or sat == parent):
            diags.append(f"{where}.satellite_of: expected a distinct index below {k}")
        tangent = p.get("tangent")
        if tangent is not None:
            try:
                parse_tangent(tangent)
            except ValidationError as exc:
                diags.append(f"{where}.tangent: {exc}")
    return diags


def cluster_from_doc(doc) -> BlowupCluster:
    diags = validate_cluster_doc(doc)
    if diags:
        raise ValidationError("invalid cluster document: " + "; ".join(diags))
    pts = tuple(
        ClusterPoint(p.get("parent"), p.get("satellite_of"), parse_tangent(p.get("tangent")))
        for p in doc["points"]
    )
    return BlowupCluster(pts)


# -- the combinatorial outputs ------------------------------------------------


def simulate(cluster: BlowupCluster) -> DualGraph:
    """Dual graph of the composite blow-up, built one center at a time.

    Each blow-up adds a fresh (-1)-vertex joined to the components through
    the center, drops those components' weights by one, and separates the
    two components meeting at a satellite center.
    """
    vertices = tuple(GraphVertex(i, w, 0) for i, w in enumerate(cluster.self_ints))
    return DualGraph(vertices, cluster.edges)


def proximity_matrix(cluster: BlowupCluster) -> ExactMatrix:
    """Lower unitriangular P with P[i][j] = -1 exactly when center i is
    proximate to center j."""
    n = cluster.n
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
        for j in cluster.prox[i]:
            rows[i][j] = -1
    return ExactMatrix.from_rows(rows)


def intersection_from_proximity(P: ExactMatrix) -> ExactMatrix:
    """-P^t P; must coincide with the simulated intersection matrix."""
    if any(P.rows[i][i] != 1 or any(P.rows[i][i + 1:]) for i in range(P.n)):
        raise ValidationError("proximity matrix must be lower unitriangular")
    return P.transpose().mul(P).neg()


def canonical_coeffs(cluster: BlowupCluster) -> tuple[int, ...]:
    """Coefficients of the exceptional canonical divisor of the composite blow-up.

    The recursion a_i = 1 + sum of a_j over the centers j that i is
    proximate to reproduces how the canonical class gains one plus the
    ambient coefficients under each point blow-up.
    """
    return tuple(cluster.unfold([1] * cluster.n))


def germ_touch_count(cluster: BlowupCluster, last: int) -> int:
    """Number of centers touching the strict transform of a marked smooth germ.

    The germ is the one through the origin whose lift ends transversely on
    component ``last``; its centers are the parent chain of that component,
    which must consist of free points.  A free point is proximate to its parent
    alone, and a satellite on the chain puts itself into the proximity closure
    of ``last``: the chain is free exactly when the closure is, past the origin,
    and is then the closure.  The count equals the canonical coefficient of the
    last component.
    """
    chain = closure_indices(cluster, last)
    if not all(map(cluster.is_free, chain[1:])):
        raise ValidationError(
            f"component {last} sits over a satellite center; no smooth germ "
            f"through the origin has its lift ending there"
        )
    count = len(chain)
    if count != canonical_coeffs(cluster)[last]:
        raise InternalInvariantError(
            f"germ through component {last} touches {count} centers, "
            f"but its canonical coefficient differs"
        )
    return count


def closure_indices(cluster: BlowupCluster, *seeds: int) -> tuple[int, ...]:
    """All ancestors of the seeds under the proximity relation, seeds included, in
    one backward pass: every proximity points to an earlier center."""
    for s in seeds:
        if not is_exact_int(s) or not 0 <= s < cluster.n:
            raise ValidationError(f"point index {s!r} out of range for a {cluster.n}-point cluster")
    seen = set(seeds)
    for i in range(max(seeds, default=0), 0, -1):
        if i in seen:
            seen.update(cluster.prox[i])
    return tuple(sorted(seen))


def minimal_joint_model(cluster: BlowupCluster, e: int, f: int) -> BlowupCluster:
    """The smallest sub-cluster in which both chosen components appear.

    Keeps the proximity closure of the two centers, reindexed in the same
    order, with tangent parameters unchanged.
    """
    keep = closure_indices(cluster, e, f)
    index = {old: new for new, old in enumerate(keep)}
    pts = []
    for old in keep:
        p = cluster.points[old]
        pts.append(
            ClusterPoint(
                None if p.parent is None else index[p.parent],
                None if p.satellite_of is None else index[p.satellite_of],
                p.tangent,
            )
        )
    return BlowupCluster(tuple(pts))


def pair_graph(cluster: BlowupCluster, e: int, f: int) -> DualGraph:
    """Dual graph of the minimal joint model, with labels E and F attached.

    The labeled graph is the topological fingerprint of the ordered pair of
    divisorial valuations; feed it to canonical_key for table lookups.
    A single vertex carries both labels when e equals f.  The closure holds
    every center a kept center is proximate to, so the joint model replays the
    parent's kept blow-ups on the kept components; no sub-cluster is built.
    """
    keep = closure_indices(cluster, e, f)
    index = {old: new for new, old in enumerate(keep)}
    self_ints: list[int] = []
    alive: set[tuple[int, int]] = set()
    for old in keep:
        _blow_up(tuple(index[s] for s in cluster.prox[old]), self_ints, alive)
    labels = {e: {"E"}}
    labels.setdefault(f, set()).add("F")
    vertices = tuple(GraphVertex(i, w, 0, labels.get(old, ())) for i, (old, w) in enumerate(zip(keep, self_ints)))
    return DualGraph(vertices, tuple(alive))


# -- enumeration and fixtures -------------------------------------------------


def enumerate_proximity_structures(max_points: int) -> Iterator[BlowupCluster]:
    """Every proximity structure on at most ``max_points`` centers, tangent-free.

    Each new center is either free on one of the existing components or a
    satellite on one of the surviving intersections; enumeration follows
    the creation order, so distinct sequences are reported separately.
    """
    if not is_exact_int(max_points):
        raise ValidationError(f"max_points must be an integer, got {max_points!r}")
    if max_points > MAX_POINTS:
        raise ValidationError(f"enumeration capped at {MAX_POINTS} points")
    if max_points < 1:
        raise ValidationError(f"max_points {max_points} is below 1")

    def rec(cluster: BlowupCluster):
        yield cluster
        if cluster.n == max_points:
            return
        free = [ClusterPoint(parent) for parent in range(cluster.n)]
        satellites = [ClusterPoint(hi, lo) for lo, hi in cluster.edges]
        for point in free + satellites:
            yield from rec(BlowupCluster(cluster.points + (point,)))

    return rec(BlowupCluster((ClusterPoint(),)))


def enumerate_tangent_assignments(
    structure: BlowupCluster, pool: tuple[Tangent, ...]
) -> Iterator[BlowupCluster]:
    """All clusters obtained by giving every free point a tangent from ``pool``.

    Assignments that would collide with an existing direction on the parent
    component (another sibling, or a crossing component) are skipped, since
    such a point would not be free.
    """

    def rec(prefix: BlowupCluster):
        i = prefix.n
        if i == structure.n:
            yield prefix
            return
        point = structure.points[i]
        if structure.is_free(i):
            taken = prefix.forbidden_slopes(point.parent)
            choices = [ClusterPoint(point.parent, None, t) for t in pool if t not in taken]
        else:
            choices = [point]
        for choice in choices:
            yield from rec(BlowupCluster(prefix.points + (choice,)))

    yield from rec(BlowupCluster(structure.points[:1]))


# the named clusters besides the chains, as (parent, satellite_of, tangent) specs
_NAMED_CLUSTERS = {
    "twodir": ((None,), (0, None, Fraction(0)), (0, None, Fraction(1))),
    "satellite3": ((None,), (0, None, Fraction(0)), (1, 0)),
}
# chain1..chain24: the free points of tangent 0, each on the last component
_CHAINS = {f"chain{n}": n for n in range(1, MAX_POINTS + 1)}


def cluster_fixture(name: str) -> BlowupCluster:
    """Small named clusters used by the command line and the walkthroughs."""
    key = name.strip().lower()
    if key in _CHAINS:
        chain = [(i, None, Fraction(0)) for i in range(_CHAINS[key] - 1)]
        return BlowupCluster.from_specs([(None,), *chain])
    if key not in _NAMED_CLUSTERS:
        raise ValidationError(
            f"unknown cluster fixture {name!r}; expected chain1..chain{MAX_POINTS}, twodir or satellite3"
        )
    return BlowupCluster.from_specs(_NAMED_CLUSTERS[key])


def cluster_fixture_names() -> tuple[str, ...]:
    return (*_CHAINS, *_NAMED_CLUSTERS)
