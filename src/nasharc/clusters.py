"""Constellations of infinitely near points over a smooth surface origin.

A cluster is an ordered list of blow-up centers: the origin first, then
points each lying on one exceptional component of the model built so far
(free points) or on the intersection of two of them (satellite points).
Free points may carry an exact rational tangent parameter, or the marker
``INF``, selecting their direction on the parent component; the parameter
is only consulted by the polynomial computations, never by the purely
combinatorial ones.

The dual graph of the composite blow-up is obtained by direct simulation,
one center at a time; the classical proximity matrix gives an independent
route to the same intersection lattice through M = -P^t P.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .dual_graphs import DualGraph, GraphVertex
from .errors import InternalInvariantError, ValidationError
from .exact_linalg import ExactMatrix
from .rationals import INF, Tangent, _Infinity, format_tangent, parse_tangent

MAX_POINTS = 24


@dataclass(frozen=True)
class ClusterPoint:
    """One blow-up center: its component references and optional tangent."""

    parent: int | None = None
    satellite_of: int | None = None
    tangent: Tangent | None = None


@dataclass(frozen=True)
class BlowupCluster:
    points: tuple[ClusterPoint, ...]

    def __post_init__(self):
        if not self.points:
            raise ValidationError("a cluster needs at least one point, the origin")
        object.__setattr__(self, "_geometry", _Geometry(self.points))

    @classmethod
    def from_specs(cls, specs: Iterable) -> "BlowupCluster":
        """Build from (parent, satellite_of, tangent) tuples; shorter tuples allowed."""
        pts = []
        for spec in specs:
            if isinstance(spec, ClusterPoint):
                pts.append(spec)
                continue
            spec = tuple(spec)
            parent = spec[0] if spec else None
            satellite_of = spec[1] if len(spec) > 1 else None
            tangent = spec[2] if len(spec) > 2 else None
            pts.append(ClusterPoint(parent, satellite_of, tangent))
        return cls(tuple(pts))

    @property
    def n(self) -> int:
        return len(self.points)

    def geometry(self) -> "_Geometry":
        return self._geometry

    def kept(self, build: Callable[["BlowupCluster"], object]):
        """``build(self)``, computed once and kept on the immutable cluster as ``build.__name__``."""
        value = self.__dict__.get(build.__name__)
        if value is None:
            value = build(self)
            object.__setattr__(self, build.__name__, value)
        return value

    def proximities(self, i: int) -> tuple[int, ...]:
        """Indices of the earlier centers whose components pass through point i."""
        return self._geometry.prox[i]

    def is_free(self, i: int) -> bool:
        return self.points[i].satellite_of is None and i > 0

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


# directions on a component taken by the components crossing it, by chart kind
_CROSSING_SLOPES = {
    "root": (),
    "free": (INF,),
    "free_inf": (Fraction(0),),
    "sat_x": (Fraction(0), INF),
    "sat_y": (Fraction(0), INF),
}


def _forbidden_slopes(kinds, points, component: int) -> set:
    """Directions on a component unavailable to a new free point among ``points``:
    those of the crossing components and the tangents of its free children."""
    taken = set(_CROSSING_SLOPES[kinds[component]])
    taken.update(
        p.tangent
        for p in points
        if p.parent == component and p.satellite_of is None and p.tangent is not None
    )
    return taken


class _Geometry:
    """One validating replay of the blow-up sequence, kept as its results.

    Per center: the earlier centers whose components pass through it
    (``prox``), the chart kind used to reach it (``kinds``) and the final
    self-intersection of its component (``self_ints``); for the model, the
    intersections that survive every blow-up (``edges``, sorted pairs).
    During the replay each component through a center occupies one local
    coordinate axis of the chart there; the axis letters fix the chart kind
    of a later satellite, and the chart kinds fix the directions a free
    point must avoid.
    """

    def __init__(self, points: tuple[ClusterPoint, ...]):
        self.points = points
        prox: list[tuple[int, ...]] = []
        kinds: list[str] = []
        self_ints: list[int] = []
        axes: list[dict[int, str]] = []
        alive: set[tuple[int, int]] = set()
        for i, point in enumerate(points):
            if i >= MAX_POINTS:
                raise ValidationError(f"clusters are capped at {MAX_POINTS} points")
            if i == 0:
                if point.parent is not None or point.satellite_of is not None:
                    raise ValidationError("point 0 is the origin and has no parent")
                if point.tangent is not None:
                    raise ValidationError("point 0 carries no tangent parameter")
                prox.append(())
                kinds.append("root")
                axes.append({})
                self_ints.append(-1)
                continue

            parent = point.parent
            if parent is None or not isinstance(parent, int) or isinstance(parent, bool):
                raise ValidationError(f"points[{i}].parent: expected an index below {i}")
            if not 0 <= parent < i:
                raise ValidationError(f"points[{i}].parent: index {parent} must be below {i}")

            if point.satellite_of is None:
                tangent = point.tangent
                if tangent is not None and not isinstance(tangent, (Fraction, int, _Infinity)):
                    raise ValidationError(f"points[{i}].tangent: expected a rational or inf")
                if tangent is not None and tangent in _forbidden_slopes(kinds, points[:i], parent):
                    raise ValidationError(
                        f"points[{i}].tangent: direction {format_tangent(tangent)} on component "
                        f"{parent} is already occupied by another component or sibling"
                    )
                here = (parent,)
                kind = "free_inf" if isinstance(tangent, _Infinity) else "free"
                chart = {parent: "y" if kind == "free_inf" else "x"}
            else:
                other = point.satellite_of
                if not isinstance(other, int) or isinstance(other, bool) or not 0 <= other < i:
                    raise ValidationError(f"points[{i}].satellite_of: index must be below {i}")
                if other == parent:
                    raise ValidationError(f"points[{i}].satellite_of: must differ from parent")
                if point.tangent is not None:
                    raise ValidationError(f"points[{i}].tangent: satellite points carry no tangent")
                here = tuple(sorted((parent, other)))
                if here not in alive:
                    raise ValidationError(
                        f"points[{i}]: components {parent} and {other} do not intersect "
                        f"in the model before this blow-up"
                    )
                lo, hi = here
                letter = axes[hi][lo]
                kind = "sat_x" if letter == "x" else "sat_y"
                # chart B keeps the old component on the x-axis; chart A on the y-axis
                chart = {hi: "y", lo: "x"} if letter == "x" else {hi: "x", lo: "y"}

            for s in here:
                self_ints[s] -= 1
                alive.add((s, i))
            alive.discard(here)  # a satellite center separates its two components
            prox.append(here)
            kinds.append(kind)
            axes.append(chart)
            self_ints.append(-1)
        self.prox = tuple(prox)
        self.kinds = tuple(kinds)
        self.self_ints = tuple(self_ints)
        self.edges = tuple(sorted(alive))

    def forbidden_slopes(self, component: int) -> set:
        """Directions on a component unavailable to a new free point."""
        return _forbidden_slopes(self.kinds, self.points, component)


CLUSTER_SCHEMA = "cluster/1"


def validate_cluster_doc(doc) -> list[str]:
    """Schema diagnostics for a cluster document; empty means structurally valid."""
    diags: list[str] = []
    if not isinstance(doc, dict):
        return ["document: expected a JSON object"]
    if doc.get("schema") != CLUSTER_SCHEMA:
        diags.append(f"schema: expected {CLUSTER_SCHEMA!r}, got {doc.get('schema')!r}")
        return diags
    points = doc.get("points")
    if not isinstance(points, list) or not points:
        diags.append("points: expected a non-empty list")
        return diags
    for k, p in enumerate(points):
        where = f"points[{k}]"
        if not isinstance(p, dict):
            diags.append(f"{where}: expected an object")
            continue
        parent = p.get("parent")
        if k == 0:
            if parent is not None:
                diags.append(f"{where}.parent: the origin has no parent")
            continue
        if isinstance(parent, bool) or not isinstance(parent, int) or not 0 <= parent < k:
            diags.append(f"{where}.parent: expected an index below {k}")
        sat = p.get("satellite_of")
        if sat is not None and (isinstance(sat, bool) or not isinstance(sat, int) or not 0 <= sat < k or sat == parent):
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


def cluster_from_json(text: str) -> BlowupCluster:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"cluster document is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    return cluster_from_doc(doc)


# -- the combinatorial outputs ------------------------------------------------


def simulate(cluster: BlowupCluster) -> DualGraph:
    """Dual graph of the composite blow-up, built one center at a time.

    Each blow-up adds a fresh (-1)-vertex joined to the components through
    the center, drops those components' weights by one, and separates the
    two components meeting at a satellite center.
    """
    geom = cluster.geometry()
    vertices = tuple(GraphVertex(i, w, 0) for i, w in enumerate(geom.self_ints))
    return DualGraph(vertices, geom.edges)


def proximity_matrix(cluster: BlowupCluster) -> ExactMatrix:
    """Lower unitriangular P with P[i][j] = -1 exactly when center i is
    proximate to center j."""
    n = cluster.n
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
        for j in cluster.proximities(i):
            rows[i][j] = -1
    return ExactMatrix.from_rows(rows)


def intersection_from_proximity(P: ExactMatrix) -> ExactMatrix:
    """-P^t P; must coincide with the simulated intersection matrix."""
    n = P.n
    for i in range(n):
        if P.rows[i][i] != 1:
            raise ValidationError("proximity matrix must be lower unitriangular")
        for j in range(i + 1, n):
            if P.rows[i][j] != 0:
                raise ValidationError("proximity matrix must be lower unitriangular")
    return P.transpose().mul(P).neg()


def _unfold(cluster: BlowupCluster, values) -> list[int]:
    """P^-1 values, by forward substitution over the proximity lists:
    out_i = values_i + the sum of out_j over the centers j that i is proximate to."""
    out = list(values)
    for i, here in enumerate(cluster.geometry().prox):
        for j in here:
            out[i] += out[j]
    return out


def canonical_coeffs(cluster: BlowupCluster) -> tuple[int, ...]:
    """Coefficients of the exceptional canonical divisor of the composite blow-up.

    The recursion a_i = 1 + sum of a_j over the centers j that i is
    proximate to reproduces how the canonical class gains one plus the
    ambient coefficients under each point blow-up.
    """
    return tuple(_unfold(cluster, [1] * cluster.n))


def germ_touch_count(cluster: BlowupCluster, last: int) -> int:
    """Number of centers touching the strict transform of a marked smooth germ.

    The germ is the one through the origin whose lift ends transversely on
    component ``last``; its centers are exactly the parent chain of that
    component, which must consist of free points.  The count equals the
    canonical coefficient of the last component.
    """
    _check_index(cluster, last)
    chain = [last]
    while True:
        point = cluster.points[chain[-1]]
        if point.parent is None:
            break
        if point.satellite_of is not None:
            raise ValidationError(
                f"component {last} sits over a satellite center; no smooth germ "
                f"through the origin has its lift ending there"
            )
        chain.append(point.parent)
    count = len(chain)
    if count != canonical_coeffs(cluster)[last]:
        raise InternalInvariantError(
            f"germ through component {last} touches {count} centers, "
            f"but its canonical coefficient differs"
        )
    return count


def _check_index(cluster: BlowupCluster, i: int):
    if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < cluster.n:
        raise ValidationError(f"point index {i!r} out of range for a {cluster.n}-point cluster")


def closure_indices(cluster: BlowupCluster, *seeds: int) -> tuple[int, ...]:
    """All ancestors of the seeds under the proximity relation, seeds included."""
    for s in seeds:
        _check_index(cluster, s)
    seen = set(seeds)
    stack = list(seeds)
    while stack:
        for j in cluster.proximities(stack.pop()):
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return tuple(sorted(seen))


def minimal_joint_model(cluster: BlowupCluster, e: int, f: int) -> BlowupCluster:
    """The smallest sub-cluster in which both chosen components appear.

    Keeps the proximity closure of the two centers, reindexed in the same
    order, with tangent parameters carried along unchanged.
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
    A single vertex carries both labels when e equals f.
    """
    keep = closure_indices(cluster, e, f)
    index = {old: new for new, old in enumerate(keep)}
    graph = simulate(minimal_joint_model(cluster, e, f))
    extra: dict[int, set[str]] = {index[e]: {"E"}}
    extra.setdefault(index[f], set()).add("F")
    return graph.with_labels(extra)


# -- enumeration and fixtures -------------------------------------------------


def enumerate_proximity_structures(
    max_points: int, min_points: int = 1
) -> Iterator[BlowupCluster]:
    """Every proximity structure on at most ``max_points`` centers, tangent-free.

    Each new center is either free on one of the existing components or a
    satellite on one of the surviving intersections; enumeration follows
    the creation order, so distinct sequences are reported separately.
    """
    if max_points > MAX_POINTS:
        raise ValidationError(f"enumeration capped at {MAX_POINTS} points")
    if max_points < max(1, min_points):
        raise ValidationError(f"max_points {max_points} is below 1 or below min_points {min_points}")

    def rec(cluster: BlowupCluster):
        if cluster.n >= min_points:
            yield cluster
        if cluster.n == max_points:
            return
        free = [ClusterPoint(parent) for parent in range(cluster.n)]
        satellites = [ClusterPoint(hi, lo) for lo, hi in cluster.geometry().edges]
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
            taken = prefix.geometry().forbidden_slopes(point.parent)
            choices = [ClusterPoint(point.parent, None, t) for t in pool if t not in taken]
        else:
            choices = [point]
        for choice in choices:
            yield from rec(BlowupCluster(prefix.points + (choice,)))

    yield from rec(BlowupCluster(structure.points[:1]))


def cluster_fixture(name: str) -> BlowupCluster:
    """Small named clusters used by the command line and the walkthroughs."""
    key = name.strip().lower()
    if key.startswith("chain") and key[5:].isdigit():
        n = int(key[5:])
        if not 1 <= n <= MAX_POINTS:
            raise ValidationError(f"chain fixtures exist for 1..{MAX_POINTS} points")
        pts = [ClusterPoint()] + [
            ClusterPoint(i, None, Fraction(0)) for i in range(n - 1)
        ]
        return BlowupCluster(tuple(pts))
    if key == "twodir":
        return BlowupCluster(
            (
                ClusterPoint(),
                ClusterPoint(0, None, Fraction(0)),
                ClusterPoint(0, None, Fraction(1)),
            )
        )
    if key == "satellite3":
        return BlowupCluster(
            (
                ClusterPoint(),
                ClusterPoint(0, None, Fraction(0)),
                ClusterPoint(1, 0),
            )
        )
    raise ValidationError(
        f"unknown cluster fixture {name!r}; expected chainN, twodir or satellite3"
    )


def cluster_fixture_names() -> tuple[str, ...]:
    return ("chain1", "chain2", "chain3", "chain4", "chain5", "twodir", "satellite3")
