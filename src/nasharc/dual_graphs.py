"""Weighted, genus-decorated dual graphs of resolution exceptional sets.

A vertex stands for an irreducible exceptional component, its weight for
the self-intersection number and its genus for the genus of the component;
edges (with multiplicity) record intersections between distinct
components.  Loops are rejected: every component is assumed smooth, as in
the simple-normal-crossings setting all estimates in this package rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Iterator, Mapping

from .errors import ValidationError
from .exact_linalg import ExactMatrix
from .rationals import is_exact_int

VertexId = int | str


def is_vertex_id(value) -> bool:
    """An exact integer or a string: the one test for a vertex id (1.0 and True only equal 1)."""
    return is_exact_int(value) or isinstance(value, str)


def _id_key(vid: VertexId):
    return (1, vid) if isinstance(vid, str) else (0, vid)


def _dot_quote(value) -> str:
    """A DOT quoted string: backslashes and double quotes escaped."""
    return '"' + str(value).replace("\\", "\\\\").replace('"', '\\"') + '"'


@dataclass(frozen=True)
class GraphVertex:
    id: VertexId
    self_int: int
    genus: int = 0
    labels: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        if not is_vertex_id(self.id):
            raise ValidationError(f"vertex id must be an int or string, got {self.id!r}")
        if not is_exact_int(self.self_int):
            raise ValidationError(f"self-intersection of {self.id!r} must be an integer")
        if not is_exact_int(self.genus) or self.genus < 0:
            raise ValidationError(f"genus of vertex {self.id!r} must be a non-negative integer")
        object.__setattr__(self, "labels", frozenset(self.labels))


@dataclass(frozen=True)
class DualGraph:
    """Immutable decorated multigraph; vertex order is the matrix index order."""

    vertices: tuple[GraphVertex, ...]
    edges: tuple[tuple[VertexId, VertexId], ...]

    def __post_init__(self):
        ids = [v.id for v in self.vertices]
        if len(set(ids)) != len(ids):
            raise ValidationError("vertex ids must be unique")
        known = set(ids)
        keyed = []  # (endpoint keys, edge), the smaller endpoint first
        for a, b in self.edges:
            if not (is_vertex_id(a) and is_vertex_id(b) and a in known and b in known):
                raise ValidationError(f"edge ({a!r}, {b!r}) references an unknown vertex")
            if a == b:
                raise ValidationError(f"loop edge at vertex {a!r} rejected: components are smooth")
            ka, kb = _id_key(a), _id_key(b)
            keyed.append(((ka, kb), (a, b)) if ka <= kb else ((kb, ka), (b, a)))
        keyed.sort(key=itemgetter(0))
        object.__setattr__(self, "edges", tuple(edge for _, edge in keyed))

    @classmethod
    def build(cls, vertices: Iterable, edges: Iterable = ()) -> "DualGraph":
        """Build from (id, self_int[, genus[, labels]]) tuples and id pairs."""
        vs = []
        for spec in vertices:
            vid, self_int, *rest = spec
            genus = rest[0] if rest else 0
            labels = frozenset(rest[1]) if len(rest) > 1 else frozenset()
            vs.append(GraphVertex(vid, self_int, genus, labels))
        return cls(tuple(vs), tuple((a, b) for a, b in edges))

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def _matrix(self) -> ExactMatrix:
        index = {v.id: i for i, v in enumerate(self.vertices)}
        rows = [[0] * self.n for _ in range(self.n)]
        for i, v in enumerate(self.vertices):
            rows[i][i] = v.self_int
        for a, b in self.edges:
            i, j = index[a], index[b]
            rows[i][j] += 1
            rows[j][i] += 1
        return ExactMatrix.from_rows(rows)

    @property
    def ids(self) -> tuple[VertexId, ...]:
        return tuple(v.id for v in self.vertices)

    def index_of(self, vid: VertexId) -> int:
        if is_vertex_id(vid):
            for i, v in enumerate(self.vertices):
                if v.id == vid:
                    return i
        raise ValidationError(f"unknown vertex id {vid!r}")

    def neighbours(self) -> list[dict[int, int]]:
        """For each vertex index, ``{neighbour index: edge multiplicity}``."""
        index = {v.id: i for i, v in enumerate(self.vertices)}
        nbrs: list[dict[int, int]] = [{} for _ in self.vertices]
        for a, b in self.edges:
            i, j = index[a], index[b]
            nbrs[i][j] = nbrs[j][i] = nbrs[i].get(j, 0) + 1
        return nbrs

    def is_connected(self) -> bool:
        nbrs = self.neighbours()
        seen: set[int] = set()
        stack = [0] if nbrs else []
        while stack:
            i = stack.pop()
            if i not in seen:
                seen.add(i)
                stack.extend(nbrs[i])
        return len(seen) == self.n

    def relabel(self, mapping: Mapping[VertexId, VertexId]) -> "DualGraph":
        """Rename vertex ids; decorations and adjacency travel with the vertex."""
        if set(mapping.keys()) != set(self.ids) or len(set(mapping.values())) != self.n:
            raise ValidationError("relabeling must be a bijection on the vertex ids")
        vs = tuple(
            GraphVertex(mapping[v.id], v.self_int, v.genus, v.labels) for v in self.vertices
        )
        es = tuple((mapping[a], mapping[b]) for a, b in self.edges)
        return DualGraph(vs, es)

    # -- documents -----------------------------------------------------------

    def to_doc(self) -> dict:
        return {
            "schema": GRAPH_SCHEMA,
            "vertices": [
                {
                    "id": v.id,
                    "self_int": v.self_int,
                    "genus": v.genus,
                    "labels": sorted(v.labels),
                }
                for v in self.vertices
            ],
            "edges": [[a, b] for a, b in self.edges],
        }

    def to_dot(self) -> str:
        """Export in DOT format for external renderers."""
        lines = ["graph dual_graph {"]
        for v in self.vertices:
            tags = "".join(f" {t}" for t in sorted(v.labels))
            extra = f", genus {v.genus}" if v.genus else ""
            label = _dot_quote(f"{v.id}: {v.self_int}{extra}{tags}")
            lines.append(f"  {_dot_quote(v.id)} [label={label}];")
        for a, b in self.edges:
            lines.append(f"  {_dot_quote(a)} -- {_dot_quote(b)};")
        lines.append("}")
        return "\n".join(lines) + "\n"


GRAPH_SCHEMA = "dualgraph/1"
# Graph documents only: the lattice sweep is cubic in the vertices, and its
# entries grow with the weights and repeated edges.  At these caps the worst
# shapes measured (100 vertices of weights +-9, a star or 1,000 random edges)
# take 1.2 s in ``graph check``/``euler bound`` (2 cores); 2-digit weights 2.0 s.
MAX_GRAPH_VERTICES = 100
MAX_WEIGHT_DIGITS = 1
MAX_GRAPH_EDGES = 1000


def document_items(doc, schema: str, field: str) -> list | str:
    """The ``field`` list of a ``schema`` document, or the diagnostic that stops its check:
    the document is not an object, has another schema, or no non-empty ``field`` list."""
    if not isinstance(doc, dict):
        return "document: expected a JSON object"
    if doc.get("schema") != schema:
        return f"schema: expected {schema!r}, got {doc.get('schema')!r}"
    items = doc.get(field)
    if not isinstance(items, list) or not items:
        return f"{field}: expected a non-empty list"
    return items


def object_items(field: str, items: list, diags: list[str]) -> Iterator[tuple[int, str, dict]]:
    """(index, where, item) for each object in ``items``; each other item adds a diagnostic."""
    for k, item in enumerate(items):
        if isinstance(item, dict):
            yield k, f"{field}[{k}]", item
        else:
            diags.append(f"{field}[{k}]: expected an object")


def validate_graph_doc(doc) -> list[str]:
    """Schema and invariant diagnostics for a graph document; empty means valid."""
    vertices = document_items(doc, GRAPH_SCHEMA, "vertices")
    if isinstance(vertices, str):
        return [vertices]
    if len(vertices) > MAX_GRAPH_VERTICES:
        return [f"vertices: graph documents are limited to {MAX_GRAPH_VERTICES} vertices, "
                f"got {len(vertices)}"]
    diags: list[str] = []
    seen: set = set()
    for _, where, v in object_items("vertices", vertices, diags):
        vid = v.get("id")
        if not is_vertex_id(vid):
            diags.append(f"{where}.id: expected an int or string")
        elif vid in seen:
            diags.append(f"{where}.id: duplicate id {vid!r}")
        else:
            seen.add(vid)
        si = v.get("self_int")
        if not is_exact_int(si):
            diags.append(f"{where}.self_int: expected an integer")
        elif abs(si) >= 10**MAX_WEIGHT_DIGITS:
            diags.append(f"{where}.self_int: graph documents are limited to "
                         f"{MAX_WEIGHT_DIGITS}-digit weights")
        genus = v.get("genus", 0)
        if not is_exact_int(genus) or genus < 0:
            diags.append(f"{where}.genus: expected a non-negative integer")
        labels = v.get("labels", [])
        if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
            diags.append(f"{where}.labels: expected a list of strings")
    edges = doc.get("edges", [])
    if not isinstance(edges, list):
        diags.append("edges: expected a list of id pairs")
        return diags
    if len(edges) > MAX_GRAPH_EDGES:
        return diags + [f"edges: graph documents are limited to {MAX_GRAPH_EDGES} edges, "
                        f"got {len(edges)}"]
    for k, e in enumerate(edges):
        where = f"edges[{k}]"
        if not isinstance(e, list) or len(e) != 2:
            diags.append(f"{where}: expected a pair [id, id]")
            continue
        a, b = e
        if not (is_vertex_id(a) and is_vertex_id(b) and a in seen and b in seen):
            diags.append(f"{where}: endpoint {a!r} or {b!r} is not a declared vertex")
        elif a == b:
            diags.append(f"{where}: loop at {a!r} rejected (components are smooth)")
    return diags


def graph_from_doc(doc) -> DualGraph:
    diags = validate_graph_doc(doc)
    if diags:
        raise ValidationError("invalid graph document: " + "; ".join(diags))
    vs = tuple(
        GraphVertex(v["id"], v["self_int"], v.get("genus", 0), frozenset(v.get("labels", [])))
        for v in doc["vertices"]
    )
    return DualGraph(vs, tuple((a, b) for a, b in doc.get("edges", [])))


def intersection_matrix(graph: DualGraph) -> ExactMatrix:
    """Symmetric integer matrix: weights on the diagonal, edge counts off it.

    Built on the first call and kept on the graph; both are immutable.
    """
    return graph._matrix


# -- the standard ADE fixture catalog ---------------------------------------


def _star(leg_lengths: tuple[int, ...]) -> DualGraph:
    """Genus-0, weight -2 tree: a center with legs of the given lengths."""
    vertices = [(0, -2)]
    edges = []
    nxt = 1
    for length in leg_lengths:
        prev = 0
        for _ in range(length):
            vertices.append((nxt, -2))
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return DualGraph.build(vertices, edges)


def standard_fixture(name: str) -> DualGraph:
    """The A_n (n <= 10), D_n (4 <= n <= 10), E_6, E_7, E_8 dual graphs.

    All vertices carry genus 0 and self-intersection -2.
    """
    key = name.strip().upper()
    if key not in fixture_names():
        raise ValidationError(f"unknown fixture {name!r}; expected A1..A10, D4..D10, E6, E7 or E8")
    n = int(key[1:])
    if key[0] == "A":
        return DualGraph.build([(i, -2) for i in range(n)], [(i, i + 1) for i in range(n - 1)])
    return _star((1, 1, n - 3) if key[0] == "D" else (1, 2, n - 4))


def fixture_names() -> tuple[str, ...]:
    return tuple(
        [f"A{n}" for n in range(1, 11)] + [f"D{n}" for n in range(4, 11)] + ["E6", "E7", "E8"]
    )
