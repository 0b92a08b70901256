"""Canonical keys for decorated dual graphs.

Two graphs receive the same key exactly when some bijection of vertices
matches weights, genera, label sets and edge multiplicities.  The key is a
byte-exact serialization of a canonical form, so it can be stored in files
and compared across processes.

The canonical form is the lexicographically smallest adjacency encoding
over the leaves of a search tree: iterative color refinement seeded with
(self-intersection, genus, labels, degree), then individualization of each
vertex of the first non-singleton cell in turn.  Two prunings skip
branches whose leaves an automorphism maps onto leaves already searched
(McKay & Piperno, "Practical graph isomorphism, II", 2014):

* twins -- vertices of one cell whose multiplicities to every other vertex
  agree -- are swapped by an automorphism fixing everything else, so one
  vertex per twin class is branched on;
* two leaves with equal encodings give an automorphism; at a node, a cell
  vertex in the orbit of an already branched one, under the automorphisms
  found so far that fix the node's individualized vertices, is skipped.

An automorphism fixing a node's path maps its subtrees onto each other and
keeps every leaf encoding, so the minimum, and every key byte, is that of
the full search.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .dual_graphs import DualGraph

Partition = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class CanonicalKey:
    key: bytes

    def digest_hex(self) -> str:
        import hashlib

        return hashlib.sha256(self.key).hexdigest()

    def as_text(self) -> str:
        return self.key.decode("utf-8")


def _initial_partition(graph: DualGraph, nbrs: list[dict[int, int]]) -> Partition:
    cells: dict = {}
    for i, v in enumerate(graph.vertices):
        sig = (v.self_int, v.genus, tuple(sorted(v.labels)), sum(nbrs[i].values()))
        cells.setdefault(sig, []).append(i)
    return tuple(tuple(cells[s]) for s in sorted(cells))


def _refine(partition: Partition, nbrs: list[dict[int, int]]) -> Partition:
    while True:
        color = {}
        for ci, cell in enumerate(partition):
            for v in cell:
                color[v] = ci
        new_cells: list[tuple[int, ...]] = []
        for cell in partition:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            buckets: dict = {}
            for v in cell:
                nbr = tuple(sorted((color[u], m) for u, m in nbrs[v].items()))
                buckets.setdefault(nbr, []).append(v)
            for key in sorted(buckets):
                new_cells.append(tuple(buckets[key]))
        refined = tuple(new_cells)
        if len(refined) == len(partition):
            return refined
        partition = refined


def _encode(order: list[int], graph: DualGraph, nbrs: list[dict[int, int]]):
    deco = tuple(
        (graph.vertices[v].self_int, graph.vertices[v].genus, tuple(sorted(graph.vertices[v].labels)))
        for v in order
    )
    pos = {v: a for a, v in enumerate(order)}
    adj = [(pos[u], pos[v], m) for u in order for v, m in nbrs[u].items() if pos[u] < pos[v]]
    return (deco, tuple(sorted(adj)))


def _canonical_form(graph: DualGraph):
    n = graph.n
    nbrs = graph.neighbours()

    def twins(u: int, v: int) -> bool:
        """Whether u and v have equal multiplicities to every other vertex."""
        return {**nbrs[u], u: 0, v: 0} == {**nbrs[v], u: 0, v: 0}

    best = best_order = None
    autos: list[list[int]] = []

    def search(partition: Partition, fixed: tuple[int, ...]):
        nonlocal best, best_order
        partition = _refine(partition, nbrs)
        target = next((k for k, cell in enumerate(partition) if len(cell) > 1), None)
        if target is None:
            order = [cell[0] for cell in partition]
            enc = _encode(order, graph, nbrs)
            if best is None or enc < best:
                best, best_order = enc, order
            elif enc == best:  # best_order[i] -> order[i] is an automorphism
                auto = [0] * n
                for u, v in zip(best_order, order):
                    auto[u] = v
                autos.append(auto)
            return
        head = partition[:target]
        cell = partition[target]
        tail = partition[target + 1 :]
        orbit: set[int] = set()
        for v in cell:
            # a twin of u is its image under the automorphism swapping u and v
            if v in orbit or any(twins(u, v) for u in orbit):
                continue
            rest = tuple(u for u in cell if u != v)
            search(head + ((v,), rest) + tail, fixed + (v,))
            # the orbits of the branched vertices under the automorphisms fixing `fixed`
            gens = [g for g in autos if all(g[u] == u for u in fixed)]
            orbit.add(v)
            stack = list(orbit)
            while stack:
                u = stack.pop()
                for g in gens:
                    if g[u] not in orbit:
                        orbit.add(g[u])
                        stack.append(g[u])

    search(_initial_partition(graph, nbrs), ())
    return best


def canonical_key(graph: DualGraph) -> CanonicalKey:
    """Relabeling-invariant key, sensitive to weights, genera, labels and edges."""
    deco, adj = _canonical_form(graph)
    # the compact, key-sorted JSON of {"v": [[si, g, labels]...], "e": [[a, b, m]...]},
    # written directly: only the label strings need json's escapes
    edges = ",".join(f"[{a},{b},{m}]" for a, b, m in adj)
    verts = ",".join(f"[{si},{g},[{','.join(map(json.dumps, labels))}]]" for si, g, labels in deco)
    return CanonicalKey(f'{{"e":[{edges}],"v":[{verts}]}}'.encode("utf-8"))
