"""Canonical keys for decorated dual graphs.

Two graphs receive the same key exactly when some bijection of vertices
matches weights, genera, label sets and edge multiplicities.  The key is a
byte-exact serialization of a canonical form, so it can be stored in files
and compared across processes.

The canonical form is found by iterative color refinement seeded with
(self-intersection, genus, labels, degree), followed by full backtracking
over every non-singleton color class, keeping the lexicographically
smallest adjacency encoding.  Graphs in this problem domain are small, so
the search favors correctness over asymptotic cleverness.
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


def _initial_partition(graph: DualGraph, mult: list[list[int]]) -> Partition:
    n = graph.n
    degrees = [sum(mult[i]) for i in range(n)]
    sig = {
        i: (v.self_int, v.genus, tuple(sorted(v.labels)), degrees[i])
        for i, v in enumerate(graph.vertices)
    }
    cells: dict = {}
    for i in range(n):
        cells.setdefault(sig[i], []).append(i)
    return tuple(tuple(cells[s]) for s in sorted(cells))


def _refine(partition: Partition, mult: list[list[int]]) -> Partition:
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
                nbr = tuple(
                    sorted((color[u], mult[v][u]) for u in range(len(mult)) if mult[v][u])
                )
                buckets.setdefault(nbr, []).append(v)
            for key in sorted(buckets):
                new_cells.append(tuple(buckets[key]))
        refined = tuple(new_cells)
        if len(refined) == len(partition):
            return refined
        partition = refined


def _encode(order: list[int], graph: DualGraph, mult: list[list[int]]):
    deco = tuple(
        (graph.vertices[v].self_int, graph.vertices[v].genus, tuple(sorted(graph.vertices[v].labels)))
        for v in order
    )
    adj = []
    n = graph.n
    for a in range(n):
        for b in range(a + 1, n):
            m = mult[order[a]][order[b]]
            if m:
                adj.append((a, b, m))
    return (deco, tuple(sorted(adj)))


def _canonical_form(graph: DualGraph):
    n = graph.n
    index = {v.id: i for i, v in enumerate(graph.vertices)}
    mult = [[0] * n for _ in range(n)]
    for a, b in graph.edges:
        i, j = index[a], index[b]
        mult[i][j] += 1
        mult[j][i] += 1

    best = None

    def search(partition: Partition):
        nonlocal best
        partition = _refine(partition, mult)
        target = next((k for k, cell in enumerate(partition) if len(cell) > 1), None)
        if target is None:
            enc = _encode([cell[0] for cell in partition], graph, mult)
            if best is None or enc < best:
                best = enc
            return
        head = partition[:target]
        cell = partition[target]
        tail = partition[target + 1 :]
        for v in cell:
            rest = tuple(u for u in cell if u != v)
            search(head + ((v,), rest) + tail)

    if n == 0:
        return ((), ())
    search(_initial_partition(graph, mult))
    return best


def canonical_key(graph: DualGraph) -> CanonicalKey:
    """Relabeling-invariant key, sensitive to weights, genera, labels and edges."""
    deco, adj = _canonical_form(graph)
    payload = {
        "v": [[si, g, list(labels)] for si, g, labels in deco],
        "e": [[a, b, m] for a, b, m in adj],
    }
    text = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return CanonicalKey(text.encode("utf-8"))
