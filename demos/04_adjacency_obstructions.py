#!/usr/bin/env python3
"""Walkthrough: ruling out adjacencies between Nash sets.

The engines never prove that one arc family degenerates into another;
they refute.  The valuative criterion compares curvette orders, its
refined variant accounts for an extra return, and the returns linear
system refutes wedges with prescribed return counts through negative or
non-integral solutions.
"""

import tempfile
from pathlib import Path

from nasharc import (
    KnowledgeBase,
    ObstructionStatus,
    adjacency_table,
    canonical_key,
    cluster_fixture,
    curvette_polynomial,
    intersection_matrix,
    ord_poly,
    pair_graph,
    parse_poly,
    refined_valuative_obstruction,
    returns_system,
    standard_fixture,
    valuative_obstruction,
)

satellite = cluster_fixture("satellite3")
twodir = cluster_fixture("twodir")
chain2 = cluster_fixture("chain2")

print("== the full table for the satellite triple ==")
for _, verdict in sorted(adjacency_table(satellite).items()):
    print(f"  {verdict.adjacency}: {verdict.status.value}")

print()
print("== a witness, and its explicit germ ==")
verdict = valuative_obstruction(twodir, 1, 2)
print(verdict.adjacency, "->", verdict.status.value)
print("  ", verdict.detail)
germ = curvette_polynomial(twodir, verdict.witness.point)
print(
    f"  explicit witness g = {germ}: ord_2(g) = {ord_poly(twodir, germ, 2)} "
    f"< ord_1(g) = {ord_poly(twodir, germ, 1)}"
)

print()
print("== the refined criterion sees returns ==")
refined = refined_valuative_obstruction(chain2, 1, 0, 0, parse_poly("x"))
print(refined.adjacency, "->", refined.status.value, "|", refined.detail)

print()
print("== the returns linear system ==")
for name, b in (("A1", (0,)), ("A1", (1,)), ("A2", (0, 1)), ("A2", (0, 0))):
    matrix = intersection_matrix(standard_fixture(name))
    result = returns_system(matrix, b, 0)
    pretty = ", ".join(str(v) for v in result.solution)
    print(f"{name}, b = {b}: a = ({pretty}) -> {result.verdict.status.value}")
    print(f"   {result.verdict.detail}")

print()
print("== verdicts persist under the canonical pair key ==")
with tempfile.TemporaryDirectory() as tmp:
    kb = KnowledgeBase(Path(tmp) / "verdicts.jsonl")
    key = canonical_key(pair_graph(chain2, 0, 1))
    kb.store(key, ObstructionStatus.NOT_RULED_OUT, provenance="valuative criterion")
    relabeled = pair_graph(chain2, 0, 1).relabel({0: 41, 1: 7})
    hit = kb.lookup(canonical_key(relabeled))
    print("lookup after relabeling the pair graph:", hit.status.value, "|", hit.provenance)
