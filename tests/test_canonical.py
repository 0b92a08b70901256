import json
import random
import time
from fractions import Fraction

import pytest
from helpers import canonical_form_oracle, pair_graph_joint_model, random_decorated_graph, with_labels

import nasharc.canonical as canonical
from nasharc import (
    BlowupCluster,
    DualGraph,
    canonical_key,
    enumerate_proximity_structures,
    pair_graph,
    simulate,
    standard_fixture,
)


def _shuffled(graph: DualGraph, rng: random.Random) -> DualGraph:
    ids = list(graph.ids)
    target = list(ids)
    rng.shuffle(target)
    return graph.relabel(dict(zip(ids, target)))


def test_relabeling_invariance_a2():
    first = standard_fixture("A2").relabel({0: 1, 1: 2})
    second = standard_fixture("A2").relabel({0: 7, 1: 3})
    assert canonical_key(first).key == canonical_key(second).key


def test_empty_graph_has_the_empty_key():
    assert canonical_key(DualGraph((), ())).as_text() == '{"e":[],"v":[]}'


def test_chain_and_star_differ():
    chain = DualGraph.build([(0, -2), (1, -2), (2, -2), (3, -2)], [(0, 1), (1, 2), (2, 3)])
    star = DualGraph.build([(0, -2), (1, -2), (2, -2), (3, -2)], [(0, 1), (0, 2), (0, 3)])
    assert canonical_key(chain).key != canonical_key(star).key


def test_label_orbit_sensitivity():
    base = standard_fixture("A3")
    on_end = with_labels(base, {0: ("E",)})
    on_other_end = with_labels(base, {2: ("E",)})
    on_middle = with_labels(base, {1: ("E",)})
    # the two chain ends are swapped by an automorphism, the middle is not
    assert canonical_key(on_end).key == canonical_key(on_other_end).key
    assert canonical_key(on_end).key != canonical_key(on_middle).key


def test_weight_genus_and_multiplicity_sensitivity():
    flat = DualGraph.build([(0, -2), (1, -2)], [(0, 1)])
    heavier = DualGraph.build([(0, -2), (1, -3)], [(0, 1)])
    curve = DualGraph.build([(0, -2), (1, -2, 1)], [(0, 1)])
    doubled = DualGraph.build([(0, -2), (1, -2)], [(0, 1), (0, 1)])
    keys = {canonical_key(g).key for g in (flat, heavier, curve, doubled)}
    assert len(keys) == 4


def test_stability_under_random_relabelings():
    rng = random.Random(5)
    for name in ("A6", "D5", "E6"):
        graph = with_labels(standard_fixture(name), {2: ("E",), 4: ("F",)})
        reference = canonical_key(graph).key
        for _ in range(200):
            assert canonical_key(_shuffled(graph, rng)).key == reference


def test_stability_on_random_decorated_graphs():
    rng = random.Random(17)
    for _ in range(40):
        graph = random_decorated_graph(rng, max_vertices=8)
        reference = canonical_key(graph).key
        for _ in range(25):
            assert canonical_key(_shuffled(graph, rng)).key == reference


def test_key_bytes_are_the_compact_sorted_json_of_the_form():
    """Verdict stores on disk hold these bytes: labels needing escapes, an empty
    label set, string and int ids and a double edge keep the json.dumps form."""
    graph = DualGraph.build(
        [("a", -2, 0, {'quo"te', "back\\slash", "é"}), (1, -3, 1), ("b", -1, 2, {"E"})],
        [("a", 1), (1, "a"), ("b", 1)],
    )
    deco, adj = canonical._canonical_form(graph)
    payload = {"v": [[si, g, list(labels)] for si, g, labels in deco], "e": [[a, b, m] for a, b, m in adj]}
    key = canonical_key(graph).key
    assert key == json.dumps(payload, separators=(",", ":"), sort_keys=True).encode()
    assert b"\\u00e9" in key and b'quo\\"te' in key and b"back\\\\slash" in key
    assert any(m == 2 for _, _, m in adj)  # the double edge


def test_key_is_deterministic_bytes():
    graph = standard_fixture("D4")
    key = canonical_key(graph)
    assert isinstance(key.key, bytes)
    assert key.key == canonical_key(graph).key
    assert len(key.digest_hex()) == 64
    assert " " not in key.as_text()


def _star_cluster(k: int, legs: int = 1) -> BlowupCluster:
    """k free points at the origin with distinct tangents, each carrying a
    chain of ``legs`` free points."""
    specs = [(None,)] + [(0, None, Fraction(t)) for t in range(k)]
    for level in range(1, legs):
        specs += [(1 + (level - 1) * k + j, None, Fraction(0)) for j in range(k)]
    return BlowupCluster.from_specs(specs)


def _tree(branching) -> DualGraph:
    """A tree of -2 vertices: the root has ``branching[0]`` children, each of
    those ``branching[1]``, and so on; ``[k, 1]`` is k legs of two."""
    vertices, edges, level = [(0, -2)], [], [0]
    for k in branching:
        nxt = []
        for parent in level:
            for _ in range(k):
                nxt.append(len(vertices))
                edges.append((parent, len(vertices)))
                vertices.append((len(vertices), -2))
        level = nxt
    return DualGraph.build(vertices, edges)


def test_keys_equal_the_oracle_on_small_structures():
    """Every pair graph and whole dual graph of every structure on <= 6 points;
    each pair graph equals the one replayed from its minimal joint model."""
    for cluster in enumerate_proximity_structures(6):
        graphs = [simulate(cluster)]
        for e in range(cluster.n):
            for f in range(cluster.n):
                graphs.append(pair_graph(cluster, e, f))
                assert graphs[-1].to_doc() == pair_graph_joint_model(cluster, e, f).to_doc()
        for graph in graphs:
            assert canonical_key(graph).key == canonical_form_oracle(graph)


@pytest.mark.parametrize("k, legs", [(4, 1), (4, 2), (5, 1), (5, 2), (6, 1)])
def test_keys_equal_the_oracle_on_whole_stars(k, legs):
    rng = random.Random(k * 10 + legs)
    graph = simulate(_star_cluster(k, legs))
    expected = canonical_form_oracle(graph)
    assert canonical_key(graph).key == expected
    for _ in range(5):
        assert canonical_key(_shuffled(graph, rng)).key == expected


def test_keys_equal_the_oracle_on_random_decorated_graphs():
    """Multi-edges, adjacent twins, labels and genera."""
    rng = random.Random(23)
    for _ in range(2000):
        graph = random_decorated_graph(rng)
        assert canonical_key(graph).key == canonical_form_oracle(graph)


def _lcf(n: int, jumps) -> list[tuple[int, int]]:
    """Edges of the cubic graph on a Hamiltonian n-cycle with LCF chords."""
    chords = {frozenset((i, (i + jumps[i % len(jumps)]) % n)) for i in range(n)}
    return [(i, (i + 1) % n) for i in range(n)] + [tuple(sorted(c)) for c in chords]


REGULAR = {
    # refinement splits nothing in a regular graph, so every vertex is
    # branched on; Frucht's graph has no automorphism but the identity
    "frucht": DualGraph.build([(i, -3) for i in range(12)], _lcf(12, [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2])),
    "petersen": DualGraph.build(
        [(i, -3) for i in range(10)],
        [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)],
    ),
    "triangles and hexagon": DualGraph.build(
        [(i, -2) for i in range(12)],
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] + [(6 + i, 6 + (i + 1) % 6) for i in range(6)],
    ),
}


@pytest.mark.parametrize("name", sorted(REGULAR))
def test_keys_equal_the_oracle_on_regular_graphs(name):
    rng = random.Random(name)
    graph = REGULAR[name]
    expected = canonical_form_oracle(graph)
    for _ in range(10):
        assert canonical_key(_shuffled(graph, rng)).key == expected


def test_twelve_identical_leaves_reach_one_leaf_encoding(monkeypatch):
    calls = []
    encode = canonical._encode

    def spy(*args):
        calls.append(args[0])
        return encode(*args)

    monkeypatch.setattr(canonical, "_encode", spy)
    canonical_key(_tree([12]))
    assert len(calls) == 1


@pytest.mark.parametrize(
    "graph",
    [
        _tree([23]),
        _tree([11, 1]),
        _tree([7, 1, 1]),
        _tree([4, 2]),
        simulate(_star_cluster(12)),
        simulate(_star_cluster(23)),
    ],
    ids=["star23", "11 legs of 2", "7 legs of 3", "branching 4 then 2", "12 tangents", "23 tangents"],
)
def test_cluster_sized_trees_canonicalize_quickly(graph):
    """Shapes of <= 24-point clusters; a search over every ordering of the
    symmetric vertices would not finish."""
    start = time.perf_counter()
    key = canonical_key(graph).key
    assert time.perf_counter() - start < 1
    assert key == canonical_key(_shuffled(graph, random.Random(graph.n))).key
