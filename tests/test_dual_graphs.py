import random

import pytest
from helpers import index_disagreements, quadratic_form_negative, random_decorated_graph, with_labels

import nasharc.cli as cli
from nasharc import (
    DualGraph,
    ValidationError,
    graph_from_doc,
    intersection_matrix,
    is_negative_definite,
    standard_fixture,
    validate_graph_doc,
)
from nasharc.dual_graphs import MAX_GRAPH_VERTICES, fixture_names


def test_intersection_matrix_single_vertex():
    graph = DualGraph.build([(0, -2)])
    assert intersection_matrix(graph).rows == ((-2,),)


def test_empty_graph_is_connected():
    assert DualGraph((), ()).is_connected()


def test_intersection_matrix_a2_chain():
    graph = DualGraph.build([(0, -2), (1, -2)], [(0, 1)])
    assert [[int(v) for v in row] for row in intersection_matrix(graph).rows] == [
        [-2, 1],
        [1, -2],
    ]


def test_intersection_matrix_disconnected():
    graph = DualGraph.build([(0, -3), (1, -1)])
    assert [[int(v) for v in row] for row in intersection_matrix(graph).rows] == [
        [-3, 0],
        [0, -1],
    ]


def test_multi_edges_count_with_multiplicity():
    graph = DualGraph.build([(0, -3), (1, -3)], [(0, 1), (0, 1)])
    assert int(intersection_matrix(graph).rows[0][1]) == 2
    assert graph.neighbours() == [{1: 2}, {0: 2}]


def test_invariants_rejected():
    with pytest.raises(ValidationError):
        DualGraph.build([(0, -2), (0, -3)])  # duplicate ids
    with pytest.raises(ValidationError):
        DualGraph.build([(0, -2)], [(0, 0)])  # loop
    with pytest.raises(ValidationError):
        DualGraph.build([(0, -2)], [(0, 1)])  # dangling endpoint
    with pytest.raises(ValidationError):
        DualGraph.build([(0, -2, -1)])  # negative genus
    with pytest.raises(ValidationError, match="vertex id must be an int or string"):
        DualGraph.build([(0.0, -2)])
    with pytest.raises(ValidationError, match="self-intersection of 0 must be an integer"):
        DualGraph.build([(0, -2.0)])


@pytest.mark.parametrize("endpoint", [True, 1.0, [1]])
def test_edge_endpoints_and_lookups_follow_the_vertex_id_rule(endpoint):
    """True and 1.0 only compare equal to the id 1; a list is no id at all."""
    with pytest.raises(ValidationError, match="references an unknown vertex$"):
        DualGraph.build([(1, -2), (2, -2)], [(endpoint, 2)])
    with pytest.raises(ValidationError, match="^unknown vertex id "):
        standard_fixture("A2").index_of(endpoint)


def _mappings(graph, rng):
    """A relabelling onto fresh ids, one onto strings, and one of each way to miss a bijection."""
    ids = [v.id for v in graph.vertices]
    fresh = dict(zip(ids, rng.sample(range(100, 200), len(ids))))
    named = {vid: f"v{vid}" for vid in ids}
    first = ids[0]
    return [
        fresh,
        named,
        {vid: target for vid, target in fresh.items() if vid != first},  # an id left out
        {**fresh, "extra": 99},  # a key that names no vertex
        {**fresh, first: fresh[ids[-1]]},  # two ids onto one (fresh itself on one vertex)
        {(True if vid == 1 else vid): target for vid, target in fresh.items()},  # True only equals 1
    ]


def test_the_kept_id_index_reads_as_a_position_scan():
    """index_of, neighbours(), the intersection matrix and relabel read the one index the
    graph keeps; on the ADE fixtures and random decorated multigraphs, and on their
    relabelled copies, each agrees with a scan of the vertex positions."""
    rng = random.Random(28)
    graphs = [standard_fixture(name) for name in fixture_names()]
    graphs += [random_decorated_graph(rng) for _ in range(60)]
    for graph in graphs:
        mappings = _mappings(graph, rng)
        assert index_disagreements(graph, mappings) == set()
        for mapping in mappings[:2]:
            relabelled = graph.relabel(mapping)
            assert index_disagreements(relabelled, _mappings(relabelled, rng)) == set()


def test_relabel_is_a_bijection_requirement():
    graph = standard_fixture("A2")
    with pytest.raises(ValidationError):
        graph.relabel({0: 5, 1: 5})


def test_relabel_preserves_lattice():
    graph = standard_fixture("A3")
    relabeled = graph.relabel({0: "a", 1: "b", 2: "c"})
    assert intersection_matrix(relabeled).rows == intersection_matrix(graph).rows


def test_connectivity():
    assert standard_fixture("A4").is_connected()
    assert not DualGraph.build([(0, -2), (1, -2)]).is_connected()


@pytest.mark.parametrize("name,size", [("A1", 1), ("A10", 10), ("D4", 4), ("D10", 10), ("E6", 6), ("E7", 7), ("E8", 8)])
def test_fixture_sizes(name, size):
    graph = standard_fixture(name)
    assert graph.n == size
    assert all(v.self_int == -2 and v.genus == 0 for v in graph.vertices)
    assert graph.is_connected()
    assert len(graph.edges) == size - 1  # trees


# classical lattice determinants, frozen from the standard tables
@pytest.mark.parametrize(
    "name,absdet",
    [("A1", 2), ("A2", 3), ("A7", 8), ("D4", 4), ("D7", 4), ("E6", 3), ("E7", 2), ("E8", 1)],
)
def test_fixture_determinants(name, absdet):
    graph = standard_fixture(name)
    matrix = intersection_matrix(graph)
    assert abs(matrix.determinant()) == absdet
    assert matrix.determinant() == (-1) ** graph.n * absdet
    assert is_negative_definite(matrix)


def test_d4_is_a_star():
    graph = standard_fixture("D4")
    degrees = sorted(sum(counts.values()) for counts in graph.neighbours())
    assert degrees == [1, 1, 1, 3]


def test_small_fixture_quadratic_form():
    assert quadratic_form_negative(intersection_matrix(standard_fixture("D5")))


def test_fixture_bounds():
    with pytest.raises(ValidationError):
        standard_fixture("A11")
    with pytest.raises(ValidationError):
        standard_fixture("D3")
    with pytest.raises(ValidationError):
        standard_fixture("Z2")
    assert len(fixture_names()) == 20


def test_doc_roundtrip():
    graph = with_labels(standard_fixture("D4"), {0: ("E",)})
    doc = graph.to_doc()
    assert validate_graph_doc(doc) == []
    assert graph_from_doc(doc) == graph


def test_doc_diagnostics():
    doc = {
        "schema": "dualgraph/1",
        "vertices": [{"id": 0, "self_int": -2}, {"id": 0, "self_int": "x", "genus": -1}],
        "edges": [[0, 0], [0, 9], [0]],
    }
    diags = validate_graph_doc(doc)
    joined = "\n".join(diags)
    assert "vertices[1].id" in joined
    assert "vertices[1].self_int" in joined
    assert "vertices[1].genus" in joined
    assert "edges[0]" in joined and "loop" in joined
    assert "edges[1]" in joined
    assert "edges[2]" in joined


def test_graph_documents_are_capped_but_built_graphs_are_not():
    n = MAX_GRAPH_VERTICES + 1
    vertices = [(i, -2) for i in range(n)]
    graph = DualGraph.build(vertices, [(i, i + 1) for i in range(n - 1)])
    assert graph.n == n
    assert validate_graph_doc(graph.to_doc()) == [
        f"vertices: graph documents are limited to {MAX_GRAPH_VERTICES} vertices, got {n}"
    ]
    with pytest.raises(ValidationError, match="limited to 100 vertices"):
        graph_from_doc(graph.to_doc())
    smaller = DualGraph.build(vertices[:-1], graph.edges[:-1])
    assert graph_from_doc(smaller.to_doc()) == smaller


def test_doc_schema_version_rejected():
    assert validate_graph_doc({"schema": "dualgraph/2", "vertices": []}) != []
    with pytest.raises(ValidationError):
        graph_from_doc({"schema": "other", "vertices": [{"id": 0, "self_int": -2}]})


def test_json_syntax_error_reports_location(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{\n  'bad'", encoding="utf-8")
    assert cli.run(["graph", "check", str(path)]) == 2
    assert f"{path} is not valid JSON (line 2, column 3)" in capsys.readouterr().err


def test_dot_export_mentions_every_vertex():
    graph = with_labels(standard_fixture("A2"), {1: ("F",)})
    dot = graph.to_dot()
    assert '"0"' in dot and '"1"' in dot and "--" in dot and "F" in dot


def test_dot_export_escapes_quotes_and_backslashes():
    graph = DualGraph.build([('a"b', -2, 0, ['F"x']), ("c\\", -1)], [('a"b', "c\\")])
    assert graph.to_dot().splitlines()[1:4] == [
        '  "a\\"b" [label="a\\"b: -2 F\\"x"];',
        '  "c\\\\" [label="c\\\\: -1"];',
        '  "a\\"b" -- "c\\\\";',
    ]
