import hashlib
import itertools
import json
import time
from fractions import Fraction

import pytest
from helpers import germ_touch_count_by_walk

import nasharc.cli as cli
from nasharc import (
    INF,
    BlowupCluster,
    ClusterPoint,
    ExactMatrix,
    InternalInvariantError,
    ValidationError,
    canonical_coeffs,
    closure_indices,
    cluster_fixture,
    cluster_from_doc,
    enumerate_proximity_structures,
    enumerate_tangent_assignments,
    germ_touch_count,
    intersection_from_proximity,
    intersection_matrix,
    minimal_joint_model,
    pair_graph,
    proximity_matrix,
    simulate,
)
from nasharc.clusters import MAX_POINTS, validate_cluster_doc


def _graph_data(cluster):
    graph = simulate(cluster)
    return [v.self_int for v in graph.vertices], set(graph.edges)


SATELLITE = BlowupCluster.from_specs([(None,), (0,), (1, 0)])
TWO_DIRECTIONS = BlowupCluster.from_specs(
    [(None,), (0, None, Fraction(0)), (0, None, Fraction(1))]
)


def test_simulate_single_point():
    weights, edges = _graph_data(cluster_fixture("chain1"))
    assert weights == [-1] and edges == set()


def test_simulate_free_chain_of_two():
    weights, edges = _graph_data(cluster_fixture("chain2"))
    assert weights == [-2, -1] and edges == {(0, 1)}


def test_simulate_satellite_triple():
    weights, edges = _graph_data(SATELLITE)
    assert weights == [-3, -2, -1]
    assert edges == {(0, 2), (1, 2)}


def test_replays_share_their_index_tuples():
    # clusters hold their proximities and edges as shared tuples, not one
    # copy each: the 11,465 structures on <= 7 points take 7.1 MiB, not 15.4;
    # before first use a cluster holds only its points and the replay's results
    seen = {}
    for cluster in enumerate_proximity_structures(5):
        assert list(vars(cluster)) == ["points", "prox", "kinds", "self_ints", "edges"]
        for here in cluster.prox[1:] + cluster.edges:
            assert seen.setdefault(here, here) is here
    assert len(seen) > 10


def test_proximity_matrices():
    assert [[int(v) for v in r] for r in proximity_matrix(cluster_fixture("chain1")).rows] == [[1]]
    assert [[int(v) for v in r] for r in proximity_matrix(cluster_fixture("chain2")).rows] == [
        [1, 0],
        [-1, 1],
    ]
    assert [[int(v) for v in r] for r in proximity_matrix(SATELLITE).rows] == [
        [1, 0, 0],
        [-1, 1, 0],
        [-1, -1, 1],
    ]


def test_intersection_from_proximity_examples():
    # hand matrix products
    one = intersection_from_proximity(proximity_matrix(cluster_fixture("chain1")))
    assert [[int(v) for v in r] for r in one.rows] == [[-1]]
    chain = intersection_from_proximity(proximity_matrix(cluster_fixture("chain2")))
    assert [[int(v) for v in r] for r in chain.rows] == [[-2, 1], [1, -1]]
    sat = intersection_from_proximity(proximity_matrix(SATELLITE))
    assert [[int(v) for v in r] for r in sat.rows] == [[-3, 0, 1], [0, -2, 1], [1, 1, -1]]


def test_proximity_identity_small_exhaustive():
    for cluster in enumerate_proximity_structures(5):
        simulated = intersection_matrix(simulate(cluster))
        derived = intersection_from_proximity(proximity_matrix(cluster))
        assert simulated.rows == derived.rows


def test_intersection_from_proximity_rejects_non_triangular():
    with pytest.raises(ValidationError):
        intersection_from_proximity(intersection_matrix(simulate(SATELLITE)))
    # unit diagonal, but the proximities sit above it
    with pytest.raises(ValidationError, match="lower unitriangular"):
        intersection_from_proximity(proximity_matrix(SATELLITE).transpose())
    # lower triangular, but a diagonal entry other than 1
    with pytest.raises(ValidationError, match="lower unitriangular"):
        intersection_from_proximity(ExactMatrix.from_rows([[1, 0], [-1, 2]]))


def test_last_center_always_on_a_minus_one_vertex():
    for cluster in enumerate_proximity_structures(5):
        graph = simulate(cluster)
        assert graph.vertices[cluster.n - 1].self_int == -1


def test_canonical_coeffs():
    assert canonical_coeffs(cluster_fixture("chain1")) == (1,)
    assert canonical_coeffs(cluster_fixture("chain2")) == (1, 2)
    assert canonical_coeffs(SATELLITE) == (1, 2, 4)
    for cluster in enumerate_proximity_structures(5):
        coeffs = canonical_coeffs(cluster)
        assert all(a >= 1 for a in coeffs)
        # the defining triangular recursion, re-checked directly
        for i in range(cluster.n):
            assert coeffs[i] == 1 + sum(coeffs[j] for j in cluster.proximities(i))


def test_germ_touch_count(monkeypatch):
    assert germ_touch_count(cluster_fixture("chain1"), 0) == 1
    assert germ_touch_count(cluster_fixture("chain3"), 2) == 3
    assert germ_touch_count(TWO_DIRECTIONS, 2) == 2
    with pytest.raises(ValidationError):
        germ_touch_count(SATELLITE, 2)
    # the cross-check against the canonical coefficients survives python -O
    monkeypatch.setattr("nasharc.clusters.canonical_coeffs", lambda cluster: (1, 1, 1))
    with pytest.raises(InternalInvariantError):
        germ_touch_count(cluster_fixture("chain3"), 2)


def _outcome(count, cluster, last):
    try:
        return count(cluster, last)
    except ValidationError as exc:
        return str(exc)


def test_germ_touch_count_reads_as_the_parent_chain_walk():
    """The proximity closure of a component over free points is its parent chain: on
    every structure on <= 6 points, at every component and at indices that name none,
    the count or the refusal matches a walk up the parents."""
    for cluster in enumerate_proximity_structures(6):
        for last in (*range(cluster.n), -1, cluster.n, True):
            assert _outcome(germ_touch_count, cluster, last) == _outcome(germ_touch_count_by_walk, cluster, last)


def test_minimal_joint_model_examples():
    chain3 = cluster_fixture("chain3")
    assert minimal_joint_model(chain3, 0, 0).n == 1
    assert minimal_joint_model(chain3, 0, 2).n == 3

    cluster = BlowupCluster.from_specs(
        [(None,), (0, None, Fraction(0)), (0, None, Fraction(1)), (1,)]
    )
    sub = minimal_joint_model(cluster, 1, 2)
    assert sub.n == 3
    weights, edges = _graph_data(sub)
    assert weights == [-3, -1, -1] and edges == {(0, 1), (0, 2)}
    assert sub.points[1].tangent == Fraction(0)
    assert sub.points[2].tangent == Fraction(1)


def test_closure_indices():
    assert closure_indices(SATELLITE, 2) == (0, 1, 2)
    assert closure_indices(SATELLITE, 1) == (0, 1)
    with pytest.raises(ValidationError):
        closure_indices(SATELLITE, 5)


def test_pair_graph_degenerate_pair_carries_both_labels():
    graph = pair_graph(cluster_fixture("chain1"), 0, 0)
    assert graph.vertices[0].labels == frozenset({"E", "F"})


def test_pair_graph_chain():
    graph = pair_graph(cluster_fixture("chain2"), 0, 1)
    assert [v.self_int for v in graph.vertices] == [-2, -1]
    assert graph.vertices[0].labels == frozenset({"E"})
    assert graph.vertices[1].labels == frozenset({"F"})


def test_pair_graph_computes_its_closure_once(monkeypatch):
    import nasharc.clusters as clusters

    calls = []
    closure = clusters.closure_indices

    def spy(cluster, *seeds):
        calls.append(seeds)
        return closure(cluster, *seeds)

    monkeypatch.setattr(clusters, "closure_indices", spy)
    graph = pair_graph(cluster_fixture("chain5"), 1, 3)
    assert calls == [(1, 3)]
    assert [v.labels for v in graph.vertices] == [set(), {"E"}, set(), {"F"}]


def test_pair_graph_builds_one_graph_and_no_cluster(monkeypatch):
    import nasharc.clusters as clusters

    chain5 = cluster_fixture("chain5")
    built = []
    for cls in (clusters.BlowupCluster, clusters.DualGraph):

        def spy(self, init=cls.__post_init__):
            built.append(type(self).__name__)
            init(self)

        monkeypatch.setattr(cls, "__post_init__", spy)
    pair_graph(chain5, 1, 3)
    assert built == ["DualGraph"]


def test_pair_graph_two_directions_star():
    graph = pair_graph(TWO_DIRECTIONS, 1, 2)
    assert sorted(v.self_int for v in graph.vertices) == [-3, -1, -1]
    labels = {frozenset(v.labels) for v in graph.vertices}
    assert frozenset({"E"}) in labels and frozenset({"F"}) in labels


def test_validation_rules():
    with pytest.raises(ValidationError):
        BlowupCluster(())
    with pytest.raises(ValidationError):
        BlowupCluster.from_specs([(0,)])  # origin with a parent
    with pytest.raises(ValidationError):
        BlowupCluster.from_specs([(None,), (1,)])  # parent not below index
    with pytest.raises(ValidationError):
        BlowupCluster.from_specs([(None,), (0, 0)])  # satellite of the parent itself
    with pytest.raises(ValidationError):
        BlowupCluster.from_specs([(None, None, Fraction(1))])  # tangent on the origin
    with pytest.raises(ValidationError):
        # the two components must intersect: 0 and 1 are separated by point 2
        BlowupCluster.from_specs([(None,), (0,), (1, 0), (1, 0)])
    with pytest.raises(ValidationError):
        # satellites carry no tangent
        BlowupCluster.from_specs([(None,), (0,), (1, 0, Fraction(2))])
    # True == 1 and False == 0: a bool tangent would be walked as slope 1 or 0
    with pytest.raises(ValidationError, match=r"points\[1\]\.tangent: expected a rational or inf"):
        BlowupCluster.from_specs([(None,), (0, None, True), (1, None, False)])
    with pytest.raises(ValidationError, match=r"points\[2\]\.tangent: expected a rational or inf"):
        BlowupCluster.from_specs([(None,), (0, None, 1), (1, None, False)])


def test_tangent_collision_rules():
    with pytest.raises(ValidationError):
        BlowupCluster.from_specs(
            [(None,), (0, None, Fraction(1)), (0, None, Fraction(1))]
        )
    # the parent component crosses component 0 in the infinite direction
    with pytest.raises(ValidationError):
        BlowupCluster.from_specs([(None,), (0, None, Fraction(0)), (1, None, INF)])
    # on a satellite point both coordinate directions are taken
    with pytest.raises(ValidationError):
        BlowupCluster.from_specs([(None,), (0,), (1, 0), (2, None, Fraction(0))])
    with pytest.raises(ValidationError):
        BlowupCluster.from_specs([(None,), (0,), (1, 0), (2, None, INF)])
    # a generic direction on a satellite component is fine
    BlowupCluster.from_specs([(None,), (0,), (1, 0), (2, None, Fraction(1))])
    # INF is an honest direction at the origin
    BlowupCluster.from_specs([(None,), (0, None, INF)])


def test_soft_cap():
    with pytest.raises(ValidationError):
        BlowupCluster.from_specs([(None,)] + [(i,) for i in range(30)])


def test_enumeration_counts():
    # choices multiply as 1, 1, 3, 5, 7: sizes 1, 1, 3, 15, 105
    by_size = {}
    for cluster in enumerate_proximity_structures(5):
        by_size[cluster.n] = by_size.get(cluster.n, 0) + 1
    assert by_size == {1: 1, 2: 1, 3: 3, 4: 15, 5: 105}


def test_enumeration_refuses_empty_bounds():
    # a bound below 1, or one such as 2.5 that no size reaches, would grow
    # clusters toward MAX_POINTS without end; 3.0 and True would act as 3 and 1
    for max_points in (0, -2, MAX_POINTS + 1, 3.0, True, 2.5, "3", None):
        start = time.perf_counter()
        with pytest.raises(ValidationError):
            enumerate_proximity_structures(max_points)
        assert time.perf_counter() - start < 0.2


def test_tangent_assignment_enumeration():
    pool = (Fraction(0), Fraction(1), Fraction(-1), INF)
    chain2 = next(c for c in enumerate_proximity_structures(2) if c.n == 2)
    assert sum(1 for _ in enumerate_tangent_assignments(chain2, pool)) == 4
    two_free = BlowupCluster.from_specs([(None,), (0,), (0,)])
    # ordered pairs of distinct tangents from a pool of four
    assert sum(1 for _ in enumerate_tangent_assignments(two_free, pool)) == 12
    tower = BlowupCluster.from_specs([(None,), (0,), (1,)])
    # second level loses the direction pointing back at component 0
    assert sum(1 for _ in enumerate_tangent_assignments(tower, pool)) == 12
    for assigned in enumerate_tangent_assignments(tower, pool):
        assert assigned.points[1].tangent is not None
        assert assigned.points[2].tangent is not None


def _order_digest(clusters):
    return hashlib.sha256(json.dumps([c.to_doc() for c in clusters]).encode()).hexdigest()


DIGEST_POOL = (0, 1, -1, Fraction(1, 2), INF)


def test_enumeration_order_is_pinned():
    # digests of the exact output sequences; seeded benchmark workloads draw from them by position
    assert _order_digest(enumerate_proximity_structures(6)) == (
        "79b15f0968b8b69a21686cac9b5e3c0d7a2995a5d1b189d27691883843c85b0a"
    )
    tangent_clusters = (
        c
        for s in enumerate_proximity_structures(4)
        for c in enumerate_tangent_assignments(s, DIGEST_POOL)
    )
    assert _order_digest(tangent_clusters) == (
        "1b2dde915861bc2d3227001debbddeff97000c88eae7da1e83a4fe6cbf3c8efa"
    )


def test_tangent_assignments_are_the_accepted_products():
    # the enumerator prunes at each prefix; the constructor validates whole clusters
    for structure in enumerate_proximity_structures(4):
        free = [i for i in range(structure.n) if structure.is_free(i)]
        accepted = []
        for choice in itertools.product(DIGEST_POOL, repeat=len(free)):
            tangents = dict(zip(free, choice))
            points = tuple(
                ClusterPoint(p.parent, p.satellite_of, tangents.get(i))
                for i, p in enumerate(structure.points)
            )
            try:
                accepted.append(BlowupCluster(points))
            except ValidationError:
                continue
        assert list(enumerate_tangent_assignments(structure, DIGEST_POOL)) == accepted


def test_doc_roundtrip_and_diagnostics(tmp_path, capsys):
    cluster = BlowupCluster.from_specs(
        [(None,), (0, None, Fraction(1, 2)), (0, None, INF), (1, 0)]
    )
    doc = cluster.to_doc()
    assert doc["points"][1]["tangent"] == "1/2"
    assert doc["points"][2]["tangent"] == "inf"
    assert cluster_from_doc(doc).points == cluster.points

    bad = {
        "schema": "cluster/1",
        "points": [
            {"parent": 0},
            {"parent": 3},
            {"parent": 0, "satellite_of": 0},
            {"parent": 0, "tangent": "x"},
        ],
    }
    diags = "\n".join(validate_cluster_doc(bad))
    assert "points[0].parent" in diags
    assert "points[1].parent" in diags
    assert "points[2].satellite_of" in diags
    assert "points[3].tangent" in diags

    with pytest.raises(ValidationError):
        cluster_from_doc({"schema": "cluster/9", "points": [{}]})
    path = tmp_path / "bad.json"
    path.write_text("[1,", encoding="utf-8")
    assert cli.run(["cluster", "build", str(path)]) == 2
    assert f"{path} is not valid JSON (line 1, column 4)" in capsys.readouterr().err


def test_documents_built_in_code_take_exact_tangents():
    doc = {"schema": "cluster/1", "points": [{}, {"parent": 0, "tangent": Fraction(1, 2)}]}
    assert cluster_from_doc(doc) == BlowupCluster.from_specs([(), (0, None, Fraction(1, 2))])


@pytest.mark.parametrize(
    "specs, message",
    [
        ([(None,), ("0",)], "points[1].parent: expected an index below 1"),
        ([(None,), (0,), (1, "0")], "points[2].satellite_of: index must be below 2"),
    ],
)
def test_specs_built_in_code_are_refused(specs, message):
    with pytest.raises(ValidationError) as err:
        BlowupCluster.from_specs(specs)
    assert str(err.value) == message


def test_fixtures():
    assert cluster_fixture("chain4").n == 4
    assert cluster_fixture("twodir").points == TWO_DIRECTIONS.points
    assert cluster_fixture("satellite3").points == (
        ClusterPoint(),
        ClusterPoint(0, None, Fraction(0)),
        ClusterPoint(1, 0),
    )
    with pytest.raises(ValidationError):
        cluster_fixture("ring5")


def test_chain_fixtures_are_named_in_ascii_digits():
    assert cluster_fixture(" CHAIN24 ").n == MAX_POINTS
    for name in ("chain٣", "chain03", "chain0", "chain25", "chain1_0", "chain", "chain-1"):
        with pytest.raises(ValidationError) as err:
            cluster_fixture(name)
        assert str(err.value) == f"unknown cluster fixture {name!r}; expected chain1..chain24, twodir or satellite3"


def test_cluster_tangents_are_read_in_ascii_digits():
    doc = cluster_fixture("chain2").to_doc()
    for tangent in ("٣", "1_0"):
        doc["points"][1]["tangent"] = tangent
        assert validate_cluster_doc(doc) == [
            f"points[1].tangent: malformed rational {tangent!r}: Invalid literal for Fraction: {tangent!r}"
        ]
