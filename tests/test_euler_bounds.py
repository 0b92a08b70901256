import random
from fractions import Fraction

import pytest
from helpers import random_decorated_graph

from nasharc import (
    DualGraph,
    EulerInput,
    ValidationError,
    b0_bound,
    balls_bound,
    contradiction_certificate,
    final_bound,
    standard_fixture,
    tubes_bound,
)

A1 = EulerInput(standard_fixture("A1"), (1,), 0)
A2 = EulerInput(standard_fixture("A2"), (1, 1), 0)


def test_b0_bound():
    assert b0_bound(A1) == 0
    assert b0_bound(EulerInput(standard_fixture("A1"), (3,), 0)) == 2
    with pytest.raises(ValidationError):
        b0_bound(EulerInput(standard_fixture("A2"), (0, 1), 0))


def test_balls_bound():
    assert balls_bound(A1) == -1
    assert balls_bound(A2) == -1
    zero = EulerInput(standard_fixture("D4"), (0, 0, 0, 0), 0)
    assert balls_bound(zero) == 1


def test_tubes_bound():
    assert tubes_bound(A1) == 1
    assert tubes_bound(A2) == 1
    zero = EulerInput(standard_fixture("D4"), (0, 0, 0, 0), 0)
    assert tubes_bound(zero) == 0


def test_final_bound_examples():
    assert final_bound(A1) == 0
    e8 = standard_fixture("E8")
    assert final_bound(EulerInput(e8, (1,) + (0,) * 7, 0)) == 0
    genus_one = DualGraph.build([(0, -1, 1)])
    assert final_bound(EulerInput(genus_one, (1,), 0)) == -1


def test_assembly_identity_examples():
    for data in (A1, A2):
        assert b0_bound(data) + balls_bound(data) + tubes_bound(data) == final_bound(data)


def test_assembly_identity_random():
    rng = random.Random(41)
    for _ in range(500):
        graph = random_decorated_graph(rng, max_vertices=10)
        coeffs = [rng.randint(0, 5) for _ in range(graph.n)]
        attach = rng.randrange(graph.n)
        coeffs[attach] = max(1, coeffs[attach])
        data = EulerInput(graph, tuple(coeffs), attach)
        assert b0_bound(data) + balls_bound(data) + tubes_bound(data) == final_bound(data)


def test_final_bound_is_linear():
    rng = random.Random(43)
    for _ in range(100):
        graph = random_decorated_graph(rng, max_vertices=8)
        n = graph.n
        first = [rng.randint(0, 4) for _ in range(n)]
        second = [rng.randint(0, 4) for _ in range(n)]
        attach = rng.randrange(n)
        first[attach] = max(1, first[attach])
        second[attach] = max(1, second[attach])
        total = [a + b for a, b in zip(first, second)]
        assert final_bound(EulerInput(graph, tuple(total), attach)) == final_bound(
            EulerInput(graph, tuple(first), attach)
        ) + final_bound(EulerInput(graph, tuple(second), attach))


def test_certificate_a1_fires():
    cert = contradiction_certificate(A1)
    assert cert.bound == 0
    assert cert.contradicts_disk
    assert cert.minimality_flags == ()


def test_certificate_e8_unit_vector():
    e8 = standard_fixture("E8")
    cert = contradiction_certificate(EulerInput(e8, (1,) + (0,) * 7, 0))
    assert cert.bound == 0 and cert.contradicts_disk and not cert.minimality_flags


def test_certificate_withheld_on_castelnuovo_vertex():
    graph = DualGraph.build([(0, -1), (1, -3)], [(0, 1)])
    cert = contradiction_certificate(EulerInput(graph, (1, 1), 0))
    assert cert.bound == 0  # 1 + (-1)
    assert cert.minimality_flags == (0,)
    assert not cert.contradicts_disk


def test_certificate_genus_one_minus_one_vertex_is_not_flagged():
    graph = DualGraph.build([(0, -1, 1)])
    cert = contradiction_certificate(EulerInput(graph, (1,), 0))
    assert cert.bound == -1
    assert cert.minimality_flags == ()
    assert cert.contradicts_disk


def test_validation():
    graph = standard_fixture("A2")
    with pytest.raises(ValidationError):
        EulerInput(graph, (1,), 0)  # wrong length
    with pytest.raises(ValidationError):
        EulerInput(graph, (1, -1), 0)  # negative coefficient
    with pytest.raises(ValidationError):
        EulerInput(graph, (1, 1), 9)  # unknown attach
    for attach in (1.0, True, Fraction(1)):  # each equals the vertex id 1
        with pytest.raises(ValidationError, match="attachment id must be an int or string"):
            EulerInput(graph, (1, 1), attach)


def test_attachment_is_looked_up_once(monkeypatch):
    looked_up = []
    index_of = DualGraph.index_of
    monkeypatch.setattr(DualGraph, "index_of", lambda graph, vid: looked_up.append(vid) or index_of(graph, vid))
    data = EulerInput(standard_fixture("A2"), (1, 1), 0)
    contradiction_certificate(data)
    for bound in (b0_bound, balls_bound, tubes_bound, final_bound):
        bound(data)
    assert looked_up == [0]


def test_certificate_doc():
    doc = contradiction_certificate(A1).to_doc()
    assert doc == {"bound": 0, "contradicts_disk": True, "minimality_flags": []}
