"""Acceptance criteria, one test per criterion, exact checks throughout.

Each test prints a single summary line; run with ``pytest -rA`` (or ``-s``)
to see all nine lines.  Expected values marked as derived were computed
with the independent oracles in helpers.py (cofactor determinants,
adjugate inverses, Cramer solves) before being frozen here.
"""

import random
import time
from fractions import Fraction
from itertools import product

import pytest
from helpers import random_decorated_graph, solve_cramer, with_labels

from nasharc import (
    INF,
    Comparison,
    DualGraph,
    EulerInput,
    ObstructionStatus,
    WedgeNumericalModel,
    canonical_coeffs,
    canonical_key,
    cluster_matrix,
    compare,
    contradiction_certificate,
    curvette_order_rows,
    enumerate_proximity_structures,
    enumerate_tangent_assignments,
    final_bound,
    intersection_from_proximity,
    intersection_matrix,
    lifting_verdict,
    ord_poly,
    parse_poly,
    proximity_matrix,
    returns_system,
    solve_b,
    standard_fixture,
    strict_transform_profile,
    verify_numerical,
)
from nasharc.euler_bounds import b0_bound, balls_bound, tubes_bound
from nasharc.valuations import ord_vector

TANGENT_POOL = (Fraction(0), Fraction(1), Fraction(-1), INF)


def _report(criterion: int, text: str):
    print(f"[ACCEPTANCE {criterion}] PASS: {text}")


# -- shared sweeps -------------------------------------------------------------


@pytest.fixture(scope="module")
def seven_point_sweep():
    """One pass over every proximity structure on <= 7 points."""
    start = time.monotonic()
    count = 0
    max_points = 0
    for cluster in enumerate_proximity_structures(7):
        matrix = cluster_matrix(cluster)
        derived = intersection_from_proximity(proximity_matrix(cluster))
        assert matrix.rows == derived.rows, "M != -P^t P"
        det = matrix.determinant()
        assert det in (1, -1), f"det {det} not unimodular"
        inverse = matrix.inverse()
        assert all(v < 0 for row in inverse.rows for v in row), "inverse not strictly negative"
        count += 1
        max_points = max(max_points, cluster.n)
    elapsed = time.monotonic() - start
    return {"count": count, "elapsed": elapsed, "max_points": max_points}


@pytest.fixture(scope="module")
def tangent_cluster_data():
    """Every <= 5 point cluster with tangents from {0, 1, -1, inf}, with the
    sample germ family evaluated through both order routes."""
    polys = []
    for a in range(7):
        for b in range(7):
            if 0 < a + b <= 6:
                polys.append(parse_poly(f"x^{a}*y^{b}"))
    for p in range(1, 5):
        for q in range(1, 5):
            for lam in (1, 2):
                polys.append(parse_poly(f"y^{q} - {lam}*x^{p}"))

    data = []
    spot_checks = 0
    for structure in enumerate_proximity_structures(5):
        for cluster in enumerate_tangent_assignments(structure, TANGENT_POOL):
            rows = curvette_order_rows(cluster)
            germs = []
            for g in polys:
                profile = strict_transform_profile(cluster, g)
                orders = ord_vector(cluster, g)
                germs.append((g, profile, orders))
            # bind ord_vector to the public single-component operation
            if len(data) % 200 == 0:
                g, _, orders = germs[len(data) % len(germs)]
                for e in range(cluster.n):
                    assert ord_poly(cluster, g, e) == orders[e]
                    spot_checks += 1
            data.append((cluster, rows, germs))
    return {"data": data, "n_polys": len(polys), "spot_checks": spot_checks}


# -- criteria ------------------------------------------------------------------


def test_criterion_1_unimodularity_and_strict_negativity(seven_point_sweep):
    sweep = seven_point_sweep
    assert sweep["count"] == 11465
    assert sweep["max_points"] == 7
    assert sweep["elapsed"] < 60.0, f"sweep took {sweep['elapsed']:.1f}s"
    _report(
        1,
        f"det(M) = +/-1 and M^-1 < 0 entrywise on all {sweep['count']} proximity "
        f"structures with <= 7 points ({sweep['elapsed']:.1f}s < 60s)",
    )


def test_criterion_2_proximity_identity(seven_point_sweep):
    # the sweep asserts M == -P^t P exactly for every structure before
    # reporting; a failure would have surfaced there
    _report(
        2,
        f"M = -P^t P exactly on the same {seven_point_sweep['count']} structures",
    )


def test_criterion_3_valuation_oracle_agreement(tangent_cluster_data):
    checks = 0
    for cluster, rows, germs in tangent_cluster_data["data"]:
        n = cluster.n
        for _, profile, orders in germs:
            for e in range(n):
                lattice = sum(rows[e][i] * profile[i] for i in range(n))
                assert orders[e] == lattice, "order oracle mismatch"
                checks += 1
    assert tangent_cluster_data["spot_checks"] > 0
    _report(
        3,
        f"ord_poly == (-M^-1 t)_e with zero mismatches over "
        f"{len(tangent_cluster_data['data'])} clusters x "
        f"{tangent_cluster_data['n_polys']} germs ({checks} checks)",
    )


def test_criterion_4_comparison_soundness(tangent_cluster_data):
    sound = 0
    incomparable = 0
    for cluster, rows, germs in tangent_cluster_data["data"]:
        n = cluster.n
        for e in range(n):
            for f in range(n):
                if e == f:
                    continue
                relation = compare(cluster, e, f)
                if relation is Comparison.LESS_EQ:
                    for _, _, orders in germs:
                        assert orders[e] <= orders[f], "LESS_EQ violated by a sampled germ"
                        sound += 1
                elif relation is Comparison.INCOMPARABLE:
                    assert any(rows[e][i] < rows[f][i] for i in range(n))
                    assert any(rows[f][i] < rows[e][i] for i in range(n))
                    incomparable += 1
    _report(
        4,
        f"no sampled germ violates LESS_EQ ({sound} inequalities); curvette "
        f"witnesses found both ways for all {incomparable} incomparable pairs",
    )


def test_criterion_5_returns_system_closed_forms():
    a1 = intersection_matrix(standard_fixture("A1"))
    a2 = intersection_matrix(standard_fixture("A2"))

    first = returns_system(a1, (0,), 0)
    assert first.solution == (Fraction(1, 2),)
    assert first.verdict.status is ObstructionStatus.RULED_OUT

    second = returns_system(a2, (0, 1), 0)
    assert second.solution == (Fraction(1, 3), Fraction(-1, 3))
    assert second.verdict.status is ObstructionStatus.RULED_OUT

    third = returns_system(a2, (0, 0), 0)
    assert third.solution == (Fraction(2, 3), Fraction(1, 3))
    assert third.verdict.status is ObstructionStatus.RULED_OUT

    # independent route: Cramer's rule on the same right-hand sides
    assert solve_cramer(a1, first.rhs) == list(first.solution)
    assert solve_cramer(a2, second.rhs) == list(second.solution)
    assert solve_cramer(a2, third.rhs) == list(third.solution)
    _report(
        5,
        "A1 b=(0) -> (1/2); A2 b=(0,1) -> (1/3,-1/3); A2 b=(0,0) -> (2/3,1/3); "
        "all RULED_OUT, all equal to the Cramer oracle exactly",
    )


def test_criterion_6_euler_assembly_identity():
    rng = random.Random(0xE01)
    for trial in range(10_000):
        graph = random_decorated_graph(rng, max_vertices=10)
        coeffs = [rng.randint(0, 5) for _ in range(graph.n)]
        attach = rng.randrange(graph.n)
        coeffs[attach] = max(1, coeffs[attach])
        data = EulerInput(graph, tuple(coeffs), attach)
        total = b0_bound(data) + balls_bound(data) + tubes_bound(data)
        assert total == final_bound(data), f"assembly broke at trial {trial}"
    _report(6, "b0 + balls + tubes == final bound on 10000 random inputs, exactly")


ADE_NAMES = tuple(
    [f"A{n}" for n in range(1, 11)] + [f"D{n}" for n in range(4, 11)] + ["E6", "E7", "E8"]
)


def test_criterion_7_minimality_certificate():
    exhaustive = 0
    sampled = 0
    rng = random.Random(0xADE)
    for name in ADE_NAMES:
        graph = standard_fixture(name)
        n = graph.n
        # unit vectors: per-vertex contributions, which final_bound is linear in
        for i in range(n):
            coeffs = tuple(1 if j == i else 0 for j in range(n))
            cert = contradiction_certificate(EulerInput(graph, coeffs, i))
            assert cert.bound == 0 and cert.contradicts_disk and not cert.minimality_flags
        if n <= 6:
            vectors = product(range(4), repeat=n)
        else:
            vectors = (tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(2000))
        for coeffs in vectors:
            supports = [i for i, a in enumerate(coeffs) if a >= 1]
            if not supports:
                continue
            for attach in supports:
                cert = contradiction_certificate(EulerInput(graph, tuple(coeffs), attach))
                assert cert.bound <= 0, f"{name}: bound {cert.bound} > 0"
                assert cert.contradicts_disk and not cert.minimality_flags
                if n <= 6:
                    exhaustive += 1
                else:
                    sampled += 1
        # the all-3 vector on every fixture, every attachment
        threes = (3,) * n
        for attach in range(n):
            cert = contradiction_certificate(EulerInput(graph, threes, attach))
            assert cert.contradicts_disk

    # a genus-0 (-1)-vertex must raise the flag instead
    flagged = DualGraph.build([(0, -1), (1, -2)], [(0, 1)])
    cert = contradiction_certificate(EulerInput(flagged, (1, 1), 0))
    assert cert.minimality_flags == (0,)
    assert not cert.contradicts_disk
    _report(
        7,
        f"certificate fires on every ADE fixture ({exhaustive} exhaustive inputs "
        f"on <= 6 vertices, {sampled} sampled on larger ones, unit vectors "
        f"everywhere); Castelnuovo flag raised on the (-1)-vertex graph",
    )


def test_criterion_8_relative_canonical_algebra():
    rng = random.Random(0xDF0)
    clusters = [c for c in enumerate_proximity_structures(7) if rng.random() < 0.12]
    lifts_seen = 0
    contradiction_seen = 0
    for trial in range(1000):
        cluster = clusters[trial % len(clusters)]
        n = cluster.n
        c = tuple(rng.randint(0, 3) for _ in range(n))
        d = tuple(rng.randint(0, 3) for _ in range(n))
        special = rng.randrange(n)
        coeffs = None
        if rng.random() < 0.35:
            base = list(canonical_coeffs(cluster))
            base[special] = 0
            coeffs = tuple(base)
            if rng.random() < 0.6:
                c = tuple(0 for _ in range(n))
                d = tuple(0 for _ in range(n))
        model = WedgeNumericalModel(
            cluster, special, c, d, coeffs=coeffs, minimal_target=True, assert_b1_lt_1=True
        )
        b = solve_b(model)

        # roundtrip is the identity, exactly
        supplied = WedgeNumericalModel(
            cluster, special, c, d, coeffs=coeffs, b=b, minimal_target=True
        )
        assert verify_numerical(supplied)
        perturbed = tuple(v + 1 if i == special else v for i, v in enumerate(b))
        assert not verify_numerical(
            WedgeNumericalModel(cluster, special, c, d, coeffs=coeffs, b=perturbed, minimal_target=True)
        )

        # a - b = M^-1 (c + d) <= 0 entrywise
        assert all(Fraction(ai) - bi <= 0 for ai, bi in zip(model.a, b))

        verdict = lifting_verdict(model)
        should_lift = b[special] < 1 and model.a[special] == 0
        assert verdict.lifts == should_lift
        lifts_seen += verdict.lifts
        contradiction_seen += verdict.contradiction
    assert lifts_seen > 0 and contradiction_seen > 0
    _report(
        8,
        f"1000 models: solve/verify roundtrip exact, a - b <= 0 entrywise, "
        f"lifts=true exactly when b_special < 1 forces a_special = 0 "
        f"({lifts_seen} lifts, {contradiction_seen} contradictions)",
    )


def test_criterion_9_canonicalization():
    rng = random.Random(0xC4A)
    fixtures = {
        "A3": standard_fixture("A3"),
        "D4": standard_fixture("D4"),
        "A3 label on end": with_labels(standard_fixture("A3"), {0: ("E",)}),
        "A3 label on middle": with_labels(standard_fixture("A3"), {1: ("E",)}),
        # a 12-vertex chain exercises the stated size bound
        "chain of 12": DualGraph.build(
            [(i, -2) for i in range(12)], [(i, i + 1) for i in range(11)]
        ),
    }

    relabelings = 0
    for graph in fixtures.values():
        reference = canonical_key(graph).key
        ids = list(graph.ids)
        for _ in range(1000):
            target = list(ids)
            rng.shuffle(target)
            shuffled = graph.relabel(dict(zip(ids, target)))
            assert canonical_key(shuffled).key == reference
            relabelings += 1

    required = ["A3", "D4", "A3 label on end", "A3 label on middle"]
    keys = {name: canonical_key(fixtures[name]).key for name in required}
    assert len(set(keys.values())) == len(required), "key collision across fixtures"
    _report(
        9,
        f"keys stable under {relabelings} random relabelings; pairwise distinct "
        f"across A3, D4, and the two labeled A3 variants",
    )
