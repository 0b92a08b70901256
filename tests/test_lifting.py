import random
from fractions import Fraction

import pytest
from helpers import solve_b_by_inverse

from nasharc import (
    ValidationError,
    WedgeNumericalModel,
    canonical_coeffs,
    cluster_fixture,
    cluster_matrix,
    enumerate_proximity_structures,
    intersection_from_proximity,
    lifting_verdict,
    proximity_matrix,
    solve_b,
    verify_numerical,
)

ONE_POINT = cluster_fixture("chain1")
CHAIN2 = cluster_fixture("chain2")


def test_solve_b_identity_case():
    model = WedgeNumericalModel(ONE_POINT, 0, (0,), (0,))
    assert solve_b(model) == (1,)


def test_solve_b_horizontal_contribution():
    model = WedgeNumericalModel(ONE_POINT, 0, (1,), (0,))
    assert solve_b(model) == (2,)


def test_solve_b_chain():
    model = WedgeNumericalModel(CHAIN2, 1, (0, 0), (0, 1), minimal_target=True)
    # a = (1, 2), M^{-1}(0,1)^t = (-1, -2), so b = (2, 4)
    assert solve_b(model) == (2, 4)


def test_verify_roundtrip_and_perturbation():
    base = WedgeNumericalModel(CHAIN2, 1, (1, 0), (0, 2), minimal_target=True)
    b = solve_b(base)
    assert verify_numerical(
        WedgeNumericalModel(CHAIN2, 1, (1, 0), (0, 2), b=b, minimal_target=True)
    )
    wrong = tuple(v + (1 if i == 0 else 0) for i, v in enumerate(b))
    assert not verify_numerical(
        WedgeNumericalModel(CHAIN2, 1, (1, 0), (0, 2), b=wrong, minimal_target=True)
    )
    with pytest.raises(ValidationError):
        verify_numerical(base)


def test_all_zero_cd_gives_b_equal_a():
    for cluster in enumerate_proximity_structures(4):
        zero = (0,) * cluster.n
        model = WedgeNumericalModel(cluster, 0, zero, zero)
        assert solve_b(model) == canonical_coeffs(cluster)


def test_nonpositive_difference_on_random_models():
    rng = random.Random(3)
    clusters = list(enumerate_proximity_structures(5))
    for _ in range(200):
        cluster = rng.choice(clusters)
        c = tuple(rng.randint(0, 4) for _ in range(cluster.n))
        d = tuple(rng.randint(0, 4) for _ in range(cluster.n))
        model = WedgeNumericalModel(cluster, rng.randrange(cluster.n), c, d, minimal_target=True)
        b = solve_b(model)
        inv = cluster_matrix(cluster).inverse()
        rhs = inv.matvec(tuple(x + y for x, y in zip(c, d)))
        assert all(Fraction(ai) - bi == ri for ai, bi, ri in zip(model.a, b, rhs))
        assert all(Fraction(ai) - bi <= 0 for ai, bi in zip(model.a, b))


def test_solve_b_matches_inverse_route_and_proximity_lattice():
    """b from the kept curvette rows equals b from a fresh inversion, and
    M (a - b) = c + d holds with M = -P^t P built from the proximity matrix."""
    rng = random.Random(11)
    for cluster in enumerate_proximity_structures(5):
        M = intersection_from_proximity(proximity_matrix(cluster))
        for _ in range(2):
            c = tuple(rng.randint(0, 4) for _ in range(cluster.n))
            d = tuple(rng.randint(-2, 4) for _ in range(cluster.n))
            model = WedgeNumericalModel(cluster, rng.randrange(cluster.n), c, d)
            b = solve_b(model)
            assert all(type(v) is int for v in b)
            assert b == solve_b_by_inverse(model)
            diff = tuple(ai - bi for ai, bi in zip(model.a, b))
            assert M.matvec(diff) == tuple(ci + di for ci, di in zip(c, d))


def test_lifting_requires_minimal_target():
    model = WedgeNumericalModel(ONE_POINT, 0, (0,), (0,))
    with pytest.raises(ValidationError):
        lifting_verdict(model)


def test_negative_d_rejected_under_minimal_target():
    with pytest.raises(ValidationError):
        WedgeNumericalModel(ONE_POINT, 0, (0,), (-1,), minimal_target=True)
    # allowed without the flag
    WedgeNumericalModel(ONE_POINT, 0, (0,), (-1,))


def test_lifting_contradiction_when_b_special_computes_large():
    model = WedgeNumericalModel(
        ONE_POINT, 0, (0,), (0,), minimal_target=True, assert_b1_lt_1=True
    )
    verdict = lifting_verdict(model)
    assert not verdict.lifts and verdict.contradiction
    assert verdict.b_special == 1
    assert verdict.a_special == 1

    chain_model = WedgeNumericalModel(
        CHAIN2, 1, (0, 0), (0, 1), minimal_target=True, assert_b1_lt_1=True
    )
    chain_verdict = lifting_verdict(chain_model)
    assert not chain_verdict.lifts and chain_verdict.contradiction
    assert chain_verdict.b_special == 4


def test_lifting_concludes_for_vanishing_special_coefficient():
    model = WedgeNumericalModel(
        ONE_POINT, 0, (0,), (0,), coeffs=(0,), minimal_target=True, assert_b1_lt_1=True
    )
    verdict = lifting_verdict(model)
    assert verdict.lifts and not verdict.contradiction
    assert verdict.b_special == 0


def test_lifting_without_assertion_stays_silent():
    model = WedgeNumericalModel(ONE_POINT, 0, (0,), (0,), minimal_target=True)
    verdict = lifting_verdict(model)
    assert not verdict.lifts and not verdict.contradiction


def test_no_lift_assertion_conflicts_with_forced_lift():
    model = WedgeNumericalModel(
        ONE_POINT,
        0,
        (0,),
        (0,),
        coeffs=(0,),
        minimal_target=True,
        assert_b1_lt_1=True,
        assert_no_lift=True,
    )
    verdict = lifting_verdict(model)
    assert not verdict.lifts and verdict.contradiction


def test_model_validation():
    with pytest.raises(ValidationError):
        WedgeNumericalModel(ONE_POINT, 3, (0,), (0,))
    with pytest.raises(ValidationError):
        WedgeNumericalModel(ONE_POINT, 0, (0, 0), (0,))
    with pytest.raises(ValidationError):
        WedgeNumericalModel(ONE_POINT, 0, (-1,), (0,))
    with pytest.raises(ValidationError):
        WedgeNumericalModel(ONE_POINT, 0, (0,), (0,), coeffs=(-1,))
    with pytest.raises(ValidationError):
        WedgeNumericalModel(ONE_POINT, 0, (0,), (0,), b=(Fraction(1), Fraction(2)))
    for special in ("0", 0.0, True, None):
        with pytest.raises(ValidationError, match="special"):
            WedgeNumericalModel(ONE_POINT, special, (0,), (0,))
    # (2, 4) is the solved b, so a float copy of it would verify
    for b in ((2.0, 4.0), (True, 4), ("2", 4), (2, None)):
        with pytest.raises(ValidationError, match="entries of b must be exact rationals"):
            WedgeNumericalModel(CHAIN2, 1, (0, 0), (0, 1), b=b)
    model = WedgeNumericalModel(CHAIN2, 1, (0, 0), (0, 1), b=(Fraction(2), 4))
    assert model.b == (2, 4) and type(model.b[0]) is int and verify_numerical(model)


def test_verdict_doc():
    model = WedgeNumericalModel(
        ONE_POINT, 0, (0,), (0,), coeffs=(0,), minimal_target=True, assert_b1_lt_1=True
    )
    doc = lifting_verdict(model).to_doc()
    assert doc["lifts"] is True
    assert doc["b"] == ["0"]
    assert doc["a_special"] == 0
