import random
from fractions import Fraction

import pytest
from helpers import (
    count_eliminations,
    det_cofactor,
    inverse_adjugate,
    quadratic_form_negative,
    solve_cramer,
)

from nasharc import (
    ExactMatrix,
    SingularMatrixError,
    ValidationError,
    check_inverse_nonpositive,
    cluster_fixture,
    enumerate_proximity_structures,
    intersection_matrix,
    is_negative_definite,
    proximity_matrix,
    simulate,
    standard_fixture,
)

A2 = ExactMatrix.from_rows([[-2, 1], [1, -2]])


def identity(n):
    return ExactMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])


def test_rejects_non_square():
    with pytest.raises(ValidationError):
        ExactMatrix.from_rows([[1, 2], [3]])


def test_determinant_small_cases():
    assert ExactMatrix.from_rows([[-2]]).determinant() == -2
    assert A2.determinant() == 3
    assert ExactMatrix.from_rows([[-2, 1], [1, -1]]).determinant() == 1
    assert ExactMatrix.from_rows([[0, 1], [1, 0]]).determinant() == -1  # needs a swap


def test_determinant_matches_cofactor_oracle():
    # the same random rational matrices, zero pivots included, also drive
    # solve and the definiteness test against cofactors
    rng = random.Random(11)
    zero_pivots = definite = indefinite = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [
            [Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))) for _ in range(n)]
            for _ in range(n)
        ]
        matrix = ExactMatrix.from_rows(rows)
        det = det_cofactor(rows)
        assert matrix.determinant() == det

        minors = [det_cofactor([row[:k] for row in rows[:k]]) for k in range(1, n + 1)]
        zero_pivots += 0 in minors[:-1]

        rhs = [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(n)]
        if det != 0:
            assert list(matrix.solve(rhs)) == solve_cramer(matrix, rhs)
        else:
            with pytest.raises(SingularMatrixError):
                matrix.solve(rhs)

        # symmetric, with the diagonal pushed down at random so both verdicts occur
        shift = rng.choice((0, 0, 8 * n))
        sym_rows = [
            [rows[min(i, j)][max(i, j)] - (shift if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
        sym_minors = [det_cofactor([row[:k] for row in sym_rows[:k]]) for k in range(1, n + 1)]
        expected = all((-1) ** k * m > 0 for k, m in enumerate(sym_minors, start=1))
        assert is_negative_definite(ExactMatrix.from_rows(sym_rows)) == expected
        definite += expected
        indefinite += not expected
    assert zero_pivots and definite and indefinite


def test_inverse_examples():
    assert ExactMatrix.from_rows([[-2]]).inverse().rows == ((Fraction(-1, 2),),)
    # adjugate over determinant, frozen from the oracle
    assert A2.inverse() == ExactMatrix.from_rows(
        [[Fraction(-2, 3), Fraction(-1, 3)], [Fraction(-1, 3), Fraction(-2, 3)]]
    )
    assert ExactMatrix.from_rows([[-2, 1], [1, -1]]).inverse() == ExactMatrix.from_rows(
        [[-1, -1], [-1, -2]]
    )


def test_inverse_roundtrip_and_oracle():
    rng = random.Random(23)
    checked = 0
    while checked < 120:
        n = rng.randint(1, 5)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        matrix = ExactMatrix.from_rows(rows)
        try:
            inv = matrix.inverse()
        except SingularMatrixError:
            assert matrix.determinant() == 0
            continue
        assert matrix.mul(inv) == identity(n)
        assert [list(r) for r in inv.rows] == inverse_adjugate(matrix)
        checked += 1


def test_inverse_rational_entries():
    matrix = ExactMatrix.from_rows([[Fraction(1, 2), 0], [1, Fraction(-3, 4)]])
    assert matrix.mul(matrix.inverse()) == identity(2)


def test_singular_raises():
    with pytest.raises(SingularMatrixError):
        ExactMatrix.from_rows([[1, 1], [1, 1]]).inverse()
    with pytest.raises(SingularMatrixError):
        ExactMatrix.from_rows([[0]]).solve([1])
    rational = ExactMatrix.from_rows([["1/2", "1/3"], ["3/2", 1]])
    assert rational.determinant() == 0
    with pytest.raises(SingularMatrixError):
        rational.inverse()
    with pytest.raises(SingularMatrixError):
        rational.solve([1, 0])


def test_integral_entries_are_ints():
    unimodular = intersection_matrix(simulate(cluster_fixture("twodir")))
    P = proximity_matrix(cluster_fixture("chain3"))
    for matrix in (
        intersection_matrix(standard_fixture("E8")),
        P,
        identity(3),
        ExactMatrix.from_rows([["4/2"]]),
        P.transpose().mul(P),
        unimodular.inverse(),
        ExactMatrix.from_rows([[Fraction(1, 2), 0], [1, Fraction(-3, 4)]]).mul(
            ExactMatrix.from_rows([[2, 0], [Fraction(8, 3), Fraction(-4, 3)]])
        ),
    ):
        assert all(type(v) is int for row in matrix.rows for v in row), matrix
    assert type(unimodular.determinant()) is int
    assert all(type(v) is int for v in unimodular.solve([1, 0, 0]))


def test_solve_matches_inverse():
    rhs = [1, -2]
    assert A2.solve(rhs) == A2.inverse().matvec(rhs)


# first leading minor zero (invertible and singular), a later zero minor,
# a singular matrix whose first minor is not zero, rational entries
SWAP_AND_SINGULAR_CASES = (
    [[0, 1], [1, 0]],
    [[0, 2, -1], [2, -3, 1], [-1, 1, -2]],
    [[0, 1, 3], [2, 0, 1], [1, 1, 0]],
    [[0, 1, 1], [1, 0, 1], [1, 1, 2]],
    [[0, 0], [0, 0]],
    [[1, 2], [2, 4]],
    [["1/2", 0, 1], [0, 0, 1], [1, 1, 0]],
    [[1, 1, 0, 2], [1, 1, 3, 0], [0, 3, 1, 1], [2, 0, 1, "-1/3"]],
    [[-2, 1, 0, 0], [1, -2, 1, 0], [0, 1, "-1/2", 0], [0, 0, 0, 0]],
)


def test_swaps_and_singular_matrices_match_cofactor_oracle():
    for rows in SWAP_AND_SINGULAR_CASES:
        matrix = ExactMatrix.from_rows(rows)
        n = matrix.n
        exact = [[Fraction(v) for v in row] for row in matrix.rows]
        det = det_cofactor(exact)
        minors = [det_cofactor([row[:k] for row in exact[:k]]) for k in range(1, n + 1)]
        assert matrix.determinant() == det, rows
        if matrix.is_symmetric():
            expected = all((-1) ** k * m > 0 for k, m in enumerate(minors, start=1))
            assert is_negative_definite(matrix) == expected, rows
        rhs = [Fraction(k + 1, 3) for k in range(n)]
        if det != 0:
            assert [list(r) for r in matrix.inverse().rows] == inverse_adjugate(matrix)
            assert list(matrix.solve(rhs)) == solve_cramer(matrix, rhs)
        else:
            with pytest.raises(SingularMatrixError):
                matrix.inverse()
            with pytest.raises(SingularMatrixError):
                matrix.solve(rhs)


def test_one_elimination_serves_every_operation(monkeypatch):
    calls = count_eliminations(monkeypatch)
    for rows in ([[-2, 1, 0], [1, -2, 1], [0, 1, "-1/2"]], [[0, 1], [1, 0]]):
        calls.clear()
        matrix = ExactMatrix.from_rows(rows)
        n = matrix.n
        det = matrix.determinant()
        inverse = matrix.inverse()
        assert matrix.solve([1] * n) == inverse.matvec([1] * n)
        assert matrix.solve(range(n)) == inverse.matvec(range(n))
        is_negative_definite(matrix)
        assert matrix.determinant() == det and matrix.inverse() == inverse
        assert calls == [n], rows


def test_negative_definite_examples():
    assert is_negative_definite(ExactMatrix.from_rows([[-1]]))
    assert is_negative_definite(A2)
    assert not is_negative_definite(ExactMatrix.from_rows([[0]]))
    assert not is_negative_definite(ExactMatrix.from_rows([[-1, 1], [1, -1]]))
    assert not is_negative_definite(ExactMatrix.from_rows([[1]]))


def test_negative_definite_rejects_asymmetric():
    with pytest.raises(ValidationError):
        is_negative_definite(ExactMatrix.from_rows([[-1, 2], [0, -1]]))


def test_negative_definite_agrees_with_quadratic_form_scan():
    # necessary direction on small graph lattices, per the module invariants
    for cluster in enumerate_proximity_structures(4):
        matrix = intersection_matrix(simulate(cluster))
        assert is_negative_definite(matrix)
        assert quadratic_form_negative(matrix)
    for name in ("A3", "A5", "D4", "D5"):
        matrix = intersection_matrix(standard_fixture(name))
        assert is_negative_definite(matrix)
        assert quadratic_form_negative(matrix)
    # a non-definite symmetric matrix must show a violating vector
    assert not quadratic_form_negative(ExactMatrix.from_rows([[-1, 1], [1, -1]]))


def test_inverse_sign_report():
    report = check_inverse_nonpositive(A2)
    assert report.all_nonpositive and report.strictly_negative
    assert report.offending_entries == () and report.zero_entries == ()

    diagonal = check_inverse_nonpositive(ExactMatrix.from_rows([[-2, 0], [0, -2]]))
    assert diagonal.all_nonpositive and not diagonal.strictly_negative
    assert diagonal.zero_entries == ((0, 1), (1, 0))

    positive = check_inverse_nonpositive(ExactMatrix.from_rows([[1]]))
    assert not positive.all_nonpositive
    assert positive.offending_entries == ((0, 0, Fraction(1)),)


def test_doc_roundtrip():
    doc = A2.to_doc()
    assert doc["rows"] == [["-2", "1"], ["1", "-2"]]
    assert ExactMatrix.from_rows(doc["rows"]) == A2


def test_connected_negative_definite_inverse_is_strictly_negative():
    # random connected trees with weights <= -2, up to 8 vertices
    from helpers import random_connected_negdef_tree

    rng = random.Random(29)
    for _ in range(150):
        graph = random_connected_negdef_tree(rng, max_vertices=8)
        matrix = intersection_matrix(graph)
        assert is_negative_definite(matrix)
        report = check_inverse_nonpositive(matrix)
        assert report.strictly_negative


def _draw_entry(rng, kind):
    value = rng.choice((0, rng.randint(-4, 4)))
    if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
        return value
    return Fraction(value, rng.choice((1, 1, 2, 3)))


def _exact_type(value):
    return type(value) is (int if Fraction(value).denominator == 1 else Fraction)


def test_integer_fast_paths_match_oracles_and_keep_types():
    # int, Fraction and mixed matrices; the bare constructor also takes
    # Fraction(k, 1) entries, which every product must still return as ints
    rng = random.Random(41)
    inverted = 0
    for draw in range(120):
        n = rng.randint(1, 8)
        kind = ("int", "fraction", "mixed")[draw % 3]
        rows = [[_draw_entry(rng, kind) for _ in range(n)] for _ in range(n)]
        other_rows = [[_draw_entry(rng, kind) for _ in range(n)] for _ in range(n)]
        bare = ExactMatrix(tuple(tuple(Fraction(v) for v in row) for row in rows))
        a, b = ExactMatrix.from_rows(rows), ExactMatrix.from_rows(other_rows)
        assert all(_exact_type(v) for row in a.rows for v in row)

        naive = [
            [sum(Fraction(rows[i][k]) * Fraction(other_rows[k][j]) for k in range(n))
             for j in range(n)]
            for i in range(n)
        ]
        for left in (a, bare):
            product = left.mul(b)
            assert [list(r) for r in product.rows] == naive
            assert all(_exact_type(v) for row in product.rows for v in row)
        for matrix in (a, bare):
            transposed = matrix.transpose()
            assert all(
                transposed.rows[j][i] is matrix.rows[i][j] for i in range(n) for j in range(n)
            )

        det = det_cofactor(rows)
        for matrix in (a, bare):
            assert matrix.determinant() == det and _exact_type(matrix.determinant())
            if det == 0:
                with pytest.raises(SingularMatrixError):
                    matrix.inverse()
                continue
            if n > 6:
                continue  # adjugate and Cramer oracles cost n^2 cofactor expansions
            inverse = matrix.inverse()
            assert [list(r) for r in inverse.rows] == inverse_adjugate(matrix)
            assert all(_exact_type(v) for row in inverse.rows for v in row)
            rhs = [_draw_entry(rng, kind) for _ in range(n)]
            solution = matrix.solve(rhs)
            assert list(solution) == solve_cramer(matrix, rhs)
            assert all(_exact_type(v) for v in solution)
            inverted += 1
    assert inverted > 80


def test_from_rows_still_validates_every_entry():
    for bad in (True, False, 1.5, None):
        with pytest.raises(ValidationError):
            ExactMatrix.from_rows([[bad]])
        with pytest.raises(ValidationError):
            ExactMatrix.from_rows([[1, 0], [0, bad]])
    parsed = ExactMatrix.from_rows([["3/4", "4/2"], [Fraction(6, 3), -1]])
    assert parsed.rows == ((Fraction(3, 4), 2), (2, -1))
    assert [type(v) for row in parsed.rows for v in row] == [Fraction, int, int, int]

    class Count(int):
        pass

    assert type(ExactMatrix.from_rows([[Count(3)]]).rows[0][0]) is int
