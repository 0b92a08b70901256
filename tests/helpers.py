"""Independent oracles and generators shared by the test modules.

The oracles here deliberately avoid the code paths they check: cofactor
expansion instead of Bareiss elimination, Cramer's rule instead of
Gauss-Jordan, a direct quadratic-form scan for definiteness, and one
inversion per minimal joint model instead of the cluster's own curvette
rows.  `count_eliminations` is a spy on the elimination kernel.
"""

from __future__ import annotations

import random
from fractions import Fraction

from nasharc import (
    Comparison,
    CurvetteWitness,
    DualGraph,
    ExactMatrix,
    ObstructionStatus,
    closure_indices,
    cluster_matrix,
    minimal_joint_model,
)


def count_eliminations(monkeypatch) -> list[int]:
    """The sizes of the matrices `exact_linalg._eliminate` runs on from now on."""
    import nasharc.exact_linalg as exact_linalg

    calls = []
    eliminate = exact_linalg._eliminate

    def spy(m):
        calls.append(len(m))
        return eliminate(m)

    monkeypatch.setattr(exact_linalg, "_eliminate", spy)
    return calls


def det_cofactor(rows) -> Fraction:
    """Determinant by first-row cofactor expansion; exponential but exact."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        total += (-1) ** j * Fraction(rows[0][j]) * det_cofactor(minor)
    return total


def inverse_adjugate(matrix: ExactMatrix) -> list[list[Fraction]]:
    """Inverse via adjugate over determinant; independent of Gauss-Jordan."""
    n = matrix.n
    rows = [[Fraction(v) for v in row] for row in matrix.rows]
    det = det_cofactor(rows)
    assert det != 0
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [rows[r][c] for c in range(n) if c != j] for r in range(n) if r != i
            ]
            out[j][i] = (-1) ** (i + j) * det_cofactor(minor) / det
    return out


def solve_cramer(matrix: ExactMatrix, rhs) -> list[Fraction]:
    """Cramer's rule; the independent route to the returns-system solutions."""
    n = matrix.n
    rows = [[Fraction(v) for v in row] for row in matrix.rows]
    det = det_cofactor(rows)
    assert det != 0
    out = []
    for j in range(n):
        replaced = [
            [Fraction(rhs[i]) if c == j else rows[i][c] for c in range(n)]
            for i in range(n)
        ]
        out.append(det_cofactor(replaced) / det)
    return out


def quadratic_form_negative(matrix: ExactMatrix, box: int = 3) -> bool:
    """Scan v^t M v < 0 over nonzero integer vectors with entries in [-box, box]."""
    n = matrix.n
    vec = [-box] * n

    def value():
        total = 0
        for i in range(n):
            if vec[i] == 0:
                continue
            for j in range(n):
                if vec[j]:
                    total += vec[i] * matrix.rows[i][j] * vec[j]
        return total

    while True:
        if any(vec) and value() >= 0:
            return False
        k = n - 1
        while k >= 0 and vec[k] == box:
            vec[k] = -box
            k -= 1
        if k < 0:
            return True
        vec[k] += 1


def random_decorated_graph(rng: random.Random, max_vertices: int = 10) -> DualGraph:
    """Arbitrary decorated multigraph; no definiteness is implied."""
    n = rng.randint(1, max_vertices)
    vertices = []
    for i in range(n):
        genus = rng.choice((0, 0, 0, 1, 2))
        labels = frozenset(rng.sample(("E", "F", "mark"), k=rng.randint(0, 1)))
        vertices.append((i, rng.randint(-5, 0), genus, labels))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            for _ in range(rng.choice((0, 0, 0, 0, 1, 1, 2))):
                edges.append((i, j))
    return DualGraph.build(vertices, edges)


def random_connected_negdef_tree(rng: random.Random, max_vertices: int = 8) -> DualGraph:
    """Random tree with weights <= -2: a connected negative-definite lattice."""
    n = rng.randint(1, max_vertices)
    vertices = [(i, rng.randint(-5, -2)) for i in range(n)]
    edges = [(rng.randint(0, i - 1), i) for i in range(1, n)]
    return DualGraph.build(vertices, edges)


def joint_model_rows(cluster, e: int, f: int):
    """The proximity closure of e and f, and the curvette rows of e and f
    obtained by inverting the lattice of their minimal joint model."""
    keep = closure_indices(cluster, e, f)
    index = {old: new for new, old in enumerate(keep)}
    rows = cluster_matrix(minimal_joint_model(cluster, e, f)).inverse().neg().rows
    return keep, rows[index[e]], rows[index[f]]


def compare_joint_model(cluster, e: int, f: int) -> Comparison:
    """Componentwise comparison of valuations inside the minimal joint model."""
    if e == f:
        return Comparison.EQUAL
    _, row_e, row_f = joint_model_rows(cluster, e, f)
    le = all(a <= b for a, b in zip(row_e, row_f))
    ge = all(a >= b for a, b in zip(row_e, row_f))
    assert not (le and ge)
    if le:
        return Comparison.LESS_EQ
    if ge:
        return Comparison.GREATER_EQ
    return Comparison.INCOMPARABLE


def obstruction_joint_model(cluster, e: int, f: int):
    """Status and first curvette witness for N_f in N_e, from the minimal joint model."""
    keep, row_e, row_f = joint_model_rows(cluster, e, f)
    for new_i, old_i in enumerate(keep):
        if row_f[new_i] < row_e[new_i]:
            return ObstructionStatus.RULED_OUT, CurvetteWitness(old_i, row_f[new_i], row_e[new_i])
    return ObstructionStatus.NOT_RULED_OUT, None


def solve_b_by_inverse(model) -> tuple[Fraction, ...]:
    """b = a - M^{-1} (c + d), inverting the simulated lattice afresh."""
    cd = tuple(ci + di for ci, di in zip(model.c, model.d))
    rhs = cluster_matrix(model.cluster).inverse().matvec(cd)
    return tuple(Fraction(ai) - ri for ai, ri in zip(model.a, rhs))
