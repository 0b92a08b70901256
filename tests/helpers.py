"""Independent oracles and generators shared by the test modules.

The oracles here deliberately avoid the code paths they check: cofactor
expansion instead of Bareiss elimination, Cramer's rule instead of
Gauss-Jordan, a direct quadratic-form scan for definiteness, and one
inversion per minimal joint model instead of the cluster's own curvette
rows, a pair graph replayed from the minimal joint model instead of read
off the parent's replay, and a Sylvester resultant of a pushed-down
parametrization instead of pushing a curvette's equation down the charts,
orders along Nash's generic arcs instead of the chart walk, a chart step
at every point of a cluster instead of only at the points on a germ's
strict transforms, and a canonical form by full backtracking over every
ordering of every ambiguous color class instead of the library's
automorphism-pruned search.  `count_eliminations` is a spy on the
elimination kernel.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import count

from nasharc import (
    INF,
    Comparison,
    CurvetteWitness,
    DualGraph,
    ExactMatrix,
    GraphVertex,
    InternalInvariantError,
    ObstructionStatus,
    Poly2,
    ValidationError,
    closure_indices,
    cluster_matrix,
    minimal_joint_model,
    simulate,
)
from nasharc import valuations


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


def canonical_form_oracle(graph: DualGraph) -> bytes:
    """The key bytes of ``canonical_key`` by full backtracking: after color
    refinement, branch on every vertex of the first ambiguous cell, with no
    pruning, and keep the smallest adjacency encoding; exponential."""
    n = graph.n
    index = {v.id: i for i, v in enumerate(graph.vertices)}
    mult = [[0] * n for _ in range(n)]
    for a, b in graph.edges:
        mult[index[a]][index[b]] += 1
        mult[index[b]][index[a]] += 1
    deco = [(v.self_int, v.genus, tuple(sorted(v.labels))) for v in graph.vertices]
    cells: dict = {}
    for i in range(n):
        cells.setdefault(deco[i] + (sum(mult[i]),), []).append(i)

    def refine(partition):
        while True:
            color = {v: ci for ci, cell in enumerate(partition) for v in cell}
            refined = []
            for cell in partition:
                buckets: dict = {}
                for v in cell:
                    nbr = tuple(sorted((color[u], mult[v][u]) for u in range(n) if mult[v][u]))
                    buckets.setdefault(nbr, []).append(v)
                refined += [tuple(buckets[key]) for key in sorted(buckets)]
            if len(refined) == len(partition):
                return refined
            partition = refined

    best = ((), ())

    def search(partition):
        nonlocal best
        partition = refine(partition)
        target = next((k for k, cell in enumerate(partition) if len(cell) > 1), None)
        if target is None:
            order = [cell[0] for cell in partition]
            adj = [
                (a, b, mult[order[a]][order[b]])
                for a in range(n)
                for b in range(a + 1, n)
                if mult[order[a]][order[b]]
            ]
            enc = (tuple(deco[v] for v in order), tuple(adj))
            if not best[0] or enc < best:
                best = enc
            return
        cell = partition[target]
        for v in cell:
            rest = tuple(u for u in cell if u != v)
            search(partition[:target] + [(v,), rest] + partition[target + 1 :])

    if n:
        search([tuple(cells[s]) for s in sorted(cells)])
    payload = {
        "v": [[si, g, list(labels)] for si, g, labels in best[0]],
        "e": [[a, b, m] for a, b, m in best[1]],
    }
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8")


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


def with_labels(graph: DualGraph, extra) -> DualGraph:
    """The graph with the labels ``extra[id]`` added to each vertex id it names."""
    vertices = tuple(
        GraphVertex(v.id, v.self_int, v.genus, v.labels | frozenset(extra.get(v.id, ()))) for v in graph.vertices
    )
    return DualGraph(vertices, graph.edges)


def pair_graph_joint_model(cluster, e: int, f: int) -> DualGraph:
    """The labelled pair graph by replaying the minimal joint model as a
    cluster of its own and labelling its dual graph."""
    keep = closure_indices(cluster, e, f)
    extra = {keep.index(e): {"E"}}
    extra.setdefault(keep.index(f), set()).add("F")
    return with_labels(simulate(minimal_joint_model(cluster, e, f)), extra)


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


def pushed_parametrization(cluster, i: int) -> tuple[Poly2, Poly2]:
    """(x(t), y(t)) of the line y = s*x at center i, with s the first positive
    integer slope free on component i, pushed down the chart chain by the chart
    maps; t rides in the x slot.  Every free point needs a tangent."""
    slope = next(s for s in count(1) if s not in cluster.forbidden_slopes(i))
    x_t, y_t = Poly2({(1, 0): 1}), Poly2({(1, 0): slope})
    while i != 0:
        kind = cluster.kinds[i]
        if kind == "free":
            y_t = x_t * (y_t + Poly2({(0, 0): cluster.points[i].tangent}))
        elif kind == "sat_y":
            y_t = x_t * y_t
        else:  # free_inf, sat_x
            x_t = x_t * y_t
        i = max(cluster.proximities(i))
    return x_t, y_t


def arc_orders(cluster, g: Poly2) -> tuple[int, ...]:
    """Orders of g along every component by Nash's generic arcs (Fernandez de
    Bobadilla and Pe Pereira, Ann. of Math. 176, 2012): the arc (t, t*s) in
    the chart of point i lifts through a general point of component i; pushed
    to the origin through the plan's chart maps, (x, y) -> (x, x*(y + c)) or
    (x*y, y), as polynomials in (t, s), g along it has least t-exponent
    v_i(g).  Only + and * of Poly2s: no chart substitution, division by an
    exceptional power or proximity unfolding."""
    t, s, one = Poly2({(1, 0): 1}), Poly2({(0, 1): 1}), Poly2({(0, 0): 1})
    top_a, top_b = (max(k[v] for k in g.terms) for v in (0, 1))
    orders = []
    for i in range(cluster.n):
        x, y = t, t * s
        while i != 0:
            i, c = cluster.plan[i]
            if c is INF:
                x = x * y
            else:
                y = x * (y + Poly2({(0, 0): c}))
        xs, ys = [one], [one]
        while len(xs) <= top_a:
            xs.append(xs[-1] * x)
        while len(ys) <= top_b:
            ys.append(ys[-1] * y)
        value = Poly2()
        for (a, b), coef in g.terms.items():
            value = value + Poly2({(0, 0): coef}) * xs[a] * ys[b]
        orders.append(min(a for a, _ in value.terms))
    return tuple(orders)


def every_point_walk(cluster, g: Poly2) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Orders and strict-transform profile of g by a chart step at every point of
    the cluster, on the germ's strict transforms or off them: the walk without its
    tangent-cone test.  Off the strict transform a step returns multiplicity 0."""
    strict, mult = {0: g.terms}, [g.multiplicity()]
    for i, (parent, tangent) in enumerate(cluster.plan[1:], 1):
        strict[i], m = valuations._chart_step(strict[parent], tangent, mult[parent])
        mult.append(m)
    profile = list(mult)
    for j, here in enumerate(cluster.prox):
        for i in here:
            profile[i] -= mult[j]
    return tuple(cluster.unfold(mult)), tuple(profile)


def eliminate_parameter(x_t: Poly2, y_t: Poly2) -> Poly2:
    """Resultant in t of X(t) - x and Y(t) - y, over exact bivariate entries.

    X and Y arrive as univariate polynomials written in the x slot of a
    Poly2.  The Sylvester determinant is computed by fraction-free Bareiss
    elimination in the polynomial ring, where every division is exact.

    No pivot vanishes, so rows are never swapped: the pivot of step k is the
    leading (k+1)-minor; y sits only on the diagonal (dy + s, dy + s) of the
    q-rows, under a triangular dy x dy block with diagonal lc(X), so each
    leading k-minor has y^max(0, k - dy) coefficient +-lc(X)^min(k, dy).
    """
    px = {k[0]: v for k, v in x_t.terms.items()}
    py = {k[0]: v for k, v in y_t.terms.items()}
    dx = max(px) if px else 0
    dy = max(py) if py else 0
    if dx + dy > 24:
        raise ValidationError("parameter elimination is limited to small chart chains")
    # coefficient lists of X(t) - x and Y(t) - y, highest degree first
    p = [Poly2({(0, 0): px.get(d, 0)}) for d in range(dx, -1, -1)]
    p[-1] = p[-1] - Poly2({(1, 0): 1})
    q = [Poly2({(0, 0): py.get(d, 0)}) for d in range(dy, -1, -1)]
    q[-1] = q[-1] - Poly2({(0, 1): 1})
    n = dx + dy
    rows: list[list[Poly2]] = []
    for shift in range(dy):
        rows.append([Poly2()] * shift + p + [Poly2()] * (dy - 1 - shift))
    for shift in range(dx):
        rows.append([Poly2()] * shift + q + [Poly2()] * (dx - 1 - shift))
    if len(rows) != n or any(len(r) != n for r in rows):
        raise InternalInvariantError("Sylvester matrix is not square")

    prev = Poly2({(0, 0): 1})
    for k in range(n - 1):
        pivot = rows[k][k]  # a nonzero leading minor: y sits on the q-row diagonal
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                rows[r][c] = (rows[r][c] * pivot - rows[r][k] * rows[k][c]).exact_div(prev)
            rows[r][k] = Poly2()
        prev = pivot
    return rows[n - 1][n - 1]
