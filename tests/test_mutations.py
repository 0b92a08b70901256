"""Semantic mutations of the live package, each with the fast check that catches it.

A row applies one mutation with ``monkeypatch`` and asserts exactly which named
checks fail on small inputs; the unmutated package fails none.  The checks are
independent routes.  For the chart walk and the replay: orders along Nash's
generic arcs, additivity on products, the walk's own invariants and the replay's
check of its curvette rows.  For the facts the reports derive (a verdict's status
from its witness, a sign report's and a certificate's flags from their entries): a
minimal-joint-model inversion, an adjugate inverse and the closed-form Euler bound,
beside the bound's own assembly identity.  For explicit curvettes: the Sylvester
resultant and the refusal set, beside the lattice self-check.  For canonical keys:
the unpruned backtracking oracle, on pair graphs and on two 2-regular graphs.  For
the germ reader: the table of every refusal and the text round trip.  For a graph's
kept id index: a scan of the vertex positions; for a smooth germ's centers: the walk
up the parent chain, beside the count's canonical-coefficient check.  For the
command line's integer reader: a table of texts it reads or refuses, beside the
refusal of the same digits at each intake.  For the determinant ``cluster build``
reads as (-1)^n: Bareiss elimination of the matrix its report prints.  For the
verdict store: opposite verdicts for one key, stored or found on file, are refused.
For the lattice block a text report ends in: the recorded reports.  For the check
that P is lower unitriangular: a refusal for each half, beside the proximity identity.
A mutation that survives stays in the table, either argued equivalent or with a new
check.
"""

import contextlib
import inspect
import io
import itertools
import json
import random
import textwrap
from fractions import Fraction

import pytest
from helpers import (
    GERM_REFUSALS,
    arc_orders,
    canonical_form_oracle,
    cluster_build_determinants,
    eliminate_parameter,
    germ_touch_count_by_walk,
    index_disagreements,
    inverse_adjugate,
    obstruction_joint_model,
    pushed_parametrization,
    random_decorated_graph,
)
from test_cli_reports import CASES, EXPECTED, transcript, write_inputs

from nasharc import (
    INF,
    ContradictionCertificate,
    DualGraph,
    EulerInput,
    ExactMatrix,
    InternalInvariantError,
    InverseSignReport,
    KnowledgeBase,
    KnowledgeBaseConflict,
    KnowledgeBaseError,
    ObstructionStatus,
    ObstructionVerdict,
    Poly2,
    ValidationError,
    canonical_key,
    cluster_fixture,
    enumerate_proximity_structures,
    enumerate_tangent_assignments,
    intersection_matrix,
    pair_graph,
    parse_poly,
    proximity_matrix,
    simulate,
    standard_fixture,
    strict_transform_profile,
)
from nasharc import (
    BlowupCluster, canonical, cli, clusters, euler_bounds, exact_linalg, obstructions, polynomials, valuations,
)
from nasharc.dual_graphs import fixture_names
from nasharc.valuations import ord_vector

TANGENT_POOL = (Fraction(0), Fraction(1), Fraction(-1), INF)


# -- the chart walk -------------------------------------------------------------


def _checks_that_catch() -> set[str]:
    """The named checks that fail on the tangent clusters of <= 3 points: the arc route,
    additivity on products, and the invariants of the walk and of the replay's curvette
    rows (by their messages; an invariant failure no name matches counts as its message)."""
    germs = [parse_poly(text) for text in ("y^2 - x^3", "y - x", "x*y + y^3", "x - y^2")]
    invariants = {"not divisible": "divisibility", "vanished": "vanishing strict transform",
                  "proximity inequality": "proximity inequality",
                  "curvette rows is not -I": "curvette-row check"}
    caught = set()

    def run(route, *args):
        try:
            return route(*args)
        except InternalInvariantError as exc:
            caught.update([name for text, name in invariants.items() if text in str(exc)] or [str(exc)])

    for structure in enumerate_proximity_structures(3):
        for cluster in enumerate_tangent_assignments(structure, TANGENT_POOL):
            run(lambda c: c.curvette_rows, cluster)
            orders = {g: run(ord_vector, cluster, g) for g in germs}
            for g in germs:
                run(strict_transform_profile, cluster, g)
                if orders[g] is not None and orders[g] != arc_orders(cluster, g):
                    caught.add("arc route")
                for h in germs:
                    product = run(ord_vector, cluster, g * h)
                    if None in (orders[g], orders[h], product):
                        continue
                    if product != tuple(map(sum, zip(orders[g], orders[h]))):
                        caught.add("product additivity")
    return caught


def test_the_unmutated_walk_passes_every_check():
    assert _checks_that_catch() == set()


def test_an_invariant_failure_without_a_name_is_caught_under_its_message(monkeypatch):
    def mutant(strict, tangent, m):
        raise InternalInvariantError("boom")

    monkeypatch.setattr(valuations, "_chart_step", mutant)
    assert _checks_that_catch() == {"boom"}


_ORDER_ROUTES = {"arc route", "product additivity"}
_EVERY_ROUTE = _ORDER_ROUTES | {"proximity inequality"}


@pytest.mark.parametrize(
    "chart, shift, caught_by",
    [
        ("free", -1, _EVERY_ROUTE),
        ("free", 1, _ORDER_ROUTES),
        ("inf", -1, _EVERY_ROUTE),
        ("inf", 1, _ORDER_ROUTES),
    ],
)
def test_an_off_by_one_exceptional_shift_is_caught(monkeypatch, chart, shift, caught_by):
    """The step divides by x^(m + shift) in the free chart, or y^(m + shift) in the INF chart.

    The step checks divisibility on its input, before the shift, so that check never
    sees it: x * (the strict transform) or its quotient by x is still consistent with
    the next step.  The arc route and additivity see every shift, the proximity
    inequality the m - 1 shifts.  An m + 1 shift broke the inequality (and, in the INF
    chart, the vanishing check) only through a multiplicity of -1 at a point off the
    strict transform, where the walk no longer steps."""
    chart_step = valuations._chart_step

    def mutant(strict, tangent, m):
        out, mult = chart_step(strict, tangent, m)
        if (tangent is INF) != (chart == "inf"):
            return out, mult
        da, db = (0, shift) if tangent is INF else (shift, 0)
        out = {(a - da, b - db): v for (a, b), v in out.items()}
        return out, min(a + b for a, b in out)

    monkeypatch.setattr(valuations, "_chart_step", mutant)
    assert _checks_that_catch() == caught_by


def test_a_walk_that_hands_the_step_a_larger_multiplicity_is_refused(monkeypatch):
    chart_step = valuations._chart_step

    def mutant(strict, tangent, m):
        return chart_step(strict, tangent, m + 1)

    monkeypatch.setattr(valuations, "_chart_step", mutant)
    assert _checks_that_catch() == {"divisibility"}


@pytest.mark.parametrize(
    "mutant, caught_by",
    [
        pytest.param(lambda cone, s, t, m: cone(s, t if t is INF else -t, m), _ORDER_ROUTES, id="at -c"),
        pytest.param(lambda cone, s, t, m: cone(s, 0 if t is INF else INF if t == 0 else t, m),
                     _ORDER_ROUTES, id="0 and INF swapped"),
        pytest.param(lambda cone, s, t, m: cone(s, t, m + 1), _ORDER_ROUTES, id="degree m + 1"),
        pytest.param(lambda cone, s, t, m: False, {"arc route"}, id="never on the cone"),
        # equivalent: a step at a point off the strict transform returns multiplicity 0
        # (test_valuations' property test of the cone test), and every point beyond is
        # skipped for it, so the walk reads the same multiplicities with more steps
        pytest.param(lambda cone, s, t, m: True, set(), id="always on the cone"),
    ],
)
def test_a_mutated_tangent_cone_test_is_caught(monkeypatch, mutant, caught_by):
    """The walk steps only to points where the parent's strict transform meets the divisor."""
    cone = valuations._on_tangent_cone
    monkeypatch.setattr(valuations, "_on_tangent_cone", lambda s, t, m: mutant(cone, s, t, m))
    assert _checks_that_catch() == caught_by


@pytest.mark.parametrize(
    "mutant, caught_by",
    [
        # every chart taken as a tangent-c chart: an INF chart's parent met at INF, not 0
        pytest.param(lambda rule, kinds, prox, hi, lo: INF if lo == max(prox[hi]) else Fraction(0),
                     {"arc route"}, id="no INF-chart flip"),
        pytest.param(lambda rule, kinds, prox, hi, lo: Fraction(0) if rule(kinds, prox, hi, lo) is INF else INF,
                     {"arc route", "proximity inequality"}, id="every direction flipped"),
    ],
)
def test_a_mutated_chart_direction_rule_is_caught(monkeypatch, mutant, caught_by):
    """One rule gives the satellite kinds and the directions a free point avoids; the
    clusters the checks enumerate are replayed afresh, so they read the mutant."""
    rule = clusters._direction
    monkeypatch.setattr(clusters, "_direction", lambda *args: mutant(rule, *args))
    assert _checks_that_catch() == caught_by


def test_an_unfold_skipping_a_satellite_proximity_is_caught(monkeypatch):
    def unfold(self, values):
        out = list(values)
        for i, here in enumerate(self.prox):
            for j in here[:1]:  # a satellite's second proximity is dropped
                out[i] += out[j]
        return out

    monkeypatch.setattr(BlowupCluster, "unfold", unfold)
    assert _checks_that_catch() == {"curvette-row check", "arc route"}


# -- facts derived from other facts ---------------------------------------------


def _mutated(owner, name: str, old: str, new: str):
    """``owner.name``, a module's function or a class's method, compiled from its source
    in its module with the one ``old`` replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(getattr(owner, name)))
    assert source.count(old) == 1, old
    module = inspect.getmodule(owner)
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    return namespace[name]


_SIGN_MATRICES = [
    *(intersection_matrix(standard_fixture(name)) for name in ("A1", "A3", "D4", "E6")),
    ExactMatrix.from_rows([[-2, 0], [0, -2]]),  # zero entries off the diagonal
    ExactMatrix.from_rows([[1, 2], [2, 1]]),  # positive and negative entries
]
_CERTIFICATE_INPUTS = [
    EulerInput(standard_fixture("A1"), (1,), 0),
    EulerInput(standard_fixture("E8"), (1,) + (0,) * 7, 0),
    EulerInput(DualGraph.build([(0, -1), (1, -3)], [(0, 1)]), (1, 1), 0),  # a (-1)-curve
    EulerInput(DualGraph.build([(0, -1), (1, -4)], [(0, 1)]), (1, 2), 0),
    EulerInput(DualGraph.build([(0, -1, 1)]), (1,), 0),  # genus one: no flag
    EulerInput(standard_fixture("A2"), (0, 1), 0),  # a vanishing attachment coefficient: refused
    EulerInput(standard_fixture("A2"), (0, 1), 1),
]


def _fact_checks_that_catch() -> set[str]:
    """The named checks that fail: verdicts of the tangent-free clusters of <= 4 points
    against one inversion of each minimal joint model, returns verdicts on A1..D4 and
    inverse sign reports against the adjugate inverse, and disk certificates against
    the closed-form bound and the (-1)-curves of the graph, or their refusal by the
    bound's own assembly identity; a certificate is refused exactly when its
    attachment coefficient vanishes."""
    caught = set()
    for cluster in enumerate_proximity_structures(4):
        for e, f in itertools.product(range(cluster.n), repeat=2):
            if e != f:
                verdict = obstructions.valuative_obstruction(cluster, e, f)
                if (verdict.status, verdict.witness) != obstruction_joint_model(cluster, e, f):
                    caught.add("verdict oracle")

    for name in ("A1", "A2", "A3", "D4"):
        M = intersection_matrix(standard_fixture(name))
        inverse = inverse_adjugate(M)
        choices = itertools.product(itertools.product((0, 1, 2), repeat=M.n), range(M.n), (True, False))
        for b, special, no_lift in choices:
            rhs = [v - (i == special) for i, v in enumerate(b)]
            a = [sum(x * y for x, y in zip(row, rhs)) for row in inverse]
            bad = any(v < 0 or v.denominator != 1 for v in a) or (no_lift and a[special] == 0)
            verdict = obstructions.returns_system(M, b, special, no_lift).verdict
            if verdict.status is not (ObstructionStatus.RULED_OUT if bad else ObstructionStatus.NOT_RULED_OUT):
                caught.add("returns oracle")

    for M in _SIGN_MATRICES:
        entries = [v for row in inverse_adjugate(M) for v in row]
        report = exact_linalg.check_inverse_nonpositive(M)
        expected = (all(v <= 0 for v in entries), all(v < 0 for v in entries))
        if (report.all_nonpositive, report.strictly_negative) != expected:
            caught.add("inverse sign oracle")

    for data in _CERTIFICATE_INPUTS:
        vertices = data.graph.vertices
        bound = sum(a * (2 - 2 * v.genus + v.self_int) for a, v in zip(data.coeffs, vertices))
        minus_one = any(v.genus == 0 and v.self_int == -1 for v in vertices)
        try:
            certificate = euler_bounds.contradiction_certificate(data)
        except InternalInvariantError as exc:
            caught.add("assembly identity" if "bound assembly failed" in str(exc) else str(exc))
            continue
        except ValidationError:
            certificate = None
        if (certificate is None) != (data.coeffs[data.attach_index] == 0):
            caught.add("indeterminacy refusal")
        elif certificate and certificate.contradicts_disk != (bound < 1 and not minus_one):
            caught.add("certificate oracle")
    return caught


def test_the_unmutated_facts_pass_every_check():
    assert _fact_checks_that_catch() == set()


def _status_ignoring_the_witness(monkeypatch):
    def post_init(self):
        object.__setattr__(self, "status", ObstructionStatus.NOT_RULED_OUT)

    monkeypatch.setattr(ObstructionVerdict, "__post_init__", post_init)


def _returns_accepting_a_non_integral_entry(monkeypatch):
    mutant = _mutated(obstructions, "returns_system", "value.denominator != 1", "False")
    monkeypatch.setattr(obstructions, "returns_system", mutant)


def _all_nonpositive_inverted(monkeypatch):
    monkeypatch.setattr(
        InverseSignReport, "all_nonpositive", property(lambda self: bool(self.offending_entries))
    )


def _zero_inverse_entries_offending(monkeypatch):
    mutant = _mutated(exact_linalg, "check_inverse_nonpositive", "entry[2] > 0", "entry[2] >= 0")
    monkeypatch.setattr(exact_linalg, "check_inverse_nonpositive", mutant)


def _contradicts_disk_without_minimality(monkeypatch):
    monkeypatch.setattr(ContradictionCertificate, "contradicts_disk", property(lambda self: self.bound < 1))


def _tubes_without_the_attachment_disk(monkeypatch):
    mutant = _mutated(euler_bounds, "tubes_bound", "if i == attach:\n            chi -= 1", "pass")
    monkeypatch.setattr(euler_bounds, "tubes_bound", mutant)


def _b0_without_its_refusal(monkeypatch):
    mutant = _mutated(euler_bounds, "b0_bound", "if data.attach_coeff < 1:", "if False:")
    monkeypatch.setattr(euler_bounds, "b0_bound", mutant)


@pytest.mark.parametrize(
    "mutate, caught_by",
    [
        pytest.param(_status_ignoring_the_witness, {"verdict oracle", "returns oracle"}, id="status"),
        pytest.param(_returns_accepting_a_non_integral_entry, {"returns oracle"}, id="returns"),
        pytest.param(_all_nonpositive_inverted, {"inverse sign oracle"}, id="sign"),
        pytest.param(_zero_inverse_entries_offending, {"inverse sign oracle"}, id="zero entries offending"),
        pytest.param(_contradicts_disk_without_minimality, {"certificate oracle"}, id="disk"),
        pytest.param(_tubes_without_the_attachment_disk, {"assembly identity"}, id="tubes"),
        # the partial bounds telescope for any coefficients, a vanishing a_0 included, so
        # the assembly identity holds: only the refusal check sees the refusal go
        pytest.param(_b0_without_its_refusal, {"indeterminacy refusal"}, id="b0 refusal"),
    ],
)
def test_a_mutated_derived_fact_is_caught(monkeypatch, mutate, caught_by):
    mutate(monkeypatch)
    assert _fact_checks_that_catch() == caught_by


# -- a graph's kept id index and a smooth germ's centers ---------------------------


def _index_checks_that_catch() -> set[str]:
    """The readers of a graph's kept id index that disagree with a scan of its vertex
    positions, on the ADE fixtures and on random decorated multigraphs."""
    rng = random.Random(28)
    graphs = [standard_fixture(name) for name in fixture_names()]
    graphs += [random_decorated_graph(rng) for _ in range(20)]
    caught = set()
    for graph in graphs:
        ids = [v.id for v in graph.vertices]
        fresh = dict(zip(ids, rng.sample(range(100, 200), len(ids))))
        caught |= index_disagreements(graph, [fresh, {**fresh, ids[0]: fresh[ids[-1]]}, {**fresh, "x": 99}])
    return caught


def _germ_checks_that_catch() -> set[str]:
    """The named checks that fail on every component of the structures on <= 5 points:
    the walk up the parent chain, and the count's own canonical-coefficient check."""
    caught = set()

    def outcome(count, cluster, last):
        try:
            return count(cluster, last)
        except ValidationError as exc:
            return str(exc)
        except InternalInvariantError as exc:
            caught.add("canonical coefficient" if "canonical coefficient differs" in str(exc) else str(exc))

    for cluster in enumerate_proximity_structures(5):
        for last in range(cluster.n):
            if outcome(clusters.germ_touch_count, cluster, last) != outcome(germ_touch_count_by_walk, cluster, last):
                caught.add("parent-chain walk")
    return caught


def test_the_unmutated_index_and_germ_count_pass_every_check():
    assert _index_checks_that_catch() == set() and _germ_checks_that_catch() == set()


def test_a_kept_index_off_by_one_is_caught(monkeypatch):
    """Positions counted from 1: every position reader sees it.  ``relabel`` reads only
    the index's keys, for its bijection check, so its check stays quiet."""
    mutant = _mutated(DualGraph, "__post_init__", "enumerate(self.vertices)", "enumerate(self.vertices, 1)")
    monkeypatch.setattr(DualGraph, "__post_init__", mutant)
    assert _index_checks_that_catch() == {"index_of", "neighbours", "intersection_matrix"}


@pytest.mark.parametrize(
    "new, caught_by",
    [
        pytest.param("chain[1:-1]", {"parent-chain walk", "canonical coefficient"}, id="last point skipped"),
        # equivalent: a satellite in a closure brings in the two earlier centers it is
        # proximate to, at most one of them the origin, so the first center past the
        # origin is never a satellite
        pytest.param("chain[2:]", set(), id="first point past the origin skipped"),
    ],
)
def test_a_germ_free_check_skipping_a_point_is_caught(monkeypatch, new, caught_by):
    mutant = _mutated(clusters, "germ_touch_count", "chain[1:]", new)
    monkeypatch.setattr(clusters, "germ_touch_count", mutant)
    assert _germ_checks_that_catch() == caught_by


# -- the command line's integer reader ----------------------------------------------

_INTEGER_TEXTS = [(" 1 ", 1), ("+2", 2), ("01", 1), ("-0", 0), ("٠", None), ("1_0", None), ("", None),
                  ("1 2", None), ("9" * 5000, None)]
_DIGIT_REQUESTS = [  # each would be answered if ٠, ٢ or 1_0 were read as a number
    ["val", "compare", "chain3", "٠", "٢"],
    ["adj", "obstruct", "chain3", "0", "2", "--returns=0,0,0", "--special=٢"],
    ["euler", "bound", "A2", "--coeffs=1,1", "--attach=٠"],
    ["euler", "bound", "A2", "--coeffs=1_0,1", "--attach=0"],
]


def _intake_checks_that_catch() -> set[str]:
    """The named checks that fail: a table of texts ``cli.integer`` reads (with their
    values) or refuses, and the refusal (exit 2) of other digits at each intake."""
    caught = set()
    for text, value in _INTEGER_TEXTS:
        try:
            if cli.integer(text) != value:
                caught.add("reader table")
        except ValueError:
            if value is not None:
                caught.add("reader table")
    for argv in _DIGIT_REQUESTS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.run(argv)
            except SystemExit as exc:
                code = exc.code
        if code != 2:
            caught.add("intake refusals")
    return caught


def test_the_unmutated_integer_reader_passes_every_check():
    assert _intake_checks_that_catch() == set()


def test_an_integer_reader_without_its_fullmatch_is_caught(monkeypatch):
    monkeypatch.setattr(cli, "integer", _mutated(cli, "integer", "if not _INTEGER.fullmatch(text):", "if False:"))
    assert _intake_checks_that_catch() == {"reader table", "intake refusals"}


# -- the determinant of a cluster report and the verdict store ------------------------


def _determinant_checks_that_catch() -> set[str]:
    """The named check that fails: on clusters of both parities, the determinant a
    ``cluster build`` report prints against Bareiss elimination of its printed M."""
    reported = cluster_build_determinants(["chain1", "chain2", "satellite3", "twodir"])
    return {"Bareiss determinant" for det, bareiss in reported.values() if det != bareiss}


def test_the_unmutated_cluster_report_passes_every_check():
    assert _determinant_checks_that_catch() == set()


def test_a_determinant_of_the_wrong_sign_is_caught(monkeypatch):
    mutant = _mutated(cli, "_cmd_cluster_build", "(-1) ** cluster.n", "(-1) ** (cluster.n + 1)")
    monkeypatch.setattr(cli, "_cmd_cluster_build", mutant)
    assert _determinant_checks_that_catch() == {"Bareiss determinant"}


def _store_checks_that_catch(directory) -> set[str]:
    """The named checks that fail on verdict stores in ``directory``: an opposite verdict
    stored for a key on file is refused and leaves the file as it was, the same verdict
    stored again returns the record on file, and a file holding opposite verdicts for one
    key is refused, whether they were there when it was indexed or appended past that."""
    key = canonical_key(pair_graph(cluster_fixture("chain2"), 0, 1))
    ruled_out, not_ruled_out = ObstructionStatus.RULED_OUT, ObstructionStatus.NOT_RULED_OUT
    caught = set()

    def lines(statuses) -> str:
        return "".join(json.dumps({"key": key.as_text(), "status": status.value}) + "\n" for status in statuses)

    stored = directory / "stored.jsonl"
    kb = KnowledgeBase(stored)
    kb.store(key, ruled_out, "first")
    before = stored.read_bytes()
    with contextlib.suppress(KnowledgeBaseConflict):
        kb.store(key, not_ruled_out)
        caught.add("store conflict")
    if kb.store(key, ruled_out, "second").provenance != "first":
        caught.add("same verdict")
    if stored.read_bytes() != before:
        caught.add("store conflict")

    for name, first, appended in (("conflict on file", [ruled_out, not_ruled_out], []),
                                  ("conflict appended", [ruled_out], [not_ruled_out])):
        path = directory / f"{name}.jsonl"
        path.write_text(lines(first), encoding="utf-8")
        kb = KnowledgeBase(path)
        with contextlib.suppress(KnowledgeBaseError):
            kb.lookup(key)
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(lines(appended))
            kb.lookup(key)
            caught.add(name)
    return caught


def test_the_unmutated_store_passes_every_check(tmp_path):
    assert _store_checks_that_catch(tmp_path) == set()


@pytest.mark.parametrize(
    "name, old, caught_by",
    [
        # a conflicting store returns the record on file and writes nothing: only the
        # refusal check sees it, and the file itself stays free of conflicts
        pytest.param("store", "if existing.status is not status:", {"store conflict"}, id="store"),
        pytest.param("_parse", "if previous is not None and previous.status is not record.status:",
                     {"conflict on file", "conflict appended"}, id="parse"),
    ],
)
def test_a_verdict_store_without_its_conflict_check_is_caught(monkeypatch, tmp_path, name, old, caught_by):
    monkeypatch.setattr(KnowledgeBase, name, _mutated(KnowledgeBase, name, old, "if False:"))
    assert _store_checks_that_catch(tmp_path) == caught_by


# -- the lattice block of a text report and the unitriangular check -----------------


@pytest.fixture
def report_inputs(tmp_path, monkeypatch):
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)


def _report_checks_that_catch() -> set[str]:
    """The commands of the recorded report cases (``tests/cli_expected``) whose requests
    no longer print their recording byte for byte, run where the cases' inputs are."""
    return {" ".join(argv[:2]) for case, (argv, *_) in CASES.items()
            if transcript(case).encode("utf-8") != (EXPECTED / f"{case}.txt").read_bytes()}


def test_the_unmutated_reports_pass_every_check(report_inputs):
    assert _report_checks_that_catch() == set()


_INLINE_MATRICES = {"graph check", "cluster build"}


@pytest.mark.parametrize(
    "old, new, caught_by",
    [
        pytest.param("all(isinstance", "any(isinstance", _INLINE_MATRICES, id="any line a string"),
        pytest.param(" and all(isinstance(line, str) for line in lines)", "", _INLINE_MATRICES,
                     id="appended whenever there is M"),
        pytest.param("M is not None and all(isinstance(line, str) for line in lines)", "False",
                     {"val compare", "val ord", "adj obstruct", "adj table", "euler bound", "dfd check"},
                     id="never appended"),
    ],
)
def test_a_mutated_lattice_block_rule_is_caught(monkeypatch, report_inputs, old, new, caught_by):
    monkeypatch.setattr(cli, "_report", _mutated(cli, "_report", old, new))
    assert _report_checks_that_catch() == caught_by


def _unitriangular_checks_that_catch() -> set[str]:
    """The named checks that fail: -P^t P of the structures on <= 4 points against their
    simulated lattices, and the refusal of a lower triangular P with a diagonal entry 2
    and of an upper triangular P with a unit diagonal."""
    caught = set()
    for cluster in enumerate_proximity_structures(4):
        try:
            derived = clusters.intersection_from_proximity(proximity_matrix(cluster)).rows
        except ValidationError:
            derived = None
        if derived != intersection_matrix(simulate(cluster)).rows:
            caught.add("proximity identity")
    for name, rows in (("diagonal refusal", [[1, 0], [-1, 2]]), ("upper refusal", [[1, -1], [0, 1]])):
        with contextlib.suppress(ValidationError):
            clusters.intersection_from_proximity(ExactMatrix.from_rows(rows))
            caught.add(name)
    return caught


def test_the_unmutated_unitriangular_check_passes_every_check():
    assert _unitriangular_checks_that_catch() == set()


@pytest.mark.parametrize(
    "new, caught_by",
    [
        pytest.param("any(P.rows[i][i + 1:])", {"diagonal refusal"}, id="diagonal half dropped"),
        pytest.param("P.rows[i][i] != 1", {"upper refusal"}, id="upper half dropped"),
    ],
)
def test_a_unitriangular_check_missing_a_half_is_caught(monkeypatch, new, caught_by):
    mutant = _mutated(clusters, "intersection_from_proximity", "P.rows[i][i] != 1 or any(P.rows[i][i + 1:])", new)
    monkeypatch.setattr(clusters, "intersection_from_proximity", mutant)
    assert _unitriangular_checks_that_catch() == caught_by


# -- explicit curvettes -----------------------------------------------------------


def _curvette_checks_that_catch() -> set[str]:
    """The named checks that fail on the tangent clusters of <= 3 points: the lattice
    self-check of ``curvette_polynomial``, the Sylvester resultant of the pushed-down
    parametrization at every point it builds, and the refusal set, which must be the
    points whose pushed-down x(t) is not a monomial."""
    caught = set()
    for structure in enumerate_proximity_structures(3):
        for cluster in enumerate_tangent_assignments(structure, TANGENT_POOL):
            for i in range(cluster.n):
                x_t, y_t = pushed_parametrization(cluster, i)
                try:
                    g, refused = valuations.curvette_polynomial(cluster, i), False
                except InternalInvariantError as exc:
                    g, refused = None, "produced x(t)" in str(exc)
                    if "produced profile" in str(exc):
                        caught.add("self-check")
                if refused != (len(x_t.terms) > 1):
                    caught.add("refusal set")
                elif g is not None and g != eliminate_parameter(x_t, y_t):
                    caught.add("Sylvester oracle")
    return caught


def test_the_unmutated_curvettes_pass_every_check():
    assert _curvette_checks_that_catch() == set()


@pytest.mark.parametrize(
    "old, new, caught_by",
    [
        pytest.param("[[(-1) ** m]]", "[[(-1) ** (m + 1)]]", {"Sylvester oracle"}, id="sign flipped"),
        pytest.param("[m * v for v in power[::m]]", "[v for v in power[::m]]",
                     {"self-check", "Sylvester oracle"}, id="power sums without m"),
        pytest.param("m, l = len(x) - 1, x[-1]\n    if x.count(0) != m:",
                     "m, l = next((a, v) for a, v in enumerate(x) if v)\n    if False:",
                     {"refusal set"}, id="lowest term of x(t)"),
    ],
)
def test_a_mutated_curvette_elimination_is_caught(monkeypatch, old, new, caught_by):
    """The self-check reads orders, so it cannot see a constant factor such as the sign;
    the oracle can.  Taking x(t)'s lowest term for l*t^m builds an equation where x(t)
    is no monomial, e.g. x^2 - 2*x*y + y^2 - x at point 4 of the 5-point cluster
    [(None,), (0, None, INF), (0, None, 0), (0, None, 1), (1, None, 1)], which passes
    its self-check; there is no resultant to hold it to, so only the refusal set pins it."""
    mutant = _mutated(valuations, "curvette_polynomial", old, new)
    monkeypatch.setattr(valuations, "curvette_polynomial", mutant)
    assert _curvette_checks_that_catch() == caught_by


# -- canonical keys ---------------------------------------------------------------

_TRIANGLE, _SQUARE = [(0, 1), (1, 2), (0, 2)], [(0, 1), (1, 2), (2, 3), (0, 3)]
_CYCLES = [  # a triangle beside a square, in both vertex orders: one cell that refinement cannot split
    DualGraph.build([(i, -2) for i in range(7)], first + [(a + len(first), b + len(first)) for a, b in second])
    for first, second in ((_TRIANGLE, _SQUARE), (_SQUARE, _TRIANGLE))
]


def _key_checks_that_catch() -> set[str]:
    """The named checks that fail: the keys of every pair graph of the structures on
    <= 4 points, and of two small 2-regular graphs, against the unpruned oracle."""
    caught = set()
    for cluster in enumerate_proximity_structures(4):
        for e, f in itertools.product(range(cluster.n), repeat=2):
            graph = pair_graph(cluster, e, f)
            if canonical_key(graph).key != canonical_form_oracle(graph):
                caught.add("pair-graph oracle")
    if any(canonical_key(graph).key != canonical_form_oracle(graph) for graph in _CYCLES):
        caught.add("cycle oracle")
    return caught


def test_the_unmutated_keys_pass_every_check():
    assert _key_checks_that_catch() == set()


def test_a_search_pruning_every_twin_checked_vertex_is_caught(monkeypatch):
    """With every two vertices of a cell taken for twins, each cell is branched on its
    first vertex only.  Pair graphs are trees, and on a tree colour refinement already
    splits the vertices into their orbits, so every vertex of a cell leads to the same
    leaves: the pair graphs cannot see this.  The triangle beside the square can: its
    one cell holds vertices that no automorphism swaps."""
    mutant = _mutated(canonical, "_canonical_form", "return {**nbrs[u], u: 0, v: 0} == {**nbrs[v], u: 0, v: 0}",
                      "return True")
    monkeypatch.setattr(canonical, "_canonical_form", mutant)
    assert _key_checks_that_catch() == {"cycle oracle"}


# -- the germ reader ---------------------------------------------------------------

_GERMS = [
    Poly2({(0, 2): 1, (3, 0): -1}),
    Poly2({(1, 1): 2, (0, 1): Fraction(1, 2), (0, 0): -3}),
    Poly2({(2, 5): Fraction(-7, 3), (4, 0): 5, (0, 0): 1}),
]


def _reader_checks_that_catch() -> set[str]:
    """The named checks that fail: every refusal of the grammar, word for word, and
    the round trip of a few germs through their text."""
    caught = set()
    for text, message in GERM_REFUSALS:
        try:
            polynomials.parse_poly(text)
            caught.add("refusal table")
        except ValidationError as exc:
            if str(exc) != message:
                caught.add("refusal table")
    if any(polynomials.parse_poly(str(g)) != g for g in _GERMS):
        caught.add("round trip")
    return caught


def test_the_unmutated_reader_passes_every_check():
    assert _reader_checks_that_catch() == set()


@pytest.mark.parametrize(
    "old, new, caught_by",
    [
        pytest.param('-1 if sign == "-" else 1', "1", {"round trip"}, id="sign after - dropped"),
        pytest.param("power[value] += n", 'power["y" if value == "x" else "x"] += n', {"round trip"},
                     id="exponent on the other variable"),
        pytest.param("coef = Fraction(coef, n)", "coef = coef", {"round trip"}, id="p/q read as p"),
    ],
)
def test_a_mutated_germ_reader_is_caught(monkeypatch, old, new, caught_by):
    mutant = _mutated(polynomials, "parse_poly", old, new)
    monkeypatch.setattr(polynomials, "parse_poly", mutant)
    assert _reader_checks_that_catch() == caught_by
