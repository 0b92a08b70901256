import json
import multiprocessing
import os
from fractions import Fraction

import pytest
from helpers import compare_joint_model, obstruction_joint_model, solve_cramer

from nasharc import (
    CanonicalKey,
    Comparison,
    KnowledgeBase,
    KnowledgeBaseConflict,
    KnowledgeBaseError,
    ObstructionStatus,
    ValidationError,
    adjacency_table,
    canonical_key,
    cluster_fixture,
    cluster_matrix,
    compare,
    curvette_order_rows,
    curvette_polynomial,
    enumerate_proximity_structures,
    intersection_matrix,
    ord_poly,
    pair_graph,
    parse_poly,
    refined_valuative_obstruction,
    returns_system,
    standard_fixture,
    valuative_obstruction,
)
from nasharc import obstructions

CHAIN2 = cluster_fixture("chain2")
SATELLITE = cluster_fixture("satellite3")
TWO_DIRECTIONS = cluster_fixture("twodir")


def test_valuative_chain_not_ruled_out():
    verdict = valuative_obstruction(CHAIN2, 0, 1)
    assert verdict.status is ObstructionStatus.NOT_RULED_OUT
    assert verdict.adjacency == "N_1 in N_0"
    assert verdict.witness is None


def test_valuative_chain_ruled_out():
    verdict = valuative_obstruction(CHAIN2, 1, 0)
    assert verdict.status is ObstructionStatus.RULED_OUT
    assert verdict.adjacency == "N_0 in N_1"
    assert verdict.witness.point == 1
    assert (verdict.witness.ord_sub, verdict.witness.ord_sup) == (1, 2)


def test_valuative_incomparable_pair_ruled_out_both_ways():
    down = valuative_obstruction(TWO_DIRECTIONS, 2, 1)
    up = valuative_obstruction(TWO_DIRECTIONS, 1, 2)
    assert down.status is ObstructionStatus.RULED_OUT
    assert up.status is ObstructionStatus.RULED_OUT
    assert (down.witness.ord_sub, down.witness.ord_sup) == (1, 2)
    assert (up.witness.ord_sub, up.witness.ord_sup) == (1, 2)
    # the witnesses are curvettes through the two incomparable points
    assert {down.witness.point, up.witness.point} == {1, 2}


def test_valuative_rejects_equal_indices():
    with pytest.raises(ValidationError):
        valuative_obstruction(CHAIN2, 1, 1)


def test_valuative_agrees_with_compare():
    for cluster in enumerate_proximity_structures(4):
        for e in range(cluster.n):
            for f in range(cluster.n):
                if e == f:
                    continue
                verdict = valuative_obstruction(cluster, e, f)
                comparable = compare(cluster, e, f) is Comparison.LESS_EQ
                assert (verdict.status is ObstructionStatus.NOT_RULED_OUT) == comparable


def test_ruled_out_witnesses_have_explicit_germs():
    cases = [
        (CHAIN2, 1, 0),
        (TWO_DIRECTIONS, 1, 2),
        (TWO_DIRECTIONS, 2, 1),
        (SATELLITE, 1, 0),
        (SATELLITE, 2, 0),
        (SATELLITE, 2, 1),
    ]
    for cluster, e, f in cases:
        verdict = valuative_obstruction(cluster, e, f)
        assert verdict.status is ObstructionStatus.RULED_OUT
        germ = curvette_polynomial(cluster, verdict.witness.point)
        assert ord_poly(cluster, germ, f) < ord_poly(cluster, germ, e)
        assert ord_poly(cluster, germ, f) == verdict.witness.ord_sub
        assert ord_poly(cluster, germ, e) == verdict.witness.ord_sup


def test_refined_obstruction_examples():
    x, y = parse_poly("x"), parse_poly("y")
    first = refined_valuative_obstruction(CHAIN2, 1, 0, 0, x)
    assert first.status is ObstructionStatus.RULED_OUT
    assert (first.witness.ord_sub, first.witness.ord_ret_1, first.witness.ord_ret_2) == (1, 1, 1)
    second = refined_valuative_obstruction(CHAIN2, 1, 0, 1, y)
    assert second.status is ObstructionStatus.RULED_OUT
    assert (second.witness.ord_sub, second.witness.ord_ret_1, second.witness.ord_ret_2) == (2, 1, 2)
    third = refined_valuative_obstruction(CHAIN2, 0, 1, 1, x)
    assert third.status is ObstructionStatus.RULED_OUT
    assert (third.witness.ord_sub, third.witness.ord_ret_1, third.witness.ord_ret_2) == (1, 1, 1)


def test_refined_obstruction_doc_carries_the_order_witness():
    verdict = refined_valuative_obstruction(CHAIN2, 1, 0, 0, parse_poly("x"))
    assert verdict.to_doc() == {
        "status": "RULED_OUT",
        "adjacency": "N_1 in N_0 with a return lifting by 0",
        "witness": {"kind": "orders", "polynomial": "x", "ord_sub": 1, "ord_return_1": 1, "ord_return_2": 1},
        "detail": "ord_1(g) = 1 < 1 + 1 = ord_0(g) + ord_0(g)",
    }


def test_refined_obstruction_walks_the_charts_once(monkeypatch):
    import nasharc.valuations as valuations

    cluster = cluster_fixture("chain3")
    g = parse_poly("y^2 - x^5")
    expected = [ord_poly(cluster, g, i) for i in (2, 0, 1)]
    walks = []
    multiplicities = valuations._multiplicities

    def spy(cluster, g, points):
        walks.append(points)
        return multiplicities(cluster, g, points)

    monkeypatch.setattr(valuations, "_multiplicities", spy)
    verdict = refined_valuative_obstruction(cluster, 2, 0, 1, g)
    assert len(walks) == 1
    witness = verdict.witness
    assert [witness.ord_sub, witness.ord_ret_1, witness.ord_ret_2] == expected


def test_refined_obstruction_can_abstain():
    y = parse_poly("y")
    verdict = refined_valuative_obstruction(CHAIN2, 1, 0, 0, y)
    # ord_1(y) = 2 equals ord_0(y) + ord_0(y): no strict inequality
    assert verdict.status is ObstructionStatus.NOT_RULED_OUT


def test_refined_obstruction_validation():
    with pytest.raises(ValidationError):
        refined_valuative_obstruction(CHAIN2, 0, 1, 5, parse_poly("x"))
    with pytest.raises(ValidationError):
        refined_valuative_obstruction(CHAIN2, 0, 1, 1, parse_poly("x - x"))


def test_returns_system_closed_forms():
    # frozen from an independent Cramer solve
    a1 = intersection_matrix(standard_fixture("A1"))
    result = returns_system(a1, (0,), 0)
    assert result.solution == (Fraction(1, 2),)
    assert result.verdict.status is ObstructionStatus.RULED_OUT
    assert solve_cramer(a1, result.rhs) == [Fraction(1, 2)]

    lifting = returns_system(a1, (1,), 0)
    assert lifting.solution == (Fraction(0),)
    assert lifting.verdict.status is ObstructionStatus.RULED_OUT
    assert "special entry vanishes" in lifting.verdict.detail
    relaxed = returns_system(a1, (1,), 0, require_no_lift=False)
    assert relaxed.verdict.status is ObstructionStatus.NOT_RULED_OUT

    a2 = intersection_matrix(standard_fixture("A2"))
    mixed = returns_system(a2, (0, 1), 0)
    assert mixed.solution == (Fraction(1, 3), Fraction(-1, 3))
    assert mixed.verdict.status is ObstructionStatus.RULED_OUT
    assert solve_cramer(a2, mixed.rhs) == [Fraction(1, 3), Fraction(-1, 3)]
    reasons = dict(mixed.verdict.witness.offending)
    assert 0 in reasons and 1 in reasons


def test_returns_system_printed_orientation_is_reported():
    a1 = intersection_matrix(standard_fixture("A1"))
    result = returns_system(a1, (0,), 0)
    assert result.rhs == (-1,)
    assert result.printed_rhs == (1,)
    assert result.printed_solution == (Fraction(-1, 2),)


def test_returns_system_zero_returns_equals_curvette_row():
    for cluster in enumerate_proximity_structures(5):
        matrix = cluster_matrix(cluster)
        rows = curvette_order_rows(cluster)
        for special in range(cluster.n):
            result = returns_system(matrix, (0,) * cluster.n, special)
            assert result.solution == tuple(Fraction(v) for v in rows[special])
            assert all(v > 0 for v in result.solution)
            assert result.verdict.status is (
                ObstructionStatus.RULED_OUT
                if any(v.denominator != 1 for v in result.solution)
                else ObstructionStatus.NOT_RULED_OUT
            )


def test_returns_system_validation():
    a1 = intersection_matrix(standard_fixture("A1"))
    with pytest.raises(ValidationError):
        returns_system(a1, (-1,), 0)
    with pytest.raises(ValidationError):
        returns_system(a1, (0, 0), 0)
    with pytest.raises(ValidationError):
        returns_system(a1, (0,), 3)
    from nasharc import ExactMatrix

    with pytest.raises(ValidationError):
        returns_system(ExactMatrix.from_rows([[-2, -1], [-1, -2]]), (0, 0), 0)
    with pytest.raises(ValidationError):
        returns_system(ExactMatrix.from_rows([[Fraction(1, 2)]]), (0,), 0)
    # True, 1.0 and Fraction(1) equal 1, and would solve for component 1
    a2 = intersection_matrix(standard_fixture("A2"))
    for special in (True, 1.0, Fraction(1), "1", None):
        with pytest.raises(ValidationError, match="special component index must be an integer"):
            returns_system(a2, (0, 0), special)


def test_adjacency_table_satellite():
    table = adjacency_table(SATELLITE)
    downward = [(0, 1), (0, 2), (1, 2)]
    for pair in downward:
        assert table[pair].status is ObstructionStatus.NOT_RULED_OUT
    for pair in [(1, 0), (2, 0), (2, 1)]:
        assert table[pair].status is ObstructionStatus.RULED_OUT


def test_adjacency_table_two_directions():
    table = adjacency_table(TWO_DIRECTIONS)
    assert table[(1, 2)].status is ObstructionStatus.RULED_OUT
    assert table[(2, 1)].status is ObstructionStatus.RULED_OUT


def test_adjacency_table_single_point_empty():
    assert adjacency_table(cluster_fixture("chain1")) == {}


def test_adjacency_table_partial_order():
    for cluster in enumerate_proximity_structures(5):
        table = adjacency_table(cluster)
        kept = {pair for pair, v in table.items() if not v.ruled_out}
        for e, f in kept:
            assert (f, e) not in kept  # antisymmetry
            for g in range(cluster.n):
                if (f, g) in kept and e != g:
                    assert (e, g) in kept  # transitivity


def test_pair_verdicts_match_minimal_joint_model_oracle():
    clusters = list(enumerate_proximity_structures(5))
    clusters += [cluster_fixture(f"chain{n}") for n in range(3, 13)]
    pairs = 0
    for cluster in clusters:
        table = adjacency_table(cluster)
        for e in range(cluster.n):
            for f in range(cluster.n):
                assert compare(cluster, e, f) is compare_joint_model(cluster, e, f)
                if e == f:
                    continue
                status, witness = obstruction_joint_model(cluster, e, f)
                verdict = valuative_obstruction(cluster, e, f)
                assert (verdict.status, verdict.witness) == (status, witness)
                assert table[(e, f)] == verdict
                pairs += 1
    assert pairs > 2000


def test_knowledge_base_roundtrip(tmp_path):
    kb = KnowledgeBase(tmp_path / "verdicts.jsonl")
    key = canonical_key(pair_graph(CHAIN2, 0, 1))
    assert kb.lookup(key) is None
    kb.store(key, ObstructionStatus.NOT_RULED_OUT, provenance="chain2 pair (0,1)")

    relabeled = pair_graph(CHAIN2, 0, 1).relabel({0: 9, 1: 4})
    hit = kb.lookup(canonical_key(relabeled))
    assert hit is not None
    assert hit.status is ObstructionStatus.NOT_RULED_OUT
    assert hit.provenance == "chain2 pair (0,1)"

    other = canonical_key(pair_graph(SATELLITE, 0, 2))
    assert kb.lookup(other) is None


def test_knowledge_base_same_status_is_idempotent(tmp_path):
    kb = KnowledgeBase(tmp_path / "verdicts.jsonl")
    key = canonical_key(pair_graph(CHAIN2, 1, 0))
    kb.store(key, ObstructionStatus.RULED_OUT)
    kb.store(key, ObstructionStatus.RULED_OUT, provenance="second look")
    with open(kb.path, encoding="utf-8") as handle:
        assert len(handle.readlines()) == 1


def test_knowledge_base_conflicts_are_rejected(tmp_path):
    kb = KnowledgeBase(tmp_path / "verdicts.jsonl")
    key = canonical_key(pair_graph(CHAIN2, 1, 0))
    kb.store(key, ObstructionStatus.RULED_OUT)
    with pytest.raises(KnowledgeBaseConflict):
        kb.store(key, ObstructionStatus.NOT_RULED_OUT)


def test_knowledge_base_corrupt_file(tmp_path):
    path = tmp_path / "verdicts.jsonl"
    path.write_text('{"key": "k", "status": "RULED_OUT"}\nnot json\n', encoding="utf-8")
    with pytest.raises(KnowledgeBaseError) as err:
        KnowledgeBase(path).lookup(canonical_key(pair_graph(CHAIN2, 0, 1)))
    assert ":2:" in str(err.value)

    torn = '{"key": "k", "status": "RULED_OUT"}\n{"key": "j", "sta'  # a torn last append
    path.write_text(torn, encoding="utf-8")
    with pytest.raises(KnowledgeBaseError) as err:
        KnowledgeBase(path).store(canonical_key(pair_graph(CHAIN2, 0, 1)), ObstructionStatus.RULED_OUT)
    assert ":2:" in str(err.value)
    assert path.read_text(encoding="utf-8") == torn


def test_knowledge_base_store_after_a_record_without_newline(tmp_path):
    path = tmp_path / "verdicts.jsonl"
    first = canonical_key(pair_graph(CHAIN2, 0, 1))
    KnowledgeBase(path).store(first, ObstructionStatus.NOT_RULED_OUT)
    path.write_text(path.read_text(encoding="utf-8").rstrip("\n"), encoding="utf-8")
    kb = KnowledgeBase(path)
    second = canonical_key(pair_graph(SATELLITE, 0, 2))
    kb.store(second, ObstructionStatus.RULED_OUT)
    assert kb.lookup(first).status is ObstructionStatus.NOT_RULED_OUT
    assert kb.lookup(second).status is ObstructionStatus.RULED_OUT
    assert path.read_text(encoding="utf-8").count("\n") == 2


@pytest.mark.parametrize(
    "record",
    [
        '{"key": [], "status": "RULED_OUT"}',
        '{"key": 7, "status": "RULED_OUT"}',
        '{"key": "k", "status": "RULED_OUT", "provenance": {}}',
    ],
)
def test_knowledge_base_records_hold_string_keys_and_provenance(record, tmp_path):
    path = tmp_path / "verdicts.jsonl"
    path.write_text(record + "\n", encoding="utf-8")
    with pytest.raises(KnowledgeBaseError, match=":1: corrupt knowledge-base record: key and provenance"):
        KnowledgeBase(path).lookup(CanonicalKey(b"k"))


def test_knowledge_base_reads_carriage_returns_as_line_ends(tmp_path):
    path = tmp_path / "verdicts.jsonl"
    record = '{"key": "k", "status": "RULED_OUT"}'
    path.write_bytes(f"{record}\r\n{record}\rnot json\n".encode())
    with pytest.raises(KnowledgeBaseError, match=":3: corrupt"):
        KnowledgeBase(path).lookup(CanonicalKey(b"k"))

    path.write_bytes(f"{record}\r".encode())
    kb = KnowledgeBase(path)
    kb.store(CanonicalKey(b"j"), ObstructionStatus.NOT_RULED_OUT)
    assert path.read_bytes().count(b"\n") == 1
    assert kb.lookup(CanonicalKey(b"k")).status is ObstructionStatus.RULED_OUT


def test_knowledge_base_sees_records_appended_by_another_instance(tmp_path):
    path = tmp_path / "verdicts.jsonl"
    first = canonical_key(pair_graph(CHAIN2, 0, 1))
    second = canonical_key(pair_graph(SATELLITE, 0, 2))
    kb = KnowledgeBase(path)
    kb.store(first, ObstructionStatus.NOT_RULED_OUT)
    assert kb.lookup(second) is None
    KnowledgeBase(path).store(second, ObstructionStatus.RULED_OUT, provenance="other writer")
    assert kb.lookup(second).provenance == "other writer"
    with pytest.raises(KnowledgeBaseConflict):
        kb.store(second, ObstructionStatus.NOT_RULED_OUT)


def test_knowledge_base_corruption_appended_after_indexing(tmp_path):
    path = tmp_path / "verdicts.jsonl"
    kb = KnowledgeBase(path)
    keys = [canonical_key(pair_graph(SATELLITE, e, f)) for e, f in ((0, 1), (0, 2), (1, 2))]
    for key in keys:
        kb.store(key, ObstructionStatus.RULED_OUT)
    assert kb.lookup(keys[0]) is not None
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("not json\n")
    for _ in range(2):  # the error stands; the index does not swallow the line
        with pytest.raises(KnowledgeBaseError) as err:
            kb.lookup(keys[0])
        assert f"{path}:4:" in str(err.value)
    with pytest.raises(KnowledgeBaseError) as err:
        kb.store(canonical_key(pair_graph(CHAIN2, 0, 1)), ObstructionStatus.NOT_RULED_OUT)
    assert ":4:" in str(err.value)

    text = path.read_text(encoding="utf-8").replace("not json\n", "")
    record = json.loads(text.splitlines()[1])
    record["status"] = "NOT_RULED_OUT"
    path.write_text(text + json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(KnowledgeBaseError, match=f"{path}:4: conflicting verdicts"):
        kb.lookup(keys[0])


def test_knowledge_base_reindexes_a_truncated_or_replaced_file(tmp_path):
    path = tmp_path / "verdicts.jsonl"
    first, second, third = (
        canonical_key(pair_graph(cluster, e, f))
        for cluster, e, f in ((CHAIN2, 0, 1), (SATELLITE, 0, 2), (TWO_DIRECTIONS, 1, 2))
    )
    kb = KnowledgeBase(path)
    kb.store(first, ObstructionStatus.NOT_RULED_OUT)
    kb.store(second, ObstructionStatus.RULED_OUT)
    assert kb.lookup(second) is not None

    with open(path, "r+", encoding="utf-8") as handle:
        handle.truncate(len(handle.readline()))
    assert kb.lookup(second) is None
    assert kb.lookup(first).status is ObstructionStatus.NOT_RULED_OUT
    kb.store(second, ObstructionStatus.NOT_RULED_OUT)  # the old verdict is gone with its line

    other = tmp_path / "other.jsonl"
    KnowledgeBase(other).store(third, ObstructionStatus.RULED_OUT)
    os.replace(other, path)
    assert kb.lookup(first) is None
    assert kb.lookup(third).status is ObstructionStatus.RULED_OUT

    path.unlink()
    assert kb.lookup(third) is None


def test_knowledge_base_reads_only_appended_bytes(tmp_path, monkeypatch):
    read = [0]

    class CountingHandle:
        def __init__(self, handle):
            self._handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._handle.close()

        def __getattr__(self, name):
            return getattr(self._handle, name)

        def read(self, *args):
            data = self._handle.read(*args)
            read[0] += len(data)
            return data

    counting_open = lambda *args, **kw: CountingHandle(open(*args, **kw))  # noqa: E731
    monkeypatch.setattr(obstructions, "open", counting_open, raising=False)
    kb = KnowledgeBase(tmp_path / "verdicts.jsonl")
    for i in range(2000):
        kb.store(CanonicalKey(b"[%d]" % i), ObstructionStatus.RULED_OUT)
    size = os.path.getsize(kb.path)
    # each store reads the line the one before it appended, never the whole file
    assert size // 2 <= read[0] <= 2 * size


def _store_all(path, entries, barrier):
    barrier.wait(timeout=60)
    kb = KnowledgeBase(path)
    for key, status in entries:
        kb.store(key, status, provenance="writer")


def _store_opposite(path, keys, status, barrier, outcomes):
    kb = KnowledgeBase(path)
    results = []
    for key in keys:
        barrier.wait(timeout=60)
        try:
            kb.store(key, status)
            results.append("stored")
        except KnowledgeBaseConflict:
            results.append("conflict")
        except KnowledgeBaseError:  # both verdicts were filed; the store is unreadable
            results.append("unreadable")
    outcomes.put(results)


def _join_all(workers):
    for worker in workers:
        worker.join(timeout=120)
    assert all(not w.is_alive() and w.exitcode == 0 for w in workers)


def test_knowledge_base_concurrent_writers(tmp_path):
    verdicts = {}
    for cluster in enumerate_proximity_structures(4):
        for (e, f), verdict in adjacency_table(cluster).items():
            verdicts[canonical_key(pair_graph(cluster, e, f))] = verdict.status
    entries = list(verdicts.items())
    path = os.fspath(tmp_path / "verdicts.jsonl")
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(4)
    workers = [
        ctx.Process(target=_store_all, args=(path, entries[w * 12 :] + entries[: w * 12], barrier))
        for w in range(4)
    ]
    for worker in workers:
        worker.start()
    _join_all(workers)
    with open(path, encoding="utf-8") as handle:
        keys = [json.loads(line)["key"] for line in handle]
    assert sorted(keys) == sorted(key.as_text() for key in verdicts)
    fresh = KnowledgeBase(path)
    for key, status in entries:
        assert fresh.lookup(key).status is status

    # opposite verdicts raced for one key: exactly one is filed; the records
    # already on file keep each writer between its look-up and its append
    # long enough for an unlocked store to race
    keys = [CanonicalKey(b"[%d]" % i) for i in range(40)]
    race = os.fspath(tmp_path / "race.jsonl")
    with open(race, "w", encoding="utf-8") as handle:
        handle.writelines(f'{{"key": "filed {i}", "status": "RULED_OUT"}}\n' for i in range(2000))
    barrier, outcomes = ctx.Barrier(2), ctx.Queue()
    workers = [
        ctx.Process(target=_store_opposite, args=(race, keys, status, barrier, outcomes))
        for status in ObstructionStatus
    ]
    for worker in workers:
        worker.start()
    results = [outcomes.get(timeout=120) for _ in workers]
    _join_all(workers)
    assert all(sorted(pair) == ["conflict", "stored"] for pair in zip(*results))
    fresh = KnowledgeBase(race)
    assert all(fresh.lookup(key) is not None for key in keys)


def test_verdict_documents_are_machine_readable():
    verdict = valuative_obstruction(CHAIN2, 1, 0)
    doc = verdict.to_doc()
    assert doc["status"] == "RULED_OUT"
    assert doc["witness"]["kind"] == "curvette"
    assert doc["witness"]["point"] == 1


def test_returns_system_singular_matrix():
    from nasharc import ExactMatrix, SingularMatrixError

    degenerate = ExactMatrix.from_rows([[0]])
    with pytest.raises(SingularMatrixError):
        returns_system(degenerate, (0,), 0)
