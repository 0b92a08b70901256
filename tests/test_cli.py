import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
import time
import tracemalloc
from unittest import mock

import pytest
from helpers import cluster_build_determinants, count_eliminations
from hypothesis import given, settings
from hypothesis import strategies as st

import nasharc.cli as cli
from nasharc import (
    KnowledgeBase,
    ObstructionStatus,
    canonical_key,
    cluster_fixture,
    pair_graph,
    standard_fixture,
)
from nasharc.dual_graphs import MAX_GRAPH_EDGES, MAX_WEIGHT_DIGITS


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_graph_check_fixture_text(capsys):
    code, out, err = run_cli(capsys, "graph", "check", "fixtures/E8")
    assert code == 0 and err == ""
    assert "negative definite: yes" in out
    assert "det(M) = 1" in out
    assert "all entries strictly negative" in out


def test_graph_check_structured_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "graph", "check", "A2", "--format", "structured")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "report/1"
    assert report["negative_definite"] is True
    assert report["determinant"] == "3"
    assert report["matrices"]["M"]["rows"] == [["-2", "1"], ["1", "-2"]]
    # canonical serialization: dumping the parsed report reproduces the output
    assert json.dumps(report, indent=2, sort_keys=True) == out.strip()


def test_graph_check_document_and_diagnostics(tmp_path, capsys):
    good = tmp_path / "graph.json"
    good.write_text(json.dumps(standard_fixture("A3").to_doc()), encoding="utf-8")
    code, out, _ = run_cli(capsys, "graph", "check", str(good))
    assert code == 0 and "3 vertices" in out

    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"schema": "dualgraph/1", "vertices": [{"id": 0, "self_int": -2}], "edges": [[0, 0]]}),
        encoding="utf-8",
    )
    code, _, err = run_cli(capsys, "graph", "check", str(bad))
    assert code == 2
    assert "loop" in err


def test_cluster_document_errors_name_their_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "cluster/1", "points": [{}, {"parent": 3}]}), encoding="utf-8")
    code, _, err = run_cli(capsys, "cluster", "build", str(bad))
    assert code == 2
    assert err.startswith(f"error: {bad}: invalid cluster document: points[1].parent: ")
    # the replay's refusals too: the schema allows two points with one direction
    taken = tmp_path / "taken.json"
    points = [{}, {"parent": 0, "tangent": "1"}, {"parent": 0, "tangent": "1"}]
    taken.write_text(json.dumps({"schema": "cluster/1", "points": points}), encoding="utf-8")
    code, _, err = run_cli(capsys, "cluster", "build", str(taken))
    assert code == 2 and err.startswith(f"error: {taken}: points[2].tangent: direction 1 ")
    # and a wedge model that references the file
    model = tmp_path / "model.json"
    doc = {"schema": "wedgemodel/1", "cluster": str(bad), "special": 1, "c": [0, 0], "d": [0, 0]}
    model.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(capsys, "dfd", "check", str(model))
    assert code == 2 and err.startswith(f"error: {bad}: invalid cluster document: ")


def _chain_doc(n):
    return {
        "schema": "dualgraph/1",
        "vertices": [{"id": i, "self_int": -2} for i in range(n)],
        "edges": [[i, i + 1] for i in range(n - 1)],
    }


def test_graph_documents_are_capped_at_100_vertices(tmp_path, capsys):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(_chain_doc(101)), encoding="utf-8")
    euler = ("euler", "bound", str(path), "--coeffs", ",".join(["1"] * 101), "--attach", "0")
    for argv in (("graph", "check", str(path)), euler):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert "limited to 100 vertices, got 101" in err
    path.write_text(json.dumps(_chain_doc(100)), encoding="utf-8")
    code, out, err = run_cli(capsys, "graph", "check", str(path))
    assert code == 0 and "100 vertices" in out, err


def test_graph_documents_are_capped_at_1_digit_weights(tmp_path, capsys, monkeypatch):
    calls = count_eliminations(monkeypatch)
    for weight in (9, -9):
        path = _write(tmp_path, {"schema": "dualgraph/1", "vertices": [{"id": 0, "self_int": weight}]})
        code, out, err = run_cli(capsys, "graph", "check", str(path))
        assert code == 0, err
    for weight in (10, -10, -(10**4000)):
        calls.clear()
        path = _write(tmp_path, {"schema": "dualgraph/1", "vertices": [{"id": 0, "self_int": weight}]})
        code, out, err = run_cli(capsys, "euler", "bound", str(path), "--coeffs", "1", "--attach", "0")
        assert code == 2 and out == "" and calls == []
        assert err == (f"error: {path}: invalid graph document: "
                       "vertices[0].self_int: graph documents are limited to 1-digit weights\n")


def test_graph_documents_are_capped_at_1000_edges(tmp_path, capsys, monkeypatch):
    calls = count_eliminations(monkeypatch)
    path = _write(tmp_path, {**_chain_doc(2), "edges": [[0, 1]] * 1000})
    code, out, err = run_cli(capsys, "graph", "check", str(path))
    assert code == 0 and "1000 edges" in out, err
    calls.clear()
    path = _write(tmp_path, {**_chain_doc(2), "edges": [[0, 1]] * 1001})
    euler = ("euler", "bound", str(path), "--coeffs", "1,1", "--attach", "0")
    for argv in (("graph", "check", str(path)), euler):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and calls == []
        assert err == (f"error: {path}: invalid graph document: "
                       "edges: graph documents are limited to 1000 edges, got 1001\n")


def test_graph_fixture_names_may_carry_surrounding_whitespace(capsys):
    # as cluster fixture names (' chain2') always could
    code, out, err = run_cli(capsys, "graph", "check", " A2")
    assert code == 0 and err == ""
    assert out == run_cli(capsys, "graph", "check", "A2")[1]
    assert out.startswith("graph: 2 vertices, 1 edges, connected\n")


def test_each_matrix_is_rendered_once_in_the_format_asked_for(capsys, monkeypatch):
    from nasharc import format_rational

    calls = []

    def spy(value):
        calls.append(value)
        return format_rational(value)

    for name, module in list(sys.modules.items()):
        if name.startswith("nasharc") and getattr(module, "format_rational", None) is format_rational:
            monkeypatch.setattr(module, "format_rational", spy)
    for fmt in ("text", "structured"):
        calls.clear()
        code, _, err = run_cli(
            capsys, "euler", "bound", "E8", "--coeffs", "2,3,4,5,6,4,2,3", "--attach", "7", "--format", fmt
        )
        assert code == 0, err
        assert len(calls) == 4 + 128, fmt  # the four bounds, the 64 entries of M and the 64 of M^-1


def test_graph_check_unknown_input(capsys):
    code, _, err = run_cli(capsys, "graph", "check", "no-such-thing")
    assert code == 2 and "fixtures" in err
    code, out, err = run_cli(capsys, "cluster", "build", "chain25")  # past MAX_POINTS
    assert code == 2 and out == ""
    chains = ", ".join(f"chain{n}" for n in range(1, 25))
    assert err == (
        f"error: 'chain25' is neither a readable file nor one of the cluster fixtures {chains}, twodir, satellite3\n"
    )


@pytest.mark.parametrize(
    "argv", [("graph", "check", "A²"), ("cluster", "build", "chain²"), ("cluster", "build", "chain" + "9" * 5000)]
)
def test_fixture_names_with_other_digits_are_input_errors(argv, capsys):
    # superscript digits pass str.isdigit but not int(); 5,000 digits pass the conversion limit
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {argv[2]!r} is neither a readable file nor one of the {argv[0]} fixtures ")


def test_graph_check_dot_export(tmp_path, capsys):
    target = tmp_path / "graph.dot"
    code, out, _ = run_cli(capsys, "graph", "check", "A2", "--export-dot", str(target))
    assert code == 0
    assert target.read_text(encoding="utf-8").startswith("graph")


def test_cluster_build(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "cluster", "build", "satellite3")
    assert code == 0
    assert "canonical coefficients: (1, 2, 4)" in out
    assert "cross-checked" in out

    doc = tmp_path / "cluster.json"
    doc.write_text(json.dumps(cluster_fixture("chain3").to_doc()), encoding="utf-8")
    code, out, _ = run_cli(capsys, "cluster", "build", str(doc), "--format", "structured")
    assert code == 0
    report = json.loads(out)
    assert report["canonical_coefficients"] == [1, 2, 3]
    assert report["determinant"] in ("1", "-1")


def test_cluster_build_reports_the_bareiss_determinant_of_its_own_matrix():
    """det M is read as (-1)^n; Bareiss elimination of the printed M stays its oracle."""
    names = [f"chain{n}" for n in range(1, 25)] + ["satellite3", "twodir"]
    reported = cluster_build_determinants(names)
    assert [name for name, (det, bareiss) in reported.items() if det != bareiss] == []
    assert {det for det, _ in reported.values()} == {"1", "-1"}


def test_cluster_build_internal_invariant_exit_code(tmp_path, capsys, monkeypatch):
    from nasharc import ExactMatrix

    monkeypatch.setattr(
        cli, "intersection_from_proximity", lambda P: ExactMatrix.from_rows([[0]])
    )
    code, _, err = run_cli(capsys, "cluster", "build", "chain2")
    assert code == 3
    assert "invariant" in err


def test_val_compare(capsys):
    code, out, _ = run_cli(capsys, "val", "compare", "chain2", "0", "1")
    assert code == 0
    assert "LESS_EQ" in out
    code, out, _ = run_cli(capsys, "val", "compare", "twodir", "1", "2", "--format", "structured")
    assert json.loads(out)["comparison"] == "INCOMPARABLE"


def test_val_ord(capsys):
    code, out, _ = run_cli(capsys, "val", "ord", "chain2", "1", "--poly", "y - x^2")
    assert code == 0 and ": 2" in out
    code, _, err = run_cli(capsys, "val", "ord", "chain2", "1", "--poly", "y -")
    assert code == 2 and "parse error" in err


@pytest.mark.parametrize("text", ["0", "x - x"])
def test_val_ord_refuses_the_zero_germ_with_one_message(text, capsys):
    expected = (2, "", "error: the zero polynomial has no multiplicity\n")
    assert run_cli(capsys, "val", "ord", "chain2", "1", "--poly", text) == expected


def test_val_ord_refuses_a_free_point_without_a_tangent(tmp_path, capsys):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({"schema": "cluster/1", "points": [{}, {"parent": 0}]}), encoding="utf-8")
    message = "point 1 is free without a tangent parameter; orders of polynomials need explicit coordinates"
    assert run_cli(capsys, "val", "ord", str(path), "1", "--poly", "y") == (2, "", f"error: {message}\n")


def test_val_ord_refuses_germs_past_the_size_limits(tmp_path, capsys):
    # y^200 + x^200*y^200 took seconds on this chain before germs were capped
    points = [{}] + [{"parent": i, "tangent": 1} for i in range(4)]
    path = tmp_path / "tangent1.json"
    path.write_text(json.dumps({"schema": "cluster/1", "points": points}), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "val", "ord", str(path), "4", "--poly", "y^200 + x^200*y^200")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "limited to total degree 32, got 400" in err
    code, out, err = run_cli(capsys, "val", "ord", str(path), "4", "--poly", "y^16 + x^16*y^16")
    assert code == 0 and err == ""


def test_adj_obstruct_matches_spec_example(capsys):
    code, out, _ = run_cli(capsys, "adj", "obstruct", "chain2", "0", "1")
    assert code == 0
    assert "N_1 in N_0: NOT_RULED_OUT" in out


def test_adj_obstruct_with_returns(capsys):
    code, out, _ = run_cli(
        capsys, "adj", "obstruct", "chain2", "0", "1", "--returns", "0,0", "--format", "structured"
    )
    assert code == 0
    report = json.loads(out)
    assert report["returns_special"] == 1
    assert report["returns_system"]["solution"] == ["1", "2"]
    assert report["returns_system"]["verdict"]["status"] == "NOT_RULED_OUT"
    assert report["returns_system"]["printed_solution"] == ["-1", "-2"]


def test_adj_table(capsys):
    code, out, _ = run_cli(capsys, "adj", "table", "satellite3")
    assert code == 0
    assert "N_1 in N_0: not ruled out" in out
    assert "N_0 in N_1: ruled out" in out


def test_euler_bound_example(capsys):
    code, out, _ = run_cli(capsys, "euler", "bound", "fixtures/A1", "--coeffs", "1", "--attach", "0")
    assert code == 0
    assert "final bound:           0" in out
    assert "cannot normalize to a disk" in out


def test_euler_bound_structured(capsys):
    argv = ("euler", "bound", "A2", "--coeffs", "1,1", "--attach", "0")
    code, text, _ = run_cli(capsys, *argv)
    assert code == 0
    printed = [int(line.split(":")[1].split()[0]) for line in text.splitlines()[:4]]
    code, out, _ = run_cli(capsys, *argv, "--format", "structured")
    assert code == 0
    bounds = json.loads(out)["bounds"]
    assert [bounds[k] for k in ("b0", "balls", "tubes", "final")] == printed
    assert all(type(v) is int for v in bounds.values())


def test_euler_bound_guard(capsys):
    code, _, err = run_cli(capsys, "euler", "bound", "A2", "--coeffs", "0,1", "--attach", "0")
    assert code == 2
    assert "lifts" in err


def test_dfd_check(tmp_path, capsys):
    doc = {
        "schema": "wedgemodel/1",
        "cluster": cluster_fixture("chain2").to_doc(),
        "special": 1,
        "c": [0, 0],
        "d": [0, 1],
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "dfd", "check", str(path), "--minimal-target", "--assert-b1-lt-1",
        "--format", "structured",
    )
    assert code == 0
    report = json.loads(out)
    assert report["b_solved"] == ["2", "4"]
    assert report["lifting"]["contradiction"] is True

    doc["b"] = ["2", "4"]
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli(capsys, "dfd", "check", str(path))
    assert code == 0
    assert "supplied b verifies the identity: yes" in out

    doc["cluster"] = "chain2"
    doc["b"] = ["2", "5"]
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli(capsys, "dfd", "check", str(path))
    assert code == 0
    assert "supplied b verifies the identity: no" in out


def test_dfd_check_schema_errors(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"schema": "wedgemodel/2"}), encoding="utf-8")
    code, _, err = run_cli(capsys, "dfd", "check", str(path))
    assert code == 2 and "schema" in err

    path.write_text(
        json.dumps({"schema": "wedgemodel/1", "cluster": "chain2", "c": [0, 0], "d": [0, 0]}),
        encoding="utf-8",
    )
    code, _, err = run_cli(capsys, "dfd", "check", str(path))
    assert code == 2 and "special" in err

    good = {"schema": "wedgemodel/1", "cluster": "chain2", "special": 1, "c": [0, 0], "d": [0, 0]}
    malformed = [
        ({"c": 5}, "c"),
        ({"d": None}, "d"),
        ({"coeffs": 3}, "coeffs"),
        ({"b": 5}, "b"),
        ({"special": "1"}, "special"),
        ({"special": True}, "special"),
        ({"minimal_target": "false"}, "minimal_target"),
        ({"assert_b1_lt_1": "no"}, "assert_b1_lt_1"),
        ({"assert_no_lift": 1}, "assert_no_lift"),
    ]
    for change, field in malformed:
        path.write_text(json.dumps({**good, **change}), encoding="utf-8")
        code, _, err = run_cli(capsys, "dfd", "check", str(path))
        assert code == 2 and field in err, (change, err)

    path.write_text(json.dumps([good]), encoding="utf-8")
    code, _, err = run_cli(capsys, "dfd", "check", str(path))
    assert code == 2 and "object" in err


def test_pair_canon_kb_flow(tmp_path, capsys):
    kb = tmp_path / "kb.jsonl"
    code, out, _ = run_cli(capsys, "pair", "canon", "chain2", "0", "1", "--kb", str(kb))
    assert code == 0 and "miss" in out

    code, out, _ = run_cli(
        capsys, "pair", "canon", "chain2", "0", "1",
        "--kb", str(kb), "--store", "NOT_RULED_OUT", "--provenance", "valuative",
    )
    assert code == 0 and "stored verdict NOT_RULED_OUT" in out

    code, out, _ = run_cli(capsys, "pair", "canon", "chain2", "0", "1", "--kb", str(kb))
    assert code == 0 and "hit, verdict NOT_RULED_OUT" in out

    code, _, err = run_cli(
        capsys, "pair", "canon", "chain2", "0", "1", "--kb", str(kb), "--store", "RULED_OUT"
    )
    assert code == 2 and "conflicts" in err


def test_pair_canon_stores_after_a_record_without_newline(tmp_path, capsys):
    kb = tmp_path / "kb.jsonl"
    first = ("pair", "canon", "chain2", "0", "1", "--kb", str(kb))
    second = ("pair", "canon", "chain3", "0", "2", "--kb", str(kb))
    assert run_cli(capsys, *first, "--store", "NOT_RULED_OUT")[0] == 0
    kb.write_text(kb.read_text(encoding="utf-8").rstrip("\n"), encoding="utf-8")
    assert run_cli(capsys, *second, "--store", "RULED_OUT")[0] == 0
    for argv, verdict in ((first, "NOT_RULED_OUT"), (second, "RULED_OUT")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and f"hit, verdict {verdict}" in out, err


def test_pair_canon_keeps_one_store_per_path(tmp_path, capsys, monkeypatch):
    """Later requests parse only appended records, filed by any writer."""
    monkeypatch.setattr(cli, "_STORES", {})
    kb = tmp_path / "kb.jsonl"
    other = KnowledgeBase(kb)
    other.store(canonical_key(pair_graph(cluster_fixture("chain3"), 0, 2)), ObstructionStatus.RULED_OUT)
    first_lines = []
    parse = KnowledgeBase._parse

    def spy(self, data, first_line):
        if self is not other:
            first_lines.append(first_line)
        return parse(self, data, first_line)

    monkeypatch.setattr(KnowledgeBase, "_parse", spy)
    argv = ("pair", "canon", "chain2", "0", "1", "--kb")
    code, out, err = run_cli(capsys, *argv, str(kb))
    assert code == 0 and "miss" in out, err
    key = canonical_key(pair_graph(cluster_fixture("chain2"), 0, 1))
    other.store(key, ObstructionStatus.NOT_RULED_OUT, "valuative")
    code, out, err = run_cli(capsys, *argv, str(kb))
    assert code == 0 and "hit, verdict NOT_RULED_OUT (valuative)" in out, err
    monkeypatch.chdir(tmp_path)  # another spelling of the same file
    code, out, err = run_cli(capsys, *argv, "kb.jsonl")
    assert code == 0 and "hit, verdict NOT_RULED_OUT" in out, err
    assert first_lines == [1, 2]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("euler", "bound", "A2", "--coeffs", "1,,1", "--attach", "0"), "--coeffs"),
        (("adj", "obstruct", "chain3", "0", "2", "--returns", ",0,0,0,"), "--returns"),
    ],
)
def test_empty_csv_fields_are_refused(argv, flag, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert flag in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("euler", "bound", "A2", "--coeffs", "1_0,1", "--attach", "0"), "coeffs"),
        (("euler", "bound", "A2", "--coeffs", "٣,1", "--attach", "0"), "coeffs"),
        (("adj", "obstruct", "chain3", "0", "2", "--returns", "0,1_0,0"), "returns"),
        (("adj", "obstruct", "chain3", "0", "2", "--returns", "0,0,٠"), "returns"),
    ],
)
def test_csv_integers_are_ascii_digit_runs(argv, flag, capsys):
    """int() alone reads 1_0 as 10 and any Unicode decimal digit; the lists take 0-9."""
    text = argv[argv.index(f"--{flag}") + 1]
    assert run_cli(capsys, *argv) == (2, "", f"error: --{flag} expects comma-separated integers, got {text!r}\n")


def test_csv_integers_take_a_sign_and_blanks_around_them(capsys):
    plain = run_cli(capsys, "euler", "bound", "A2", "--coeffs", "1,1", "--attach", "0")
    assert plain[0] == 0
    assert run_cli(capsys, "euler", "bound", "A2", "--coeffs", " 1, +1 ", "--attach", "0") == plain


_INDEX_REQUESTS = {  # each command that takes component positionals, e at argv[3] and f at argv[4]
    "val compare": ("val", "compare", "chain3", "0", "2"),
    "adj obstruct": ("adj", "obstruct", "chain3", "0", "2"),
    "pair canon": ("pair", "canon", "chain3", "0", "2"),
    "val ord": ("val", "ord", "chain3", "2", "--poly=y"),  # last: it takes no f
}


def _argparse_exit(argv, capsys):
    """The exit code, stdout and stderr of a request argparse refuses."""
    with pytest.raises(SystemExit) as refused:
        cli.run(list(argv))
    return (refused.value.code, *capsys.readouterr())


@pytest.mark.parametrize("text", ["٠", "1_0"])
@pytest.mark.parametrize(
    "command, slot", [(command, slot) for command in _INDEX_REQUESTS for slot in "ef"][:-1]
)
def test_component_indices_are_ascii_digit_runs(command, slot, text, capsys):
    """type=int read 1_0 as 10 and any Unicode decimal digit; the indices take 0-9."""
    argv = list(_INDEX_REQUESTS[command])
    argv["ef".index(slot) + 3] = text
    code, out, err = _argparse_exit(argv, capsys)
    assert code == 2 and out == ""
    assert err.endswith(f"error: argument {slot}: invalid integer value: {text!r}\n")


@pytest.mark.parametrize("text", ["٢", "1_0"])
def test_the_special_component_is_an_ascii_digit_run(text, capsys):
    code, out, err = _argparse_exit(["adj", "obstruct", "chain3", "0", "2", "--returns", "0,0,0", "--special", text],
                                    capsys)
    assert code == 2 and out == ""
    assert err.endswith(f"error: argument --special: invalid integer value: {text!r}\n")


@pytest.mark.parametrize("text", ["٠", "1_0"])
def test_attachment_ids_are_ascii_digit_runs(text, capsys):
    """int() read ٠ as vertex 0 and 1_0 as 10; text that is no digit run stays a string id."""
    argv = ("euler", "bound", "A2", "--coeffs", "1,1", "--attach", text)
    assert run_cli(capsys, *argv) == (2, "", f"error: unknown vertex id {text!r}\n")


@pytest.mark.parametrize(
    "plain, spelled",
    [
        (("val", "compare", "chain3", "1", "2"), ("val", "compare", "chain3", " 1 ", "+2")),
        (("val", "ord", "chain3", "1", "--poly=y"), ("val", "ord", "chain3", "01", "--poly=y")),
        (("adj", "obstruct", "chain3", "0", "2", "--returns", "0,0,0", "--special", "1"),
         ("adj", "obstruct", "chain3", "00", " 2", "--returns", "0,0,0", "--special", "+01")),
        (("pair", "canon", "chain3", "0", "2"), ("pair", "canon", "chain3", "+0", "02 ")),
        (("euler", "bound", "A2", "--coeffs", "1,1", "--attach", "1"),
         ("euler", "bound", "A2", "--coeffs", "1,1", "--attach", " 01 ")),
    ],
)
def test_indices_take_a_sign_blanks_and_leading_zeros(plain, spelled, capsys):
    expected = run_cli(capsys, *plain)
    assert expected[0] == 0
    assert run_cli(capsys, *spelled) == expected


def _valued_options():
    """(command, option) for each option of each command that takes a value."""
    def commands(parser):
        (sub,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
        return sub.choices.items()

    return [(f"{group} {action}", option.option_strings[0])
            for group, actions in commands(cli.build_parser())
            for action, command in commands(actions)
            for option in command._actions if option.option_strings and option.nargs is None]


_VALUED_OPTIONS = _valued_options()
_ANSWERED = {  # one request of each command that exits 0; a later --opt=-- overrides the option
    "graph check": ["graph", "check", "A2"],
    "cluster build": ["cluster", "build", "chain2"],
    "val compare": ["val", "compare", "chain3", "1", "2"],
    "val ord": ["val", "ord", "chain3", "1", "--poly=y"],
    "adj obstruct": ["adj", "obstruct", "chain3", "0", "2", "--returns=0,0,0"],
    "adj table": ["adj", "table", "chain3"],
    "euler bound": ["euler", "bound", "A2", "--coeffs=1,1", "--attach=0"],
    "dfd check": ["dfd", "check", "{model}"],
    "pair canon": ["pair", "canon", "chain2", "0", "1"],
}


def test_every_command_and_valued_option_is_covered(tmp_path, capsys):
    assert {command for command, _ in _VALUED_OPTIONS} == set(_ANSWERED) and len(_VALUED_OPTIONS) == 19
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"schema": "wedgemodel/1", "cluster": "chain2", "special": 1,
                                 "c": [0, 0], "d": [0, 1]}), encoding="utf-8")
    for argv in _ANSWERED.values():
        assert run_cli(capsys, *(arg.format(model=model) for arg in argv))[0] == 0, argv


@pytest.mark.parametrize("command, option", _VALUED_OPTIONS)
def test_an_option_written_as_equals_double_dash_exits_2(command, option, tmp_path, capsys, monkeypatch):
    """argparse reads --opt=-- as an empty list: a traceback, or the option silently dropped."""
    monkeypatch.chdir(tmp_path)
    argv = [arg.format(model="model.json") for arg in _ANSWERED[command]] + [f"{option}=--"]
    assert run_cli(capsys, *argv) == (2, "", f"error: argument {option}: expected one argument\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("pair", "canon", "chain2", "0", "1", "--kb", ""),
        ("pair", "canon", "chain2", "0", "1", "--kb", "", "--store", "RULED_OUT"),
        ("graph", "check", "A2", "--export-dot", ""),
        ("cluster", "build", "chain2", "--dot", ""),
    ],
)
def test_an_empty_path_reaches_its_reader_and_exits_2(argv, tmp_path, capsys, monkeypatch):
    """Presence is tested with ``is None``: an empty path was taken for no option, exit 0.
    An empty --kb is refused as typed, not read as the working directory and kept as a store."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_STORES", {})
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: cannot ")
    assert list(tmp_path.iterdir()) == []
    assert tmp_path.name not in err
    assert cli._STORES == {}


def test_pair_canon_store_needs_kb(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "pair", "canon", "chain2", "0", "1", "--store", "RULED_OUT")
    assert code == 2 and out == ""
    assert "--kb" in err
    assert list(tmp_path.iterdir()) == []


def test_pair_canon_provenance_needs_store(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for extra in ((), ("--kb", "kb.jsonl")):
        argv = ("pair", "canon", "chain2", "0", "1", "--provenance", "valuative", *extra)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "--store" in err
    assert list(tmp_path.iterdir()) == []


def _cluster_requests(tmp_path):
    """One request of every cluster command, the wedge model written into tmp_path."""
    model = tmp_path / "model.json"
    model.write_text(
        json.dumps({
            "schema": "wedgemodel/1", "cluster": "chain4", "special": 3,
            "c": [0, 1, 0, 0], "d": [0, 0, 2, 1], "b": ["1", "2", "3", "4"],
        }),
        encoding="utf-8",
    )
    return [
        ["cluster", "build", "chain20"],
        ["val", "compare", "chain20", "3", "17"],
        ["val", "ord", "chain5", "4", "--poly", "y - x^3"],
        ["adj", "obstruct", "chain20", "3", "17"],
        ["adj", "obstruct", "chain3", "0", "2", "--returns", "0,0,0"],
        ["adj", "table", "chain20"],
        ["dfd", "check", str(model), "--minimal-target", "--assert-b1-lt-1"],
    ]


def test_each_request_inverts_its_lattice_at_most_once(tmp_path, capsys, monkeypatch):
    from nasharc import ExactMatrix

    calls = []
    inverse = ExactMatrix.inverse

    def spy(self):
        calls.append(self.n)
        return inverse(self)

    monkeypatch.setattr(ExactMatrix, "inverse", spy)
    for argv in _cluster_requests(tmp_path):
        for fmt in ("text", "structured"):
            calls.clear()
            code, _, err = run_cli(capsys, *argv, "--format", fmt)
            assert code == 0, err
            assert len(calls) <= 1, (argv, calls)

    calls.clear()
    code, _, _ = run_cli(capsys, "graph", "check", "E8")
    assert code == 0 and calls == [8]


def test_each_cluster_request_simulates_once_and_builds_one_lattice(tmp_path, capsys, monkeypatch):
    import sys

    from nasharc import DualGraph, simulate

    simulations, lattices = [], []

    def simulate_spy(cluster):
        simulations.append(cluster.n)
        return simulate(cluster)

    for name, module in list(sys.modules.items()):
        if name.startswith("nasharc") and getattr(module, "simulate", None) is simulate:
            monkeypatch.setattr(module, "simulate", simulate_spy)
    kept_matrix = DualGraph.__dict__["_matrix"]
    build = kept_matrix.func

    def build_spy(graph):
        lattices.append(graph.n)
        return build(graph)

    monkeypatch.setattr(kept_matrix, "func", build_spy)
    for argv in _cluster_requests(tmp_path):
        for fmt in ("text", "structured"):
            simulations.clear()
            lattices.clear()
            code, _, err = run_cli(capsys, *argv, "--format", fmt)
            assert code == 0, err
            assert len(simulations) == 1 and lattices == simulations, (argv, simulations, lattices)


def test_cluster_requests_eliminate_only_what_their_reports_ask_for(tmp_path, capsys, monkeypatch):
    # curvette rows come from the proximities and det M = (-1)^n from M = -P^t P;
    # the one sweep left is the returns solve (adj obstruct --returns)
    model = tmp_path / "model.json"
    model.write_text(
        json.dumps({
            "schema": "wedgemodel/1", "cluster": "chain20", "special": 19,
            "c": [0] * 20, "d": [0] * 19 + [1],
        }),
        encoding="utf-8",
    )
    expected = [
        (["cluster", "build", "chain20"], []),
        (["adj", "obstruct", "chain3", "0", "2", "--returns", "0,0,0"], [3]),
        (["val", "compare", "chain20", "3", "17"], []),
        (["val", "ord", "chain5", "4", "--poly", "y - x^3"], []),
        (["adj", "obstruct", "chain20", "3", "17"], []),
        (["adj", "table", "chain20"], []),
        (["dfd", "check", str(model), "--minimal-target", "--assert-b1-lt-1"], []),
    ]
    calls = count_eliminations(monkeypatch)
    for argv, sizes in expected:
        calls.clear()
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert calls == sizes, argv


def test_wrong_lattice_fails_the_curvette_row_check(capsys, monkeypatch):
    import nasharc.clusters as clusters
    from nasharc import InternalInvariantError, curvette_order_rows

    replay = clusters.BlowupCluster.__post_init__

    def off_by_one(self):
        replay(self)
        object.__setattr__(self, "self_ints", (self.self_ints[0] - 1,) + self.self_ints[1:])

    monkeypatch.setattr(clusters.BlowupCluster, "__post_init__", off_by_one)
    with pytest.raises(InternalInvariantError):
        curvette_order_rows(cluster_fixture("chain5"))
    code, out, err = run_cli(capsys, "val", "compare", "chain20", "3", "17")
    assert code == 3 and out == ""
    assert "invariant" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("cluster", "build", "chain2", "--dot", "{missing}/x.dot"),
        ("graph", "check", "E8", "--export-dot", "{missing}/x.dot"),
        ("pair", "canon", "chain2", "0", "1", "--kb", "{missing}/kb.jsonl", "--store", "RULED_OUT"),
        ("pair", "canon", "chain2", "0", "1", "--kb", "{directory}"),
        ("pair", "canon", "chain2", "0", "1", "--kb", "{latin1}"),
        ("graph", "check", "{latin1}"),
    ],
)
def test_unusable_files_exit_2(argv, tmp_path, capsys):
    latin1 = tmp_path / "kb.jsonl"
    latin1.write_bytes("{\"key\": \"\u00e9\"}\n".encode("latin-1"))
    paths = {"missing": tmp_path / "missing", "directory": tmp_path, "latin1": latin1}
    code, out, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2 and out == ""
    assert err.startswith("error:") and str(tmp_path) in err


def test_pair_canon_structured(capsys):
    code, out, _ = run_cli(capsys, "pair", "canon", "chain1", "0", "0", "--format", "structured")
    assert code == 0
    report = json.loads(out)
    labels = report["pair_graph"]["vertices"][0]["labels"]
    assert labels == ["E", "F"]
    assert report["canonical_key"].startswith("{")


def test_euler_bound_runs_one_elimination(capsys, monkeypatch):
    calls = count_eliminations(monkeypatch)
    code, _, err = run_cli(capsys, "euler", "bound", "E8", "--coeffs", "2,3,4,5,6,4,2,3", "--attach", "7")
    assert code == 0, err
    assert calls == [8]


def test_graph_check_runs_one_elimination(capsys, monkeypatch):
    # definiteness, determinant and inverse all read the one sweep kept on M
    calls = count_eliminations(monkeypatch)
    code, out, err = run_cli(capsys, "graph", "check", "E8")
    assert code == 0, err
    assert "negative definite: yes" in out and "det(M) = 1" in out
    assert calls == [8]


def _write(tmp_path, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


_VERTICES = [{"id": 1, "self_int": -2}, {"id": 2, "self_int": -2}]


@pytest.mark.parametrize("endpoint", [True, 1.0, [1]])
@pytest.mark.parametrize("command", [("graph", "check"), ("euler", "bound")])
def test_edge_endpoints_follow_the_vertex_id_rule(command, endpoint, tmp_path, capsys):
    path = _write(tmp_path, {"schema": "dualgraph/1", "vertices": _VERTICES, "edges": [[endpoint, 2]]})
    extra = ("--coeffs", "1,1", "--attach", "1") if command[0] == "euler" else ()
    code, out, err = run_cli(capsys, *command, str(path), *extra)
    assert code == 2 and out == ""
    assert err == (f"error: {path}: invalid graph document: "
                   f"edges[0]: endpoint {endpoint!r} or 2 is not a declared vertex\n")


def test_euler_bound_attaches_to_a_digit_string_id(tmp_path, capsys):
    # the int a digit string spells is used only when it names a vertex or the string does not
    vertices = [{"id": "1", "self_int": -2}, {"id": 2, "self_int": -3}]
    path = _write(tmp_path, {"schema": "dualgraph/1", "vertices": vertices, "edges": [["1", 2]]})
    for attach, b0 in (("1", 0), ("2", 1)):
        code, out, err = run_cli(capsys, "euler", "bound", str(path), "--coeffs", "1,2", "--attach", attach,
                                 "--format", "structured")
        assert code == 0, err
        assert json.loads(out)["bounds"]["b0"] == b0
    code, out, err = run_cli(capsys, "euler", "bound", str(path), "--coeffs", "1,2", "--attach", "3")
    assert code == 2 and out == "" and err == "error: unknown vertex id 3\n"


def test_graph_documents_may_leave_out_edges(tmp_path, capsys):
    path = _write(tmp_path, {"schema": "dualgraph/1", "vertices": _VERTICES})
    code, out, err = run_cli(capsys, "graph", "check", str(path))
    assert code == 0 and err == ""
    assert out.startswith("graph: 2 vertices, 0 edges, disconnected\n")


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1], "document: expected a JSON object"),
        ({"schema": "dualgraph/1", "vertices": []}, "vertices: expected a non-empty list"),
        ({"schema": "dualgraph/1", "vertices": [5]}, "vertices[0]: expected an object"),
        ({"schema": "dualgraph/1", "vertices": [{"id": 1.5, "self_int": -2}]},
         "vertices[0].id: expected an int or string"),
        ({"schema": "dualgraph/1", "vertices": [{"id": 1, "self_int": -2, "labels": "E"}]},
         "vertices[0].labels: expected a list of strings"),
        ({"schema": "dualgraph/1", "vertices": _VERTICES, "edges": {}}, "edges: expected a list of id pairs"),
    ],
)
def test_graph_document_refusals(doc, message, tmp_path, capsys):
    path = _write(tmp_path, doc)
    code, out, err = run_cli(capsys, "graph", "check", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {path}: invalid graph document: {message}\n"


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1], "document: expected a JSON object"),
        ({"schema": "cluster/1", "points": []}, "points: expected a non-empty list"),
        ({"schema": "cluster/1", "points": [3]}, "points[0]: expected an object"),
    ],
)
def test_cluster_document_refusals(doc, message, tmp_path, capsys):
    path = _write(tmp_path, doc)
    code, out, err = run_cli(capsys, "cluster", "build", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {path}: invalid cluster document: {message}\n"


@pytest.mark.parametrize(
    "change, message",
    [
        ({"cluster": 5}, "{path}: cluster: expected an inline document or a reference string"),
        ({"d": [1.5, 0]}, "{path}: pulled-back intersection numbers d must be integers"),
        ({"coeffs": [1]}, "{path}: coefficient vector must have length 2"),
        ({"b": [1.5, 0]}, "{path}: expected a rational number, got 1.5"),
        (
            {"cluster": {"schema": "cluster/1", "points": []}},
            "{path}: invalid cluster document: points: expected a non-empty list",
        ),
    ],
)
def test_wedge_model_refusals(change, message, tmp_path, capsys):
    good = {"schema": "wedgemodel/1", "cluster": "chain2", "special": 0, "c": [0, 0], "d": [0, 0]}
    path = _write(tmp_path, {**good, **change})
    code, out, err = run_cli(capsys, "dfd", "check", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {message.format(path=path)}\n"


def test_germ_text_refusal(capsys):
    code, out, err = run_cli(capsys, "val", "ord", "chain2", "0", "--poly", "x y")
    assert code == 2 and out == ""
    assert err == "error: polynomial parse error: expected + or -, got 'y'\n"


_DEEP = "[" * 100_000 + "]" * 100_000
_LONG_INT = "9" * 5000  # past the interpreter's 4300-digit conversion limit
_INPUTS = {
    ("graph", "check"): {"schema": "dualgraph/1", "vertices": _VERTICES, "edges": [[1, 2]]},
    ("cluster", "build"): {"schema": "cluster/1", "points": [{}, {"parent": 0, "tangent": 1}]},
    ("dfd", "check"): {"schema": "wedgemodel/1", "cluster": "chain2", "special": 0, "c": [0, 0], "d": [0, 0]},
}


@pytest.mark.parametrize("command", list(_INPUTS))
@pytest.mark.parametrize("text", [_DEEP, '{"schema": ' + _DEEP + "}", '{"self_int": ' + _LONG_INT + "}"])
def test_unreadable_json_is_an_input_error(command, text, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, *command, str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path} is not a readable JSON document: ") and err.count("\n") == 1


def test_an_oversize_document_is_refused_unparsed(tmp_path, capsys, monkeypatch):
    limit = cli.MAX_DOCUMENT_BYTES
    head = json.dumps({"schema": "dualgraph/1", "vertices": _VERTICES})[:-1]
    at_limit = tmp_path / "at_limit.json"
    at_limit.write_text(head + " " * (limit - len(head) - 1) + "}", encoding="utf-8")
    assert at_limit.stat().st_size == limit
    code, _, err = run_cli(capsys, "graph", "check", str(at_limit))
    assert code == 0 and err == ""

    oversize = tmp_path / "oversize.json"  # about three times the limit, in edges
    oversize.write_text(head + ', "edges": ' + json.dumps([[1, 2]] * (3 * limit // 8)) + "}", encoding="utf-8")
    parsed = []
    monkeypatch.setattr(cli.json, "loads", lambda *args, **kwargs: parsed.append(args))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "graph", "check", str(oversize))
    elapsed = time.perf_counter() - start
    assert code == 2 and out == "" and parsed == []
    assert err == f"error: {oversize}: documents are limited to {limit} bytes\n"
    assert elapsed < 1.0  # it reads limit + 1 bytes of the file and parses none


def test_a_small_document_is_read_without_a_limit_sized_buffer(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps({"schema": "dualgraph/1", "vertices": _VERTICES}), encoding="utf-8")
    tracemalloc.start()
    try:
        cli._read_json(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < cli.MAX_DOCUMENT_BYTES // 16  # 256 KiB; a read of the whole limit peaks at 4 MiB


def test_a_deep_verdict_store_line_is_a_corrupt_record(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_STORES", {})
    kb = tmp_path / "kb.jsonl"
    kb.write_text(_DEEP + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "pair", "canon", "chain2", "0", "1", "--kb", str(kb))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {kb}:1: corrupt knowledge-base record: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, change, where",
    [
        (("cluster", "build"), {"points": [{}, {"parent": 0, "tangent": "1e400000"}]},
         "invalid cluster document: points[1].tangent: "),
        (("dfd", "check"), {"b": ["1e400000", 0]}, ""),
        (("dfd", "check"), {"cluster": {"schema": "cluster/1", "points": [{}, {"parent": 0, "tangent": "-1e-400000"}]}},
         "invalid cluster document: points[1].tangent: "),
    ],
)
def test_rationals_past_the_digit_limit_are_refused(command, change, where, tmp_path, capsys):
    path = _write(tmp_path, {**_INPUTS[command], **change})
    code, out, err = run_cli(capsys, *command, str(path))
    limit = sys.get_int_max_str_digits()
    assert code == 2 and out == ""
    assert err == f"error: {path}: {where}rational number past the {limit}-digit limit of integer conversion\n"


def _dfd_check_past_the_limit(tmp_path):
    # each count is within the limit; the solved b, a sum of their multiples, is not
    count = 9 * 10 ** (sys.get_int_max_str_digits() - 1)
    return ["dfd", "check", str(_write(tmp_path, {**_INPUTS[("dfd", "check")], "c": [count, count]}))]


_NINES = "9" * sys.get_int_max_str_digits()  # each coefficient is within the limit; the balls bound 1 - 2a is not


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(_dfd_check_past_the_limit, id="dfd-check"),
        pytest.param(lambda _: ["euler", "bound", "A1", "--coeffs", _NINES, "--attach", "0"], id="euler-bound-A1"),
        pytest.param(lambda _: ["euler", "bound", "E8", "--coeffs", ",".join([_NINES] * 8), "--attach", "0"],
                     id="euler-bound-E8"),
    ],
)
@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_a_result_past_the_digit_limit_is_refused(argv, fmt, tmp_path, capsys):
    code, out, err = run_cli(capsys, *argv(tmp_path), "--format", fmt)
    assert code == 2 and out == ""
    assert err == f"error: result past the {sys.get_int_max_str_digits()}-digit limit of integer conversion\n"


# -- intake fuzzing: near-valid documents and store lines never end in a traceback

_HUGE, _NESTED = "\x00huge", "\x00nested"  # stand-ins, spliced into the JSON text
_EDGE_INTS = st.sampled_from([-(10**4299), 10**4299])  # at the digit limit; a product passes it
_EDGE_TEXTS = st.sampled_from(["1e4300", "1e4299", "-1e-4300", "1e400000", "-1e-400000", "1e99999999999"])
_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 3),
        st.integers(-(10**40), 10**40),
        _EDGE_INTS,
        _EDGE_TEXTS,
        st.sampled_from(["2.5e-3", "3/4", "1/0", "inf", "x", "", "E", _HUGE, _NESTED]),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=4),
    ),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_tangents = st.integers(-2, 2) | st.fractions().map(str) | st.just("inf") | _EDGE_TEXTS


_CAP = 10**MAX_WEIGHT_DIGITS
_CAP_WEIGHTS = st.sampled_from([_CAP - 1, 1 - _CAP, _CAP, -_CAP])  # at the weight cap, and just past it


@st.composite
def _graph_doc(draw):
    n = draw(st.integers(1, 4))
    vertices = [
        {"id": i, "self_int": draw(st.integers(-4, 1) | _CAP_WEIGHTS | _EDGE_INTS),
         "genus": draw(st.integers(0, 1)), "labels": draw(st.lists(st.sampled_from("EF"), max_size=2))}
        for i in range(n)
    ]
    pairs = [[i, j] for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs or [[0, 0]])))
    if draw(st.booleans()):  # repeated up to the edge cap, or just past it
        size = draw(st.sampled_from([MAX_GRAPH_EDGES, MAX_GRAPH_EDGES + 1]))
        edges = ((edges or pairs or [[0, 0]]) * size)[:size]
    return {"schema": "dualgraph/1", "vertices": vertices, "edges": edges}


@st.composite
def _cluster_doc(draw):
    points = [{}]
    for k in range(1, draw(st.integers(1, 4))):
        point = {"parent": draw(st.integers(0, k - 1))}
        if draw(st.booleans()):
            point["tangent"] = draw(_tangents)
        points.append(point)
    return {"schema": "cluster/1", "points": points}


@st.composite
def _wedge_doc(draw):
    n = draw(st.integers(2, 3))
    counts = st.lists(st.integers(0, 3) | _EDGE_INTS, min_size=n, max_size=n)
    doc = {
        "schema": "wedgemodel/1",
        "cluster": draw(st.just(f"chain{n}") | _cluster_doc()),
        "special": draw(st.integers(0, n - 1)),
        "c": draw(counts),
        "d": draw(counts),
        "minimal_target": draw(st.booleans()),
    }
    if draw(st.booleans()):
        doc["b"] = draw(st.lists(st.integers(0, 4) | _tangents, min_size=n, max_size=n))
    return doc


def _slots(value, top=True):
    """Every (container, key) below ``value``, the top-level schema excepted."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        if not (top and key == "schema"):
            yield value, key
            yield from _slots(item, top=False)


def _near(data, doc):
    """``doc`` with up to two of its values replaced by random ones."""
    for _ in range(data.draw(st.integers(0, 2))):
        slots = list(_slots(doc))
        if slots:
            container, key = data.draw(st.sampled_from(slots))
            container[key] = data.draw(_values)
    return doc


def _json_text(value) -> str:
    text = json.dumps(value)
    return text.replace(json.dumps(_HUGE), _LONG_INT).replace(json.dumps(_NESTED), _DEEP[:4000])


def _exit_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.run(argv)


_DOCUMENTS = {("graph", "check"): _graph_doc(), ("cluster", "build"): _cluster_doc(), ("dfd", "check"): _wedge_doc()}


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.data())
def test_fuzzed_documents_exit_0_or_2(data):
    command = data.draw(st.sampled_from(list(_DOCUMENTS)))
    text = _json_text(_near(data, data.draw(_DOCUMENTS[command])))
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        eliminations = count_eliminations(patch)
        code = _exit_code([*command, path])
    assert code in (0, 2), text[:500]
    if command == ("graph", "check") and code == 2:  # refused at intake, before any sweep
        assert eliminations == [], text[:500]


_GERM_TOKENS = st.sampled_from(["x", "y", "*", "/", "^", "+", "-", "−", " ", "  ", "0", "1", "2", "12", "33", "z", "$",
                                 "\t", "x^", "*y", _LONG_INT])


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.lists(_GERM_TOKENS, max_size=12).map("".join))
def test_fuzzed_germ_texts_exit_0_or_2(text):
    """A germ text of the grammar's tokens, blanks, stray characters and long numbers is
    answered or refused with one line of stderr, never a traceback."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.run(["val", "ord", "chain2", "1", f"--poly={text}"])  # "--poly -x" would read -x as an option
    assert code == 0 or code == 2 and err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), text[:200]


_INT_TOKENS = st.sampled_from(["0", "1", "1", "2", "7", "10", "_", "٣", " ", "+", "-", ",", _LONG_INT])
_INT_TEXT = st.sampled_from(["0", "1", "2", " 1"]) | st.lists(_INT_TOKENS, min_size=1, max_size=3).map("".join)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.lists(_INT_TEXT, min_size=2, max_size=3).map(",".join), _INT_TEXT, st.booleans())
def test_fuzzed_integer_lists_exit_0_or_2(csv, attach, returns):
    """Integer lists and attachment ids of digits, '_', a non-ASCII digit, blanks, signs,
    commas and long numbers are answered or refused with one line of stderr."""
    if returns:
        argv = ["adj", "obstruct", "chain3", "0", "2", f"--returns={csv}"]
    else:  # "--coeffs -1" would read -1 as an option
        argv = ["euler", "bound", "A2", f"--coeffs={csv}", f"--attach={attach}"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code == 0 or code == 2 and err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), argv


_INDEX_COMMANDS = {  # the integer positionals and --special on a 5-point chain, where ٣ would name a point
    "val compare": lambda e, f, special: ["val", "compare", "chain5", e, f],
    "val ord": lambda e, f, special: ["val", "ord", "chain5", e, "--poly=y"],
    "adj obstruct": lambda e, f, special: ["adj", "obstruct", "chain5", e, f, "--returns=0,0,0,0,0",
                                           f"--special={special}"],
    "pair canon": lambda e, f, special: ["pair", "canon", "chain5", e, f],
}


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.sampled_from(list(_INDEX_COMMANDS)), _INT_TEXT, _INT_TEXT, _INT_TEXT)
def test_fuzzed_indices_exit_0_or_2(command, e, f, special):
    """Component indices and --special of the same texts are answered or refused (argparse's
    SystemExit(2) counts as exit 2); a text with '_' or a non-ASCII digit is never read."""
    argv = _INDEX_COMMANDS[command](e, f, special)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
        else:
            assert code == 0 or code == 2 and err.getvalue().count("\n") == 1, argv
    assert code in (0, 2), argv
    assert code == 2 or not any("_" in text or "٣" in text for text in argv[3:]), argv


_RECORD = st.fixed_dictionaries(
    {"key": st.text(max_size=8), "status": st.sampled_from(["RULED_OUT", "NOT_RULED_OUT"])},
    optional={"provenance": st.text(max_size=4)},
)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.data())
def test_fuzzed_verdict_store_lines_exit_0_or_2(data):
    line = _RECORD.map(lambda record: _json_text(_near(data, record))) | st.text(max_size=12) | st.just(_DEEP)
    lines = data.draw(st.lists(line, max_size=3))
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(cli._STORES, clear=True):
        path = os.path.join(tmp, "kb.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("".join(line + "\n" for line in lines))
        assert _exit_code(["pair", "canon", "chain2", "0", "1", "--kb", path]) in (0, 2), lines
