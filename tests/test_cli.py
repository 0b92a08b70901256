import json

import pytest
from helpers import count_eliminations

import nasharc.cli as cli
from nasharc import cluster_fixture, standard_fixture


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


def test_graph_check_unknown_input(capsys):
    code, _, err = run_cli(capsys, "graph", "check", "no-such-thing")
    assert code == 2 and "fixtures" in err


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


def test_each_request_inverts_its_lattice_at_most_once(tmp_path, capsys, monkeypatch):
    from nasharc import ExactMatrix

    calls = []
    inverse = ExactMatrix.inverse

    def spy(self):
        calls.append(self.n)
        return inverse(self)

    monkeypatch.setattr(ExactMatrix, "inverse", spy)
    model = tmp_path / "model.json"
    model.write_text(
        json.dumps({
            "schema": "wedgemodel/1", "cluster": "chain4", "special": 3,
            "c": [0, 1, 0, 0], "d": [0, 0, 2, 1], "b": ["1", "2", "3", "4"],
        }),
        encoding="utf-8",
    )
    requests = [
        ["cluster", "build", "chain20"],
        ["val", "compare", "chain20", "3", "17"],
        ["val", "ord", "chain5", "4", "--poly", "y - x^3"],
        ["adj", "obstruct", "chain20", "3", "17"],
        ["adj", "obstruct", "chain3", "0", "2", "--returns", "0,0,0"],
        ["adj", "table", "chain20"],
        ["dfd", "check", str(model), "--minimal-target", "--assert-b1-lt-1"],
    ]
    for argv in requests:
        for fmt in ("text", "structured"):
            calls.clear()
            code, _, err = run_cli(capsys, *argv, "--format", fmt)
            assert code == 0, err
            assert len(calls) <= 1, (argv, calls)

    calls.clear()
    code, _, _ = run_cli(capsys, "graph", "check", "E8")
    assert code == 0 and calls == [8]


def test_cluster_requests_eliminate_only_what_their_reports_ask_for(tmp_path, capsys, monkeypatch):
    # curvette rows come from the proximities; the one sweep left is the
    # determinant (cluster build) or the returns solve (adj obstruct --returns)
    model = tmp_path / "model.json"
    model.write_text(
        json.dumps({
            "schema": "wedgemodel/1", "cluster": "chain20", "special": 19,
            "c": [0] * 20, "d": [0] * 19 + [1],
        }),
        encoding="utf-8",
    )
    expected = [
        (["cluster", "build", "chain20"], [20]),
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
    import nasharc.valuations as valuations
    from nasharc import ExactMatrix, InternalInvariantError, curvette_order_rows

    simulated = valuations.cluster_matrix

    def off_by_one(cluster):
        rows = [list(row) for row in simulated(cluster).rows]
        rows[0][0] -= 1
        return ExactMatrix.from_rows(rows)

    monkeypatch.setattr(valuations, "cluster_matrix", off_by_one)
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
