"""Every CLI command prints exactly its recorded report.

Each case runs one or more requests in-process through ``cli.run``, once as
text and once with ``--format structured``, inside a scratch directory that
holds the input documents below (so relative paths in the reports are
stable).  Exit code, stdout and stderr of every run must equal
``tests/cli_expected/<case>.txt`` byte for byte.  After an intended change to
a report, regenerate the files with
``PYTHONPATH=src python3 tests/test_cli_reports.py``.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

EXPECTED = Path(__file__).resolve().parent / "cli_expected"

_CHAIN2 = {
    "schema": "cluster/1",
    "points": [
        {"parent": None, "satellite_of": None, "tangent": None},
        {"parent": 0, "satellite_of": None, "tangent": "0"},
    ],
}

# Input documents written into the scratch directory of every case.
INPUTS = {
    "singular.json": {
        "schema": "dualgraph/1",
        "vertices": [{"id": 0, "self_int": -1}, {"id": 1, "self_int": -1}],
        "edges": [[0, 1]],
    },
    "disconnected.json": {
        "schema": "dualgraph/1",
        "vertices": [{"id": 0, "self_int": -2}, {"id": 1, "self_int": -3, "genus": 1}],
        "edges": [],
    },
    "indefinite.json": {
        "schema": "dualgraph/1",
        "vertices": [{"id": "a", "self_int": 1}, {"id": "b", "self_int": -2}],
        "edges": [["a", "b"]],
    },
    "tangents.json": {
        "schema": "cluster/1",
        "points": [
            {"parent": None},
            {"parent": 0, "tangent": "1/2"},
            {"parent": 1, "tangent": "-2/3"},
            {"parent": 2, "satellite_of": 1},
            {"parent": 0, "tangent": "INF"},
        ],
    },
    "wedge.json": {"schema": "wedgemodel/1", "cluster": _CHAIN2, "special": 1, "c": [0, 0], "d": [0, 1]},
    "wedge_b.json": {
        "schema": "wedgemodel/1", "cluster": "chain2", "special": 1, "c": [0, 0], "d": [0, 1],
        "b": ["2", "4"],
    },
    "wedge_bad_b.json": {
        "schema": "wedgemodel/1", "cluster": "chain2", "special": 1, "c": [0, 0], "d": [0, 1],
        "b": ["2", "5"],
    },
    "wedge_lifts.json": {
        "schema": "wedgemodel/1", "cluster": "chain4", "special": 3, "c": [0, 0, 0, 0],
        "d": [0, 0, 0, 0], "coeffs": [1, 2, 3, 0], "b": ["1", "2", "3", "0"],
    },
    "wedge_tangents.json": {
        "schema": "wedgemodel/1", "cluster": "tangents.json", "special": 4,
        "c": [1, 0, 0, 2, 0], "d": [0, 0, 1, 0, 3], "minimal_target": True,
        "assert_b1_lt_1": True,
    },
}

KB = ("--kb", "kb.jsonl")

# case name -> the requests it runs, in order
CASES = {
    "graph_check_E8": [["graph", "check", "fixtures/E8"]],
    "graph_check_A2_dot": [["graph", "check", "A2", "--export-dot", "a2.dot"]],
    "graph_check_D5": [["graph", "check", "fixture:D5"]],
    "graph_check_singular": [["graph", "check", "singular.json"]],
    "graph_check_disconnected": [["graph", "check", "disconnected.json"]],
    "graph_check_indefinite": [["graph", "check", "indefinite.json"]],
    "graph_check_unknown": [["graph", "check", "no-such-thing"]],
    "cluster_build_chain3": [["cluster", "build", "chain3"]],
    "cluster_build_satellite3_dot": [["cluster", "build", "satellite3", "--dot", "sat.dot"]],
    "cluster_build_tangents": [["cluster", "build", "tangents.json"]],
    "val_compare_chain2": [["val", "compare", "chain2", "0", "1"]],
    "val_compare_twodir": [["val", "compare", "twodir", "1", "2"], ["val", "compare", "twodir", "2", "2"]],
    "val_compare_tangents": [["val", "compare", "tangents.json", "3", "4"]],
    "val_compare_out_of_range": [["val", "compare", "chain2", "0", "5"]],
    "val_ord_chain2": [["val", "ord", "chain2", "1", "--poly", "y - x^2"]],
    "val_ord_tangents": [["val", "ord", "tangents.json", "3", "--poly", "y - 1/2*x"]],
    "val_ord_parse_error": [["val", "ord", "chain2", "1", "--poly", "y -"]],
    "adj_obstruct_chain2": [["adj", "obstruct", "chain2", "0", "1"], ["adj", "obstruct", "chain2", "1", "0"]],
    "adj_obstruct_returns": [
        ["adj", "obstruct", "chain2", "0", "1", "--returns", "0,0"],
        ["adj", "obstruct", "chain3", "2", "0", "--returns", "1,0,2", "--special", "0"],
        ["adj", "obstruct", "chain3", "0", "2", "--returns", "0,0,0", "--allow-lift"],
    ],
    "adj_obstruct_same": [["adj", "obstruct", "chain2", "1", "1"]],
    "adj_table_satellite3": [["adj", "table", "satellite3"]],
    "adj_table_tangents": [["adj", "table", "tangents.json"]],
    "euler_bound_A1": [["euler", "bound", "fixtures/A1", "--coeffs", "1", "--attach", "0"]],
    "euler_bound_A2": [["euler", "bound", "A2", "--coeffs", "1,1", "--attach", "0"]],
    "euler_bound_E8": [["euler", "bound", "E8", "--coeffs", "2,3,4,5,6,4,2,3", "--attach", "7"]],
    "euler_bound_singular": [["euler", "bound", "singular.json", "--coeffs", "1,1", "--attach", "0"]],
    "euler_bound_indefinite": [["euler", "bound", "indefinite.json", "--coeffs", "1,2", "--attach", "b"]],
    "euler_bound_guard": [["euler", "bound", "A2", "--coeffs", "0,1", "--attach", "0"]],
    "dfd_check_plain": [["dfd", "check", "wedge.json"]],
    "dfd_check_minimal": [
        ["dfd", "check", "wedge.json", "--minimal-target"],
        ["dfd", "check", "wedge.json", "--minimal-target", "--assert-b1-lt-1"],
    ],
    "dfd_check_b": [["dfd", "check", "wedge_b.json"], ["dfd", "check", "wedge_bad_b.json"]],
    "dfd_check_lifts": [
        ["dfd", "check", "wedge_lifts.json", "--minimal-target", "--assert-b1-lt-1"],
        ["dfd", "check", "wedge_lifts.json", "--minimal-target", "--assert-b1-lt-1", "--assert-no-lift"],
    ],
    "dfd_check_tangents": [["dfd", "check", "wedge_tangents.json"]],
    "dfd_check_missing": [["dfd", "check", "missing.json"]],
    "pair_canon_plain": [["pair", "canon", "chain2", "0", "1"], ["pair", "canon", "chain1", "0", "0"]],
    "pair_canon_store": [
        ["pair", "canon", "chain2", "0", "1", *KB],
        ["pair", "canon", "chain2", "0", "1", *KB, "--store", "NOT_RULED_OUT", "--provenance", "valuative"],
        ["pair", "canon", "chain2", "0", "1", *KB],
        ["pair", "canon", "chain3", "0", "2", *KB],
        ["pair", "canon", "chain2", "0", "1", *KB, "--store", "RULED_OUT"],
    ],
}


def write_inputs(directory: Path):
    for name, doc in INPUTS.items():
        (directory / name).write_text(json.dumps(doc), encoding="utf-8")


def transcript(case: str) -> str:
    """Exit code, stdout and stderr of every run of a case, in the current directory."""
    from nasharc import cli

    parts = []
    for argv in CASES[case]:
        for fmt in ("text", "structured"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv + ["--format", fmt])
            parts.append(
                f"$ nasharc {' '.join(argv)} --format {fmt}\n"
                f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
            )
    return "".join(parts)


def test_every_case_has_a_recording():
    assert sorted(p.stem for p in EXPECTED.glob("*.txt")) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_is_unchanged(case, tmp_path, monkeypatch):
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    expected = (EXPECTED / f"{case}.txt").read_bytes()
    assert transcript(case).encode("utf-8") == expected


if __name__ == "__main__":
    EXPECTED.mkdir(exist_ok=True)
    here = os.getcwd()
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as scratch:
            write_inputs(Path(scratch))
            os.chdir(scratch)
            try:
                text = transcript(case)
            finally:
                os.chdir(here)
        (EXPECTED / f"{case}.txt").write_bytes(text.encode("utf-8"))
    print(f"recorded {len(CASES)} cases in {EXPECTED}", file=sys.stderr)
