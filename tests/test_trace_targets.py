"""Every function the traced benchmark wraps must still exist in nasharc.

`perfbench/spans.py` patches the names in its `TARGETS` from outside the
package; a renamed or moved function makes ``perfbench/run.py --trace 1``
fail, so this check resolves each entry the same way `Tracer.install` does.
A kernel inlined around a traced name would instead read 0 calls there, so
the lattice layers' calls are counted too.  The workloads also read nasharc
outside `TARGETS` (``cluster.geometry().kinds``, say), so each one runs
briefly against the source tree and must finish correct, with no failure.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from helpers import count_eliminations

# importing the package loads every nasharc module, as the benchmark does
from nasharc import ExactMatrix, cluster_fixture, intersection_from_proximity, proximity_matrix

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    spans = _load_spans()
    assert spans.TARGETS
    for module_name, attr in spans.TARGETS:
        home = importlib.import_module(f"nasharc.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            target = getattr(home, cls_name).__dict__.get(method)
        else:
            target = getattr(home, attr, None)
        assert callable(target), f"{module_name}.{attr} does not resolve"
    assert callable(importlib.import_module("nasharc.cli").run)


def test_traced_layers_keep_their_calls(monkeypatch):
    # the per-layer metrics count calls of the traced names; a kernel that
    # stopped going through them would read 0 there without failing anything
    products = []
    mul = ExactMatrix.mul

    def spy(self, other):
        products.append(self.n)
        return mul(self, other)

    monkeypatch.setattr(ExactMatrix, "mul", spy)
    P = proximity_matrix(cluster_fixture("chain3"))
    intersection_from_proximity(P)
    assert products == [3]

    eliminations = count_eliminations(monkeypatch)
    matrix = ExactMatrix.from_rows([[-2, 1, 0], [1, -2, 1], [0, 1, -2]])
    matrix.determinant()
    matrix.inverse()
    assert eliminations == [3]


def test_every_workload_runs_correct():
    # one short untraced run per workload, in fresh interpreters side by side
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--seed", "1", "--seconds", "0.3"]
    runs = {
        name: subprocess.Popen(
            command + ["--workload", name], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        )
        for name in names
    }
    try:
        for name, run in runs.items():
            out, err = run.communicate(timeout=120)
            assert run.returncode == 0, (name, err.decode())
            result = json.loads(out.decode().splitlines()[-1])
            assert result["correct"] is True and result["failed"] == 0, (name, err.decode())
    finally:
        for run in runs.values():
            run.kill()
            run.wait()
