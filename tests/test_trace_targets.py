"""Every function the traced benchmark wraps must still exist in nasharc.

`perfbench/spans.py` patches the names in its `TARGETS` from outside the
package; a renamed or moved function makes ``perfbench/run.py --trace 1``
fail, so this check resolves each entry the same way `Tracer.install` does.
A kernel inlined around a traced name would instead read 0 calls there, so
the lattice layers' calls are counted too.
"""

import importlib
import importlib.util
from pathlib import Path

from helpers import count_eliminations

# importing the package loads every nasharc module, as the benchmark does
from nasharc import ExactMatrix, cluster_fixture, intersection_from_proximity, proximity_matrix

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
