"""Every function the traced benchmark wraps must still exist in nasharc.

`perfbench/spans.py` patches the names in its `TARGETS` from outside the
package; a renamed or moved function makes ``perfbench/run.py --trace 1``
fail, so this check resolves each entry the same way `Tracer.install` does.
"""

import importlib
import importlib.util
from pathlib import Path

import nasharc  # noqa: F401  (loads every nasharc module, as the benchmark does)

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
