"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/tests -q -p no:cacheprovider

They check that every declared metric is emitted with its unit, that the
correctness checks are live, that a run leaves the repository tree as it
found it, and that the tracer sees calls made inside nasharc.
"""

from __future__ import annotations

import json
import os
import py_compile
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, run.SRC)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    DECLARED = json.load(_handle)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith("info ")
    return json.loads(lines[-2][5:]), json.loads(lines[-1])


def test_declared_workloads_and_metrics_match_the_code():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted_with_its_unit(name, trace):
    info, result = result_of(bench("--workload", name, "--seed", "3", "--seconds", "0.4",
                                   "--trace", trace))
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert set(info["host"]) == {"nproc", "python", "platform", "commit"}
    assert info["run"]["seed"] == 3 and info["input"]["size"] and info["input"]["why"]
    assert info["samples"]
    assert result["correct"] and result["failed"] == 0, info["errors"]
    assert set(info["known_defects"]) == {
        "curvette_polynomial beyond a tangent-inf or satellite chart",
        "cli euler bound --format structured",
    }


CORRUPTIONS = {
    # workload: (owner path, attribute, corrupting wrapper)
    "lattice_sweep": ("exact_linalg.ExactMatrix", "determinant", lambda f: lambda m: 2),
    "valuation_oracle": ("valuations", "ord_vector",
                         lambda f: lambda c, g: tuple(o + 1 for o in f(c, g))),
    "adjacency_store": ("obstructions.KnowledgeBase", "lookup", lambda f: lambda kb, key: None),
    "certificates": ("", "b0_bound", lambda f: lambda data: f(data) + 1),
}


def make_workload(name: str, tmp_path):
    workload = workloads.WORKLOADS[name](run.fresh_import(), 5)
    workload.write_inputs(str(tmp_path / "inputs"))
    return workload


def failures(workload, count: int, tmp_path) -> list[str]:
    """The error of every failing operation among the first `count`."""
    workload.reset(str(tmp_path / "phase"))
    errors = []
    for op in workload.ops[:count]:
        try:
            workload.run(op)
        except Exception as exc:
            errors.append(str(exc))
    return errors


def corrupt(monkeypatch, lib, path: str, attr: str, wrapper) -> None:
    owner = lib
    for part in filter(None, path.split(".")):
        owner = getattr(owner, part)
    monkeypatch.setattr(owner, attr, wrapper(getattr(owner, attr)))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_a_corrupted_result_is_counted_as_failed(name, tmp_path, monkeypatch):
    workload = make_workload(name, tmp_path)
    assert failures(workload, 40, tmp_path) == []
    corrupt(monkeypatch, workload.lib, *CORRUPTIONS[name])
    assert failures(workload, 40, tmp_path)


def test_curvette_points_avoid_the_known_defect_and_nothing_more():
    """The points left out are exactly those where curvette_polynomial fails.

    Once nasharc builds curvettes there too, this fails: the points then
    belong back in the workload.
    """
    lib = run.fresh_import()
    pool = (workloads.Fraction(0), workloads.Fraction(1), workloads.Fraction(-1), lib.INF)
    for structure in lib.enumerate_proximity_structures(3):
        for cluster in lib.enumerate_tangent_assignments(structure, pool):
            for i in range(cluster.n):
                try:
                    lib.curvette_polynomial(cluster, i)
                    works = True
                except lib.InternalInvariantError:
                    works = False
                assert works == workloads.curvette_supported(cluster, i)


def test_the_product_check_catches_chart_arithmetic(tmp_path, monkeypatch):
    """A subst_free that forgets the binomial coefficients of (y + c)^b.

    The chart-route and lattice-route orders of one germ share the chart
    run's multiplicities, so they agree however wrong those are; the
    orders of a product of two germs stop adding up.
    """
    workload = make_workload("valuation_oracle", tmp_path)
    Poly2 = workload.lib.polynomials.Poly2

    def without_binomials(p, c):
        out = {}
        for (a, b), coef in p.terms.items():
            for k in range(b + 1):
                out[(a + b, k)] = out.get((a + b, k), 0) + coef * c ** (b - k)
        return Poly2(out)

    corrupt(monkeypatch, workload.lib, "polynomials.Poly2", "subst_free",
            lambda f: without_binomials)
    errors = failures(workload, 200, tmp_path)
    assert "orders of a product are not additive" in errors


def test_run_leaves_the_tree_unchanged():
    def snapshot():
        found = {}
        for top, dirs, files in os.walk(ROOT):
            dirs[:] = [d for d in dirs if d != ".git"]
            for f in files:
                path = os.path.join(top, f)
                stat = os.stat(path)
                found[os.path.relpath(path, ROOT)] = (stat.st_size, stat.st_mtime_ns)
        return found

    before = snapshot()
    result_of(bench("--workload", "adjacency_store", "--seed", "2", "--seconds", "0.5"))
    result_of(bench("--workload", "certificates", "--seed", "2", "--seconds", "0.5",
                    "--trace", "1"))
    after = snapshot()
    assert after == before
    assert not any("__pycache__" in p for p in after if p.startswith("src" + os.sep))


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "lattice_sweep", "--seed", "1", "--seconds", "1",
                 cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


STALE_SCRIPT = """
import sys
sys.path.insert(0, "perfbench")
import run
sys.path.insert(0, run.SRC)
if sys.argv[1] == "isolated":
    run.isolate_bytecode(sys.argv[2])
print(hasattr(run.fresh_import().errors, "STALE_BYTECODE"))
"""


def test_bytecode_under_src_is_not_read(tmp_path):
    """A stale pyc under src/ (one Python would load without checking its
    source) is ignored once the run has isolated its bytecode."""
    tree = tmp_path / "tree"
    shutil.copytree(os.path.join(ROOT, "src"), tree / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, tree / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    source = tree / "src" / "nasharc" / "errors.py"
    stale = tmp_path / "errors.py"
    stale.write_text(source.read_text() + "\nSTALE_BYTECODE = True\n")
    cache = os.path.join(source.parent, "__pycache__",
                         f"errors.{sys.implementation.cache_tag}.pyc")
    py_compile.compile(str(stale), cfile=cache, dfile=str(source),
                       invalidation_mode=py_compile.PycInvalidationMode.UNCHECKED_HASH)

    def loads_stale(*mode: str) -> bool:
        proc = subprocess.run([sys.executable, "-c", STALE_SCRIPT, *mode], cwd=tree,
                              env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip() == "True"

    assert loads_stale("plain")  # the planted bytecode is live
    assert not loads_stale("isolated", str(tmp_path / "private"))
    assert not os.path.exists(tmp_path / "private")  # nothing written there either


def test_tracer_catches_calls_inside_nasharc_and_restores():
    lib = run.fresh_import()
    original = lib.valuations.simulate
    tracer = spans.Tracer()
    tracer.install()
    assert lib.valuations.simulate is not original
    assert lib.clusters.simulate is lib.valuations.simulate
    with tracer.operation(0):
        lib.curvette_order_rows(lib.cluster_fixture("chain3"))
    tracer.uninstall()
    assert lib.valuations.simulate is original
    summary = tracer.summary()
    assert summary["calls"]["clusters.simulate"] == 1
    assert summary["calls"]["exact_linalg.ExactMatrix.inverse"] == 1
    assert summary["ops"] == 1
    total = sum(summary["self_s"].values()) + summary["unattributed_s"]
    assert summary["unattributed_s"] >= 0 and total > 0
