"""nasharc benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload lattice_sweep --seed 1 --seconds 25 --trace 0

One client, one process, one thread: the next operation starts when the
previous one has finished.  Between two operations, every PROBE_EVERY_S,
the loop times a fixed reference load (``hostspeed``); times and rates
are reported scaled to a host of nominal speed.  Set-up (a fresh import
of nasharc from ``src/`` plus input generation from the seed) runs
several times and reports its median.  With ``--trace 0`` the run measures untraced for the whole time
and prints the end-to-end metrics.  With ``--trace 1`` it measures half
the time untraced and half traced, and prints the per-layer metrics from
the traced half.  The last line of standard output is one JSON object;
lines before it describe the host, the inputs and the sample counts.
Temporary files live in a directory under the repository root that is
removed before the run exits.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Set-up runs at least SETUP_REPEATS times and until the repeats add up to
# SETUP_MIN_S, so that a cheap set-up is sampled over several seconds of
# the host's varying speed, not over one.
SETUP_REPEATS = 7
SETUP_MIN_S = 3.0
SETUP_PROBES = 20
WINDOW_S = 1.0
PROBE_EVERY_S = 0.1
P99_BLOCK = 1000
# The CLI commands the workloads drive, each traced as `cli.<group>_<action>`.
CLI_COMMANDS = ("adj_table", "adj_obstruct", "pair_canon", "euler_bound", "dfd_check")
LAYERS = spans.target_names() + [f"cli.{c}" for c in CLI_COMMANDS]
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def isolate_bytecode(tmp: str) -> None:
    """Make every import compile nasharc from source.

    With writing switched off and the cache prefix pointing at an empty
    directory, bytecode that tests or tools left in ``src/**/__pycache__``
    is never read, so set-up time does not depend on what ran before.
    """
    sys.dont_write_bytecode = True
    sys.pycache_prefix = os.path.join(tmp, "pycache")


def fresh_import():
    """Import nasharc from this checkout's src/, discarding any earlier import."""
    for name in [n for n in sys.modules if n == "nasharc" or n.startswith("nasharc.")]:
        del sys.modules[name]
    lib = importlib.import_module("nasharc")
    importlib.import_module("nasharc.cli")
    if os.path.dirname(os.path.dirname(os.path.abspath(lib.__file__))) != SRC:
        raise ImportError(f"nasharc imported from {lib.__file__}, not from {SRC}")
    return lib


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


class Phase:
    """Latencies, outcomes and host-speed probes of one closed-loop measurement."""

    def __init__(self):
        self.latencies_ns: list[int] = []
        self.verified = bytearray()
        self.failed = 0
        self.elapsed_s = 0.0
        self.errors: dict[str, int] = {}
        self.probes: list[tuple[int, int]] = []  # (operations before it, reference ns)

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)

    def speed(self, lo: int = 0, hi: int | None = None, of=hostspeed.factor) -> float:
        """Host-speed factor of the probes taken between operations lo and hi
        (the whole run by default), or of the whole run's if there were none."""
        hi = self.attempted if hi is None else hi
        probes = [ns for i, ns in self.probes if lo <= i < hi]
        return of(probes or [ns for _, ns in self.probes])

    def blocks(self) -> list[tuple[int, int, float]]:
        """One block per WINDOW_S of run time, each holding an equal number of
        consecutive operations, with the host-speed factor of its probes.

        Returns (first op, end op, factor) per block.
        """
        count = max(1, min(self.attempted, int(self.elapsed_s / WINDOW_S)))
        size = math.ceil(self.attempted / count)
        return [(lo, min(lo + size, self.attempted), self.speed(lo, lo + size))
                for lo in range(0, self.attempted, size)]

    def block_rates(self, scaled: bool = True) -> list[float]:
        """Verified operations per second of operation time in each block,
        scaled to the nominal host unless `scaled` is false.

        Other tenants of a shared host slow it in bursts of seconds to
        minutes; scaling by the probes of the same second removes most of
        that, and the median over blocks is steadier than the run's mean.
        """
        return [sum(self.verified[lo:hi]) / (sum(self.latencies_ns[lo:hi]) / 1e9)
                / (f if scaled else 1.0) for lo, hi, f in self.blocks()]

    def scaled_latencies_ns(self) -> list[float]:
        """Each operation's latency on the nominal host: as measured, times
        the factor of its block."""
        out = []
        for lo, hi, f in self.blocks():
            out.extend(v * f for v in self.latencies_ns[lo:hi])
        return out

    @property
    def ops_per_s(self) -> float:
        return statistics.median(self.block_rates())

    def record_failure(self, exc: BaseException) -> None:
        self.failed += 1
        kind = f"{type(exc).__name__}: {str(exc).splitlines()[0] if str(exc) else ''}"[:160]
        if kind not in self.errors:
            print(f"operation failed: {kind}", file=sys.stderr)
            traceback.print_exception(exc, file=sys.stderr, limit=-3)
        self.errors[kind] = self.errors.get(kind, 0) + 1


def measure(workload, seconds: float, tracer=None) -> Phase:
    """Run operations back to back until `seconds` have passed, timing the
    reference load between two operations every PROBE_EVERY_S."""
    phase = Phase()
    ops = workload.ops
    clock = time.perf_counter_ns
    start = clock()
    deadline = start + int(seconds * 1e9)
    every_ns = int(PROBE_EVERY_S * 1e9)
    next_probe = start
    i = 0
    while True:
        if clock() >= next_probe:
            phase.probes.append((i, hostspeed.probe_ns()))
            next_probe = clock() + every_ns
        op = ops[i % len(ops)]
        t0 = clock()
        try:
            if tracer is None:
                workload.run(op)
            else:
                with tracer.operation(i):
                    workload.run(op)
            phase.verified.append(1)
        except Exception as exc:  # every failure is counted, the loop goes on
            phase.verified.append(0)
            phase.record_failure(exc)
        t1 = clock()
        phase.latencies_ns.append(t1 - t0)
        i += 1
        if t1 >= deadline:
            break
    phase.elapsed_s = (clock() - start) / 1e9
    return phase


def commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return "unknown"


def set_up(name: str, seed: int, tmp: str):
    """Fresh import plus input generation, repeated; returns the last workload
    and, per repeat, its time and the host-speed factor measured just before.

    The previous repeat's workload and modules are dropped first, so the
    peak memory holds one input set.  The input documents the CLI reads
    are written once, untimed: they are the benchmark's files, not work
    of the program.
    """
    times: list[tuple[float, float]] = []
    while len(times) < SETUP_REPEATS or sum(t for t, _ in times) < SETUP_MIN_S:
        workload = None
        gc.collect()
        speed = hostspeed.factor([hostspeed.probe_ns() for _ in range(SETUP_PROBES)])
        t0 = time.perf_counter()
        lib = fresh_import()
        workload = workloads.WORKLOADS[name](lib, seed)
        times.append((time.perf_counter() - t0, speed))
    workload.write_inputs(os.path.join(tmp, "inputs"))
    return workload, times


def block_p99_ms(phase: Phase, scaled: bool = True) -> tuple[float, int, int]:
    """Median over consecutive blocks of P99_BLOCK operations of each block's
    p99, scaled unless `scaled` is false.

    Each block leaves at least ten samples beyond its p99; a run shorter
    than one block is a single block.  A burst of contention from another
    tenant inflates the tail of one block, not the median over blocks.
    The host's speed changes within a second, and the slowest operations
    are mostly those that met its slow moments, so a block's p99 is scaled
    by the slow factor of the block's probes, not by their median.
    Returns the value, the number of blocks and the fewest samples any
    block leaves beyond its p99.
    """
    latencies_ns = phase.latencies_ns
    blocks = max(1, len(latencies_ns) // P99_BLOCK)
    size = len(latencies_ns) // blocks
    values, beyond = [], []
    for b in range(blocks):
        lo, hi = b * size, len(latencies_ns) if b == blocks - 1 else (b + 1) * size
        block = sorted(latencies_ns[lo:hi])
        values.append(percentile(block, 0.99)
                      * (phase.speed(lo, hi, hostspeed.slow_factor) if scaled else 1.0))
        beyond.append(len(block) - math.ceil(0.99 * len(block)))
    return statistics.median(values) / 1e6, blocks, min(beyond)


def end_to_end(phase: Phase, setup_times: list[tuple[float, float]]) -> tuple[dict, dict, dict]:
    """The end-to-end metrics on the nominal host, the sample counts behind
    them, and the same metrics as measured, unscaled."""
    p99, blocks, beyond = block_p99_ms(phase)
    values = {
        "ops_per_s": phase.ops_per_s,
        "op_p50_ms": percentile(sorted(phase.scaled_latencies_ns()), 0.50) / 1e6,
        "op_p99_ms": p99,
        "setup_s": statistics.median(t * f for t, f in setup_times),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {
        "op_p50_ms": phase.attempted,
        "op_p99_ms_blocks": blocks,
        "op_p99_ms_min_beyond_per_block": beyond,
        "ops_per_s_blocks": len(phase.blocks()),
        "setup_s": len(setup_times),
        "host_speed_probes": len(phase.probes),
    }
    unscaled = {
        "ops_per_s": statistics.median(phase.block_rates(scaled=False)),
        "op_p50_ms": percentile(sorted(phase.latencies_ns), 0.50) / 1e6,
        "op_p99_ms": block_p99_ms(phase, scaled=False)[0],
        "setup_s": statistics.median(t for t, _ in setup_times),
        "host_speed": phase.speed(),
    }
    if beyond < 10:
        print(f"warning: a p99 block leaves only {beyond} samples beyond it", file=sys.stderr)
    return values, samples, unscaled


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run emits, with its unit."""
    units: dict[str, str] = {}
    for name in LAYERS:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update(
        {
            "dual_graphs.intersection_matrix.calls_per_op": "1/op",
            "valuations.inversions_per_compare": "ratio",
            "canonical.distinct_key_ratio": "ratio",
            "obstructions.kb_hit_ratio": "ratio",
            "obstructions.kb_file_bytes": "bytes",
            "obstructions.kb_records_scanned": "computed_count",
            "trace.overhead_ratio": "ratio",
            "trace.unattributed_s": "s",
            "trace.ops": "count",
            "failed_ratio": "ratio",
        }
    )
    return units


def per_layer(summary: dict, tracer, untraced: Phase, traced: Phase, workload) -> dict:
    self_s, calls = summary["self_s"], summary["calls"]
    ops = summary["ops"]
    values = {}
    for name in LAYERS:
        values[f"{name}.self_s"] = self_s.get(name, 0.0)
        values[f"{name}.calls"] = calls.get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    values["dual_graphs.intersection_matrix.calls_per_op"] = ratio(
        calls.get("dual_graphs.intersection_matrix", 0), ops)
    values["valuations.inversions_per_compare"] = ratio(
        calls.get("exact_linalg.ExactMatrix.inverse", 0), calls.get("valuations.compare", 0))
    values["canonical.distinct_key_ratio"] = ratio(len(tracer.distinct_keys), tracer.keys_computed)
    values["obstructions.kb_hit_ratio"] = ratio(tracer.lookup_hits, tracer.lookups)
    kb = workload.kb_path
    values["obstructions.kb_file_bytes"] = os.path.getsize(kb) if kb and os.path.exists(kb) else 0
    values["obstructions.kb_records_scanned"] = tracer.records_scanned
    values["trace.overhead_ratio"] = ratio(traced.ops_per_s, untraced.ops_per_s)
    values["trace.unattributed_s"] = summary["unattributed_s"]
    values["trace.ops"] = ops
    values["failed_ratio"] = ratio(untraced.failed + traced.failed,
                                   untraced.attempted + traced.attempted)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "nasharc", "__init__.py")):
        print(f"error: no nasharc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    for _ in range(200):  # warm the reference load before the first probe
        hostspeed.reference()

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        isolate_bytecode(tmp)
        workload, setup_times = set_up(args.workload, args.seed, tmp)
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()  # one more set-up, traced, so enumeration spans are recorded
            workload = workloads.WORKLOADS[args.workload](workload.lib, args.seed)
            tracer.uninstall()
            workload.write_inputs(os.path.join(tmp, "inputs-traced"))
            workload.reset(os.path.join(tmp, "untraced"))
            untraced = measure(workload, args.seconds / 2)
            workload.reset(os.path.join(tmp, "traced"))
            tracer.install()
            try:
                traced = measure(workload, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            summary = tracer.summary()
            phases = (untraced, traced)
            values = per_layer(summary, tracer, untraced, traced, workload)
            units = per_layer_units()
            samples = {"traced_ops": summary["ops"], "spans": summary["spans"],
                       "untraced_ops": untraced.attempted}
        else:
            workload.reset(os.path.join(tmp, "run"))
            phase = measure(workload, args.seconds)
            phases = (phase,)
            values, samples, unscaled = end_to_end(phase, setup_times)
            samples["unscaled"] = unscaled
            units = END_TO_END_UNITS

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    errors: dict[str, int] = {}
    for p in phases:
        for kind, count in p.errors.items():
            errors[kind] = errors.get(kind, 0) + count
    info = {
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "platform": platform.platform(), "commit": commit()},
        "run": {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "load": "closed loop, 1 client, 1 process, 1 thread"},
        "input": {"size": workload.input_size(), "why": workload.why},
        "samples": samples,
        "failed_ratio": failed / attempted,
        "errors": errors,
        "known_defects": workloads.known_defects(workload.lib),
    }
    print("info " + json.dumps(info, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
