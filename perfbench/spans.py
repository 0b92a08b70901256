"""Spans recorded from outside nasharc, by wrapping its public functions.

A `Tracer` replaces each function in `TARGETS` with a wrapper at every
place the function is bound: the namespace of every loaded ``nasharc``
module (so ``nasharc.valuations.simulate`` is caught as well as
``nasharc.clusters.simulate``) and, for methods, the class attribute.
Each call records one span: a name, a start, an end, its parent span and
the id of the operation it belongs to.  Spans stay in memory, in flat
arrays, until `summary` turns them into per-layer totals.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from array import array
from collections import defaultdict

# (module, attribute) for every function the traced run times.  A dotted
# attribute is a method, patched on its class.
TARGETS = (
    ("clusters", "enumerate_proximity_structures"),
    ("clusters", "enumerate_tangent_assignments"),
    ("clusters", "simulate"),
    ("clusters", "proximity_matrix"),
    ("clusters", "intersection_from_proximity"),
    ("clusters", "closure_indices"),
    ("clusters", "minimal_joint_model"),
    ("clusters", "pair_graph"),
    ("dual_graphs", "intersection_matrix"),
    ("exact_linalg", "ExactMatrix.mul"),
    ("exact_linalg", "ExactMatrix.determinant"),
    ("exact_linalg", "ExactMatrix.inverse"),
    ("exact_linalg", "ExactMatrix.solve"),
    ("exact_linalg", "is_negative_definite"),
    ("polynomials", "parse_poly"),
    ("polynomials", "Poly2.subst_free"),
    ("polynomials", "Poly2.subst_inf"),
    ("polynomials", "Poly2.divide_power"),
    ("polynomials", "Poly2.__mul__"),
    ("polynomials", "Poly2.exact_div"),
    ("valuations", "cluster_matrix"),
    ("valuations", "curvette_order_rows"),
    ("valuations", "strict_transform_profile"),
    ("valuations", "ord_vector"),
    ("valuations", "ord_poly"),
    ("valuations", "compare"),
    ("valuations", "curvette_polynomial"),
    ("canonical", "canonical_key"),
    ("obstructions", "valuative_obstruction"),
    ("obstructions", "adjacency_table"),
    ("obstructions", "returns_system"),
    ("obstructions", "KnowledgeBase.store"),
    ("obstructions", "KnowledgeBase.lookup"),
    ("euler_bounds", "contradiction_certificate"),
    ("euler_bounds", "final_bound"),
    ("lifting", "solve_b"),
    ("lifting", "verify_numerical"),
    ("lifting", "lifting_verdict"),
)

# Generator functions: each next() is one span, the call itself is not.
GENERATORS = {"clusters.enumerate_proximity_structures", "clusters.enumerate_tangent_assignments"}

OP_SPAN = "op"

# Calls whose arguments or results feed a counter kept beside the spans.
KB_CALLS = {"obstructions.KnowledgeBase.store", "obstructions.KnowledgeBase.lookup"}
HOOKED = KB_CALLS | {"canonical.canonical_key"}


def target_names() -> list[str]:
    return [f"{module}.{attr}" for module, attr in TARGETS]


class _TracedIterator:
    def __init__(self, tracer: "Tracer", nid: int, inner):
        self._tracer = tracer
        self._nid = nid
        self._inner = inner

    def __iter__(self):
        return self

    def __next__(self):
        idx = self._tracer._open(self._nid)
        try:
            return next(self._inner)
        finally:
            self._tracer._close(idx)


class Tracer:
    """In-memory span recorder that patches nasharc while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("H")
        self._parent = array("q")
        self._op = array("q")
        self._start = array("q")
        self._end = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op_id = -1
        self.keys_computed = 0
        self.distinct_keys: set[str] = set()
        self.lookups = 0
        self.lookup_hits = 0
        self.records_scanned = 0
        self._kb_lines: dict[str, tuple[int, int]] = {}

    # -- recording -----------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self._start)
        stack = self._stack
        self._name.append(nid)
        self._parent.append(stack[-1] if stack else -1)
        self._op.append(self.op_id)
        self._end.append(0)
        stack.append(idx)
        self._start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int):
        self._end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(self._nid(name))
        try:
            yield
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """Root span of one benchmark operation; spans inside carry its id."""
        self.op_id = op_id
        try:
            with self.span(OP_SPAN):
                yield
        finally:
            self.op_id = -1

    # -- counters kept at the boundaries -------------------------------------

    def _count_records(self, kb) -> None:
        """Records on file when a store call starts; the store rereads them all."""
        path = kb.path
        offset, lines = self._kb_lines.get(path, (0, 0))
        if os.path.exists(path):
            with open(path, "rb") as handle:
                handle.seek(offset)
                tail = handle.read()
            offset += len(tail)
            lines += tail.count(b"\n")
        self._kb_lines[path] = (offset, lines)
        self.records_scanned += lines

    def _before(self, name: str, args) -> None:
        if name in KB_CALLS:
            self._count_records(args[0])

    def _after(self, name: str, result) -> None:
        if name == "canonical.canonical_key":
            self.keys_computed += 1
            self.distinct_keys.add(result.as_text())
        elif name == "obstructions.KnowledgeBase.lookup":
            self.lookups += 1
            self.lookup_hits += result is not None

    # -- patching ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._nid(name)
        if name in GENERATORS:

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                return _TracedIterator(self, nid, fn(*args, **kwargs))

            return traced_generator

        open_, close = self._open, self._close
        if name not in HOOKED:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)

            return traced

        @functools.wraps(fn)
        def traced_hooked(*args, **kwargs):
            self._before(name, args)
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            self._after(name, result)
            return result

        return traced_hooked

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target wherever a loaded nasharc module binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "nasharc" or n.startswith("nasharc.")) and m is not None]
        for module_name, attr in TARGETS:
            home = sys.modules[f"nasharc.{module_name}"]
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                self._set(cls, method, self._wrap(name, cls.__dict__[method]))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, bound, wrapper)

        cli = sys.modules["nasharc.cli"]
        self._set(cli, "run", self._wrap_cli(cli.run))

    def _wrap_cli(self, run):
        """Each CLI request is one `cli.<group>_<action>` span, whose self
        time is argument parsing and report formatting."""

        @functools.wraps(run)
        def traced_run(argv=None):
            with self.span("cli." + "_".join(argv[:2])):
                return run(argv)

        return traced_run

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- aggregation ---------------------------------------------------------

    def summary(self) -> dict:
        """Self time and calls per span name, and the per-operation check.

        A span's self time is its duration minus the durations of its
        direct children.  For every operation, the self times of the spans
        inside it must sum to no more than the operation's wall time; what
        they leave uncovered is the operation span's own self time, reported
        as unattributed.
        """
        n = len(self._start)
        if self._stack:
            raise RuntimeError("trace summary taken with spans still open")
        dur = array("q", (self._end[i] - self._start[i] for i in range(n)))
        children = array("q", bytes(8 * n))
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                children[p] += dur[i]
        op_nid = self._ids.get(OP_SPAN, -1)
        self_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        inner_self: dict[int, int] = defaultdict(int)
        wall: dict[int, int] = {}
        unattributed = 0
        for i in range(n):
            own = dur[i] - children[i]
            if own < 0:
                raise RuntimeError(f"span {self.names[self._name[i]]} has negative self time")
            if self._name[i] == op_nid:
                wall[self._op[i]] = dur[i]
                unattributed += own
                continue
            name = self.names[self._name[i]]
            self_ns[name] += own
            calls[name] += 1
            if self._op[i] >= 0:
                inner_self[self._op[i]] += own
        over = [op for op, total in inner_self.items() if total > wall.get(op, 0)]
        if over:
            raise RuntimeError(f"span self times exceed wall time on {len(over)} operations")
        return {
            "self_s": {k: v / 1e9 for k, v in self_ns.items()},
            "calls": dict(calls),
            "ops": len(wall),
            "unattributed_s": unattributed / 1e9,
            "spans": n,
        }
