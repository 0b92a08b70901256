"""Engines that rule out inclusions between Nash sets of divisorial valuations.

An adjacency is the containment of one arc-space closure in another.  The
engines here never certify that an adjacency holds; they either find a
witness that makes it impossible, or abstain.

Conventions fixed by this module:

* ``valuative_obstruction(cluster, e, f)`` examines the adjacency
  ``N_f inside N_e``.  A witness is a curvette whose order along component
  f is strictly smaller than along component e; its existence refutes the
  inequality of valuations the adjacency would force, so the verdict is
  RULED_OUT.  Absent a witness the verdict is NOT_RULED_OUT, which happens
  exactly when the comparison of valuations returns LESS_EQ (or the two
  indices coincide).

* The linear system for prescribed return counts is solved with right-hand
  side (b_0 - 1, b_1, ..., b_r), where the -1 sits at the component met
  transversely by the special arc.  This orientation makes the
  zero-returns solution equal to the (strictly positive) curvette order
  row of the special component.  The opposite printed orientation,
  (1 - b_0, b_1, ..., b_r), yields non-positive solutions under a
  non-positive inverse matrix and is reported alongside for auditing.
"""

from __future__ import annotations

import enum
import json
import os
from dataclasses import dataclass
from fractions import Fraction

from .canonical import CanonicalKey
from .clusters import BlowupCluster, closure_indices
from .errors import (
    KnowledgeBaseConflict,
    KnowledgeBaseError,
    ValidationError,
)
from .exact_linalg import ExactMatrix
from .polynomials import Poly2
from .rationals import format_rational
from .valuations import _first_smaller_curvette, _orders, curvette_order_rows


class ObstructionStatus(enum.Enum):
    RULED_OUT = "RULED_OUT"
    NOT_RULED_OUT = "NOT_RULED_OUT"


@dataclass(frozen=True)
class CurvetteWitness:
    """A curvette index together with the two orders it separates."""

    point: int
    ord_sub: int
    ord_sup: int

    def to_doc(self) -> dict:
        return {
            "kind": "curvette",
            "point": self.point,
            "ord_sub": self.ord_sub,
            "ord_sup": self.ord_sup,
        }


@dataclass(frozen=True)
class OrderWitness:
    """Explicit germ orders violating a refined (returns-aware) inequality."""

    polynomial: str
    ord_sub: int
    ord_ret_1: int
    ord_ret_2: int

    def to_doc(self) -> dict:
        return {
            "kind": "orders",
            "polynomial": self.polynomial,
            "ord_sub": self.ord_sub,
            "ord_return_1": self.ord_ret_1,
            "ord_return_2": self.ord_ret_2,
        }


@dataclass(frozen=True)
class SolutionWitness:
    """An exact solution vector with its offending entries."""

    solution: tuple[Fraction | int, ...]
    offending: tuple[tuple[int, str], ...]

    def to_doc(self) -> dict:
        return {
            "kind": "solution",
            "solution": [format_rational(v) for v in self.solution],
            "offending": [[i, why] for i, why in self.offending],
        }


@dataclass(frozen=True)
class ObstructionVerdict:
    status: ObstructionStatus
    adjacency: str
    witness: CurvetteWitness | OrderWitness | SolutionWitness | None
    detail: str

    def __post_init__(self):
        if self.status is ObstructionStatus.RULED_OUT and self.witness is None:
            raise ValidationError("a RULED_OUT verdict must carry a witness")

    @property
    def ruled_out(self) -> bool:
        return self.status is ObstructionStatus.RULED_OUT

    def to_doc(self) -> dict:
        return {
            "status": self.status.value,
            "adjacency": self.adjacency,
            "witness": None if self.witness is None else self.witness.to_doc(),
            "detail": self.detail,
        }


def valuative_obstruction(cluster: BlowupCluster, e: int, f: int) -> ObstructionVerdict:
    """Test the adjacency of the Nash set of f into the Nash set of e.

    Witness search runs over the curvettes of the minimal joint model,
    read off the cluster's curvette rows at the proximity closure of e and
    f: a germ with a strictly smaller order along f than along e rules the
    inclusion out.  No witness exists exactly when the valuation of e is
    dominated by the valuation of f componentwise.
    """
    if e == f:
        raise ValidationError("the two components of an adjacency must differ")
    i = _first_smaller_curvette(cluster, e, f, closure_indices(cluster, e, f))
    adjacency = f"N_{f} in N_{e}"
    if i is not None:
        rows = curvette_order_rows(cluster)
        return ObstructionVerdict(
            ObstructionStatus.RULED_OUT,
            adjacency,
            CurvetteWitness(i, rows[f][i], rows[e][i]),
            f"curvette through point {i} has order {rows[f][i]} along "
            f"component {f} but {rows[e][i]} along component {e}",
        )
    return ObstructionVerdict(
        ObstructionStatus.NOT_RULED_OUT,
        adjacency,
        None,
        f"orders along component {e} are dominated by orders along component {f} "
        f"on every curvette of the joint model",
    )


def refined_valuative_obstruction(
    cluster: BlowupCluster, e: int, f: int, f2: int, g: Poly2
) -> ObstructionVerdict:
    """Returns-aware refinement for a single germ.

    Rules out a wedge realizing the adjacency of the Nash set of e into
    the Nash set of f while making an extra return that lifts by f2: such
    a wedge forces ord_e(g) >= ord_f(g) + ord_f2(g) for every germ g, so
    one strict violation suffices.
    """
    orders = _orders(cluster, g, closure_indices(cluster, e, f, f2))
    v_e, v_f, v_f2 = orders[e], orders[f], orders[f2]
    adjacency = f"N_{e} in N_{f} with a return lifting by {f2}"
    if v_e < v_f + v_f2:
        return ObstructionVerdict(
            ObstructionStatus.RULED_OUT,
            adjacency,
            OrderWitness(str(g), v_e, v_f, v_f2),
            f"ord_{e}(g) = {v_e} < {v_f} + {v_f2} = ord_{f}(g) + ord_{f2}(g)",
        )
    return ObstructionVerdict(
        ObstructionStatus.NOT_RULED_OUT,
        adjacency,
        None,
        f"ord_{e}(g) = {v_e} >= {v_f} + {v_f2}",
    )


@dataclass(frozen=True)
class ReturnsSystemResult:
    """Exact solution of the returns linear system, under both orientations."""

    solution: tuple[Fraction | int, ...]
    verdict: ObstructionVerdict
    rhs: tuple[int, ...]
    printed_rhs: tuple[int, ...]
    printed_solution: tuple[Fraction | int, ...]

    def to_doc(self) -> dict:
        return {
            "solution": [format_rational(v) for v in self.solution],
            "rhs": list(self.rhs),
            "printed_rhs": list(self.printed_rhs),
            "printed_solution": [format_rational(v) for v in self.printed_solution],
            "verdict": self.verdict.to_doc(),
        }


def returns_system(
    M: ExactMatrix,
    b: tuple[int, ...] | list[int],
    special_index: int,
    require_no_lift: bool = True,
) -> ReturnsSystemResult:
    """Solve the exceptional-part system for a wedge with prescribed returns.

    The coefficient vector a of the limit divisor satisfies
    M a = b - unit(special): away from the special component the total
    intersection with each component is the return count b_i, while the
    special component is crossed once more by the strict transform of the
    special arc.  A negative or non-integral entry, or a vanishing special
    entry when the wedge is required not to lift, refutes the wedge.
    """
    n = M.n
    if not M.is_symmetric() or not M.is_integral():
        raise ValidationError("expected a symmetric integer intersection matrix")
    if any(M.rows[i][j] < 0 for i in range(n) for j in range(n) if i != j):
        raise ValidationError("off-diagonal intersection numbers must be non-negative")
    if len(b) != n:
        raise ValidationError(f"returns profile has length {len(b)}, expected {n}")
    if any((isinstance(v, bool) or not isinstance(v, int) or v < 0) for v in b):
        raise ValidationError("returns counts must be non-negative integers")
    if not 0 <= special_index < n:
        raise ValidationError(f"special component index {special_index} out of range")

    rhs = tuple(int(v) - (1 if i == special_index else 0) for i, v in enumerate(b))
    printed_rhs = tuple(
        (1 - int(v)) if i == special_index else int(v) for i, v in enumerate(b)
    )
    solution = M.solve(rhs)
    printed_solution = M.solve(printed_rhs)

    offending: list[tuple[int, str]] = []
    for i, value in enumerate(solution):
        if value < 0:
            offending.append((i, f"negative entry {format_rational(value)}"))
        elif value.denominator != 1:
            offending.append((i, f"non-integral entry {format_rational(value)}"))
    if require_no_lift and not offending and solution[special_index] == 0:
        offending.append(
            (special_index, "special entry vanishes although the wedge must not lift")
        )

    adjacency = f"wedge with returns {tuple(int(v) for v in b)} through component {special_index}"
    if offending:
        verdict = ObstructionVerdict(
            ObstructionStatus.RULED_OUT,
            adjacency,
            SolutionWitness(solution, tuple(offending)),
            "; ".join(f"component {i}: {why}" for i, why in offending),
        )
    else:
        verdict = ObstructionVerdict(
            ObstructionStatus.NOT_RULED_OUT,
            adjacency,
            None,
            "solution is a non-negative integer vector with positive special entry",
        )
    return ReturnsSystemResult(solution, verdict, rhs, printed_rhs, printed_solution)


def adjacency_table(cluster: BlowupCluster) -> dict[tuple[int, int], ObstructionVerdict]:
    """Valuative verdict for every ordered pair (e, f) with e != f.

    The set of NOT_RULED_OUT pairs is the graph of the componentwise order
    on valuations, hence a strict partial order.
    """
    table: dict[tuple[int, int], ObstructionVerdict] = {}
    for e in range(cluster.n):
        for f in range(cluster.n):
            if e != f:
                table[(e, f)] = valuative_obstruction(cluster, e, f)
    return table


# -- the verdict knowledge base ---------------------------------------------------


@dataclass(frozen=True)
class KBRecord:
    key_text: str
    status: ObstructionStatus
    provenance: str

    def to_doc(self) -> dict:
        return {
            "key": self.key_text,
            "status": self.status.value,
            "provenance": self.provenance,
        }


class KnowledgeBase:
    """Append-only file of verdicts keyed by canonical pair-graph form.

    Topologically equivalent pairs share a key, so a stored verdict
    transfers to every pair with the same decorated graph.  Conflicting
    verdicts for one key are rejected outright; facts are never
    overwritten.  Writes must be serialized by the caller; reads are safe
    to run concurrently.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)

    def _records(self) -> dict[str, KBRecord]:
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except FileNotFoundError:
            return {}
        except OSError as exc:
            raise KnowledgeBaseError(f"cannot read {self.path}: {exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            raise KnowledgeBaseError(f"{self.path} is not UTF-8 text: {exc.reason}") from exc
        records: dict[str, KBRecord] = {}
        for lineno, line in enumerate(text.split("\n"), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
                record = KBRecord(
                    doc["key"], ObstructionStatus(doc["status"]), doc.get("provenance", "")
                )
            except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
                raise KnowledgeBaseError(
                    f"{self.path}:{lineno}: corrupt knowledge-base record: {exc}"
                ) from exc
            previous = records.get(record.key_text)
            if previous is not None and previous.status is not record.status:
                raise KnowledgeBaseError(
                    f"{self.path}:{lineno}: conflicting verdicts stored for one key"
                )
            records[record.key_text] = record
        return records

    def lookup(self, key: CanonicalKey) -> KBRecord | None:
        return self._records().get(key.as_text())

    def store(self, key: CanonicalKey, status: ObstructionStatus, provenance: str = "") -> KBRecord:
        records = self._records()
        existing = records.get(key.as_text())
        if existing is not None:
            if existing.status is not status:
                raise KnowledgeBaseConflict(
                    f"stored verdict {existing.status.value} conflicts with {status.value}"
                )
            return existing
        record = KBRecord(key.as_text(), status, provenance)
        try:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record.to_doc(), sort_keys=True) + "\n")
        except OSError as exc:
            raise KnowledgeBaseError(f"cannot write {self.path}: {exc.strerror}") from exc
        return record
