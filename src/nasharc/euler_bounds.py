"""Euler-characteristic bookkeeping for deformations of a limit divisor.

The limit divisor of a one-parameter family of disk images decomposes into
the strict transform of the special member plus exceptional components
with non-negative integer coefficients.  Cutting a nearby member along the
boundaries of balls around the crossing points and tubes around the
components gives three integer bounds whose sum telescopes to a single
expression in the coefficients, genera and self-intersections.  Whenever
that final bound stays below one, the nearby member cannot normalize to a
disk, which is the contradiction certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .dual_graphs import DualGraph, VertexId, intersection_matrix, is_vertex_id
from .errors import InternalInvariantError, ValidationError
from .rationals import is_exact_int


@dataclass(frozen=True)
class EulerInput:
    """A decorated graph, limit-divisor coefficients, and the attachment vertex.

    ``coeffs`` follows the vertex order of the graph; ``attach`` names the
    component crossed transversely by the strict transform of the special
    member.
    """

    graph: DualGraph
    coeffs: tuple[int, ...]
    attach: VertexId

    def __post_init__(self):
        if len(self.coeffs) != self.graph.n:
            raise ValidationError(
                f"expected {self.graph.n} coefficients, got {len(self.coeffs)}"
            )
        if any(not is_exact_int(a) or a < 0 for a in self.coeffs):
            raise ValidationError("limit-divisor coefficients must be non-negative integers")
        if not is_vertex_id(self.attach):
            raise ValidationError(f"attachment id must be an int or string, got {self.attach!r}")
        self.attach_index  # an unknown attachment is refused here

    @cached_property
    def attach_index(self) -> int:
        return self.graph.index_of(self.attach)

    @property
    def attach_coeff(self) -> int:
        return self.coeffs[self.attach_index]


def _require_indeterminacy(data: EulerInput):
    if data.attach_coeff < 1:
        raise ValidationError(
            "the attachment coefficient vanishes: the family lifts and the "
            "ball estimate at the attachment point does not apply"
        )


def b0_bound(data: EulerInput) -> int:
    """Disk count bound in the ball around the attachment point: a_0 - 1."""
    _require_indeterminacy(data)
    return data.attach_coeff - 1


def balls_bound(data: EulerInput) -> int:
    """Bound across the crossing-point balls: one plus the full double sum
    of coefficients against the intersection matrix, diagonal included."""
    matrix = intersection_matrix(data.graph)
    a = data.coeffs
    n = data.graph.n
    return 1 + sum(a[i] * matrix.rows[i][k] for i in range(n) for k in range(n))


def tubes_bound(data: EulerInput) -> int:
    """Branched-cover bound over the punctured components.

    Each component contributes its coefficient times the Euler
    characteristic of the component minus the crossing disks; the
    attachment component loses one extra disk.
    """
    matrix = intersection_matrix(data.graph)
    a = data.coeffs
    n = data.graph.n
    attach = data.attach_index
    total = 0
    for i in range(n):
        off = sum(matrix.rows[i][k] for k in range(n) if k != i)
        chi = 2 - 2 * data.graph.vertices[i].genus - off
        if i == attach:
            chi -= 1
        total += a[i] * chi
    return total


def final_bound(data: EulerInput) -> int:
    """The assembled bound: sum of a_i (2 - 2 g_i + w_i) over all vertices.

    Internally re-derives the three partial bounds and checks that they
    telescope to this expression exactly.
    """
    _require_indeterminacy(data)
    total = sum(
        a * (2 - 2 * v.genus + v.self_int)
        for a, v in zip(data.coeffs, data.graph.vertices)
    )
    parts = b0_bound(data) + balls_bound(data) + tubes_bound(data)
    if parts != total:
        raise InternalInvariantError(
            f"bound assembly failed: {parts} != {total} on {data.graph.ids}"
        )
    return total


@dataclass(frozen=True)
class ContradictionCertificate:
    """Outcome of the disk test.

    ``contradicts_disk`` fires when the bound excludes Euler characteristic
    one and no vertex trips the minimality guard.  ``minimality_flags``
    lists the genus-zero (-1)-vertices: their per-term contribution is
    positive, signaling a non-minimal model on which the argument is void.
    """

    bound: int
    contradicts_disk: bool
    minimality_flags: tuple[VertexId, ...]

    def to_doc(self) -> dict:
        return {
            "bound": self.bound,
            "contradicts_disk": self.contradicts_disk,
            "minimality_flags": list(self.minimality_flags),
        }


def contradiction_certificate(data: EulerInput) -> ContradictionCertificate:
    flags = tuple(
        v.id for v in data.graph.vertices if v.genus == 0 and v.self_int == -1
    )
    bound = final_bound(data)
    return ContradictionCertificate(
        bound=bound,
        contradicts_disk=(bound < 1) and not flags,
        minimality_flags=flags,
    )
