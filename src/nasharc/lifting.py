"""Relative-canonical bookkeeping over a wedge-source cluster.

The source model of a non-lifting wedge is a composite of point blow-ups
over the plane; its exceptional canonical coefficients a, the horizontal
intersection numbers c, the pulled-back target intersection numbers d and
the exceptional relative-canonical coefficients b are tied together by the
exact linear identity (a - b) = M^{-1} (c + d).  The verdict logic layered
on top mirrors a transversality argument: when the target is minimal the
right-hand side is non-positive entrywise, so b dominates a; asserting
that the special b-entry stays below one then forces the special a-entry,
a non-negative integer, to vanish, and the wedge lifts.  The checker
consumes c, d and the assertion as inputs and reports the conclusion or
the inconsistency.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .clusters import BlowupCluster, canonical_coeffs
from .errors import ValidationError
from .rationals import format_rational
from .valuations import curvette_order_rows


@dataclass(frozen=True)
class WedgeNumericalModel:
    """Inputs to the numerical identity over one wedge-source cluster.

    ``special`` indexes the component met by the strict transform of the
    parameter axis.  ``coeffs`` defaults to the canonical coefficients of
    the cluster; supplying a vector with a vanishing special entry encodes
    the hypothesis that no blow-up center touches the parameter axis.
    """

    cluster: BlowupCluster
    special: int
    c: tuple[int, ...]
    d: tuple[int, ...]
    coeffs: tuple[int, ...] | None = None
    b: tuple[Fraction, ...] | None = None
    minimal_target: bool = False
    assert_b1_lt_1: bool = False
    assert_no_lift: bool = False

    def __post_init__(self):
        n = self.cluster.n
        if isinstance(self.special, bool) or not isinstance(self.special, int):
            raise ValidationError(f"special component must be an integer, got {self.special!r}")
        if not 0 <= self.special < n:
            raise ValidationError(f"special component {self.special} out of range")
        if len(self.c) != n or len(self.d) != n:
            raise ValidationError(f"c and d must have length {n}")
        if any(isinstance(v, bool) or not isinstance(v, int) or v < 0 for v in self.c):
            raise ValidationError("horizontal intersection numbers c must be non-negative integers")
        if any(isinstance(v, bool) or not isinstance(v, int) for v in self.d):
            raise ValidationError("pulled-back intersection numbers d must be integers")
        if self.minimal_target and any(v < 0 for v in self.d):
            raise ValidationError(
                "a minimal target forces non-negative d; drop the minimal_target "
                "flag to model a non-minimal one"
            )
        if self.coeffs is not None:
            if len(self.coeffs) != n:
                raise ValidationError(f"coefficient vector must have length {n}")
            if any(isinstance(v, bool) or not isinstance(v, int) or v < 0 for v in self.coeffs):
                raise ValidationError("canonical coefficients must be non-negative integers")
        if self.b is not None and len(self.b) != n:
            raise ValidationError(f"b must have length {n}")

    @property
    def a(self) -> tuple[int, ...]:
        return self.coeffs if self.coeffs is not None else canonical_coeffs(self.cluster)


def solve_b(model: WedgeNumericalModel) -> tuple[Fraction, ...]:
    """The unique b with (a - b) = M^{-1} (c + d), exactly.

    The cluster keeps its curvette rows R = -M^{-1}, built as QQ^t from
    the inverse proximity matrix Q = P^{-1}, so b = a + R (c + d) needs no
    elimination at all.
    """
    cd = [ci + di for ci, di in zip(model.c, model.d)]
    rows = curvette_order_rows(model.cluster)
    return tuple(
        Fraction(ai + sum(r * v for r, v in zip(row, cd))) for ai, row in zip(model.a, rows)
    )


def verify_numerical(model: WedgeNumericalModel) -> bool:
    """Check the identity for a supplied b; exact equality, no tolerance."""
    if model.b is None:
        raise ValidationError("verify_numerical needs a supplied b vector")
    return tuple(Fraction(v) for v in model.b) == solve_b(model)


@dataclass(frozen=True)
class LiftingVerdict:
    lifts: bool
    contradiction: bool
    reason: str
    b: tuple[Fraction, ...]
    a_special: int
    b_special: Fraction

    def to_doc(self) -> dict:
        return {
            "lifts": self.lifts,
            "contradiction": self.contradiction,
            "reason": self.reason,
            "b": [format_rational(v) for v in self.b],
            "a_special": self.a_special,
            "b_special": format_rational(self.b_special),
        }


def lifting_verdict(model: WedgeNumericalModel) -> LiftingVerdict:
    """Draw the lifting conclusion from the numerical identity.

    Requires the minimal-target flag, which makes c + d non-negative and
    hence a <= b entrywise.  With the transversality assertion b_1 < 1 the
    special a-entry is squeezed below one; being a non-negative integer it
    must vanish, so the wedge lifts.  Data contradicting the assertion, or
    a no-lift assertion alongside it, is reported as a contradiction.
    """
    if not model.minimal_target:
        raise ValidationError(
            "the lifting argument needs the minimal_target flag; without it "
            "c + d may have negative entries and nothing follows"
        )
    b = solve_b(model)
    a_s = model.a[model.special]
    b_s = b[model.special]

    lifts = contradiction = False
    if not model.assert_b1_lt_1:
        reason = (
            f"no transversality assertion; computed b_special = "
            f"{format_rational(b_s)} places no constraint on the special "
            f"coefficient a_special = {a_s}"
        )
    elif b_s >= 1:
        contradiction = True
        reason = (
            f"asserted b_special < 1, but the identity gives b_special = "
            f"{format_rational(b_s)} >= 1 (it dominates a_special = {a_s}); "
            f"the model is inconsistent with the transversality assertion"
        )
    elif a_s >= 1:
        contradiction = True
        reason = (
            f"computed b_special = {format_rational(b_s)} < 1 forces "
            f"a_special = 0, but the model carries a_special = {a_s}"
        )
    elif model.assert_no_lift:
        contradiction = True
        reason = (
            "the no-lift assertion requires a positive special coefficient, "
            "but b_special < 1 forces a_special = 0; the assertions are "
            "incompatible"
        )
    else:
        lifts = True
        reason = (
            f"b_special = {format_rational(b_s)} < 1 dominates a_special, a "
            f"non-negative integer, so a_special = 0 and the wedge lifts"
        )
    return LiftingVerdict(lifts, contradiction, reason, b, a_s, b_s)
