"""Dense square matrices over the exact rationals.

This is the arithmetic backbone for every intersection-lattice computation
in the package.  An entry is an ``int`` whenever it is integral and a
``Fraction`` only for a true quotient.  Each matrix gets one elimination:
a fraction-free Gauss-Jordan sweep of [M | I] over Python integers
(Bareiss, Math. Comp. 22, 1968), run on first use and kept on the matrix.
Determinants, leading principal minors, the Sylvester negative-definiteness
test, inverses and linear solves all read that sweep, followed by a single
exact division; its pivots before the first row swap are the leading
principal minors.  Matrices are immutable; all operations return new values
and are safe to run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Iterable, Sequence

from .errors import InternalInvariantError, SingularMatrixError, ValidationError
from .rationals import canonical_rational, format_rational, parse_rational


def _coerce(value) -> Fraction | int:
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, str):
        value = parse_rational(value)
    if isinstance(value, Fraction):
        return canonical_rational(value)
    raise ValidationError(f"matrix entries must be exact rationals, got {value!r}")


def _quotient(num: int, den: int) -> Fraction | int:
    """num / den, as an int when the division is exact."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def _integer_rows(rows: Iterable[Sequence]) -> tuple[list[list[int]], list[int]]:
    """Each row times the lcm of its denominators, and those positive scales."""
    out, scales = [], []
    for row in rows:
        s = lcm(*(v.denominator for v in row))
        out.append([v.numerator * (s // v.denominator) for v in row])
        scales.append(s)
    return out, scales


def _eliminate(m: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination of the leading square block of m.

    m holds n integer rows of width >= n and is reduced in place.  Step k
    clears column k in every other row by (a * pivot - b * c) / previous
    pivot; Sylvester's identity makes that division exact, which is
    checked.  A zero pivot is replaced by the first nonzero entry below it,
    whose row comes up negated so that no minor changes sign; a zero pivot
    that stays ends the sweep, so fewer than n pivots mean det m = 0.
    Returns the pivots and ``leading``, the number of pivots taken before
    the first swap: the k-th of those is the leading (k+1)-minor of m.
    After all n steps the last pivot is det m, and row i of the appended
    columns holds det times row i of the solution X of the appended system
    M X = B.
    """
    n = len(m)
    width = len(m[0]) if m else 0
    pivots: list[int] = []
    leading = n
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            leading = min(leading, k)
            r = next((r for r in range(k + 1, n) if m[r][k]), None)
            if r is None:
                break
            m[k], m[r] = [-v for v in m[r]], m[k]
        pivot = m[k][k]
        pivots.append(pivot)
        row_k = m[k]
        for r in range(n):
            if r == k:
                continue
            row_r = m[r]
            factor = row_r[k]
            for c in range(k + 1, width):
                quotient, remainder = divmod(row_r[c] * pivot - factor * row_k[c], prev)
                if remainder:
                    raise InternalInvariantError("fraction-free elimination lost exactness")
                row_r[c] = quotient
            row_r[k] = 0
        prev = pivot
    return pivots, leading


@dataclass(frozen=True)
class ExactMatrix:
    """An n-by-n matrix of exact rationals."""

    rows: tuple[tuple[Fraction | int, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        for row in self.rows:
            if len(row) != n:
                raise ValidationError(
                    f"matrix must be square, got a row of length {len(row)} in size {n}"
                )

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "ExactMatrix":
        return cls(tuple(tuple(_coerce(v) for v in row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.rows)

    def transpose(self) -> "ExactMatrix":
        n = self.n
        return ExactMatrix(tuple(tuple(self.rows[i][j] for i in range(n)) for j in range(n)))

    def neg(self) -> "ExactMatrix":
        return ExactMatrix(tuple(tuple(-v for v in row) for row in self.rows))

    def mul(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.n != other.n:
            raise ValidationError("dimension mismatch in matrix product")
        cols = other.transpose().rows
        return ExactMatrix(
            tuple(
                tuple(_coerce(sum(a * b for a, b in zip(row, col))) for col in cols)
                for row in self.rows
            )
        )

    def matvec(self, vec: Sequence) -> tuple[Fraction | int, ...]:
        if len(vec) != self.n:
            raise ValidationError("dimension mismatch in matrix-vector product")
        v = [_coerce(x) for x in vec]
        return tuple(_coerce(sum(a * b for a, b in zip(row, v))) for row in self.rows)

    def is_symmetric(self) -> bool:
        n = self.n
        return all(self.rows[i][j] == self.rows[j][i] for i in range(n) for j in range(i))

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for row in self.rows for v in row)

    # -- the kept elimination and what reads it ----------------------------

    def _sweep(self) -> tuple[list[int], list[int], int, list[list[int]]]:
        """The one elimination of [M | I], run on first use and kept on the matrix.

        With rows scaled by s > 0, S = diag(s): the pivots before the first
        swap (the leading minors of S M), s, d = det(S M), and d M^-1 if d != 0.
        """
        sweep = self.__dict__.get("_kept_sweep")
        if sweep is None:
            n = self.n
            m, scales = _integer_rows(map(tuple.__add__, self.rows, ExactMatrix.identity(n).rows))
            pivots, leading = _eliminate(m)
            det = 0 if len(pivots) < n else pivots[-1] if pivots else 1
            sweep = (pivots[:leading], scales, det, [row[n:] for row in m])
            object.__setattr__(self, "_kept_sweep", sweep)
        return sweep

    def determinant(self) -> Fraction | int:
        """Exact determinant: det(S M) from the kept sweep over the row scales."""
        _, scales, det, _ = self._sweep()
        return _quotient(det, prod(scales))

    def leading_principal_minors(self) -> tuple[Fraction | int, ...]:
        """The n leading principal minors, read off the kept sweep.

        The k-th pivot before the first row swap is the k-th leading minor
        of the row-scaled matrix.  A swap is needed precisely where that
        minor is zero; the remaining minors are then computed by independent
        sub-determinants.
        """
        n = self.n
        pivots, scales, _, _ = self._sweep()
        minors = [_quotient(p, prod(scales[: k + 1])) for k, p in enumerate(pivots)]
        if len(minors) < n:
            minors.append(0)
            for size in range(len(minors) + 1, n + 1):
                block = self if size == n else ExactMatrix(tuple(row[:size] for row in self.rows[:size]))
                minors.append(block.determinant())
        return tuple(minors)

    def inverse(self) -> "ExactMatrix":
        """Exact inverse; raises SingularMatrixError on singular input."""
        _, _, det, block = self._sweep()
        if det == 0:
            raise SingularMatrixError("matrix is singular, no exact inverse or solution")
        return ExactMatrix(tuple(tuple(_quotient(v, det) for v in row) for row in block))

    def solve(self, rhs: Sequence) -> tuple[Fraction | int, ...]:
        """Solve M x = rhs exactly; raises SingularMatrixError when det = 0."""
        if len(rhs) != self.n:
            raise ValidationError("right-hand side has wrong length")
        (b,), (scale,) = _integer_rows([[_coerce(v) for v in rhs]])
        _, _, det, block = self._sweep()
        if det == 0:
            raise SingularMatrixError("matrix is singular, no exact inverse or solution")
        return tuple(_quotient(sum(a * v for a, v in zip(row, b)), det * scale) for row in block)

    # -- serialization -------------------------------------------------------

    def to_doc(self) -> dict:
        return {"n": self.n, "rows": [[format_rational(v) for v in row] for row in self.rows]}

    def __str__(self):
        body = "; ".join(" ".join(format_rational(v) for v in row) for row in self.rows)
        return f"[{body}]"


def is_negative_definite(matrix: ExactMatrix) -> bool:
    """Sylvester test: (-1)^k times the k-th leading minor is positive for all k.

    Only symmetric matrices are accepted; the test is exact.  The pivots
    the kept sweep takes before any row swap are the leading minors times
    positive scales, so their signs decide; a swap means a vanishing minor.
    """
    if not matrix.is_symmetric():
        raise ValidationError("negative-definiteness is only defined for symmetric matrices")
    pivots = matrix._sweep()[0]
    return len(pivots) == matrix.n and all((-1) ** (k + 1) * p > 0 for k, p in enumerate(pivots))


@dataclass(frozen=True)
class InverseSignReport:
    """Sign audit of an inverse matrix.

    ``offending_entries`` lists positive entries as (i, j, value);
    ``zero_entries`` lists the vanishing ones, which is what distinguishes a
    merely non-positive inverse from the strictly negative inverse expected
    of a connected negative-definite intersection lattice.
    """

    all_nonpositive: bool
    offending_entries: tuple[tuple[int, int, Fraction | int], ...]
    zero_entries: tuple[tuple[int, int], ...]

    @property
    def strictly_negative(self) -> bool:
        return self.all_nonpositive and not self.zero_entries

    def to_doc(self) -> dict:
        return {
            "all_nonpositive": self.all_nonpositive,
            "strictly_negative": self.strictly_negative,
            "offending_entries": [
                [i, j, format_rational(v)] for i, j, v in self.offending_entries
            ],
            "zero_entries": [[i, j] for i, j in self.zero_entries],
        }


def check_inverse_nonpositive(matrix: ExactMatrix) -> InverseSignReport:
    """Invert exactly and report the sign pattern of the inverse."""
    return _inverse_sign_report(matrix.inverse())


def _inverse_sign_report(inv: ExactMatrix) -> InverseSignReport:
    """The sign pattern of an inverse that is already at hand."""
    offending = []
    zeros = []
    for i, row in enumerate(inv.rows):
        for j, v in enumerate(row):
            if v > 0:
                offending.append((i, j, v))
            elif v == 0:
                zeros.append((i, j))
    return InverseSignReport(
        all_nonpositive=not offending,
        offending_entries=tuple(offending),
        zero_entries=tuple(zeros),
    )
