"""Dense square matrices over the exact rationals.

This is the arithmetic backbone for every intersection-lattice computation
in the package.  An entry is an ``int`` whenever it is integral and a
``Fraction`` only for a true quotient.  Each matrix gets one elimination: a
fraction-free Gauss-Jordan sweep of [s M | s I] over Python integers
(Bareiss, Math. Comp. 22, 1968), s the lcm of all denominators, run on first
use and kept on the matrix; ``int`` entries (s = 1) enter it unscaled.
Determinants, inverses and solves read that sweep, then one exact division;
Sylvester's negative-definiteness test reads the signs of its pivots before
the first row swap, the leading principal minors times powers of s.  Entries
are validated once, by ``from_rows``; products and transposes of exact
matrices are not re-validated, so a float passed to the bare constructor is
not caught there.  Matrices are immutable; all operations return new values
and are safe to run concurrently.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Sequence

from .errors import InternalInvariantError, SingularMatrixError, ValidationError
from .rationals import canonical_rational, exact_rational, format_rational, parse_rational


def _coerce(value) -> Fraction | int:
    if type(value) is int:
        return value
    if isinstance(value, str):
        value = parse_rational(value)
    return exact_rational(value, "matrix entries")


def _quotient(num: Fraction | int, den: int) -> Fraction | int:
    """num / den, as an int when the division is exact."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


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

    @property
    def n(self) -> int:
        return len(self.rows)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(tuple(zip(*self.rows)))

    def neg(self) -> "ExactMatrix":
        return ExactMatrix(tuple(tuple(-v for v in row) for row in self.rows))

    def mul(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.n != other.n:
            raise ValidationError("dimension mismatch in matrix product")
        cols = tuple(zip(*other.rows))
        return ExactMatrix(
            tuple(
                tuple(canonical_rational(sum(map(operator.mul, row, col))) for col in cols)
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

    @cached_property
    def _sweep(self) -> tuple[list[int], int, int, list[list[int]]]:
        """The one elimination of [s M | s I], run on first use and kept on the matrix.

        With s the lcm of every entry's denominator: the pivots before the
        first swap (the leading minors of s M), s, d = det(s M) = s^n det M,
        and the right block, d M^-1 if d != 0.
        """
        n = self.n
        s = lcm(*{v.denominator for row in self.rows for v in row})
        if s == 1:
            m = [list(row) for row in self.rows]
        else:
            m = [[v.numerator * (s // v.denominator) for v in row] for row in self.rows]
        for i, row in enumerate(m):
            row += [0] * n
            row[n + i] = s
        pivots, leading = _eliminate(m)
        det = 0 if len(pivots) < n else pivots[-1] if pivots else 1
        return pivots[:leading], s, det, [row[n:] for row in m]

    def determinant(self) -> Fraction | int:
        """Exact determinant: det(s M) from the kept sweep over s^n."""
        _, s, det, _ = self._sweep
        return _quotient(det, s**self.n)

    @cached_property
    def _inverse(self) -> "ExactMatrix":
        """M^-1 = (d M^-1) / d off the kept sweep, kept on the matrix; SingularMatrixError if d = 0."""
        _, _, det, block = self._sweep
        if det == 0:
            raise SingularMatrixError("matrix is singular, no exact inverse or solution")
        return ExactMatrix(tuple(tuple(_quotient(v, det) for v in row) for row in block))

    def inverse(self) -> "ExactMatrix":
        """Exact inverse; raises SingularMatrixError on singular input."""
        return self._inverse

    def solve(self, rhs: Sequence) -> tuple[Fraction | int, ...]:
        """Solve M x = rhs exactly: (d M^-1) rhs / d; raises SingularMatrixError when d = 0."""
        if len(rhs) != self.n:
            raise ValidationError("right-hand side has wrong length")
        b = [_coerce(v) for v in rhs]
        _, _, det, block = self._sweep
        if det == 0:
            raise SingularMatrixError("matrix is singular, no exact inverse or solution")
        return tuple(_quotient(sum(map(operator.mul, row, b)), det) for row in block)

    # -- serialization -------------------------------------------------------

    def to_doc(self) -> dict:
        return {"n": self.n, "rows": [[format_rational(v) for v in row] for row in self.rows]}

    def __str__(self):
        body = "; ".join(" ".join(format_rational(v) for v in row) for row in self.rows)
        return f"[{body}]"


def is_negative_definite(matrix: ExactMatrix) -> bool:
    """Sylvester test: (-1)^k times the k-th leading minor is positive for all k.

    Only symmetric matrices are accepted; the test is exact.  The pivots
    the kept sweep takes before any row swap are the leading k-minors of M
    times s^k > 0, so their signs decide; a swap means a vanishing minor.
    """
    if not matrix.is_symmetric():
        raise ValidationError("negative-definiteness is only defined for symmetric matrices")
    pivots = matrix._sweep[0]
    return len(pivots) == matrix.n and all((-1) ** (k + 1) * p > 0 for k, p in enumerate(pivots))


@dataclass(frozen=True)
class InverseSignReport:
    """Sign audit of an inverse matrix.

    ``offending_entries`` lists positive entries as (i, j, value);
    ``zero_entries`` lists the vanishing ones, which is what distinguishes a
    merely non-positive inverse from the strictly negative inverse expected
    of a connected negative-definite intersection lattice.
    """

    offending_entries: tuple[tuple[int, int, Fraction | int], ...]
    zero_entries: tuple[tuple[int, int], ...]

    @property
    def all_nonpositive(self) -> bool:
        return not self.offending_entries

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
    """Report the sign pattern of M^-1, the inverse the matrix keeps."""
    entries = [(i, j, v) for i, row in enumerate(matrix._inverse.rows) for j, v in enumerate(row)]
    offending = tuple(entry for entry in entries if entry[2] > 0)
    return InverseSignReport(offending, tuple((i, j) for i, j, v in entries if v == 0))
