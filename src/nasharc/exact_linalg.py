"""Dense square matrices over the exact rationals.

This is the arithmetic backbone for every intersection-lattice computation
in the package.  An entry is an ``int`` whenever it is integral and a
``Fraction`` only for a true quotient.  Determinants, leading principal
minors, the Sylvester negative-definiteness test, inverses and linear
solves all run one fraction-free Gauss-Jordan elimination over Python
integers (Bareiss, Math. Comp. 22, 1968), followed by a single exact
division.  Matrices are immutable; all operations return new values and
are safe to run concurrently.
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


def _eliminate(m: list[list[int]], swaps: bool) -> list[int]:
    """Fraction-free Gauss-Jordan elimination of the leading square block of m.

    m holds n integer rows of width >= n and is reduced in place.  Step k
    clears column k in every other row by (a * pivot - b * c) / previous
    pivot; Sylvester's identity makes that division exact, which is
    checked.  Returns the pivots: the k-th is the leading (k+1)-minor of m
    with its rows as reordered.  With ``swaps``, a zero pivot is replaced by
    the first nonzero entry below it, whose row comes up negated so that no
    minor changes sign.  A zero pivot that stays ends the sweep, so fewer
    than n pivots mean a vanishing minor (with ``swaps``: det m = 0).
    After all n steps, row i of the appended columns holds det times row i
    of the solution X of the appended system M X = B.
    """
    n = len(m)
    width = len(m[0]) if m else 0
    pivots: list[int] = []
    prev = 1
    for k in range(n):
        if swaps and m[k][k] == 0:
            r = next((r for r in range(k + 1, n) if m[r][k]), None)
            if r is not None:
                m[k], m[r] = [-v for v in m[r]], m[k]
        pivot = m[k][k]
        if pivot == 0:
            break
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
    return pivots


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

    def entry(self, i: int, j: int) -> Fraction | int:
        return self.rows[i][j]

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

    # -- determinants ------------------------------------------------------

    def determinant(self) -> Fraction | int:
        """Exact determinant by fraction-free elimination with row swaps."""
        m, scales = _integer_rows(self.rows)
        pivots = _eliminate(m, swaps=True)
        if len(pivots) < self.n:
            return 0
        return _quotient(pivots[-1] if pivots else 1, prod(scales))

    def leading_principal_minors(self) -> tuple[Fraction | int, ...]:
        """The n leading principal minors, via one swap-free elimination sweep.

        The k-th pivot is the k-th leading minor of the row-scaled matrix.
        When a zero pivot is hit the sweep cannot continue, which is
        precisely the situation where that minor is zero; the remaining
        minors are then computed by independent sub-determinants.
        """
        n = self.n
        m, scales = _integer_rows(self.rows)
        pivots = _eliminate(m, swaps=False)
        minors = [_quotient(p, prod(scales[: k + 1])) for k, p in enumerate(pivots)]
        if len(pivots) < n:
            minors.append(0)
            for size in range(len(minors) + 1, n + 1):
                minors.append(ExactMatrix(tuple(row[:size] for row in self.rows[:size])).determinant())
        return tuple(minors)

    # -- inverses and solving ----------------------------------------------

    def _solve_rows(self, rhs_rows: Iterable[Sequence]) -> list[list[Fraction | int]]:
        """X with M X = B, given the rows of B; raises SingularMatrixError when det = 0."""
        n = self.n
        m, _ = _integer_rows(row + tuple(b) for row, b in zip(self.rows, rhs_rows))
        pivots = _eliminate(m, swaps=True)
        if len(pivots) < n:
            raise SingularMatrixError("matrix is singular, no exact inverse or solution")
        det = pivots[-1] if pivots else 1
        return [[_quotient(v, det) for v in row[n:]] for row in m]

    def inverse(self) -> "ExactMatrix":
        """Exact inverse; raises SingularMatrixError on singular input."""
        n = self.n
        unit_rows = ([int(i == j) for j in range(n)] for i in range(n))
        return ExactMatrix(tuple(map(tuple, self._solve_rows(unit_rows))))

    def solve(self, rhs: Sequence) -> tuple[Fraction | int, ...]:
        """Solve M x = rhs exactly; raises SingularMatrixError when det = 0."""
        if len(rhs) != self.n:
            raise ValidationError("right-hand side has wrong length")
        return tuple(x for (x,) in self._solve_rows((_coerce(b),) for b in rhs))

    # -- serialization -------------------------------------------------------

    def to_doc(self) -> dict:
        return {"n": self.n, "rows": [[format_rational(v) for v in row] for row in self.rows]}

    @classmethod
    def from_doc(cls, doc: dict) -> "ExactMatrix":
        return cls.from_rows(doc["rows"])

    def __str__(self):
        body = "; ".join(" ".join(format_rational(v) for v in row) for row in self.rows)
        return f"[{body}]"


def is_negative_definite(matrix: ExactMatrix) -> bool:
    """Sylvester test: (-1)^k times the k-th leading minor is positive for all k.

    Only symmetric matrices are accepted; the test is exact.  The pivots of
    a swap-free sweep over the row-scaled matrix are the leading minors
    times positive scales, so their signs decide.
    """
    if not matrix.is_symmetric():
        raise ValidationError("negative-definiteness is only defined for symmetric matrices")
    m, _ = _integer_rows(matrix.rows)
    pivots = _eliminate(m, swaps=False)
    return len(pivots) == matrix.n and all(
        (-1) ** (k + 1) * pivot > 0 for k, pivot in enumerate(pivots)
    )


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
    inv = matrix.inverse()
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
