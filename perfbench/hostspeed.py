"""The host's current speed, from a fixed reference load.

The benchmark shares a few cores with other tenants, and their load
slows every pure-Python instruction stream on the host, for seconds to
minutes at a time.  The reference below is a fixed piece of pure-Python
work in the style of nasharc (fraction-free integer elimination, Fraction
sums, dictionaries keyed by exponent tuples) that imports nothing from
nasharc, so no change to nasharc can change its cost.  Timing it between
operations tells how fast the host runs right now; the end-to-end
metrics are scaled to a host on which one reference call takes
NOMINAL_MS.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

NOMINAL_MS = 1.0
_N = 8
_MATRIX = tuple(tuple((i * 7 + j * 13) % 11 - 5 + (12 if i == j else 0) for j in range(_N))
                for i in range(_N))


def reference() -> tuple:
    """A fixed amount of pure-Python work; returns its result so none is skipped."""
    m = [list(row) for row in _MATRIX]
    prev = 1
    for k in range(_N - 1):
        for i in range(k + 1, _N):
            for j in range(k + 1, _N):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i % 5 + 1, i)
    terms: dict[tuple[int, int], int] = {}
    for i in range(600):
        key = (i % 13, i % 7)
        terms[key] = terms.get(key, 0) + i
    return m[-1][-1], total, len(terms)


def probe_ns() -> int:
    """Wall time of one reference call, in nanoseconds.

    An untimed call first brings the reference's code and data back into
    the caches, so the time does not depend on what ran before the probe.
    """
    reference()
    t0 = time.perf_counter_ns()
    reference()
    return time.perf_counter_ns() - t0


def slow_factor(probes_ns: list[int]) -> float:
    """The factor of the host's slower moments: the 10th percentile over the
    probes.  The slowest operations of a run mostly ran in those moments."""
    factors = sorted(NOMINAL_MS * 1e6 / ns for ns in probes_ns)
    return factors[int(0.1 * (len(factors) - 1))]


def factor(probes_ns: list[int]) -> float:
    """Measured time times this is the time on the nominal host; it is below 1
    while the host runs slower than nominal."""
    return NOMINAL_MS * 1e6 / statistics.median(probes_ns)
